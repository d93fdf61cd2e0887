//! The last-writer-wins fold over a chain of checkpoint records.
//!
//! The paper recovers state by replaying incremental checkpoints by unique
//! identifier: the newest record of each object wins. [`Fold`] is that one
//! rule, and everything that collapses a chain goes through it:
//!
//! * [`restore`](crate::restore) folds the store and materializes the
//!   result, allocating objects in fold order;
//! * [`merge_records`] folds a run of records and re-encodes it as one
//!   record (a retention merge);
//! * [`compact`] folds the whole store, drops what the producer can no
//!   longer reach, and re-encodes the rest as one full record.
//!
//! The fold keeps, per stable id, the **last** recorded state, and keeps
//! the objects in **first-touch** order (the order in which replaying the
//! chain first meets them). Restore allocates in that order, so restoring
//! a merged chain materializes the same heap — same values *and* same
//! allocation order — as restoring the original chain.
//!
//! Objects are re-encoded with the ordinary [`StreamWriter`], so an
//! object whose state came through unchanged re-encodes to exactly the
//! bytes the original record held — which is what lets the durable
//! layer's content-hash dedup recognise it.

use crate::checkpoint::CheckpointRecord;
use crate::error::CoreError;
use crate::stats::TraversalStats;
use crate::store::CheckpointStore;
use crate::stream::{decode, CheckpointKind, RecordedObject, RecordedValue, StreamWriter};
use ickp_heap::{ClassRegistry, Heap, StableId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A chain of records folded last-writer-wins per stable id.
pub(crate) struct Fold {
    /// The last recorded state of each object, in first-touch order.
    pub(crate) objects: Vec<RecordedObject>,
    /// Position of each stable id in `objects`.
    pub(crate) slot: HashMap<StableId, usize>,
    /// The tip record's sequence number.
    seq: u64,
    /// The tip record's roots.
    pub(crate) roots: Vec<StableId>,
}

impl Fold {
    /// Decodes `records` in order and folds them.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyStore`] for an empty chain; decoding errors from
    /// [`decode`].
    pub(crate) fn of(
        records: &[CheckpointRecord],
        registry: &ClassRegistry,
    ) -> Result<Fold, CoreError> {
        let tip = records.last().ok_or(CoreError::EmptyStore)?;
        let mut objects: Vec<RecordedObject> = Vec::new();
        let mut slot: HashMap<StableId, usize> = HashMap::new();
        for record in records {
            for obj in decode(record.bytes(), registry)?.objects {
                match slot.entry(obj.stable) {
                    Entry::Occupied(e) => objects[*e.get()] = obj,
                    Entry::Vacant(e) => {
                        e.insert(objects.len());
                        objects.push(obj);
                    }
                }
            }
        }
        Ok(Fold { objects, slot, seq: tip.seq(), roots: tip.roots().to_vec() })
    }

    /// The fold position of `id`, or [`CoreError::MissingObject`] if no
    /// record in the chain defines it.
    pub(crate) fn slot_of(&self, id: StableId) -> Result<usize, CoreError> {
        self.slot.get(&id).copied().ok_or(CoreError::MissingObject(id))
    }

    /// Encodes the objects `keep` selects, in fold order, as one record
    /// carrying the tip's sequence number and roots.
    fn encode(&self, kind: CheckpointKind, keep: impl Fn(usize) -> bool) -> CheckpointRecord {
        let mut w = StreamWriter::new(self.seq, kind, &self.roots);
        for obj in self.objects.iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, o)| o) {
            w.begin_object(obj.stable, obj.class, obj.fields.len());
            for field in &obj.fields {
                match *field {
                    RecordedValue::Int(v) => w.write_int(v),
                    RecordedValue::Long(v) => w.write_long(v),
                    RecordedValue::Double(v) => w.write_double(v),
                    RecordedValue::Bool(v) => w.write_bool(v),
                    RecordedValue::Ref(v) => w.write_ref(v),
                }
            }
        }
        CheckpointRecord::from_parts(
            self.seq,
            kind,
            self.roots.clone(),
            w.finish(),
            TraversalStats::default(),
        )
    }
}

/// Folds `records` (an ascending run from one chain) into a single
/// equivalent record.
///
/// The merged record carries the run's last sequence number (its identity
/// as a restore point) and the first record's kind (a run that began with
/// a full checkpoint is still complete).
///
/// # Errors
///
/// [`CoreError`] decode failures if a record does not match `registry`.
///
/// # Panics
///
/// If `records` is empty.
pub fn merge_records(
    records: &[CheckpointRecord],
    registry: &ClassRegistry,
) -> Result<CheckpointRecord, CoreError> {
    assert!(!records.is_empty(), "cannot merge zero records");
    Ok(Fold::of(records, registry)?.encode(records[0].kind(), |_| true))
}

/// Collapses `store` into a single full checkpoint that recovers the same
/// state, dropping the garbage the chain accumulated.
///
/// `live` is the producer's heap. An object survives if it is reachable in
/// the folded graph from the tip's roots or from an object whose stable id
/// `live` still allocates: the producer may re-link such an object later
/// without modifying it, and the next increment then references a record
/// only the chain holds. Everything else (superseded list nodes, collected
/// subtrees) is dropped, which is where the space win beyond
/// deduplication comes from.
///
/// The record carries the tip's sequence number, so the producer's next
/// incremental checkpoint still appends contiguously.
///
/// # Errors
///
/// * [`CoreError::EmptyStore`] for an empty store.
/// * Decoding errors from [`decode`].
/// * [`CoreError::MissingObject`] if a kept object (or a root) references
///   a stable id no record defines.
pub fn compact(store: &CheckpointStore, live: &Heap) -> Result<CheckpointStore, CoreError> {
    let fold = Fold::of(store.records(), live.registry())?;
    let mut stack = fold.roots.iter().map(|&r| fold.slot_of(r)).collect::<Result<Vec<_>, _>>()?;
    for id in live.iter_live() {
        if let Some(&s) = fold.slot.get(&live.stable_id(id)?) {
            stack.push(s);
        }
    }
    let mut keep = vec![false; fold.objects.len()];
    while let Some(s) = stack.pop() {
        if std::mem::replace(&mut keep[s], true) {
            continue;
        }
        for field in &fold.objects[s].fields {
            if let RecordedValue::Ref(Some(child)) = *field {
                stack.push(fold.slot_of(child)?);
            }
        }
    }
    let mut compacted = CheckpointStore::new();
    compacted.push(fold.encode(CheckpointKind::Full, |s| keep[s]))?;
    Ok(compacted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointConfig, Checkpointer};
    use crate::methods::MethodTable;
    use crate::restore::{restore, verify_restore, RestorePolicy};
    use ickp_heap::{ClassId, FieldType, HeapSnapshot, ObjectId, Value};

    fn node_heap() -> (Heap, ClassId) {
        let mut reg = ClassRegistry::new();
        let fields = [("v", FieldType::Int), ("next", FieldType::Ref(None))];
        let node = reg.define("Node", None, &fields).unwrap();
        (Heap::new(reg), node)
    }

    fn chain(n: usize) -> (Heap, Vec<ObjectId>, Vec<CheckpointRecord>) {
        let (mut heap, node) = node_heap();
        let b = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut records = Vec::new();
        for i in 0..n {
            heap.set_field(if i % 2 == 0 { a } else { b }, 0, Value::Int(i as i32)).unwrap();
            records.push(ckp.checkpoint(&mut heap, &table, &[a]).unwrap());
        }
        (heap, vec![a], records)
    }

    fn run_with_churn() -> (Heap, Vec<ObjectId>, CheckpointStore) {
        let (mut heap, node) = node_heap();
        let head = heap.alloc(node).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

        // Churn: repeatedly swap in a fresh tail (the old ones become
        // garbage that compaction should shed) and mutate the head.
        let mut old_tails: Vec<ObjectId> = Vec::new();
        for i in 0..6 {
            let tail = heap.alloc(node).unwrap();
            heap.set_field(tail, 0, Value::Int(100 + i)).unwrap();
            if let Value::Ref(Some(old)) = heap.field(head, 1).unwrap() {
                old_tails.push(old);
            }
            heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
            heap.set_field(head, 0, Value::Int(i)).unwrap();
            store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
        }
        for t in old_tails {
            heap.free(t).unwrap();
        }
        (heap, vec![head], store)
    }

    #[test]
    fn merged_record_restores_the_same_heap() {
        let (heap, roots_live, records) = chain(6);
        let registry = heap.registry().clone();
        let merged = merge_records(&records, &registry).unwrap();
        assert_eq!(merged.seq(), records.last().unwrap().seq());
        assert_eq!(merged.kind(), records[0].kind());

        let mut store = CheckpointStore::new();
        store.push_merged(merged).unwrap();
        let rebuilt = restore(&store, &registry, RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&heap, &roots_live, &rebuilt).unwrap(), None);
    }

    #[test]
    fn merging_a_prefix_matches_replaying_it() {
        let (heap, _, records) = chain(6);
        let registry = heap.registry().clone();

        // Restore the first 4 records directly...
        let mut plain = CheckpointStore::new();
        for r in &records[..4] {
            plain.push(r.clone()).unwrap();
        }
        let direct = restore(&plain, &registry, RestorePolicy::Lenient).unwrap();

        // ...and via a merge of [0..3] followed by record 3.
        let mut folded = CheckpointStore::new();
        folded.push_merged(merge_records(&records[..3], &registry).unwrap()).unwrap();
        folded.push_merged(records[3].clone()).unwrap();
        let via_merge = restore(&folded, &registry, RestorePolicy::Lenient).unwrap();

        assert_eq!(direct.len(), via_merge.len());
        // Object handles are heap-local; compare logical snapshots.
        let a = HeapSnapshot::capture(direct.heap(), direct.roots()).unwrap();
        let b = HeapSnapshot::capture(via_merge.heap(), via_merge.roots()).unwrap();
        assert_eq!(a.diff(&b), None);
    }

    #[test]
    fn unchanged_objects_reencode_byte_identically() {
        let (heap, _, records) = chain(4);
        let registry = heap.registry().clone();
        // Merge a single record: the fold is an identity and must
        // reproduce the original bytes exactly (the dedup premise).
        for r in &records {
            let merged = merge_records(std::slice::from_ref(r), &registry).unwrap();
            assert_eq!(merged.bytes(), r.bytes());
        }
    }

    #[test]
    fn compaction_sheds_garbage_and_bytes() {
        let (heap, _, store) = run_with_churn();
        let compacted = compact(&store, &heap).unwrap();
        assert!(compacted.total_bytes() < store.total_bytes());
        // Only head + current tail survive.
        let rebuilt = restore(&compacted, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(rebuilt.len(), 2);
        // The uncompacted store materializes every tail ever recorded.
        let full = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert!(full.len() > rebuilt.len());
    }

    #[test]
    fn compaction_preserves_the_state_and_producers_can_append() {
        let (mut heap, roots, store) = run_with_churn();
        let latest_seq = store.latest().unwrap().seq();
        let mut compacted = compact(&store, &heap).unwrap();
        assert_eq!(compacted.len(), 1);
        assert_eq!(compacted.latest().unwrap().seq(), latest_seq);
        let rebuilt = restore(&compacted, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);

        // The original run continues: its next incremental checkpoint
        // (sequence latest+1) appends contiguously to the compacted store.
        let table = MethodTable::derive(heap.registry());
        heap.set_field(roots[0], 0, Value::Int(-1)).unwrap();
        let mut producer = Checkpointer::new(CheckpointConfig::incremental());
        producer.set_next_seq(latest_seq + 1);
        compacted.push(producer.checkpoint(&mut heap, &table, &roots).unwrap()).unwrap();

        let rebuilt = restore(&compacted, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn compaction_keeps_detached_objects_the_producer_still_holds() {
        let (mut heap, node) = node_heap();
        let x = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(x))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

        // Detach `x` and compact: the tip's roots no longer reach it.
        heap.set_field(head, 1, Value::Ref(None)).unwrap();
        store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
        let mut compacted = compact(&store, &heap).unwrap();

        // Re-link the unmodified `x`: the next increment records only
        // `head`, so `x` must still come from the compacted base.
        heap.set_field(head, 1, Value::Ref(Some(x))).unwrap();
        let rec = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
        store.push(rec.clone()).unwrap();
        compacted.push(rec).unwrap();

        for chain in [&store, &compacted] {
            let rebuilt = restore(chain, heap.registry(), RestorePolicy::Lenient).unwrap();
            assert_eq!(verify_restore(&heap, &[head], &rebuilt).unwrap(), None);
        }
    }

    #[test]
    fn empty_store_cannot_be_compacted() {
        let heap = Heap::new(ClassRegistry::new());
        assert_eq!(compact(&CheckpointStore::new(), &heap).unwrap_err(), CoreError::EmptyStore);
    }
}
