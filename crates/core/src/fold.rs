//! The last-writer-wins fold over a chain of checkpoint records.
//!
//! The paper recovers state by replaying incremental checkpoints by unique
//! identifier: the newest record of each object wins. [`Fold`] is that one
//! rule, and everything that collapses a chain goes through it:
//!
//! * [`restore`](crate::restore) folds the store and materializes the
//!   result, allocating objects in fold order;
//! * [`merge_records`] folds a run of records into one record (a
//!   retention merge);
//! * [`compact`] folds the whole store, drops what the producer can no
//!   longer reach, and writes the rest as one full record.
//!
//! The fold keeps, per stable id, the **last** recorded version, and keeps
//! the objects in **first-touch** order (the order in which replaying the
//! chain first meets them). Restore allocates in that order, so restoring
//! a merged chain materializes the same heap — same values *and* same
//! allocation order — as restoring the original chain.
//!
//! The fold is an index, not a copy: it borrows the records, validates
//! each one once with [`scan`], and remembers only *where* each object's
//! last version lives (record index and byte offset). Restore reads field
//! values straight from those bytes. Merge and compaction copy each
//! winning object's record bytes verbatim, so an object whose state came
//! through unchanged keeps exactly the bytes the original record held —
//! which is what lets the durable layer's content-hash dedup recognise
//! it.

use crate::checkpoint::CheckpointRecord;
use crate::error::CoreError;
use crate::stats::TraversalStats;
use crate::store::CheckpointStore;
use crate::stream::{
    read_fields, scan, CheckpointKind, RecordedValue, StreamWriter, RECORD_HEADER_BYTES,
};
use ickp_heap::{ClassId, ClassRegistry, Heap, StableId};
use std::collections::HashMap;

/// The fold position of each stable id.
///
/// The heap hands out stable ids densely from 1, so an id below the
/// number of object records the folded bytes could hold indexes a table
/// directly: no hashing, and a chain recorded in allocation order walks
/// the table almost sequentially. Any other id — one the bytes cannot
/// justify, whether crafted or left sparse by long GC churn — goes to a
/// std map, whose keyed hash keeps crafted ids from colliding. The table
/// grows only as ids arrive and never past that bound, so no count read
/// from a stream sizes an allocation. EXPERIMENTS.md ("The id → slot
/// map") measures it against a plain map and counts the ids each path
/// takes.
#[derive(Debug, Default)]
pub(crate) struct SlotIndex {
    /// `dense[id]` is the slot of `id` plus one; 0 marks an absent id.
    dense: Vec<usize>,
    /// Ids below this bound live in `dense`, all others in `sparse`.
    bound: u64,
    /// Slot plus one of each id at or above `bound`.
    sparse: HashMap<StableId, usize>,
}

impl SlotIndex {
    /// An index for the ids of a chain of `bytes` record bytes.
    fn for_bytes(bytes: usize) -> SlotIndex {
        SlotIndex { bound: (bytes / RECORD_HEADER_BYTES) as u64, ..SlotIndex::default() }
    }

    /// The slot of `id`, if the index holds it.
    pub(crate) fn get(&self, id: StableId) -> Option<usize> {
        let entry = if id.raw() < self.bound {
            self.dense.get(id.raw() as usize)
        } else {
            self.sparse.get(&id)
        };
        entry.and_then(|s| s.checked_sub(1))
    }

    /// The entry of `id`: its slot plus one, or 0 if absent.
    fn entry(&mut self, id: StableId) -> &mut usize {
        if id.raw() < self.bound {
            // Below the bound, so the id fits a `usize`.
            let at = id.raw() as usize;
            if at >= self.dense.len() {
                self.dense.resize(at + 1, 0);
            }
            &mut self.dense[at]
        } else {
            self.sparse.entry(id).or_insert(0)
        }
    }
}

/// Where the last recorded version of one object lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Version {
    /// The object's stable identity.
    pub(crate) stable: StableId,
    /// Its class (valid for the registry the fold scanned with).
    pub(crate) class: ClassId,
    /// Index of the record holding this version in the folded chain.
    record: usize,
    /// Byte offset of the version's field bytes in that record.
    fields: usize,
}

/// A chain of records folded last-writer-wins per stable id.
pub(crate) struct Fold<'a> {
    records: &'a [CheckpointRecord],
    /// The registry the records were validated against.
    registry: &'a ClassRegistry,
    /// The last version of each object, in first-touch order.
    pub(crate) versions: Vec<Version>,
    /// Position of each stable id in `versions`.
    pub(crate) slot: SlotIndex,
}

impl<'a> Fold<'a> {
    /// Validates `records` in order and folds them.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyStore`] for an empty chain; validation errors
    /// from [`scan`].
    pub(crate) fn of(
        records: &'a [CheckpointRecord],
        registry: &'a ClassRegistry,
    ) -> Result<Fold<'a>, CoreError> {
        if records.is_empty() {
            return Err(CoreError::EmptyStore);
        }
        // Neither container is sized from counts in the stream: a
        // hostile count must not size an allocation.
        let mut versions: Vec<Version> = Vec::new();
        let mut slot = SlotIndex::for_bytes(records.iter().map(|r| r.bytes().len()).sum());
        for (record, r) in records.iter().enumerate() {
            scan(r.bytes(), registry, |stable, class, fields| {
                let version = Version { stable, class, record, fields: fields.start };
                let entry = slot.entry(stable);
                match entry.checked_sub(1) {
                    Some(s) => versions[s] = version,
                    None => {
                        versions.push(version);
                        *entry = versions.len();
                    }
                }
            })?;
        }
        Ok(Fold { records, registry, versions, slot })
    }

    fn tip(&self) -> &'a CheckpointRecord {
        self.records.last().expect("a fold holds at least one record")
    }

    /// The tip record's roots.
    pub(crate) fn roots(&self) -> &'a [StableId] {
        self.tip().roots()
    }

    /// The fold position of `id`, or [`CoreError::MissingObject`] if no
    /// record in the chain defines it.
    pub(crate) fn slot_of(&self, id: StableId) -> Result<usize, CoreError> {
        self.slot.get(id).ok_or(CoreError::MissingObject(id))
    }

    /// The field values of `version`, read from its record's bytes.
    pub(crate) fn fields(&self, version: &Version) -> impl Iterator<Item = RecordedValue> + 'a {
        let def = self.registry.class(version.class).expect("the fold validated the class");
        read_fields(self.records[version.record].bytes(), version.fields, def.layout())
    }

    /// Copies the record bytes of the versions `keep` selects, in fold
    /// order, into one record carrying the tip's sequence number and
    /// roots.
    fn encode(&self, kind: CheckpointKind, keep: impl Fn(usize) -> bool) -> CheckpointRecord {
        let sizes: Vec<usize> = self.registry.iter().map(|def| def.encoded_state_size()).collect();
        let tip = self.tip();
        let mut w = StreamWriter::new(tip.seq(), kind, tip.roots());
        for (_, v) in self.versions.iter().enumerate().filter(|&(i, _)| keep(i)) {
            let record = &self.records[v.record].bytes()[v.fields - RECORD_HEADER_BYTES..];
            w.append_shard(&record[..RECORD_HEADER_BYTES + sizes[v.class.index()]], 1);
        }
        CheckpointRecord::from_parts(
            tip.seq(),
            kind,
            tip.roots().to_vec(),
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
/// [`CoreError`] validation failures from [`scan`] if a record does not
/// match `registry`.
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
/// * Validation errors from [`scan`].
/// * [`CoreError::MissingObject`] if a kept object (or a root) references
///   a stable id no record defines.
pub fn compact(store: &CheckpointStore, live: &Heap) -> Result<CheckpointStore, CoreError> {
    let fold = Fold::of(store.records(), live.registry())?;
    let mut stack = fold.roots().iter().map(|&r| fold.slot_of(r)).collect::<Result<Vec<_>, _>>()?;
    for id in live.iter_live() {
        if let Some(s) = fold.slot.get(live.stable_id(id)?) {
            stack.push(s);
        }
    }
    let mut keep = vec![false; fold.versions.len()];
    while let Some(s) = stack.pop() {
        if std::mem::replace(&mut keep[s], true) {
            continue;
        }
        for field in fold.fields(&fold.versions[s]) {
            if let RecordedValue::Ref(Some(child)) = field {
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
    fn ids_beyond_what_the_bytes_justify_fold_through_the_sparse_map() {
        let (heap, node) = node_heap();
        let registry = heap.registry();
        // One small record: its bytes justify only a handful of dense
        // ids, so the large ones take the sparse path.
        let ids = [StableId(3), StableId(1 << 40), StableId(u64::MAX)];
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &ids[..1]);
        for (i, &id) in ids.iter().enumerate() {
            w.begin_object(id, node, 2);
            w.write_int(i as i32);
            w.write_ref(ids.get(i + 1).copied());
        }
        let bytes = w.finish();
        let record = CheckpointRecord::from_parts(
            0,
            CheckpointKind::Full,
            vec![ids[0]],
            bytes,
            TraversalStats::default(),
        );
        let fold = Fold::of(std::slice::from_ref(&record), registry).unwrap();
        assert!(ids[1].raw() >= fold.slot.bound);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(fold.slot_of(id).unwrap(), i);
        }
        assert_eq!(fold.slot_of(StableId(4)).unwrap_err(), CoreError::MissingObject(StableId(4)));

        let mut store = CheckpointStore::new();
        store.push(record).unwrap();
        let rebuilt = restore(&store, registry, RestorePolicy::Lenient).unwrap();
        let mut at = rebuilt.roots()[0];
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(rebuilt.lookup(id), Some(at));
            assert_eq!(rebuilt.heap().field(at, 0).unwrap(), Value::Int(i as i32));
            match rebuilt.heap().field(at, 1).unwrap() {
                Value::Ref(Some(next)) => at = next,
                other => assert_eq!((i, other), (ids.len() - 1, Value::Ref(None))),
            }
        }
    }

    #[test]
    fn empty_store_cannot_be_compacted() {
        let heap = Heap::new(ClassRegistry::new());
        assert_eq!(compact(&CheckpointStore::new(), &heap).unwrap_err(), CoreError::EmptyStore);
    }
}
