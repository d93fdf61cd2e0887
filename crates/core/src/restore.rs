//! Recovery: rebuilding a heap from a sequence of incremental checkpoints.
//!
//! The paper relies on unique identifiers "to reconstruct the state from a
//! sequence of incremental checkpoints"; this module implements and
//! verifies that claim. [`restore`] folds the store last-writer-wins per
//! [`StableId`] (see the `fold` module), materializes the surviving
//! objects into a fresh heap under their original identities — in
//! first-touch order, so repeated restores allocate identically — and
//! re-links references, reading each field straight from the bytes of
//! the record that holds the object's last version.

use crate::error::CoreError;
use crate::fold::{Fold, SlotIndex};
use crate::store::CheckpointStore;
use crate::stream::RecordedValue;
use ickp_heap::{ClassRegistry, Heap, HeapSnapshot, ObjectId, StableId, Value};

/// How strictly [`restore`] validates the store before replaying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestorePolicy {
    /// Require the store to begin with a full checkpoint.
    ///
    /// This is the classic recovery-line discipline: without a full base,
    /// objects that were never modified after the (missing) base would be
    /// silently absent.
    RequireFullBase,
    /// Accept any store.
    ///
    /// Correct when the producer's first checkpoint was taken while every
    /// object was still flagged modified (freshly allocated), which makes
    /// the first incremental checkpoint complete in practice.
    Lenient,
}

/// The result of a successful restore.
#[derive(Debug)]
pub struct RestoredHeap {
    heap: Heap,
    roots: Vec<ObjectId>,
    /// Fold position of each restored stable id; indexes `handles`.
    slot: SlotIndex,
    /// Handles in allocation (fold) order.
    handles: Vec<ObjectId>,
}

impl RestoredHeap {
    /// The reconstructed heap. Every object's modified flag is clear.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Consumes the restore, returning the heap for continued execution.
    pub fn into_heap(self) -> Heap {
        self.heap
    }

    /// The roots of the most recent checkpoint, as handles into the
    /// reconstructed heap.
    pub fn roots(&self) -> &[ObjectId] {
        &self.roots
    }

    /// Maps a recorded stable id to its handle in the reconstructed heap.
    pub fn lookup(&self, id: StableId) -> Option<ObjectId> {
        self.slot.get(id).map(|s| self.handles[s])
    }

    /// Number of reconstructed objects.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// `true` if nothing was reconstructed.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

/// Rebuilds program state from a checkpoint store.
///
/// # Errors
///
/// * [`CoreError::EmptyStore`] for an empty store.
/// * [`CoreError::BaseNotFull`] under [`RestorePolicy::RequireFullBase`].
/// * Validation errors from [`scan`](crate::scan).
/// * [`CoreError::MissingObject`] if a recorded reference (or a root)
///   points to a stable id that no checkpoint in the store recorded.
pub fn restore(
    store: &CheckpointStore,
    registry: &ClassRegistry,
    policy: RestorePolicy,
) -> Result<RestoredHeap, CoreError> {
    if policy == RestorePolicy::RequireFullBase && !store.is_empty() && !store.starts_full() {
        return Err(CoreError::BaseNotFull);
    }

    // Materialize in fold order, under original identities, flags clear
    // (the restored state is by definition in sync with the last
    // checkpoint).
    let fold = Fold::of(store.records(), registry)?;
    let mut heap = Heap::new(registry.clone());
    let handles = fold
        .versions
        .iter()
        .map(|v| heap.alloc_restored(v.class, v.stable, false))
        .collect::<Result<Vec<_>, _>>()?;

    // Re-link fields. Unbarriered stores keep the flags clear.
    let handle_of = |id| fold.slot_of(id).map(|s| handles[s]);
    for (version, &handle) in fold.versions.iter().zip(&handles) {
        for (slot, field) in fold.fields(version).enumerate() {
            let value = match field {
                RecordedValue::Int(v) => Value::Int(v),
                RecordedValue::Long(v) => Value::Long(v),
                RecordedValue::Double(v) => Value::Double(v),
                RecordedValue::Bool(v) => Value::Bool(v),
                RecordedValue::Ref(None) => Value::Ref(None),
                RecordedValue::Ref(Some(child)) => Value::Ref(Some(handle_of(child)?)),
            };
            heap.set_field_unbarriered(handle, slot, value)?;
        }
    }

    let roots = fold.roots().iter().map(|&r| handle_of(r)).collect::<Result<_, _>>()?;

    Ok(RestoredHeap { heap, roots, slot: fold.slot, handles })
}

/// Verifies that a restore reproduced the live state: captures logical
/// snapshots of both heaps from the given roots and compares them.
///
/// Returns a human-readable description of the first difference, or `None`
/// when the states are identical.
///
/// # Errors
///
/// Propagates snapshot-capture failures (dangling references).
pub fn verify_restore(
    live: &Heap,
    live_roots: &[ObjectId],
    restored: &RestoredHeap,
) -> Result<Option<String>, CoreError> {
    let expected = HeapSnapshot::capture(live, live_roots)?;
    let actual = HeapSnapshot::capture(restored.heap(), restored.roots())?;
    Ok(expected.diff(&actual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointConfig, Checkpointer};
    use crate::methods::MethodTable;
    use ickp_heap::{ClassId, ClassRegistry, FieldType};

    fn registry() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        (reg, node)
    }

    struct Run {
        heap: Heap,
        table: MethodTable,
        ckp: Checkpointer,
        store: CheckpointStore,
        head: ObjectId,
        tail: ObjectId,
    }

    fn start_incremental_run() -> Run {
        let (reg, node) = registry();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        heap.set_field(head, 0, Value::Int(1)).unwrap();
        heap.set_field(tail, 0, Value::Int(2)).unwrap();
        let table = MethodTable::derive(heap.registry());
        Run {
            heap,
            table,
            ckp: Checkpointer::new(CheckpointConfig::incremental()),
            store: CheckpointStore::new(),
            head,
            tail,
        }
    }

    impl Run {
        fn checkpoint(&mut self) {
            let rec = self.ckp.checkpoint(&mut self.heap, &self.table, &[self.head]).unwrap();
            self.store.push(rec).unwrap();
        }
    }

    #[test]
    fn single_checkpoint_restores_exact_state() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(verify_restore(&run.heap, &[run.head], &restored).unwrap(), None);
    }

    #[test]
    fn sequence_of_increments_replays_to_latest_state() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let tail = run.tail;
        run.heap.set_field(tail, 0, Value::Int(42)).unwrap();
        run.checkpoint();
        let head = run.head;
        run.heap.set_field(head, 0, Value::Int(-3)).unwrap();
        run.checkpoint();

        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&run.heap, &[run.head], &restored).unwrap(), None);

        // Spot-check via stable ids.
        let tail_sid = run.heap.stable_id(run.tail).unwrap();
        let r_tail = restored.lookup(tail_sid).unwrap();
        assert_eq!(restored.heap().field(r_tail, 0).unwrap(), Value::Int(42));
    }

    #[test]
    fn restored_objects_have_clear_modified_flags() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        for id in restored.heap().iter_live() {
            assert!(!restored.heap().is_modified(id).unwrap());
        }
    }

    #[test]
    fn new_objects_appearing_mid_run_are_restored() {
        let mut run = start_incremental_run();
        run.checkpoint();
        // Grow the list by one node.
        let (node, head) = (run.heap.registry().id_of("Node").unwrap(), run.head);
        let extra = run.heap.alloc(node).unwrap();
        run.heap.set_field(extra, 0, Value::Int(7)).unwrap();
        let old_next = run.heap.field(head, 1).unwrap();
        run.heap.set_field(extra, 1, old_next).unwrap();
        run.heap.set_field(head, 1, Value::Ref(Some(extra))).unwrap();
        run.checkpoint();

        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(verify_restore(&run.heap, &[run.head], &restored).unwrap(), None);
    }

    #[test]
    fn restore_allocates_in_first_touch_order_every_time() {
        // A 24-node list recorded whole, then increments that touch a
        // scattering of old nodes and prepend fresh ones.
        let (reg, node) = registry();
        let mut heap = Heap::new(reg);
        let mut head = heap.alloc(node).unwrap();
        for _ in 0..23 {
            let n = heap.alloc(node).unwrap();
            heap.set_field(n, 1, Value::Ref(Some(head))).unwrap();
            head = n;
        }
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
        let nodes: Vec<ObjectId> = heap.iter_live().collect();
        for round in 0..3 {
            for &n in nodes.iter().rev().step_by(3 + round) {
                heap.set_field(n, 0, Value::Int(round as i32)).unwrap();
            }
            let fresh = heap.alloc(node).unwrap();
            heap.set_field(fresh, 1, Value::Ref(Some(head))).unwrap();
            head = fresh;
            store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
        }

        // Replay meets the base list head-first (ids 24 down to 1), then
        // each round's fresh head (25, 26, 27).
        let first_touch: Vec<StableId> = (1..=24).rev().chain(25..=27).map(StableId).collect();
        for _ in 0..2 {
            let r = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
            let ids: Vec<StableId> =
                r.heap().iter_live().map(|id| r.heap().stable_id(id).unwrap()).collect();
            assert_eq!(ids, first_touch);
            assert_eq!(verify_restore(&heap, &[head], &r).unwrap(), None);
        }
    }

    #[test]
    fn empty_store_is_rejected() {
        let (reg, _) = registry();
        assert_eq!(
            restore(&CheckpointStore::new(), &reg, RestorePolicy::Lenient).unwrap_err(),
            CoreError::EmptyStore
        );
    }

    #[test]
    fn strict_policy_requires_full_base() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let err =
            restore(&run.store, run.heap.registry(), RestorePolicy::RequireFullBase).unwrap_err();
        assert_eq!(err, CoreError::BaseNotFull);
    }

    #[test]
    fn full_base_plus_increments_restores_under_strict_policy() {
        let (reg, node) = registry();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut store = CheckpointStore::new();

        let mut full = Checkpointer::new(CheckpointConfig::full());
        store.push(full.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

        let mut incr = Checkpointer::new(CheckpointConfig::incremental());
        // Continue the sequence numbering after the full base.
        incr.checkpoint(&mut heap, &table, &[head]).unwrap(); // seq 0, discard
        heap.set_field(tail, 0, Value::Int(5)).unwrap();
        let rec = incr.checkpoint(&mut heap, &table, &[head]).unwrap(); // seq 1
        store.push(rec).unwrap();

        let restored = restore(&store, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &[head], &restored).unwrap(), None);
    }

    #[test]
    fn missing_referenced_object_is_reported() {
        // Take only the *second* incremental checkpoint (the first, which
        // recorded the tail, is dropped) — the head then references an id
        // the store never defines.
        let mut run = start_incremental_run();
        run.checkpoint();
        let head = run.head;
        run.heap.set_field(head, 0, Value::Int(10)).unwrap();
        let rec2 = run.ckp.checkpoint(&mut run.heap, &run.table, &[head]).unwrap();
        let mut partial = CheckpointStore::new();
        partial.push(rec2).unwrap();
        let err = restore(&partial, run.heap.registry(), RestorePolicy::Lenient).unwrap_err();
        assert!(matches!(err, CoreError::MissingObject(_)));
    }

    #[test]
    fn verify_detects_post_checkpoint_divergence() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        // Mutate the live heap *after* the checkpoint.
        let head = run.head;
        run.heap.set_field(head, 0, Value::Int(1000)).unwrap();
        let diff = verify_restore(&run.heap, &[run.head], &restored).unwrap();
        assert!(diff.is_some());
    }

    #[test]
    fn restored_heap_supports_continued_execution_and_checkpointing() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        let roots = restored.roots().to_vec();
        let mut heap = restored.into_heap();
        // Keep running: mutate and take a fresh checkpoint.
        heap.set_field(roots[0], 0, Value::Int(77)).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let rec = ckp.checkpoint(&mut heap, &table, &roots).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
    }
}
