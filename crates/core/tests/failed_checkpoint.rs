//! A checkpoint that fails part-way must not lose dirty flags.
//!
//! The walk records objects before it reaches the dangling reference that
//! fails it. If their flags were reset as they were recorded, the failed
//! stream would be discarded with the only copy of their state, and the
//! next increment would omit them. The sequential and parallel drivers,
//! and the journal fast path, must leave every flag set on error, so the
//! checkpoint after the repair is complete.

use ickp_core::{
    restore, verify_restore, CheckpointConfig, CheckpointStore, Checkpointer, CoreError,
    MethodTable, RestorePolicy,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, HeapError, Value};

#[test]
fn a_failed_checkpoint_keeps_every_flag_and_the_next_one_restores() {
    for workers in [None, Some(2)] {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let table = MethodTable::derive(&reg);
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let mid = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(mid, 1, Value::Ref(Some(tail))).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(mid))).unwrap();
        heap.free(tail).unwrap();

        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut take = |heap: &mut Heap| match workers {
            None => ckp.checkpoint(heap, &table, &[head]),
            Some(n) => ckp.checkpoint_parallel(heap, &table, &[head], n),
        };
        let err = take(&mut heap).unwrap_err();
        assert_eq!(err, CoreError::Heap(HeapError::DanglingObject(tail)), "{workers:?}");
        assert!(heap.is_modified(head).unwrap(), "{workers:?}: head lost its flag");
        assert!(heap.is_modified(mid).unwrap(), "{workers:?}: mid lost its flag");

        heap.set_field(mid, 1, Value::Ref(None)).unwrap();
        let record = take(&mut heap).unwrap();
        assert_eq!(record.seq(), 0, "{workers:?}: the failure consumed no sequence number");
        assert_eq!(record.stats().objects_recorded, 2, "{workers:?}");
        let mut store = CheckpointStore::new();
        store.push(record).unwrap();
        let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&heap, &[head], &rebuilt).unwrap(), None, "{workers:?}");
    }
}

#[test]
fn a_failed_journal_fast_path_keeps_every_flag() {
    // A method table derived before class `B` existed cannot record it.
    let mut reg = ClassRegistry::new();
    let a = reg.define("A", None, &[("v", FieldType::Int)]).unwrap();
    let partial = MethodTable::derive(&reg);
    let b = reg.define("B", None, &[("v", FieldType::Int)]).unwrap();
    let table = MethodTable::derive(&reg);
    let mut heap = Heap::new(reg);
    let roots = [heap.alloc(a).unwrap(), heap.alloc(b).unwrap()];
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    ckp.checkpoint(&mut heap, &table, &roots).unwrap();

    for (i, &id) in roots.iter().enumerate() {
        heap.set_field(id, 0, Value::Int(i as i32 + 1)).unwrap();
    }
    assert!(ckp.journal_ready(&heap, &roots));
    let err = ckp.checkpoint(&mut heap, &partial, &roots).unwrap_err();
    assert_eq!(err, CoreError::UnknownClassIndex(b.index() as u32));
    assert!(roots.iter().all(|&id| heap.is_modified(id).unwrap()), "a flag was lost");
    let record = ckp.checkpoint(&mut heap, &table, &roots).unwrap();
    assert_eq!(record.stats().objects_recorded, 2);
}
