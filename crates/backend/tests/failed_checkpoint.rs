//! A failed generic checkpoint must not lose dirty flags under any engine.
//!
//! Every engine's generic backend runs the core kernel, so a walk that
//! fails on a dangling reference resets nothing: the objects it had
//! already recorded stay dirty and the checkpoint after the repair is
//! complete.

use ickp_backend::{Engine, GenericBackend};
use ickp_core::{restore, verify_restore, CheckpointStore, CoreError, RestorePolicy};
use ickp_heap::{ClassRegistry, FieldType, Heap, HeapError, Value};

#[test]
fn a_failed_checkpoint_keeps_every_flag_under_every_engine() {
    for engine in Engine::ALL {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let mid = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(mid, 1, Value::Ref(Some(tail))).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(mid))).unwrap();
        heap.free(tail).unwrap();

        let mut backend = GenericBackend::new(engine, heap.registry());
        let err = backend.checkpoint(&mut heap, &[head]).unwrap_err();
        assert_eq!(err, CoreError::Heap(HeapError::DanglingObject(tail)), "{engine}");
        assert!(heap.is_modified(head).unwrap(), "{engine}: head lost its flag");
        assert!(heap.is_modified(mid).unwrap(), "{engine}: mid lost its flag");

        heap.set_field(mid, 1, Value::Ref(None)).unwrap();
        let record = backend.checkpoint(&mut heap, &[head]).unwrap();
        assert_eq!(record.stats().objects_recorded, 2, "{engine}");
        let mut store = CheckpointStore::new();
        store.push(record).unwrap();
        let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&heap, &[head], &rebuilt).unwrap(), None, "{engine}");
    }
}
