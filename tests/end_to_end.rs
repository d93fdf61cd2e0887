//! Cross-crate integration: the full pipeline from workload construction
//! through specialized checkpointing to verified recovery.

use ickp::backend::{Engine, GenericBackend, SpecializedBackend};
use ickp::core::{
    decode, restore, verify_restore, CheckpointConfig, CheckpointRecord, CheckpointStore,
    Checkpointer, MethodTable, RestorePolicy,
};
use ickp::heap::HeapSnapshot;
use ickp::spec::{GuardMode, SpecializedCheckpointer, Specializer};
use ickp::synth::{ModificationSpec, SynthConfig, SynthWorld};

fn small_world() -> SynthWorld {
    SynthWorld::build(SynthConfig {
        structures: 25,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 2,
        seed: 31,
    })
    .expect("world builds")
}

#[test]
fn specialized_checkpoint_stream_restores_across_many_rounds() {
    let mut world = small_world();
    let roots = world.roots().to_vec();
    let plan = Specializer::new(world.heap().registry())
        .compile(&world.shape_structure_only())
        .expect("plan compiles");

    let mut store = CheckpointStore::new();
    let mut base = Checkpointer::new(CheckpointConfig::incremental());
    world.heap_mut().mark_all_modified();
    let table = MethodTable::derive(world.heap().registry());
    store.push(base.checkpoint(world.heap_mut(), &table, &roots).unwrap()).unwrap();

    let mut spec = SpecializedCheckpointer::new(GuardMode::Checked);
    spec.set_next_seq(store.len() as u64);
    for pct in [100u8, 50, 25, 50, 100] {
        world.apply_modifications(&ModificationSpec::uniform(pct));
        let rec = spec.checkpoint(world.heap_mut(), &plan, &roots, None).unwrap();
        store.push(rec).unwrap();
    }

    let rebuilt = restore(&store, world.heap().registry(), RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None);
}

#[test]
fn mixed_generic_and_specialized_records_interoperate_in_one_store() {
    let mut world = small_world();
    let roots = world.roots().to_vec();
    let table = MethodTable::derive(world.heap().registry());
    let plan = Specializer::new(world.heap().registry())
        .compile(&world.shape_structure_only())
        .expect("plan compiles");

    let mut store = CheckpointStore::new();
    let mut generic = Checkpointer::new(CheckpointConfig::incremental());
    let mut spec = SpecializedCheckpointer::new(GuardMode::Checked);

    world.heap_mut().mark_all_modified();
    let rec = generic.checkpoint(world.heap_mut(), &table, &roots).unwrap();
    store.push(rec).unwrap();

    for (i, pct) in [50u8, 25, 50].into_iter().enumerate() {
        world.apply_modifications(&ModificationSpec::uniform(pct));
        let rec = if i % 2 == 0 {
            spec.set_next_seq(store.len() as u64);
            spec.checkpoint(world.heap_mut(), &plan, &roots, None).unwrap()
        } else {
            generic.set_next_seq(store.len() as u64);
            generic.checkpoint(world.heap_mut(), &table, &roots).unwrap()
        };
        store.push(rec).unwrap();
    }

    let rebuilt = restore(&store, world.heap().registry(), RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None);
}

#[test]
fn every_backend_engine_feeds_the_same_restore_path() {
    for engine in Engine::ALL {
        let mut world = small_world();
        let roots = world.roots().to_vec();

        let mut store = CheckpointStore::new();
        let mut gb = GenericBackend::new(engine, world.heap().registry());
        world.heap_mut().mark_all_modified();
        store.push(gb.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();

        let plan = Specializer::new(world.heap().registry())
            .compile(&world.shape_last_only(2))
            .expect("plan compiles");
        let mut sb = SpecializedBackend::new(engine, plan);
        for i in 0..3 {
            world.apply_modifications(&ModificationSpec {
                pct_modified: 60,
                modified_lists: 2,
                last_only: true,
            });
            let rec = sb.checkpoint(world.heap_mut(), &roots, None).unwrap();
            // Backends number their own records from 0; renumber for the
            // shared store (in-memory only — persisted stores should use
            // one driver's contiguous numbering instead).
            store
                .push(CheckpointRecord::from_parts(
                    1 + i,
                    rec.kind(),
                    rec.roots().to_vec(),
                    rec.bytes().to_vec(),
                    rec.stats(),
                ))
                .unwrap();
        }

        let rebuilt = restore(&store, world.heap().registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None, "{engine}");
    }
}

#[test]
fn all_variants_emit_identical_record_sets_for_the_same_dirty_state() {
    // Freeze one dirty state, then checkpoint it with every implementation
    // on clones of the heap: the decoded record sets must be identical.
    let mut world = small_world();
    world.apply_modifications(&ModificationSpec {
        pct_modified: 40,
        modified_lists: 3,
        last_only: false,
    });
    let roots = world.roots().to_vec();
    let registry = world.heap().registry().clone();
    let table = MethodTable::derive(&registry);
    let plan_structure =
        Specializer::new(&registry).compile(&world.shape_structure_only()).unwrap();
    let plan_lists = Specializer::new(&registry).compile(&world.shape_modified_lists(3)).unwrap();

    let mut record_sets: Vec<Vec<u64>> = Vec::new();

    // Generic.
    {
        let mut heap = world.heap().clone();
        let mut c = Checkpointer::new(CheckpointConfig::incremental());
        let rec = c.checkpoint(&mut heap, &table, &roots).unwrap();
        let d = decode(rec.bytes(), &registry).unwrap();
        let mut ids: Vec<u64> = d.objects.iter().map(|o| o.stable.raw()).collect();
        ids.sort_unstable();
        record_sets.push(ids);
    }
    // Specialized plans (structure / lists) and engine backends.
    for plan in [&plan_structure, &plan_lists] {
        let mut heap = world.heap().clone();
        let mut c = SpecializedCheckpointer::new(GuardMode::Checked);
        let rec = c.checkpoint(&mut heap, plan, &roots, None).unwrap();
        let d = decode(rec.bytes(), &registry).unwrap();
        let mut ids: Vec<u64> = d.objects.iter().map(|o| o.stable.raw()).collect();
        ids.sort_unstable();
        record_sets.push(ids);
    }
    for engine in Engine::ALL {
        let mut heap = world.heap().clone();
        let mut b = GenericBackend::new(engine, &registry);
        let rec = b.checkpoint(&mut heap, &roots).unwrap();
        let d = decode(rec.bytes(), &registry).unwrap();
        let mut ids: Vec<u64> = d.objects.iter().map(|o| o.stable.raw()).collect();
        ids.sort_unstable();
        record_sets.push(ids);
    }

    for (i, set) in record_sets.iter().enumerate().skip(1) {
        assert_eq!(set, &record_sets[0], "variant {i} diverged");
    }
    assert!(!record_sets[0].is_empty());
}

#[test]
fn garbage_collection_checkpointing_and_compaction_compose() {
    use ickp::core::compact;
    use ickp::heap::{ClassRegistry, FieldType, Heap, Value};

    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    let head = heap.alloc(node).unwrap();

    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut store = CheckpointStore::new();
    store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

    // Churn: repeatedly replace the tail; superseded tails become garbage.
    for i in 0..5 {
        let tail = heap.alloc(node).unwrap();
        heap.set_field(tail, 0, Value::Int(i)).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
    }
    assert_eq!(heap.len(), 6, "head + 5 tails, 4 of them garbage");

    // Collect, then keep checkpointing: GC is invisible to the stream.
    let stats = heap.collect(&[head]).unwrap();
    assert_eq!(stats.freed, 4);
    heap.set_field(head, 0, Value::Int(99)).unwrap();
    store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

    // Restore: old records resurrect garbage as unreachable extras; the
    // reachable state matches the live heap exactly.
    let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(&heap, &[head], &rebuilt).unwrap(), None);
    assert!(rebuilt.len() > heap.len(), "restore materializes dead records too");

    // Compaction sheds them from the store for good.
    let compacted = compact(&store, &heap).unwrap();
    let rebuilt2 = restore(&compacted, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
    assert_eq!(verify_restore(&heap, &[head], &rebuilt2).unwrap(), None);
    assert_eq!(rebuilt2.len(), heap.len(), "compacted store holds only the live set");
}

#[test]
fn snapshots_certify_checkpoint_transparency() {
    // Checkpointing must not change program-visible state: the logical
    // snapshot before and after a checkpoint is identical (only the
    // modified flags, which are checkpoint metadata, change).
    let mut world = small_world();
    let roots = world.roots().to_vec();
    world.apply_modifications(&ModificationSpec::uniform(50));
    let before = HeapSnapshot::capture(world.heap(), &roots).unwrap();

    let table = MethodTable::derive(world.heap().registry());
    let mut c = Checkpointer::new(CheckpointConfig::incremental());
    c.checkpoint(world.heap_mut(), &table, &roots).unwrap();

    let after = HeapSnapshot::capture(world.heap(), &roots).unwrap();
    assert_eq!(before, after);
    assert_eq!(before.state_hash(), after.state_hash());
}
