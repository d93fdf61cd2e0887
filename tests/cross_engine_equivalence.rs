//! Cross-engine equivalence: every checkpoint producer in the workspace —
//! generic sequential, specialized (interpreted, both guard modes),
//! threaded-code, and the parallel sharded engine — must be
//! restore-equivalent on the same heap states, and their records must be
//! freely mixable within one store.
//!
//! Randomized over synthetic worlds with the in-repo seeded PRNG; each
//! case is fully determined by its seed, named in the assertion message.

use ickp::analysis::{AnalysisEngine, Division, Phase};
use ickp::backend::{Engine, ParallelBackend, SpecializedBackend};
use ickp::core::{
    compact, decode, restore, verify_restore, CheckpointConfig, CheckpointStore, Checkpointer,
    MethodTable, RestorePolicy,
};
use ickp::minic::{parse, programs::image_program_source};
use ickp::spec::{GuardMode, SpecializedCheckpointer, Specializer};
use ickp::synth::{ModificationSpec, SynthConfig, SynthWorld};
use ickp_prng::Prng;

fn random_config(rng: &mut Prng) -> SynthConfig {
    SynthConfig {
        structures: 1 + rng.index(11),
        lists_per_structure: 1 + rng.index(3),
        list_len: 1 + rng.index(5),
        ints_per_element: 1 + rng.index(3),
        seed: rng.next_u64(),
    }
}

/// On identical heap states, every engine emits a stream decoding to the
/// same object records — and the parallel engine's stream is byte-for-byte
/// the generic sequential one's.
#[test]
fn all_engines_record_the_same_objects() {
    for case in 0..32u64 {
        let mut rng = Prng::seed_from_u64(0x5ead_0000 + case);
        let config = random_config(&mut rng);
        let pct = rng.below(101) as u8;
        let workers = 1 + rng.index(6);

        let mut world = SynthWorld::build(config).unwrap();
        world.apply_modifications(&ModificationSpec::uniform(pct));
        let roots = world.roots().to_vec();
        let registry = world.heap().registry().clone();
        let table = MethodTable::derive(&registry);
        let plan = Specializer::new(&registry).compile(&world.shape_structure_only()).unwrap();

        let mut generic_heap = world.heap().clone();
        let reference = Checkpointer::new(CheckpointConfig::incremental())
            .checkpoint(&mut generic_heap, &table, &roots)
            .unwrap();
        let expect = decode(reference.bytes(), &registry).unwrap();

        // Parallel: byte-identical, not merely record-equivalent.
        let mut par_heap = world.heap().clone();
        let par =
            ParallelBackend::new(workers, &registry).checkpoint(&mut par_heap, &roots).unwrap();
        assert_eq!(par.bytes(), reference.bytes(), "case {case} (parallel, {workers} workers)");

        // Specialized interpreter under both guard modes.
        for mode in [GuardMode::Trusting, GuardMode::Checked] {
            let mut heap = world.heap().clone();
            let rec = SpecializedCheckpointer::new(mode)
                .checkpoint(&mut heap, &plan, &roots, None)
                .unwrap();
            let got = decode(rec.bytes(), &registry).unwrap();
            assert_eq!(got.objects, expect.objects, "case {case} ({mode:?})");
        }

        // Threaded code (Jdk12 runs the plan threaded on every round).
        let mut heap = world.heap().clone();
        let rec = SpecializedBackend::new(Engine::Jdk12, plan.clone())
            .checkpoint(&mut heap, &roots, None)
            .unwrap();
        let got = decode(rec.bytes(), &registry).unwrap();
        assert_eq!(got.objects, expect.objects, "case {case} (threaded)");
    }
}

/// A single store fed by rotating producers — parallel base, then
/// generic / specialized / threaded / parallel increments — restores to
/// exactly the live state.
#[test]
fn mixed_engine_stores_restore_exactly() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0x3713_0000 + case);
        let config = random_config(&mut rng);
        let lists = config.lists_per_structure;
        let rounds = 2 + rng.index(5);
        let workers = 1 + rng.index(6);

        let mut world = SynthWorld::build(config).unwrap();
        let roots = world.roots().to_vec();
        let registry = world.heap().registry().clone();
        let table = MethodTable::derive(&registry);
        let plan = Specializer::new(&registry).compile(&world.shape_structure_only()).unwrap();

        let mut store = CheckpointStore::new();
        let mut parallel = ParallelBackend::new(workers, &registry);
        let mut generic = Checkpointer::new(CheckpointConfig::incremental());
        let mut spec = SpecializedCheckpointer::new(GuardMode::Checked);
        let mut threaded = SpecializedBackend::new(Engine::Jdk12, plan.clone());

        world.heap_mut().mark_all_modified();
        store.push(parallel.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();

        for round in 0..rounds {
            world.apply_modifications(&ModificationSpec {
                pct_modified: rng.below(101) as u8,
                modified_lists: lists,
                last_only: false,
            });
            let seq = store.len() as u64;
            let rec = match round % 4 {
                0 => {
                    generic.set_next_seq(seq);
                    generic.checkpoint(world.heap_mut(), &table, &roots).unwrap()
                }
                1 => {
                    spec.set_next_seq(seq);
                    spec.checkpoint(world.heap_mut(), &plan, &roots, None).unwrap()
                }
                2 => {
                    threaded.set_next_seq(seq);
                    threaded.checkpoint(world.heap_mut(), &roots, None).unwrap()
                }
                _ => {
                    parallel.set_next_seq(seq);
                    parallel.checkpoint(world.heap_mut(), &roots).unwrap()
                }
            };
            store.push(rec).unwrap();
        }

        let rebuilt = restore(&store, &registry, RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None, "case {case}");
    }
}

/// Compacting a store produced by the parallel engine preserves the
/// recoverable state, and the compacted store satisfies the strict
/// full-base restore policy.
#[test]
fn compaction_after_parallel_checkpoints_preserves_state() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0xc0de_ca11 + case);
        let config = random_config(&mut rng);
        let lists = config.lists_per_structure;
        let rounds = 1 + rng.index(4);
        let workers = 1 + rng.index(6);

        let mut world = SynthWorld::build(config).unwrap();
        let roots = world.roots().to_vec();
        let registry = world.heap().registry().clone();
        let mut backend = ParallelBackend::new(workers, &registry);

        let mut store = CheckpointStore::new();
        world.heap_mut().mark_all_modified();
        store.push(backend.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();
        for _ in 0..rounds {
            world.apply_modifications(&ModificationSpec {
                pct_modified: rng.below(101) as u8,
                modified_lists: lists,
                last_only: rng.next_bool(),
            });
            store.push(backend.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();
        }

        let compacted = compact(&store, world.heap()).unwrap();
        assert_eq!(compacted.len(), 1, "case {case}");
        let rebuilt = restore(&compacted, &registry, RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None, "case {case}");

        // And the run can continue: one more parallel increment on top of
        // the compacted base still restores exactly.
        let mut continued = compacted;
        world.apply_modifications(&ModificationSpec::uniform(40));
        backend.set_next_seq(continued.latest().unwrap().seq() + 1);
        continued.push(backend.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();
        let rebuilt = restore(&continued, &registry, RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None, "case {case}");
    }
}

/// The realistic workload: the program-analysis engine's attribute heap,
/// checkpointed in parallel across binding-time iterations, restores to
/// exactly the live analysis state.
#[test]
fn analysis_workload_restores_exactly_under_the_parallel_engine() {
    let program = parse(&image_program_source(6)).expect("program parses");
    let mut engine = AnalysisEngine::new(
        program,
        Division { dynamic_globals: vec!["image".into(), "work".into()] },
    )
    .expect("engine builds");
    engine.run_phase(Phase::SideEffect, |_, _, _| Ok(())).expect("SE");
    engine.run_phase(Phase::BindingTime, |_, _, _| Ok(())).expect("BTA");

    let roots = engine.roots().to_vec();
    let registry = engine.heap().registry().clone();
    let schema = *engine.schema();
    let mut backend = ParallelBackend::new(4, &registry);
    let mut store = CheckpointStore::new();

    engine.heap_mut().mark_all_modified();
    store.push(backend.checkpoint(engine.heap_mut(), &roots).unwrap()).unwrap();

    // Simulated further iterations dirtying slices of the annotations.
    for round in 0..3i32 {
        for (i, &attrs) in roots.clone().iter().enumerate() {
            if i % 7 == round as usize % 7 {
                schema.set_bt_ann(engine.heap_mut(), attrs, 200 + round).expect("set ann");
            }
        }
        store.push(backend.checkpoint(engine.heap_mut(), &roots).unwrap()).unwrap();
    }

    let rebuilt = restore(&store, &registry, RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(engine.heap(), &roots, &rebuilt).unwrap(), None);
}
