//! Byte-identity of the journal fast path across all four backends.
//!
//! Each backend checkpoints one of a pair of mirrored heaps receiving
//! identical write scripts; the other heap is checkpointed by a
//! journal-free reference driver. Streams must match byte-for-byte every
//! round — including rounds served from the journal, rounds that fall
//! back to traversal after a shape change, and all-clean rounds that hit
//! the specialized backend's empty-dirty shortcut.

use ickp_backend::{Engine, GenericBackend, ParallelBackend, SpecializedBackend};
use ickp_core::{object_slices, CheckpointConfig, Checkpointer, MethodTable, TraversalStats};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_prng::Prng;
use ickp_spec::{ListPattern, NodePattern, Plan, SpecShape, Specializer};

/// A pair of mirrored list-of-lists heaps. Identical construction order
/// means identical `ObjectId`s, so one id set addresses both.
fn mirrored_world(n: usize) -> (Heap, Heap, Vec<ObjectId>, Vec<Vec<ObjectId>>) {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let build = |reg: &ClassRegistry| {
        let mut heap = Heap::new(reg.clone());
        let mut roots = Vec::new();
        let mut lists = Vec::new();
        for _ in 0..n {
            let mut ids = Vec::new();
            let mut next = None;
            for _ in 0..5 {
                let e = heap.alloc(node).unwrap();
                heap.set_field(e, 1, Value::Ref(next)).unwrap();
                next = Some(e);
                ids.push(e);
            }
            ids.reverse();
            roots.push(ids[0]);
            lists.push(ids);
        }
        (heap, roots, lists)
    };
    let (a, roots_a, lists_a) = build(&reg);
    let (b, roots_b, _) = build(&reg);
    assert_eq!(roots_a, roots_b, "mirrored construction diverged");
    (a, b, roots_a, lists_a)
}

/// Applies the same script of random writes to every mirror: mostly Int
/// writes (journal-friendly), occasionally a ref rewire that invalidates
/// the cached traversal order and forces the next round to the slow path.
fn mutate<const N: usize>(rng: &mut Prng, mut heaps: [&mut Heap; N], lists: &[Vec<ObjectId>]) {
    for _ in 0..1 + rng.index(6) {
        let list = rng.index(lists.len());
        let pos = rng.index(lists[list].len());
        let id = lists[list][pos];
        let (slot, value) = if rng.ratio(1, 8) {
            let target = if rng.next_bool() { None } else { Some(*rng.choose(&lists[list])) };
            (1, Value::Ref(target))
        } else {
            (0, Value::Int(rng.next_i32()))
        };
        for heap in heaps.iter_mut() {
            heap.set_field(id, slot, value).unwrap();
        }
    }
}

#[test]
fn generic_backends_match_the_reference_stream_every_round() {
    for engine in Engine::ALL {
        let mut rng = Prng::seed_from_u64(0xe9e1_0001);
        let (mut heap, mut ref_heap, roots, lists) = mirrored_world(8);
        let mut journaled_heap = ref_heap.clone();
        let mut backend = GenericBackend::new(engine, heap.registry());
        let table = MethodTable::derive(ref_heap.registry());
        let mut reference = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        // The same driver with direct dispatch: every counter must agree
        // with the backend's, slow-path and fast-path rounds alike.
        let mut journaled = Checkpointer::new(CheckpointConfig::incremental());
        let counters = |stats: TraversalStats| TraversalStats { bytes_reused: 0, ..stats };

        let mut journal_rounds = 0u32;
        for round in 0..20 {
            mutate(&mut rng, [&mut heap, &mut ref_heap, &mut journaled_heap], &lists);
            let a = backend.checkpoint(&mut heap, &roots).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &table, &roots).unwrap();
            let c = journaled.checkpoint(&mut journaled_heap, &table, &roots).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{engine} round {round}");
            assert_eq!(counters(a.stats()), counters(c.stats()), "{engine} round {round}");
            if a.stats().journal_hits > 0 {
                journal_rounds += 1;
            }
        }
        assert!(journal_rounds > 5, "{engine}: only {journal_rounds} journal-served rounds");
    }
}

#[test]
fn parallel_backend_matches_the_reference_stream_every_round() {
    for workers in [1usize, 2, 4] {
        let mut rng = Prng::seed_from_u64(0xe9e1_0002);
        let (mut heap, mut ref_heap, roots, lists) = mirrored_world(10);
        let mut backend = ParallelBackend::new(workers, heap.registry());
        let table = MethodTable::derive(ref_heap.registry());
        let mut reference = Checkpointer::new(CheckpointConfig::incremental().without_journal());

        for round in 0..16 {
            mutate(&mut rng, [&mut heap, &mut ref_heap], &lists);
            let a = backend.checkpoint(&mut heap, &roots).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &table, &roots).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{workers} workers, round {round}");
        }
    }
}

/// The specialized world from the backend's own test suite: holders over
/// short `MayModify` lists, compilable by the specializer.
fn spec_world(n: usize) -> (Heap, Plan, Vec<ObjectId>, Vec<Vec<ObjectId>>) {
    let mut reg = ClassRegistry::new();
    let elem =
        reg.define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
    let shape = SpecShape::object(
        holder,
        NodePattern::FrozenHere,
        vec![(0, SpecShape::list(elem, 1, 4, ListPattern::MayModify))],
    );
    let plan = Specializer::new(&reg).compile(&shape).unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    let mut lists = Vec::new();
    for _ in 0..n {
        let mut ids = Vec::new();
        let mut next = None;
        for _ in 0..4 {
            let e = heap.alloc(elem).unwrap();
            heap.set_field(e, 1, Value::Ref(next)).unwrap();
            next = Some(e);
            ids.push(e);
        }
        ids.reverse();
        let h = heap.alloc(holder).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(ids[0]))).unwrap();
        roots.push(h);
        lists.push(ids);
    }
    heap.reset_all_modified();
    (heap, plan, roots, lists)
}

/// All-clean rounds take the empty-dirty shortcut (no plan execution at
/// all) and must still emit exactly the stream a fresh backend — which
/// has no shortcut state and runs the full plan — produces.
#[test]
fn specialized_shortcut_rounds_match_a_fresh_plan_execution() {
    let mut rng = Prng::seed_from_u64(0xe9e1_0003);
    let (mut heap, plan, roots, lists) = spec_world(6);
    let (mut ref_heap, ref_plan, ref_roots, _) = spec_world(6);
    assert_eq!(roots, ref_roots, "mirrored construction diverged");
    let mut backend = SpecializedBackend::new(Engine::Harissa, plan);

    let mut shortcut_rounds = 0u32;
    for round in 0..12 {
        // Half the rounds modify nothing: the long-lived backend may take
        // the shortcut, the fresh one never can.
        if round % 2 == 0 {
            for _ in 0..1 + rng.index(4) {
                let list = rng.index(lists.len());
                let pos = rng.index(lists[list].len());
                let v = rng.next_i32();
                heap.set_field(lists[list][pos], 0, Value::Int(v)).unwrap();
                ref_heap.set_field(lists[list][pos], 0, Value::Int(v)).unwrap();
            }
        }
        let a = backend.checkpoint(&mut heap, &roots, None).unwrap();

        let mut fresh = SpecializedBackend::new(Engine::Harissa, ref_plan.clone());
        fresh.set_next_seq(a.seq());
        let b = fresh.checkpoint(&mut ref_heap, &ref_roots, None).unwrap();

        assert_eq!(a.bytes(), b.bytes(), "round {round}");
        if round % 2 == 1 {
            assert_eq!(a.stats().objects_recorded, 0, "round {round}");
            shortcut_rounds += 1;
        }
    }
    assert!(shortcut_rounds > 0);
}

/// Generic fallbacks (`Op::Generic`) over DAGs whose subobjects are shared
/// within one structure and across structures must record exactly what
/// the generic driver records for those subtrees, under the interpreted
/// and the threaded plan executor alike.
#[test]
fn generic_fallbacks_over_shared_subobjects_match_the_reference_records() {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[("v", FieldType::Int), ("l", FieldType::Ref(None)), ("r", FieldType::Ref(None))],
        )
        .unwrap();
    let holder = reg.define("Holder", None, &[("body", FieldType::Ref(Some(node)))]).unwrap();
    let shape = SpecShape::object(holder, NodePattern::FrozenHere, vec![(0, SpecShape::Dynamic)]);
    let plan = Specializer::new(&reg).compile(&shape).unwrap();
    assert!(plan.has_dynamic());

    // Per holder, a diamond `top -> {b, c} -> d`, whose `c` and `d` also
    // point at one node shared by both holders.
    let mut heap = Heap::new(reg.clone());
    let shared = heap.alloc(node).unwrap();
    let (mut holders, mut tops, mut nodes) = (Vec::new(), Vec::new(), vec![shared]);
    for _ in 0..2 {
        let [top, b, c, d] = [(); 4].map(|_| heap.alloc(node).unwrap());
        for (from, slot, to) in [(top, 1, b), (top, 2, c), (b, 1, d), (c, 1, d), (c, 2, shared)] {
            heap.set_field(from, slot, Value::Ref(Some(to))).unwrap();
        }
        heap.set_field(d, 2, Value::Ref(Some(shared))).unwrap();
        let h = heap.alloc(holder).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(top))).unwrap();
        holders.push(h);
        tops.push(top);
        nodes.extend([top, b, c, d]);
    }
    let table = MethodTable::derive(&reg);
    let records = |bytes: &[u8]| -> Vec<u8> {
        let layout = object_slices(bytes, &reg).unwrap();
        layout.objects.iter().flat_map(|r| bytes[r.clone()].to_vec()).collect()
    };

    for engine in Engine::ALL {
        let mut spec_heap = heap.clone();
        let mut ref_heap = heap.clone();
        let mut backend = SpecializedBackend::new(engine, plan.clone());
        let mut reference = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        // Round 0 records everything (all fresh); later rounds dirty the
        // shared node and one node per round.
        for round in 0..4 {
            if round > 0 {
                for h in [&mut spec_heap, &mut ref_heap] {
                    h.set_field(shared, 0, Value::Int(round)).unwrap();
                    h.set_field(nodes[round as usize], 0, Value::Int(-round)).unwrap();
                }
            }
            let a = backend.checkpoint(&mut spec_heap, &holders, Some(&table)).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &table, &tops).unwrap();
            assert!(b.stats().objects_recorded > 0, "{engine} round {round}");
            assert_eq!(records(a.bytes()), records(b.bytes()), "{engine} round {round}");
        }
    }
}
