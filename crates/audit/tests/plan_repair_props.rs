//! Randomized plan repair: a repaired shard plan *is* a fresh plan.
//!
//! Mirrored random DAG heaps, whose subgraphs are shared across roots,
//! receive the same script of shape changes: add an edge, remove one
//! (possibly detaching a subtree), swap list neighbours, allocate and
//! link, collect garbage, change the worker count, flip the balance
//! strategy, and overflow the structural log. After every step:
//!
//! * for both [`ShardBalance`] values, [`refresh_plan`] applied to the
//!   previous step's plan equals [`plan_shards`] from scratch — owner
//!   table, bounds and per-root weights, slot for slot;
//! * `checkpoint_parallel` on a journal-enabled and a journal-free engine
//!   emits the bytes (and, journal-free, the stats) of the sequential
//!   driver on a third mirror;
//! * [`cross_validate_shards_with`] passes on a long-lived engine, whose
//!   plan is repaired from round to round.
//!
//! Targeted cases pin which path ran — repaired or rebuilt — for a plain
//! link, a detach, a log overflow and a freed owned object. Each random
//! case is fully determined by its seed, named in every assertion.

use ickp_audit::cross_validate_shards_with;
use ickp_core::{
    plan_shards, refresh_plan, CheckpointConfig, Checkpointer, MethodTable, PlanSource,
    ShardBalance, TraversalStats,
};
use ickp_heap::{
    validate_acyclic, ClassId, ClassRegistry, FieldType, Heap, ObjectId, ShardPlan, Value,
    STRUCTURE_LOG_CAPACITY,
};
use ickp_prng::Prng;

const REF_SLOTS: usize = 3;
const BALANCES: [ShardBalance; 2] = [ShardBalance::Bytes, ShardBalance::RootCount];

/// Mirror 0: journal-enabled parallel engine; 1: journal-free parallel
/// engine; 2: journal-free sequential reference.
const MIRRORS: usize = 3;

/// One scripted step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    AddEdge,
    RemoveEdge,
    SwapNeighbours,
    AllocLink,
    CollectGarbage,
    Workers,
    FlipBalance,
    Overflow,
}

const STEPS: [Step; 8] = [
    Step::AddEdge,
    Step::RemoveEdge,
    Step::SwapNeighbours,
    Step::AllocLink,
    Step::CollectGarbage,
    Step::Workers,
    Step::FlipBalance,
    Step::Overflow,
];

/// `MIRRORS` heaps kept identical by replaying every operation on each;
/// allocation order is identical, so one id list serves all of them.
struct World {
    heaps: Vec<Heap>,
    class: ClassId,
    roots: Vec<ObjectId>,
    objects: Vec<ObjectId>,
}

impl World {
    /// A bottom-up random DAG (each object references earlier ones only)
    /// and a random subset of it as roots, so roots share subgraphs.
    fn random(rng: &mut Prng) -> World {
        let mut reg = ClassRegistry::new();
        let mut fields = vec![("v", FieldType::Int)];
        fields.extend(["a", "b", "c"].map(|name| (name, FieldType::Ref(None))));
        let class = reg.define("D", None, &fields).unwrap();
        let heaps = (0..MIRRORS).map(|_| Heap::new(reg.clone())).collect();
        let mut world = World { heaps, class, roots: Vec::new(), objects: Vec::new() };
        let n = 8 + rng.index(40);
        for i in 0..n {
            let id = world.alloc();
            world.store(id, 0, Value::Int(i as i32));
            for slot in 1..=REF_SLOTS {
                if i > 0 && rng.below(3) != 0 {
                    let target = world.objects[rng.index(i)];
                    world.store(id, slot, Value::Ref(Some(target)));
                }
            }
        }
        let mut pool = world.objects.clone();
        for _ in 0..2 + rng.index(8) {
            world.roots.push(pool.swap_remove(rng.index(pool.len())));
        }
        world
    }

    fn alloc(&mut self) -> ObjectId {
        let ids: Vec<ObjectId> =
            self.heaps.iter_mut().map(|h| h.alloc(self.class).unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "mirrored allocation diverged");
        self.objects.push(ids[0]);
        ids[0]
    }

    fn store(&mut self, id: ObjectId, slot: usize, value: Value) {
        for heap in &mut self.heaps {
            heap.set_field(id, slot, value).unwrap();
        }
    }

    fn child(&self, id: ObjectId, slot: usize) -> Option<ObjectId> {
        match self.heaps[0].field(id, slot).unwrap() {
            Value::Ref(child) => child,
            other => panic!("slot {slot} of {id:?} holds {other:?}"),
        }
    }

    /// Applies `stores` to every mirror unless they would close a cycle
    /// (the paper's checkpoints assume acyclic graphs).
    fn rewire(&mut self, stores: &[(ObjectId, usize, Option<ObjectId>)]) {
        // Try on a scratch copy: the mirrors' flags and logs stay in step.
        let mut probe = self.heaps[0].clone();
        for &(id, slot, target) in stores {
            probe.set_field(id, slot, Value::Ref(target)).unwrap();
        }
        let live: Vec<ObjectId> = probe.iter_live().collect();
        if validate_acyclic(&probe, &live).is_ok() {
            for &(id, slot, target) in stores {
                self.store(id, slot, Value::Ref(target));
            }
        }
    }

    fn random_slot(rng: &mut Prng) -> usize {
        1 + rng.index(REF_SLOTS)
    }

    /// Runs one step; returns the new worker count.
    fn apply(&mut self, rng: &mut Prng, step: Step, workers: usize) -> usize {
        match step {
            Step::AddEdge => {
                let src = *rng.choose(&self.objects);
                let target = *rng.choose(&self.objects);
                self.rewire(&[(src, World::random_slot(rng), Some(target))]);
            }
            Step::RemoveEdge => {
                let src = *rng.choose(&self.objects);
                self.rewire(&[(src, World::random_slot(rng), None)]);
            }
            Step::SwapNeighbours => {
                // a → b → c → rest along one slot becomes a → c → b → rest.
                let slot = World::random_slot(rng);
                let a = *rng.choose(&self.objects);
                if let Some(b) = self.child(a, slot) {
                    if let Some(c) = self.child(b, slot) {
                        let rest = self.child(c, slot);
                        self.rewire(&[(a, slot, Some(c)), (c, slot, Some(b)), (b, slot, rest)]);
                    }
                }
            }
            Step::AllocLink => {
                let fresh = self.alloc();
                for slot in 1..=REF_SLOTS {
                    if rng.below(2) == 0 {
                        let target = *rng.choose(&self.objects);
                        self.store(fresh, slot, Value::Ref(Some(target)));
                    }
                }
                let src = *rng.choose(&self.objects);
                self.rewire(&[(src, World::random_slot(rng), Some(fresh))]);
            }
            Step::CollectGarbage => {
                for heap in &mut self.heaps {
                    heap.collect(&self.roots).unwrap();
                }
                let heap = &self.heaps[0];
                self.objects.retain(|&id| heap.contains(id));
            }
            Step::Workers => return 1 + rng.index(5),
            Step::FlipBalance => {}
            Step::Overflow => {
                // Reference stores that change nothing still log a writer.
                let src = *rng.choose(&self.objects);
                let same = self.heaps[0].field(src, 1).unwrap();
                for _ in 0..=STRUCTURE_LOG_CAPACITY {
                    self.store(src, 1, same);
                }
            }
        }
        workers
    }
}

/// The plan a refresh must reproduce, compared field by field so a
/// failure names what diverged.
fn assert_fresh(plan: &ShardPlan, fresh: &ShardPlan, context: &str) {
    assert_eq!(plan.owner_table(), fresh.owner_table(), "{context}: owner table");
    assert_eq!(plan.bounds(), fresh.bounds(), "{context}: bounds");
    assert_eq!(plan.root_weights(15), fresh.root_weights(15), "{context}: weights");
    assert_eq!(plan, fresh, "{context}");
}

#[test]
fn repaired_plans_equal_fresh_plans_and_streams_stay_identical() {
    let mut paths = [0usize; 2]; // repaired, rebuilt
    for case in 0..32u64 {
        let mut rng = Prng::seed_from_u64(0x2e9a_1200 + case);
        let mut world = World::random(&mut rng);
        let roots = world.roots.clone();
        let table = MethodTable::derive(world.heaps[0].registry());
        let no_journal = CheckpointConfig::incremental().without_journal();
        let mut journaled = Checkpointer::new(CheckpointConfig::incremental());
        let mut unjournaled = Checkpointer::new(no_journal);
        let mut reference = Checkpointer::new(no_journal);
        let mut validator = Checkpointer::new(CheckpointConfig::full());
        let mut workers = 1 + rng.index(5);

        // One cached plan per balance, with the version it describes.
        let version = world.heaps[0].structure_version();
        let mut cached: Vec<(ShardPlan, u64)> = BALANCES
            .iter()
            .map(|&b| (plan_shards(&world.heaps[0], &roots, workers, b).unwrap(), version))
            .collect();

        for round in 0..12 {
            let step = *rng.choose(&STEPS);
            workers = world.apply(&mut rng, step, workers);
            if step == Step::FlipBalance {
                cached.swap(0, 1);
            }
            let context = format!("case {case}, round {round}, {step:?}, {workers} workers");
            let heap = &world.heaps[0];

            for (entry, &balance) in cached.iter_mut().zip(&BALANCES) {
                let (plan, at) = (entry.0.clone(), entry.1);
                let (plan, source) =
                    refresh_plan(plan, at, heap, &roots, workers, balance).unwrap();
                let fresh = plan_shards(heap, &roots, workers, balance).unwrap();
                assert_fresh(&plan, &fresh, &format!("{context}, {balance:?}"));
                match source {
                    PlanSource::Repaired => paths[0] += 1,
                    PlanSource::Rebuilt => paths[1] += 1,
                    _ => {}
                }
                if step == Step::Overflow {
                    assert_eq!(source, PlanSource::Rebuilt, "{context}: overflow");
                }
                *entry = (plan, heap.structure_version());
            }

            let oracle = cross_validate_shards_with(heap, &roots, workers, &mut validator)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert!(oracle.is_consistent(), "{context}: {oracle:?}");

            let [a, b, c] = &mut world.heaps[..] else { unreachable!("three mirrors") };
            let fast = journaled.checkpoint_parallel(a, &table, &roots, workers).unwrap();
            let slow = unjournaled.checkpoint_parallel(b, &table, &roots, workers).unwrap();
            let want = reference.checkpoint(c, &table, &roots).unwrap();
            assert_eq!(fast.bytes(), want.bytes(), "{context}: journaled engine");
            assert_eq!(slow.bytes(), want.bytes(), "{context}: journal-free engine");
            // Buffer-pool reuse depends on each driver's history, not on
            // the stream.
            let counters =
                |r: &ickp_core::CheckpointRecord| TraversalStats { bytes_reused: 0, ..r.stats() };
            assert_eq!(counters(&slow), counters(&want), "{context}: journal-free stats");
        }
    }
    assert!(paths[0] > 0 && paths[1] > 0, "both paths exercised: {paths:?}");
}

/// Three chains of four, each root's third node shared by the next root:
/// `r_i → x_i → y_i → z_i` with `r_{i+1}.b → y_i`.
fn chains() -> (Heap, ClassId, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "N",
            None,
            &[("v", FieldType::Int), ("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    let mut shared = None;
    for _ in 0..3 {
        let z = heap.alloc(node).unwrap();
        let y = heap.alloc(node).unwrap();
        let x = heap.alloc(node).unwrap();
        let r = heap.alloc(node).unwrap();
        heap.set_field(y, 1, Value::Ref(Some(z))).unwrap();
        heap.set_field(x, 1, Value::Ref(Some(y))).unwrap();
        heap.set_field(r, 1, Value::Ref(Some(x))).unwrap();
        heap.set_field(r, 2, Value::Ref(shared)).unwrap();
        shared = Some(y);
        roots.push(r);
    }
    (heap, node, roots)
}

/// Runs `mutate` between two parallel checkpoints and returns the path
/// the second one's plan took, after checking that plan and stream
/// against fresh ones for both balances.
fn path_after(mutate: impl Fn(&mut Heap, ClassId, &[ObjectId])) -> PlanSource {
    let mut sources = Vec::new();
    for balance in BALANCES {
        let (mut heap, node, roots) = chains();
        let table = MethodTable::derive(heap.registry());
        let config = CheckpointConfig::incremental().balanced_by(balance);
        let mut engine = Checkpointer::new(config);
        engine.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
        let plan = plan_shards(&heap, &roots, 3, balance).unwrap();
        let planned_at = heap.structure_version();

        mutate(&mut heap, node, &roots);
        let (refreshed, source) =
            refresh_plan(plan, planned_at, &heap, &roots, 3, balance).unwrap();
        assert_fresh(&refreshed, &plan_shards(&heap, &roots, 3, balance).unwrap(), "pinned");

        let mut reference_heap = heap.clone();
        let mut reference = Checkpointer::new(config.without_journal());
        reference.set_next_seq(engine.next_seq());
        let want = reference.checkpoint(&mut reference_heap, &table, &roots).unwrap();
        let got = engine.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
        assert_eq!(got.bytes(), want.bytes(), "{balance:?}");
        let phases = *engine.parallel_phases().unwrap();
        assert_eq!(phases.plan_source, source, "{balance:?}: engine and refresh_plan agree");
        sources.push(source);
    }
    assert_eq!(sources[0], sources[1], "the path does not depend on the balance");
    sources[0]
}

fn next_of(heap: &Heap, id: ObjectId) -> ObjectId {
    match heap.field(id, 1).unwrap() {
        Value::Ref(Some(next)) => next,
        other => panic!("{id:?} has no next: {other:?}"),
    }
}

#[test]
fn a_link_repairs_while_a_detach_an_overflow_or_an_owned_free_rebuilds() {
    // Linking a fresh node under root 1 only re-walks root 1.
    let link = path_after(|heap, node, roots| {
        let fresh = heap.alloc(node).unwrap();
        let x = next_of(heap, roots[1]);
        heap.set_field(x, 2, Value::Ref(Some(fresh))).unwrap();
    });
    assert_eq!(link, PlanSource::Repaired);

    // Swapping x and y of root 2 keeps every node under root 2.
    let swap = path_after(|heap, _, roots| {
        let x = next_of(heap, roots[2]);
        let y = next_of(heap, x);
        let z = next_of(heap, y);
        heap.set_field(roots[2], 1, Value::Ref(Some(y))).unwrap();
        heap.set_field(y, 1, Value::Ref(Some(x))).unwrap();
        heap.set_field(x, 1, Value::Ref(Some(z))).unwrap();
    });
    assert_eq!(swap, PlanSource::Repaired);

    // Root 0 letting go of its chain hands part of it to root 1: detach.
    let detach = path_after(|heap, _, roots| {
        heap.set_field(roots[0], 1, Value::Ref(None)).unwrap();
    });
    assert_eq!(detach, PlanSource::Rebuilt);

    // More shape changes than the log holds: unknown, so rebuilt.
    let overflow = path_after(|heap, _, roots| {
        for _ in 0..=STRUCTURE_LOG_CAPACITY {
            heap.set_field(roots[0], 2, Value::Ref(None)).unwrap();
        }
    });
    assert_eq!(overflow, PlanSource::Rebuilt);

    // Root 2's private tail is cut off and freed.
    let owned_free = path_after(|heap, _, roots| {
        let x = next_of(heap, roots[2]);
        let y = next_of(heap, x);
        let z = next_of(heap, y);
        heap.set_field(y, 1, Value::Ref(None)).unwrap();
        heap.free(z).unwrap();
    });
    assert_eq!(owned_free, PlanSource::Rebuilt);

    // Freeing garbage nobody owns keeps the repair path.
    let garbage_free = path_after(|heap, node, _| {
        let garbage = heap.alloc(node).unwrap();
        heap.free(garbage).unwrap();
    });
    assert_eq!(garbage_free, PlanSource::Repaired);
}
