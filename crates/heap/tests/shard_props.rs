//! Randomized shard-plan properties on DAG heaps with shared substructure.
//!
//! These pin the exact invariant `ickp-audit`'s shard-interference pass
//! builds on: [`partition_roots`] ownership is the *first-touch*
//! prediction derived purely from root order, every reachable object is
//! owned by exactly one shard, and the per-shard pre-orders concatenate
//! to the sequential pre-order (so the parallel stream merge is
//! byte-identical to sequential by construction).
//!
//! Heaps are built bottom-up — object `i` only references objects
//! allocated before it — which guarantees acyclicity while still
//! producing heavy sharing (many parents per object).

use ickp_heap::{
    chunk_bounds_weighted, chunk_roots, chunk_roots_weighted, first_touch_plan,
    first_touch_plan_parallel, partition_roots, partition_roots_parallel, reachable_from,
    ClassRegistry, FieldType, Heap, ObjectId, Value,
};
use ickp_prng::Prng;
use std::collections::{HashMap, HashSet};

const REF_SLOTS: usize = 3;

/// Builds a random DAG heap and returns its live objects in allocation
/// order.
fn random_dag(rng: &mut Prng) -> (Heap, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let class = reg
        .define(
            "D",
            None,
            &[
                ("v", FieldType::Int),
                ("a", FieldType::Ref(None)),
                ("b", FieldType::Ref(None)),
                ("c", FieldType::Ref(None)),
            ],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let n = 2 + rng.index(60);
    let mut objects = Vec::with_capacity(n);
    for i in 0..n {
        let id = heap.alloc(class).unwrap();
        heap.set_field(id, 0, Value::Int(i as i32)).unwrap();
        // Each ref slot independently points at a random earlier object,
        // so late allocations fan in on early ones (shared substructure).
        for slot in 0..REF_SLOTS {
            if i > 0 && rng.below(3) != 0 {
                let target = objects[rng.index(i)];
                heap.set_field(id, 1 + slot, Value::Ref(Some(target))).unwrap();
            }
        }
        objects.push(id);
    }
    (heap, objects)
}

/// Picks a random subset of `objects` in random order (distinct roots).
fn random_roots(rng: &mut Prng, objects: &[ObjectId]) -> Vec<ObjectId> {
    let mut pool = objects.to_vec();
    let count = 1 + rng.index(pool.len().min(12));
    let mut roots = Vec::with_capacity(count);
    for _ in 0..count {
        roots.push(pool.swap_remove(rng.index(pool.len())));
    }
    roots
}

/// An independent reimplementation of first-touch ownership: walk each
/// root chunk in order with a depth-first pre-order traversal, claiming
/// every object not yet claimed by an earlier chunk.
fn predict_first_touch(heap: &Heap, chunks: &[Vec<ObjectId>]) -> HashMap<ObjectId, usize> {
    let mut owner = HashMap::new();
    for (shard, chunk) in chunks.iter().enumerate() {
        let mut stack: Vec<ObjectId> = chunk.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if owner.contains_key(&id) {
                continue;
            }
            owner.insert(id, shard);
            let object = heap.object(id).unwrap();
            for value in object.fields().iter().rev() {
                if let Value::Ref(Some(child)) = value {
                    stack.push(*child);
                }
            }
        }
    }
    owner
}

/// Ownership is exactly the first-touch prediction from root order, and
/// unreachable objects stay unowned — for every shard count the audit
/// pass exercises.
#[test]
fn ownership_is_the_first_touch_prediction_from_root_order() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x5a4d_0000 + case);
        let (heap, objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        let reachable: HashSet<ObjectId> =
            reachable_from(&heap, &roots).unwrap().into_iter().collect();
        for shards in 1..=8usize {
            let plan = partition_roots(&heap, &roots, shards).unwrap();
            let predicted = predict_first_touch(&heap, &chunk_roots(&roots, shards));
            assert_eq!(plan.num_objects(), reachable.len(), "case {case}, {shards} shards");
            for &id in &objects {
                match (plan.owner_of(id), predicted.get(&id)) {
                    (Some(got), Some(&want)) => {
                        assert_eq!(
                            got as usize, want,
                            "case {case}, {shards} shards, object {id:?}"
                        )
                    }
                    (None, None) => assert!(
                        !reachable.contains(&id),
                        "case {case}: unowned object {id:?} is reachable"
                    ),
                    (got, want) => panic!(
                        "case {case}, {shards} shards, object {id:?}: plan says {got:?}, \
                         prediction says {want:?}"
                    ),
                }
            }
        }
    }
}

/// The per-shard pre-order slices are a partition of the reachable set
/// whose concatenation is exactly the sequential pre-order.
#[test]
fn shard_slices_partition_the_reachable_set_in_sequential_order() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x9a27_0000 + case);
        let (heap, objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        let sequential = reachable_from(&heap, &roots).unwrap();
        for shards in 1..=8usize {
            let plan = partition_roots(&heap, &roots, shards).unwrap();
            let mut merged = Vec::new();
            let mut seen: HashSet<ObjectId> = HashSet::new();
            for shard in 0..plan.num_shards() {
                let slice = plan.shard_preorder(&heap, shard).unwrap();
                assert_eq!(
                    slice.len(),
                    plan.objects_per_shard()[shard],
                    "case {case}, shard {shard}/{shards}"
                );
                for &id in &slice {
                    assert!(
                        seen.insert(id),
                        "case {case}, {shards} shards: object {id:?} emitted by two shards"
                    );
                    assert_eq!(plan.owner_of(id), Some(shard as u32), "case {case}");
                }
                merged.extend(slice);
            }
            assert_eq!(merged, sequential, "case {case}, {shards} shards");
        }
    }
}

/// **The parallel pre-pass is an exact drop-in**: on randomized DAGs with
/// heavy shared substructure, the racy min-CAS plan equals the sequential
/// oracle — same owner table, same bounds, same roots — for every shard
/// count, under both count-balanced and byte-weighted chunking.
#[test]
fn parallel_plan_equals_sequential_on_random_dags() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x7a11_0000 + case);
        let (heap, objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        for shards in 1..=8usize {
            let sequential = partition_roots(&heap, &roots, shards).unwrap();
            let parallel = partition_roots_parallel(&heap, &roots, shards).unwrap();
            assert_eq!(parallel, sequential, "case {case}, {shards} shards");
            assert_eq!(parallel.owner_table(), sequential.owner_table(), "case {case}");

            let weights = parallel.root_weights(15);
            let chunks = chunk_roots_weighted(&roots, &weights, shards);
            let weighted_seq = first_touch_plan(&heap, chunks.clone()).unwrap();
            let weighted_par = first_touch_plan_parallel(&heap, chunks).unwrap();
            assert_eq!(weighted_par, weighted_seq, "case {case}, {shards} shards (weighted)");
            // Re-chunking a plan by its own weights needs no second pass.
            let direct = parallel.with_bounds(chunk_bounds_weighted(&weights, shards));
            assert_eq!(direct, weighted_seq, "case {case}, {shards} shards (re-chunked)");
        }
    }
}

/// **Shared subgraphs race to one winner**: many roots funneling into one
/// diamond-shaped core still produce the sequential plan — the lowest
/// chunk wins every contended object no matter how threads interleave.
#[test]
fn contended_shared_subgraph_resolves_to_the_lowest_chunk() {
    let mut reg = ClassRegistry::new();
    let class =
        reg.define("S", None, &[("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    // A 40-deep diamond ladder every root can reach.
    let mut lower = heap.alloc(class).unwrap();
    for _ in 0..40 {
        let left = heap.alloc(class).unwrap();
        let right = heap.alloc(class).unwrap();
        let top = heap.alloc(class).unwrap();
        heap.set_field(left, 0, Value::Ref(Some(lower))).unwrap();
        heap.set_field(right, 0, Value::Ref(Some(lower))).unwrap();
        heap.set_field(top, 0, Value::Ref(Some(left))).unwrap();
        heap.set_field(top, 1, Value::Ref(Some(right))).unwrap();
        lower = top;
    }
    // 16 roots, each pointing straight at the contended ladder.
    let mut roots = Vec::new();
    for _ in 0..16 {
        let root = heap.alloc(class).unwrap();
        heap.set_field(root, 0, Value::Ref(Some(lower))).unwrap();
        roots.push(root);
    }
    for shards in [2, 3, 4, 8, 16] {
        let sequential = partition_roots(&heap, &roots, shards).unwrap();
        let parallel = partition_roots_parallel(&heap, &roots, shards).unwrap();
        assert_eq!(parallel, sequential, "{shards} shards");
        // The whole ladder belongs to shard 0 — first touch from root 0.
        assert_eq!(parallel.owner_of(lower), Some(0));
    }
}

/// **Stale plans must be rebuilt, and rebuilds agree**: after structural
/// mutations bump `structure_version`, a freshly computed parallel plan
/// equals the fresh sequential oracle and diverges from the stale plan —
/// the exact invalidation signal the engine's plan cache keys on.
#[test]
fn recomputed_plans_agree_after_structure_changes() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0x57a1_0000 + case);
        let (mut heap, mut objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        let class = heap.class_of(objects[0]).unwrap();
        let before = partition_roots_parallel(&heap, &roots, 4).unwrap();
        let version = heap.structure_version();

        // Grow a fresh spine under root 0 so first-touch order shifts.
        let mut next = None;
        for _ in 0..3 + rng.index(5) {
            let id = heap.alloc(class).unwrap();
            heap.set_field(id, 1, Value::Ref(next)).unwrap();
            next = Some(id);
            objects.push(id);
        }
        heap.set_field(roots[0], 1, Value::Ref(next)).unwrap();
        assert_ne!(heap.structure_version(), version, "case {case}: mutation must be visible");

        let sequential = partition_roots(&heap, &roots, 4).unwrap();
        let parallel = partition_roots_parallel(&heap, &roots, 4).unwrap();
        assert_eq!(parallel, sequential, "case {case}");
        assert_ne!(parallel, before, "case {case}: stale plan should differ after growth");
        assert_eq!(parallel.num_objects(), reachable_from(&heap, &roots).unwrap().len());
    }
}
