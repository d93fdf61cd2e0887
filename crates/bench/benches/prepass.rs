//! Cost of the shard plan itself: planning, not checkpointing.
//!
//! Three axes on a paper-scale synthetic heap:
//!
//! * **chunking** — boundary computation alone: the legacy
//!   `chunk_roots` (one `Vec<ObjectId>` per shard) against `chunk_bounds`
//!   (indices into the existing root slice, two allocations per plan
//!   total).
//! * **planning** — full first-touch plans: the sequential oracle, the
//!   parallel pass, and the engine's rebuild (`plan_shards`: the parallel
//!   pass plus byte-weighted boundaries, which need no second scan because
//!   the pass already weighs what each root owns).
//! * **repair** — `refresh_plan` after `dense_reshape`-style churn: one
//!   list in one structure of 50 swaps two neighbours, so only those
//!   structures' roots are re-walked. Compare with `plan/rebuild`, which
//!   is what every such round cost before plans were repaired.
//!
//! The parallel rows use up to 8 threads; on a host with fewer cores they
//! only tie the sequential oracle (same work, plus thread spawn).

use ickp_bench::BenchGroup;
use ickp_core::{plan_shards, refresh_plan, ShardBalance};
use ickp_heap::{chunk_bounds, chunk_roots, partition_roots, partition_roots_parallel};
use ickp_synth::{SynthConfig, SynthWorld};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SHARDS: usize = 8;

/// One structure in this many gets a list rewired, as in `dense_reshape`.
const RESHAPE_EVERY: usize = 50;

fn main() {
    let mut world = SynthWorld::build(SynthConfig {
        structures: 2_000,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 10,
        seed: 0x009e_9a55,
    })
    .expect("synthetic world builds");
    let roots = world.roots().to_vec();

    let mut group = BenchGroup::new("prepass");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    group.bench("chunking/vec_per_shard", || black_box(chunk_roots(&roots, SHARDS)));
    group.bench("chunking/bounds_only", || black_box(chunk_bounds(roots.len(), SHARDS)));

    let heap = world.heap();
    group.bench("plan/sequential", || {
        black_box(partition_roots(heap, &roots, SHARDS).expect("plan"))
    });
    group.bench("plan/parallel", || {
        black_box(partition_roots_parallel(heap, &roots, SHARDS).expect("plan"))
    });
    group.bench("plan/rebuild", || {
        black_box(plan_shards(heap, &roots, SHARDS, ShardBalance::Bytes).expect("plan"))
    });

    // Plan, then churn: the repair reads the log of exactly these swaps.
    let planned = plan_shards(heap, &roots, SHARDS, ShardBalance::Bytes).expect("plan");
    let planned_at = world.heap().structure_version();
    let lists = world.config().lists_per_structure;
    for structure in (0..roots.len()).step_by(RESHAPE_EVERY) {
        world.swap_neighbours(structure, structure % lists).expect("swap");
    }
    let heap = world.heap();
    group.bench_custom("plan/repair", |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            let plan = planned.clone();
            let start = Instant::now();
            black_box(
                refresh_plan(plan, planned_at, heap, &roots, SHARDS, ShardBalance::Bytes)
                    .expect("plan"),
            );
            spent += start.elapsed();
        }
        spent
    });
    group.finish();
}
