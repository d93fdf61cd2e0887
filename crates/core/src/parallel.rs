//! The parallel sharded checkpoint engine.
//!
//! [`Checkpointer::checkpoint_parallel`] splits the root set into disjoint
//! ownership shards ([`plan_shards`]: one parallel first-touch pass at
//! root granularity, then boundary placement), runs one kernel walk per
//! shard, filtered to the objects the shard owns — shard 0 on the
//! caller's thread straight into the record, every later shard on its own
//! OS thread into a body — and splices the bodies after shard 0's records
//! in shard order. The walk is
//! the one [`Checkpointer::checkpoint`] runs on the caller's thread as the
//! one-shard case, with a filter that owns everything, so the result is
//! **byte-for-byte identical** — same header, same record order, same
//! footer, same [`TraversalStats`] — and every downstream consumer (store,
//! compaction, restore, verification) is oblivious to how the checkpoint
//! was produced.
//!
//! The plan is cached between checkpoints. A reference store does not
//! throw it away: [`refresh_plan`] re-walks only the roots that own the
//! writers the heap's structural log names, and falls back to a fresh pass
//! when the log cannot vouch for the change.
//!
//! Three properties make this sound:
//!
//! 1. **Read-only traversal.** The kernel only *reads* the heap; the one
//!    mutation of a checkpoint — resetting modified flags — is deferred to
//!    the epilogue both drivers share, after every walk has succeeded. The
//!    [`MethodTable`]'s closures are `Send + Sync`, so one table serves
//!    every worker.
//! 2. **First-touch ownership.** Each reachable object is owned by exactly
//!    one shard (the lowest-index shard reaching it), so no object is
//!    recorded twice and workers can prune their traversal at any foreign
//!    object (everything beyond it belongs to an earlier shard).
//! 3. **Order-preserving merge.** Shards are contiguous chunks of the root
//!    order, so concatenating shard bodies in shard order reproduces the
//!    sequential depth-first pre-order exactly (see
//!    [`ickp_heap::ShardPlan`]).

use crate::checkpoint::{CheckpointRecord, Checkpointer, ShardBalance};
use crate::error::CoreError;
use crate::kernel::{Direct, Emit, WalkScratch};
use crate::methods::MethodTable;
use crate::stats::TraversalStats;
use crate::stream::{StreamWriter, RECORD_HEADER_BYTES};
use ickp_heap::{
    chunk_bounds, chunk_bounds_weighted, partition_roots_parallel, Heap, ObjectId, ShardPlan,
    StableId,
};
use std::time::{Duration, Instant};

/// A [`ShardPlan`] cached across parallel checkpoints, with the heap
/// structure version it describes.
#[derive(Debug)]
pub(crate) struct PlanCache {
    structure_version: u64,
    plan: ShardPlan,
}

/// Where the shard plan of a parallel checkpoint came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanSource {
    /// No plan was needed: the journal fast path served the checkpoint,
    /// or it ran as one shard.
    #[default]
    Unplanned,
    /// The cached plan, over an unchanged heap structure (re-chunked if
    /// the worker count changed).
    Cached,
    /// The cached plan, repaired from the heap's structural log by
    /// re-walking the roots whose objects were written.
    Repaired,
    /// A fresh first-touch pass over the whole heap.
    Rebuilt,
}

/// Wall-clock decomposition of one parallel checkpoint, recorded by
/// [`Checkpointer::checkpoint_parallel`] and read back through
/// [`Checkpointer::parallel_phases`].
///
/// The engine stamps its own phases, so benchmarks and the `repro
/// scaling` gate report what actually happened — including the effect of
/// the plan cache, of plan repair and of the parallel pre-pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelPhases {
    /// Obtaining the [`ShardPlan`]: checking the cache, repairing it, or
    /// the first-touch pass plus boundary placement — whichever
    /// [`ParallelPhases::plan_source`] says ran. Zero when no plan was
    /// needed.
    pub plan: Duration,
    /// Shard workers, spawn to last join — the parallel section (the one
    /// walk, for a one-shard checkpoint).
    pub traverse: Duration,
    /// Sequential epilogue: splicing shard bodies, stats/journal-cache
    /// bookkeeping, modified-flag resets.
    pub merge: Duration,
    /// Which path produced the shard plan.
    pub plan_source: PlanSource,
    /// `true` when the journal fast path served the checkpoint: no shard
    /// workers ran and the phase durations above are all zero.
    pub fast_path: bool,
}

impl ParallelPhases {
    /// Total engine time accounted to the three phases.
    pub fn total(&self) -> Duration {
        self.plan + self.traverse + self.merge
    }

    /// Fraction of the accounted time spent outside the parallel section
    /// (plan + merge) — the measured serial fraction of this checkpoint.
    /// `0.0` when nothing was accounted (fast path).
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        (self.plan + self.merge).as_secs_f64() / total
    }
}

/// Builds the [`ShardPlan`] the parallel engine uses for `(roots,
/// workers)` under `balance` — the single source of truth for planning,
/// shared by [`Checkpointer::checkpoint_parallel`], the shard audit's
/// cross-validator, and the scaling harness, so a plan computed outside
/// the engine is guaranteed to equal the one the engine runs.
///
/// One parallel first-touch pass assigns every object to the lowest root
/// reaching it and weighs what each root owns; the shard boundaries are
/// then placed by root count or, for [`ShardBalance::Bytes`], by prefix
/// sum over the per-root estimated stream bytes (record headers
/// included).
///
/// # Errors
///
/// Propagates heap errors (e.g. dangling references) from the traversals.
pub fn plan_shards(
    heap: &Heap,
    roots: &[ObjectId],
    workers: usize,
    balance: ShardBalance,
) -> Result<ShardPlan, CoreError> {
    let threads = workers.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    Ok(chunked(partition_roots_parallel(heap, roots, threads)?, workers, balance))
}

/// Brings a plan that [`plan_shards`] (or this function) produced while
/// [`Heap::structure_version`] read `planned_at` up to date for `(roots,
/// workers, balance)`, and says how. This is the engine's planning step
/// on every traversed parallel checkpoint after the first.
///
/// * Same roots and an unchanged structure: the plan is reused
///   ([`PlanSource::Cached`]), re-chunked for `workers` and `balance`.
/// * Same roots, and the heap's structural log still reaches back to
///   `planned_at`: the plan is repaired ([`ShardPlan::repaired`]) by
///   re-walking the roots that own a logged writer, within a budget of a
///   quarter of the arena ([`PlanSource::Repaired`]).
/// * Otherwise — other roots, an unknown log, a detach, a freed owned
///   object or an exhausted budget — one fresh pass
///   ([`PlanSource::Rebuilt`]).
///
/// Whatever the path, the returned plan equals
/// `plan_shards(heap, roots, workers, balance)`.
///
/// # Errors
///
/// Propagates heap errors (e.g. dangling references) from the traversals.
pub fn refresh_plan(
    plan: ShardPlan,
    planned_at: u64,
    heap: &Heap,
    roots: &[ObjectId],
    workers: usize,
    balance: ShardBalance,
) -> Result<(ShardPlan, PlanSource), CoreError> {
    if plan.all_roots() == roots {
        if planned_at == heap.structure_version() {
            return Ok((chunked(plan, workers, balance), PlanSource::Cached));
        }
        if let Some(changes) = heap.structure_changes_since(planned_at) {
            let budget = heap.arena_size() / REPAIR_BUDGET_DIVISOR + REPAIR_BUDGET_FLOOR;
            if let Some(plan) = plan.repaired(heap, changes, budget)? {
                return Ok((chunked(plan, workers, balance), PlanSource::Repaired));
            }
        }
    }
    Ok((plan_shards(heap, roots, workers, balance)?, PlanSource::Rebuilt))
}

/// A repair may re-walk at most this fraction (1/n) of the arena: past
/// it, one parallel pass over everything is the cheaper way to a plan.
const REPAIR_BUDGET_DIVISOR: usize = 4;

/// Re-walk visits always allowed, so that small heaps repair too.
const REPAIR_BUDGET_FLOOR: usize = 1024;

/// Places the shard boundaries of `plan` for `workers` under `balance`;
/// ownership is untouched.
fn chunked(plan: ShardPlan, workers: usize, balance: ShardBalance) -> ShardPlan {
    let bounds = match balance {
        ShardBalance::RootCount => chunk_bounds(plan.all_roots().len(), workers),
        ShardBalance::Bytes => {
            chunk_bounds_weighted(&plan.root_weights(RECORD_HEADER_BYTES as u64), workers)
        }
    };
    plan.with_bounds(bounds)
}

/// What one shard actually touched during a traced parallel checkpoint.
///
/// This is the *dynamic* counterpart of the static shard footprint that
/// `ickp-audit`'s `audit_shards` computes: the access sanitizer in
/// `ickp-backend` compares the two, and the audit crate's cross-validator
/// asserts `visited` ⊆ the static footprint on randomized heaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAccess {
    /// Every object the shard visited, in visit order.
    pub visited: Vec<ObjectId>,
    /// The subset of `visited` the shard emitted a record for.
    pub recorded: Vec<ObjectId>,
    /// The shard's traversal counters; `bytes_written` is the shard's
    /// share of the record body (headers excluded).
    pub stats: TraversalStats,
}

/// Per-shard access sets observed while producing one parallel checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTrace {
    /// `true` when the checkpoint was served by the journal fast path:
    /// no shard workers ran, and `shards` is empty.
    pub fast_path: bool,
    /// One entry per shard, in shard (= stream merge) order.
    pub shards: Vec<ShardAccess>,
}

impl Checkpointer {
    /// Takes one checkpoint of everything reachable from `roots`, spread
    /// over up to `workers` threads.
    ///
    /// Semantically identical to [`Checkpointer::checkpoint`]: the returned
    /// [`CheckpointRecord`] — bytes, roots, kind, sequence number and
    /// traversal counters — is byte-for-byte what the sequential driver
    /// would have produced on the same heap state, and the same modified
    /// flags are reset. `workers` is clamped to the number of roots (one
    /// shard needs at least one root); with one shard left — `workers` of
    /// 0 or 1, or a single root — the checkpoint is the sequential walk on
    /// the caller's thread and builds no plan.
    ///
    /// The first shard plan comes from one parallel first-touch pass
    /// ([`plan_shards`]; see [`ParallelPhases`] for the measured phase
    /// split), and shard boundaries are placed by estimated stream bytes
    /// per root unless the config selects [`ShardBalance::RootCount`]. The
    /// plan is cached; later checkpoints over the same roots reuse it while
    /// the heap structure is unchanged and otherwise repair it from the
    /// heap's structural log ([`refresh_plan`]).
    ///
    /// # Errors
    ///
    /// Fails like [`Checkpointer::checkpoint`]. If any shard fails, the
    /// first error (in shard order) is returned and *no* modified flags
    /// are reset.
    ///
    /// # Example
    ///
    /// ```
    /// use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
    /// use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut reg = ClassRegistry::new();
    /// let node = reg.define("Node", None, &[("v", FieldType::Int)])?;
    /// let mut heap = Heap::new(reg);
    /// let roots: Vec<_> = (0..8).map(|_| heap.alloc(node)).collect::<Result<_, _>>()?;
    ///
    /// let table = MethodTable::derive(heap.registry());
    /// let mut sequential = Checkpointer::new(CheckpointConfig::incremental());
    /// let mut parallel = Checkpointer::new(CheckpointConfig::incremental());
    ///
    /// let reference = sequential.checkpoint(&mut heap.clone(), &table, &roots)?;
    /// let sharded = parallel.checkpoint_parallel(&mut heap, &table, &roots, 4)?;
    /// assert_eq!(sharded.bytes(), reference.bytes());
    /// assert_eq!(sharded.stats(), reference.stats());
    /// # Ok(()) }
    /// ```
    pub fn checkpoint_parallel(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        workers: usize,
    ) -> Result<CheckpointRecord, CoreError> {
        self.checkpoint_parallel_impl(heap, methods, roots, workers, false)
            .map(|(record, _)| record)
    }

    /// [`Checkpointer::checkpoint_parallel`], additionally returning the
    /// per-shard access sets observed during the traversal.
    ///
    /// The record is byte-for-byte the same either way; tracing only adds
    /// bookkeeping (each shard keeps its visit order and recorded set).
    /// This is the probe behind the `sanitize` feature of `ickp-backend`
    /// and the shard-audit cross-validator: the returned [`ShardTrace`]
    /// is what the shards *actually* touched, to be checked against what
    /// the static analysis said they *may* touch.
    ///
    /// # Errors
    ///
    /// Fails like [`Checkpointer::checkpoint_parallel`].
    pub fn checkpoint_parallel_traced(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        workers: usize,
    ) -> Result<(CheckpointRecord, ShardTrace), CoreError> {
        self.checkpoint_parallel_impl(heap, methods, roots, workers, true)
            .map(|(record, trace)| (record, trace.expect("tracing was requested")))
    }

    fn checkpoint_parallel_impl(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        workers: usize,
        trace: bool,
    ) -> Result<(CheckpointRecord, Option<ShardTrace>), CoreError> {
        let seq = self.next_seq;
        let kind = self.config.kind;
        let root_ids: Vec<StableId> =
            roots.iter().map(|&r| heap.stable_id(r)).collect::<Result<_, _>>()?;
        if self.journal_ready(heap, roots) {
            // The fast path emits O(modified) records sequentially; there
            // is nothing left to parallelize, and the output is the same
            // byte-identical stream either way.
            let record = self.journal_fast_path(heap, &mut Direct(methods), root_ids)?;
            self.last_shard_stats = vec![record.stats()];
            self.last_phases =
                Some(ParallelPhases { fast_path: true, ..ParallelPhases::default() });
            let fast = trace.then(|| ShardTrace { fast_path: true, shards: Vec::new() });
            return Ok((record, fast));
        }
        let collect_order = self.journal_wanted() || trace;
        if workers.min(roots.len()) <= 1 {
            // One shard owns everything it reaches: the sequential walk,
            // with no plan to build. (Without roots, no shard ran at all.)
            let started = Instant::now();
            let (record, walked, traverse) =
                self.one_walk(heap, &mut Direct(methods), roots, root_ids, collect_order)?;
            let merge = started.elapsed().saturating_sub(traverse);
            self.last_shard_stats.clear();
            if !roots.is_empty() {
                self.last_shard_stats.push(walked);
            }
            self.last_phases =
                Some(ParallelPhases { traverse, merge, ..ParallelPhases::default() });
            let trace =
                trace.then(|| ShardTrace { fast_path: false, shards: self.shard_accesses() });
            return Ok((record, trace));
        }

        let plan_timer = Instant::now();
        let balance = self.config.balance;
        let (plan, plan_source) = match self.plan_cache.take() {
            Some(cache) => {
                refresh_plan(cache.plan, cache.structure_version, heap, roots, workers, balance)?
            }
            None => (plan_shards(heap, roots, workers, balance)?, PlanSource::Rebuilt),
        };
        let plan_time = plan_timer.elapsed();
        let shards = plan.num_shards();
        if self.walks.len() < shards {
            self.walks.resize_with(shards, WalkScratch::default);
        }

        let traverse_timer = Instant::now();
        // One kernel walk per shard, restricted to the objects the shard
        // owns. Shard 0's records come first in the stream, so it writes
        // straight into the record on this thread; every later shard
        // writes a headerless body, into its scratch's recycled buffer,
        // on its own thread.
        let (mut writer, reused) = self.pool.writer(seq, kind, &root_ids);
        let header = writer.len();
        let (first, rest) = self.walks[..shards].split_first_mut().expect("two or more shards");
        let (first, outputs): (Result<TraversalStats, CoreError>, Vec<_>) =
            std::thread::scope(|scope| {
                let heap = &*heap;
                let plan = &plan;
                let handles: Vec<_> = rest
                    .iter_mut()
                    .zip(1..)
                    .map(|(walk, shard)| {
                        scope.spawn(move || -> Result<_, CoreError> {
                            let mut body = StreamWriter::new_shard(std::mem::take(&mut walk.body));
                            let stats = walk.walk(
                                heap,
                                &mut Direct(methods),
                                plan.roots(shard),
                                Emit::Records(kind, &mut body),
                                plan.owned_by(shard),
                                collect_order,
                            )?;
                            let (body, records) = body.finish_shard();
                            Ok((body, records, stats))
                        })
                    })
                    .collect();
                let first = first.walk(
                    heap,
                    &mut Direct(methods),
                    plan.roots(0),
                    Emit::Records(kind, &mut writer),
                    plan.owned_by(0),
                    collect_order,
                );
                let joined =
                    handles.into_iter().map(|h| h.join().expect("shard worker does not panic"));
                (first, joined.collect())
            });
        let traverse_time = traverse_timer.elapsed();

        let merge_timer = Instant::now();
        // Per-shard bytes are each shard's body; the aggregate
        // `bytes_written` is replaced by the full stream length below, so
        // the sum never leaks into the record's stats.
        let mut first = first?;
        first.bytes_written = (writer.len() - header) as u64;
        let mut stats = first;
        self.last_shard_stats.clear();
        self.last_shard_stats.push(first);
        for (walk, output) in self.walks[1..].iter_mut().zip(outputs) {
            let (body, records, mut shard_stats) = output?;
            shard_stats.bytes_written = body.len() as u64;
            writer.append_shard(&body, records);
            walk.body = body;
            stats += shard_stats;
            self.last_shard_stats.push(shard_stats);
        }
        let accesses = trace.then(|| self.shard_accesses());
        self.settle(heap, roots, shards)?;
        self.plan_cache = Some(PlanCache { structure_version: heap.structure_version(), plan });

        stats.bytes_reused = reused;
        stats.bytes_written = writer.len() as u64;
        let bytes = writer.finish();
        self.last_phases = Some(ParallelPhases {
            plan: plan_time,
            traverse: traverse_time,
            merge: merge_timer.elapsed(),
            plan_source,
            fast_path: false,
        });
        let record = self.seal(seq, root_ids, bytes, stats);
        let shard_trace = accesses.map(|shards| ShardTrace { fast_path: false, shards });
        Ok((record, shard_trace))
    }

    /// What each shard of the last traversed parallel checkpoint visited
    /// and recorded, one entry per [`Checkpointer::shard_stats`] entry.
    fn shard_accesses(&self) -> Vec<ShardAccess> {
        self.walks
            .iter()
            .zip(&self.last_shard_stats)
            .map(|(walk, &stats)| ShardAccess {
                visited: walk.order().to_vec(),
                recorded: walk.recorded().to_vec(),
                stats,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::restore::{restore, verify_restore, RestorePolicy};
    use crate::store::CheckpointStore;
    use crate::stream::decode;
    use ickp_heap::{ClassId, ClassRegistry, FieldType, Value};

    fn setup() -> (Heap, ClassId, MethodTable) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let table = MethodTable::derive(&reg);
        (Heap::new(reg), node, table)
    }

    /// `n` chains of length 3 with some sharing between neighbours.
    fn world(n: usize) -> (Heap, MethodTable, Vec<ObjectId>) {
        let (mut heap, node, table) = setup();
        let mut roots = Vec::new();
        let mut prev_mid = None;
        for i in 0..n {
            let tail = heap.alloc(node).unwrap();
            let mid = heap.alloc(node).unwrap();
            let head = heap.alloc(node).unwrap();
            heap.set_field(head, 0, Value::Int(i as i32)).unwrap();
            heap.set_field(head, 1, Value::Ref(Some(mid))).unwrap();
            heap.set_field(mid, 1, Value::Ref(Some(tail))).unwrap();
            // Every third structure also points at its neighbour's middle
            // node, giving the partitioner cross-shard sharing to resolve.
            if i % 3 == 0 {
                if let Some(shared) = prev_mid {
                    heap.set_field(tail, 1, Value::Ref(Some(shared))).unwrap();
                }
            }
            prev_mid = Some(mid);
            roots.push(head);
        }
        (heap, table, roots)
    }

    fn assert_matches_sequential(kind: CheckpointConfig, workers: usize) {
        let (mut heap, table, roots) = world(10);
        let mut reference_heap = heap.clone();
        let mut seq_ckp = Checkpointer::new(kind);
        let mut par_ckp = Checkpointer::new(kind);
        let reference = seq_ckp.checkpoint(&mut reference_heap, &table, &roots).unwrap();
        let sharded = par_ckp.checkpoint_parallel(&mut heap, &table, &roots, workers).unwrap();
        assert_eq!(sharded.bytes(), reference.bytes(), "workers={workers}");
        assert_eq!(sharded.stats(), reference.stats(), "workers={workers}");
        assert_eq!(sharded.roots(), reference.roots());
        assert_eq!(
            ickp_heap::HeapSnapshot::capture(&heap, &roots).unwrap(),
            ickp_heap::HeapSnapshot::capture(&reference_heap, &roots).unwrap()
        );
    }

    #[test]
    fn parallel_full_checkpoint_is_byte_identical_to_sequential() {
        for workers in [1, 2, 3, 4, 8, 100] {
            assert_matches_sequential(CheckpointConfig::full(), workers);
        }
    }

    #[test]
    fn parallel_incremental_checkpoint_is_byte_identical_to_sequential() {
        for workers in [1, 2, 4, 7] {
            assert_matches_sequential(CheckpointConfig::incremental(), workers);
        }
    }

    #[test]
    fn both_balance_strategies_are_byte_identical_to_sequential() {
        for balance in [ShardBalance::Bytes, ShardBalance::RootCount] {
            for workers in [2, 4, 7] {
                assert_matches_sequential(CheckpointConfig::full().balanced_by(balance), workers);
                assert_matches_sequential(
                    CheckpointConfig::incremental().balanced_by(balance),
                    workers,
                );
            }
        }
    }

    #[test]
    fn sequential_checkpoint_is_the_one_shard_case_without_planning() {
        for config in [CheckpointConfig::full(), CheckpointConfig::incremental().without_journal()]
        {
            let (mut heap, table, roots) = world(6);
            let mut ckp = Checkpointer::new(config);
            for round in 0..2 {
                heap.set_field(roots[round], 0, Value::Int(7)).unwrap();
                ckp.checkpoint(&mut heap, &table, &roots).unwrap();
            }
            assert!(ckp.parallel_phases().is_none(), "{config:?}");
            assert!(ckp.plan_cache.is_none(), "{config:?}: a ShardPlan was built");
            assert!(ckp.shard_stats().is_empty(), "{config:?}");
        }
    }

    #[test]
    fn a_one_shard_parallel_checkpoint_plans_nothing() {
        for (workers, n) in [(1, 6), (0, 6), (4, 1)] {
            let (mut heap, table, roots) = world(n);
            let mut reference_heap = heap.clone();
            let config = CheckpointConfig::incremental().without_journal();
            let reference =
                Checkpointer::new(config).checkpoint(&mut reference_heap, &table, &roots).unwrap();
            let mut ckp = Checkpointer::new(config);
            let (record, trace) =
                ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, workers).unwrap();
            assert_eq!(record.bytes(), reference.bytes(), "{workers} workers, {n} roots");
            assert_eq!(record.stats(), reference.stats());
            assert!(ckp.plan_cache.is_none(), "a ShardPlan was built");
            let phases = *ckp.parallel_phases().unwrap();
            assert_eq!(phases.plan_source, PlanSource::Unplanned);
            assert_eq!(phases.plan, Duration::ZERO);
            assert!(!phases.fast_path && phases.traverse > Duration::ZERO);
            assert_eq!(trace.shards.len(), 1);
            assert_eq!(trace.shards[0].visited, ickp_heap::reachable_from(&heap, &roots).unwrap());
            assert_eq!(ckp.shard_stats(), &[trace.shards[0].stats]);
            assert!(trace.shards[0].stats.bytes_written < record.stats().bytes_written);
        }
    }

    #[test]
    fn phase_breakdown_tracks_cache_and_fast_path() {
        let (mut heap, table, roots) = world(8);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        assert!(ckp.parallel_phases().is_none());

        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let first = *ckp.parallel_phases().unwrap();
        assert!(!first.fast_path);
        assert_eq!(first.plan_source, PlanSource::Rebuilt);
        assert!(first.plan > Duration::ZERO, "pre-pass ran");
        assert!(first.traverse > Duration::ZERO && first.merge > Duration::ZERO);
        assert!(first.serial_fraction() > 0.0 && first.serial_fraction() < 1.0);

        // Unchanged structure: the plan cache serves the second round.
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let second = *ckp.parallel_phases().unwrap();
        assert_eq!(second.plan_source, PlanSource::Cached);

        // Linking a fresh object under a root repairs the plan...
        let node = heap.class_of(roots[0]).unwrap();
        let extra = heap.alloc(node).unwrap();
        let mid = heap.field(roots[0], 1).unwrap();
        heap.set_field(extra, 1, mid).unwrap();
        heap.set_field(roots[0], 1, Value::Ref(Some(extra))).unwrap();
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let third = *ckp.parallel_phases().unwrap();
        assert_eq!(third.plan_source, PlanSource::Repaired);
        assert!(third.plan > Duration::ZERO, "the repair is timed");

        // ...while cutting a root's subtree off forces a rebuild.
        heap.set_field(roots[0], 1, Value::Ref(None)).unwrap();
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let fourth = *ckp.parallel_phases().unwrap();
        assert_eq!(fourth.plan_source, PlanSource::Rebuilt);

        // With the journal on, a clean second round is marked fast-path.
        let mut journaled = Checkpointer::new(CheckpointConfig::incremental());
        journaled.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        journaled.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let fast = *journaled.parallel_phases().unwrap();
        assert!(fast.fast_path);
        assert_eq!(fast.total(), Duration::ZERO);
    }

    #[test]
    fn stale_plan_cache_is_rebuilt_after_structure_changes() {
        // The plan cache must never survive a structure change: grow the
        // graph between parallel checkpoints and require byte-identity
        // with a fresh sequential driver each round, for both balancers.
        for balance in [ShardBalance::Bytes, ShardBalance::RootCount] {
            let (mut heap, table, mut roots) = world(6);
            let config = CheckpointConfig::incremental().balanced_by(balance);
            let mut par_ckp = Checkpointer::new(config);
            let mut seq_ckp = Checkpointer::new(config);
            let mut seq_heap = heap.clone();
            let node = heap.class_of(roots[0]).unwrap();
            for round in 0..4 {
                let par = par_ckp.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
                let seq = seq_ckp.checkpoint(&mut seq_heap, &table, &roots).unwrap();
                assert_eq!(par.bytes(), seq.bytes(), "{balance:?} round {round}");
                // Mutate both heaps identically: new subtree on one root
                // (structure change) plus a scalar dirty.
                for h in [&mut heap, &mut seq_heap] {
                    let fresh = h.alloc(node).unwrap();
                    h.set_field(fresh, 0, Value::Int(round as i32)).unwrap();
                    h.set_field(roots[round], 1, Value::Ref(Some(fresh))).unwrap();
                    h.set_field(roots[5], 0, Value::Int(100 + round as i32)).unwrap();
                }
                roots.rotate_left(1); // changed root order also invalidates
            }
        }
    }

    #[test]
    fn parallel_incremental_resets_exactly_the_recorded_flags() {
        let (mut heap, table, roots) = world(6);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
        for &r in &roots {
            assert!(!heap.is_modified(r).unwrap());
        }
        heap.set_field(roots[2], 0, Value::Int(77)).unwrap();
        let rec = ckp.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
        assert_eq!(rec.seq(), 1);
        let d = decode(rec.bytes(), heap.registry()).unwrap();
        assert_eq!(d.objects[0].stable, heap.stable_id(roots[2]).unwrap());
    }

    #[test]
    fn parallel_checkpoints_restore_exactly() {
        let (mut heap, table, roots) = world(9);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap()).unwrap();
        for (i, &r) in roots.iter().enumerate() {
            if i % 2 == 0 {
                heap.set_field(r, 0, Value::Int(1000 + i as i32)).unwrap();
            }
        }
        store.push(ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap()).unwrap();
        let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn empty_roots_match_sequential() {
        let (mut heap, _, table) = setup();
        let mut seq_ckp = Checkpointer::new(CheckpointConfig::full());
        let mut par_ckp = Checkpointer::new(CheckpointConfig::full());
        let reference = seq_ckp.checkpoint(&mut heap.clone(), &table, &[]).unwrap();
        let sharded = par_ckp.checkpoint_parallel(&mut heap, &table, &[], 4).unwrap();
        assert_eq!(sharded.bytes(), reference.bytes());
    }

    #[test]
    fn duplicate_roots_are_recorded_once() {
        let (mut heap, table, mut roots) = world(4);
        roots.push(roots[0]);
        roots.push(roots[3]);
        let mut reference_heap = heap.clone();
        let reference = Checkpointer::new(CheckpointConfig::full())
            .checkpoint(&mut reference_heap, &table, &roots)
            .unwrap();
        let sharded = Checkpointer::new(CheckpointConfig::full())
            .checkpoint_parallel(&mut heap, &table, &roots, 3)
            .unwrap();
        assert_eq!(sharded.bytes(), reference.bytes());
    }

    #[test]
    fn traced_checkpoint_reports_disjoint_accesses_in_merge_order() {
        let (mut heap, table, roots) = world(8);
        let mut reference_heap = heap.clone();
        let reference = Checkpointer::new(CheckpointConfig::full())
            .checkpoint(&mut reference_heap, &table, &roots)
            .unwrap();
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let (record, trace) = ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, 4).unwrap();
        assert_eq!(record.bytes(), reference.bytes(), "tracing never perturbs the stream");
        assert!(!trace.fast_path);
        assert_eq!(trace.shards.len(), 4);

        // Visit orders are pairwise disjoint and concatenate to the
        // sequential pre-order; full checkpoints record what they visit.
        let mut seen = std::collections::HashSet::new();
        let mut merged = Vec::new();
        for access in &trace.shards {
            assert_eq!(access.visited, access.recorded);
            for &id in &access.visited {
                assert!(seen.insert(id), "object {id:?} touched by two shards");
            }
            merged.extend(access.visited.iter().copied());
        }
        assert_eq!(merged, ickp_heap::reachable_from(&heap, &roots).unwrap());

        // The surfaced per-shard stats are the trace's, and the per-shard
        // body bytes sum to the full stream minus its header/footer.
        let shard_stats: Vec<_> = trace.shards.iter().map(|a| a.stats).collect();
        assert_eq!(ckp.shard_stats(), &shard_stats[..]);
        let body: u64 = shard_stats.iter().map(|s| s.bytes_written).sum();
        assert!(body < record.stats().bytes_written);
        assert_eq!(
            shard_stats.iter().map(|s| s.objects_recorded).sum::<u64>(),
            record.stats().objects_recorded
        );
    }

    #[test]
    fn fast_path_trace_is_marked_and_has_no_shards() {
        let (mut heap, table, roots) = world(4);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let (_, first) = ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, 2).unwrap();
        assert!(!first.fast_path);
        assert_eq!(ckp.shard_stats().len(), 2);
        // Nothing dirty: the journal serves the next one sequentially.
        let (record, second) =
            ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, 2).unwrap();
        assert!(second.fast_path);
        assert!(second.shards.is_empty());
        assert_eq!(ckp.shard_stats(), &[record.stats()]);
    }

    #[test]
    fn cumulative_stats_and_sequence_numbers_advance() {
        let (mut heap, table, roots) = world(5);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 2).unwrap();
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 2).unwrap();
        assert_eq!(ckp.next_seq(), 2);
        // The second round rides the journal fast path: nothing dirty,
        // nothing visited.
        assert_eq!(ckp.cumulative_stats().objects_visited, 15);
        assert_eq!(ckp.cumulative_stats().subtrees_pruned, 15);
    }
}
