//! The three workloads. Each episode builds its world from the seed,
//! takes the base checkpoint (the set-up), runs a fixed number of closed
//! loop rounds — mutate, checkpoint, commit — then crashes, recovers and
//! checks the recovered state against the live heap (the correctness
//! gate). A traced episode runs the same calls and additionally times
//! each layer call from outside and reads the layers' public counters.

use crate::probe::{snapshot, Crash, Shared, TimedTransport, TimedVfs, VfsStats, WireStats};
use ickp_backend::{Engine, ParallelBackend, SpecializedBackend};
use ickp_core::{
    restore, state_digest, verify_restore, CheckpointConfig, CheckpointRecord, CheckpointStore,
    Checkpointer, MethodTable, RestorePolicy, RestoredHeap,
};
use ickp_durable::{DurableConfig, DurableError, DurableStore, MemFs, StdFs, Vfs};
use ickp_heap::{ClassRegistry, Heap, ObjectId, Value};
use ickp_lifecycle::{merge_records, RetentionPolicy};
use ickp_prng::Prng;
use ickp_replicate::{
    promote, ChannelTransport, ReplicaPair, ReplicateConfig, Transport, TransportPlan,
};
use ickp_spec::Specializer;
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A named traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale heap, 25 % of elements dirtied and a share of lists
    /// rewired every round; parallel engine into `DurableStore<MemFs>`.
    DenseReshape,
    /// Same heap, 1 % dirtied, no rewiring (journal fast path); each
    /// checkpoint fsynced into `DurableStore<StdFs>`.
    SparseFsync,
    /// 1 000 structures; periodic generic full checkpoint, specialized
    /// increments, replicated pair with dedup and group commit, and a
    /// retention fold every 16 rounds.
    ReplicatedHistory,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] =
        [Workload::DenseReshape, Workload::SparseFsync, Workload::ReplicatedHistory];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseReshape => "dense_reshape",
            Workload::SparseFsync => "sparse_fsync",
            Workload::ReplicatedHistory => "replicated_history",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine and sink, for the run header.
    pub fn engine(self) -> &'static str {
        match self {
            Workload::DenseReshape => "ParallelBackend -> DurableStore<MemFs>::append",
            Workload::SparseFsync => "ParallelBackend (journal fast path) -> DurableStore<StdFs>::append",
            Workload::ReplicatedHistory => {
                "Checkpointer(full)/SpecializedBackend(Harissa, Fig. 9 plan) -> ReplicaPair<MemFs, MemFs, ChannelTransport>"
            }
        }
    }

    /// Episodes per recovery. At paper scale a recovery plus its gate
    /// costs several times the episode's rounds, so only every fourth
    /// (`dense_reshape`) or second (`sparse_fsync`) episode pays it.
    pub fn recover_every(self) -> usize {
        match self {
            Workload::DenseReshape => 4,
            Workload::SparseFsync => 2,
            Workload::ReplicatedHistory => 1,
        }
    }

    /// Timed recoveries per recovering episode. Each extra one reopens
    /// an identical copy of the crashed disk, which only `MemFs` makes
    /// cheaply. A restore's time varies by about ten percent from one
    /// call to the next, so the median needs several.
    pub fn recover_repeats(self) -> usize {
        match self {
            Workload::DenseReshape => 2,
            Workload::SparseFsync => 1,
            Workload::ReplicatedHistory => 3,
        }
    }

    /// Mean wall time of one episode on the reference host (2 vCPU),
    /// recoveries included. A run executes `--seconds` divided by this
    /// many episodes: a fixed count, so that every run of a seed draws
    /// the same number of samples and reports the same tail percentile.
    pub fn nominal_episode_s(self) -> f64 {
        match self {
            Workload::DenseReshape => 5.4,
            Workload::SparseFsync => 4.1,
            Workload::ReplicatedHistory => 5.8,
        }
    }

    /// Flush policy, for the run header.
    pub fn flush_policy(self) -> &'static str {
        match self {
            Workload::DenseReshape => "batch 1, MemFs fsync (in-memory durability model)",
            Workload::SparseFsync => "batch 1, real fsync: segment + manifest + directory",
            Workload::ReplicatedHistory => {
                "group commit batch 4, dedup on, ack when durable on both nodes"
            }
        }
    }
}

/// A fault injected to show that the correctness gate trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// The sink silently drops the last record of the episode.
    DropLast,
    /// After the crash, one byte of the last segment is flipped behind
    /// the store's back (silent corruption after an fsync).
    FlipByte,
}

/// What one episode runs.
#[derive(Debug, Clone)]
pub struct EpisodeConfig {
    /// The traffic shape.
    pub workload: Workload,
    /// Seed of the world's modification stream.
    pub seed: u64,
    /// Whether to build the probes and time every layer call.
    pub traced: bool,
    /// Small world and few rounds (the benchmark's own tests).
    pub smoke: bool,
    /// Injected fault.
    pub fault: Fault,
    /// Crash, recover and run the correctness gate after the rounds.
    pub recover: bool,
    /// Worker threads of the parallel engine.
    pub workers: usize,
    /// Directory for the real-filesystem store.
    pub work_dir: PathBuf,
}

impl EpisodeConfig {
    fn structures(&self) -> usize {
        match (self.workload, self.smoke) {
            (Workload::ReplicatedHistory, false) => 1_000,
            (Workload::ReplicatedHistory, true) => 40,
            (_, false) => 20_000,
            (_, true) => 200,
        }
    }

    /// Closed-loop rounds per episode.
    fn rounds(&self) -> u64 {
        match (self.workload, self.smoke) {
            (Workload::DenseReshape, false) => 8,
            (Workload::SparseFsync, false) => 48,
            // Four full + fold cycles, then history since the last fold.
            (Workload::ReplicatedHistory, false) => 72,
            (Workload::ReplicatedHistory, true) => 24,
            (_, true) => 4,
        }
    }

    fn synth(&self) -> SynthConfig {
        SynthConfig {
            structures: self.structures(),
            seed: self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1c4b_c05e,
            ..SynthConfig::paper(5, 10)
        }
    }
}

/// Time and calls of one layer entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls timed.
    pub calls: u64,
    /// Total time across them.
    pub time: Duration,
}

impl Span {
    fn add(&mut self, time: Duration) {
        self.calls += 1;
        self.time += time;
    }
}

/// Per-layer accounting of one traced episode's timed rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trace {
    /// Mutation phases.
    pub mutate: Span,
    /// `HeapStats::field_writes` delta over the mutation phases.
    pub field_writes: u64,
    /// `HeapStats::barrier_marks` delta over the mutation phases.
    pub barrier_marks: u64,
    /// Pauses: engine call plus sink call.
    pub pause: Span,
    /// Every engine call (parallel, specialized or full).
    pub engine: Span,
    /// `ParallelBackend::checkpoint` calls served by the journal fast path.
    pub fast_path: Span,
    /// `ParallelPhases::plan` summed over the shard-worker calls.
    pub plan: Duration,
    /// `ParallelPhases::traverse` summed.
    pub traverse: Duration,
    /// `ParallelPhases::merge` summed.
    pub merge: Duration,
    /// `SpecializedBackend::checkpoint` calls.
    pub spec: Span,
    /// `TraversalStats::flag_tests` over the specialized calls.
    pub spec_flag_tests: u64,
    /// Generic full `Checkpointer::checkpoint` calls inside the loop.
    pub full: Span,
    /// `TraversalStats::objects_visited` over every engine call.
    pub visited: u64,
    /// `TraversalStats::objects_recorded` over every engine call.
    pub recorded: u64,
    /// Record bytes produced by the engine calls (= handed to the sink).
    pub record_bytes: u64,
    /// Sink calls (`DurableStore::append` or `ReplicaPair::append`).
    pub sink: Span,
    /// Sink calls that group-committed (`ReplicaPair` only).
    pub commit: Span,
    /// `IoStats::fsyncs` delta of the primary store over the sink calls.
    pub io_fsyncs: u64,
    /// Primary filesystem, during sink calls.
    pub primary: VfsStats,
    /// Follower filesystem, during sink calls.
    pub follower: VfsStats,
    /// Transport, during sink calls.
    pub wire: WireStats,
    /// `ReplicationStats::retransmits` at the end of the loop.
    pub retransmits: u64,
    /// Retention folds: plan + merge + rewrite.
    pub fold: Span,
    /// Restore points kept, summed over folds.
    pub kept_points: u64,
    /// Committed primary bytes before each fold, summed.
    pub fold_bytes_before: u64,
    /// Committed primary bytes after each fold, summed.
    pub fold_bytes_after: u64,
    /// `DurableStore::open` / `promote` after the crash.
    pub open: Span,
    /// `ickp_core::restore` of the tip.
    pub restore: Span,
    /// Records replayed by the restore.
    pub replayed: u64,
}

impl Trace {
    fn absorb(&mut self, o: &Trace) {
        fn span(a: &mut Span, b: Span) {
            a.calls += b.calls;
            a.time += b.time;
        }
        for (a, b) in [
            (&mut self.mutate, o.mutate),
            (&mut self.pause, o.pause),
            (&mut self.engine, o.engine),
            (&mut self.fast_path, o.fast_path),
            (&mut self.spec, o.spec),
            (&mut self.full, o.full),
            (&mut self.sink, o.sink),
            (&mut self.commit, o.commit),
            (&mut self.fold, o.fold),
            (&mut self.open, o.open),
            (&mut self.restore, o.restore),
        ] {
            span(a, b);
        }
        self.field_writes += o.field_writes;
        self.barrier_marks += o.barrier_marks;
        self.plan += o.plan;
        self.traverse += o.traverse;
        self.merge += o.merge;
        self.spec_flag_tests += o.spec_flag_tests;
        self.visited += o.visited;
        self.recorded += o.recorded;
        self.record_bytes += o.record_bytes;
        self.io_fsyncs += o.io_fsyncs;
        self.primary = self.primary + o.primary;
        self.follower = self.follower + o.follower;
        self.wire = self.wire + o.wire;
        self.retransmits += o.retransmits;
        self.kept_points += o.kept_points;
        self.fold_bytes_before += o.fold_bytes_before;
        self.fold_bytes_after += o.fold_bytes_after;
        self.replayed += o.replayed;
    }

    /// Sums the traces of several episodes.
    pub fn sum<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Trace {
        let mut total = Trace::default();
        for t in traces {
            total.absorb(t);
        }
        total
    }
}

/// The measurements of one episode.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// World build plus base checkpoint (and its commit).
    pub setup: Duration,
    /// One pause per round: engine call plus sink call.
    pub pauses: Vec<Duration>,
    /// Rounds completed.
    pub rounds: u64,
    /// Wall time of the rounds, folds included.
    pub loop_time: Duration,
    /// Reopen plus restore of the tip after the crash, one sample per
    /// timed recovery (empty unless the episode recovers).
    pub recover: Vec<Duration>,
    /// Committed store bytes at the end of the rounds.
    pub store_bytes: u64,
    /// Bytes of one full checkpoint of the final live state.
    pub full_bytes: u64,
    /// Bytes of the base checkpoint.
    pub base_bytes: u64,
    /// Live objects in the world.
    pub objects: u64,
    /// FNV-1a over the sequence number and bytes of every record the
    /// producer committed, in order.
    pub stream_digest: u64,
    /// `state_digest` of the live heap at the end.
    pub state_digest: u64,
    /// Layer calls attempted (engine, sink, fold, open, restore).
    pub attempted: u64,
    /// Layer calls that returned `Err`.
    pub failed: u64,
    /// `None` when the correctness gate passed, else why it did not.
    pub gate_failure: Option<String>,
    /// Per-layer accounting (traced episodes only).
    pub trace: Option<Trace>,
}

/// FNV-1a, folded incrementally over a record stream.
#[derive(Debug, Clone, Copy)]
struct StreamDigest(u64);

impl StreamDigest {
    /// The empty stream.
    fn new() -> StreamDigest {
        StreamDigest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one record in.
    fn record(&mut self, record: &CheckpointRecord) {
        self.feed(&record.seq().to_le_bytes());
        self.feed(record.bytes());
    }

    /// Digest of a whole chain.
    fn of(records: &[CheckpointRecord]) -> u64 {
        let mut d = StreamDigest::new();
        records.iter().for_each(|r| d.record(r));
        d.0
    }

    /// The digest so far.
    fn value(&self) -> u64 {
        self.0
    }
}

/// Counts layer calls and their failures; an `Err` aborts the episode.
#[derive(Debug, Default)]
struct Calls {
    attempted: u64,
    failed: u64,
}

impl Calls {
    fn check<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }
}

/// Numbers the real-filesystem stores of this process, so concurrent
/// episodes (the test harness runs tests on several threads) never share
/// a directory.
static NEXT_STORE: AtomicUsize = AtomicUsize::new(0);

/// Runs one episode. Never panics on a layer error: the error is
/// counted and reported as a gate failure.
pub fn run_episode(cfg: &EpisodeConfig) -> Episode {
    let mut calls = Calls::default();
    let mut ep = Episode::default();
    let result = match (cfg.workload, cfg.traced) {
        (Workload::DenseReshape, false) => {
            synth_episode(cfg, MemFs::new(), None, &mut calls, &mut ep)
        }
        (Workload::DenseReshape, true) => {
            let stats = Shared::default();
            let fs = TimedVfs::new(MemFs::new(), stats.clone());
            synth_episode(cfg, fs, Some(stats), &mut calls, &mut ep)
        }
        (Workload::SparseFsync, traced) => {
            let dir = cfg.work_dir.join(format!(
                "store-{}-{}",
                std::process::id(),
                NEXT_STORE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let out = match calls.check("StdFs::new", StdFs::new(&dir)) {
                Ok(fs) if traced => {
                    let stats = Shared::default();
                    let fs = TimedVfs::new(fs, stats.clone());
                    synth_episode(cfg, fs, Some(stats), &mut calls, &mut ep)
                }
                Ok(fs) => synth_episode(cfg, fs, None, &mut calls, &mut ep),
                Err(why) => Err(why),
            };
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        (Workload::ReplicatedHistory, false) => replicated_episode(
            cfg,
            (MemFs::new(), MemFs::new(), ChannelTransport::new(TransportPlan::none())),
            None,
            &mut calls,
            &mut ep,
        ),
        (Workload::ReplicatedHistory, true) => {
            let (p, f, w) = (Shared::default(), Shared::default(), Shared::default());
            let nodes = (
                TimedVfs::new(MemFs::new(), p.clone()),
                TimedVfs::new(MemFs::new(), f.clone()),
                TimedTransport::new(ChannelTransport::new(TransportPlan::none()), w.clone()),
            );
            replicated_episode(cfg, nodes, Some((p, f, w)), &mut calls, &mut ep)
        }
    };
    if let Err(why) = result {
        ep.gate_failure = Some(why);
    }
    ep.attempted = calls.attempted;
    ep.failed = calls.failed;
    ep
}

fn ref_of(v: Value) -> Result<ObjectId, String> {
    match v {
        Value::Ref(Some(id)) => Ok(id),
        other => Err(format!("expected a list link, found {other:?}")),
    }
}

/// Swaps the elements at positions 1 and 2 of one list:
/// `p0 → p1 → p2 → rest` becomes `p0 → p2 → p1 → rest`, three barriered
/// stores to `next`, each of which moves `structure_version`.
fn swap_adjacent(
    heap: &mut Heap,
    holder: ObjectId,
    list: usize,
    next: usize,
) -> Result<(), String> {
    let e = |x: ickp_heap::HeapError| x.to_string();
    let p0 = ref_of(heap.field(holder, list).map_err(e)?)?;
    let p1 = ref_of(heap.field(p0, next).map_err(e)?)?;
    let p2 = ref_of(heap.field(p1, next).map_err(e)?)?;
    let rest = heap.field(p2, next).map_err(e)?;
    heap.set_field(p0, next, Value::Ref(Some(p2))).map_err(e)?;
    heap.set_field(p2, next, Value::Ref(Some(p1))).map_err(e)?;
    heap.set_field(p1, next, rest).map_err(e)
}

/// Share of structures (one in `RESHAPE_EVERY`) that get one list
/// rewired per `dense_reshape` round.
const RESHAPE_EVERY: u64 = 50;

/// How a crashed node's directory is reopened: `DurableStore::open` for
/// a single node, `promote` for the follower of a pair.
type Reopen<F> = fn(
    F,
    DurableConfig,
    &ClassRegistry,
) -> Result<(DurableStore<F>, CheckpointStore), DurableError>;

/// One timed reopen + restore; returns the recovered chain's digest and
/// the restored heap.
fn recover_once<F: Vfs>(
    fs: F,
    reopen: Reopen<F>,
    durable: DurableConfig,
    registry: &ClassRegistry,
    calls: &mut Calls,
    trace: &mut Option<&mut Trace>,
    ep: &mut Episode,
) -> Result<(u64, RestoredHeap), String> {
    let start = Instant::now();
    let opened = calls.check("reopen", reopen(fs, durable, registry));
    let opened_at = Instant::now();
    let (store, recovered) = opened?;
    // Lenient: the single-node workloads' base is an incremental record
    // taken with every object flagged, which records the whole graph.
    let restored = calls.check("restore", restore(&recovered, registry, RestorePolicy::Lenient));
    let done = Instant::now();
    let restored = restored?;
    ep.recover.push(done - start);
    if let Some(t) = trace {
        t.open.add(opened_at - start);
        t.restore.add(done - opened_at);
        t.replayed += recovered.len() as u64;
    }
    let digest = StreamDigest::of(recovered.records());
    drop((store, recovered));
    Ok((digest, restored))
}

/// Crash, reopen, restore, and check the result against the live heap.
#[allow(clippy::too_many_arguments)]
fn recover_and_gate<F: Vfs + Crash>(
    mut fs: F,
    reopen: Reopen<F>,
    durable: DurableConfig,
    live: &Heap,
    live_roots: &[ObjectId],
    committed_digest: u64,
    cfg: &EpisodeConfig,
    calls: &mut Calls,
    mut trace: Option<&mut Trace>,
    ep: &mut Episode,
) -> Result<(), String> {
    let registry = live.registry().clone();
    fs.crash();
    if cfg.fault == Fault::FlipByte {
        flip_last_segment_byte(&mut fs)?;
    }
    for _ in 1..cfg.workload.recover_repeats() {
        let Some(copy) = fs.image() else { break };
        recover_once(copy, reopen, durable, &registry, calls, &mut trace, ep)?;
    }
    let (recovered_digest, restored) =
        recover_once(fs, reopen, durable, &registry, calls, &mut trace, ep)?;
    if recovered_digest != committed_digest {
        return Err(format!(
            "recovered chain digest {recovered_digest:016x} != committed {committed_digest:016x}"
        ));
    }
    if let Some(diff) = verify_restore(live, live_roots, &restored).map_err(|e| e.to_string())? {
        return Err(format!("verify_restore: {diff}"));
    }
    let got = state_digest(restored.heap(), restored.roots()).map_err(|e| e.to_string())?;
    if got != ep.state_digest {
        return Err(format!("state digest {got:016x} != live {:016x}", ep.state_digest));
    }
    Ok(())
}

/// Flips one payload byte of the newest segment, durably, behind the
/// store's back.
fn flip_last_segment_byte<F: Vfs>(fs: &mut F) -> Result<(), String> {
    let e = |x: ickp_durable::FsError| x.to_string();
    let names = fs.list().map_err(e)?;
    let name =
        names.iter().rev().find(|n| n.starts_with("seg-")).ok_or("no segment to corrupt")?.clone();
    let mut bytes = fs.read(&name).map_err(e)?;
    let at = bytes.len() / 2;
    bytes[at] ^= 0x5a;
    fs.write_file(&name, &bytes).map_err(e)?;
    fs.sync(&name).map_err(e)?;
    fs.sync_dir().map_err(e)
}

/// `dense_reshape` and `sparse_fsync`: the parallel engine streaming
/// into a single-node durable store, one append per checkpoint.
fn synth_episode<F: Vfs + Crash>(
    cfg: &EpisodeConfig,
    fs: F,
    probe: Option<Shared<VfsStats>>,
    calls: &mut Calls,
    ep: &mut Episode,
) -> Result<(), String> {
    let dense = cfg.workload == Workload::DenseReshape;
    let durable = DurableConfig::default();
    let setup_start = Instant::now();
    let mut world = calls.check("SynthWorld::build", SynthWorld::build(cfg.synth()))?;
    let registry = world.heap().registry().clone();
    let roots = world.roots().to_vec();
    let next_slot = world.next_slot();
    let lists = world.config().lists_per_structure;
    let mut engine = ParallelBackend::new(cfg.workers, &registry);
    let mut store = calls.check("DurableStore::create", DurableStore::create(fs, durable))?;
    // The base: every object flagged, one parallel checkpoint records
    // the whole graph and warms the engine's journal cache.
    world.heap_mut().mark_all_modified();
    let base =
        calls.check("ParallelBackend::checkpoint", engine.checkpoint(world.heap_mut(), &roots))?;
    calls.check("DurableStore::append", store.append(&base))?;
    let mut digest = StreamDigest::new();
    digest.record(&base);
    ep.setup = setup_start.elapsed();
    ep.base_bytes = base.len_bytes() as u64;
    ep.objects = world.object_count() as u64;
    drop(base);

    let mods = ModificationSpec::uniform(if dense { 25 } else { 1 });
    let rounds = cfg.rounds();
    let mut trace = probe.as_ref().map(|_| Trace::default());
    // The benchmark's own digesting is kept out of the loop time.
    let mut digesting = Duration::ZERO;
    let loop_start = Instant::now();
    for round in 1..=rounds {
        // Mutate.
        let before = world.heap().stats();
        let t = Instant::now();
        world.apply_modifications(&mods);
        if dense {
            let mut rng = Prng::seed_from_u64(cfg.seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F));
            let heap = world.heap_mut();
            let rewired = roots.iter().try_for_each(|&holder| {
                if rng.below(RESHAPE_EVERY) == 0 {
                    swap_adjacent(heap, holder, rng.index(lists), next_slot)?;
                }
                Ok::<(), String>(())
            });
            calls.check("Heap::set_field (rewiring)", rewired)?;
        }
        let mutate = t.elapsed();
        let after = world.heap().stats();

        // Checkpoint + commit: the pause.
        let vfs0 = probe.as_ref().map(snapshot);
        let io0 = store.io_stats();
        let t0 = Instant::now();
        let record = engine.checkpoint(world.heap_mut(), &roots);
        let t1 = Instant::now();
        let record = calls.check("ParallelBackend::checkpoint", record)?;
        let appended = if cfg.fault == Fault::DropLast && round == rounds {
            Ok(()) // the faulty sink acknowledges without storing
        } else {
            store.append(&record)
        };
        let t2 = Instant::now();
        calls.check("DurableStore::append", appended)?;
        ep.pauses.push(t2 - t0);
        let d = Instant::now();
        digest.record(&record);
        digesting += d.elapsed();

        if let (Some(t), Some(probe), Some(vfs0)) = (trace.as_mut(), probe.as_ref(), vfs0) {
            t.mutate.add(mutate);
            t.field_writes += after.field_writes - before.field_writes;
            t.barrier_marks += after.barrier_marks - before.barrier_marks;
            t.pause.add(t2 - t0);
            t.engine.add(t1 - t0);
            let phases = engine.phases().copied().unwrap_or_default();
            if phases.fast_path {
                t.fast_path.add(t1 - t0);
            } else {
                t.plan += phases.plan;
                t.traverse += phases.traverse;
                t.merge += phases.merge;
            }
            let stats = record.stats();
            t.visited += stats.objects_visited;
            t.recorded += stats.objects_recorded;
            t.record_bytes += record.len_bytes() as u64;
            t.sink.add(t2 - t1);
            t.io_fsyncs += store.io_stats().fsyncs() - io0.fsyncs();
            t.primary = t.primary + (snapshot(probe) - vfs0);
        }
    }
    if let Some(t) = &trace {
        probe_sees_every_fsync(t)?;
    }
    ep.loop_time = loop_start.elapsed() - digesting;
    ep.rounds = rounds;
    ep.store_bytes = store.committed_bytes();
    ep.stream_digest = digest.value();
    ep.state_digest = state_digest(world.heap(), &roots).map_err(|e| e.to_string())?;

    let fs = store.into_fs();
    let committed = ep.stream_digest;
    if !cfg.recover {
        ep.trace = trace;
        return Ok(());
    }
    recover_and_gate(
        fs,
        DurableStore::open,
        durable,
        world.heap(),
        &roots,
        committed,
        cfg,
        calls,
        trace.as_mut(),
        ep,
    )?;
    ep.full_bytes = full_checkpoint_bytes(world.heap_mut(), &roots)?;
    ep.trace = trace;
    Ok(())
}

/// The store's own `IoStats` and the `Vfs` probe must count the same
/// fsyncs: a probe that missed or invented an operation would skew every
/// durable-layer figure.
fn probe_sees_every_fsync(t: &Trace) -> Result<(), String> {
    let probed = t.primary.fsync().calls;
    if probed == t.io_fsyncs {
        Ok(())
    } else {
        Err(format!("Vfs probe counted {probed} fsyncs, IoStats {}", t.io_fsyncs))
    }
}

/// Bytes of one generic full checkpoint of the live state. Full mode
/// records every reachable object and leaves the journal alone; the
/// heap is clean here, so it changes nothing.
fn full_checkpoint_bytes(heap: &mut Heap, roots: &[ObjectId]) -> Result<u64, String> {
    let table = MethodTable::derive(heap.registry());
    let record = Checkpointer::new(CheckpointConfig::full())
        .checkpoint(heap, &table, roots)
        .map_err(|e| e.to_string())?;
    Ok(record.len_bytes() as u64)
}

/// Rounds between generic full checkpoints and between retention folds.
const FULL_EVERY: u64 = 16;

/// `replicated_history`: the lifecycle cadence through a replicated
/// pair.
fn replicated_episode<P: Vfs, F: Vfs + Crash, T: Transport>(
    cfg: &EpisodeConfig,
    (primary, follower, link): (P, F, T),
    probe: Option<(Shared<VfsStats>, Shared<VfsStats>, Shared<WireStats>)>,
    calls: &mut Calls,
    ep: &mut Episode,
) -> Result<(), String> {
    let config = ReplicateConfig {
        durable: DurableConfig::default(),
        batch_records: 4,
        max_retries: 3,
        dedup: true,
    };
    let setup_start = Instant::now();
    let mut world = calls.check("SynthWorld::build", SynthWorld::build(cfg.synth()))?;
    let registry = world.heap().registry().clone();
    let roots = world.roots().to_vec();
    let table = MethodTable::derive(&registry);
    let plan = calls.check(
        "Specializer::compile",
        Specializer::new(&registry).compile(&world.shape_modified_lists(1)),
    )?;
    let mut spec = SpecializedBackend::new(Engine::Harissa, plan);
    let mut full = Checkpointer::new(CheckpointConfig::full());
    let mut pair = calls.check(
        "ReplicaPair::create",
        ReplicaPair::create(primary, follower, link, config, &registry),
    )?;
    let base = calls
        .check("Checkpointer::checkpoint", full.checkpoint(world.heap_mut(), &table, &roots))?;
    let mut digest = StreamDigest::new();
    digest.record(&base);
    ep.base_bytes = base.len_bytes() as u64;
    let mut chain = vec![base.clone()];
    calls.check("ReplicaPair::append", pair.append(base))?;
    calls.check("ReplicaPair::commit", pair.commit())?;
    ep.setup = setup_start.elapsed();
    ep.objects = world.object_count() as u64;

    let churn = ModificationSpec { pct_modified: 20, modified_lists: 1, last_only: false };
    let rounds = cfg.rounds();
    let mut trace = probe.as_ref().map(|_| Trace::default());
    let mut digesting = Duration::ZERO;
    let loop_start = Instant::now();
    for round in 1..=rounds {
        let full_round = round % FULL_EVERY == 0;
        let before = world.heap().stats();
        let t = Instant::now();
        if !full_round {
            world.apply_modifications(&churn);
        }
        let mutate = t.elapsed();
        let after = world.heap().stats();

        let snap = probe.as_ref().map(|(p, f, w)| (snapshot(p), snapshot(f), snapshot(w)));
        let commits = pair.staged_records() + 1 >= config.batch_records;
        let io0 = pair.primary_store().io_stats();
        let t0 = Instant::now();
        let record = if full_round {
            full.set_next_seq(round); // the base is seq 0
            full.checkpoint(world.heap_mut(), &table, &roots)
        } else {
            spec.set_next_seq(round);
            spec.checkpoint(world.heap_mut(), &roots, None)
        };
        let t1 = Instant::now();
        let record = calls.check("checkpoint", record)?;
        let stats = record.stats();
        let bytes = record.len_bytes() as u64;
        let d = Instant::now();
        digest.record(&record);
        digesting += d.elapsed();
        // The producer believes every record it appends is committed.
        let dropped = cfg.fault == Fault::DropLast && round == rounds;
        chain.push(record.clone());
        let appended = if dropped { Ok(()) } else { pair.append(record) };
        let t2 = Instant::now();
        calls.check("ReplicaPair::append", appended)?;
        ep.pauses.push(t2 - t0);

        if let (Some(t), Some((p, f, w)), Some((p0, f0, w0))) =
            (trace.as_mut(), probe.as_ref(), snap)
        {
            t.mutate.add(mutate);
            t.field_writes += after.field_writes - before.field_writes;
            t.barrier_marks += after.barrier_marks - before.barrier_marks;
            t.pause.add(t2 - t0);
            t.engine.add(t1 - t0);
            if full_round {
                t.full.add(t1 - t0);
            } else {
                t.spec.add(t1 - t0);
                t.spec_flag_tests += stats.flag_tests;
            }
            t.visited += stats.objects_visited;
            t.recorded += stats.objects_recorded;
            t.record_bytes += bytes;
            t.sink.add(t2 - t1);
            if commits {
                t.commit.add(t2 - t1);
            }
            t.io_fsyncs += pair.primary_store().io_stats().fsyncs() - io0.fsyncs();
            t.primary = t.primary + (snapshot(p) - p0);
            t.follower = t.follower + (snapshot(f) - f0);
            t.wire = t.wire + (snapshot(w) - w0);
        }

        if full_round {
            // Retention fold, as `CheckpointManager::maintain` does it,
            // through the pair.
            let bytes_before = pair.primary_store().committed_bytes();
            let t = Instant::now();
            let seqs: Vec<u64> = chain.iter().map(CheckpointRecord::seq).collect();
            let plan = RetentionPolicy { budget: 10 }.plan(&seqs, &[]);
            let mut merged = Vec::with_capacity(plan.groups.len());
            for group in &plan.groups {
                if group.len() == 1 {
                    merged.push(chain[group.start].clone());
                } else {
                    merged.push(
                        calls.check(
                            "merge_records",
                            merge_records(&chain[group.clone()], &registry),
                        )?,
                    );
                }
            }
            calls.check("ReplicaPair::rewrite", pair.rewrite(&merged, &[]))?;
            let fold = t.elapsed();
            chain = merged;
            if let Some(t) = trace.as_mut() {
                t.fold.add(fold);
                t.kept_points += plan.keep_seqs.len() as u64;
                t.fold_bytes_before += bytes_before;
                t.fold_bytes_after += pair.primary_store().committed_bytes();
            }
        }
    }
    calls.check("ReplicaPair::commit", pair.commit())?;
    ep.loop_time = loop_start.elapsed() - digesting;
    ep.rounds = rounds;
    ep.store_bytes = pair.primary_store().committed_bytes();
    ep.stream_digest = digest.value();
    ep.state_digest = state_digest(world.heap(), &roots).map_err(|e| e.to_string())?;
    if let Some(t) = trace.as_mut() {
        t.retransmits = pair.stats().retransmits;
        probe_sees_every_fsync(t)?;
    }

    // Failover: the primary is gone, the follower's disk crashes and is
    // promoted.
    let (_primary, follower, _link) = pair.into_parts();
    let committed = StreamDigest::of(&chain);
    drop(chain);
    if !cfg.recover {
        ep.trace = trace;
        return Ok(());
    }
    recover_and_gate(
        follower,
        promote,
        config.durable,
        world.heap(),
        &roots,
        committed,
        cfg,
        calls,
        trace.as_mut(),
        ep,
    )?;
    ep.full_bytes = full_checkpoint_bytes(world.heap_mut(), &roots)?;
    ep.trace = trace;
    Ok(())
}
