//! `ckptbench` — the pause/recovery benchmark of the ickp checkpoint
//! pipeline. See `README.md` in this directory for the workloads, the
//! metrics and the layer → end-to-end prediction table.
//!
//! One run executes whole *episodes* of one workload; their number is
//! `--seconds` divided by the workload's nominal episode time. An episode
//! builds the world from the seed, takes the base checkpoint, runs a
//! fixed number of closed-loop rounds, then (in every episode or every
//! few) crashes, recovers and checks the result. Because the round count
//! is fixed, every episode of a seed produces the same record stream,
//! which the run checks. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced episodes and reports the
//! per-layer metrics plus the tracing overhead between the two.

#![forbid(unsafe_code)]

pub mod probe;
pub mod workloads;

pub use workloads::{run_episode, Episode, EpisodeConfig, Fault, Trace, Workload};

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length; sets the episode count.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Small world, few rounds (the benchmark's tests).
    pub smoke: bool,
    /// Injected fault (the tests show that the gate catches it).
    pub fault: Fault,
}

/// Usage text.
pub const USAGE: &str =
    "usage: ckptbench --workload <dense_reshape|sparse_fsync|replicated_history> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--inject <drop-last|flip-byte>]";

impl Options {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke: false,
            fault: Fault::None,
        })
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Run header and notes, one `# `-prefixed line each.
    pub header: Vec<String>,
    /// Every gate passed, no call failed, every episode gave the same
    /// stream.
    pub correct: bool,
    /// Layer calls attempted.
    pub attempted: u64,
    /// Layer calls that returned `Err`.
    pub failed: u64,
    /// End-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
    pub metrics: Vec<Metric>,
    /// The record-stream digest every episode agreed on.
    pub stream_digest: u64,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The named metric's value, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile of a fixed grid with at least ten samples
/// beyond it (falls back to the median for tiny samples).
fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n.saturating_sub(((p / 100.0) * n as f64).ceil() as usize) >= 10)
        .unwrap_or(50.0)
}

fn median_of(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and steal jiffies of all CPUs, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// The checked-out commit, read from `.git` without running git.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Pause statistics of a set of episodes: (p50, tail, tail percentile,
/// sample count).
fn pause_stats<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> (f64, f64, f64, usize) {
    let mut all: Vec<Duration> =
        episodes.into_iter().flat_map(|e| e.pauses.iter().copied()).collect();
    if all.is_empty() {
        return (0.0, 0.0, 50.0, 0);
    }
    all.sort();
    let p = tail_percentile(all.len());
    (ms(percentile(&all, 50.0)), ms(percentile(&all, p)), p, all.len())
}

/// Runs the benchmark as the command line asks.
pub fn run(opts: &Options) -> Report {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let work_dir = root.join(".ckptbench-work");
    // A fixed count, even under `--trace 1`, where episodes come in
    // untraced/traced pairs.
    let per_pair = if opts.trace { 2 } else { 1 };
    let count = (opts.seconds / opts.workload.nominal_episode_s()).round() as usize;
    let count = (count - count % per_pair).max(2);
    let mut episodes: Vec<Episode> = Vec::with_capacity(count);
    let mut traced_flags: Vec<bool> = Vec::with_capacity(count);
    // On a host much slower than the reference one, stop before the
    // episode that would take the run past a quarter over its length.
    let cap = Duration::from_secs_f64(opts.seconds * 1.25);
    let start = Instant::now();
    let ticks_before = cpu_ticks();
    let mut stopped_early = false;
    // The last plain and the last recovering episode's duration, which
    // predict the next one of the same kind.
    let mut last = [None::<Duration>; 2];
    for i in 0..count {
        // Both episodes of a pair recover, or neither does.
        let recover = (i / per_pair) % opts.workload.recover_every() == 0;
        if i >= 2 && i % per_pair == 0 {
            let next = last[usize::from(recover)].or(last[0]).unwrap_or_default();
            if start.elapsed() + next * per_pair as u32 > cap {
                stopped_early = true;
                break;
            }
        }
        let traced = opts.trace && i % 2 == 1;
        let cfg = EpisodeConfig {
            workload: opts.workload,
            seed: opts.seed,
            traced,
            smoke: opts.smoke,
            fault: opts.fault,
            recover,
            workers,
            work_dir: work_dir.clone(),
        };
        let episode_start = Instant::now();
        let ep = run_episode(&cfg);
        last[usize::from(recover)] = Some(episode_start.elapsed());
        let gate_failed = ep.gate_failure.is_some();
        episodes.push(ep);
        traced_flags.push(traced);
        if gate_failed {
            break;
        }
    }
    let _ = std::fs::remove_dir(&work_dir);
    // Time the hypervisor gave to other guests: the main cause of
    // run-to-run drift on a shared host.
    let steal = match (ticks_before, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.1} %", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_string(),
    };

    let first = &episodes[0];
    let attempted = episodes.iter().map(|e| e.attempted).sum::<u64>().max(1);
    let failed = episodes.iter().map(|e| e.failed).sum();
    let mut problems: Vec<String> = episodes
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.gate_failure.as_ref().map(|why| format!("episode {i}: {why}")))
        .collect();
    if episodes.iter().any(|e| e.stream_digest != first.stream_digest) {
        problems.push("episodes of one seed produced different record streams".to_string());
    }
    if episodes.iter().any(|e| e.state_digest != first.state_digest) {
        problems.push("episodes of one seed ended in different heap states".to_string());
    }

    let untraced = || episodes.iter().zip(&traced_flags).filter(|(_, t)| !**t).map(|(e, _)| e);
    let traced = || episodes.iter().zip(&traced_flags).filter(|(_, t)| **t).map(|(e, _)| e);
    let recovered = || episodes.iter().filter(|e| !e.recover.is_empty());
    let (p50, tail, tail_p, samples) = pause_stats(untraced());
    let mut header = vec![
        format!(
            "# ckptbench workload={} seed={} trace={} nproc={nproc} workers={workers} git={}",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace),
            git_revision(&root)
        ),
        format!("# engine: {}", opts.workload.engine()),
        format!("# flush policy: {}", opts.workload.flush_policy()),
        format!(
            "# objects={} base_checkpoint_bytes={} final_full_checkpoint_bytes={} rounds_per_episode={} episodes={} ({} traced)",
            first.objects,
            first.base_bytes,
            recovered().next().map_or(0, |e| e.full_bytes),
            first.rounds,
            episodes.len(),
            traced().count()
        ),
        format!(
            "# stream_digest={:016x} state_digest={:016x}",
            first.stream_digest, first.state_digest
        ),
        format!("# pause_tail_ms is p{tail_p} of {samples} untraced pause samples"),
        format!("# host CPU steal during the run: {steal}"),
        format!(
            "# recover_ms samples: {}",
            episodes
                .iter()
                .flat_map(|e| e.recover.iter().map(|&d| format!("{:.1}", ms(d))))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    if stopped_early {
        header.push(format!(
            "# stopped after {} of {count} episodes at the time cap",
            episodes.len()
        ));
    }
    header.extend(problems.iter().map(|p| format!("# GATE FAILED: {p}")));

    let metrics = if opts.trace {
        let (traced_p50, ..) = pause_stats(traced());
        let t = Trace::sum(traced().filter_map(|e| e.trace.as_ref()));
        let episodes_traced = traced().count() as f64;
        layer_metrics(&t, episodes_traced, traced_p50, p50)
    } else {
        let rate = |e: &Episode| ratio(e.rounds as f64, e.loop_time.as_secs_f64());
        let space_amp = |e: &Episode| ratio(e.store_bytes as f64, e.full_bytes as f64);
        vec![
            Metric { name: "pause_p50_ms", unit: "ms", value: p50 },
            Metric { name: "pause_tail_ms", unit: "ms", value: tail },
            Metric {
                name: "rounds_per_s",
                unit: "1/s",
                value: median_of(episodes.iter().map(rate).collect()),
            },
            Metric {
                name: "recover_ms",
                unit: "ms",
                value: median_of(
                    episodes.iter().flat_map(|e| e.recover.iter().map(|&d| ms(d))).collect(),
                ),
            },
            Metric {
                name: "space_amp",
                unit: "ratio",
                value: median_of(recovered().map(space_amp).collect()),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median_of(episodes.iter().map(|e| e.setup.as_secs_f64()).collect()),
            },
            Metric { name: "peak_rss_mb", unit: "MiB", value: peak_rss_mb() },
            Metric {
                name: "ok_ratio",
                unit: "ratio",
                value: 1.0 - ratio(failed as f64, attempted as f64),
            },
        ]
    };
    Report {
        header,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        stream_digest: first.stream_digest,
    }
}

/// Per-layer metrics from the summed trace of the traced episodes.
/// Durations are per call of the layer entry point named, except the
/// durable leaf timers, which are per checkpoint so that they add up to
/// the mean pause.
fn layer_metrics(t: &Trace, episodes: f64, traced_p50: f64, untraced_p50: f64) -> Vec<Metric> {
    let rounds = t.pause.calls as f64;
    let engine_calls = t.engine.calls as f64;
    let sink_calls = t.sink.calls as f64;
    let commits = t.commit.calls as f64;
    let bytes = t.record_bytes as f64;
    let per_round = |d: Duration| ratio(ms(d), rounds);
    let per_call = |s: workloads::Span| ratio(ms(s.time), s.calls as f64);
    let vfs_total = t.primary.total() + t.follower.total() + t.wire.total();
    let attributed =
        t.plan + t.traverse + t.merge + t.fast_path.time + t.spec.time + t.full.time + t.sink.time;
    let unattributed = t.pause.time.saturating_sub(attributed);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("heap.write_ns", "ns", ratio(t.mutate.time.as_secs_f64() * 1e9, t.field_writes as f64)),
        m("heap.marks_per_round", "count", ratio(t.barrier_marks as f64, rounds)),
        m("core.plan_ms", "ms", per_round(t.plan)),
        m("core.traverse_ms", "ms", per_round(t.traverse)),
        m("core.merge_ms", "ms", per_round(t.merge)),
        m("core.ckpt_ms", "ms", per_call(t.engine)),
        m("core.fast_path_ratio", "ratio", ratio(t.fast_path.calls as f64, rounds)),
        m("core.objects_visited", "count", ratio(t.visited as f64, engine_calls)),
        m("core.objects_recorded", "count", ratio(t.recorded as f64, engine_calls)),
        m("core.bytes_encoded", "bytes", ratio(bytes, engine_calls)),
        m("core.encode_mb_per_s", "MB/s", ratio(bytes / 1e6, t.engine.time.as_secs_f64())),
        m("core.full_ms", "ms", per_call(t.full)),
        m("core.restore_ms", "ms", per_call(t.restore)),
        m("core.replayed_records", "count", ratio(t.replayed as f64, t.restore.calls as f64)),
        m("spec.ckpt_ms", "ms", per_call(t.spec)),
        m("spec.flag_tests", "count", ratio(t.spec_flag_tests as f64, t.spec.calls as f64)),
        m("durable.append_ms", "ms", per_call(t.sink)),
        m("durable.cpu_ms", "ms", ratio(ms(t.sink.time.saturating_sub(vfs_total)), sink_calls)),
        m("durable.fsync_ms", "ms", ratio(ms(t.primary.fsync().time), sink_calls)),
        m("durable.fsyncs_per_ckpt", "count", ratio(t.io_fsyncs as f64, sink_calls)),
        m("durable.manifest_ms", "ms", ratio(ms(t.primary.manifest_time()), sink_calls)),
        m("durable.write_ms", "ms", ratio(ms(t.primary.segment_write.time), sink_calls)),
        m("durable.write_amp", "ratio", ratio(t.primary.bytes_written() as f64, bytes)),
        m(
            "durable.dedup_saved_ratio",
            "ratio",
            1.0 - ratio(t.primary.segment_write.bytes as f64, bytes),
        ),
        m("durable.open_ms", "ms", per_call(t.open)),
        m("replicate.commit_ms", "ms", per_call(t.commit)),
        m("replicate.wire_ms", "ms", ratio(ms(t.wire.total()), commits)),
        m("replicate.wire_bytes_per_byte", "ratio", ratio(t.wire.sent.bytes as f64, bytes)),
        m("replicate.follower_ms", "ms", ratio(ms(t.follower.total()), commits)),
        m("replicate.retransmits", "count", ratio(t.retransmits as f64, episodes)),
        m("lifecycle.fold_ms", "ms", per_call(t.fold)),
        m("lifecycle.kept_points", "count", ratio(t.kept_points as f64, t.fold.calls as f64)),
        m(
            "lifecycle.fold_ratio",
            "ratio",
            ratio(t.fold_bytes_after as f64, t.fold_bytes_before as f64),
        ),
        m("trace.unattributed_pct", "%", 100.0 * ratio(ms(unattributed), ms(t.pause.time))),
        m("trace.overhead_pct", "%", 100.0 * ratio(traced_p50 - untraced_p50, untraced_p50)),
    ]
}
