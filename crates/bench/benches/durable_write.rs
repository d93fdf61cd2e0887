//! Durable-write throughput: what does crash safety cost per checkpoint?
//!
//! Appends a pre-built stream of incremental checkpoint records through
//! three sinks:
//!
//! * `memory/store-push` — the in-memory `CheckpointStore` (the floor:
//!   no framing, no I/O);
//! * `memfs/...` — the durable store over the deterministic in-memory
//!   filesystem, isolating the protocol cost (CRC framing, manifest
//!   encode, namespace bookkeeping) from device speed;
//! * `stdfs/...` — the durable store over a real temp directory,
//!   including genuine fsyncs; this is the number a deployment sees.
//!
//! Segment targets of 64 KiB and 4 MiB bracket the roll frequency. The
//! interesting ratio is memfs vs memory (protocol overhead) and stdfs vs
//! memfs (the price of real fsyncs).
//!
//! Two layers of that protocol are also timed alone:
//!
//! * `crc32/1mib` — the frame checksum over 1 MiB, also printed as MB/s;
//! * `dedup/encode-26k-{new,dup}` — `ChunkIndex` part encoding of one
//!   full checkpoint of 26 000 objects (one chunk each): all chunks new
//!   (every one is staged), then the same frame against an index that
//!   already holds them (every one becomes a back-reference).

use ickp_bench::BenchGroup;
use ickp_core::{object_slices, CheckpointConfig, MethodTable};
use ickp_core::{CheckpointRecord, CheckpointStore, Checkpointer};
use ickp_durable::dedup::{ChunkIndex, Staging};
use ickp_durable::{crc32, DurableConfig, DurableStore, MemFs, StdFs};
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A realistic record stream: one full base plus incremental rounds.
fn build_records(rounds: usize) -> Vec<CheckpointRecord> {
    let mut world = SynthWorld::build(SynthConfig {
        structures: 400,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 2,
        seed: 41,
    })
    .expect("world builds");
    let roots = world.roots().to_vec();
    let table = MethodTable::derive(world.heap().registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut records = Vec::new();
    world.heap_mut().mark_all_modified();
    for round in 0..rounds {
        if round > 0 {
            world.apply_modifications(&ModificationSpec::uniform(20));
        }
        records.push(ckp.checkpoint(world.heap_mut(), &table, &roots).expect("checkpoint"));
    }
    records
}

/// One full checkpoint of 1 000 structures (26 000 objects) and the
/// byte range of each object record in it: the dedup chunks of a
/// replicated base commit.
fn full_frame() -> (Vec<u8>, Vec<Range<usize>>) {
    let mut world =
        SynthWorld::build(SynthConfig { structures: 1_000, ..SynthConfig::paper(5, 10) })
            .expect("world builds");
    let roots = world.roots().to_vec();
    let table = MethodTable::derive(world.heap().registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::full());
    let record = ckp.checkpoint(world.heap_mut(), &table, &roots).expect("checkpoint");
    let layout = object_slices(record.bytes(), world.heap().registry()).expect("layout");
    (record.bytes().to_vec(), layout.objects)
}

/// Times `ChunkIndex` part encoding of `frame` against `index`, each
/// iteration with a fresh batch staging (dropped outside the timing).
fn time_encode(
    index: &ChunkIndex,
    (payload, ranges): &(Vec<u8>, Vec<Range<usize>>),
    iters: u64,
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let mut staging = Staging::new();
        let start = Instant::now();
        let encoded = index.encode_batched(payload, ranges, &mut staging);
        total += start.elapsed();
        std::hint::black_box((encoded, staging));
    }
    total
}

/// Re-sequences `records` so iteration `i` of a timing loop can append
/// the same payloads with contiguous sequence numbers.
fn reseq(records: &[CheckpointRecord], base: u64) -> Vec<CheckpointRecord> {
    records
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, r)| {
            let (_, kind, roots, bytes, stats) = r.into_parts();
            CheckpointRecord::from_parts(base + i as u64, kind, roots, bytes, stats)
        })
        .collect()
}

fn main() {
    let records = build_records(16);
    let payload: usize = records.iter().map(CheckpointRecord::len_bytes).sum();
    println!("durable_write: {} records, {} payload bytes per iteration", records.len(), payload);

    let mut group = BenchGroup::new("durable_write");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    group.bench_custom("memory/store-push", |iters| {
        let mut total = Duration::ZERO;
        for i in 0..iters {
            let batch = reseq(&records, 0);
            let mut store = CheckpointStore::new();
            let start = Instant::now();
            for r in batch {
                store.push(r).expect("push");
            }
            total += start.elapsed();
            let _ = i;
        }
        total
    });

    for (label, target) in [("64k", 64 * 1024u64), ("4m", 4 * 1024 * 1024)] {
        group.bench_custom(&format!("memfs/seg-{label}"), |iters| {
            let config = DurableConfig { segment_target_bytes: target };
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let batch = reseq(&records, 0);
                let mut fs = MemFs::new();
                let mut store = DurableStore::create(&mut fs, config).expect("create");
                let start = Instant::now();
                for r in &batch {
                    store.append(r).expect("append");
                }
                total += start.elapsed();
            }
            total
        });
    }

    let dir = std::env::temp_dir().join(format!("ickp-durable-bench-{}", std::process::id()));
    for (label, target) in [("64k", 64 * 1024u64), ("4m", 4 * 1024 * 1024)] {
        group.bench_custom(&format!("stdfs/seg-{label}"), |iters| {
            let config = DurableConfig { segment_target_bytes: target };
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let batch = reseq(&records, 0);
                let sub = dir.join(format!("{label}-{i}"));
                let fs = StdFs::new(&sub).expect("temp dir");
                let mut store = DurableStore::create(fs, config).expect("create");
                let start = Instant::now();
                for r in &batch {
                    store.append(r).expect("append");
                }
                total += start.elapsed();
                let _ = std::fs::remove_dir_all(&sub);
            }
            total
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut rng = ickp_prng::Prng::seed_from_u64(7);
    let mib: Vec<u8> = (0..1 << 20).map(|_| rng.next_u32() as u8).collect();
    if let Some(result) = group.bench("crc32/1mib", || crc32(std::hint::black_box(&mib))) {
        let mb_per_s = mib.len() as f64 / 1e6 / result.median.as_secs_f64();
        println!("{:<44} {mb_per_s:>12.0} MB/s", "durable_write/crc32/1mib");
    }

    let frame = full_frame();
    println!("dedup frame: {} chunks in {} payload bytes", frame.1.len(), frame.0.len());
    let empty = ChunkIndex::new();
    group.bench_custom("dedup/encode-26k-new", |iters| time_encode(&empty, &frame, iters));
    let mut full = ChunkIndex::new();
    let mut staging = Staging::new();
    full.encode_batched(&frame.0, &frame.1, &mut staging);
    full.commit(staging);
    group.bench_custom("dedup/encode-26k-dup", |iters| time_encode(&full, &frame, iters));

    group.finish();
}
