//! Recovery split: how long does a crashed node take to come back?
//!
//! Builds a paper-scale chain (20 000 structures × 5 lists × 5 elements,
//! 10 ints each: 520 000 objects) in a `DurableStore<MemFs>` — one base
//! recorded with every object flagged plus 8 increments at 25 % dirty —
//! and times the two halves of recovery separately:
//!
//! * `recovery/open` — `DurableStore::open`: read the segments, check
//!   each frame's CRC, resolve dedup parts, validate each record with
//!   `scan` and rebuild the in-memory chain;
//! * `recovery/restore` — `restore` over the reopened chain: fold it by
//!   stable id, allocate in first-touch order, relink fields.
//!
//! MemFs makes I/O free, so these are the CPU costs of recovery.

use ickp_bench::BenchGroup;
use ickp_core::{restore, CheckpointConfig, Checkpointer, MethodTable, RestorePolicy};
use ickp_durable::{DurableConfig, DurableStore, MemFs};
use ickp_heap::ClassRegistry;
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};
use std::time::Duration;

const INCREMENTS: usize = 8;

/// The chain in a fresh MemFs, and the registry to reopen it with.
fn build_chain() -> (MemFs, ClassRegistry) {
    let mut world = SynthWorld::build(SynthConfig::paper(5, 10)).expect("world builds");
    let roots = world.roots().to_vec();
    let registry = world.heap().registry().clone();
    let table = MethodTable::derive(&registry);
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut fs = MemFs::new();
    let mut store = DurableStore::create(&mut fs, DurableConfig::default()).expect("create");
    world.heap_mut().mark_all_modified();
    for round in 0..=INCREMENTS {
        if round > 0 {
            world.apply_modifications(&ModificationSpec::uniform(25));
        }
        let record = ckp.checkpoint(world.heap_mut(), &table, &roots).expect("checkpoint");
        store.append(&record).expect("append");
    }
    drop(store);
    (fs, registry)
}

fn main() {
    let (mut fs, registry) = build_chain();
    let config = DurableConfig::default();
    let (_, chain) = DurableStore::open(&mut fs, config, &registry).expect("open");
    println!(
        "recovery: {} records, {} payload bytes, {} objects restored",
        chain.len(),
        chain.total_bytes(),
        restore(&chain, &registry, RestorePolicy::Lenient).expect("restore").len()
    );

    let mut group = BenchGroup::new("recovery");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));

    group.bench("open", || DurableStore::open(&mut fs, config, &registry).expect("open").1);
    group.bench("restore", || restore(&chain, &registry, RestorePolicy::Lenient).expect("restore"));
    group.finish();
}
