//! Randomized byte-identity of the dirty-set journal fast path.
//!
//! Three mirrored heaps receive the *same* operation script — field
//! writes, reference rewires, explicit `set_modified` calls,
//! `mark_all_modified` storms, fresh allocations (reachable and garbage),
//! and GC cycles — and are checkpointed each round by three drivers:
//!
//! * a journal-enabled [`Checkpointer`] (the fast path under test),
//! * a `without_journal` reference traversal (the slow path), and
//! * `checkpoint_parallel` on a journal-enabled driver.
//!
//! Every round the three streams must be byte-identical: the journal is a
//! membership filter over the cached pre-order, never a different format.
//! Each case is fully determined by its seed, named in every assertion.

use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
use ickp_heap::{ClassId, ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_prng::Prng;

const MIRRORS: usize = 3;

fn registry() -> (ClassRegistry, ClassId) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[
                ("v", FieldType::Int),
                ("left", FieldType::Ref(None)),
                ("right", FieldType::Ref(None)),
            ],
        )
        .unwrap();
    (reg, node)
}

/// The shared mutable world: `MIRRORS` heaps kept structurally identical
/// by replaying every operation on each. Because allocation order is
/// identical, `ObjectId`s coincide across mirrors and one id list serves
/// all heaps.
struct World {
    heaps: Vec<Heap>,
    node: ClassId,
    roots: Vec<ObjectId>,
    objects: Vec<ObjectId>,
}

impl World {
    fn seed(rng: &mut Prng, nroots: usize, extra: usize) -> World {
        let (reg, node) = registry();
        let heaps: Vec<Heap> = (0..MIRRORS).map(|_| Heap::new(reg.clone())).collect();
        let mut world = World { heaps, node, roots: Vec::new(), objects: Vec::new() };
        for _ in 0..nroots {
            let id = world.alloc();
            world.roots.push(id);
        }
        for _ in 0..extra {
            let id = world.alloc();
            world.attach(rng, id);
        }
        world
    }

    /// Allocates one node on every mirror, returning the (shared) id.
    fn alloc(&mut self) -> ObjectId {
        let ids: Vec<ObjectId> =
            self.heaps.iter_mut().map(|h| h.alloc(self.node).unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "mirrored allocation diverged");
        self.objects.push(ids[0]);
        ids[0]
    }

    /// Points a random ref slot of a random existing object at `target`.
    fn attach(&mut self, rng: &mut Prng, target: ObjectId) {
        let src = *rng.choose(&self.objects);
        let slot = 1 + rng.index(2);
        for h in &mut self.heaps {
            h.set_field(src, slot, Value::Ref(Some(target))).unwrap();
        }
    }

    /// Applies one random mutation to every mirror.
    fn step(&mut self, rng: &mut Prng) {
        match rng.below(100) {
            // Plain data writes dominate, as in any real mutator: they
            // dirty objects without invalidating the traversal cache.
            0..=59 => {
                let id = *rng.choose(&self.objects);
                let v = rng.next_i32();
                for h in &mut self.heaps {
                    h.set_field(id, 0, Value::Int(v)).unwrap();
                }
            }
            // Reference rewires change the graph shape (and may strand
            // subtrees for the next GC).
            60..=74 => {
                let src = *rng.choose(&self.objects);
                let slot = 1 + rng.index(2);
                let target = if rng.ratio(1, 4) { None } else { Some(*rng.choose(&self.objects)) };
                for h in &mut self.heaps {
                    h.set_field(src, slot, Value::Ref(target)).unwrap();
                }
            }
            // Fresh allocations: half wired into the graph, half left as
            // garbage for the collector.
            75..=84 => {
                let id = self.alloc();
                if rng.next_bool() {
                    self.attach(rng, id);
                }
            }
            // Out-of-band dirtying (native code, debugger pokes).
            85..=92 => {
                let id = *rng.choose(&self.objects);
                for h in &mut self.heaps {
                    h.set_modified(id).unwrap();
                }
            }
            // Conservative "everything is dirty" storms.
            93..=95 => {
                for h in &mut self.heaps {
                    h.mark_all_modified();
                }
            }
            // Garbage collection; prune dead ids from the shared list.
            _ => {
                let roots = self.roots.clone();
                for h in &mut self.heaps {
                    h.collect(&roots).unwrap();
                }
                let live = &self.heaps[0];
                self.objects.retain(|&id| live.contains(id));
            }
        }
    }
}

#[test]
fn journal_fast_path_streams_are_byte_identical_to_traversal() {
    let mut fast_rounds = 0u32;
    for case in 0..12u64 {
        let mut rng = Prng::seed_from_u64(0x10a2_2a01 + case);
        let nroots = 2 + rng.index(4);
        let extra = 8 + rng.index(24);
        let mut world = World::seed(&mut rng, nroots, extra);
        let table = MethodTable::derive(world.heaps[0].registry());

        let mut fast = Checkpointer::new(CheckpointConfig::incremental());
        let mut slow = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        let mut par = Checkpointer::new(CheckpointConfig::incremental());

        for round in 0..24 {
            for _ in 0..rng.index(9) {
                world.step(&mut rng);
            }
            let roots = world.roots.clone();
            let a = fast.checkpoint(&mut world.heaps[0], &table, &roots).unwrap();
            let b = slow.checkpoint(&mut world.heaps[1], &table, &roots).unwrap();
            let c = par
                .checkpoint_parallel(&mut world.heaps[2], &table, &roots, 1 + round % 4)
                .unwrap();
            assert_eq!(a.bytes(), b.bytes(), "case {case} round {round}: fast vs slow");
            assert_eq!(c.bytes(), b.bytes(), "case {case} round {round}: parallel vs slow");
            assert_eq!(
                a.stats().objects_recorded,
                b.stats().objects_recorded,
                "case {case} round {round}"
            );
            if a.stats().journal_hits > 0 {
                fast_rounds += 1;
            }
        }
    }
    // The schedule must actually exercise the fast path, not merely fall
    // back to traversal every round.
    assert!(fast_rounds > 20, "only {fast_rounds} journal-served rounds across all cases");
}

/// The journal protocol survives the checkpoint lifecycle's two pointer
/// moves: [`Checkpointer::rollback`] onto a heap restored from a store
/// prefix (which must drop the now-stale traversal cache), and `compact`
/// (which rewrites the store under the producer). After each move the
/// journal fast path must keep producing streams byte-identical to a
/// slow-path reference on a mirrored heap, and every intermediate store
/// must restore to exactly the live state.
#[test]
fn journal_integrity_survives_rollback_and_compaction() {
    use ickp_core::{compact, restore, verify_restore, CheckpointStore, RestorePolicy};

    let mut journal_hits = 0u64;
    for case in 0..6u64 {
        let mut rng = Prng::seed_from_u64(0x0011_ba5e + case);
        let (nroots, extra) = (2 + rng.index(3), 10 + rng.index(16));
        let mut world = World::seed(&mut rng, nroots, extra);
        let node = world.node;
        let table = MethodTable::derive(world.heaps[0].registry());
        let mut fast = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        let roots = world.roots.clone();

        // Live rounds accumulating a base-plus-increments store.
        for _ in 0..6 {
            for _ in 0..1 + rng.index(6) {
                world.step(&mut rng);
            }
            store.push(fast.checkpoint(&mut world.heaps[0], &table, &roots).unwrap()).unwrap();
        }

        // "Crash": only a random prefix of the store survives. Restore
        // from it and resume mutating the restored heap, with the *same*
        // checkpointer rolled back — its cached traversal order belongs
        // to the old heap and must not leak into the new one. A clone of
        // the restored heap driven by a journal-free driver is the
        // byte-identity reference from here on.
        let keep = 1 + rng.index(store.len());
        let mut prefix = CheckpointStore::new();
        for rec in store.records().iter().take(keep) {
            prefix.push(rec.clone()).unwrap();
        }
        let rebuilt = restore(&prefix, world.heaps[0].registry(), RestorePolicy::Lenient).unwrap();
        let roots2 = rebuilt.roots().to_vec();
        let mut live = rebuilt.into_heap();
        let mut mirror = live.clone();
        fast.rollback(prefix.latest().unwrap().seq() + 1);
        let mut slow = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        slow.set_next_seq(prefix.latest().unwrap().seq() + 1);

        let mut objects: Vec<ObjectId> = live.iter_live().collect();
        let mutate =
            |live: &mut Heap, mirror: &mut Heap, objects: &mut Vec<ObjectId>, rng: &mut Prng| {
                match rng.below(100) {
                    0..=64 => {
                        let id = *rng.choose(objects);
                        let v = rng.next_i32();
                        for h in [&mut *live, &mut *mirror] {
                            h.set_field(id, 0, Value::Int(v)).unwrap();
                        }
                    }
                    65..=79 => {
                        let src = *rng.choose(objects);
                        let slot = 1 + rng.index(2);
                        let target =
                            if rng.ratio(1, 4) { None } else { Some(*rng.choose(objects)) };
                        for h in [&mut *live, &mut *mirror] {
                            h.set_field(src, slot, Value::Ref(target)).unwrap();
                        }
                    }
                    80..=89 => {
                        let id = *rng.choose(objects);
                        for h in [&mut *live, &mut *mirror] {
                            h.set_modified(id).unwrap();
                        }
                    }
                    _ => {
                        let a = live.alloc(node).unwrap();
                        let b = mirror.alloc(node).unwrap();
                        assert_eq!(a, b, "mirrored allocation diverged after restore");
                        let src = *rng.choose(objects);
                        let slot = 1 + rng.index(2);
                        for h in [&mut *live, &mut *mirror] {
                            h.set_field(src, slot, Value::Ref(Some(a))).unwrap();
                        }
                        objects.push(a);
                    }
                }
            };

        for round in 0..8 {
            for _ in 0..rng.index(5) {
                mutate(&mut live, &mut mirror, &mut objects, &mut rng);
            }
            let a = fast.checkpoint(&mut live, &table, &roots2).unwrap();
            let b = slow.checkpoint(&mut mirror, &table, &roots2).unwrap();
            assert_eq!(
                a.bytes(),
                b.bytes(),
                "case {case} round {round}: post-rollback fast vs slow"
            );
            journal_hits += a.stats().journal_hits;
            prefix.push(a).unwrap();
        }
        let recheck = restore(&prefix, live.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(
            verify_restore(&live, &roots2, &recheck).unwrap(),
            None,
            "case {case}: store diverged from live state after rollback"
        );

        // Compaction: squash the whole history into one full base, then
        // keep appending fast-path increments on top of it.
        // Compaction keeps every object `live` still allocates, so the
        // script may go on re-linking detached objects afterwards.
        let mut compacted = compact(&prefix, &live).unwrap();
        let base = restore(&compacted, live.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(
            verify_restore(&live, &roots2, &base).unwrap(),
            None,
            "case {case}: compaction changed the restored state"
        );
        for round in 0..4 {
            for _ in 0..1 + rng.index(4) {
                mutate(&mut live, &mut mirror, &mut objects, &mut rng);
            }
            let a = fast.checkpoint(&mut live, &table, &roots2).unwrap();
            let b = slow.checkpoint(&mut mirror, &table, &roots2).unwrap();
            assert_eq!(
                a.bytes(),
                b.bytes(),
                "case {case} round {round}: post-compact fast vs slow"
            );
            journal_hits += a.stats().journal_hits;
            compacted.push(a).unwrap();
        }
        let end = restore(&compacted, live.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(
            verify_restore(&live, &roots2, &end).unwrap(),
            None,
            "case {case}: compacted store diverged from live state"
        );
    }
    // The schedule must actually exercise the journal fast path after the
    // rollbacks and compactions, not merely fall back to traversal.
    assert!(journal_hits > 0, "no journal-served records across all cases");
}

/// The journal survives epochs where *nothing* was modified: the fast
/// path emits a bare header+footer stream identical to what a full
/// traversal of an all-clean heap produces.
#[test]
fn clean_rounds_produce_identical_empty_streams() {
    let mut rng = Prng::seed_from_u64(0x10a2_2a99);
    let mut world = World::seed(&mut rng, 3, 12);
    let table = MethodTable::derive(world.heaps[0].registry());
    let mut fast = Checkpointer::new(CheckpointConfig::incremental());
    let mut slow = Checkpointer::new(CheckpointConfig::incremental().without_journal());
    let roots = world.roots.clone();

    // Round 0 clears allocation dirt and primes the cache.
    fast.checkpoint(&mut world.heaps[0], &table, &roots).unwrap();
    slow.checkpoint(&mut world.heaps[1], &table, &roots).unwrap();
    for round in 0..3 {
        let a = fast.checkpoint(&mut world.heaps[0], &table, &roots).unwrap();
        let b = slow.checkpoint(&mut world.heaps[1], &table, &roots).unwrap();
        assert_eq!(a.bytes(), b.bytes(), "round {round}");
        assert_eq!(a.stats().objects_recorded, 0, "round {round}");
        assert_eq!(a.stats().refs_followed, 0, "journal path chases no refs");
    }
}
