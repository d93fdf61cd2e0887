//! The journal fast path's traversal-order cache.
//!
//! An incremental checkpoint must emit records in depth-first pre-order
//! from the roots — the stream format is order-sensitive and every engine
//! must stay byte-identical. The dirty-set journal ([`Heap::journal`])
//! says *which* objects can be recorded but not in what order, so the fast
//! path keeps a [`JournalCache`]: a dense slot-indexed map from object to
//! its pre-order position, rebuilt from the visit order of every
//! slow-path traversal and valid for as long as [`Heap::structure_version`] and the
//! root set are unchanged. With it, a checkpoint is: scan the journal,
//! keep the live modified reachable entries, sort them by cached position,
//! emit — O(modified log modified), never touching clean subtrees.
//!
//! [`Heap::journal`]: ickp_heap::Heap::journal
//! [`Heap::structure_version`]: ickp_heap::Heap::structure_version

use ickp_heap::{Heap, ObjectId};

const UNREACHABLE: u32 = u32::MAX;

/// A cached depth-first pre-order over the objects reachable from a fixed
/// root set, keyed on the heap's structure version.
///
/// Built by every slow-path checkpoint (sequential and sharded alike, under
/// any dispatch) and consulted by the journal fast path.
#[derive(Debug, Clone)]
pub struct JournalCache {
    /// Length and order-sensitive FNV-1a hash of the root set the cache
    /// was built over. Storing the digest instead of the root `Vec` itself
    /// keeps [`JournalCache::is_valid`] allocation-free and makes the
    /// fast-path entry check a hash fold over the candidate roots rather
    /// than an element-wise `Vec` comparison.
    roots_len: usize,
    roots_fnv: u64,
    structure_version: u64,
    /// Arena-slot-indexed pre-order position; `UNREACHABLE` for slots the
    /// traversal never reached (or that lie beyond the cached arena).
    position: Vec<u32>,
    reachable: u64,
}

/// Order-sensitive FNV-1a over a root set's `(index, generation)` pairs.
///
/// Collisions cannot corrupt a checkpoint: a collision would only let the
/// fast path reuse a pre-order built for a *different* root sequence, and
/// the root sequence is folded in full (length + every handle), so two
/// colliding root sets differ with probability 2^-64 per validity check —
/// the same risk class the durable store's content-hash dedup accepts, but
/// here a false hit is additionally bounded by the structure-version check.
fn fnv_roots(roots: &[ObjectId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut fold = |v: u32| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for id in roots {
        fold(id.index() as u32);
        fold(id.generation());
    }
    hash
}

impl JournalCache {
    /// Builds the cache of a traversal over `heap` from `roots` that
    /// visited `order`, in visit order. Repeated objects keep their first
    /// position.
    pub fn build(
        heap: &Heap,
        roots: &[ObjectId],
        order: impl IntoIterator<Item = ObjectId>,
    ) -> JournalCache {
        let mut position = vec![UNREACHABLE; heap.arena_size()];
        let mut reachable = 0;
        for id in order {
            if let Some(slot) = position.get_mut(id.index()) {
                if *slot == UNREACHABLE {
                    *slot = reachable as u32;
                    reachable += 1;
                }
            }
        }
        JournalCache {
            roots_len: roots.len(),
            roots_fnv: fnv_roots(roots),
            structure_version: heap.structure_version(),
            position,
            reachable,
        }
    }

    /// `true` if the cached order still describes a traversal of `heap`
    /// from `roots`: same roots (checked by length + stored FNV digest),
    /// and no allocation, free, or reference store since the cache was
    /// built.
    pub fn is_valid(&self, heap: &Heap, roots: &[ObjectId]) -> bool {
        self.structure_version == heap.structure_version()
            && self.roots_len == roots.len()
            && self.roots_fnv == fnv_roots(roots)
    }

    /// The pre-order position of `id`, or `None` if the cached traversal
    /// never reached it.
    pub fn position_of(&self, id: ObjectId) -> Option<u32> {
        self.position.get(id.index()).copied().filter(|&p| p != UNREACHABLE)
    }

    /// Number of objects the cached traversal reached — what a slow-path
    /// checkpoint would visit and flag-test.
    pub fn reachable_len(&self) -> u64 {
        self.reachable
    }

    /// Scans `heap`'s journal and collects every live, still-modified,
    /// reachable entry into `out` as `(position, id)`, sorted into
    /// traversal order. Returns the number of journal entries scanned.
    /// `out` is cleared first, so callers can keep one scratch vector
    /// across checkpoints.
    pub fn collect_dirty(&self, heap: &Heap, out: &mut Vec<(u32, ObjectId)>) -> u64 {
        out.clear();
        for &id in heap.journal() {
            if !heap.is_modified(id).unwrap_or(false) {
                continue;
            }
            if let Some(pos) = self.position_of(id) {
                out.push((pos, id));
            }
        }
        // Positions are unique (one per object, one journal entry per
        // object), so unstable sorting is deterministic here.
        out.sort_unstable_by_key(|&(pos, _)| pos);
        heap.journal().len() as u64
    }
}

/// Reads the heap's write-barrier journal and returns the *dirty set* it
/// currently describes: every live, still-modified object with a journal
/// entry for the open epoch, in journal (first-dirtied) order.
///
/// This is the raw material both of the journal fast path (which re-sorts
/// it into traversal order via a `JournalCache`) and of dynamic
/// cross-validation in `ickp-audit`, which compares it against the set of
/// objects an audited plan would record. Entries whose object has since
/// been freed or reset clean are filtered out, so the result is exactly
/// the set an exhaustive flag-testing sweep of the journal would find.
pub fn journal_dirty_set(heap: &Heap) -> Vec<ObjectId> {
    heap.journal().iter().copied().filter(|&id| heap.is_modified(id).unwrap_or(false)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_heap::{ClassRegistry, FieldType, Value};

    fn heap_with_chain() -> (Heap, Vec<ObjectId>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let c = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(c))).unwrap();
        (heap, vec![a, b, c])
    }

    #[test]
    fn positions_follow_visit_order_and_validity_tracks_structure() {
        let (mut heap, ids) = heap_with_chain();
        let roots = [ids[0]];
        // Revisits must not advance the order.
        let cache = JournalCache::build(&heap, &roots, ids.iter().flat_map(|&id| [id, id]));
        assert!(cache.is_valid(&heap, &roots));
        assert!(!cache.is_valid(&heap, &[ids[1]]), "different roots");
        assert_eq!(cache.reachable_len(), 3);
        assert_eq!(cache.position_of(ids[0]), Some(0));
        assert_eq!(cache.position_of(ids[2]), Some(2));

        heap.set_field(ids[0], 0, Value::Int(1)).unwrap(); // scalar store
        assert!(cache.is_valid(&heap, &roots), "scalar stores keep the cache");
        heap.set_field(ids[2], 1, Value::Ref(None)).unwrap(); // ref store
        assert!(!cache.is_valid(&heap, &roots));
    }

    #[test]
    fn root_set_changes_still_invalidate_the_hashed_cache() {
        // Pinned: `is_valid` compares length + FNV digest instead of the
        // root Vec, and must keep rejecting every kind of root-set change.
        let (heap, ids) = heap_with_chain();
        let roots = [ids[0], ids[1]];
        let cache = JournalCache::build(&heap, &roots, ids.iter().copied());
        assert!(cache.is_valid(&heap, &roots));
        assert!(!cache.is_valid(&heap, &[ids[0]]), "shorter root set");
        assert!(!cache.is_valid(&heap, &[ids[0], ids[1], ids[2]]), "longer root set");
        assert!(!cache.is_valid(&heap, &[ids[1], ids[0]]), "reordered roots");
        assert!(!cache.is_valid(&heap, &[ids[0], ids[2]]), "same length, different root");
        assert!(cache.is_valid(&heap, &[ids[0], ids[1]]), "equal roots in a fresh slice");
    }

    #[test]
    fn collect_dirty_filters_and_sorts() {
        let (mut heap, ids) = heap_with_chain();
        let unreachable = {
            let node = heap.registry().id_of("Node").unwrap();
            heap.alloc(node).unwrap()
        };
        let cache = JournalCache::build(&heap, &[ids[0]], ids.iter().copied());

        heap.reset_all_modified();
        heap.finish_journal_epoch();
        // Dirty in anti-traversal order, plus an unreachable object.
        heap.set_field(ids[2], 0, Value::Int(1)).unwrap();
        heap.set_field(unreachable, 0, Value::Int(2)).unwrap();
        heap.set_field(ids[0], 0, Value::Int(3)).unwrap();
        heap.reset_modified(ids[0]).unwrap(); // journaled but clean again

        let mut out = Vec::new();
        let scanned = cache.collect_dirty(&heap, &mut out);
        assert_eq!(scanned, 3);
        assert_eq!(out, vec![(2, ids[2])], "clean and unreachable entries filtered");

        // The raw dirty-set read keeps the unreachable-but-dirty entry
        // (reachability is the cache's concern, not the journal's) and
        // still drops the reset-clean one.
        assert_eq!(journal_dirty_set(&heap), vec![ids[2], unreachable]);
    }
}
