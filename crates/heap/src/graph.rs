//! Object-graph traversal utilities: reachability, acyclicity checks, and
//! shard partitioning for the parallel checkpointer.
//!
//! The paper assumes checkpointed object graphs are acyclic (§2: "we assume
//! that the checkpointed objects do not contain cycles"). The checkpointers
//! in `ickp-core`/`ickp-spec` inherit that assumption; this module provides
//! [`validate_acyclic`] so callers can *check* it instead of diverging, and
//! [`reachable_from`], which the full checkpointer and the restore verifier
//! use to enumerate a compound structure.
//!
//! [`partition_roots`] is the ownership pre-pass behind
//! `ickp_core::Checkpointer::checkpoint_parallel`: it splits a root set into
//! contiguous shards and assigns every reachable object to exactly one shard
//! (its *owner*), so independent workers can traverse and record disjoint
//! slices of the graph whose concatenation reproduces the sequential
//! traversal exactly.
//!
//! The pre-pass is one first-touch pass at *root* granularity, in two
//! interchangeable forms: the sequential oracle ([`first_touch_plan`] /
//! [`partition_roots`]) and a parallel version
//! ([`first_touch_plan_parallel`] / [`partition_roots_parallel`]) that
//! computes the *same* plan with bands of roots racing on an atomic owner
//! array — see the equivalence argument on [`first_touch_plan_parallel`].
//! Chunk boundaries can be placed by root count ([`chunk_bounds`]) or by
//! per-root byte weight ([`chunk_bounds_weighted`], fed by
//! [`ShardPlan::root_weights`]); both stay contiguous, so the stream-order
//! invariant is untouched, and re-chunking a plan
//! ([`ShardPlan::with_bounds`]) needs no traversal. After a few reference
//! stores, [`ShardPlan::repaired`] re-walks only the roots that own the
//! writers the heap's structural log names.

use crate::error::HeapError;
use crate::heap::{Heap, Object, StructureEvent};
use crate::ids::ObjectId;
use crate::value::Value;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// Error produced by graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// A heap access failed (dangling reference, …).
    Heap(HeapError),
    /// A reference cycle was found through this object.
    Cycle(ObjectId),
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::Heap(e) => write!(f, "heap error during traversal: {e}"),
            ReachError::Cycle(o) => write!(f, "reference cycle through {o}"),
        }
    }
}

impl Error for ReachError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReachError::Heap(e) => Some(e),
            ReachError::Cycle(_) => None,
        }
    }
}

impl From<HeapError> for ReachError {
    fn from(e: HeapError) -> ReachError {
        ReachError::Heap(e)
    }
}

/// Enumerates every object reachable from `roots` (roots included),
/// in depth-first pre-order with duplicates removed.
///
/// Shared subobjects appear once. Cycles do not hang the traversal (a
/// visited set is kept) but are not reported either; use
/// [`validate_acyclic`] first when the acyclicity contract matters.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn reachable_from(heap: &Heap, roots: &[ObjectId]) -> Result<Vec<ObjectId>, HeapError> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut order = Vec::new();
    let mut stack: Vec<ObjectId> = roots.iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        order.push(id);
        let obj = heap.object(id)?;
        // Push children in reverse so the first field is visited first.
        for value in obj.fields().iter().rev() {
            if let Value::Ref(Some(child)) = value {
                if !seen.contains(child) {
                    stack.push(*child);
                }
            }
        }
    }
    Ok(order)
}

/// Verifies that the graph reachable from `roots` contains no reference
/// cycle.
///
/// # Errors
///
/// * [`ReachError::Cycle`] naming an object on a cycle.
/// * [`ReachError::Heap`] if a traversed reference dangles.
pub fn validate_acyclic(heap: &Heap, roots: &[ObjectId]) -> Result<(), ReachError> {
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        Gray,
        Black,
    }
    let mut color: std::collections::HashMap<ObjectId, Color> = std::collections::HashMap::new();
    enum Step {
        Enter(ObjectId),
        Exit(ObjectId),
    }
    let mut stack: Vec<Step> = roots.iter().rev().map(|&r| Step::Enter(r)).collect();
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(id) => match color.get(&id) {
                Some(Color::Gray) => return Err(ReachError::Cycle(id)),
                Some(Color::Black) => {}
                None => {
                    color.insert(id, Color::Gray);
                    stack.push(Step::Exit(id));
                    let obj = heap.object(id)?;
                    for value in obj.fields().iter().rev() {
                        if let Value::Ref(Some(child)) = value {
                            match color.get(child) {
                                Some(Color::Gray) => return Err(ReachError::Cycle(*child)),
                                Some(Color::Black) => {}
                                None => stack.push(Step::Enter(*child)),
                            }
                        }
                    }
                }
            },
            Step::Exit(id) => {
                color.insert(id, Color::Black);
            }
        }
    }
    Ok(())
}

/// A partition of a root set into disjoint ownership shards.
///
/// Produced by [`partition_roots`]. Shard `i` holds a contiguous slice of
/// the original root order, and every object reachable from the whole root
/// set is owned by exactly one shard: the shard whose roots reach it
/// *first* in the sequential depth-first traversal order. Two invariants
/// follow, and the parallel checkpointer in `ickp-core` relies on both:
///
/// 1. **Prunability** — a traversal from shard `i`'s roots can stop at any
///    object it does not own: everything reachable through a foreign object
///    is owned by an earlier shard (first-touch ownership is closed under
///    reachability).
/// 2. **Order** — concatenating the owned objects of shard `0, 1, …` in
///    each shard's local depth-first order reproduces the global
///    depth-first pre-order over all roots, object for object.
///
/// Ownership is kept at *root* granularity: each object records the
/// lowest-index root that reaches it. Because shards are contiguous ranges
/// of the root order, "the lowest root reaching `x` lies in shard `s`" and
/// "the lowest shard reaching `x` is `s`" coincide, so shard ownership is a
/// range test on the owner root and the plan also knows what each root
/// owns (object count and encoded bytes). Re-chunking a plan for another
/// worker count or balance ([`ShardPlan::with_bounds`]) therefore needs no
/// traversal, and a plan can be brought up to date after a few reference
/// stores by re-walking only the roots that own the writers
/// ([`ShardPlan::repaired`]).
///
/// # Example
///
/// ```
/// use ickp_heap::{partition_roots, ClassRegistry, FieldType, Heap};
///
/// # fn main() -> Result<(), ickp_heap::HeapError> {
/// let mut reg = ClassRegistry::new();
/// let leaf = reg.define("Leaf", None, &[("v", FieldType::Int)])?;
/// let mut heap = Heap::new(reg);
/// let roots: Vec<_> = (0..4).map(|_| heap.alloc(leaf)).collect::<Result<_, _>>()?;
///
/// let plan = partition_roots(&heap, &roots, 2)?;
/// assert_eq!(plan.num_shards(), 2);
/// assert_eq!(plan.roots(0), &roots[..2]);
/// assert_eq!(plan.roots(1), &roots[2..]);
/// assert_eq!(plan.owner_of(roots[3]), Some(1));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// All chunk roots, concatenated in shard order. Shard `i` is the
    /// range `roots[bounds[i]..bounds[i + 1]]` — ranges over one flat
    /// buffer instead of a `Vec<Vec<ObjectId>>`.
    roots: Vec<ObjectId>,
    /// Chunk boundaries into `roots`: `bounds.len() == num_shards() + 1`,
    /// `bounds[0] == 0`, non-decreasing, ending at `roots.len()`.
    bounds: Vec<usize>,
    /// Owner *root index* per arena slot ([`UNOWNED`] = unreachable).
    /// Dense slot-indexed storage (see [`Heap::arena_size`]) keeps the
    /// per-object ownership test branch-predictable and hash-free, since
    /// every parallel worker consults it on each visit.
    owner: Vec<u32>,
    /// Objects each root owns.
    counts: Vec<u32>,
    /// Encoded state bytes (record headers excluded) of the objects each
    /// root owns.
    state_bytes: Vec<u64>,
    objects: usize,
}

/// Sentinel in [`ShardPlan::owner`] for slots not reachable from the roots.
const UNOWNED: u32 = u32::MAX;

/// Marks a slot the current repair walk has reached; the slot takes the
/// walk's root index once the walk is over.
const VISITING: u32 = u32::MAX - 1;

impl ShardPlan {
    /// Number of shards: at most the requested worker count, at most the
    /// number of roots (and 0 for an empty root set).
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The roots assigned to `shard`, in original root order.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn roots(&self, shard: usize) -> &[ObjectId] {
        &self.roots[self.bounds[shard]..self.bounds[shard + 1]]
    }

    /// All chunk roots, concatenated in shard order. For a contiguous
    /// chunking this is the original root set verbatim.
    pub fn all_roots(&self) -> &[ObjectId] {
        &self.roots
    }

    /// The chunk boundaries: shard `i` holds
    /// `all_roots()[bounds()[i]..bounds()[i + 1]]`.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The owner array, indexed by arena slot: `owner_table()[id.index()]`
    /// is the index (into [`ShardPlan::all_roots`]) of the lowest root that
    /// reaches the slot's object, or `u32::MAX` for slots not reachable
    /// from the partitioned roots. Exposed so equivalence suites can assert
    /// that two planners computed the *same* ownership, slot for slot.
    pub fn owner_table(&self) -> &[u32] {
        &self.owner
    }

    /// The shard that owns `id`, or `None` if `id` was not reachable from
    /// the partitioned root set.
    pub fn owner_of(&self, id: ObjectId) -> Option<u32> {
        let root = *self.owner.get(id.index()).filter(|&&r| r != UNOWNED)? as usize;
        // The last chunk starting at or before `root`; empty chunks share
        // their start with the next one, so they are skipped.
        Some((self.bounds.partition_point(|&b| b <= root) - 1) as u32)
    }

    /// `true` if `shard` owns `id`: its owner root lies in the shard's
    /// chunk.
    pub fn owns(&self, shard: usize, id: ObjectId) -> bool {
        self.owned_by(shard)(id)
    }

    /// [`ShardPlan::owns`] for one `shard` as a closure, with the shard's
    /// root range hoisted out of the per-object test — the filter each
    /// parallel worker applies to every object it pops.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn owned_by(&self, shard: usize) -> impl Fn(ObjectId) -> bool + '_ {
        let start = self.bounds[shard] as u32;
        let len = self.bounds[shard + 1] as u32 - start;
        // One unsigned compare: roots below `start` (and the sentinels,
        // far above any root index) wrap out of range.
        move |id| self.owner.get(id.index()).is_some_and(|&root| root.wrapping_sub(start) < len)
    }

    /// Total number of owned (= reachable) objects across all shards.
    pub fn num_objects(&self) -> usize {
        self.objects
    }

    /// Owned-object count per shard — the load-balance picture.
    pub fn objects_per_shard(&self) -> Vec<usize> {
        self.bounds
            .windows(2)
            .map(|w| self.counts[w[0]..w[1]].iter().map(|&c| c as usize).sum())
            .collect()
    }

    /// Per-root estimate of the stream bytes a full checkpoint attributes
    /// to each root: every owned object counts `overhead_per_object` (the
    /// per-record header bytes) plus its class's encoded state size.
    ///
    /// For contiguous chunkings the estimate is *exact* per shard: a
    /// shard's byte footprint is the sum of its roots' weights. These
    /// weights feed [`chunk_bounds_weighted`]; the same estimate is what
    /// the shard-imbalance lint (AUD205 in `ickp-audit`) computes per
    /// shard, so balancing on it closes that feedback loop.
    pub fn root_weights(&self, overhead_per_object: u64) -> Vec<u64> {
        self.counts
            .iter()
            .zip(&self.state_bytes)
            .map(|(&count, &bytes)| u64::from(count) * overhead_per_object + bytes)
            .collect()
    }

    /// The same ownership re-chunked at `bounds` (as computed by
    /// [`chunk_bounds`] or [`chunk_bounds_weighted`] over
    /// `all_roots().len()`). No traversal: ownership is per root.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` starts at 0, never decreases, and ends at
    /// the root count.
    pub fn with_bounds(mut self, bounds: Vec<usize>) -> ShardPlan {
        assert!(
            bounds.first() == Some(&0)
                && bounds.last() == Some(&self.roots.len())
                && bounds.windows(2).all(|w| w[0] <= w[1]),
            "chunk bounds must tile the root set"
        );
        self.bounds = bounds;
        self
    }

    /// Brings a plan up to date after the shape changes `changes` (as
    /// returned by [`Heap::structure_changes_since`] for the version the
    /// plan was built at), over the same roots. Returns `None` when the
    /// changes call for a rebuild instead. Chunk bounds are kept; callers
    /// re-chunk from the new [`ShardPlan::root_weights`].
    ///
    /// The repair re-walks, in ascending order, each root that owned a
    /// logged writer. A walk prunes at objects owned by a lower root and
    /// claims every object that is unowned or owned by a higher root,
    /// moving the object's count and bytes along. Every other object keeps
    /// its owner: an unwritten path from a root is unchanged, and a
    /// written object's new edges are followed by its owner's re-walk. The
    /// result equals a fresh first-touch plan slot for slot. A rebuild is
    /// needed (`None`) when:
    ///
    /// * a re-walk reaches fewer of its own objects than the root owned —
    ///   something was detached, and its new owner is unknown;
    /// * a logged free hit an owned slot;
    /// * the re-walks visit more than `budget` objects in total.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if a re-walk reaches a freed
    /// object — as a rebuild would.
    pub fn repaired(
        mut self,
        heap: &Heap,
        changes: &[StructureEvent],
        budget: usize,
    ) -> Result<Option<ShardPlan>, HeapError> {
        self.owner.resize(heap.arena_size(), UNOWNED);
        let mut dirty = Vec::new();
        for &change in changes {
            match change {
                StructureEvent::Free(id) if self.owner[id.index()] != UNOWNED => return Ok(None),
                StructureEvent::Free(_) => {}
                StructureEvent::Store(id) => {
                    let root = self.owner[id.index()];
                    if root != UNOWNED {
                        dirty.push(root);
                    }
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        let sizes = class_sizes(heap);
        let mut stack = Vec::new();
        let mut reached: Vec<usize> = Vec::new();
        let mut spent = 0usize;
        for root in dirty {
            let r = root as usize;
            let owned_before = self.counts[r];
            let mut own = 0u32;
            stack.push(self.roots[r]);
            while let Some(id) = stack.pop() {
                let slot = id.index();
                let prev = self.owner[slot];
                if prev == VISITING || prev < root {
                    continue;
                }
                let obj = heap.object(id)?;
                if prev == root {
                    own += 1;
                } else {
                    let size = sizes[obj.class().index()];
                    if prev == UNOWNED {
                        self.objects += 1;
                    } else {
                        self.counts[prev as usize] -= 1;
                        self.state_bytes[prev as usize] -= size;
                    }
                    self.counts[r] += 1;
                    self.state_bytes[r] += size;
                }
                self.owner[slot] = VISITING;
                reached.push(slot);
                spent += 1;
                if spent > budget {
                    return Ok(None);
                }
                stack.extend(children(obj).rev());
            }
            if own < owned_before {
                return Ok(None);
            }
            for slot in reached.drain(..) {
                self.owner[slot] = root;
            }
        }
        Ok(Some(self))
    }

    /// The objects `shard` owns, in the order its worker visits (and, for
    /// a full checkpoint, records) them: depth-first from the shard's
    /// roots, pruned at every foreign object.
    ///
    /// This is the per-shard *footprint* of the parallel engine — exactly
    /// the traversal `ickp_core::Checkpointer::checkpoint_parallel`
    /// performs per worker — exposed so static analyses (the shard audit
    /// in `ickp-audit`) and tests can reason about what each worker may
    /// touch without running the engine. Concatenating the results for
    /// shard `0, 1, …` reproduces the global depth-first pre-order
    /// (invariant 2 above).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if a traversed reference
    /// points at a freed object.
    pub fn shard_preorder(&self, heap: &Heap, shard: usize) -> Result<Vec<ObjectId>, HeapError> {
        let mut order = Vec::new();
        let mut seen: HashSet<ObjectId> = HashSet::new();
        let mut stack: Vec<ObjectId> = self.roots(shard).iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if !self.owns(shard, id) || !seen.insert(id) {
                continue;
            }
            order.push(id);
            stack.extend(children(heap.object(id)?).rev());
        }
        Ok(order)
    }

    /// Recounts what each root owns from the owner table.
    fn tally(&mut self, heap: &Heap) {
        let sizes = class_sizes(heap);
        self.counts = vec![0; self.roots.len()];
        self.state_bytes = vec![0; self.roots.len()];
        self.objects = 0;
        for (slot, &root) in self.owner.iter().enumerate() {
            if root == UNOWNED {
                continue;
            }
            // Every claimed slot was read live by the walk that claimed it.
            if let Some(class) = heap.slot_class(slot) {
                self.counts[root as usize] += 1;
                self.state_bytes[root as usize] += sizes[class.index()];
                self.objects += 1;
            }
        }
    }
}

/// The children of `obj` (non-null reference slots), in field order.
fn children(obj: &Object) -> impl DoubleEndedIterator<Item = ObjectId> + '_ {
    obj.fields().iter().filter_map(|value| match value {
        Value::Ref(Some(child)) => Some(*child),
        _ => None,
    })
}

/// Encoded state size per class, indexed by class index.
fn class_sizes(heap: &Heap) -> Vec<u64> {
    heap.registry().iter().map(|class| class.encoded_state_size() as u64).collect()
}

/// Computes count-balanced contiguous chunk boundaries over a root slice of
/// length `len`: at most `shards` chunks, the first `len % shards` chunks
/// one root longer. Returns the boundary vector `bounds` with
/// `bounds.len() == chunks + 1`, `bounds[0] == 0`, strictly increasing —
/// chunk `i` is `roots[bounds[i]..bounds[i + 1]]`. An empty root slice
/// yields `[0]` (zero chunks). Contiguity (not round-robin) is what makes
/// shard-order concatenation equal the sequential traversal order, so every
/// shard assignment in this crate goes through this function or its
/// weighted sibling [`chunk_bounds_weighted`].
pub fn chunk_bounds(len: usize, shards: usize) -> Vec<usize> {
    if len == 0 {
        return vec![0];
    }
    let shards = shards.max(1).min(len);
    let base = len / shards;
    let extra = len % shards;
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0);
    let mut next = 0usize;
    for i in 0..shards {
        next += base + usize::from(i < extra);
        bounds.push(next);
    }
    bounds
}

/// Computes **byte-weighted** contiguous chunk boundaries: `weights[i]` is
/// the estimated stream contribution of root `i` (see
/// [`ShardPlan::root_weights`]), and boundary `j` is placed at the smallest
/// index whose weight prefix sum reaches `j/k` of the total — clamped so
/// every chunk keeps at least one root. Same return convention as
/// [`chunk_bounds`].
///
/// Chunks stay contiguous, so the sequential-order concatenation invariant
/// (and therefore byte-identity of the merged parallel stream) is
/// unaffected; only the *placement* of the cut points changes. With uniform
/// weights this degenerates to exactly [`chunk_bounds`].
pub fn chunk_bounds_weighted(weights: &[u64], shards: usize) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return vec![0];
    }
    let k = shards.max(1).min(n);
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0);
    let mut prefix: u128 = 0;
    let mut i = 0usize;
    for j in 1..k {
        // Smallest i with prefix(i) >= j * total / k (exact rational
        // comparison), kept inside [prev + 1, n - (k - j)] so all k chunks
        // stay non-empty.
        let min_i = bounds[j - 1] + 1;
        let max_i = n - (k - j);
        while i < max_i && (i < min_i || prefix * (k as u128) < total * (j as u128)) {
            prefix += weights[i] as u128;
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(n);
    bounds
}

/// Splits `roots` into at most `shards` contiguous, count-balanced chunks
/// (see [`chunk_bounds`]), materialized as owned vectors. The engine's hot
/// path works on boundary ranges instead; this shape survives for callers
/// that build or scramble chunkings by hand (the shard audit, tests).
pub fn chunk_roots(roots: &[ObjectId], shards: usize) -> Vec<Vec<ObjectId>> {
    chunk_bounds(roots.len(), shards).windows(2).map(|w| roots[w[0]..w[1]].to_vec()).collect()
}

/// Splits `roots` into at most `shards` contiguous chunks whose boundaries
/// are placed by the per-root byte estimates `weights` (see
/// [`chunk_bounds_weighted`]), materialized as owned vectors.
///
/// # Panics
///
/// Panics if `weights.len() != roots.len()`.
pub fn chunk_roots_weighted(
    roots: &[ObjectId],
    weights: &[u64],
    shards: usize,
) -> Vec<Vec<ObjectId>> {
    assert_eq!(weights.len(), roots.len(), "one weight per root");
    chunk_bounds_weighted(weights, shards).windows(2).map(|w| roots[w[0]..w[1]].to_vec()).collect()
}

/// Flattens a hand-built chunking into the internal (roots, bounds)
/// representation. Empty chunks are kept (as empty ranges), matching the
/// historical acceptance of arbitrary chunk vectors.
fn flatten_chunks(chunks: Vec<Vec<ObjectId>>) -> (Vec<ObjectId>, Vec<usize>) {
    let mut roots = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    let mut bounds = Vec::with_capacity(chunks.len() + 1);
    bounds.push(0);
    for chunk in chunks {
        roots.extend_from_slice(&chunk);
        bounds.push(roots.len());
    }
    (roots, bounds)
}

/// Assigns every object reachable from `chunks` to its **first-touch
/// owner**: the lowest-index chunk whose depth-first traversal reaches it
/// first. This is the sequential ownership oracle behind
/// [`partition_roots`], exposed separately so callers with a non-contiguous
/// or hand-built chunking (tests, the shard audit) can compute the same
/// deterministic prediction the parallel engine relies on. (The chunks are
/// flattened in order, so each chunk is a contiguous range of the plan's
/// root list, and root-granularity ownership applies unchanged.)
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points
/// at a freed object.
pub fn first_touch_plan(heap: &Heap, chunks: Vec<Vec<ObjectId>>) -> Result<ShardPlan, HeapError> {
    let (roots, bounds) = flatten_chunks(chunks);
    first_touch(heap, roots, bounds, 1)
}

/// Computes the same [`ShardPlan`] as [`first_touch_plan`] — same owner
/// array, slot for slot — with the roots split into one band per chunk and
/// the bands traversed in parallel, racing on an atomic owner array with
/// `fetch_min`.
///
/// **Equivalence argument.** Sequential first-touch ownership equals
/// "lowest-index root that can reach the object": root *i*'s sequential
/// traversal only skips nodes already owned by roots `< i`, and first-touch
/// ownership is closed under reachability, so everything behind a skipped
/// node is also owned by an earlier root. That reformulation is
/// order-free, so each root can be traversed independently and claim nodes
/// with an atomic minimum: a walk for root *i* expands a node only when
/// `fetch_min(i)` observed a previous owner `> i`, and prunes when the
/// previous owner is `<= i` (either root *i* itself already expanded it,
/// or a lower root reaches it — and, along any path from root *i* to a
/// node whose minimum reaching root is *i*, every intermediate node *also*
/// has minimum *i*, so the pruning never cuts root *i* off from a node it
/// must own). `Relaxed` ordering suffices: a stale high read only causes a
/// redundant push, never a wrong final value, and the spawning scope's
/// join synchronizes the final reads.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object. Which worker trips the error first is
/// schedule-dependent; the error reported is the one from the
/// lowest-indexed failing band.
pub fn first_touch_plan_parallel(
    heap: &Heap,
    chunks: Vec<Vec<ObjectId>>,
) -> Result<ShardPlan, HeapError> {
    let threads = chunks.len();
    let (roots, bounds) = flatten_chunks(chunks);
    first_touch(heap, roots, bounds, threads)
}

/// Splits `roots` into at most `shards` contiguous chunks and assigns every
/// reachable object to its first-touch owner shard.
///
/// The pre-pass is one sequential depth-first traversal (the same order as
/// [`reachable_from`]); an object shared between shards is owned by the
/// lowest-index shard that reaches it, which keeps ownership deterministic
/// and independent of any later parallel execution schedule. A `shards`
/// value of 0 is treated as 1 and the chunk count never exceeds the root
/// count, so [`ShardPlan::num_shards`] may be less than `shards`.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn partition_roots(
    heap: &Heap,
    roots: &[ObjectId],
    shards: usize,
) -> Result<ShardPlan, HeapError> {
    first_touch(heap, roots.to_vec(), chunk_bounds(roots.len(), shards), 1)
}

/// [`partition_roots`] with the ownership pass run in parallel, one
/// thread per shard over its band of roots (see
/// [`first_touch_plan_parallel`] for the equivalence argument). Produces
/// the identical [`ShardPlan`].
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn partition_roots_parallel(
    heap: &Heap,
    roots: &[ObjectId],
    shards: usize,
) -> Result<ShardPlan, HeapError> {
    first_touch(heap, roots.to_vec(), chunk_bounds(roots.len(), shards), shards)
}

/// The one first-touch pass at root granularity, sequential for
/// `threads <= 1`, followed by the per-root tally.
fn first_touch(
    heap: &Heap,
    roots: Vec<ObjectId>,
    bounds: Vec<usize>,
    threads: usize,
) -> Result<ShardPlan, HeapError> {
    assert!(roots.len() < VISITING as usize, "root indices must fit below the sentinels");
    let bands = threads.min(roots.len());
    let owner = if bands <= 1 {
        claim_sequential(heap, &roots)?
    } else {
        claim_parallel(heap, &roots, bands)?
    };
    let mut plan =
        ShardPlan { roots, bounds, owner, counts: Vec::new(), state_bytes: Vec::new(), objects: 0 };
    plan.tally(heap);
    Ok(plan)
}

/// The sequential oracle: each root in order claims, depth-first, every
/// object no earlier root claimed.
fn claim_sequential(heap: &Heap, roots: &[ObjectId]) -> Result<Vec<u32>, HeapError> {
    let mut owner: Vec<u32> = vec![UNOWNED; heap.arena_size()];
    let mut stack: Vec<ObjectId> = Vec::new();
    for (index, &root) in roots.iter().enumerate() {
        stack.push(root);
        while let Some(id) = stack.pop() {
            if owner[id.index()] != UNOWNED {
                continue;
            }
            owner[id.index()] = index as u32;
            stack.extend(children(heap.object(id)?).rev().filter(|c| owner[c.index()] == UNOWNED));
        }
    }
    Ok(owner)
}

/// The parallel pass: `bands` scoped workers, each claiming its
/// contiguous band of roots one root at a time, all racing `fetch_min`
/// claims on a shared atomic owner array.
fn claim_parallel(heap: &Heap, roots: &[ObjectId], bands: usize) -> Result<Vec<u32>, HeapError> {
    let owner: Vec<AtomicU32> = (0..heap.arena_size()).map(|_| AtomicU32::new(UNOWNED)).collect();
    let results: Vec<Result<(), HeapError>> = std::thread::scope(|scope| {
        let owner = &owner;
        let handles: Vec<_> = chunk_bounds(roots.len(), bands)
            .windows(2)
            .map(|window| {
                let (start, end) = (window[0], window[1]);
                scope.spawn(move || {
                    let mut stack = Vec::new();
                    for (index, &root) in (start..end).zip(&roots[start..end]) {
                        claim_root(heap, owner, &mut stack, root, index as u32)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pre-pass worker panicked")).collect()
    });
    for result in results {
        result?;
    }
    Ok(owner.into_iter().map(AtomicU32::into_inner).collect())
}

/// Depth-first claim traversal for one root: claim each reached node with
/// `fetch_min(index)`, expand it only if the previous owner was higher, and
/// prune wherever a lower (or equal, i.e. already-visited) owner holds the
/// slot. See [`first_touch_plan_parallel`] for why pruning at lower-owned
/// nodes is safe.
fn claim_root(
    heap: &Heap,
    owner: &[AtomicU32],
    stack: &mut Vec<ObjectId>,
    root: ObjectId,
    index: u32,
) -> Result<(), HeapError> {
    stack.push(root);
    while let Some(id) = stack.pop() {
        if owner[id.index()].fetch_min(index, Ordering::Relaxed) <= index {
            continue;
        }
        // A stale high read only costs a redundant push; the claim above
        // re-checks before expanding.
        stack.extend(
            children(heap.object(id)?)
                .rev()
                .filter(|c| owner[c.index()].load(Ordering::Relaxed) > index),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassRegistry;
    use crate::ids::ClassId;
    use crate::value::FieldType;

    fn list_heap() -> (Heap, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[("v", FieldType::Int), ("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))],
            )
            .unwrap();
        (Heap::new(reg), node)
    }

    #[test]
    fn reachability_is_preorder_and_deduplicated() {
        let (mut heap, node) = list_heap();
        let leaf = heap.alloc(node).unwrap();
        let mid = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(mid))).unwrap();
        heap.set_field(root, 2, Value::Ref(Some(leaf))).unwrap();
        heap.set_field(mid, 1, Value::Ref(Some(leaf))).unwrap(); // shared
        let order = reachable_from(&heap, &[root]).unwrap();
        assert_eq!(order, vec![root, mid, leaf]);
    }

    #[test]
    fn multiple_roots_are_all_covered() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let order = reachable_from(&heap, &[a, b]).unwrap();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn dag_sharing_is_not_a_cycle() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(root, 2, Value::Ref(Some(shared))).unwrap();
        validate_acyclic(&heap, &[root]).unwrap();
    }

    #[test]
    fn self_loop_is_detected() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(a))).unwrap();
        assert!(matches!(validate_acyclic(&heap, &[a]), Err(ReachError::Cycle(_))));
    }

    #[test]
    fn long_cycle_is_detected() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let c = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(c))).unwrap();
        heap.set_field(c, 1, Value::Ref(Some(a))).unwrap();
        assert!(matches!(validate_acyclic(&heap, &[a]), Err(ReachError::Cycle(_))));
    }

    #[test]
    fn reachable_does_not_hang_on_cycles() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(a))).unwrap();
        assert_eq!(reachable_from(&heap, &[a]).unwrap(), vec![a]);
    }

    #[test]
    fn dangling_reference_is_reported() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(reachable_from(&heap, &[root]).is_err());
        assert!(matches!(validate_acyclic(&heap, &[root]), Err(ReachError::Heap(_))));
    }

    /// Builds `n` disjoint two-node chains and returns their heads.
    fn chains(heap: &mut Heap, node: ClassId, n: usize) -> Vec<ObjectId> {
        (0..n)
            .map(|_| {
                let tail = heap.alloc(node).unwrap();
                let head = heap.alloc(node).unwrap();
                heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
                head
            })
            .collect()
    }

    #[test]
    fn partition_covers_every_reachable_object_exactly_once() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 8);
        let plan = partition_roots(&heap, &roots, 4).unwrap();
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.num_objects(), 16);
        assert_eq!(plan.objects_per_shard(), vec![4, 4, 4, 4]);
        for id in reachable_from(&heap, &roots).unwrap() {
            assert!(plan.owner_of(id).is_some());
        }
    }

    #[test]
    fn chunks_are_contiguous_and_balanced() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 7);
        let plan = partition_roots(&heap, &roots, 3).unwrap();
        assert_eq!(plan.roots(0), &roots[0..3]);
        assert_eq!(plan.roots(1), &roots[3..5]);
        assert_eq!(plan.roots(2), &roots[5..7]);
    }

    #[test]
    fn shared_objects_go_to_the_lowest_reaching_shard() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        let plan = partition_roots(&heap, &[a, b], 2).unwrap();
        assert!(plan.owns(0, a));
        assert!(plan.owns(1, b));
        assert!(plan.owns(0, shared), "first-touch owner is the earlier shard");
        assert!(!plan.owns(1, shared));
    }

    #[test]
    fn shard_concatenation_matches_the_sequential_preorder() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let mut roots = chains(&mut heap, node, 6);
        // Cross-links: root 1 and root 4 both reach `shared`.
        heap.set_field(roots[1], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[4], 2, Value::Ref(Some(shared))).unwrap();
        // A duplicate root exercises within- and across-shard dedup.
        roots.push(roots[0]);

        let sequential = reachable_from(&heap, &roots).unwrap();
        for shards in [1, 2, 3, 4, 7] {
            let plan = partition_roots(&heap, &roots, shards).unwrap();
            let mut merged = Vec::new();
            for shard in 0..plan.num_shards() {
                // Local traversal exactly as a parallel worker performs it:
                // depth-first from the shard's roots, pruning at any object
                // the shard does not own.
                let mut stack: Vec<ObjectId> = plan.roots(shard).iter().rev().copied().collect();
                let mut seen = HashSet::new();
                while let Some(id) = stack.pop() {
                    if !plan.owns(shard, id) || !seen.insert(id) {
                        continue;
                    }
                    merged.push(id);
                    let obj = heap.object(id).unwrap();
                    for value in obj.fields().iter().rev() {
                        if let Value::Ref(Some(child)) = value {
                            stack.push(*child);
                        }
                    }
                }
            }
            assert_eq!(merged, sequential, "{shards} shards");
        }
    }

    #[test]
    fn shard_preorder_concatenation_is_the_sequential_preorder() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let roots = chains(&mut heap, node, 5);
        heap.set_field(roots[0], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[3], 2, Value::Ref(Some(shared))).unwrap();
        let sequential = reachable_from(&heap, &roots).unwrap();
        for shards in [1, 2, 3, 5] {
            let plan = partition_roots(&heap, &roots, shards).unwrap();
            let mut merged = Vec::new();
            for shard in 0..plan.num_shards() {
                let slice = plan.shard_preorder(&heap, shard).unwrap();
                assert_eq!(slice.len(), plan.objects_per_shard()[shard]);
                merged.extend(slice);
            }
            assert_eq!(merged, sequential, "{shards} shards");
        }
    }

    #[test]
    fn chunking_and_first_touch_compose_to_partition_roots() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 7);
        let chunks = chunk_roots(&roots, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.concat(), roots);
        let composed = first_touch_plan(&heap, chunks).unwrap();
        let direct = partition_roots(&heap, &roots, 3).unwrap();
        assert_eq!(composed.num_objects(), direct.num_objects());
        for id in reachable_from(&heap, &roots).unwrap() {
            assert_eq!(composed.owner_of(id), direct.owner_of(id));
        }
        // Non-contiguous hand-built chunks are accepted: first-touch is a
        // property of the chunk order, not of contiguity.
        let scrambled = first_touch_plan(&heap, vec![vec![roots[4]], vec![roots[0], roots[2]]]);
        let plan = scrambled.unwrap();
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.owner_of(roots[4]), Some(0));
        assert_eq!(plan.owner_of(roots[0]), Some(1));
        assert_eq!(plan.owner_of(roots[6]), None, "unlisted roots stay unowned");
    }

    #[test]
    fn parallel_plan_equals_the_sequential_oracle() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let mut roots = chains(&mut heap, node, 9);
        heap.set_field(roots[1], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[6], 2, Value::Ref(Some(shared))).unwrap();
        roots.push(roots[2]); // duplicate root: cross-shard dedup
        for shards in [1, 2, 3, 4, 8, 100] {
            let sequential = partition_roots(&heap, &roots, shards).unwrap();
            let parallel = partition_roots_parallel(&heap, &roots, shards).unwrap();
            assert_eq!(parallel, sequential, "{shards} shards");
            assert_eq!(parallel.owner_table(), sequential.owner_table());
        }
    }

    #[test]
    fn parallel_plan_handles_hand_built_chunks() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 6);
        let chunks =
            vec![vec![roots[4]], vec![], vec![roots[0], roots[2]], vec![roots[4], roots[1]]];
        let sequential = first_touch_plan(&heap, chunks.clone()).unwrap();
        let parallel = first_touch_plan_parallel(&heap, chunks).unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.num_shards(), 4);
        assert_eq!(parallel.roots(1), &[] as &[ObjectId]);
    }

    #[test]
    fn parallel_partition_reports_dangling_references() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(partition_roots_parallel(&heap, &[a, b], 2).is_err());
    }

    #[test]
    fn uniform_weights_reproduce_count_balanced_bounds() {
        for len in [1usize, 2, 3, 7, 8, 40] {
            for shards in [1usize, 2, 3, 4, 8] {
                let weights = vec![37u64; len];
                assert_eq!(
                    chunk_bounds_weighted(&weights, shards),
                    chunk_bounds(len, shards),
                    "{len} roots, {shards} shards"
                );
            }
        }
        assert_eq!(chunk_bounds(0, 4), vec![0]);
        assert_eq!(chunk_bounds_weighted(&[], 4), vec![0]);
    }

    #[test]
    fn weighted_bounds_cut_by_bytes_not_count() {
        // One heavy root up front: by count, 2 shards split 2+2; by weight,
        // the heavy root stands alone.
        assert_eq!(chunk_bounds_weighted(&[100, 1, 1, 1], 2), vec![0, 1, 4]);
        // Heavy tail: the light prefix groups together.
        assert_eq!(chunk_bounds_weighted(&[1, 1, 1, 100], 2), vec![0, 3, 4]);
        // Every chunk keeps at least one root even under extreme skew.
        assert_eq!(chunk_bounds_weighted(&[1000, 0, 0, 0], 4), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_partition_keeps_the_sequential_concatenation() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let roots = chains(&mut heap, node, 7);
        heap.set_field(roots[0], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[5], 2, Value::Ref(Some(shared))).unwrap();
        let sequential = reachable_from(&heap, &roots).unwrap();
        let owned = partition_roots(&heap, &roots, 1).unwrap();
        let weights = owned.root_weights(15);
        for shards in [1, 2, 3, 7] {
            let plan = owned.clone().with_bounds(chunk_bounds_weighted(&weights, shards));
            let mut merged = Vec::new();
            for shard in 0..plan.num_shards() {
                merged.extend(plan.shard_preorder(&heap, shard).unwrap());
            }
            assert_eq!(merged, sequential, "{shards} shards");
            assert_eq!(plan.all_roots(), &roots[..]);
        }
    }

    #[test]
    fn root_weights_credit_shared_subgraphs_to_the_lowest_root() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        // Node: int(4) + ref(8) + ref(8) = 20 state bytes; overhead 15.
        let per_object = 15 + 20u64;
        let weights = partition_roots_parallel(&heap, &[a, b], 2).unwrap().root_weights(15);
        assert_eq!(weights, vec![2 * per_object, per_object]);
        // Weights sum to the full-checkpoint footprint: each reachable
        // object counted exactly once.
        let reachable = reachable_from(&heap, &[a, b]).unwrap().len() as u64;
        assert_eq!(weights.iter().sum::<u64>(), reachable * per_object);
    }

    /// Repairs `plan` (built at `version`) from the heap's log, with a
    /// generous budget.
    fn repair(plan: ShardPlan, heap: &Heap, version: u64) -> Option<ShardPlan> {
        let changes = heap.structure_changes_since(version).expect("log covers the cursor");
        plan.repaired(heap, changes, usize::MAX).unwrap()
    }

    #[test]
    fn repair_follows_a_rewire_and_a_cross_root_link() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 4);
        let plan = partition_roots(&heap, &roots, 2).unwrap();
        let version = heap.structure_version();
        // Root 0 adopts root 3's tail, and a fresh node joins root 1.
        let tail3 = match heap.field(roots[3], 1).unwrap() {
            Value::Ref(Some(t)) => t,
            other => panic!("chain head without tail: {other:?}"),
        };
        heap.set_field(roots[0], 2, Value::Ref(Some(tail3))).unwrap();
        let fresh = heap.alloc(node).unwrap();
        heap.set_field(roots[1], 2, Value::Ref(Some(fresh))).unwrap();
        let repaired = repair(plan, &heap, version).expect("no detach, no owned free");
        let bounds = repaired.bounds().to_vec();
        assert_eq!(repaired, partition_roots(&heap, &roots, 2).unwrap().with_bounds(bounds));
        assert_eq!(repaired.owner_of(tail3), Some(0));
        assert_eq!(repaired.owner_of(fresh), Some(0));
    }

    #[test]
    fn repair_gives_up_on_a_detach_an_owned_free_or_an_exhausted_budget() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 3);
        let garbage = heap.alloc(node).unwrap();
        let plan = partition_roots(&heap, &roots, 3).unwrap();
        let version = heap.structure_version();

        let mut detached = heap.clone();
        detached.set_field(roots[1], 1, Value::Ref(None)).unwrap();
        assert_eq!(repair(plan.clone(), &detached, version), None, "detach");

        let mut freed = heap.clone();
        let tail = match freed.field(roots[2], 1).unwrap() {
            Value::Ref(Some(t)) => t,
            other => panic!("chain head without tail: {other:?}"),
        };
        freed.set_field(roots[2], 1, Value::Ref(None)).unwrap();
        freed.free(tail).unwrap();
        assert_eq!(repair(plan.clone(), &freed, version), None, "owned free");

        // Freeing garbage nobody owns is no reason to rebuild.
        let mut swept = heap.clone();
        swept.free(garbage).unwrap();
        assert!(repair(plan.clone(), &swept, version).is_some(), "unowned free");

        let mut grown = heap.clone();
        let fresh = grown.alloc(node).unwrap();
        grown.set_field(roots[0], 2, Value::Ref(Some(fresh))).unwrap();
        let changes = grown.structure_changes_since(version).unwrap();
        assert!(plan.clone().repaired(&grown, changes, 3).unwrap().is_some(), "3 visits fit");
        assert_eq!(plan.repaired(&grown, changes, 2).unwrap(), None, "over budget");
    }

    #[test]
    fn degenerate_shard_counts_are_clamped() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 2);
        assert_eq!(partition_roots(&heap, &roots, 0).unwrap().num_shards(), 1);
        assert_eq!(partition_roots(&heap, &roots, 9).unwrap().num_shards(), 2);
        let empty = partition_roots(&heap, &[], 4).unwrap();
        assert_eq!(empty.num_shards(), 0);
        assert_eq!(empty.num_objects(), 0);
    }

    #[test]
    fn partition_reports_dangling_references() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(partition_roots(&heap, &[root], 2).is_err());
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        let (mut heap, node) = list_heap();
        let mut head = heap.alloc(node).unwrap();
        for _ in 0..100_000 {
            let next = heap.alloc(node).unwrap();
            heap.set_field(next, 1, Value::Ref(Some(head))).unwrap();
            head = next;
        }
        assert_eq!(reachable_from(&heap, &[head]).unwrap().len(), 100_001);
        validate_acyclic(&heap, &[head]).unwrap();
    }
}
