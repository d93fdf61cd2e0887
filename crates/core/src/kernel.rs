//! The traversal kernel: the one generic checkpoint walk.
//!
//! The paper derives every specialized checkpointer from one generic
//! program (Figures 1, 5 and 6). [`WalkScratch::walk`] is that program,
//! written once: the sequential and sharded checkpoints, `traverse_only`,
//! the engine backends and the specializer's generic fallbacks all call
//! it, with their own roots, ownership filter, [`Emit`] mode and
//! [`Dispatch`].
//!
//! The walk only *reads* the heap. It returns the objects it recorded
//! ([`WalkScratch::recorded`]) instead of resetting their modified flags,
//! so the caller resets them only once every walk of a checkpoint has
//! succeeded: a checkpoint that fails part-way loses no dirty flags.

use crate::error::CoreError;
use crate::methods::MethodTable;
use crate::stats::TraversalStats;
use crate::stream::{CheckpointKind, StreamWriter};
use ickp_heap::{ClassId, Heap, ObjectId};

/// How a walk reaches an object's `record` and `fold` methods: the
/// virtual-call mechanism, as a parameter of the kernel.
///
/// Every call site first resolves the receiver's class through
/// [`Dispatch::resolve`] — at whatever cost the dispatch regime charges —
/// and then calls the resolved class's boxed closure in
/// [`Dispatch::methods`].
pub trait Dispatch {
    /// The method table the resolved classes index.
    fn methods(&self) -> &MethodTable;

    /// Resolves the class whose method is about to be called.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClassIndex`] for a class the dispatch
    /// regime does not know.
    fn resolve(&mut self, class: ClassId) -> Result<ClassId, CoreError>;
}

/// Direct dispatch: the receiver's class indexes the method table as-is.
#[derive(Debug, Clone, Copy)]
pub struct Direct<'a>(pub &'a MethodTable);

impl Dispatch for Direct<'_> {
    fn methods(&self) -> &MethodTable {
        self.0
    }

    #[inline]
    fn resolve(&mut self, class: ClassId) -> Result<ClassId, CoreError> {
        Ok(class)
    }
}

/// What a walk emits at each object it owns.
#[derive(Debug)]
pub enum Emit<'w> {
    /// Record objects into the writer: every owned object for
    /// [`CheckpointKind::Full`], the modified ones for
    /// [`CheckpointKind::Incremental`].
    Records(CheckpointKind, &'w mut StreamWriter),
    /// Test every owned object's modified flag and record nothing.
    FlagTestsOnly,
}

/// The reusable state of the kernel: its stack, its visited table and
/// what the last walk recorded.
///
/// Keeping one scratch across walks makes a walk cost O(visited), not
/// O(arena): the visited table is stamped with a per-walk epoch, so
/// starting a walk clears it in O(1) (one full wipe every 255 walks),
/// and it grows only to the highest arena slot a walk has reached.
///
/// Aligned to two cache lines: the shard workers of a parallel checkpoint
/// each write their own scratch in one `Vec`, and scratches sharing a
/// line slowed the shard walks by half.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WalkScratch {
    stack: Vec<ObjectId>,
    /// Arena-slot-indexed stamps: a slot was visited by the current walk
    /// iff its stamp equals `epoch`. One byte a slot keeps the table of a
    /// paper-scale heap in cache.
    marks: Vec<u8>,
    epoch: u8,
    recorded: Vec<ObjectId>,
    order: Vec<ObjectId>,
}

impl WalkScratch {
    /// Walks everything reachable from `roots` that `owns` accepts, in
    /// depth-first pre-order, and returns the walk's counters
    /// (`bytes_written` is left to the caller, which owns the stream).
    ///
    /// At each owned object, first reached, the walk tests its modified
    /// flag (unless `emit` records a full checkpoint), records it if
    /// `emit` says so, and folds over its children. An object `owns`
    /// rejects is pruned together with everything reached only through
    /// it. With `collect_order`, the visit order is kept in
    /// [`WalkScratch::order`].
    ///
    /// No modified flag is reset: the recorded objects are left in
    /// [`WalkScratch::recorded`] for [`WalkScratch::reset_recorded`].
    ///
    /// # Errors
    ///
    /// Propagates heap errors (e.g. dangling references) and dispatch or
    /// method-table errors. The scratch stays reusable after an error.
    pub fn walk<D: Dispatch>(
        &mut self,
        heap: &Heap,
        dispatch: &mut D,
        roots: &[ObjectId],
        mut emit: Emit<'_>,
        owns: impl Fn(ObjectId) -> bool,
        collect_order: bool,
    ) -> Result<TraversalStats, CoreError> {
        let epoch = self.next_epoch();
        let mut stats = TraversalStats::default();
        self.stack.clear();
        self.recorded.clear();
        self.order.clear();
        self.stack.extend(roots.iter().rev());
        while let Some(id) = self.stack.pop() {
            if !owns(id) {
                continue;
            }
            // Resolving the class first also rejects a stale handle before
            // its slot index is trusted.
            let class = heap.class_of(id)?;
            let slot = id.index();
            if slot >= self.marks.len() {
                self.marks.resize(slot + 1, 0);
            }
            if std::mem::replace(&mut self.marks[slot], epoch) == epoch {
                continue;
            }
            stats.objects_visited += 1;
            if collect_order {
                self.order.push(id);
            }

            let writer = match &mut emit {
                Emit::Records(CheckpointKind::Full, writer) => Some(writer),
                Emit::Records(CheckpointKind::Incremental, writer) => {
                    stats.flag_tests += 1;
                    heap.is_modified(id)?.then_some(writer)
                }
                Emit::FlagTestsOnly => {
                    stats.flag_tests += 1;
                    // The flag read itself is the measured work.
                    heap.is_modified(id)?;
                    None
                }
            };
            if let Some(writer) = writer {
                record(heap, dispatch, id, class, writer, &mut stats)?;
                self.recorded.push(id);
            }

            // Virtual call: o.fold(c)
            let resolved = dispatch.resolve(class)?;
            stats.virtual_calls += 1;
            let before = self.stack.len();
            let stack = &mut self.stack;
            dispatch.methods().fold(resolved)?(heap, id, &mut |child| {
                stack.push(child);
                Ok(())
            })?;
            stats.refs_followed += (self.stack.len() - before) as u64;
            // Preserve field order for the children just pushed.
            self.stack[before..].reverse();
        }
        Ok(stats)
    }

    /// The objects the last walk recorded, in record order.
    pub fn recorded(&self) -> &[ObjectId] {
        &self.recorded
    }

    /// The objects the last walk visited, in visit order, if it was asked
    /// to collect them (empty otherwise).
    pub fn order(&self) -> &[ObjectId] {
        &self.order
    }

    /// Resets the modified flag of every object the last walk recorded.
    ///
    /// # Errors
    ///
    /// Propagates heap errors for handles that went stale since the walk.
    pub fn reset_recorded(&self, heap: &mut Heap) -> Result<(), CoreError> {
        for &id in &self.recorded {
            heap.reset_modified(id)?;
        }
        Ok(())
    }

    fn next_epoch(&mut self) -> u8 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 255 walks ago would alias the new epoch.
            self.marks.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Records one object: resolves its class through `dispatch`, opens the
/// record, and makes the virtual `record` call. Shared by the walk and the
/// journal fast path.
pub(crate) fn record<D: Dispatch>(
    heap: &Heap,
    dispatch: &mut D,
    id: ObjectId,
    class: ClassId,
    writer: &mut StreamWriter,
    stats: &mut TraversalStats,
) -> Result<(), CoreError> {
    let resolved = dispatch.resolve(class)?;
    writer.begin_object(heap.stable_id(id)?, resolved, heap.class(resolved)?.num_slots());
    // Virtual call: o.record(d)
    stats.virtual_calls += 1;
    dispatch.methods().record(resolved)?(heap, id, writer)?;
    stats.objects_recorded += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_heap::{ClassRegistry, FieldType, Value};

    /// `a -> shared <- b`, all fresh (modified).
    fn diamond() -> (Heap, MethodTable, [ObjectId; 3]) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let table = MethodTable::derive(&reg);
        let mut heap = Heap::new(reg);
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        (heap, table, [a, b, shared])
    }

    #[test]
    fn epochs_survive_wraparound() {
        let (heap, table, [a, b, _]) = diamond();
        let mut scratch = WalkScratch::default();
        let walk = |scratch: &mut WalkScratch| {
            scratch
                .walk(&heap, &mut Direct(&table), &[a, b], Emit::FlagTestsOnly, |_| true, false)
                .unwrap()
                .objects_visited
        };
        assert_eq!(walk(&mut scratch), 3);
        scratch.epoch = u8::MAX - 1;
        for _ in 0..3 {
            assert_eq!(walk(&mut scratch), 3, "stale stamps never hide an object");
        }
        assert_eq!(scratch.epoch, 2);
    }

    #[test]
    fn a_stale_handle_to_a_reused_slot_is_rejected() {
        let (mut heap, table, [a, _, shared]) = diamond();
        heap.free(shared).unwrap();
        let reused = heap.alloc(heap.class_of(a).unwrap()).unwrap();
        assert_eq!(reused.index(), shared.index());
        // `reused` stamps the slot first; `a`'s stale edge to it still fails.
        let err = WalkScratch::default()
            .walk(&heap, &mut Direct(&table), &[reused, a], Emit::FlagTestsOnly, |_| true, false)
            .unwrap_err();
        assert_eq!(err, CoreError::Heap(ickp_heap::HeapError::DanglingObject(shared)));
    }
}
