//! The object arena: allocation, typed field access, and the write barrier.

use crate::class::{ClassDef, ClassRegistry};
use crate::error::HeapError;
use crate::ids::{ClassId, ObjectId, StableId};
use crate::value::{FieldType, Value};

/// Per-object checkpoint metadata: the paper's `CheckpointInfo`.
///
/// Every object carries a unique [`StableId`] (assigned at allocation,
/// preserved by restore) and a `modified` flag. The flag is set by the
/// heap's write barrier on every field store and reset by the incremental
/// checkpointer once the object's state has been recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    stable: StableId,
    modified: bool,
    /// Whether the object currently has an entry in the heap's dirty-set
    /// journal (see [`Heap::journal`]). Kept alongside `modified` so the
    /// clean→dirty transition can deduplicate journal appends in O(1).
    journaled: bool,
}

impl CheckpointInfo {
    /// The object's stable checkpoint identity.
    pub fn stable_id(&self) -> StableId {
        self.stable
    }

    /// Whether the object has been modified since the last reset.
    pub fn modified(&self) -> bool {
        self.modified
    }

    /// Whether the object has an entry in the heap's dirty-set journal for
    /// the current journal epoch.
    pub fn journaled(&self) -> bool {
        self.journaled
    }
}

/// A live heap object: class, checkpoint metadata, and field slots.
#[derive(Debug, Clone)]
pub struct Object {
    class: ClassId,
    info: CheckpointInfo,
    fields: Box<[Value]>,
}

impl Object {
    /// The object's class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The object's checkpoint metadata.
    pub fn info(&self) -> &CheckpointInfo {
        &self.info
    }

    /// The field slots, in layout order.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }
}

/// Cumulative heap activity counters.
///
/// `barrier_marks` counts the stores that actually flipped the modified
/// flag from clean to dirty; `field_writes` counts all stores. The gap
/// between them quantifies the redundant-flag-set cost the paper mentions
/// in §6 ("extra time on every assignment").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Number of successful barriered field stores.
    pub field_writes: u64,
    /// Number of barriered stores that transitioned clean → dirty.
    pub barrier_marks: u64,
}

/// One shape change recorded in the heap's structural log (see
/// [`Heap::structure_changes_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureEvent {
    /// A store to a reference slot of this object (barriered or not).
    Store(ObjectId),
    /// This object was freed.
    Free(ObjectId),
}

/// Entries the structural log holds before it drops its older half.
///
/// A checkpoint's epoch boundary empties the log, so it only has to hold
/// the reference stores and frees of one checkpoint interval; an interval
/// with more shape changes than this reads as "unknown" to the cursors it
/// outlived.
pub const STRUCTURE_LOG_CAPACITY: usize = 1 << 14;

/// The bounded log of shape changes behind
/// [`Heap::structure_changes_since`]: every logged event carries the
/// `structure_version` its bump produced, so a cursor reads exactly the
/// events after it.
#[derive(Debug, Clone, Default)]
struct StructureLog {
    /// The log holds every event whose version is above this one.
    since: u64,
    versions: Vec<u64>,
    events: Vec<StructureEvent>,
}

impl StructureLog {
    fn push(&mut self, version: u64, event: StructureEvent) {
        if self.events.len() == STRUCTURE_LOG_CAPACITY {
            // Drop the older half: cursors inside it turn "unknown", the
            // recent ones stay answerable.
            let half = STRUCTURE_LOG_CAPACITY / 2;
            self.since = self.versions[half - 1];
            self.versions.drain(..half);
            self.events.drain(..half);
        }
        self.versions.push(version);
        self.events.push(event);
    }

    fn trim(&mut self, version: u64) {
        self.since = version;
        self.versions.clear();
        self.events.clear();
    }

    fn since(&self, version: u64, current: u64) -> Option<&[StructureEvent]> {
        if version < self.since || version > current {
            return None;
        }
        let start = self.versions.partition_point(|&v| v <= version);
        Some(&self.events[start..])
    }
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    object: Option<Object>,
}

/// The managed object heap.
///
/// Objects are held in an arena indexed by [`ObjectId`] (slot + generation,
/// so stale handles are detected). All mutation goes through
/// [`Heap::set_field`], which implements the write barrier. See the crate
/// docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Heap {
    registry: ClassRegistry,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_stable: u64,
    live: usize,
    stats: HeapStats,
    /// The dirty-set journal: every object that transitioned clean→dirty
    /// since the last [`Heap::finish_journal_epoch`], each at most once
    /// (deduplicated by [`CheckpointInfo::journaled`]). Incremental
    /// checkpointers consume this instead of traversing the whole graph.
    journal: Vec<ObjectId>,
    /// Monotonic count of completed journal epochs.
    journal_epoch: u64,
    /// Number of live objects whose modified flag is currently set.
    ///
    /// Maintained by the write barrier at every clean↔dirty transition so
    /// [`Heap::journal_has_dirty`] is O(1) instead of an O(journal) scan.
    /// Because every modified live object is also journaled (the barrier's
    /// one-directional invariant), `live_dirty > 0` exactly when some
    /// journal entry still refers to a live, modified object.
    live_dirty: usize,
    /// Bumped by every allocation, free, and reference-slot store — i.e.
    /// whenever the object graph's *shape* may have changed. Checkpoint
    /// fast paths cache traversal orders keyed on this counter.
    structure_version: u64,
    /// Who changed the shape since the last epoch boundary: the writer of
    /// every reference-slot store and every freed object.
    structure_log: StructureLog,
}

impl Heap {
    /// Creates a heap over the given class registry.
    pub fn new(registry: ClassRegistry) -> Heap {
        Heap {
            registry,
            slots: Vec::new(),
            free: Vec::new(),
            next_stable: 1,
            live: 0,
            stats: HeapStats::default(),
            journal: Vec::new(),
            journal_epoch: 0,
            live_dirty: 0,
            structure_version: 0,
            structure_log: StructureLog::default(),
        }
    }

    /// The heap's class registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Defines a new class on this heap's registry.
    ///
    /// Delegates to [`ClassRegistry::define`]; see there for errors.
    pub fn define_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        fields: &[(&str, FieldType)],
    ) -> Result<ClassId, HeapError> {
        self.registry.define(name, superclass, fields)
    }

    /// Shorthand for `self.registry().class(id)`.
    pub fn class(&self, id: ClassId) -> Result<&ClassDef, HeapError> {
        self.registry.class(id)
    }

    /// Allocates an instance of `class` with zero-initialized fields.
    ///
    /// The new object is marked **modified** (a fresh object must appear in
    /// the next incremental checkpoint) and given a fresh stable id.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownClass`] for a foreign class id.
    pub fn alloc(&mut self, class: ClassId) -> Result<ObjectId, HeapError> {
        let layout = self.registry.class(class)?.layout();
        let fields: Vec<Value> = layout.iter().map(|f| f.ty().default_value()).collect();
        self.insert(class, fields.into_boxed_slice(), None, true)
    }

    /// Allocates an instance of `class` with the given field values
    /// (layout order).
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::alloc`], plus [`HeapError::TypeMismatch`] /
    /// [`HeapError::ClassConstraint`] / [`HeapError::SlotOutOfBounds`] if
    /// `values` does not fit the layout.
    pub fn alloc_with(&mut self, class: ClassId, values: &[Value]) -> Result<ObjectId, HeapError> {
        let num_slots = self.registry.class(class)?.num_slots();
        if values.len() != num_slots {
            return Err(HeapError::SlotOutOfBounds {
                object: ObjectId { index: u32::MAX, generation: 0 },
                slot: values.len(),
                len: num_slots,
            });
        }
        let id = self.alloc(class)?;
        for (slot, v) in values.iter().enumerate() {
            // The object is already marked modified, so going through the
            // barrier is semantically a no-op but keeps checks in one place.
            self.set_field(id, slot, *v)?;
        }
        Ok(id)
    }

    /// Allocates an object with an explicit stable id and modified flag.
    ///
    /// This is the restore path: replaying a checkpoint must materialize
    /// objects under their original identities. The internal stable-id
    /// counter is bumped past `stable` so later fresh allocations cannot
    /// collide.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownClass`] for a foreign class id.
    pub fn alloc_restored(
        &mut self,
        class: ClassId,
        stable: StableId,
        modified: bool,
    ) -> Result<ObjectId, HeapError> {
        let layout = self.registry.class(class)?.layout();
        let fields: Vec<Value> = layout.iter().map(|f| f.ty().default_value()).collect();
        self.insert(class, fields.into_boxed_slice(), Some(stable), modified)
    }

    fn insert(
        &mut self,
        class: ClassId,
        fields: Box<[Value]>,
        stable: Option<StableId>,
        modified: bool,
    ) -> Result<ObjectId, HeapError> {
        let stable = match stable {
            Some(s) => {
                self.next_stable = self.next_stable.max(s.0 + 1);
                s
            }
            None => {
                let s = StableId(self.next_stable);
                self.next_stable += 1;
                s
            }
        };
        let object = Object {
            class,
            info: CheckpointInfo { stable, modified, journaled: modified },
            fields,
        };
        let id = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.object = Some(object);
                ObjectId { index, generation: slot.generation }
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push(Slot { generation: 0, object: Some(object) });
                ObjectId { index, generation: 0 }
            }
        };
        if modified {
            self.journal.push(id);
            self.live_dirty += 1;
        }
        self.live += 1;
        self.stats.allocs += 1;
        self.structure_version = self.structure_version.wrapping_add(1);
        Ok(id)
    }

    /// Frees an object, invalidating its handle. Returns the object.
    ///
    /// Dangling references *to* the freed object are not chased; reading
    /// them later yields [`HeapError::DanglingObject`], mirroring the
    /// paper's remark that a page may mix live objects with garbage.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn free(&mut self, id: ObjectId) -> Result<Object, HeapError> {
        let slot = self
            .slots
            .get_mut(id.index())
            .filter(|s| s.generation == id.generation && s.object.is_some())
            .ok_or(HeapError::DanglingObject(id))?;
        let object = slot.object.take().expect("checked above");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        if object.info.modified {
            self.live_dirty -= 1;
        }
        self.live -= 1;
        self.stats.frees += 1;
        self.structure_version = self.structure_version.wrapping_add(1);
        self.structure_log.push(self.structure_version, StructureEvent::Free(id));
        Ok(object)
    }

    fn object_ref(&self, id: ObjectId) -> Result<&Object, HeapError> {
        self.slots
            .get(id.index())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.object.as_ref())
            .ok_or(HeapError::DanglingObject(id))
    }

    fn object_mut(&mut self, id: ObjectId) -> Result<&mut Object, HeapError> {
        self.slots
            .get_mut(id.index())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.object.as_mut())
            .ok_or(HeapError::DanglingObject(id))
    }

    /// Borrows an object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn object(&self, id: ObjectId) -> Result<&Object, HeapError> {
        self.object_ref(id)
    }

    /// `true` if the handle refers to a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.object_ref(id).is_ok()
    }

    /// The class of an object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn class_of(&self, id: ObjectId) -> Result<ClassId, HeapError> {
        Ok(self.object_ref(id)?.class)
    }

    /// The stable checkpoint identity of an object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn stable_id(&self, id: ObjectId) -> Result<StableId, HeapError> {
        Ok(self.object_ref(id)?.info.stable)
    }

    /// Reads a field slot.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] or
    /// [`HeapError::SlotOutOfBounds`].
    pub fn field(&self, id: ObjectId, slot: usize) -> Result<Value, HeapError> {
        let obj = self.object_ref(id)?;
        obj.fields.get(slot).copied().ok_or(HeapError::SlotOutOfBounds {
            object: id,
            slot,
            len: obj.fields.len(),
        })
    }

    /// Reads a field by name (slower; resolves the slot each call).
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::field`], plus [`HeapError::UnknownField`].
    pub fn field_named(&self, id: ObjectId, field: &str) -> Result<Value, HeapError> {
        let class = self.class_of(id)?;
        let slot = self.registry.class(class)?.slot_of(field)?;
        self.field(id, slot)
    }

    /// Stores a field slot through the **write barrier**: the store is
    /// type-checked and the object's modified flag is set.
    ///
    /// This is the analog of the `x = v; info.setModified();` pairs the
    /// paper's preprocessor inserts into every Java setter.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`], [`HeapError::SlotOutOfBounds`],
    /// [`HeapError::TypeMismatch`], or [`HeapError::ClassConstraint`].
    pub fn set_field(&mut self, id: ObjectId, slot: usize, value: Value) -> Result<(), HeapError> {
        self.store(id, slot, value, true)
    }

    /// Stores a field slot *without* touching the modified flag.
    ///
    /// Only the restore path uses this: materializing recorded state must
    /// not make every object look freshly dirty. Normal program mutation
    /// must use [`Heap::set_field`].
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::set_field`].
    pub fn set_field_unbarriered(
        &mut self,
        id: ObjectId,
        slot: usize,
        value: Value,
    ) -> Result<(), HeapError> {
        self.store(id, slot, value, false)
    }

    /// Stores a field by name through the write barrier.
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::set_field`], plus [`HeapError::UnknownField`].
    pub fn set_field_named(
        &mut self,
        id: ObjectId,
        field: &str,
        value: Value,
    ) -> Result<(), HeapError> {
        let class = self.class_of(id)?;
        let slot = self.registry.class(class)?.slot_of(field)?;
        self.set_field(id, slot, value)
    }

    fn store(
        &mut self,
        id: ObjectId,
        slot: usize,
        value: Value,
        barrier: bool,
    ) -> Result<(), HeapError> {
        let class = self.object_ref(id)?.class;
        let def = self.registry.class(class)?;
        let len = def.num_slots();
        let ty = def.slot_type(slot).map_err(|_| HeapError::SlotOutOfBounds {
            object: id,
            slot,
            len,
        })?;
        if !value.matches_kind(ty) {
            return Err(HeapError::TypeMismatch { object: id, slot, expected: ty });
        }
        if let (FieldType::Ref(Some(required)), Value::Ref(Some(target))) = (ty, value) {
            let actual = self.class_of(target)?;
            if !self.registry.is_subclass(actual, required) {
                return Err(HeapError::ClassConstraint {
                    object: id,
                    slot,
                    expected: required,
                    actual,
                });
            }
        }
        let is_ref = matches!(ty, FieldType::Ref(_));
        let obj = self.object_mut(id).expect("existence checked above");
        obj.fields[slot] = value;
        let newly_marked = barrier && !obj.info.modified;
        let newly_journaled = newly_marked && !obj.info.journaled;
        if barrier {
            obj.info.modified = true;
        }
        if newly_journaled {
            obj.info.journaled = true;
            self.journal.push(id);
        }
        if newly_marked {
            self.live_dirty += 1;
        }
        if barrier {
            self.stats.field_writes += 1;
        }
        if newly_marked {
            self.stats.barrier_marks += 1;
        }
        if is_ref {
            // A rewired reference can change what is reachable and in what
            // order, so cached traversal orders must be rebuilt; the log
            // names the writer so a cached shard plan can be repaired.
            self.structure_version = self.structure_version.wrapping_add(1);
            self.structure_log.push(self.structure_version, StructureEvent::Store(id));
        }
        Ok(())
    }

    /// Whether the object is marked modified.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn is_modified(&self, id: ObjectId) -> Result<bool, HeapError> {
        Ok(self.object_ref(id)?.info.modified)
    }

    /// Explicitly marks an object modified (the paper's `setModified()`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn set_modified(&mut self, id: ObjectId) -> Result<(), HeapError> {
        let info = &mut self.object_mut(id)?.info;
        let newly_marked = !info.modified;
        let newly_journaled = !info.journaled;
        info.modified = true;
        info.journaled = true;
        if newly_marked {
            self.live_dirty += 1;
        }
        if newly_journaled {
            self.journal.push(id);
        }
        Ok(())
    }

    /// Clears an object's modified flag (done by the checkpointer after
    /// recording — the paper's `resetModified()`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn reset_modified(&mut self, id: ObjectId) -> Result<(), HeapError> {
        let info = &mut self.object_mut(id)?.info;
        if info.modified {
            info.modified = false;
            self.live_dirty -= 1;
        }
        Ok(())
    }

    /// Marks every live object modified (forces the next incremental
    /// checkpoint to be a full one).
    pub fn mark_all_modified(&mut self) {
        let journal = &mut self.journal;
        let live_dirty = &mut self.live_dirty;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(obj) = &mut slot.object {
                if !obj.info.modified {
                    obj.info.modified = true;
                    *live_dirty += 1;
                }
                if !obj.info.journaled {
                    obj.info.journaled = true;
                    journal.push(ObjectId { index: index as u32, generation: slot.generation });
                }
            }
        }
    }

    /// Clears the modified flag of every live object.
    pub fn reset_all_modified(&mut self) {
        for slot in &mut self.slots {
            if let Some(obj) = &mut slot.object {
                if obj.info.modified {
                    obj.info.modified = false;
                    self.live_dirty -= 1;
                }
            }
        }
    }

    /// The number of arena slots (live or freed). Every slot index from
    /// [`ObjectId::index`] is strictly below this bound, which lets graph
    /// traversals use dense slot-indexed tables instead of hashing — the
    /// parallel checkpointer's shard partitioner depends on it.
    pub fn arena_size(&self) -> usize {
        self.slots.len()
    }

    /// The class of the live object in arena slot `index`, if any — a
    /// handle-free lookup for scans over slot-indexed tables.
    pub(crate) fn slot_class(&self, index: usize) -> Option<ClassId> {
        self.slots.get(index)?.object.as_ref().map(|obj| obj.class)
    }

    /// Iterates over the handles of all live objects, in slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.object.as_ref().map(|_| ObjectId { index: i as u32, generation: s.generation })
        })
    }

    /// The number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// The dirty-set journal for the current epoch: every object that
    /// transitioned clean→dirty since the last
    /// [`Heap::finish_journal_epoch`], each listed at most once, in the
    /// order the transitions happened. Entries may be stale (the object was
    /// freed since) or refer to objects that have meanwhile been recorded
    /// and reset; consumers must re-check liveness and the modified flag.
    ///
    /// The invariant the write barrier maintains is one-directional: every
    /// *modified* live object has an entry here (so the journal is a sound
    /// membership filter for "what can an incremental checkpoint record"),
    /// but not every entry is still modified.
    pub fn journal(&self) -> &[ObjectId] {
        &self.journal
    }

    /// Number of completed journal epochs (bumped by
    /// [`Heap::finish_journal_epoch`]).
    pub fn journal_epoch(&self) -> u64 {
        self.journal_epoch
    }

    /// A counter that changes whenever the object graph's *shape* may have
    /// changed: any allocation, any free, and any store to a reference
    /// slot (barriered or not). Two observations of the same value around
    /// unchanged roots guarantee an unchanged depth-first traversal order,
    /// which is what lets checkpointers cache and replay traversal orders.
    pub fn structure_version(&self) -> u64 {
        self.structure_version
    }

    /// Every shape change since [`Heap::structure_version`] read
    /// `version`, in order: the writer of each reference-slot store
    /// (barriered or not) and each freed object. Allocations are not
    /// listed; a fresh object only joins the graph through a logged store.
    ///
    /// Returns `None` — "unknown", never a partial list — when the log no
    /// longer reaches back to `version`: an epoch boundary
    /// ([`Heap::finish_journal_epoch`]) emptied it since, or more than
    /// [`STRUCTURE_LOG_CAPACITY`] changes pushed the cursor out. A
    /// `version` ahead of the heap's (a cursor from another heap) is
    /// unknown too.
    pub fn structure_changes_since(&self, version: u64) -> Option<&[StructureEvent]> {
        self.structure_log.since(version, self.structure_version)
    }

    /// `true` if any journal entry still refers to a live, modified object
    /// — i.e. the next incremental checkpoint would record something.
    ///
    /// O(1): answered from the barrier-maintained [`Heap::live_dirty`]
    /// counter rather than scanning the journal. The two agree because the
    /// barrier keeps every modified live object journaled.
    pub fn journal_has_dirty(&self) -> bool {
        self.live_dirty > 0
    }

    /// The number of live objects currently marked modified.
    ///
    /// Maintained by the write barrier at every clean↔dirty transition
    /// (allocation, barriered store, [`Heap::set_modified`] /
    /// [`Heap::reset_modified`] and their bulk variants, and frees of dirty
    /// objects). The barrier-coverage auditor's epoch model cross-checks
    /// this counter against a ground-truth scan.
    pub fn live_dirty(&self) -> usize {
        self.live_dirty
    }

    /// The stable id the next fresh allocation will receive.
    ///
    /// Useful for probes that need a collision-free identity for
    /// [`Heap::alloc_restored`].
    pub fn next_stable_id(&self) -> StableId {
        StableId(self.next_stable)
    }

    /// Closes the current journal epoch: drops entries whose object is dead
    /// or no longer modified (clearing their journaled bit so a later
    /// re-dirtying re-journals them), keeps entries that are still dirty,
    /// and bumps the epoch counter. Checkpointers call this after a
    /// successful checkpoint; the retained entries are exactly the dirty
    /// objects the checkpoint did not cover (e.g. currently unreachable
    /// ones). Returns the number of entries carried into the new epoch.
    ///
    /// The epoch boundary also empties the structural log: only cursors
    /// taken from here on can be answered by
    /// [`Heap::structure_changes_since`].
    pub fn finish_journal_epoch(&mut self) -> usize {
        self.structure_log.trim(self.structure_version);
        let slots = &mut self.slots;
        self.journal.retain(|id| {
            let obj = slots
                .get_mut(id.index())
                .filter(|s| s.generation == id.generation)
                .and_then(|s| s.object.as_mut());
            match obj {
                Some(obj) if obj.info.modified => true,
                Some(obj) => {
                    obj.info.journaled = false;
                    false
                }
                None => false,
            }
        });
        self.journal_epoch += 1;
        self.journal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> (Heap, ClassId, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let other = reg.define("Other", None, &[("f", FieldType::Double)]).unwrap();
        (Heap::new(reg), node, other)
    }

    #[test]
    fn alloc_zero_initializes_and_marks_modified() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(0));
        assert_eq!(heap.field(o, 1).unwrap(), Value::Ref(None));
        assert!(heap.is_modified(o).unwrap());
    }

    #[test]
    fn stable_ids_are_unique_and_increasing() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        assert!(heap.stable_id(a).unwrap() < heap.stable_id(b).unwrap());
    }

    #[test]
    fn write_barrier_sets_modified() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.reset_modified(o).unwrap();
        heap.set_field(o, 0, Value::Int(7)).unwrap();
        assert!(heap.is_modified(o).unwrap());
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(7));
    }

    #[test]
    fn unbarriered_store_does_not_set_modified() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.reset_modified(o).unwrap();
        heap.set_field_unbarriered(o, 0, Value::Int(7)).unwrap();
        assert!(!heap.is_modified(o).unwrap());
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(7));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        let err = heap.set_field(o, 0, Value::Bool(true)).unwrap_err();
        assert!(matches!(err, HeapError::TypeMismatch { .. }));
    }

    #[test]
    fn slot_bounds_are_enforced() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        assert!(matches!(heap.field(o, 9), Err(HeapError::SlotOutOfBounds { .. })));
        assert!(matches!(
            heap.set_field(o, 9, Value::Int(0)),
            Err(HeapError::SlotOutOfBounds { .. })
        ));
    }

    #[test]
    fn class_constrained_refs_accept_subclasses_only() {
        let mut reg = ClassRegistry::new();
        let entry = reg.define("Entry", None, &[]).unwrap();
        let bt = reg.define("BTEntry", Some(entry), &[]).unwrap();
        let holder = reg.define("Holder", None, &[("e", FieldType::Ref(Some(entry)))]).unwrap();
        let unrelated = reg.define("Unrelated", None, &[]).unwrap();
        let mut heap = Heap::new(reg);
        let h = heap.alloc(holder).unwrap();
        let b = heap.alloc(bt).unwrap();
        let u = heap.alloc(unrelated).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(b))).unwrap();
        let err = heap.set_field(h, 0, Value::Ref(Some(u))).unwrap_err();
        assert!(matches!(err, HeapError::ClassConstraint { .. }));
        // null always allowed
        heap.set_field(h, 0, Value::Ref(None)).unwrap();
    }

    #[test]
    fn freed_handles_dangle_and_slots_are_reused_with_new_generation() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        heap.free(a).unwrap();
        assert!(!heap.contains(a));
        assert!(matches!(heap.field(a, 0), Err(HeapError::DanglingObject(_))));
        let b = heap.alloc(node).unwrap();
        assert_eq!(a.index(), b.index());
        assert_ne!(a.generation(), b.generation());
        assert!(heap.contains(b));
    }

    #[test]
    fn double_free_is_rejected() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        heap.free(a).unwrap();
        assert!(matches!(heap.free(a), Err(HeapError::DanglingObject(_))));
    }

    #[test]
    fn alloc_with_validates_arity_and_values() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc_with(node, &[Value::Int(3), Value::Ref(None)]).unwrap();
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(3));
        assert!(heap.alloc_with(node, &[Value::Int(3)]).is_err());
        assert!(heap.alloc_with(node, &[Value::Bool(true), Value::Ref(None)]).is_err());
    }

    #[test]
    fn alloc_restored_preserves_identity_and_bumps_counter() {
        let (mut heap, node, _) = small_heap();
        let r = heap.alloc_restored(node, StableId(100), false).unwrap();
        assert_eq!(heap.stable_id(r).unwrap(), StableId(100));
        assert!(!heap.is_modified(r).unwrap());
        let fresh = heap.alloc(node).unwrap();
        assert!(heap.stable_id(fresh).unwrap().raw() > 100);
    }

    #[test]
    fn named_field_access_round_trips() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.set_field_named(o, "v", Value::Int(42)).unwrap();
        assert_eq!(heap.field_named(o, "v").unwrap(), Value::Int(42));
        assert!(heap.field_named(o, "nope").is_err());
    }

    #[test]
    fn mark_and_reset_all_modified() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.reset_all_modified();
        assert!(!heap.is_modified(a).unwrap());
        assert!(!heap.is_modified(b).unwrap());
        heap.mark_all_modified();
        assert!(heap.is_modified(a).unwrap());
        assert!(heap.is_modified(b).unwrap());
    }

    #[test]
    fn stats_track_allocs_writes_and_barrier_transitions() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.reset_modified(o).unwrap();
        heap.set_field(o, 0, Value::Int(1)).unwrap(); // clean -> dirty
        heap.set_field(o, 0, Value::Int(2)).unwrap(); // already dirty
        let s = heap.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.field_writes, 2);
        assert_eq!(s.barrier_marks, 1);
    }

    #[test]
    fn journal_records_each_clean_to_dirty_transition_once() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap(); // fresh => journaled
        let b = heap.alloc(node).unwrap();
        assert_eq!(heap.journal(), &[a, b]);
        heap.reset_all_modified();
        // Still journaled from the allocs: re-dirtying must not duplicate.
        heap.set_field(a, 0, Value::Int(1)).unwrap();
        heap.set_field(a, 0, Value::Int(2)).unwrap();
        heap.set_modified(b).unwrap();
        assert_eq!(heap.journal(), &[a, b]);
        assert!(heap.journal_has_dirty());
    }

    #[test]
    fn finish_journal_epoch_drops_clean_and_dead_entries() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let c = heap.alloc(node).unwrap();
        heap.reset_modified(a).unwrap(); // recorded => clean
        heap.free(b).unwrap(); // dead
        assert_eq!(heap.finish_journal_epoch(), 1, "only the dirty survivor");
        assert_eq!(heap.journal(), &[c]);
        assert_eq!(heap.journal_epoch(), 1);
        // The dropped-but-live entry was un-journaled, so a new transition
        // re-journals it in the new epoch.
        heap.set_field(a, 0, Value::Int(5)).unwrap();
        assert_eq!(heap.journal(), &[c, a]);
    }

    #[test]
    fn journal_tolerates_slot_reuse() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        heap.free(a).unwrap();
        let b = heap.alloc(node).unwrap(); // reuses a's slot, new generation
        assert_eq!(heap.journal(), &[a, b]);
        heap.reset_modified(b).unwrap();
        assert!(!heap.journal_has_dirty(), "stale entry must not read through to b");
        heap.finish_journal_epoch();
        assert!(heap.journal().is_empty());
        assert!(!heap.object(b).unwrap().info().journaled());
    }

    #[test]
    fn mark_all_modified_journals_every_live_object_once() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.reset_all_modified();
        heap.finish_journal_epoch();
        assert!(heap.journal().is_empty());
        heap.mark_all_modified();
        heap.mark_all_modified();
        assert_eq!(heap.journal(), &[a, b]);
    }

    #[test]
    fn live_dirty_counter_tracks_every_transition() {
        let (mut heap, node, _) = small_heap();
        assert_eq!(heap.live_dirty(), 0);
        let a = heap.alloc(node).unwrap(); // fresh => dirty
        let b = heap.alloc(node).unwrap();
        assert_eq!(heap.live_dirty(), 2);
        heap.reset_modified(a).unwrap();
        heap.reset_modified(a).unwrap(); // idempotent
        assert_eq!(heap.live_dirty(), 1);
        heap.set_field(a, 0, Value::Int(1)).unwrap(); // clean -> dirty
        heap.set_field(a, 0, Value::Int(2)).unwrap(); // already dirty
        assert_eq!(heap.live_dirty(), 2);
        heap.free(b).unwrap(); // dirty object freed
        assert_eq!(heap.live_dirty(), 1);
        heap.reset_all_modified();
        assert_eq!(heap.live_dirty(), 0);
        assert!(!heap.journal_has_dirty());
        heap.set_modified(a).unwrap();
        heap.set_modified(a).unwrap(); // idempotent
        assert_eq!(heap.live_dirty(), 1);
        assert!(heap.journal_has_dirty());
        heap.mark_all_modified();
        assert_eq!(heap.live_dirty(), 1, "a was already dirty, b is dead");
        heap.finish_journal_epoch(); // flags untouched
        assert_eq!(heap.live_dirty(), 1);
    }

    #[test]
    fn next_stable_id_is_collision_free_for_restores() {
        let (mut heap, node, _) = small_heap();
        heap.alloc(node).unwrap();
        let next = heap.next_stable_id();
        let r = heap.alloc_restored(node, next, true).unwrap();
        assert_eq!(heap.stable_id(r).unwrap(), next);
        let fresh = heap.alloc(node).unwrap();
        assert!(heap.stable_id(fresh).unwrap() > next);
    }

    #[test]
    fn structure_version_tracks_shape_changes_only() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let v = heap.structure_version();
        heap.set_field(a, 0, Value::Int(1)).unwrap(); // scalar store
        assert_eq!(heap.structure_version(), v, "scalar stores keep the shape");
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap(); // ref store
        assert_ne!(heap.structure_version(), v);
        let v = heap.structure_version();
        heap.free(b).unwrap();
        assert_ne!(heap.structure_version(), v);
        let v = heap.structure_version();
        heap.alloc(node).unwrap();
        assert_ne!(heap.structure_version(), v);
    }

    #[test]
    fn structure_log_names_ref_writers_and_frees_since_a_cursor() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let v0 = heap.structure_version();
        assert_eq!(heap.structure_changes_since(v0), Some(&[][..]));
        heap.set_field(a, 0, Value::Int(1)).unwrap(); // scalar: not logged
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        let v1 = heap.structure_version();
        heap.set_field_unbarriered(b, 1, Value::Ref(None)).unwrap();
        heap.alloc(node).unwrap(); // allocations are not logged
        heap.free(a).unwrap();
        let all = [StructureEvent::Store(a), StructureEvent::Store(b), StructureEvent::Free(a)];
        assert_eq!(heap.structure_changes_since(v0), Some(&all[..]));
        assert_eq!(heap.structure_changes_since(v1), Some(&all[1..]));
        assert_eq!(heap.structure_changes_since(heap.structure_version() + 1), None);
    }

    #[test]
    fn structure_log_is_unknown_past_an_epoch_boundary_or_an_overflow() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let v0 = heap.structure_version();
        heap.set_field(a, 1, Value::Ref(None)).unwrap();
        heap.finish_journal_epoch();
        assert_eq!(heap.structure_changes_since(v0), None, "trimmed at the epoch boundary");
        let v1 = heap.structure_version();
        assert_eq!(heap.structure_changes_since(v1), Some(&[][..]));
        for _ in 0..STRUCTURE_LOG_CAPACITY {
            heap.set_field(a, 1, Value::Ref(None)).unwrap();
        }
        let recent = heap.structure_version();
        heap.set_field(a, 1, Value::Ref(None)).unwrap();
        assert_eq!(heap.structure_changes_since(v1), None, "the overflow dropped this cursor");
        assert_eq!(heap.structure_changes_since(recent), Some(&[StructureEvent::Store(a)][..]));
    }

    #[test]
    fn iter_live_skips_freed_objects() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let c = heap.alloc(node).unwrap();
        heap.free(b).unwrap();
        let live: Vec<ObjectId> = heap.iter_live().collect();
        assert_eq!(live, vec![a, c]);
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
    }
}
