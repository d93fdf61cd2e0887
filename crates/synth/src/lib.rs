//! # ickp-synth — the paper's synthetic benchmark
//!
//! Reproduces the workload of *Lawall & Muller (DSN 2000)*, §5: a set of
//! compound structures (20 000 in the paper), each holding a fixed number
//! of singly linked lists (5 in the paper), where the experiment controls
//!
//! * the **length** of the lists (1 or 5),
//! * the number of **integer fields** in each element (1 or 10 — the cost
//!   of recording a modified object),
//! * which **lists may contain modified objects** (1, 3 or 5 of them),
//! * whether modified objects can appear **only at the last position**,
//! * and the **percentage** of possibly-modified objects actually modified
//!   (100 %, 50 %, 25 %).
//!
//! [`SynthWorld::build`] materializes the structures in an `ickp-heap`;
//! [`SynthWorld::apply_modifications`] performs real barriered writes per
//! checkpoint round; and the `shape_*` methods produce the specialization
//! declarations corresponding to each of the paper's Figures 8–11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ickp_heap::{ClassId, ClassRegistry, FieldType, Heap, HeapError, ObjectId, Value};
use ickp_prng::Prng;
use ickp_spec::{ListPattern, NodePattern, SpecShape};

/// Static dimensions of the synthetic structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthConfig {
    /// Number of compound structures (paper: 20 000).
    pub structures: usize,
    /// Linked lists per structure (paper: 5).
    pub lists_per_structure: usize,
    /// Elements per list (paper: 1 or 5).
    pub list_len: usize,
    /// `int` fields per element (paper: 1 or 10).
    pub ints_per_element: usize,
    /// RNG seed for modification rounds.
    pub seed: u64,
}

impl SynthConfig {
    /// The paper's full-scale configuration: 20 000 structures × 5 lists.
    pub fn paper(list_len: usize, ints_per_element: usize) -> SynthConfig {
        SynthConfig {
            structures: 20_000,
            lists_per_structure: 5,
            list_len,
            ints_per_element,
            seed: 0x1c4b_c05e ^ ((list_len as u64) << 8) ^ ints_per_element as u64,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> SynthConfig {
        SynthConfig {
            structures: 50,
            lists_per_structure: 5,
            list_len: 5,
            ints_per_element: 1,
            seed: 7,
        }
    }
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig::paper(5, 1)
    }
}

/// Which objects a modification round may dirty, and how many it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModificationSpec {
    /// Percentage (0–100) of possibly-modified objects actually modified.
    pub pct_modified: u8,
    /// How many of each structure's lists may contain modified objects
    /// (the paper's "modified lists" axis; the first `k` lists).
    pub modified_lists: usize,
    /// Restrict modifications to the last element of each eligible list
    /// (the paper's Figure 10/11 position constraint).
    pub last_only: bool,
}

impl ModificationSpec {
    /// All lists eligible, every element a candidate.
    pub fn uniform(pct_modified: u8) -> ModificationSpec {
        ModificationSpec { pct_modified, modified_lists: usize::MAX, last_only: false }
    }
}

/// The materialized synthetic benchmark world.
#[derive(Debug)]
pub struct SynthWorld {
    heap: Heap,
    config: SynthConfig,
    holder_class: ClassId,
    elem_class: ClassId,
    next_slot: usize,
    roots: Vec<ObjectId>,
    /// `elements[s][l][p]` = element at position `p` of list `l` of
    /// structure `s`.
    elements: Vec<Vec<Vec<ObjectId>>>,
    round: i32,
}

impl SynthWorld {
    /// Builds the world: defines the `Structure`/`Elem` classes and
    /// allocates every object, leaving all modified flags **clear** (as
    /// after an initial checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if `list_len` or `lists_per_structure` is zero.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    pub fn build(config: SynthConfig) -> Result<SynthWorld, HeapError> {
        assert!(config.list_len > 0, "list_len must be positive");
        assert!(config.lists_per_structure > 0, "need at least one list");
        let mut registry = ClassRegistry::new();

        let int_names: Vec<String> =
            (0..config.ints_per_element).map(|i| format!("v{i}")).collect();
        let mut elem_fields: Vec<(&str, FieldType)> =
            int_names.iter().map(|n| (n.as_str(), FieldType::Int)).collect();
        elem_fields.push(("next", FieldType::Ref(None)));
        let elem_class = registry.define("Elem", None, &elem_fields)?;
        let next_slot = config.ints_per_element;

        let list_names: Vec<String> =
            (0..config.lists_per_structure).map(|i| format!("l{i}")).collect();
        let holder_fields: Vec<(&str, FieldType)> =
            list_names.iter().map(|n| (n.as_str(), FieldType::Ref(Some(elem_class)))).collect();
        let holder_class = registry.define("Structure", None, &holder_fields)?;

        let mut heap = Heap::new(registry);
        let mut roots = Vec::with_capacity(config.structures);
        let mut elements = Vec::with_capacity(config.structures);
        for _ in 0..config.structures {
            let mut lists = Vec::with_capacity(config.lists_per_structure);
            let holder = heap.alloc(holder_class)?;
            for l in 0..config.lists_per_structure {
                let mut ids = Vec::with_capacity(config.list_len);
                let mut next: Option<ObjectId> = None;
                for _ in 0..config.list_len {
                    let e = heap.alloc(elem_class)?;
                    heap.set_field(e, next_slot, Value::Ref(next))?;
                    next = Some(e);
                    ids.push(e);
                }
                ids.reverse(); // position 0 = head
                heap.set_field(holder, l, Value::Ref(Some(ids[0])))?;
                lists.push(ids);
            }
            roots.push(holder);
            elements.push(lists);
        }
        heap.reset_all_modified();
        Ok(SynthWorld {
            heap,
            config,
            holder_class,
            elem_class,
            next_slot,
            roots,
            elements,
            round: 0,
        })
    }

    /// The heap holding the structures.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the heap (checkpointers need `&mut`).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The build configuration.
    pub fn config(&self) -> SynthConfig {
        self.config
    }

    /// The structure roots, one per compound structure.
    pub fn roots(&self) -> &[ObjectId] {
        &self.roots
    }

    /// The class of the compound structures.
    pub fn holder_class(&self) -> ClassId {
        self.holder_class
    }

    /// The class of the list elements.
    pub fn elem_class(&self) -> ClassId {
        self.elem_class
    }

    /// The slot of the `next` reference in an element.
    pub fn next_slot(&self) -> usize {
        self.next_slot
    }

    /// The element at `(structure, list, position)`.
    pub fn element(&self, structure: usize, list: usize, position: usize) -> ObjectId {
        self.elements[structure][list][position]
    }

    /// Rewires list `list` of structure `structure` by swapping its
    /// elements at positions 1 and 2: `p0 → p1 → p2 → rest` becomes
    /// `p0 → p2 → p1 → rest`, three barriered stores to `next` that leave
    /// every element under the same structure. [`SynthWorld::element`]
    /// follows the new order.
    ///
    /// # Errors
    ///
    /// Propagates heap errors from the stores.
    ///
    /// # Panics
    ///
    /// Panics if the lists are shorter than three elements.
    pub fn swap_neighbours(&mut self, structure: usize, list: usize) -> Result<(), HeapError> {
        let order = &mut self.elements[structure][list];
        assert!(order.len() >= 3, "swapping positions 1 and 2 needs three elements");
        let (p0, p1, p2) = (order[0], order[1], order[2]);
        let rest = order.get(3).copied();
        order.swap(1, 2);
        let next = self.next_slot;
        self.heap.set_field(p0, next, Value::Ref(Some(p2)))?;
        self.heap.set_field(p2, next, Value::Ref(Some(p1)))?;
        self.heap.set_field(p1, next, Value::Ref(rest))
    }

    /// Total live objects (structures + elements).
    pub fn object_count(&self) -> usize {
        self.config.structures * (1 + self.config.lists_per_structure * self.config.list_len)
    }

    /// Clears every modified flag (simulating a completed checkpoint).
    pub fn reset_modified(&mut self) {
        self.heap.reset_all_modified();
    }

    /// Performs one modification round: real barriered writes to the first
    /// int field of randomly chosen eligible elements.
    ///
    /// Eligibility follows `spec`: elements of the first
    /// `spec.modified_lists` lists, restricted to the last position when
    /// `spec.last_only`; each eligible element is dirtied with probability
    /// `spec.pct_modified`/100. Returns the number of objects modified.
    ///
    /// A fresh deterministic RNG is derived from the config seed and the
    /// round number, so runs are reproducible.
    pub fn apply_modifications(&mut self, spec: &ModificationSpec) -> usize {
        self.round += 1;
        let mut rng = Prng::seed_from_u64(
            self.config.seed ^ (self.round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let k = spec.modified_lists.min(self.config.lists_per_structure);
        let first_pos = if spec.last_only { self.config.list_len - 1 } else { 0 };
        let mut modified = 0usize;
        for s in 0..self.config.structures {
            for l in 0..k {
                for p in first_pos..self.config.list_len {
                    if spec.pct_modified >= 100 || rng.ratio(spec.pct_modified as u32, 100) {
                        let e = self.elements[s][l][p];
                        self.heap
                            .set_field(e, 0, Value::Int(self.round))
                            .expect("element field write");
                        modified += 1;
                    }
                }
            }
        }
        modified
    }

    fn list_shape(&self, pattern: ListPattern) -> SpecShape {
        SpecShape::list(self.elem_class, self.next_slot, self.config.list_len, pattern)
    }

    /// Declaration for **structure-only** specialization (Figure 8): the
    /// shape is static, every element may be modified.
    pub fn shape_structure_only(&self) -> SpecShape {
        self.shape_with_patterns(|_| ListPattern::MayModify)
    }

    /// Declaration for Figure 9: only the first `modified_lists` lists may
    /// contain modified elements; the rest are statically unmodified.
    pub fn shape_modified_lists(&self, modified_lists: usize) -> SpecShape {
        self.shape_with_patterns(|l| {
            if l < modified_lists {
                ListPattern::MayModify
            } else {
                ListPattern::Unmodified
            }
        })
    }

    /// Declaration for Figures 10/11: the first `modified_lists` lists may
    /// be modified, and only at their last element.
    pub fn shape_last_only(&self, modified_lists: usize) -> SpecShape {
        self.shape_with_patterns(|l| {
            if l < modified_lists {
                ListPattern::LastOnly
            } else {
                ListPattern::Unmodified
            }
        })
    }

    /// Declaration with an arbitrary per-list pattern.
    pub fn shape_with_patterns(
        &self,
        mut pattern_for_list: impl FnMut(usize) -> ListPattern,
    ) -> SpecShape {
        let children = (0..self.config.lists_per_structure)
            .map(|l| (l, self.list_shape(pattern_for_list(l))))
            .collect();
        // The structure object itself holds only the list heads, which
        // never change after construction.
        SpecShape::object(self.holder_class, NodePattern::FrozenHere, children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::{
        decode, restore, verify_restore, CheckpointConfig, CheckpointStore, Checkpointer,
        MethodTable, RestorePolicy,
    };
    use ickp_spec::{GuardMode, SpecializedCheckpointer, Specializer};

    #[test]
    fn build_produces_the_declared_object_population() {
        let w = SynthWorld::build(SynthConfig::small()).unwrap();
        assert_eq!(w.heap().len(), w.object_count());
        assert_eq!(w.roots().len(), 50);
        assert_eq!(w.object_count(), 50 * (1 + 5 * 5));
    }

    #[test]
    fn swapping_neighbours_relinks_the_list_and_its_element_order() {
        let mut w = SynthWorld::build(SynthConfig::small()).unwrap();
        let before: Vec<ObjectId> = (0..5).map(|p| w.element(2, 1, p)).collect();
        w.swap_neighbours(2, 1).unwrap();
        let mut at = w.heap().field(w.roots()[2], 1).unwrap();
        for p in 0..5 {
            assert_eq!(at, Value::Ref(Some(w.element(2, 1, p))), "position {p}");
            at = w.heap().field(w.element(2, 1, p), w.next_slot()).unwrap();
        }
        assert_eq!(at, Value::Ref(None));
        assert_eq!((w.element(2, 1, 1), w.element(2, 1, 2)), (before[2], before[1]));
    }

    #[test]
    fn lists_are_properly_linked_and_nil_terminated() {
        let w = SynthWorld::build(SynthConfig::small()).unwrap();
        let heap = w.heap();
        for s in 0..3 {
            for l in 0..w.config().lists_per_structure {
                for p in 0..w.config().list_len {
                    let e = w.element(s, l, p);
                    let next = heap.field(e, w.next_slot()).unwrap();
                    if p + 1 < w.config().list_len {
                        assert_eq!(next, Value::Ref(Some(w.element(s, l, p + 1))));
                    } else {
                        assert_eq!(next, Value::Ref(None));
                    }
                }
            }
        }
    }

    #[test]
    fn build_leaves_every_flag_clear() {
        let w = SynthWorld::build(SynthConfig::small()).unwrap();
        for id in w.heap().iter_live() {
            assert!(!w.heap().is_modified(id).unwrap());
        }
    }

    #[test]
    fn modification_round_respects_list_and_position_constraints() {
        let mut w = SynthWorld::build(SynthConfig::small()).unwrap();
        let spec = ModificationSpec { pct_modified: 100, modified_lists: 2, last_only: true };
        let n = w.apply_modifications(&spec);
        // 100% of last elements of 2 lists per structure:
        assert_eq!(n, 50 * 2);
        let heap = w.heap();
        for s in 0..50 {
            for l in 0..5 {
                for p in 0..5 {
                    let dirty = heap.is_modified(w.element(s, l, p)).unwrap();
                    assert_eq!(dirty, l < 2 && p == 4, "s={s} l={l} p={p}");
                }
            }
        }
    }

    #[test]
    fn percentage_controls_the_expected_fraction() {
        let mut cfg = SynthConfig::small();
        cfg.structures = 400;
        let mut w = SynthWorld::build(cfg).unwrap();
        let spec = ModificationSpec { pct_modified: 25, modified_lists: 5, last_only: false };
        let n = w.apply_modifications(&spec);
        let candidates = 400 * 5 * 5;
        let frac = n as f64 / candidates as f64;
        assert!((0.2..0.3).contains(&frac), "got {frac}");
    }

    #[test]
    fn modification_rounds_are_deterministic_per_seed() {
        let run = || {
            let mut w = SynthWorld::build(SynthConfig::small()).unwrap();
            let spec = ModificationSpec::uniform(50);
            (w.apply_modifications(&spec), w.apply_modifications(&spec))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn generic_and_specialized_checkpoints_record_the_same_objects() {
        let mut w = SynthWorld::build(SynthConfig::small()).unwrap();
        let spec = ModificationSpec { pct_modified: 50, modified_lists: 3, last_only: false };
        w.apply_modifications(&spec);

        // Specialized with structure-only shape:
        let shape = w.shape_structure_only();
        let plan = Specializer::new(w.heap().registry()).compile(&shape).unwrap();
        let roots = w.roots().to_vec();

        // Clone the heap so both drivers see identical dirty state.
        let mut heap_generic = w.heap().clone();
        let table = MethodTable::derive(heap_generic.registry());
        let mut gc = Checkpointer::new(CheckpointConfig::incremental());
        let g = gc.checkpoint(&mut heap_generic, &table, &roots).unwrap();

        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let s = sc.checkpoint(w.heap_mut(), &plan, &roots, None).unwrap();

        let dg = decode(g.bytes(), heap_generic.registry()).unwrap();
        let ds = decode(s.bytes(), w.heap().registry()).unwrap();
        assert_eq!(dg.objects, ds.objects);
    }

    #[test]
    fn narrowed_shapes_capture_exactly_the_eligible_modifications() {
        let mut w = SynthWorld::build(SynthConfig::small()).unwrap();
        let spec = ModificationSpec { pct_modified: 100, modified_lists: 2, last_only: true };
        let n = w.apply_modifications(&spec);

        let shape = w.shape_last_only(2);
        let plan = Specializer::new(w.heap().registry()).compile(&shape).unwrap();
        let roots = w.roots().to_vec();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let rec = sc.checkpoint(w.heap_mut(), &plan, &roots, None).unwrap();
        assert_eq!(rec.stats().objects_recorded as usize, n);
        // Only the eligible tails were even tested:
        assert_eq!(rec.stats().flag_tests as usize, 50 * 2);
    }

    #[test]
    fn synthetic_checkpoints_restore_exactly() {
        let mut w = SynthWorld::build(SynthConfig::small()).unwrap();
        let roots = w.roots().to_vec();
        let table = MethodTable::derive(w.heap().registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();

        w.heap_mut().mark_all_modified(); // base checkpoint covers all
        store.push(ckp.checkpoint(w.heap_mut(), &table, &roots).unwrap()).unwrap();
        for pct in [50, 25] {
            w.apply_modifications(&ModificationSpec::uniform(pct));
            store.push(ckp.checkpoint(w.heap_mut(), &table, &roots).unwrap()).unwrap();
        }
        let rebuilt = restore(&store, w.heap().registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(w.heap(), &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = SynthConfig::paper(5, 10);
        assert_eq!(cfg.structures, 20_000);
        assert_eq!(cfg.lists_per_structure, 5);
        assert_eq!(cfg.list_len, 5);
        assert_eq!(cfg.ints_per_element, 10);
    }

    #[test]
    fn element_class_has_declared_int_fields() {
        let w = SynthWorld::build(SynthConfig { ints_per_element: 10, ..SynthConfig::small() })
            .unwrap();
        let def = w.heap().registry().class(w.elem_class()).unwrap();
        assert_eq!(def.num_slots(), 11);
        assert_eq!(w.next_slot(), 10);
    }
}
