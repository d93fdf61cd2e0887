//! Mutation catalog: the declared checkpoint effect of every public heap
//! mutator.
//!
//! The incremental checkpointing protocol rests on three write-barrier
//! obligations that every mutation of the object graph must honour:
//!
//! 1. **journal**: any operation that can change an object's encoded bytes
//!    must leave that object modified *and* journaled, or the journal fast
//!    path ships a stale stream;
//! 2. **version**: any operation that can change reachability or traversal
//!    order must bump [`Heap::structure_version`], or a cached
//!    `JournalCache` replays a stale pre-order;
//! 3. **epoch**: dirty flags and the journal epoch may only be cleared by
//!    the checkpoint protocol itself (record → reset → finish epoch);
//! 4. **log**: every reference-slot store and every free must land in the
//!    heap's structural log ([`Heap::structure_changes_since`]), or a
//!    repaired shard plan misses the rewire and the parallel stream
//!    diverges.
//!
//! This module makes those obligations *data*: each public mutator on
//! [`Heap`] is registered here with a [`DeclaredEffect`] and a canonical
//! probe that exercises its maximal footprint on a scratch heap. The
//! `ickp-audit` crate's barrier-coverage pass (`audit_barriers`)
//! abstract-interprets the catalog against the protocol and cross-checks
//! every declaration against the probe's observed footprint, so a mutator
//! added without barrier coverage is caught statically (AUD301–AUD307)
//! rather than as a corrupt checkpoint in production.

use crate::error::HeapError;
use crate::heap::Heap;
use crate::ids::ObjectId;
use crate::value::{FieldType, Value};

/// Which objects an operation can mark modified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirtyScope {
    /// The operation never marks anything modified.
    #[default]
    None,
    /// The operation marks (at most) the objects it is applied to.
    Target,
    /// The operation can mark every live object.
    AllLive,
}

/// The declared checkpoint-relevant footprint of one heap mutator.
///
/// A declaration is a *promise* checked from both sides by the auditor:
/// the static side proves the declared bits consistent with the barrier
/// protocol, and the probe side verifies the declaration against the
/// operation's observed behaviour on a live heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeclaredEffect {
    /// Which objects the operation may mark modified.
    pub dirties: DirtyScope,
    /// The operation can change some live object's encoded bytes (field
    /// values), or introduce a new live object that the next checkpoint
    /// must record.
    pub bytes_may_change: bool,
    /// The operation can change the shape of the object graph: allocate,
    /// free, or rewire a reference slot.
    pub structure_may_change: bool,
    /// Every object the operation dirties is also journaled (obligation 1).
    pub journals_dirty: bool,
    /// The operation journals writes even when the stored bytes are
    /// identical to the current value (the paper's unconditional
    /// `setModified()` barrier); quantified by the AUD303 over-journaling
    /// lint.
    pub journals_unchanged: bool,
    /// Every shape change the operation makes bumps
    /// [`Heap::structure_version`] (obligation 2).
    pub bumps_structure_version: bool,
    /// Every reference-slot store and every free the operation makes is
    /// named in the structural log (obligation 4). Allocations need no
    /// entry: a fresh object joins the graph only through a logged store.
    pub logs_structure: bool,
    /// The operation can clear the modified flag of a live object.
    pub clears_dirty: bool,
    /// The operation closes the journal epoch
    /// ([`Heap::finish_journal_epoch`]).
    pub clears_epoch: bool,
    /// The operation is part of the checkpoint protocol itself and is
    /// therefore allowed to clear dirty flags / close epochs
    /// (obligation 3).
    pub checkpoint_protocol: bool,
    /// The operation belongs to the restore path, which materializes
    /// already-recorded state and is exempt from the journaling obligation
    /// (the restored bytes *are* the checkpoint).
    pub restore_exempt: bool,
}

/// The operand environment handed to a mutator probe.
///
/// The audit harness prepares a scratch heap at a clean epoch boundary and
/// fills this in; probes pick operands deterministically from it (first
/// suitable object wins), so rotating `targets` is how callers randomize.
#[derive(Debug, Clone, Copy)]
pub struct MutationProbe<'a> {
    /// The traversal roots of the scratch heap.
    pub roots: &'a [ObjectId],
    /// Live candidate operands (reachable objects, in preference order).
    pub targets: &'a [ObjectId],
    /// Live objects *not* reachable from `roots`, safe to free without
    /// dangling the reachable graph.
    pub garbage: &'a [ObjectId],
    /// An object known to be modified, for probes that clear dirty state.
    pub seed: Option<ObjectId>,
    /// Entropy for generated values and names; reusing a salt on the same
    /// heap can collide (e.g. duplicate probe class names).
    pub salt: u64,
}

/// A probe function: applies one representative invocation of the mutator
/// to `heap`, exercising its maximal declared footprint.
pub type ApplyFn = fn(&mut Heap, &MutationProbe<'_>) -> Result<(), HeapError>;

/// One catalog entry: a public mutator, its declared effect, and its probe.
#[derive(Debug, Clone, Copy)]
pub struct MutatorDecl {
    /// The mutator's method name on [`Heap`].
    pub name: &'static str,
    /// Its declared checkpoint footprint.
    pub effect: DeclaredEffect,
    /// Canonical probe exercising the footprint.
    pub apply: ApplyFn,
}

/// Every public `&mut self` method on [`Heap`] (including the collector in
/// the `gc` module). The AUD306 exhaustiveness check compares a catalog
/// against this list, so adding a mutator without extending the catalog —
/// and this list — fails the barrier audit, and this list is itself pinned
/// by a unit test against the catalog.
pub const PUBLIC_MUTATORS: &[&str] = &[
    "alloc",
    "alloc_with",
    "alloc_restored",
    "free",
    "set_field",
    "set_field_named",
    "set_field_unbarriered",
    "set_modified",
    "reset_modified",
    "mark_all_modified",
    "reset_all_modified",
    "collect",
    "finish_journal_epoch",
    "define_class",
];

/// The registry of declared mutator effects exported by the heap.
#[derive(Debug, Clone)]
pub struct MutationCatalog {
    entries: Vec<MutatorDecl>,
}

impl MutationCatalog {
    /// The complete catalog of [`Heap`]'s public mutators.
    pub fn of_heap() -> MutationCatalog {
        let w = DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            structure_may_change: true,
            journals_dirty: true,
            journals_unchanged: true,
            bumps_structure_version: true,
            logs_structure: true,
            ..DeclaredEffect::default()
        };
        let alloc = DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            structure_may_change: true,
            journals_dirty: true,
            bumps_structure_version: true,
            logs_structure: true,
            ..DeclaredEffect::default()
        };
        let entries = vec![
            MutatorDecl { name: "alloc", effect: alloc, apply: probe_alloc },
            MutatorDecl { name: "alloc_with", effect: alloc, apply: probe_alloc_with },
            MutatorDecl {
                name: "alloc_restored",
                effect: DeclaredEffect { restore_exempt: true, ..alloc },
                apply: probe_alloc_restored,
            },
            MutatorDecl {
                name: "free",
                effect: DeclaredEffect {
                    structure_may_change: true,
                    bumps_structure_version: true,
                    logs_structure: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_free,
            },
            MutatorDecl { name: "set_field", effect: w, apply: probe_set_field },
            MutatorDecl { name: "set_field_named", effect: w, apply: probe_set_field_named },
            MutatorDecl {
                name: "set_field_unbarriered",
                effect: DeclaredEffect {
                    dirties: DirtyScope::None,
                    journals_dirty: false,
                    journals_unchanged: false,
                    restore_exempt: true,
                    ..w
                },
                apply: probe_set_field_unbarriered,
            },
            MutatorDecl {
                name: "set_modified",
                effect: DeclaredEffect {
                    dirties: DirtyScope::Target,
                    journals_dirty: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_set_modified,
            },
            MutatorDecl {
                name: "reset_modified",
                effect: DeclaredEffect {
                    clears_dirty: true,
                    checkpoint_protocol: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_reset_modified,
            },
            MutatorDecl {
                name: "mark_all_modified",
                effect: DeclaredEffect {
                    dirties: DirtyScope::AllLive,
                    journals_dirty: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_mark_all_modified,
            },
            MutatorDecl {
                name: "reset_all_modified",
                effect: DeclaredEffect {
                    clears_dirty: true,
                    checkpoint_protocol: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_reset_all_modified,
            },
            MutatorDecl {
                name: "collect",
                effect: DeclaredEffect {
                    structure_may_change: true,
                    bumps_structure_version: true,
                    logs_structure: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_collect,
            },
            MutatorDecl {
                name: "finish_journal_epoch",
                effect: DeclaredEffect {
                    clears_epoch: true,
                    checkpoint_protocol: true,
                    ..DeclaredEffect::default()
                },
                apply: probe_finish_journal_epoch,
            },
            MutatorDecl {
                name: "define_class",
                effect: DeclaredEffect::default(),
                apply: probe_define_class,
            },
        ];
        MutationCatalog { entries }
    }

    /// The catalog entries, in declaration order.
    pub fn entries(&self) -> &[MutatorDecl] {
        &self.entries
    }

    /// Looks up an entry by mutator name.
    pub fn get(&self, name: &str) -> Option<&MutatorDecl> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// A copy of the catalog with one entry removed — the canonical way for
    /// injection tests to manufacture an AUD306 incompleteness.
    pub fn without(&self, name: &str) -> MutationCatalog {
        MutationCatalog {
            entries: self.entries.iter().filter(|e| e.name != name).copied().collect(),
        }
    }
}

/// A changed value of the same kind as `current` (byte-level change
/// guaranteed: scalar bits are XOR-perturbed by `salt | 1`).
fn perturbed(current: Value, salt: u64) -> Value {
    let s = salt | 1;
    match current {
        Value::Int(v) => Value::Int(v ^ (s as i32 | 1)),
        Value::Long(v) => Value::Long(v ^ (s as i64 | 1)),
        Value::Double(v) => Value::Double(f64::from_bits(v.to_bits() ^ s)),
        Value::Bool(v) => Value::Bool(!v),
        Value::Ref(r) => Value::Ref(r),
    }
}

/// First target with a scalar slot: `(object, slot, changed value)`.
fn pick_scalar_store(
    heap: &Heap,
    p: &MutationProbe<'_>,
) -> Result<Option<(ObjectId, usize, Value)>, HeapError> {
    for &id in p.targets {
        let class = heap.class(heap.class_of(id)?)?;
        for (slot, f) in class.layout().iter().enumerate() {
            if !f.ty().is_ref() {
                return Ok(Some((id, slot, perturbed(heap.field(id, slot)?, p.salt))));
            }
        }
    }
    Ok(None)
}

/// First target with a non-null reference slot: rewiring it to null is a
/// guaranteed, type-correct reachability change.
fn pick_ref_store(
    heap: &Heap,
    p: &MutationProbe<'_>,
) -> Result<Option<(ObjectId, usize)>, HeapError> {
    for &id in p.targets {
        let class = heap.class(heap.class_of(id)?)?;
        for (slot, f) in class.layout().iter().enumerate() {
            if f.ty().is_ref() && matches!(heap.field(id, slot)?, Value::Ref(Some(_))) {
                return Ok(Some((id, slot)));
            }
        }
    }
    Ok(None)
}

fn probe_alloc(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some(&t) = p.targets.first() {
        heap.alloc(heap.class_of(t)?)?;
    }
    Ok(())
}

fn probe_alloc_with(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some(&t) = p.targets.first() {
        let class = heap.class_of(t)?;
        let values: Vec<Value> =
            heap.class(class)?.layout().iter().map(|f| f.ty().default_value()).collect();
        heap.alloc_with(class, &values)?;
    }
    Ok(())
}

fn probe_alloc_restored(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some(&t) = p.targets.first() {
        let class = heap.class_of(t)?;
        let stable = heap.next_stable_id();
        heap.alloc_restored(class, stable, true)?;
    }
    Ok(())
}

fn probe_free(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some(&g) = p.garbage.first() {
        heap.free(g)?;
    }
    Ok(())
}

fn probe_set_field(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some((id, slot, value)) = pick_scalar_store(heap, p)? {
        heap.set_field(id, slot, value)?;
    }
    if let Some((id, slot)) = pick_ref_store(heap, p)? {
        heap.set_field(id, slot, Value::Ref(None))?;
    }
    Ok(())
}

fn probe_set_field_named(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some((id, slot, value)) = pick_scalar_store(heap, p)? {
        let field = heap.class(heap.class_of(id)?)?.layout()[slot].name().to_string();
        heap.set_field_named(id, &field, value)?;
    }
    if let Some((id, slot)) = pick_ref_store(heap, p)? {
        let field = heap.class(heap.class_of(id)?)?.layout()[slot].name().to_string();
        heap.set_field_named(id, &field, Value::Ref(None))?;
    }
    Ok(())
}

fn probe_set_field_unbarriered(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some((id, slot, value)) = pick_scalar_store(heap, p)? {
        heap.set_field_unbarriered(id, slot, value)?;
    }
    if let Some((id, slot)) = pick_ref_store(heap, p)? {
        heap.set_field_unbarriered(id, slot, Value::Ref(None))?;
    }
    Ok(())
}

fn probe_set_modified(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some(&t) = p.targets.first() {
        heap.set_modified(t)?;
    }
    Ok(())
}

fn probe_reset_modified(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    if let Some(t) = p.seed.or_else(|| p.targets.first().copied()) {
        heap.reset_modified(t)?;
    }
    Ok(())
}

fn probe_mark_all_modified(heap: &mut Heap, _p: &MutationProbe<'_>) -> Result<(), HeapError> {
    heap.mark_all_modified();
    Ok(())
}

fn probe_reset_all_modified(heap: &mut Heap, _p: &MutationProbe<'_>) -> Result<(), HeapError> {
    heap.reset_all_modified();
    Ok(())
}

fn probe_collect(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    heap.collect(p.roots)?;
    Ok(())
}

fn probe_finish_journal_epoch(heap: &mut Heap, _p: &MutationProbe<'_>) -> Result<(), HeapError> {
    heap.finish_journal_epoch();
    Ok(())
}

fn probe_define_class(heap: &mut Heap, p: &MutationProbe<'_>) -> Result<(), HeapError> {
    let name = format!("probe.Cls{:x}", p.salt);
    heap.define_class(&name, None, &[("p", FieldType::Int)])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassRegistry;

    fn world() -> (Heap, Vec<ObjectId>, Vec<ObjectId>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 0, Value::Int(7)).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        let garbage = vec![heap.alloc(node).unwrap()];
        (heap, vec![head], garbage)
    }

    #[test]
    fn catalog_matches_the_public_mutator_list_exactly() {
        let catalog = MutationCatalog::of_heap();
        let names: Vec<&str> = catalog.entries().iter().map(|e| e.name).collect();
        assert_eq!(names, PUBLIC_MUTATORS, "catalog and PUBLIC_MUTATORS must list the same ops");
    }

    #[test]
    fn every_probe_applies_cleanly() {
        let catalog = MutationCatalog::of_heap();
        for entry in catalog.entries() {
            let (mut heap, roots, garbage) = world();
            let targets: Vec<ObjectId> = crate::graph::reachable_from(&heap, &roots).unwrap();
            let seed = Some(targets[0]);
            let probe = MutationProbe {
                roots: &roots,
                targets: &targets,
                garbage: &garbage,
                seed,
                salt: 0xC0FFEE,
            };
            (entry.apply)(&mut heap, &probe)
                .unwrap_or_else(|e| panic!("probe for {} failed: {e}", entry.name));
        }
    }

    #[test]
    fn without_removes_exactly_one_entry() {
        let catalog = MutationCatalog::of_heap();
        let pruned = catalog.without("set_field");
        assert_eq!(pruned.entries().len(), catalog.entries().len() - 1);
        assert!(pruned.get("set_field").is_none());
        assert!(pruned.get("alloc").is_some());
    }
}
