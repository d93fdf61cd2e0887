//! Barrier-coverage pass: statically prove the dirty-set journal sound.
//!
//! The journal fast path and the shard-plan repair rest on four
//! obligations every heap mutator must honour (see
//! `ickp_heap::MutationCatalog`): byte changes are journaled, shape
//! changes bump `structure_version`, dirty state is only cleared by the
//! checkpoint protocol, and every reference store and free is named in
//! the structural log. This pass abstract-interprets
//! a mutation catalog against that protocol from two sides:
//!
//! * **declarations** — the registered [`DeclaredEffect`] bits must be
//!   internally consistent with the protocol (a mutator that declares
//!   byte changes must declare journaling, …);
//! * **probes** — each mutator's canonical probe runs on a scratch clone
//!   of the audited heap prepared at a clean epoch boundary, and the
//!   observed footprint (byte diffs, shape diffs, flag transitions,
//!   version/epoch deltas) must match what was declared.
//!
//! Under-declarations and protocol breaches are errors (`AUD301`,
//! `AUD302`, `AUD304`, `AUD306`, `AUD307`); over-journaling and
//! over-declaration are lints (`AUD303`, `AUD305`). The dynamic half,
//! [`cross_validate_barriers`], replays randomized mutation sequences
//! through the same [`MutatorSpec`] trait and checks journal ⊇ ground
//! truth (byte-diff against a pre-op snapshot), version-bump exactness,
//! log coverage, epoch discipline, and the O(1) live-dirty counter, step
//! by step.

#![deny(missing_docs)]

use crate::diag::{AuditReport, DiagCode, Diagnostic, Location, Severity};
use crate::soundness::RECORD_HEADER_BYTES;
use ickp_core::journal_dirty_set;
use ickp_heap::{
    reachable_from, DeclaredEffect, DirtyScope, Heap, HeapError, MutationCatalog, MutationProbe,
    MutatorDecl, ObjectId, StructureEvent, Value, PUBLIC_MUTATORS,
};
use std::collections::{HashMap, HashSet};

/// Fixed salt for deterministic single-shot probes.
const PROBE_SALT: u64 = 0x1CEB_00DA;

/// A heap mutator as the barrier audit sees it: a name, a declared
/// checkpoint effect, and a way to run one representative invocation.
///
/// [`MutatorDecl`] (the real catalog's entries) implements this. The
/// trait exists because a *sound* heap cannot even express the failure
/// modes the audit must detect — a store that skips the journal, an
/// epoch cleared mid-mutation — so injection tests provide their own
/// broken implementations.
pub trait MutatorSpec {
    /// The mutator's name (matched against
    /// [`PUBLIC_MUTATORS`] for the exhaustiveness check).
    fn name(&self) -> &str;
    /// The declared footprint.
    fn effect(&self) -> DeclaredEffect;
    /// Applies one invocation to `heap`, picking operands from `probe`.
    fn apply(&self, heap: &mut Heap, probe: &MutationProbe<'_>) -> Result<(), HeapError>;
}

impl MutatorSpec for MutatorDecl {
    fn name(&self) -> &str {
        self.name
    }
    fn effect(&self) -> DeclaredEffect {
        self.effect
    }
    fn apply(&self, heap: &mut Heap, probe: &MutationProbe<'_>) -> Result<(), HeapError> {
        (self.apply)(heap, probe)
    }
}

/// The observed footprint of one mutator's probe run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierProbe {
    /// The mutator's name.
    pub name: String,
    /// Live-post objects whose encoded bytes changed (including fresh
    /// allocations, which the next checkpoint must record).
    pub bytes_changed: usize,
    /// Clean→dirty transitions among live-post objects.
    pub dirtied: usize,
    /// Byte-changed live objects that ended the probe *not* both modified
    /// and journaled — the under-journaling count behind `AUD301`.
    pub unjournaled_writes: usize,
    /// Whether the probe changed graph shape (membership or a reference
    /// slot).
    pub structure_changed: bool,
    /// Whether `structure_version` changed.
    pub version_bumped: bool,
    /// Objects whose reference slots changed, or that were freed, without
    /// the structural log naming them — the count behind `AUD307`. Zero
    /// when the log answers "unknown", which is always safe.
    pub unlogged_shape_changes: usize,
    /// Dirty→clean transitions among objects live on both sides.
    pub cleared_dirty: usize,
    /// Whether the journal epoch advanced.
    pub epoch_advanced: bool,
    /// Whether every live object was modified after the probe (the
    /// `DirtyScope::AllLive` obligation).
    pub all_dirty_post: bool,
}

/// The result of [`audit_barriers`]: per-mutator observed footprints plus
/// the diagnostic report.
#[derive(Debug, Clone)]
pub struct BarrierAudit {
    /// Observed footprints, one per audited spec (empty if the heap had
    /// no reachable probe targets).
    pub probes: Vec<BarrierProbe>,
    /// The findings.
    pub report: AuditReport,
}

/// Audits the real heap catalog against the barrier protocol on `heap`.
///
/// Convenience wrapper over [`audit_barriers_with`] for the common case.
///
/// # Errors
///
/// Returns [`HeapError`] if `roots` dangle or a probe fails to apply —
/// harness failures, distinct from audit findings.
pub fn audit_barriers(
    heap: &Heap,
    roots: &[ObjectId],
    catalog: &MutationCatalog,
) -> Result<BarrierAudit, HeapError> {
    let specs: Vec<&dyn MutatorSpec> =
        catalog.entries().iter().map(|e| e as &dyn MutatorSpec).collect();
    audit_barriers_with(heap, roots, &specs)
}

/// Audits an arbitrary set of mutator specs against the barrier protocol.
///
/// Runs the declaration-consistency checks, one probe per spec on a fresh
/// scratch clone of `heap` (prepared at a clean epoch boundary, with a
/// pre-dirtied seed object and sacrificial garbage so every footprint is
/// demonstrable), and the `PUBLIC_MUTATORS` exhaustiveness check. Specs
/// with names outside the public-mutator list are allowed (client-defined
/// mutators audit fine); public mutators *missing* from `specs` are
/// `AUD306` errors.
///
/// # Errors
///
/// Returns [`HeapError`] if `roots` dangle or a probe fails to apply.
pub fn audit_barriers_with(
    heap: &Heap,
    roots: &[ObjectId],
    specs: &[&dyn MutatorSpec],
) -> Result<BarrierAudit, HeapError> {
    let mut report = AuditReport::new();
    let mut probes = Vec::new();

    // AUD303 quantification: what an all-identical-write epoch would cost
    // on *this* heap if every reachable object were re-journaled.
    let reachable = reachable_from(heap, roots)?;
    let mut wasted_bytes = 0usize;
    for &id in &reachable {
        let def = heap.class(heap.class_of(id)?)?;
        wasted_bytes += RECORD_HEADER_BYTES + def.encoded_state_size();
    }

    for spec in specs {
        let effect = spec.effect();
        let at = || Location::Mutator(spec.name().to_string());

        // --- Declaration-consistency checks -------------------------------
        if effect.bytes_may_change && !effect.journals_dirty && !effect.restore_exempt {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::BarrierUnjournaledWrite,
                    at(),
                    "declares that it can change encoded bytes but not that it journals \
                     the objects it dirties: incremental checkpoints would miss its writes",
                )
                .with_suggestion("route the store through the write barrier (`set_field`)"),
            );
        }
        if effect.structure_may_change && !effect.bumps_structure_version {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::BarrierMissedVersionBump,
                    at(),
                    "declares that it can change reachability or traversal order without \
                     bumping `structure_version`: a cached `JournalCache` would replay a \
                     stale pre-order",
                )
                .with_suggestion("bump the structure version on every shape change"),
            );
        }
        if effect.structure_may_change && !effect.logs_structure {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::BarrierUnloggedShapeChange,
                    at(),
                    "declares that it can change the graph's shape without naming the \
                     writer or the freed object in the structural log: a repaired shard \
                     plan would miss the change",
                )
                .with_suggestion(
                    "route reference stores through `set_field` and frees through `free`",
                ),
            );
        }
        if (effect.clears_dirty || effect.clears_epoch) && !effect.checkpoint_protocol {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::BarrierEpochTamper,
                    at(),
                    "clears dirty flags or the journal epoch outside the checkpoint \
                     protocol: modifications recorded by no checkpoint would be marked clean",
                )
                .with_suggestion("only the record → reset → finish-epoch sequence may clear"),
            );
        }
        if effect.bytes_may_change && effect.journals_unchanged {
            report.push(Diagnostic::new(
                Severity::PerfLint,
                DiagCode::BarrierOverJournaling,
                at(),
                format!(
                    "journals byte-identical writes (unconditional barrier): an \
                     all-identical-write epoch over the {} reachable object(s) would \
                     re-encode ~{} byte(s) of unchanged state on the fast path",
                    reachable.len(),
                    wasted_bytes
                ),
            ));
        }

        // --- Probe-observed checks ----------------------------------------
        if reachable.is_empty() {
            continue; // nothing to probe against; declaration checks stand
        }
        let observed = run_probe(heap, roots, *spec)?;
        if observed.unjournaled_writes > 0 && !effect.restore_exempt {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::BarrierUnjournaledWrite,
                    at(),
                    format!(
                        "probe changed the bytes of {} object(s) that ended the operation \
                         unmodified or unjournaled: the journal fast path would miss them",
                        observed.unjournaled_writes
                    ),
                )
                .with_suggestion("route the store through the write barrier (`set_field`)"),
            );
        }
        if observed.structure_changed && !observed.version_bumped {
            report.push(Diagnostic::new(
                Severity::Error,
                DiagCode::BarrierMissedVersionBump,
                at(),
                "probe changed graph shape without a `structure_version` bump: cached \
                 traversal orders would go stale undetected",
            ));
        }
        if observed.unlogged_shape_changes > 0 {
            report.push(Diagnostic::new(
                Severity::Error,
                DiagCode::BarrierUnloggedShapeChange,
                at(),
                format!(
                    "probe rewired or freed {} object(s) the structural log does not name: \
                     a repaired shard plan would keep their old owners",
                    observed.unlogged_shape_changes
                ),
            ));
        }
        if (observed.cleared_dirty > 0 || observed.epoch_advanced) && !effect.checkpoint_protocol {
            report.push(Diagnostic::new(
                Severity::Error,
                DiagCode::BarrierEpochTamper,
                at(),
                format!(
                    "probe cleared {} dirty flag(s){} outside the checkpoint protocol",
                    observed.cleared_dirty,
                    if observed.epoch_advanced { " and advanced the journal epoch" } else { "" }
                ),
            ));
        }
        if effect.bytes_may_change && observed.bytes_changed == 0 {
            report.push(over_declared(at(), "byte changes", "changed no object's bytes"));
        }
        if effect.structure_may_change && !observed.structure_changed {
            report.push(over_declared(at(), "shape changes", "changed no graph shape"));
        }
        if effect.dirties == DirtyScope::AllLive && !observed.all_dirty_post {
            report.push(over_declared(
                at(),
                "dirtying every live object",
                "left some live objects clean",
            ));
        }
        probes.push(observed);
    }

    // --- Exhaustiveness (AUD306) ------------------------------------------
    for &name in PUBLIC_MUTATORS {
        if !specs.iter().any(|s| s.name() == name) {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::BarrierUncataloged,
                    Location::Mutator(name.to_string()),
                    "public heap mutator is absent from the audited catalog: nothing \
                     proves its barrier obligations",
                )
                .with_suggestion("register it in `MutationCatalog::of_heap` with its effect"),
            );
        }
    }

    Ok(BarrierAudit { probes, report })
}

fn over_declared(at: Location, declared: &str, observed: &str) -> Diagnostic {
    Diagnostic::new(
        Severity::PerfLint,
        DiagCode::BarrierOverDeclaredEffect,
        at,
        format!(
            "declares {declared} but its probe {observed}: the declared effect is wider \
             than the demonstrated footprint"
        ),
    )
    .with_suggestion("narrow the `DeclaredEffect` (or widen the probe)")
}

/// One live object's captured state: fields plus barrier flags.
#[derive(Debug, Clone)]
struct ObjSnap {
    fields: Box<[Value]>,
    modified: bool,
    journaled: bool,
}

fn capture(heap: &Heap) -> HashMap<ObjectId, ObjSnap> {
    heap.iter_live()
        .map(|id| {
            let obj = heap.object(id).expect("iter_live yields live handles");
            (
                id,
                ObjSnap {
                    fields: obj.fields().to_vec().into_boxed_slice(),
                    modified: obj.info().modified(),
                    journaled: obj.info().journaled(),
                },
            )
        })
        .collect()
}

/// Bit-exact value equality (doubles compared by bits, so NaNs and signed
/// zeros diff exactly like the checkpoint stream does).
fn value_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn is_ref(v: Value) -> bool {
    matches!(v, Value::Ref(_))
}

/// Objects live before an operation whose reference slots it changed, or
/// that it freed, without the structural log since `pre_version` naming
/// them. An unknown log (`None`) forces a plan rebuild, so it hides
/// nothing and counts zero.
fn unlogged_shape_changes(
    heap: &Heap,
    pre_version: u64,
    pre: &HashMap<ObjectId, ObjSnap>,
    post: &HashMap<ObjectId, ObjSnap>,
) -> usize {
    let Some(changes) = heap.structure_changes_since(pre_version) else {
        return 0;
    };
    let logged: HashSet<StructureEvent> = changes.iter().copied().collect();
    pre.iter()
        .filter(|(&id, was)| match post.get(&id) {
            None => !logged.contains(&StructureEvent::Free(id)),
            Some(now) => {
                let rewired = was
                    .fields
                    .iter()
                    .zip(now.fields.iter())
                    .any(|(&a, &b)| is_ref(a) && !value_eq(a, b));
                rewired && !logged.contains(&StructureEvent::Store(id))
            }
        })
        .count()
}

/// Clones `heap`, prepares it at a clean epoch boundary with sacrificial
/// garbage and a pre-dirtied seed, and runs one probe of `spec`.
fn run_probe(
    heap: &Heap,
    roots: &[ObjectId],
    spec: &dyn MutatorSpec,
) -> Result<BarrierProbe, HeapError> {
    let mut scratch = heap.clone();
    // Sacrificial garbage: victims for `free`/`collect` probes, allocated
    // *before* the baseline reset so they start clean like everything else.
    let targets = reachable_from(&scratch, roots)?;
    let annex_class = scratch.class_of(targets[0])?;
    let garbage = vec![scratch.alloc(annex_class)?, scratch.alloc(annex_class)?];
    // Clean epoch boundary: exactly the state right after a checkpoint.
    scratch.reset_all_modified();
    scratch.finish_journal_epoch();
    // One pre-dirtied object so clearing probes have something to clear.
    let seed = targets.first().copied();
    if let Some(s) = seed {
        scratch.set_modified(s)?;
    }

    let pre = capture(&scratch);
    let pre_version = scratch.structure_version();
    let pre_epoch = scratch.journal_epoch();

    let probe =
        MutationProbe { roots, targets: &targets, garbage: &garbage, seed, salt: PROBE_SALT };
    spec.apply(&mut scratch, &probe)?;

    let post = capture(&scratch);
    let mut observed = BarrierProbe {
        name: spec.name().to_string(),
        bytes_changed: 0,
        dirtied: 0,
        unjournaled_writes: 0,
        structure_changed: false,
        version_bumped: scratch.structure_version() != pre_version,
        unlogged_shape_changes: unlogged_shape_changes(&scratch, pre_version, &pre, &post),
        cleared_dirty: 0,
        epoch_advanced: scratch.journal_epoch() != pre_epoch,
        all_dirty_post: post.values().all(|s| s.modified),
    };
    for (id, snap) in &post {
        match pre.get(id) {
            None => {
                // Fresh object: the next checkpoint must record it.
                observed.bytes_changed += 1;
                observed.structure_changed = true;
                if snap.modified {
                    observed.dirtied += 1;
                }
                if !(snap.modified && snap.journaled) {
                    observed.unjournaled_writes += 1;
                }
            }
            Some(was) => {
                let changed =
                    !was.fields.iter().zip(snap.fields.iter()).all(|(&a, &b)| value_eq(a, b));
                let ref_changed = was
                    .fields
                    .iter()
                    .zip(snap.fields.iter())
                    .any(|(&a, &b)| is_ref(a) && !value_eq(a, b));
                if changed {
                    observed.bytes_changed += 1;
                    if !(snap.modified && snap.journaled) {
                        observed.unjournaled_writes += 1;
                    }
                }
                if ref_changed {
                    observed.structure_changed = true;
                }
                if !was.modified && snap.modified {
                    observed.dirtied += 1;
                }
                if was.modified && !snap.modified {
                    observed.cleared_dirty += 1;
                }
            }
        }
    }
    if pre.keys().any(|id| !post.contains_key(id)) {
        observed.structure_changed = true; // something was freed
    }
    Ok(observed)
}

/// The verdict of [`cross_validate_barriers`]: per-violation counters over
/// a randomized mutation sequence.
#[derive(Debug, Clone, Default)]
pub struct BarrierOracleReport {
    /// Steps requested.
    pub steps: usize,
    /// Mutations actually applied.
    pub ops_applied: usize,
    /// Byte-changed live objects left unmodified or unjournaled — journal
    /// ⊉ ground truth.
    pub under_journaled: usize,
    /// Traversal-order changes without a `structure_version` change.
    pub missed_version_bumps: usize,
    /// `structure_version` changes with an unchanged traversal order
    /// (allowed — the version is conservative — but counted).
    pub conservative_bumps: usize,
    /// Rewired or freed objects the structural log did not name.
    pub unlogged_shape_changes: usize,
    /// Dirty flags cleared or epochs advanced by non-protocol operations.
    pub epoch_violations: usize,
    /// Steps where `Heap::live_dirty` disagreed with a ground-truth scan.
    pub counter_mismatches: usize,
    /// Checkpoint-protocol windows closed during the run.
    pub windows_closed: usize,
    /// Human-readable renderings of the first few violations.
    pub violations: Vec<String>,
}

impl BarrierOracleReport {
    /// `true` if the dynamic run confirms the protocol: no soundness
    /// violation of any kind (conservative version bumps are fine).
    pub fn is_consistent(&self) -> bool {
        self.under_journaled == 0
            && self.missed_version_bumps == 0
            && self.unlogged_shape_changes == 0
            && self.epoch_violations == 0
            && self.counter_mismatches == 0
    }

    /// Renders the verdict as one line.
    pub fn render(&self) -> String {
        format!(
            "{} op(s)/{} step(s), {} window(s): {} under-journaled, {} missed bump(s) \
             ({} conservative), {} unlogged shape change(s), {} epoch violation(s), \
             {} counter mismatch(es) => {}",
            self.ops_applied,
            self.steps,
            self.windows_closed,
            self.under_journaled,
            self.missed_version_bumps,
            self.conservative_bumps,
            self.unlogged_shape_changes,
            self.epoch_violations,
            self.counter_mismatches,
            if self.is_consistent() { "consistent" } else { "INCONSISTENT" }
        )
    }

    fn violation(&mut self, step: usize, name: &str, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(format!("step {step} ({name}): {what}"));
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Dynamic half of the barrier audit: replays `steps` randomized
/// mutations (drawn from `specs`, restore-path ops excluded) on a scratch
/// clone of `heap`, and checks after every step that
///
/// * **journal ⊇ truth** — every live object whose bytes differ from the
///   pre-op snapshot is modified *and* journaled;
/// * **version-bump exactness** — any change of the depth-first traversal
///   order comes with a `structure_version` change (extra conservative
///   bumps are counted, not flagged);
/// * **log coverage** — every object whose reference slots changed, and
///   every freed object, is named in the structural log (unless the log
///   answers "unknown");
/// * **epoch discipline** — dirty flags and the epoch only move under
///   checkpoint-protocol ops;
/// * **the live-dirty counter** — [`Heap::live_dirty`] equals a
///   ground-truth scan of modified live objects.
///
/// Every eight steps the checkpoint protocol closes the epoch window the
/// way a real checkpointer does (reset recorded flags, finish the epoch),
/// so epoch transitions are exercised too.
///
/// # Errors
///
/// Returns [`HeapError`] only for harness failures (dangling roots, a
/// probe that errors); protocol violations go in the report.
pub fn cross_validate_barriers(
    heap: &Heap,
    roots: &[ObjectId],
    specs: &[&dyn MutatorSpec],
    steps: usize,
    seed: u64,
) -> Result<BarrierOracleReport, HeapError> {
    let ops: Vec<&dyn MutatorSpec> =
        specs.iter().copied().filter(|s| !s.effect().restore_exempt).collect();
    let mut report = BarrierOracleReport { steps, ..BarrierOracleReport::default() };
    if ops.is_empty() {
        return Ok(report);
    }
    let mut scratch = heap.clone();
    let mut rng = seed ^ 0xA5A5_5A5A_C3C3_3C3C;

    for step in 0..steps {
        let pre = capture(&scratch);
        let pre_order = reachable_from(&scratch, roots)?;
        let pre_version = scratch.structure_version();
        let pre_epoch = scratch.journal_epoch();
        if pre_order.is_empty() {
            break; // the graph mutated itself empty; nothing left to validate
        }

        let spec = ops[(splitmix(&mut rng) as usize) % ops.len()];
        let effect = spec.effect();

        // Randomize operand choice by rotating the deterministic pickers'
        // preference order.
        let rot = (splitmix(&mut rng) as usize) % pre_order.len();
        let mut targets = Vec::with_capacity(pre_order.len());
        targets.extend_from_slice(&pre_order[rot..]);
        targets.extend_from_slice(&pre_order[..rot]);
        let reachable_now: std::collections::HashSet<ObjectId> =
            pre_order.iter().copied().collect();
        let garbage: Vec<ObjectId> =
            scratch.iter_live().filter(|id| !reachable_now.contains(id)).collect();
        let dirty_seed = scratch.iter_live().find(|&id| scratch.is_modified(id).unwrap_or(false));
        let probe = MutationProbe {
            roots,
            targets: &targets,
            garbage: &garbage,
            seed: dirty_seed,
            salt: splitmix(&mut rng) | 1,
        };
        spec.apply(&mut scratch, &probe)?;
        report.ops_applied += 1;

        let post = capture(&scratch);
        let post_order = reachable_from(&scratch, roots)?;

        // Journal ⊇ truth: byte diffs must be flagged and journaled.
        for (id, snap) in &post {
            let changed = match pre.get(id) {
                None => true,
                Some(was) => {
                    !was.fields.iter().zip(snap.fields.iter()).all(|(&a, &b)| value_eq(a, b))
                }
            };
            if changed && !(snap.modified && snap.journaled) {
                report.under_journaled += 1;
                report.violation(step, spec.name(), "byte change left unjournaled".into());
            }
            if snap.modified && !snap.journaled {
                report.under_journaled += 1;
                report.violation(step, spec.name(), "modified object missing from journal".into());
            }
        }

        // Version-bump exactness.
        let order_changed = pre_order != post_order;
        let version_changed = scratch.structure_version() != pre_version;
        if order_changed && !version_changed {
            report.missed_version_bumps += 1;
            report.violation(step, spec.name(), "traversal order changed, version did not".into());
        }
        if !order_changed && version_changed {
            report.conservative_bumps += 1;
        }

        // Log coverage: every rewire and free is named.
        let unlogged = unlogged_shape_changes(&scratch, pre_version, &pre, &post);
        if unlogged > 0 {
            report.unlogged_shape_changes += unlogged;
            report.violation(step, spec.name(), format!("{unlogged} shape change(s) unlogged"));
        }

        // Epoch discipline.
        let epoch_moved = scratch.journal_epoch() != pre_epoch;
        let cleared = post.iter().any(|(id, snap)| {
            !snap.modified && pre.get(id).map(|was| was.modified).unwrap_or(false)
        });
        if (epoch_moved || cleared) && !effect.checkpoint_protocol {
            report.epoch_violations += 1;
            report.violation(step, spec.name(), "dirty state cleared outside protocol".into());
        }

        // The O(1) counter vs a ground-truth scan.
        let truth_dirty = post.values().filter(|s| s.modified).count();
        if scratch.live_dirty() != truth_dirty || scratch.journal_has_dirty() != (truth_dirty > 0) {
            report.counter_mismatches += 1;
            report.violation(
                step,
                spec.name(),
                format!("live_dirty {} != ground truth {truth_dirty}", scratch.live_dirty()),
            );
        }

        // Close the epoch window the way a checkpointer does.
        if step % 8 == 7 {
            let recorded: Vec<ObjectId> = journal_dirty_set(&scratch)
                .into_iter()
                .filter(|id| post_order.contains(id))
                .collect();
            for id in recorded {
                scratch.reset_modified(id)?;
            }
            scratch.finish_journal_epoch();
            report.windows_closed += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_heap::{ClassRegistry, FieldType};

    fn world() -> (Heap, Vec<ObjectId>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[("v", FieldType::Int), ("w", FieldType::Double), ("next", FieldType::Ref(None))],
            )
            .unwrap();
        let mut heap = Heap::new(reg);
        let mut next = None;
        let mut head = None;
        for i in 0..6 {
            let id = heap.alloc(node).unwrap();
            heap.set_field(id, 0, Value::Int(i)).unwrap();
            heap.set_field(id, 2, Value::Ref(next)).unwrap();
            next = Some(id);
            head = Some(id);
        }
        (heap, vec![head.unwrap()])
    }

    #[test]
    fn the_real_catalog_audits_clean() {
        let (heap, roots) = world();
        let audit = audit_barriers(&heap, &roots, &MutationCatalog::of_heap()).unwrap();
        assert!(!audit.report.has_errors(), "{}", audit.report.render());
        assert_eq!(audit.probes.len(), PUBLIC_MUTATORS.len());
        // The unconditional barrier is linted, quantified, and that is all.
        assert!(audit
            .report
            .diagnostics()
            .iter()
            .all(|d| d.code == DiagCode::BarrierOverJournaling));
        assert!(audit.report.count(Severity::PerfLint) >= 2, "set_field + set_field_named");
    }

    #[test]
    fn a_pruned_catalog_trips_aud306_and_nothing_else_new() {
        let (heap, roots) = world();
        let pruned = MutationCatalog::of_heap().without("set_modified");
        let audit = audit_barriers(&heap, &roots, &pruned).unwrap();
        assert!(audit.report.has_errors());
        let offenders: Vec<_> =
            audit.report.diagnostics().iter().filter(|d| d.severity == Severity::Error).collect();
        assert_eq!(offenders.len(), 1);
        assert_eq!(offenders[0].code, DiagCode::BarrierUncataloged);
        assert_eq!(offenders[0].location, Location::Mutator("set_modified".into()));
    }

    #[test]
    fn cross_validation_confirms_the_real_catalog() {
        let (heap, roots) = world();
        let catalog = MutationCatalog::of_heap();
        let specs: Vec<&dyn MutatorSpec> =
            catalog.entries().iter().map(|e| e as &dyn MutatorSpec).collect();
        let report = cross_validate_barriers(&heap, &roots, &specs, 64, 0xFEED).unwrap();
        assert!(report.is_consistent(), "{}", report.render());
        assert!(report.ops_applied > 0);
        assert!(report.windows_closed > 0, "epoch transitions must be exercised");
    }
}
