//! The barrier-coverage pass end to end: the real mutator catalog proves
//! clean on chain worlds and at synthetic paper scale, each documented
//! `AUD30x` failure mode is pinned on an injected broken spec, and the
//! dynamic cross-validator agrees with the static verdict — consistent
//! for the real catalog across many seeds, inconsistent the moment a
//! barrier-skipping mutator joins the mix.

use ickp_audit::{
    audit_barriers, audit_barriers_with, cross_validate_barriers, DiagCode, Location, MutatorSpec,
    Severity,
};
use ickp_heap::{
    ClassRegistry, DeclaredEffect, DirtyScope, FieldType, Heap, HeapError, MutationCatalog,
    MutationProbe, ObjectId, Value,
};
use ickp_synth::{SynthConfig, SynthWorld};

/// A linked-chain world with scalar and reference slots on every node.
fn world(n: i32) -> (Heap, Vec<ObjectId>) {
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
    for i in 0..n {
        let id = heap.alloc(node).unwrap();
        heap.set_field(id, 0, Value::Int(i)).unwrap();
        heap.set_field(id, 1, Value::Double(f64::from(i) * 0.5)).unwrap();
        heap.set_field(id, 2, Value::Ref(next)).unwrap();
        next = Some(id);
        head = Some(id);
    }
    (heap, vec![head.unwrap()])
}

/// A mutator spec under the auditor's full control: injection tests use it
/// to express the barrier breakages the sound heap API cannot.
struct Injected {
    name: &'static str,
    effect: DeclaredEffect,
    apply: fn(&mut Heap, &MutationProbe<'_>) -> Result<(), HeapError>,
}

impl MutatorSpec for Injected {
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

/// First probe target that is not the pre-dirtied seed (writing to the
/// seed would be invisibly absorbed by its existing dirty flags).
fn non_seed_target(probe: &MutationProbe<'_>) -> ObjectId {
    probe.targets.iter().copied().find(|&t| Some(t) != probe.seed).expect("world has >= 2 nodes")
}

fn catalog_specs(catalog: &MutationCatalog) -> Vec<&dyn MutatorSpec> {
    catalog.entries().iter().map(|e| e as &dyn MutatorSpec).collect()
}

fn errors_of(report: &ickp_audit::AuditReport) -> Vec<DiagCode> {
    report.diagnostics().iter().filter(|d| d.severity == Severity::Error).map(|d| d.code).collect()
}

/// **Acceptance criterion**: zero false positives on the real heap — the
/// shipped catalog audits with no `AUD301`/`AUD302`/`AUD304`/`AUD306`/`AUD307`
/// on a chain world and at synthetic paper scale.
#[test]
fn the_real_catalog_is_clean_on_chain_and_paper_worlds() {
    let (heap, roots) = world(8);
    let synth = SynthWorld::build(SynthConfig::small()).unwrap();
    for (heap, roots) in [(&heap, roots.as_slice()), (synth.heap(), synth.roots())] {
        let audit = audit_barriers(heap, roots, &MutationCatalog::of_heap()).unwrap();
        assert!(!audit.report.has_errors(), "{}", audit.report.render());
        // The only findings are the quantified over-journaling lints for
        // the unconditional write barrier.
        for d in audit.report.diagnostics() {
            assert_eq!(d.code, DiagCode::BarrierOverJournaling, "{}", audit.report.render());
            assert_eq!(d.severity, Severity::PerfLint);
        }
    }
}

/// **Injection: missed write barrier.** A mutator that stores through
/// `set_field_unbarriered` while declaring itself a journaling writer is
/// pinned to exactly `AUD301`.
#[test]
fn a_barrier_skipping_store_trips_aud301() {
    let (heap, roots) = world(6);
    let rogue = Injected {
        name: "rogue_store",
        effect: DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            journals_dirty: true, // the lie: claims the barrier runs
            ..DeclaredEffect::default()
        },
        apply: |heap, probe| {
            // Scalar store so no structure bump muddies the verdict.
            heap.set_field_unbarriered(non_seed_target(probe), 0, Value::Int(probe.salt as i32 | 1))
        },
    };
    let catalog = MutationCatalog::of_heap();
    let mut specs = catalog_specs(&catalog);
    specs.push(&rogue);
    let audit = audit_barriers_with(&heap, &roots, &specs).unwrap();
    assert_eq!(errors_of(&audit.report), vec![DiagCode::BarrierUnjournaledWrite]);
    let offender =
        audit.report.diagnostics().iter().find(|d| d.severity == Severity::Error).unwrap();
    assert_eq!(offender.location, Location::Mutator("rogue_store".into()));
    let probe = audit.probes.iter().find(|p| p.name == "rogue_store").unwrap();
    assert_eq!(probe.unjournaled_writes, 1);
    assert!(!probe.version_bumped);
}

/// **Injection: missed version bump.** The sound heap API cannot even
/// express a shape change without a bump — which is exactly why the
/// declaration-side check exists. A spec declaring `structure_may_change`
/// without `bumps_structure_version` is pinned to `AUD302`.
#[test]
fn a_declared_silent_rewire_trips_aud302() {
    let (heap, roots) = world(6);
    let rewire = Injected {
        name: "silent_rewire",
        effect: DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            structure_may_change: true,
            journals_dirty: true,
            bumps_structure_version: false, // the breach
            logs_structure: true,
            ..DeclaredEffect::default()
        },
        apply: |heap, probe| heap.set_field(non_seed_target(probe), 2, Value::Ref(None)),
    };
    let catalog = MutationCatalog::of_heap();
    let mut specs = catalog_specs(&catalog);
    specs.push(&rewire);
    let audit = audit_barriers_with(&heap, &roots, &specs).unwrap();
    assert_eq!(errors_of(&audit.report), vec![DiagCode::BarrierMissedVersionBump]);
}

/// **Injection: unlogged shape change.** The sound heap API logs every
/// reference store, so — as for `AUD302` — the declaration side is what
/// catches a mutator that would rewire the graph behind the structural
/// log. A spec declaring `structure_may_change` without `logs_structure`
/// is pinned to `AUD307`, and its honest probe proves the real store
/// path logged the rewire.
#[test]
fn a_declared_unlogged_rewire_trips_aud307() {
    let (heap, roots) = world(6);
    let rewire = Injected {
        name: "unlogged_rewire",
        effect: DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            structure_may_change: true,
            journals_dirty: true,
            bumps_structure_version: true,
            logs_structure: false, // the breach
            ..DeclaredEffect::default()
        },
        apply: |heap, probe| heap.set_field(non_seed_target(probe), 2, Value::Ref(None)),
    };
    let catalog = MutationCatalog::of_heap();
    let mut specs = catalog_specs(&catalog);
    specs.push(&rewire);
    let audit = audit_barriers_with(&heap, &roots, &specs).unwrap();
    assert_eq!(errors_of(&audit.report), vec![DiagCode::BarrierUnloggedShapeChange]);
    let probe = audit.probes.iter().find(|p| p.name == "unlogged_rewire").unwrap();
    assert!(probe.structure_changed && probe.version_bumped);
    assert_eq!(probe.unlogged_shape_changes, 0, "set_field logs its writer");
}

/// **Injection: premature epoch clear.** A mutator that resets dirty
/// flags and finishes the journal epoch without being part of the
/// checkpoint protocol is pinned to `AUD304` by its observed probe.
#[test]
fn an_eager_epoch_reset_trips_aud304() {
    let (heap, roots) = world(6);
    let eager = Injected {
        name: "eager_reset",
        effect: DeclaredEffect::default(), // claims to touch nothing
        apply: |heap, probe| {
            if let Some(seed) = probe.seed {
                heap.reset_modified(seed)?;
            }
            heap.finish_journal_epoch();
            Ok(())
        },
    };
    let catalog = MutationCatalog::of_heap();
    let mut specs = catalog_specs(&catalog);
    specs.push(&eager);
    let audit = audit_barriers_with(&heap, &roots, &specs).unwrap();
    assert_eq!(errors_of(&audit.report), vec![DiagCode::BarrierEpochTamper]);
    let probe = audit.probes.iter().find(|p| p.name == "eager_reset").unwrap();
    assert_eq!(probe.cleared_dirty, 1, "the pre-dirtied seed was wiped");
    assert!(probe.epoch_advanced);
}

/// **Injection: uncataloged mutator.** Dropping one public mutator from
/// the audited catalog is pinned to exactly one `AUD306`, naming it.
#[test]
fn an_uncataloged_public_mutator_trips_aud306() {
    let (heap, roots) = world(6);
    let pruned = MutationCatalog::of_heap().without("mark_all_modified");
    let audit = audit_barriers(&heap, &roots, &pruned).unwrap();
    assert_eq!(errors_of(&audit.report), vec![DiagCode::BarrierUncataloged]);
    let offender =
        audit.report.diagnostics().iter().find(|d| d.severity == Severity::Error).unwrap();
    assert_eq!(offender.location, Location::Mutator("mark_all_modified".into()));
}

/// **Lint pin: over-journaling.** The unconditional write barrier is
/// linted as `AUD303`, quantified in the records and bytes an
/// all-identical-write epoch would waste on this exact heap.
#[test]
fn the_unconditional_barrier_is_quantified_as_aud303() {
    let (heap, roots) = world(8);
    let audit = audit_barriers(&heap, &roots, &MutationCatalog::of_heap()).unwrap();
    let lints: Vec<_> = audit
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.code == DiagCode::BarrierOverJournaling)
        .collect();
    assert!(lints.len() >= 2, "set_field and set_field_named both journal unconditionally");
    for lint in lints {
        assert_eq!(lint.severity, Severity::PerfLint);
        assert!(lint.message.contains("8 reachable object(s)"), "{}", lint.message);
    }
}

/// **Lint pin: over-declared effect.** A spec declaring byte changes,
/// shape changes, and an all-live dirty scope while doing nothing at all
/// collects all three `AUD305` over-declaration lints — and no errors.
#[test]
fn a_braggart_spec_collects_all_three_aud305_lints() {
    let (heap, roots) = world(6);
    let braggart = Injected {
        name: "braggart",
        effect: DeclaredEffect {
            dirties: DirtyScope::AllLive,
            bytes_may_change: true,
            structure_may_change: true,
            journals_dirty: true,
            bumps_structure_version: true,
            logs_structure: true,
            ..DeclaredEffect::default()
        },
        apply: |_, _| Ok(()),
    };
    let catalog = MutationCatalog::of_heap();
    let mut specs = catalog_specs(&catalog);
    specs.push(&braggart);
    let audit = audit_barriers_with(&heap, &roots, &specs).unwrap();
    assert!(!audit.report.has_errors(), "{}", audit.report.render());
    let overs = audit
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.code == DiagCode::BarrierOverDeclaredEffect)
        .count();
    assert_eq!(overs, 3, "{}", audit.report.render());
}

/// **Acceptance criterion**: the dynamic oracle confirms the static
/// verdict for the real catalog — randomized mutation sequences on both
/// worlds, many seeds, zero violations, with epoch windows exercised.
#[test]
fn cross_validation_confirms_the_real_catalog_across_seeds() {
    let (heap, roots) = world(10);
    let synth = SynthWorld::build(SynthConfig::small()).unwrap();
    let catalog = MutationCatalog::of_heap();
    let specs = catalog_specs(&catalog);
    for (heap, roots) in [(&heap, roots.as_slice()), (synth.heap(), synth.roots())] {
        for seed in 0..8u64 {
            let report = cross_validate_barriers(heap, roots, &specs, 48, seed).unwrap();
            assert!(report.is_consistent(), "seed {seed}: {}", report.render());
            assert!(report.ops_applied > 0);
        }
    }
}

/// **Acceptance criterion**: the oracle and the static pass agree on a
/// broken spec too — mixing the barrier-skipping store into the sequence
/// makes the run inconsistent with under-journaling violations.
#[test]
fn cross_validation_catches_the_barrier_skipping_store() {
    let (heap, roots) = world(10);
    let rogue = Injected {
        name: "rogue_store",
        effect: DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            journals_dirty: true,
            ..DeclaredEffect::default()
        },
        apply: |heap, probe| {
            let target = probe.targets.first().copied().expect("non-empty traversal");
            heap.set_field_unbarriered(target, 0, Value::Int(probe.salt as i32 | 1))
        },
    };
    let catalog = MutationCatalog::of_heap();
    let mut specs = catalog_specs(&catalog);
    specs.push(&rogue);
    let mut caught = 0;
    for seed in 0..4u64 {
        let report = cross_validate_barriers(&heap, &roots, &specs, 64, seed).unwrap();
        if !report.is_consistent() {
            assert!(report.under_journaled > 0, "{}", report.render());
            assert!(!report.violations.is_empty());
            caught += 1;
        }
    }
    assert_eq!(caught, 4, "every seeded run must draw and catch the rogue op");
}
