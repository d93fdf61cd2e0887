//! The diagnostic model shared by every audit pass.
//!
//! A [`Diagnostic`] is one verdict: a severity, a stable machine-readable
//! code (`AUD0xx` for plan-verifier findings, `AUD1xx` for pattern
//! soundness findings, `AUD2xx` for shard-interference findings, `AUD3xx`
//! for barrier-coverage findings, `AUD4xx` for durability-ordering
//! findings), the location it anchors to (a plan instruction, a shape
//! path, a phase, a shard, a mutator, a trace op), a human message, and
//! an optional suggestion.
//! Passes append diagnostics to an [`AuditReport`], which callers render
//! or query for error-severity findings (the CI gate).

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth money, not correctness: the declaration is sound but leaves
    /// statically provable pruning on the table.
    PerfLint,
    /// Suspicious but not unsound: the plan deviates from the idiomatic
    /// compiled form (extra loads, unguarded records, over-claimed
    /// dynamism) without corrupting the checkpoint stream.
    Warning,
    /// Unsound: executing the plan can panic, fail a guard on a conforming
    /// heap, or silently produce a checkpoint that misses modifications.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::PerfLint => "perf",
        })
    }
}

/// Stable diagnostic codes. `AUD0xx` come from the plan verifier, `AUD1xx`
/// from the pattern soundness checker, `AUD2xx` from the shard-interference
/// pass, `AUD3xx` from the barrier-coverage pass, `AUD4xx` from the
/// durability-ordering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagCode {
    /// A register index is outside the plan's register file (`AUD001`).
    RegisterOutOfRange,
    /// A register is read on some path before any instruction defines it
    /// (`AUD002`).
    UseBeforeDef,
    /// A skip target lies beyond the end of the plan (`AUD003`).
    SkipPastEnd,
    /// A record template index is out of bounds (`AUD004`).
    TemplateOutOfRange,
    /// The plan's `has_dynamic` flag disagrees with its instructions
    /// (`AUD005`).
    DynamicFlagMismatch,
    /// A conditionally-executed instruction redefines a register that is
    /// live across the skip region (`AUD006`).
    ClobberedLiveRegister,
    /// A `Record` executes without a dominating modified-flag test
    /// (`AUD007`).
    UnguardedRecord,
    /// The plan never records an object the declaration marks recordable
    /// (`AUD010`).
    MissingCoverage,
    /// The plan records an object the declaration never marks recordable
    /// (`AUD011`).
    ExtraCoverage,
    /// The plan's record stream diverges from the declared pre-order
    /// (`AUD012`).
    CoverageMismatch,
    /// The plan's traversal visits different objects than the declaration
    /// implies (`AUD013`).
    VisitMismatch,
    /// A record template's class disagrees with the declared class at that
    /// point of the traversal (`AUD020`).
    TemplateClassMismatch,
    /// A load's class guard disagrees with the declared class (`AUD021`).
    ClassGuardMismatch,
    /// A load follows an edge the declaration does not declare (`AUD022`).
    UndeclaredEdge,
    /// A record template's field kinds disagree with the class layout
    /// (`AUD023`).
    TemplateLayoutMismatch,
    /// A static (`LoadRef`) load follows a declared-dynamic edge
    /// (`AUD024`).
    StaticLoadOnDynamicEdge,
    /// A list traversal loads past the declared length (`AUD025`).
    ListOverrun,
    /// A dynamic (`LoadDyn`) load follows a statically-shaped edge
    /// (`AUD026`).
    DynamicLoadOnStaticEdge,
    /// A list-end guard sits somewhere other than a declared list tail
    /// (`AUD027`).
    MisplacedListGuard,
    /// The declaration itself fails validation (`AUD030`).
    InvalidShape,
    /// A phase writes a subtree its declaration freezes: the specialized
    /// checkpoint silently misses those modifications (`AUD101`).
    UnderDeclaredPattern,
    /// A declaration leaves a subtree modifiable for a phase that provably
    /// never writes it (`AUD102`).
    OverDeclaredPattern,
    /// A phase performs writes but has no declared plan, forcing the
    /// generic checkpointer (`AUD103`).
    UndeclaredPhase,
    /// Two shards both emit the same object — a data race under parallel
    /// execution (`AUD201`).
    ShardOverlap,
    /// An object in the sequential coverage is emitted by no shard: the
    /// merged parallel stream silently drops it (`AUD202`).
    ShardMissingCoverage,
    /// A shard emits an object outside the sequential coverage, so the
    /// merged stream carries records the sequential engine would not
    /// (`AUD203`).
    ShardDoubleEmit,
    /// An object's emitting shard is not the first-touch owner predicted
    /// from root order, or the plan's root chunks are stale — the merged
    /// stream ceases to be byte-identical to sequential (`AUD204`).
    ShardOwnershipMismatch,
    /// The statically estimated record bytes of the heaviest shard exceed
    /// the imbalance threshold: the parallel speedup is bounded by one
    /// straggler (`AUD205`).
    ShardImbalance,
    /// A mutator can change an object's encoded bytes without leaving it
    /// modified and journaled: the journal fast path (and the incremental
    /// slow path) silently ships a stale stream (`AUD301`).
    BarrierUnjournaledWrite,
    /// A mutator can change reachability or traversal order without
    /// bumping `structure_version`: a cached `JournalCache` replays a
    /// stale pre-order (`AUD302`).
    BarrierMissedVersionBump,
    /// The write barrier journals byte-identical writes — sound but
    /// wasteful, quantified in fast-path records an all-identical-write
    /// epoch would re-encode (`AUD303`).
    BarrierOverJournaling,
    /// Dirty flags or the journal epoch are cleared outside the checkpoint
    /// protocol: modifications recorded by no checkpoint are marked clean
    /// (`AUD304`).
    BarrierEpochTamper,
    /// A mutator's declared effect is wider than the footprint its probe
    /// demonstrates — over-declaration, mirroring `AUD102` (`AUD305`).
    BarrierOverDeclaredEffect,
    /// A public heap mutator is absent from the audited `MutationCatalog`,
    /// so nothing proves its barrier obligations (`AUD306`).
    BarrierUncataloged,
    /// A mutator can change the graph's shape without naming the writer
    /// (or the freed object) in the heap's structural log: a repaired
    /// shard plan misses the change and the parallel stream diverges
    /// (`AUD307`).
    BarrierUnloggedShapeChange,
    /// A reachable crash state contains un-fsynced bytes the client was
    /// already acknowledged for: a crash loses an acknowledged record
    /// (`AUD401`).
    DurabilityUnsyncedAck,
    /// A rename publishes a file whose content was never fsynced: the
    /// filesystem may reorder the data behind the visible name
    /// (`AUD402`).
    DurabilityRenameBeforeSync,
    /// An acknowledgement rests on namespace operations (create, rename,
    /// remove) with no covering parent-directory fsync (`AUD403`).
    DurabilityMissingDirFsync,
    /// A write lands inside a region the committed manifest already
    /// references — mutating acknowledged history in place (`AUD404`).
    DurabilityCommittedOverwrite,
    /// A replication acknowledgement reached the client before the batch
    /// was durable on both nodes (`AUD405`).
    DurabilityEarlyReplicationAck,
    /// The trace's operation indices do not tile the shared `OpCounter`
    /// space: some layer performed I/O outside the counted op stream, so
    /// the crash matrices cannot see it (`AUD406`).
    DurabilityUncountedOp,
    /// An fsync with nothing pending (or a directory fsync with no
    /// namespace changes) — a wasted syscall on the commit path
    /// (`AUD407`).
    DurabilityRedundantFsync,
    /// Consecutive single-record commits that group commit would merge,
    /// priced in the fsyncs a batch would save (`AUD408`).
    DurabilityMissedCoalescing,
}

impl DiagCode {
    /// The stable `AUDnnn` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::RegisterOutOfRange => "AUD001",
            DiagCode::UseBeforeDef => "AUD002",
            DiagCode::SkipPastEnd => "AUD003",
            DiagCode::TemplateOutOfRange => "AUD004",
            DiagCode::DynamicFlagMismatch => "AUD005",
            DiagCode::ClobberedLiveRegister => "AUD006",
            DiagCode::UnguardedRecord => "AUD007",
            DiagCode::MissingCoverage => "AUD010",
            DiagCode::ExtraCoverage => "AUD011",
            DiagCode::CoverageMismatch => "AUD012",
            DiagCode::VisitMismatch => "AUD013",
            DiagCode::TemplateClassMismatch => "AUD020",
            DiagCode::ClassGuardMismatch => "AUD021",
            DiagCode::UndeclaredEdge => "AUD022",
            DiagCode::TemplateLayoutMismatch => "AUD023",
            DiagCode::StaticLoadOnDynamicEdge => "AUD024",
            DiagCode::ListOverrun => "AUD025",
            DiagCode::DynamicLoadOnStaticEdge => "AUD026",
            DiagCode::MisplacedListGuard => "AUD027",
            DiagCode::InvalidShape => "AUD030",
            DiagCode::UnderDeclaredPattern => "AUD101",
            DiagCode::OverDeclaredPattern => "AUD102",
            DiagCode::UndeclaredPhase => "AUD103",
            DiagCode::ShardOverlap => "AUD201",
            DiagCode::ShardMissingCoverage => "AUD202",
            DiagCode::ShardDoubleEmit => "AUD203",
            DiagCode::ShardOwnershipMismatch => "AUD204",
            DiagCode::ShardImbalance => "AUD205",
            DiagCode::BarrierUnjournaledWrite => "AUD301",
            DiagCode::BarrierMissedVersionBump => "AUD302",
            DiagCode::BarrierOverJournaling => "AUD303",
            DiagCode::BarrierEpochTamper => "AUD304",
            DiagCode::BarrierOverDeclaredEffect => "AUD305",
            DiagCode::BarrierUncataloged => "AUD306",
            DiagCode::BarrierUnloggedShapeChange => "AUD307",
            DiagCode::DurabilityUnsyncedAck => "AUD401",
            DiagCode::DurabilityRenameBeforeSync => "AUD402",
            DiagCode::DurabilityMissingDirFsync => "AUD403",
            DiagCode::DurabilityCommittedOverwrite => "AUD404",
            DiagCode::DurabilityEarlyReplicationAck => "AUD405",
            DiagCode::DurabilityUncountedOp => "AUD406",
            DiagCode::DurabilityRedundantFsync => "AUD407",
            DiagCode::DurabilityMissedCoalescing => "AUD408",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// What a diagnostic anchors to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// An instruction of the audited plan, by index.
    PlanOp(usize),
    /// A path into the declared shape (see `coverage::fmt_path`).
    Shape(String),
    /// A phase of a phase-plan registry, by key.
    Phase(String),
    /// A shard of an audited shard plan, by index.
    Shard(usize),
    /// A heap mutator of an audited mutation catalog, by name.
    Mutator(String),
    /// An operation of an audited durability trace, by its `OpCounter`
    /// index.
    TraceOp(u64),
    /// No finer location applies.
    General,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::PlanOp(pc) => write!(f, "op {pc}"),
            Location::Shape(path) => write!(f, "shape {path}"),
            Location::Phase(key) => write!(f, "phase `{key}`"),
            Location::Shard(index) => write!(f, "shard {index}"),
            Location::Mutator(name) => write!(f, "mutator `{name}`"),
            Location::TraceOp(index) => write!(f, "trace op {index}"),
            Location::General => f.write_str("plan"),
        }
    }
}

/// One finding of one audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The finding's severity.
    pub severity: Severity,
    /// The stable code.
    pub code: DiagCode,
    /// Where the finding anchors.
    pub location: Location,
    /// What went wrong (or what is wasteful), in one sentence.
    pub message: String,
    /// An optional remedy.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no suggestion.
    pub fn new(
        severity: Severity,
        code: DiagCode,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic { severity, code, location, message: message.into(), suggestion: None }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] at {}: {}", self.severity, self.code, self.location, self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// The accumulated findings of one or more audit passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> AuditReport {
        AuditReport::default()
    }

    /// Wraps a list of findings.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> AuditReport {
        AuditReport { diagnostics }
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every finding of another report.
    pub fn extend(&mut self, other: AuditReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in pass order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` if any finding is [`Severity::Error`] — the CI gate.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// `true` if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Renders the report as one line per finding plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} perf lint(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::PerfLint),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_gates_on_errors() {
        let mut r = AuditReport::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(
            Severity::Warning,
            DiagCode::VisitMismatch,
            Location::PlanOp(3),
            "extra load",
        ));
        assert!(!r.has_errors());
        r.push(
            Diagnostic::new(
                Severity::Error,
                DiagCode::MissingCoverage,
                Location::Shape("$.s3[1]".into()),
                "never recorded",
            )
            .with_suggestion("declare the element position"),
        );
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        let rendered = r.render();
        assert!(rendered.contains("AUD010"));
        assert!(rendered.contains("1 error(s), 1 warning(s), 0 perf lint(s)"));
    }

    #[test]
    fn display_formats_are_stable() {
        let d = Diagnostic::new(
            Severity::Error,
            DiagCode::UseBeforeDef,
            Location::PlanOp(7),
            "r2 unbound",
        );
        assert_eq!(d.to_string(), "error[AUD002] at op 7: r2 unbound");
        assert_eq!(Location::Phase("bta".into()).to_string(), "phase `bta`");
        assert_eq!(Location::General.to_string(), "plan");
    }
}
