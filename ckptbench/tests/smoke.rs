//! The benchmark's own tests: a small-scale run of every workload emits
//! every named metric with a unit and passes the correctness gate; the
//! stream is deterministic per seed; an injected fault trips the gate.

use ickp_ckptbench::{run, Fault, Options, Report, Workload};

/// Reads the metric names of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool, fault: Fault) -> Report {
    run(&Options { workload, seed: 7, seconds: 0.001, trace, smoke: true, fault })
}

fn assert_emits(report: &Report, section: &str) {
    let names = listed(section);
    assert!(!names.is_empty(), "{section} lists metrics");
    assert_eq!(report.metrics.len(), names.len(), "exactly the {section} metrics");
    for name in &names {
        let m = report.metrics.iter().find(|m| m.name == name);
        let m = m.unwrap_or_else(|| panic!("{name} emitted"));
        assert!(!m.unit.is_empty(), "{name} has a unit");
        assert!(m.value.is_finite(), "{name} is a number");
    }
    let json = report.json();
    assert!(json.starts_with("{\"correct\": ") && json.ends_with("}}"), "{json}");
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_the_gate() {
    for workload in Workload::ALL {
        let report = smoke(workload, false, Fault::None);
        assert!(report.correct, "{}: {:?}", workload.name(), report.header);
        assert_eq!(report.failed, 0);
        assert_emits(&report, "end_to_end");
        assert!(report.metric("pause_p50_ms").unwrap() > 0.0);
        assert!(report.metric("recover_ms").unwrap() > 0.0);
        assert!(report.metric("space_amp").unwrap() >= 1.0);
        assert_eq!(report.metric("ok_ratio"), Some(1.0));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_with_transparent_probes() {
    for workload in Workload::ALL {
        let report = smoke(workload, true, Fault::None);
        // `correct` covers the traced and untraced episodes producing
        // the same record stream and final state.
        assert!(report.correct, "{}: {:?}", workload.name(), report.header);
        assert_emits(&report, "per_layer");
        assert!(report.metric("core.ckpt_ms").unwrap() > 0.0);
        assert!(report.metric("durable.append_ms").unwrap() > 0.0);
        assert!(report.metric("core.restore_ms").unwrap() > 0.0);
    }
    let sparse = smoke(Workload::SparseFsync, true, Fault::None);
    assert_eq!(sparse.metric("core.fast_path_ratio"), Some(1.0), "journal fast path every round");
    assert_eq!(sparse.metric("durable.fsyncs_per_ckpt"), Some(3.0), "single-record protocol");
    let replicated = smoke(Workload::ReplicatedHistory, true, Fault::None);
    assert!(replicated.metric("spec.ckpt_ms").unwrap() > 0.0);
    assert!(replicated.metric("lifecycle.fold_ms").unwrap() > 0.0);
    assert!(replicated.metric("replicate.commit_ms").unwrap() > 0.0);
    assert!(replicated.metric("durable.dedup_saved_ratio").unwrap() > 0.0);
}

#[test]
fn same_seed_same_stream_and_counts() {
    for workload in Workload::ALL {
        let a = smoke(workload, false, Fault::None);
        let b = smoke(workload, false, Fault::None);
        assert_eq!(a.stream_digest, b.stream_digest, "{}", workload.name());
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.metric("space_amp"), b.metric("space_amp"));
        let traced = smoke(workload, true, Fault::None);
        assert_eq!(a.stream_digest, traced.stream_digest, "probes leave the stream alone");
        let other = run(&Options {
            workload,
            seed: 8,
            seconds: 0.001,
            trace: false,
            smoke: true,
            fault: Fault::None,
        });
        assert_ne!(a.stream_digest, other.stream_digest, "the seed drives the stream");
    }
}

#[test]
fn a_dropped_record_trips_the_gate() {
    for workload in Workload::ALL {
        let report = smoke(workload, false, Fault::DropLast);
        assert!(!report.correct, "{}", workload.name());
        assert!(
            report.header.iter().any(|l| l.contains("GATE FAILED") && l.contains("digest")),
            "{:?}",
            report.header
        );
    }
}

#[test]
fn a_byte_flipped_after_fsync_trips_the_gate() {
    for workload in Workload::ALL {
        let report = smoke(workload, false, Fault::FlipByte);
        assert!(!report.correct, "{}", workload.name());
        assert!(report.failed >= 1, "the reopen fails with a typed error");
        assert!(report.metric("ok_ratio").unwrap() < 1.0);
    }
}
