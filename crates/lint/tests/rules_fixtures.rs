//! Per-rule behaviour on the seeded-violation fixture workspace under
//! `tests/fixtures/ws/` (a directory the real workspace walk skips).

use bcc_lint::{collect_workspace, run_all, Finding};
use std::path::Path;

fn fixture_findings() -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let ws = collect_workspace(&root).expect("fixture workspace readable");
    run_all(&ws)
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn d1_flags_hash_collections_and_honours_suppression() {
    let findings = fixture_findings();
    let d1 = by_rule(&findings, "D1");
    // exp_yy_broken: `use ... HashMap` plus two `HashMap` tokens on
    // the construction line (the suppressed `HashSet` must not
    // appear). serve/sched: the serve crate is in D1 scope, so its
    // `use`, return type, and constructor all count.
    assert_eq!(d1.len(), 6, "{d1:?}");
    assert_eq!(
        d1.iter()
            .filter(|f| f.file == "crates/experiments/src/exp_yy_broken.rs")
            .count(),
        3
    );
    assert_eq!(
        d1.iter()
            .filter(|f| f.file == "crates/serve/src/sched.rs")
            .count(),
        3
    );
    assert!(d1.iter().all(|f| f.message.contains("BTree")));
}

#[test]
fn d2_flags_clock_reads() {
    let findings = fixture_findings();
    let d2 = by_rule(&findings, "D2");
    // exp_yy_broken + serve/sched clock reads, plus the entropy read
    // inside the carve-out file (see the carve-out test below).
    assert_eq!(d2.len(), 3, "{d2:?}");
    let clocks: Vec<_> = d2
        .iter()
        .filter(|f| f.message.contains("Instant::now"))
        .collect();
    assert_eq!(clocks.len(), 2, "{clocks:?}");
    assert!(clocks.iter().all(|f| f.snippet.contains("Instant::now()")));
    assert!(clocks.iter().any(|f| f.file == "crates/serve/src/sched.rs"));
}

#[test]
fn d2_carveout_admits_net_clock_but_never_entropy() {
    let findings = fixture_findings();
    let net: Vec<_> = findings
        .iter()
        .filter(|f| f.file == "crates/serve/src/net.rs")
        .collect();
    // The carved-out file reads `Instant::now()` without a finding,
    // but its `OsRng` use is still a D2 error.
    assert_eq!(net.len(), 1, "{net:?}");
    assert_eq!(net[0].rule, "D2");
    assert!(net[0].message.contains("OsRng"));
    assert!(!findings
        .iter()
        .any(|f| f.file == "crates/serve/src/net.rs" && f.message.contains("Instant::now")));
}

#[test]
fn p1_flags_unwrap_outside_tests_only() {
    let findings = fixture_findings();
    let p1 = by_rule(&findings, "P1");
    // One unsuppressed `.unwrap()`; the suppressed one and the one in
    // `#[cfg(test)]` code (exp_zz_good) must not appear.
    assert_eq!(p1.len(), 1, "{p1:?}");
    assert_eq!(p1[0].file, "crates/experiments/src/exp_yy_broken.rs");
}

#[test]
fn k1_flags_simulator_in_protocol_code_but_not_tests() {
    let findings = fixture_findings();
    let k1 = by_rule(&findings, "K1");
    assert_eq!(k1.len(), 1, "{k1:?}");
    assert_eq!(k1[0].file, "crates/algorithms/src/proto.rs");
    assert!(k1[0].message.contains("KT-0/KT-1"));
}

#[test]
fn r1_flags_unregistered_experiment_module() {
    let findings = fixture_findings();
    let r1 = by_rule(&findings, "R1");
    // exp_yy_broken: missing jobs + reduce + `impl Experiment for`
    // (3 on the module), never referenced from lib.rs (1), id "yy"
    // absent from lib.rs (1).
    assert_eq!(r1.len(), 5, "{r1:?}");
    assert_eq!(
        r1.iter()
            .filter(|f| f.file == "crates/experiments/src/exp_yy_broken.rs")
            .count(),
        3
    );
    assert_eq!(
        r1.iter()
            .filter(|f| f.file == "crates/experiments/src/lib.rs")
            .count(),
        2
    );
    // The fully-registered module is clean.
    assert!(!r1.iter().any(|f| f.file.contains("exp_zz_good")));
}

#[test]
fn o1_flags_direct_sink_use_outside_trace_crate() {
    let findings = fixture_findings();
    let o1 = by_rule(&findings, "O1");
    // `JsonlSink` + `write_event` in library code; the suppressed
    // `NullSink` and the `SummarySink` inside `#[cfg(test)]` code (and
    // the one in a string literal) must not appear.
    assert_eq!(o1.len(), 2, "{o1:?}");
    assert!(o1
        .iter()
        .all(|f| f.file == "crates/experiments/src/exp_yy_broken.rs"));
    assert!(o1.iter().all(|f| f.message.contains("Collector")));
}

#[test]
fn o2_flags_direct_metric_sink_use_outside_metrics_crate() {
    let findings = fixture_findings();
    let o2 = by_rule(&findings, "O2");
    // `MetricsJsonlSink` + `write_metric` in library code; the
    // suppressed `MetricsSummarySink` and the one inside `#[cfg(test)]`
    // code (and the one in a string literal) must not appear.
    assert_eq!(o2.len(), 2, "{o2:?}");
    assert!(o2
        .iter()
        .all(|f| f.file == "crates/experiments/src/exp_yy_broken.rs"));
    assert!(o2.iter().all(|f| f.message.contains("MetricsHub")));
}

#[test]
fn clean_file_produces_no_findings() {
    let findings = fixture_findings();
    assert!(
        !findings.iter().any(|f| f.file.contains("clean.rs")),
        "decoy strings/comments must not trigger rules"
    );
}

#[test]
fn findings_are_sorted_by_file_line_rule() {
    let findings = fixture_findings();
    let keys: Vec<_> = findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn nested_workspace_is_not_walked() {
    // `perfbench/Cargo.toml` declares `[workspace]`: its seeded D2 and
    // P1 violations belong to a separate cargo workspace. The decoy
    // `crates/core/Cargo.toml` only inherits workspace keys, so that
    // crate is still walked.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let ws = collect_workspace(&root).expect("fixture workspace readable");
    assert!(
        !ws.files.iter().any(|f| f.path.starts_with("perfbench/")),
        "nested workspace files were collected"
    );
    assert!(ws
        .files
        .iter()
        .any(|f| f.path == "crates/core/src/clean.rs"));
    let findings = run_all(&ws);
    assert!(
        !findings.iter().any(|f| f.file.starts_with("perfbench/")),
        "{findings:?}"
    );
}
