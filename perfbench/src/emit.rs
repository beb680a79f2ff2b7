//! The line protocol a workload process writes on its standard output
//! and the orchestrating process reads back: one record per line,
//! tab-separated, the record kind first.
//!
//! | kind | fields |
//! |---|---|
//! | `ready` | — (set-up finished) |
//! | `pass` | wall seconds, node-rounds |
//! | `op` | latency seconds (one completed operation) |
//! | `attempted` | operations attempted (added up) |
//! | `fail` | what failed (one failed operation) |
//! | `row` | row id, `key=value` pairs joined by `;` |
//! | `metric` | name, value |
//! | `self` | span or leaf name, self seconds, calls |

use std::io::Write;

fn line(fields: &[&str]) {
    let mut out = std::io::stdout().lock();
    // A closed pipe means the orchestrator is gone; nothing to report to.
    let _ = writeln!(out, "{}", fields.join("\t"));
}

/// Set-up is finished.
pub fn ready() {
    line(&["ready"]);
}

/// One workload pass took `wall_s` and delivered `node_rounds`.
pub fn pass(wall_s: f64, node_rounds: u64) {
    line(&["pass", &wall_s.to_string(), &node_rounds.to_string()]);
}

/// One operation completed after `latency_s`.
pub fn op(latency_s: f64) {
    line(&["op", &latency_s.to_string()]);
}

/// `n` more operations were attempted.
pub fn attempted(n: u64) {
    line(&["attempted", &n.to_string()]);
}

/// One operation failed; `what` says which and how.
pub fn fail(what: &str) {
    line(&["fail", &what.replace(['\t', '\n'], " ")]);
}

/// A result row, for comparing the traced run against the untraced one.
pub fn row(id: &str, values: &[(String, String)]) {
    let joined: Vec<String> = values.iter().map(|(k, v)| format!("{k}={v}")).collect();
    line(&["row", id, &joined.join(";")]);
}

/// A named figure.
pub fn metric(name: &str, value: f64) {
    line(&["metric", name, &value.to_string()]);
}

/// One row of a self-time table.
pub fn self_time(name: &str, seconds: f64, calls: u64) {
    line(&["self", name, &seconds.to_string(), &calls.to_string()]);
}
