//! Usage errors of the `bcc-experiments` CLI: every rejected argument
//! list exits with status 2 and names the offending flag on stderr,
//! before any experiment runs.

use std::process::Command;

/// `(argv, flag the error must name)`. The transport selectors and
/// sidecar paths are not options of this binary; delivery is always
/// in-process.
const REJECTED: &[(&[&str], &str)] = &[
    (&["--transport", "local"], "--transport"),
    (&["--transport", "sockets:2"], "--transport"),
    (&["--transport-wall", "x"], "--transport-wall"),
    (&["--postmortem", "x"], "--postmortem"),
];

#[test]
fn rejected_flags_are_usage_errors() {
    for &(args, flag) in REJECTED {
        let output = Command::new(env!("CARGO_BIN_EXE_bcc-experiments"))
            .arg("--quick")
            .args(args)
            .arg("e2")
            .output()
            .expect("spawn bcc-experiments");
        assert_eq!(output.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{flag:?}")) && stderr.contains("usage:"),
            "{args:?}: stderr should name {flag} and print usage, got:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} should print no report");
    }
}
