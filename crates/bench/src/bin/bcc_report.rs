//! `bcc-report`: merge a deterministic metrics dump, an optional
//! trace, and committed `BENCH_*.json` recordings into one offline
//! Markdown/JSON report, optionally failing on regressions.
//!
//! ```text
//! bcc-report [--metrics PATH] [--baseline PATH] [--trace PATH]
//!            [--profile PATH] [--bench PATH]...
//!            [--format md|json] [--out PATH] [--check]
//!            [--tolerance PCT] [--max-overhead PCT]
//! bcc-report --diff A.profile B.profile [--diff-tolerance PCT]
//!            [--out PATH]
//! ```
//!
//! Exit-code contract (stable for CI):
//!
//! * **0** — success: report rendered, every requested check passed.
//! * **1** — a regression: `--check` found a failing check, or
//!   `--diff` found a delta outside the tolerance. Also used for
//!   output-write failures (the run itself was valid).
//! * **2** — a usage error: bad flags, or an unreadable/malformed
//!   input file. CI can tell "the gate tripped" (1) apart from "the
//!   gate was miswired" (2).
//!
//! Check semantics (see `bcc_bench::report`):
//!
//! * with both `--metrics` and `--baseline`, the two dumps' counters
//!   must match **exactly** — workload dumps are deterministic, so any
//!   drift is a real workload change;
//! * every `"speedup"` field in a `--bench` file must be at least
//!   `1.0 − tolerance/100`;
//! * every `"overhead_pct"` field must be at most `--max-overhead`.

use bcc_bench::report::{
    load_bench, render_diff_markdown, render_json, render_markdown, run_checks, trace_stats,
    CheckOptions, Inputs,
};
use bcc_metrics::MetricsDump;
use std::process::ExitCode;

const USAGE: &str = "usage: bcc-report [--metrics PATH] [--baseline PATH] [--trace PATH]
                  [--profile PATH] [--bench PATH]...
                  [--format md|json] [--out PATH] [--check] [--tolerance PCT]
                  [--max-overhead PCT]
       bcc-report --diff A.profile B.profile [--diff-tolerance PCT] [--out PATH]

  --metrics PATH       workload metrics dump (JSONL) to report on
  --baseline PATH      committed baseline dump; counters must match exactly
  --trace PATH         trace JSONL; reported as event counts by kind
  --profile PATH       bcc-prof profile JSONL; reported as the hot-path table
  --bench PATH         committed BENCH_*.json recording (repeatable)
  --format md|json     output format (default md)
  --out PATH           write the report here instead of stdout
  --check              exit 1 if any regression check fails
  --tolerance PCT      how far below 1.0 a speedup may sit (default 5)
  --max-overhead PCT   ceiling for overhead_pct fields (default 2)
  --diff A B           compare two profile artifacts; exit 1 on any delta
                       outside --diff-tolerance
  --diff-tolerance PCT relative drift allowed per quantity (default 0)

exit codes: 0 success · 1 regression (--check/--diff) or write failure
            2 usage error or unreadable/malformed input";

struct Cli {
    metrics: Option<String>,
    baseline: Option<String>,
    trace: Option<String>,
    profile: Option<String>,
    benches: Vec<String>,
    diff: Option<(String, String)>,
    diff_tolerance_pct: f64,
    format: String,
    out: Option<String>,
    check: bool,
    opts: CheckOptions,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        metrics: None,
        baseline: None,
        trace: None,
        profile: None,
        benches: Vec::new(),
        diff: None,
        diff_tolerance_pct: 0.0,
        format: "md".to_string(),
        out: None,
        check: false,
        opts: CheckOptions::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--metrics" => cli.metrics = Some(value("--metrics")?),
            "--baseline" => cli.baseline = Some(value("--baseline")?),
            "--trace" => cli.trace = Some(value("--trace")?),
            "--profile" => cli.profile = Some(value("--profile")?),
            "--bench" => cli.benches.push(value("--bench")?),
            "--diff" => {
                let a = value("--diff")?;
                let b = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--diff needs two profile paths".to_string())?;
                cli.diff = Some((a, b));
            }
            "--diff-tolerance" => {
                cli.diff_tolerance_pct = value("--diff-tolerance")?
                    .parse()
                    .map_err(|_| "--diff-tolerance needs a number".to_string())?;
            }
            "--format" => {
                let f = value("--format")?;
                if f != "md" && f != "json" {
                    return Err(format!("unknown format `{f}` (md|json)"));
                }
                cli.format = f;
            }
            "--out" => cli.out = Some(value("--out")?),
            "--check" => cli.check = true,
            "--tolerance" => {
                cli.opts.tolerance_pct = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance needs a number".to_string())?;
            }
            "--max-overhead" => {
                cli.opts.max_overhead_pct = value("--max-overhead")?
                    .parse()
                    .map_err(|_| "--max-overhead needs a number".to_string())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.diff.is_some() {
        if cli.metrics.is_some()
            || cli.baseline.is_some()
            || cli.trace.is_some()
            || cli.profile.is_some()
            || !cli.benches.is_empty()
            || cli.check
        {
            return Err(
                "--diff is its own mode; combine it only with --diff-tolerance and --out"
                    .to_string(),
            );
        }
    } else if cli.metrics.is_none()
        && cli.trace.is_none()
        && cli.profile.is_none()
        && cli.benches.is_empty()
    {
        return Err("nothing to report: pass --metrics, --trace, --profile or --bench".to_string());
    }
    Ok(cli)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load_inputs(cli: &Cli) -> Result<Inputs, String> {
    let mut inputs = Inputs::default();
    if let Some(path) = &cli.metrics {
        inputs.metrics =
            Some(MetricsDump::parse_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(path) = &cli.baseline {
        inputs.baseline =
            Some(MetricsDump::parse_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(path) = &cli.trace {
        inputs.trace = Some(trace_stats(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(path) = &cli.profile {
        inputs.profile =
            Some(bcc_prof::parse_profile_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    for path in &cli.benches {
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        inputs.benches.push(load_bench(name, &read(path)?)?);
    }
    Ok(inputs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("bcc-report: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a_path, b_path)) = &cli.diff {
        return run_diff(&cli, a_path, b_path);
    }
    let inputs = match load_inputs(&cli) {
        Ok(inputs) => inputs,
        Err(msg) => {
            // Unreadable or malformed inputs are a miswired
            // invocation, not a tripped gate: exit 2, not 1.
            eprintln!("bcc-report: {msg}");
            return ExitCode::from(2);
        }
    };
    let failures = run_checks(&inputs, cli.opts);
    let rendered = if cli.format == "json" {
        render_json(&inputs, &failures)
    } else {
        render_markdown(&inputs, &failures)
    };
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("bcc-report: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bcc-report: wrote {path}");
    } else {
        print!("{rendered}");
    }
    for f in &failures {
        eprintln!("bcc-report: FAIL {f}");
    }
    if cli.check && !failures.is_empty() {
        eprintln!("bcc-report: {} check(s) failed", failures.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `--diff` mode: load two profile artifacts, render the changed
/// rows, exit 1 when any delta falls outside the tolerance.
fn run_diff(cli: &Cli, a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<bcc_prof::Profile, String> {
        bcc_prof::parse_profile_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("bcc-report: {msg}");
            return ExitCode::from(2);
        }
    };
    let diff = bcc_prof::diff_profiles(
        &a,
        &b,
        &bcc_prof::DiffOptions {
            tolerance_pct: cli.diff_tolerance_pct,
        },
    );
    let rendered = render_diff_markdown(a_path, b_path, &diff);
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("bcc-report: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bcc-report: wrote {path}");
    } else {
        print!("{rendered}");
    }
    let breaches = diff.breaches();
    if breaches > 0 {
        eprintln!("bcc-report: {breaches} profile delta(s) outside tolerance");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
