//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in processes of its own and prints, as the last
//! line of standard output, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! every observer off; with `--trace 1` they are the per-layer ones,
//! from a separate traced process. The line before it carries the host
//! facts and the details behind the figures.
//!
//! Internal entry points (the benchmark starts them itself):
//! `perfbench child setup W SEED`, `perfbench child run W SEED SECONDS 0|1`
//! and `perfbench daemon THREADS`.

use perfbench::workload::{self, Workload};
use perfbench::{host, serve, stats};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload upper-sweep|lower-batched|serve-warm|crossing-indist \
--seed N --seconds S --trace 0|1";

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of
/// them; a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("algorithms.spawn_s", "s"),
    ("algorithms.broadcast_s", "s"),
    ("algorithms.receive_s", "s"),
    ("algorithms.calls", "count"),
    ("model.run_s", "s"),
    ("model.exchange_s", "s"),
    ("model.exchange_calls", "count"),
    ("model.driver_self_s", "s"),
    ("model.node_rounds", "count"),
    ("model.broadcast_symbols", "count"),
    ("model.delivered_symbols", "count"),
    ("model.delivery_amplification", "ratio"),
    ("model.transcript_symbols", "count"),
    ("model.indist_compare_s", "s"),
    ("core.cross_instance_s", "s"),
    ("core.label_census_s", "s"),
    ("engine.batch_s", "s"),
    ("engine.batch_calls", "count"),
    ("engine.lanes", "count"),
    ("engine.lane_fill", "ratio"),
    ("engine.exchange_s", "s"),
    ("engine.store_lookups", "count"),
    ("engine.store_hits", "count"),
    ("engine.store_hit_ratio", "ratio"),
    ("engine.store_miss_s", "s"),
    ("engine.store_hit_s", "s"),
    ("runner.busy_s", "s"),
    ("runner.idle_frac", "ratio"),
    ("runner.critical_job_s", "s"),
    ("runner.jobs", "count"),
    ("runner.retried", "count"),
    ("runner.stolen", "count"),
    ("serve.accept_ms", "ms"),
    ("serve.await_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.reject_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one workload process reported.
#[derive(Debug, Default)]
struct ChildOut {
    ready_s: Option<f64>,
    passes: Vec<(f64, u64)>,
    ops: Vec<f64>,
    attempted: u64,
    fails: Vec<String>,
    rows: BTreeMap<String, Vec<(String, String)>>,
    metrics: BTreeMap<String, f64>,
    self_times: Vec<(String, f64, u64)>,
}

impl ChildOut {
    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.fails.push(what);
    }
}

/// Runs this binary as a workload process and collects its report.
fn spawn_child(args: &[String]) -> ChildOut {
    let mut out = ChildOut::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.fail(format!("locating the benchmark binary: {e}"));
            return out;
        }
    };
    let started = Instant::now();
    let mut child = match Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("spawning a workload process: {e}"));
            return out;
        }
    };
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            let text = |i: usize| f.get(i).copied().unwrap_or("").to_string();
            match f[0] {
                "ready" => out.ready_s = Some(started.elapsed().as_secs_f64()),
                "pass" => out.passes.push((num(1), text(2).parse().unwrap_or(0))),
                "op" => out.ops.push(num(1)),
                "attempted" => out.attempted += text(1).parse::<u64>().unwrap_or(0),
                "fail" => out.fails.push(text(1)),
                "row" => {
                    let kv = text(2)
                        .split(';')
                        .filter(|s| !s.is_empty())
                        .filter_map(|s| s.split_once('='))
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect();
                    out.rows.insert(text(1), kv);
                }
                "metric" => {
                    out.metrics.insert(text(1), num(2));
                }
                "self" => out
                    .self_times
                    .push((text(1), num(2), text(3).parse().unwrap_or(0))),
                _ => {}
            }
        }
    }
    match child.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => out.fail(format!("workload process {args:?} exited with {status}")),
        Err(e) => out.fail(format!("waiting for workload process {args:?}: {e}")),
    }
    if out.ready_s.is_none() {
        out.fail(format!("workload process {args:?} never finished set-up"));
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values read as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line and its detail line.
struct Outcome {
    attempted: u64,
    fails: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: Vec<(String, String)>,
}

impl Outcome {
    fn print(&self) {
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        println!("{{\"detail\":{{{}}}}}", detail.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.fails.is_empty(),
            self.attempted.max(1),
            self.fails.len(),
            metrics.join(",")
        );
    }
}

fn host_detail() -> Vec<(String, String)> {
    vec![
        ("nproc".into(), host::nproc().to_string()),
        ("cpu_model".into(), json_str(&host::cpu_model())),
        ("calibration_ms".into(), json_num(host::calibration_ms())),
    ]
}

fn fails_detail(fails: &[String]) -> String {
    let shown: Vec<String> = fails.iter().take(20).map(|f| json_str(f)).collect();
    format!("[{}]", shown.join(","))
}

/// `--trace 0`: timed set-ups, then untraced passes, all isolated.
fn end_to_end(a: &Args) -> Outcome {
    let w = a.workload.name().to_string();
    let seed = a.seed.to_string();
    let mut setups = Vec::new();
    let mut fails = Vec::new();
    let mut attempted = 0;
    for rep in 0..=a.workload.setup_reps() {
        let s = spawn_child(&["setup".into(), w.clone(), seed.clone()]);
        attempted += s.attempted;
        fails.extend(s.fails);
        if rep > 0 {
            setups.extend(s.ready_s);
        }
    }
    let mut runs = Vec::new();
    if a.workload.process_per_pass() {
        let started = Instant::now();
        let mut k = 0;
        while k == 0 || started.elapsed().as_secs() < a.seconds {
            let pass_seed = workload::pass_seed(a.seed, k).to_string();
            runs.push(spawn_child(&[
                "run".into(),
                w.clone(),
                pass_seed,
                "0".into(),
                "0".into(),
            ]));
            k += 1;
        }
    } else {
        runs.push(spawn_child(&[
            "run".into(),
            w,
            seed,
            a.seconds.to_string(),
            "0".into(),
        ]));
    }
    let mut passes: Vec<(f64, u64)> = Vec::new();
    let mut ops: Vec<f64> = Vec::new();
    // A suite pass's peak depends on which jobs its threads overlap,
    // so the workload's peak is the highest over its pass processes.
    let mut peak_rss: f64 = 0.0;
    for run in &runs {
        attempted += run.attempted;
        fails.extend(run.fails.iter().cloned());
        passes.extend(&run.passes);
        ops.extend(&run.ops);
        peak_rss = peak_rss.max(run.metric("peak_rss_mb"));
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let rates: Vec<f64> = passes.iter().map(|&(wall, nr)| nr as f64 / wall).collect();
    let total_wall: f64 = walls.iter().sum();
    let tail_p = stats::tail_percentile(ops.len());
    let pass_frac = 1.0 - fails.len() as f64 / attempted.max(1) as f64;
    let metrics = vec![
        stats::median(&walls),
        stats::median(&rates),
        if total_wall > 0.0 {
            ops.len() as f64 / total_wall
        } else {
            0.0
        },
        stats::median(&ops) * 1e3,
        stats::percentile(&ops, tail_p) * 1e3,
        stats::median(&setups),
        peak_rss,
        pass_frac,
    ];
    let mut detail = host_detail();
    detail.push(("passes".into(), walls.len().to_string()));
    let spread: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| json_num(stats::percentile(&walls, p)))
        .collect();
    detail.push((
        "wall_p10_p25_p50_p75_p90_s".into(),
        format!("[{}]", spread.join(",")),
    ));
    detail.push(("latency_samples".into(), ops.len().to_string()));
    detail.push(("tail_percentile".into(), json_num(tail_p)));
    let setups_json: Vec<String> = setups.iter().map(|s| json_num(*s)).collect();
    detail.push((
        "setup_samples_s".into(),
        format!("[{}]", setups_json.join(",")),
    ));
    detail.push(("failures".into(), fails_detail(&fails)));
    Outcome {
        attempted,
        fails,
        metrics: END_TO_END
            .iter()
            .zip(metrics)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        detail,
    }
}

/// `--trace 1`: an untraced run and a traced run, each isolated; the
/// traced run's rows must equal the untraced run's.
fn per_layer(a: &Args) -> Outcome {
    let w = a.workload.name().to_string();
    let seed = a.seed.to_string();
    let secs = a.seconds.to_string();
    let plain = spawn_child(&[
        "run".into(),
        w.clone(),
        seed.clone(),
        secs.clone(),
        "0".into(),
    ]);
    let traced = spawn_child(&["run".into(), w, seed, secs, "1".into()]);
    let mut attempted = plain.attempted + traced.attempted;
    let mut fails: Vec<String> = plain.fails.iter().chain(&traced.fails).cloned().collect();

    // Observer purity: every traced row equals the untraced row.
    for (id, values) in &traced.rows {
        attempted += 1;
        match plain.rows.get(id) {
            Some(want) => {
                let want: BTreeMap<&str, &str> =
                    want.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                if let Some((k, v)) = values
                    .iter()
                    .find(|(k, v)| want.get(k.as_str()) != Some(&v.as_str()))
                {
                    fails.push(format!(
                        "row {id}: traced {k}={v}, untraced {:?}",
                        want.get(k.as_str())
                    ));
                }
            }
            // Time-bounded workloads run different pass counts.
            None if !a.workload.is_suite() => {}
            None => fails.push(format!("row {id}: missing from the untraced run")),
        }
    }
    // Node-rounds are a logical count: the traced transport must count
    // exactly what the untraced pass derived.
    if a.workload.is_suite() {
        attempted += 1;
        let counted = traced.metric("count.node_rounds") as u64;
        let logical = plain.passes.first().map_or(0, |p| p.1);
        if counted != logical {
            fails.push(format!(
                "node-rounds: traced transport counted {counted}, untraced pass {logical}"
            ));
        }
    }
    attempted += 1;
    if traced.metric("bench.self_residual_ns") != 0.0 {
        fails.push(format!(
            "self times miss the traced wall by {} ns",
            traced.metric("bench.self_residual_ns")
        ));
    }

    let lookups = traced.metric("engine.store_lookups");
    let hit_ratio = if lookups > 0.0 {
        traced.metric("engine.store_hits") / lookups
    } else {
        0.0
    };
    let unattributed = traced
        .self_times
        .iter()
        .find(|r| r.0 == "unattributed")
        .map_or(0.0, |r| r.1);
    let value = |name: &str| -> f64 {
        match name {
            "model.node_rounds" => traced.metric("count.node_rounds"),
            "engine.store_hit_ratio" => hit_ratio,
            "serve.cache_hit_ratio" if a.workload == Workload::ServeWarm => hit_ratio,
            "bench.unattributed_s" => unattributed,
            n if n.starts_with("runner.") => plain.metric(n),
            n => traced.metric(n),
        }
    };
    let mut detail = host_detail();
    let rows: Vec<String> = traced
        .self_times
        .iter()
        .map(|(n, s, c)| {
            format!(
                "{}:{{\"self_s\":{},\"calls\":{c}}}",
                json_str(n),
                json_num(*s)
            )
        })
        .collect();
    detail.push(("self_times".into(), format!("{{{}}}", rows.join(","))));
    detail.push(("failures".into(), fails_detail(&fails)));
    Outcome {
        attempted,
        fails,
        metrics: PER_LAYER.iter().map(|&(n, u)| (n, u, value(n))).collect(),
        detail,
    }
}

fn child(args: &[String]) -> ExitCode {
    let usage = || {
        eprintln!("usage: perfbench child setup W SEED | child run W SEED SECONDS 0|1");
        ExitCode::from(2)
    };
    let (Some(mode), Some(w), Some(seed)) = (
        args.first(),
        args.get(1).and_then(|w| Workload::parse(w)),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        return usage();
    };
    let outcome = match mode.as_str() {
        "setup" => workload::setup_only(w, seed),
        "run" => {
            let (Some(seconds), Some(trace)) =
                (args.get(3).and_then(|s| s.parse::<f64>().ok()), args.get(4))
            else {
                return usage();
            };
            workload::run(w, seed, seconds, trace == "1")
        }
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => return child(&args[1..]),
        Some("daemon") => {
            let threads = args.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
            return match serve::daemon(threads) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if a.trace {
        per_layer(&a)
    } else {
        end_to_end(&a)
    };
    result.print();
    ExitCode::SUCCESS
}
