//! `upper-sweep` and `lower-batched`: quick-mode experiment sets run
//! through `run_suite`, the path `bcc-experiments --quick` takes.
//!
//! A pass is one `run_suite` call in a fresh process, so every pass
//! starts from a cold artifact store, as a CLI user does.
//!
//! The untraced pass calls `run_suite` once with observers off and
//! checks every report: at the default seed each report's text must
//! equal its section of [`GOLDEN`], at any other seed every report
//! check must pass. The traced pass walks the same job
//! list serially, each job inside a span, running the layer-level
//! replica of each job where one exists (see [`crate::replica`]).

use crate::emit;
use crate::replica::{self, Values};
use crate::span::{self, TimingFactory};
use bcc_experiments::job::{JobOutput, DEFAULT_SEED};
use bcc_experiments::{jobs_for, run_suite, SuiteOptions};
use bcc_model::transport::{self, TransportFactory};
use std::sync::Arc;
use std::time::Instant;

/// The golden reference the default seed is compared against: the
/// output of `bcc-experiments --quick e7 e8 e1 e2 e3 e5` at seed 2024.
pub const GOLDEN: &str = "perfbench/golden/quick.txt";

/// What a set-up leaves ready for a pass.
#[derive(Debug)]
pub struct Prepared {
    ids: &'static [&'static str],
    seed: u64,
    threads: usize,
    /// Golden report text per id (default seed only).
    golden: Option<Vec<String>>,
    /// Node-rounds of one pass when the job outputs do not carry them.
    pinned_node_rounds: Option<u64>,
}

/// Set-up: list every job (validating the ids) and load the golden
/// sections when the seed is the default. `threads` sizes the pool
/// (1 takes the serial path, as `--jobs 1` does).
///
/// # Errors
///
/// Returns a message when an id is unknown, or when the default seed
/// is asked for and the golden file or one of its sections is missing.
pub fn prepare(
    ids: &'static [&'static str],
    seed: u64,
    threads: usize,
    pinned_node_rounds: Option<u64>,
) -> Result<Prepared, String> {
    for id in ids {
        jobs_for(id, true, seed).map_err(|e| e.to_string())?;
    }
    let golden = if seed == DEFAULT_SEED {
        let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
        let sections = ids
            .iter()
            .map(|id| golden_section(&text, id).ok_or_else(|| format!("{GOLDEN}: no {id} section")))
            .collect::<Result<Vec<_>, _>>()?;
        Some(sections)
    } else {
        None
    };
    Ok(Prepared {
        ids,
        seed,
        threads,
        golden,
        pinned_node_rounds,
    })
}

/// The report text of experiment `id` inside the CLI's full output:
/// the lines after the previous `[.. passed in N jobs]` trailer (and
/// its blank line) up to this experiment's own trailer.
pub fn golden_section(text: &str, id: &str) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let is_trailer = |l: &str| l.starts_with('[') && l.contains(" passed in ");
    let end = lines
        .iter()
        .position(|l| l.starts_with(&format!("[{id} passed in ")))?;
    let start = match lines[..end].iter().rposition(|l| is_trailer(l)) {
        Some(prev) => prev + 2,
        None => lines.iter().position(|l| l.starts_with("== "))?,
    };
    let mut out = String::new();
    for l in lines.get(start..end)? {
        out.push_str(l);
        out.push('\n');
    }
    Some(out)
}

/// Node-rounds (Σ n × rounds over every scalar run and batched lane)
/// of a pass, derived from the job outputs where they carry it. `None`
/// for experiments whose outputs do not; the traced run counts those.
fn logical_node_rounds(outputs: &[&JobOutput]) -> Option<u64> {
    let mut total = 0u64;
    for o in outputs {
        let int = |k: &str| o.int(k).and_then(|v| u64::try_from(v).ok());
        match o.experiment.as_str() {
            "e7" => {
                let n = int("n")?;
                let rounds: u64 = [
                    "neighbor_kt1",
                    "neighbor_kt0",
                    "boruvka",
                    "boruvka_blog",
                    "full",
                ]
                .iter()
                .map(|k| int(k))
                .sum::<Option<u64>>()?;
                total += n * rounds;
            }
            "e8" => {
                let n = int("n")?;
                let trials = replica::E8_TRIALS as f64;
                let rounds = (o.float("mean_rounds")? * trials).round() as u64;
                total += n * rounds;
            }
            _ => return None,
        }
    }
    Some(total)
}

/// One untraced pass through `run_suite`, checked and reported.
pub fn pass(p: &Prepared) {
    let opts = SuiteOptions {
        quick: true,
        threads: p.threads,
        seed: p.seed,
        ..SuiteOptions::default()
    };
    let start = Instant::now();
    let suite = match run_suite(p.ids, &opts) {
        Ok(s) => s,
        Err(e) => {
            emit::attempted(1);
            emit::fail(&e.to_string());
            return;
        }
    };
    let wall = start.elapsed().as_secs_f64();

    let mut attempted = 0u64;
    for (i, report) in suite.reports.iter().enumerate() {
        for (what, ok) in &report.checks {
            attempted += 1;
            if !ok {
                emit::fail(&format!("{}: check failed: {what}", report.experiment));
            }
        }
        if let Some(golden) = &p.golden {
            attempted += 1;
            if report.text != golden[i] {
                emit::fail(&format!(
                    "{}: report differs from its {GOLDEN} section",
                    report.experiment
                ));
            }
        }
    }
    emit::attempted(attempted);

    let outputs: Vec<&JobOutput> = suite
        .job_results
        .iter()
        .filter_map(|r| r.status.output())
        .collect();
    for r in &suite.job_results {
        if let Some(o) = r.status.output() {
            emit::row(&r.id, &replica::render(&o.values));
        }
    }
    let node_rounds = logical_node_rounds(&outputs)
        .or(p.pinned_node_rounds)
        .unwrap_or(0);
    emit::op(wall);
    emit::pass(wall, node_rounds);

    let busy: f64 = suite
        .job_results
        .iter()
        .map(|r| r.latency.as_secs_f64())
        .sum();
    let critical = suite
        .job_results
        .iter()
        .map(|r| r.latency.as_secs_f64())
        .fold(0.0, f64::max);
    emit::metric("runner.busy_s", busy);
    emit::metric(
        "runner.idle_frac",
        (1.0 - busy / (p.threads as f64 * wall)).max(0.0),
    );
    emit::metric("runner.critical_job_s", critical);
    emit::metric("runner.jobs", suite.job_results.len() as f64);
    emit::metric("runner.retried", suite.metrics.retried as f64);
    emit::metric("runner.stolen", suite.metrics.stolen as f64);
}

/// The traced pass: every job of the set, serially, each its own pass
/// root with a job span inside; replicas where they exist, the job
/// itself otherwise.
///
/// Next to each traced job the job also runs once untraced (its own
/// closure, the local transport, no spans), alternating which goes
/// first, so `bench.trace_overhead_frac` compares the same serial work
/// with and without the instruments.
pub fn traced_pass(p: &Prepared) {
    let store = bcc_engine::ArtifactStore::in_memory();
    let timing: Arc<dyn TransportFactory> = Arc::new(TimingFactory);
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let jobs: Vec<_> = p
        .ids
        .iter()
        .flat_map(|id| jobs_for(id, true, p.seed).unwrap_or_default())
        .collect();
    for (i, job) in jobs.iter().enumerate() {
        let plain = || {
            transport::reset_default_factory();
            let start = Instant::now();
            std::hint::black_box(job.run_serial());
            start.elapsed().as_secs_f64()
        };
        let traced = || {
            transport::set_default_factory(Arc::clone(&timing));
            let start = Instant::now();
            span::set_pass(i as u32);
            span::open("pass");
            span::open("experiments.job");
            let values: Values = replica::run(job, p.seed, &store)
                .unwrap_or_else(|| replica::render(&job.run_serial().values));
            span::close();
            span::close();
            (start.elapsed().as_secs_f64(), values)
        };
        let (plain_t, (traced_t, values)) = if i % 2 == 0 {
            let a = plain();
            (a, traced())
        } else {
            let b = traced();
            (plain(), b)
        };
        plain_s += plain_t;
        traced_s += traced_t;
        emit::row(&job.id(), &values);
    }
    emit::metric("bench.trace_overhead_frac", traced_s / plain_s - 1.0);
    emit::metric("engine.store_lookups", store.lookups() as f64);
    emit::metric("engine.store_hits", store.hits() as f64);
}
