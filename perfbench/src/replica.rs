//! Layer-level replicas of the suite's jobs, for the traced run.
//!
//! A job closure constructs its own algorithms and calls the layers
//! from inside `bcc-experiments`, where the benchmark cannot wrap them.
//! Each replica here makes the same calls with the same inputs from the
//! benchmark instead: every `SimConfig::run`, batched measurement and
//! artifact-store front gets a span, and every algorithm runs under the
//! [`Timed`] wrapper. The values a replica computes are compared with
//! the untraced run's values for the same job, so a replica that drifts
//! from its job shows up as a failed row, never as silently wrong
//! layer numbers. Jobs without a replica run as they are, inside their
//! job span.

use crate::emit;
use crate::span::{self, Timed};
use bcc_algorithms::{
    BoruvkaMinLabel, FullGraphBroadcast, HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast,
    ParityDecider, Problem, SketchConnectivity, Truncated,
};
use bcc_comm::bounds::certify_rank;
use bcc_comm::reduction::Gadget;
use bcc_core::hard::{
    star_distribution, star_error_floor, uniform_two_cycle_distribution, WeightedInstance,
};
use bcc_core::indist::{lemma_3_9_degree_check, lemma_3_9_t_counts};
use bcc_core::kt1::simulation_bits_per_round;
use bcc_engine::{
    artifacts, distributional_error_batched, simulate_two_party_batched, ArtifactStore, MAX_LANES,
};
use bcc_experiments::exp_e8_sketch::instance_set;
use bcc_experiments::job::{job_seed, ExpJob, Value};
use bcc_graphs::generators;
use bcc_model::testing::ConstantDecision;
use bcc_model::{Algorithm, Decision, Instance, SimConfig};
use bcc_partitions::matrices::{partition_join_matrix, two_partition_matrix};
use bcc_partitions::random::uniform_matching_partition;
use rand::SeedableRng;

/// Counter: `BatchRun` calls (one per ≤ 64-lane chunk) made by the
/// batched measurements.
pub const BATCH_CALLS: &str = "count.batch_calls";

/// E8's quick-mode grid: cycle length and trials per bandwidth.
const E8_N: usize = 12;
pub const E8_TRIALS: usize = 6;
/// E5's quick-mode samples per ground-set size.
const E5_SAMPLES: usize = 4;
/// E2's quick-mode size for the error measurement.
const E2_ERR_N: usize = 6;

/// Job values as `(key, rendered value)`, rendered the way the
/// untraced run renders its `JobOutput` values.
pub type Values = Vec<(String, String)>;

fn put(values: &mut Values, key: impl Into<String>, v: impl Into<Value>) {
    values.push((key.into(), format!("{:?}", v.into())));
}

/// Renders every value of a job output.
pub fn render(values: &[(String, Value)]) -> Values {
    values
        .iter()
        .map(|(k, v)| (k.clone(), format!("{v:?}")))
        .collect()
}

/// Runs `job` through its replica when one exists; `None` otherwise.
pub fn run(job: &ExpJob, suite_seed: u64, store: &ArtifactStore) -> Option<Values> {
    let label = job.label.as_str();
    let num = |prefix: &str| -> Option<usize> { label.strip_prefix(prefix)?.parse().ok() };
    match job.experiment {
        "e7" => num("n=").map(e7_row),
        "e8" => num("b=").map(|b| e8_row(b, suite_seed)),
        "e1" => e1_piece(label),
        "e2" => {
            if let Some(n) = num("structure n=") {
                Some(e2_structure(n, job.seed, store))
            } else if let Some(n) = num("census n=") {
                Some(e2_census(n, store))
            } else {
                num("error t=").map(e2_error)
            }
        }
        "e3" => {
            if let Some(n) = num("M n=") {
                Some(e3_row("M", n, store))
            } else {
                num("E n=").map(|n| e3_row("E", n, store))
            }
        }
        "e5" => num("sim n=").map(|n| e5_sim(n, job.seed)),
        _ => None,
    }
}

fn instance(f: impl FnOnce() -> Instance) -> Instance {
    span::scope("model.instance", f)
}

/// One scalar run under a span, with the algorithm timed.
fn sim_run(
    sim: &SimConfig,
    inst: &Instance,
    algo: &dyn Algorithm,
    coin: u64,
) -> bcc_model::RunOutcome {
    let timed = Timed::new(algo);
    span::scope("model.run", || sim.run(inst, &timed, coin))
}

fn e7_row(n: usize) -> Values {
    let g = span::scope("graphs.generate", || generators::cycle(n));
    let kt1 = instance(|| Instance::new_kt1(g.clone()).expect("cycle is a valid KT-1 input"));
    let kt0 = instance(|| Instance::new_kt0(g, 5).expect("cycle is a valid KT-0 input"));
    let sim = SimConfig::bcc1(1_000_000).transcripts(false);
    let rounds = |sim: &SimConfig, i: &Instance, a: &dyn Algorithm| {
        let out = sim_run(sim, i, a, 0);
        (out.system_decision() == Decision::Yes, out.stats().rounds)
    };
    let blog = bcc_model::codec::bits_needed(n);
    let sim_blog = SimConfig::bcc1(1_000_000)
        .bandwidth(blog)
        .transcripts(false);
    let blog_run = rounds(
        &sim_blog,
        &kt1,
        &BoruvkaMinLabel::new(Problem::Connectivity),
    );
    let nbr_kt1 = rounds(&sim, &kt1, &NeighborIdBroadcast::new(Problem::TwoCycle));
    let nbr_kt0 = rounds(
        &sim,
        &kt0,
        &Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
    );
    let boruvka = rounds(&sim, &kt1, &BoruvkaMinLabel::new(Problem::Connectivity));
    let full = rounds(&sim, &kt1, &FullGraphBroadcast::new(Problem::Connectivity));
    let mut v = Values::new();
    put(&mut v, "n", n);
    put(&mut v, "neighbor_kt1", nbr_kt1.1);
    put(&mut v, "neighbor_kt0", nbr_kt0.1);
    put(&mut v, "boruvka", boruvka.1);
    put(&mut v, "boruvka_blog", blog_run.1);
    put(&mut v, "full", full.1);
    if ![blog_run, nbr_kt1, nbr_kt0, boruvka, full]
        .iter()
        .all(|r| r.0)
    {
        emit::fail(&format!(
            "e7 replica n={n}: an algorithm answered NO on a cycle"
        ));
    }
    v
}

fn e8_row(b: usize, suite_seed: u64) -> Values {
    let input_seed = job_seed(suite_seed, "e8/inputs", 0);
    let graphs = span::scope("graphs.generate", || {
        instance_set(E8_N, E8_TRIALS, input_seed)
    });
    let algo = SketchConnectivity::new(Problem::Connectivity);
    let sim = SimConfig::bcc1(50_000_000).bandwidth(b).transcripts(false);
    let mut rounds_total = 0usize;
    let mut correct = 0usize;
    for (i, (g, truth)) in graphs.iter().enumerate() {
        let inst = instance(|| Instance::new_kt1(g.clone()).expect("generated input is valid"));
        let out = sim_run(&sim, &inst, &algo, i as u64);
        rounds_total += out.stats().rounds;
        if (out.system_decision() == Decision::Yes) == *truth {
            correct += 1;
        }
    }
    let mut v = Values::new();
    put(&mut v, "n", E8_N);
    put(&mut v, "b", b);
    put(
        &mut v,
        "mean_rounds",
        rounds_total as f64 / graphs.len() as f64,
    );
    put(&mut v, "accuracy", correct as f64 / graphs.len() as f64);
    put(&mut v, "sketch_bits", SketchConnectivity::sketch_bits(E8_N));
    v
}

/// `BatchRun` calls `distributional_error_batched` makes on `dist`:
/// one per maximal same-size slice of at most [`MAX_LANES`] instances.
fn batch_calls(dist: &[WeightedInstance]) -> u64 {
    let mut calls = 0u64;
    let mut i = 0;
    while i < dist.len() {
        let n = dist[i].instance.num_vertices();
        let mut j = i + 1;
        while j < dist.len() && j - i < MAX_LANES && dist[j].instance.num_vertices() == n {
            j += 1;
        }
        calls += 1;
        i = j;
    }
    calls
}

/// One batched distributional-error measurement under an
/// `engine.batch` span, with the algorithm timed.
fn batched_error(dist: &[WeightedInstance], algo: &dyn Algorithm, t: usize, coin: u64) -> f64 {
    let timed = Timed::new(algo);
    span::count(BATCH_CALLS, batch_calls(dist));
    span::scope("engine.batch", || {
        distributional_error_batched(dist, &timed, t, coin)
    })
}

fn truncated_real(t: usize) -> Truncated<Kt0Upgrade<NeighborIdBroadcast>> {
    Truncated::new(
        Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
        t,
    )
}

/// The algorithm of an e1/e2 error piece, by its report name.
fn strawman(name: &str, t: usize) -> Option<Box<dyn Algorithm>> {
    Some(match name {
        "constant-yes" => Box::new(ConstantDecision::yes()),
        "hash-vote(rand)" | "hash-vote" => Box::new(HashVoteDecider::new(t.max(1))),
        "parity-vote" => Box::new(ParityDecider::new(t.max(1))),
        "truncated-real" => Box::new(truncated_real(t)),
        _ => return None,
    })
}

fn e1_piece(label: &str) -> Option<Values> {
    let mut v = Values::new();
    if label == "transition" {
        let n = 27;
        let t_full = 4 * bcc_model::codec::bits_needed(n);
        let dist = span::scope("core.hard_distribution", || star_distribution(n));
        let e = batched_error(&dist, &truncated_real(t_full), t_full, 0);
        put(&mut v, "n", n);
        put(&mut v, "t_full", t_full);
        put(&mut v, "err_full", e);
        return Some(v);
    }
    // "n={n} t={t} {algo}" with an optional trailing " c={coin}".
    let mut parts = label.split(' ');
    let n: usize = parts.next()?.strip_prefix("n=")?.parse().ok()?;
    let t: usize = parts.next()?.strip_prefix("t=")?.parse().ok()?;
    let name = parts.next()?;
    let coin: Option<u64> = match parts.next() {
        Some(c) => Some(c.strip_prefix("c=")?.parse().ok()?),
        None => None,
    };
    let algo = strawman(name, t)?;
    let dist = span::scope("core.hard_distribution", || star_distribution(n));
    let e = batched_error(&dist, algo.as_ref(), t, coin.unwrap_or(0));
    put(&mut v, "n", n);
    put(&mut v, "t", t);
    put(&mut v, "floor", star_error_floor(n, t));
    put(&mut v, "algo", name);
    put(&mut v, "error", e);
    if let Some(c) = coin {
        put(&mut v, "coin", c);
    }
    Some(v)
}

/// One artifact-store front call under a span named for its outcome:
/// `engine.store.hit` or `engine.store.miss` (compute and insert).
fn front<T>(store: &ArtifactStore, f: impl FnOnce() -> T) -> T {
    let hits = store.hits();
    span::open("engine.store");
    let out = f();
    span::close_named(if store.hits() > hits {
        "engine.store.hit"
    } else {
        "engine.store.miss"
    });
    out
}

fn e2_structure(n: usize, seed: u64, store: &ArtifactStore) -> Values {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = front(store, || artifacts::indist_round_zero(store, n));
    let harmonic: f64 = (3..=n / 2)
        .map(|i| {
            let per = if 2 * i == n { n as f64 / 2.0 } else { n as f64 };
            per / (2.0 * i as f64 * (n - i) as f64)
        })
        .sum();
    let sizes = [1, 2, g.v2_len() / 4 + 1, g.v2_len()];
    let (degrees_exact, k_v2, expansion) = span::scope("core.indist_structure", || {
        (
            lemma_3_9_degree_check(&g),
            g.max_k_matching_v2(1 + g.v1_len() / g.v2_len().max(1)),
            g.sampled_expansion_v2(&sizes, 8, &mut rng),
        )
    });
    let mut v = Values::new();
    put(&mut v, "n", n);
    put(&mut v, "v1", g.v1_len());
    put(&mut v, "v2", g.v2_len());
    put(&mut v, "ratio", g.count_ratio());
    put(&mut v, "harmonic", harmonic);
    put(&mut v, "k_v2", k_v2);
    put(&mut v, "expansion", expansion);
    if !degrees_exact {
        emit::fail(&format!(
            "e2 replica n={n}: Lemma 3.9 degree formulas differ"
        ));
    }
    v
}

fn e2_census(n: usize, store: &ArtifactStore) -> Values {
    let g = front(store, || artifacts::indist_round_zero(store, n));
    let counts = span::scope("core.indist_structure", || lemma_3_9_t_counts(&g));
    let mut v = Values::new();
    for (i, count, _) in counts {
        put(&mut v, format!("T_{i}"), count);
    }
    v
}

fn e2_error(t: usize) -> Values {
    let dist = span::scope("core.hard_distribution", || {
        uniform_two_cycle_distribution(E2_ERR_N)
    });
    let mut v = Values::new();
    put(&mut v, "n", E2_ERR_N);
    put(&mut v, "t", t);
    for name in ["constant-yes", "hash-vote", "parity-vote", "truncated-real"] {
        let algo = strawman(name, t).expect("known strawman");
        put(
            &mut v,
            format!("err:{name}"),
            batched_error(&dist, algo.as_ref(), t, 0),
        );
    }
    v
}

fn e3_row(matrix: &'static str, n: usize, store: &ArtifactStore) -> Values {
    let jm = span::scope("partitions.matrix", || {
        if matrix == "M" {
            partition_join_matrix(n)
        } else {
            two_partition_matrix(n)
        }
    });
    let cert = span::scope("comm.certify_rank", || certify_rank(&jm));
    let rank_gf2 = front(store, || {
        if matrix == "M" {
            artifacts::join_matrix_rank(store, n)
        } else {
            artifacts::two_partition_rank(store, n)
        }
    });
    let mut v = Values::new();
    put(&mut v, "matrix", matrix);
    put(&mut v, "n", n);
    put(&mut v, "dim", cert.dim);
    put(&mut v, "rank", cert.rank);
    put(&mut v, "rank_gf2", rank_gf2);
    put(&mut v, "log2_rank", cert.comm_lower_bound_bits);
    v
}

fn e5_sim(n: usize, seed: u64) -> Values {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let algo = NeighborIdBroadcast::new(Problem::MultiCycle);
    let pairs: Vec<_> = (0..E5_SAMPLES)
        .map(|_| {
            (
                uniform_matching_partition(n, &mut rng),
                uniform_matching_partition(n, &mut rng),
            )
        })
        .collect();
    let timed = Timed::new(&algo);
    span::count(BATCH_CALLS, pairs.len().div_ceil(MAX_LANES) as u64);
    let reports = span::scope("engine.batch", || {
        simulate_two_party_batched(Gadget::TwoRegular, &timed, &pairs, 0, 1_000_000)
    })
    .unwrap_or_default();
    let mut v = Values::new();
    put(&mut v, "n", n);
    put(
        &mut v,
        "rounds",
        reports.iter().map(|r| r.rounds).max().unwrap_or(0),
    );
    put(
        &mut v,
        "bits",
        reports.iter().map(|r| r.bits_exchanged).max().unwrap_or(0),
    );
    put(
        &mut v,
        "bits_per_round",
        simulation_bits_per_round(Gadget::TwoRegular, n),
    );
    v
}
