//! Observer purity: the traced run's instruments must not change what
//! they observe. On small instances, a run under the timing `Algorithm`
//! wrapper and the timing `TransportFactory` must produce the same
//! decisions, rounds, stats and transcripts as a plain run, scalar and
//! batched alike; and the self-time table must add up to the traced
//! wall time.

use bcc_algorithms::{
    BoruvkaMinLabel, FullGraphBroadcast, Kt0Upgrade, NeighborIdBroadcast, Problem,
    SketchConnectivity, Truncated,
};
use bcc_core::hard::star_distribution;
use bcc_engine::distributional_error_batched;
use bcc_graphs::generators;
use bcc_model::testing::{EchoBit, IdBroadcast};
use bcc_model::{Algorithm, Instance, RunOutcome, SimConfig};
use perfbench::span::{self, Timed, TimingFactory};
use std::sync::Arc;

fn assert_same_outcome(plain: &RunOutcome, traced: &RunOutcome, n: usize, what: &str) {
    assert_eq!(plain.decisions(), traced.decisions(), "{what}: decisions");
    assert_eq!(plain.stats(), traced.stats(), "{what}: stats");
    assert_eq!(
        plain.component_labels(),
        traced.component_labels(),
        "{what}: labels"
    );
    for v in 0..n {
        assert_eq!(
            plain.transcript(v),
            traced.transcript(v),
            "{what}: transcript {v}"
        );
    }
}

fn kt1_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
        Box::new(BoruvkaMinLabel::new(Problem::Connectivity)),
        Box::new(FullGraphBroadcast::new(Problem::Connectivity)),
        Box::new(SketchConnectivity::new(Problem::Connectivity)),
        Box::new(EchoBit),
    ]
}

fn kt0_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle))),
        Box::new(EchoBit),
        Box::new(IdBroadcast::new()),
    ]
}

#[test]
fn timing_wrappers_leave_scalar_runs_unchanged() {
    let cases = [
        (
            Instance::new_kt1(generators::cycle(12)).unwrap(),
            kt1_algorithms(),
        ),
        (
            Instance::new_kt1(generators::two_cycles(5, 6)).unwrap(),
            kt1_algorithms(),
        ),
        (
            Instance::new_kt0(generators::two_cycles(5, 6), 3).unwrap(),
            kt0_algorithms(),
        ),
        (
            Instance::new_kt0_canonical(generators::cycle(16)).unwrap(),
            kt0_algorithms(),
        ),
    ];
    span::enable();
    for (inst, algos) in &cases {
        let n = inst.num_vertices();
        for algo in algos {
            for record in [false, true] {
                let plain = SimConfig::bcc1(400).transcripts(record);
                let traced = plain.clone().transport(Arc::new(TimingFactory));
                let timed = Timed::new(algo.as_ref());
                let a = plain.run(inst, algo.as_ref(), 9);
                let b = span::scope("model.run", || traced.run(inst, &timed, 9));
                assert_same_outcome(&a, &b, n, algo.name());
            }
        }
    }
    let rec = span::take();
    assert!(rec.counters[span::NODE_ROUNDS] > 0, "the transport counted");
}

#[test]
fn timing_wrappers_leave_batched_measurements_unchanged() {
    let dist = star_distribution(27);
    for t in [1usize, 2] {
        let algo = Truncated::new(
            Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
            t,
        );
        let plain = distributional_error_batched(&dist, &algo, t, 0);
        span::enable();
        let traced = span::scope("engine.batch", || {
            distributional_error_batched(&dist, &Timed::new(&algo), t, 0)
        });
        let rec = span::take();
        assert_eq!(plain.to_bits(), traced.to_bits(), "t={t}");
        assert!(span::leaf_total(&rec, span::BROADCAST, true).1 > 0);
    }
}

#[test]
fn self_times_add_up_to_the_traced_wall() {
    span::enable();
    span::scope("pass", || {
        let inst = Instance::new_kt1(generators::cycle(10)).unwrap();
        let algo = BoruvkaMinLabel::new(Problem::Connectivity);
        let sim = SimConfig::bcc1(200).transport(Arc::new(TimingFactory));
        span::scope("outer", || {
            span::scope("model.run", || sim.run(&inst, &Timed::new(&algo), 0));
            span::scope("model.run", || sim.run(&inst, &Timed::new(&algo), 1));
        });
    });
    let rec = span::take();
    let table = span::self_times(&rec);
    assert_eq!(table.residual_ns, 0);
    let names: Vec<&str> = table.rows.iter().map(|r| r.0.as_str()).collect();
    for want in [
        "algorithms.broadcast",
        "model.exchange",
        "model.run",
        "outer",
        "unattributed",
    ] {
        assert!(names.contains(&want), "{want} missing from {names:?}");
    }
    let sum: f64 = table.rows.iter().map(|r| r.1).sum();
    assert!((sum - table.wall_s).abs() < 1e-6);
}

#[test]
fn golden_sections_split_on_report_trailers() {
    let text = "    Finished release\n== F1: a ==\nx\n[f1 passed in 1 jobs]\n\n== E1: b ==\ny\nz\n[e1 passed in 2 jobs]\n\n";
    assert_eq!(
        perfbench::suite::golden_section(text, "f1").as_deref(),
        Some("== F1: a ==\nx\n")
    );
    assert_eq!(
        perfbench::suite::golden_section(text, "e1").as_deref(),
        Some("== E1: b ==\ny\nz\n")
    );
    assert_eq!(perfbench::suite::golden_section(text, "e9"), None);
}

#[test]
fn pass_seeds_start_at_the_workload_seed_and_differ() {
    use perfbench::workload::pass_seed;
    assert_eq!(pass_seed(2024, 0), 2024);
    let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|k| pass_seed(7, k)).collect();
    assert_eq!(seeds.len(), 1000);
    assert_ne!(pass_seed(7, 1), pass_seed(8, 1));
}
