//! `crossing-indist`: Lemma 3.4 executed at scale.
//!
//! On canonical KT-0 cycles, the truncated `Kt0Upgrade(NeighborIdBroadcast)`
//! runs `t < ⌈log₂ n⌉` rounds. A pass takes the label census of each
//! cycle (`broadcast_strings`, `best_label_pair`, `active_edges`),
//! samples independent same-label edge pairs from the most common
//! label with the workload seed, crosses each pair (`cross_instance`)
//! and checks that the crossed instance is indistinguishable from the
//! original after `t` rounds. Every pair is one operation; a pair that
//! is distinguishable violates the lemma and fails.
//!
//! This is the one workload that records transcripts.

use crate::emit;
use crate::span::{self, Timed};
use bcc_algorithms::{Kt0Upgrade, NeighborIdBroadcast, Problem, Truncated};
use bcc_core::crossing::{are_independent, cross_instance, indistinguishable_after, DirectedEdge};
use bcc_core::labels::{active_edges, best_label_pair, broadcast_strings};
use bcc_graphs::generators;
use bcc_model::{runs_indistinguishable, Algorithm, Instance, RunOutcome, SimConfig};
use std::time::Instant;

/// `(n, t, pairs per pass)`. One size only, so every request does the
/// same work and the latency percentiles never fall on the boundary
/// between two sizes.
const CASES: [(usize, usize, usize); 1] = [(128, 4, 4)];

/// Counter: symbols recorded in transcripts (sent plus received).
pub const TRANSCRIPT_SYMBOLS: &str = "count.transcript_symbols";

/// Canonical instances, ready for passes.
#[derive(Debug)]
pub struct Prepared {
    seed: u64,
    cases: Vec<(Instance, usize, usize)>,
}

/// Builds the canonical KT-0 cycles.
pub fn prepare(seed: u64) -> Prepared {
    Prepared {
        seed,
        cases: CASES
            .iter()
            .map(|&(n, t, pairs)| {
                let inst = Instance::new_kt0_canonical(generators::cycle(n))
                    .expect("a cycle is a valid KT-0 input");
                (inst, t, pairs)
            })
            .collect(),
    }
}

/// splitmix64: a small, seedable, portable generator for sampling.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Up to `want` independent pairs among `active`, drawn with `rng`.
fn sample_pairs(
    inst: &Instance,
    active: &[DirectedEdge],
    want: usize,
    rng: &mut SplitMix,
) -> Vec<(DirectedEdge, DirectedEdge)> {
    let mut out = Vec::new();
    if active.len() < 2 {
        return out;
    }
    for _ in 0..want * 64 {
        if out.len() == want {
            break;
        }
        let a = active[rng.below(active.len())];
        let b = active[rng.below(active.len())];
        if are_independent(inst.input(), a, b) {
            out.push((a, b));
        }
    }
    out
}

fn transcript_symbols(run: &RunOutcome, n: usize) -> u64 {
    (0..n)
        .map(|v| {
            let t = run.transcript(v);
            let sent: usize = t.sent.iter().map(|m| m.len()).sum();
            let received: usize = t.received.iter().flatten().map(|(_, m)| m.len()).sum();
            (sent + received) as u64
        })
        .sum()
}

/// `indistinguishable_after`, spelled out so the traced run can span
/// each of its two runs and count their transcripts.
fn traced_indistinguishable(
    a: &Instance,
    b: &Instance,
    algo: &dyn Algorithm,
    t: usize,
    coin: u64,
) -> bool {
    span::scope("model.indist_compare", || {
        let sim = SimConfig::bcc1(t);
        let timed = Timed::new(algo);
        let ra = span::scope("model.run", || sim.run(a, &timed, coin));
        let rb = span::scope("model.run", || sim.run(b, &timed, coin));
        span::count(
            TRANSCRIPT_SYMBOLS,
            transcript_symbols(&ra, a.num_vertices()) + transcript_symbols(&rb, b.num_vertices()),
        );
        runs_indistinguishable(&ra, &rb)
    })
}

/// One pass over every case. Returns node-rounds delivered.
pub fn pass(p: &Prepared, pass_id: u32, traced: bool) -> u64 {
    let mut node_rounds = 0u64;
    let mut attempted = 0u64;
    let start = Instant::now();
    for (case, (inst, t, want)) in p.cases.iter().enumerate() {
        let (n, t) = (inst.num_vertices(), *t);
        let algo = Truncated::new(
            Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
            t,
        );
        let coin = p.seed;
        let timed = Timed::new(&algo);
        let run_algo: &dyn Algorithm = if traced { &timed } else { &algo };
        let active = span::scope("core.label_census", || {
            let strings = broadcast_strings(inst, run_algo, t, coin);
            let (label, _) = best_label_pair(inst.input(), &strings);
            active_edges(inst.input(), &strings, &label.0, &label.1)
        });
        node_rounds += (n * t) as u64;
        let mut rng = SplitMix(
            p.seed ^ (u64::from(pass_id) << 32) ^ (case as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        let pairs = sample_pairs(inst, &active, *want, &mut rng);
        if pairs.len() < *want {
            attempted += 1;
            emit::fail(&format!(
                "n={n} t={t}: only {} independent same-label pairs among {} active edges",
                pairs.len(),
                active.len()
            ));
        }
        let mut verdicts = Vec::new();
        for (e1, e2) in pairs {
            attempted += 1;
            let op = Instant::now();
            span::open("crossing.pair");
            let crossed = span::scope("core.cross_instance", || cross_instance(inst, e1, e2));
            let verdict = crossed.map(|crossed| {
                node_rounds += (2 * n * t) as u64;
                if traced {
                    traced_indistinguishable(inst, &crossed, &algo, t, coin)
                } else {
                    indistinguishable_after(inst, &crossed, &algo, t, coin)
                }
            });
            span::close();
            emit::op(op.elapsed().as_secs_f64());
            match &verdict {
                Ok(true) => {}
                Ok(false) => emit::fail(&format!(
                    "n={n} t={t} {e1} {e2}: Lemma 3.4 violated (distinguishable)"
                )),
                Err(e) => emit::fail(&format!("n={n} t={t} {e1} {e2}: crossing failed: {e}")),
            }
            verdicts.push((format!("{e1}|{e2}"), format!("{:?}", verdict.ok())));
        }
        emit::row(&format!("pass={pass_id} n={n} t={t}"), &verdicts);
    }
    emit::attempted(attempted);
    emit::pass(start.elapsed().as_secs_f64(), node_rounds);
    node_rounds
}
