//! E1 — Theorem 3.1: the generic `(1-ε)`-MCM algorithm.
//!
//! Paper claim: Algorithm 1 with `k = ⌈1/ε⌉` phases computes a
//! `(1 - 1/(k+1))`-MCM in `O(ε⁻³ log n)` rounds with `O(|V|+|E|)`-bit
//! messages. We sweep `n` and `k` on sparse G(n,p) (expected degree 4)
//! and report the measured ratio against the blossom optimum, the
//! measured rounds (and rounds normalized by `log₂ n`), the largest
//! message, and the most rounds any phase's conflict-graph MIS took.
//!
//! Step 5's MIS is greedy in a random rank order, run as parallel
//! rounds, which end in `O(log n)` rounds whp (Fischer–Noever, SODA
//! 2018). Each row asserts that no phase took more than
//! `MIS_ROUNDS_PER_LOG2_N · log₂ n` rounds. On gnp with average degree
//! 4 at n = 800 … 12800 (`log₂ n` = 9.6 … 13.6) the largest per-phase
//! count read 4–6, about half that bound (see EXPERIMENTS.md).

use bench_harness::{banner, f2, f3, Table};
use dgraph::generators::random::gnp;
use dmatch::{Algorithm, Session};

/// Bound on the conflict-graph MIS rounds of one phase, per `log₂ n`.
const MIS_ROUNDS_PER_LOG2_N: f64 = 1.0;

fn main() {
    banner(
        "E1",
        "generic (1-ε)-MCM — ratio, rounds, message size",
        "Theorem 3.1 / Algorithms 1+2",
    );
    let mut t = Table::new(vec![
        "n",
        "k",
        "bound 1-1/(k+1)",
        "ratio(min/mean)",
        "rounds",
        "rounds/log2(n)",
        "maxmsg(bits)",
        "max MIS rounds/phase",
    ]);
    for &n in &[64usize, 128, 256, 512] {
        let p = 4.0 / n as f64;
        for k in 1..=3usize {
            let mut ratios = Vec::new();
            let mut rounds = Vec::new();
            let mut maxmsg = 0u64;
            let mut max_mis = 0u64;
            for seed in 0..3u64 {
                let g = gnp(n, p, 1000 + seed);
                let mut s = Session::on(&g)
                    .algorithm(Algorithm::Generic { k })
                    .seed(seed)
                    .build();
                let r = s.run_to_completion();
                ratios.push(r.mcm_ratio(&g));
                rounds.push(r.stats.rounds as f64);
                maxmsg = maxmsg.max(r.stats.max_msg_bits);
                max_mis = s
                    .phase_log()
                    .iter()
                    .map(|ph| ph.iterations)
                    .fold(max_mis, u64::max);
            }
            let bound = 1.0 - 1.0 / (k as f64 + 1.0);
            let rmean = bench_harness::mean(&rounds);
            let rmin = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            // Theorem 3.1's guarantee is deterministic: every run meets it.
            assert!(
                rmin >= bound - 1e-9,
                "n {n}, k {k}: ratio {rmin} below the bound {bound}"
            );
            let mis_bound = MIS_ROUNDS_PER_LOG2_N * (n as f64).log2();
            assert!(
                max_mis as f64 <= mis_bound,
                "n {n}, k {k}: a phase's MIS took {max_mis} rounds, over {mis_bound:.1}"
            );
            t.row(vec![
                n.to_string(),
                k.to_string(),
                f3(bound),
                format!("{}/{}", f3(rmin), f3(bench_harness::mean(&ratios))),
                f2(rmean),
                f2(rmean / (n as f64).log2()),
                maxmsg.to_string(),
                max_mis.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shape: every ratio ≥ its bound (deterministic guarantee); rounds/log2(n)\n\
         roughly constant per k and growing ~k³ across k; max message far above CONGEST\n\
         (the generic algorithm ships subgraph views — that is Theorem 3.1's trade-off);\n\
         max MIS rounds per phase within {MIS_ROUNDS_PER_LOG2_N}·log2(n) (asserted)."
    );
}
