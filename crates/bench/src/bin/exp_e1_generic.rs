//! E1 — Theorem 3.1: the generic `(1-ε)`-MCM algorithm.
//!
//! Paper claim: Algorithm 1 with `k = ⌈1/ε⌉` phases computes a
//! `(1 - 1/(k+1))`-MCM in `O(ε⁻³ log n)` rounds with `O(|V|+|E|)`-bit
//! messages. We sweep `n` and `k` on sparse G(n,p) (expected degree 4)
//! and report the measured ratio against the blossom optimum, the
//! measured rounds (and rounds normalized by `log₂ n`), and the largest
//! message.

use bench_harness::{banner, f2, f3, Table};
use dgraph::generators::random::gnp;
use dmatch::{Algorithm, Session};

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
    ]);
    for &n in &[64usize, 128, 256, 512] {
        let p = 4.0 / n as f64;
        for k in 1..=3usize {
            let mut ratios = Vec::new();
            let mut rounds = Vec::new();
            let mut maxmsg = 0u64;
            for seed in 0..3u64 {
                let g = gnp(n, p, 1000 + seed);
                let r = Session::on(&g)
                    .algorithm(Algorithm::Generic { k })
                    .seed(seed)
                    .build()
                    .run_to_completion();
                ratios.push(r.mcm_ratio(&g));
                rounds.push(r.stats.rounds as f64);
                maxmsg = maxmsg.max(r.stats.max_msg_bits);
            }
            let bound = 1.0 - 1.0 / (k as f64 + 1.0);
            let rmean = bench_harness::mean(&rounds);
            let rmin = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            // Theorem 3.1's guarantee is deterministic: every run meets it.
            assert!(
                rmin >= bound - 1e-9,
                "n {n}, k {k}: ratio {rmin} below the bound {bound}"
            );
            t.row(vec![
                n.to_string(),
                k.to_string(),
                f3(bound),
                format!("{}/{}", f3(rmin), f3(bench_harness::mean(&ratios))),
                f2(rmean),
                f2(rmean / (n as f64).log2()),
                maxmsg.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shape: every ratio ≥ its bound (deterministic guarantee); rounds/log2(n)\n\
         roughly constant per k and growing ~k³ across k; max message far above CONGEST\n\
         (the generic algorithm ships subgraph views — that is Theorem 3.1's trade-off)."
    );
}
