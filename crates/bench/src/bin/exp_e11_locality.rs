//! E11 — approximation vs. locality: the Kuhn–Moscibroda–Wattenhofer
//! context.
//!
//! The paper cites the Ω(√(log n / log log n)) lower bound for constant
//! approximation \[17\]: approximation quality is bought with rounds. We
//! run Algorithm 1 once with `k = 4` and read the frontier (cumulative
//! rounds, achieved ratio) off the per-phase observer — each phase buys
//! a `1/(k(k+1))` slice of the optimum for `O(k²)` extra rounds. The
//! phase schedule is prefix-stable, so the curve after phase `j` equals
//! a standalone `k = j` run with the same seed, and Theorem 3.1's
//! `(1-1/(j+1))` bound is asserted there for every phase of every run.

use bench_harness::{banner, f2, f3, Table};
use dgraph::generators::random::gnp;
use dmatch::{Algorithm, ConvergenceCurve, Session};

fn main() {
    banner(
        "E11",
        "approximation/locality frontier",
        "Algorithm 1 phases + Kuhn et al. [17]",
    );

    let kmax = 4usize;
    let mut t = Table::new(vec![
        "n",
        "phase ℓ",
        "guarantee",
        "ratio(mean)",
        "cum. rounds(mean)",
    ]);
    for &n in &[128usize, 512] {
        let p = 4.0 / n as f64;
        // One run per seed; the observer records the (round, size)
        // point after every phase — no truncated re-runs needed.
        let mut ratios = vec![Vec::new(); kmax];
        let mut rounds = vec![Vec::new(); kmax];
        for seed in 0..3u64 {
            let g = gnp(n, p, 400 + seed);
            let curve = ConvergenceCurve::new();
            Session::on(&g)
                .algorithm(Algorithm::Generic { k: kmax })
                .seed(seed)
                .observe(curve.clone())
                .build()
                .run_to_completion();
            let opt = dgraph::blossom::max_matching(&g).size();
            for (phase, pt) in curve.points().iter().enumerate() {
                // Theorem 3.1 after phase j = phase + 1 is deterministic:
                // |M| ≥ (1 - 1/(j+1))·|OPT|, i.e. |M|·(j+1) ≥ j·|OPT|.
                let j = phase + 1;
                assert!(
                    pt.matching_size * (j + 1) >= j * opt,
                    "n {n}, seed {seed}, phase {j}: |M| = {} below the bound for |OPT| = {opt}",
                    pt.matching_size
                );
                ratios[phase].push(pt.matching_size as f64 / opt.max(1) as f64);
                rounds[phase].push(pt.round as f64);
            }
        }
        for k in 1..=kmax {
            t.row(vec![
                n.to_string(),
                (2 * k - 1).to_string(),
                f3(1.0 - 1.0 / (k as f64 + 1.0)),
                f3(bench_harness::mean(&ratios[k - 1])),
                f2(bench_harness::mean(&rounds[k - 1])),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shape: ratio climbs 0.5 → 0.67 → 0.75 → 0.8 as phases accumulate,\n\
         with steeply growing round cost per increment — the approximation/time\n\
         trade-off that [17] proves is inherent."
    );
}
