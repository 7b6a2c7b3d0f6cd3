//! E9 — round-complexity scaling: rounds vs. `log n`.
//!
//! Every headline bound of the paper is `O(f(k,ε) · log n)` rounds. We
//! double `n` on sparse random graphs with all parameters fixed and
//! report rounds and the ratio `rounds / log₂ n`, which should converge
//! to a constant per algorithm (straight line on a log-x plot).

use bench_harness::{banner, f2, Table};
use dgraph::generators::random::{bipartite_regular, gnp};
use dgraph::generators::weights::{apply_weights, WeightModel};
use dmatch::weighted::MwmBox;
use dmatch::{Algorithm, Session};

fn main() {
    banner(
        "E9",
        "rounds vs log n (fixed k / ε)",
        "Theorems 3.1, 3.8, 3.11, 4.5",
    );

    let mut t = Table::new(vec![
        "n",
        "II rounds",
        "II/logn",
        "bip(k=3)",
        "bip/logn",
        "gen(k=2)",
        "gen/logn",
        "mwm(ε=.2)",
        "mwm/log²n",
    ]);
    for &exp in &[7u32, 8, 9, 10, 11, 12] {
        let n = 1usize << exp;
        let logn = n as f64;
        let logn = logn.log2();

        // Israeli–Itai on sparse gnp.
        let g = gnp(n, 6.0 / n as f64, 31 + exp as u64);
        let ii = Session::on(&g)
            .algorithm(Algorithm::IsraeliItai)
            .seed(exp as u64)
            .build()
            .run_to_completion();

        // Bipartite Theorem 3.8 on 3-regular bipartite (n/2 per side).
        let (bg, sides) = bipartite_regular(n / 2, 3, 77 + exp as u64);
        let bip = Session::on(&bg)
            .algorithm(Algorithm::Bipartite { k: 3 })
            .sides(&sides)
            .seed(exp as u64)
            .build()
            .run_to_completion();

        // General Algorithm 4 with early stop.
        let gen = Session::on(&g)
            .algorithm(Algorithm::General {
                k: 2,
                early_stop: Some(10),
            })
            .seed(exp as u64)
            .build()
            .run_to_completion();

        // Weighted Algorithm 5 (SeqClass box is O(log² n) itself).
        let wg = apply_weights(&g, WeightModel::Exponential(1.0), exp as u64);
        let mwm = Session::on(&wg)
            .algorithm(Algorithm::Weighted {
                epsilon: 0.2,
                mwm_box: MwmBox::SeqClass,
            })
            .seed(exp as u64)
            .build()
            .run_to_completion();

        t.row(vec![
            n.to_string(),
            ii.stats.rounds.to_string(),
            f2(ii.stats.rounds as f64 / logn),
            bip.stats.rounds.to_string(),
            f2(bip.stats.rounds as f64 / logn),
            gen.stats.rounds.to_string(),
            f2(gen.stats.rounds as f64 / logn),
            mwm.stats.rounds.to_string(),
            f2(mwm.stats.rounds as f64 / (logn * logn)),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape: each */logn column roughly flat as n doubles (logarithmic\n\
         round complexity); the weighted column is normalized by log²n because our\n\
         sequential-class δ-MWM box spends O(log n) maximal matchings (see\n\
         dmatch::weighted::classes — the original [18] box would make it O(log n))."
    );
}
