//! E5 — Theorem 4.5 / Algorithm 5: `(½-ε)`-MWM.
//!
//! Three measurements:
//!
//! * **E5a** — ε sweep: achieved weight ratio vs. the `(½-ε)` bound and
//!   Lemma 4.3's convergence prediction `½(1-e^{-2δi/3})`, plus rounds
//!   (paper shape: `O(log(1/ε)·log n)` up to the black box's own round
//!   complexity).
//! * **E5b** — black-box ablation: the δ-MWM substitutes (sequential
//!   classes, parallel classes, local-dominant) standalone — measured δ
//!   vs. the exact optimum — and plugged into Algorithm 5.
//! * **E5c** — baseline contrast: the ½-MWM local-dominant baseline's
//!   rounds explode on adversarial weights while Algorithm 5 with the
//!   class box stays polylogarithmic.

use bench_harness::{banner, f2, f3, mean, Table};
use dgraph::generators::random::{bipartite_gnp, gnp};
use dgraph::generators::weights::{apply_weights, WeightModel};
use dgraph::{Graph, NodeId};
use dmatch::weighted::MwmBox;
use dmatch::{Algorithm, Session};
use simnet::ExecCfg;

fn weighted_case(n: usize, seed: u64) -> (Graph, Vec<bool>) {
    let (g0, sides) = bipartite_gnp(n / 2, n / 2, 6.0 / (n / 2) as f64, seed);
    (
        apply_weights(&g0, WeightModel::Exponential(2.0), seed + 1),
        sides,
    )
}

fn main() {
    banner(
        "E5",
        "(½-ε)-MWM reduction and its black boxes",
        "Theorem 4.5 / Algorithm 5, Lemma 4.3",
    );

    // ---- E5a: ε sweep --------------------------------------------------
    println!("--- E5a: ε sweep (bipartite, exponential weights, n = 64; exact = Hungarian)");
    let mut t = Table::new(vec![
        "ε",
        "bound ½-ε",
        "ratio(min/mean)",
        "lemma4.3 pred",
        "iters",
        "rounds",
        "rounds/log(1/ε)",
    ]);
    for &eps in &[0.3, 0.2, 0.1, 0.05] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        let mut iters = 0;
        for seed in 0..4u64 {
            let (g, sides) = weighted_case(64, 100 + seed);
            let mut s = Session::on(&g)
                .algorithm(Algorithm::Weighted {
                    epsilon: eps,
                    mwm_box: MwmBox::SeqClass,
                })
                .seed(seed)
                .build();
            let r = s.run_to_completion();
            let opt = dgraph::hungarian::max_weight_matching(&g, &sides).weight(&g);
            ratios.push(if opt <= 0.0 {
                1.0
            } else {
                r.matching.weight(&g) / opt
            });
            rounds.push(r.stats.rounds as f64);
            iters = s.phase_log().len() as u64;
        }
        let delta = MwmBox::SeqClass.nominal_delta();
        let pred = 0.5 * (1.0 - (-2.0 * delta * iters as f64 / 3.0).exp());
        let rmean = mean(&rounds);
        t.row(vec![
            f2(eps),
            f3(0.5 - eps),
            format!(
                "{}/{}",
                f3(ratios.iter().cloned().fold(f64::INFINITY, f64::min)),
                f3(mean(&ratios))
            ),
            f3(pred),
            iters.to_string(),
            f2(rmean),
            f2(rmean / (1.0 / eps).ln()),
        ]);
    }
    t.print();

    // ---- E5b: black-box ablation ---------------------------------------
    println!("\n--- E5b: δ-MWM black boxes, standalone and inside Algorithm 5 (n = 18 general, exact = DP)");
    let mut t = Table::new(vec![
        "box",
        "nominal δ",
        "standalone δ(min)",
        "alg5 ratio(min)",
        "alg5 rounds(mean)",
    ]);
    for &mwm_box in &[MwmBox::SeqClass, MwmBox::ParClass, MwmBox::LocalDominant] {
        let mut standalone = Vec::new();
        let mut alg5 = Vec::new();
        let mut rounds = Vec::new();
        for seed in 0..6u64 {
            let g = apply_weights(
                &gnp(18, 0.25, 200 + seed),
                WeightModel::PowerLaw {
                    lo: 1.0,
                    alpha: 1.1,
                },
                seed,
            );
            let opt = dgraph::mwm_exact::max_weight_exact(&g);
            if opt <= 0.0 {
                continue;
            }
            let (m, _) = mwm_box.run_cfg(&g, seed, ExecCfg::default());
            standalone.push(m.weight(&g) / opt);
            let r = Session::on(&g)
                .algorithm(Algorithm::Weighted {
                    epsilon: 0.1,
                    mwm_box,
                })
                .seed(seed)
                .build()
                .run_to_completion();
            alg5.push(r.matching.weight(&g) / opt);
            rounds.push(r.stats.rounds as f64);
        }
        t.row(vec![
            format!("{mwm_box:?}"),
            f3(mwm_box.nominal_delta()),
            f3(standalone.iter().cloned().fold(f64::INFINITY, f64::min)),
            f3(alg5.iter().cloned().fold(f64::INFINITY, f64::min)),
            f2(mean(&rounds)),
        ]);
    }
    t.print();

    // ---- E5c: adversarial weights --------------------------------------
    println!("\n--- E5c: increasing-weight path (local-dominant worst case), n = 1000");
    let n = 1000usize;
    let edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
    let weights: Vec<f64> = (0..n - 1).map(|i| 1.0 + i as f64 / (n as f64)).collect();
    let g = Graph::with_weights(n, edges, weights);
    let sides = dgraph::bipartite::two_color(&g).unwrap();
    let opt = dgraph::hungarian::max_weight_matching(&g, &sides).weight(&g);
    let mut t = Table::new(vec!["algorithm", "ratio", "rounds"]);
    let (ld, ld_stats) = dmatch::weighted::local_dominant::run_cfg(&g, 1, ExecCfg::default());
    t.row(vec![
        "local-dominant (½, Hoepman-style)".to_string(),
        f3(ld.weight(&g) / opt),
        ld_stats.rounds.to_string(),
    ]);
    let r = Session::on(&g)
        .algorithm(Algorithm::Weighted {
            epsilon: 0.1,
            mwm_box: MwmBox::SeqClass,
        })
        .seed(2)
        .build()
        .run_to_completion();
    t.row(vec![
        "Algorithm 5 (SeqClass box)".to_string(),
        f3(r.matching.weight(&g) / opt),
        r.stats.rounds.to_string(),
    ]);
    t.print();
    println!(
        "\nExpected shape: E5a ratios ≥ ½-ε and tracking the Lemma 4.3 prediction;\n\
         E5b standalone δ ≥ nominal δ, all boxes reaching ≥ ½-ε inside Algorithm 5;\n\
         E5c local-dominant serializes (rounds ≈ n) where the reduction stays polylog."
    );
}
