//! E10 — CONGEST compliance: maximum message size vs. `n` and `Δ`.
//!
//! The paper's central contrast: Theorem 3.1 uses `O(|V|+|E|)`-bit
//! messages, while Theorems 3.8/3.11/4.5 use `O(log n)`-bit (indeed
//! `O(log Δ)`-bit counting) messages. We grow `n` and `Δ` and report
//! the largest message each algorithm ever sent.

use bench_harness::{banner, Table};
use dgraph::generators::random::{bipartite_regular, gnp};
use dmatch::{Algorithm, Session};

fn main() {
    banner(
        "E10",
        "max message bits vs n and Δ",
        "Thm 3.1 (large) vs Thms 3.8/3.11 (small)",
    );

    println!("--- growing n (Δ ≈ const): bits of the largest message");
    let mut t = Table::new(vec![
        "n",
        "generic k=2",
        "bipartite k=3",
        "general k=2",
        "II",
    ]);
    for &exp in &[6u32, 7, 8] {
        let n = 1usize << exp;
        let g = gnp(n, 5.0 / n as f64, exp as u64);
        let (bg, sides) = bipartite_regular(n / 2, 3, exp as u64);
        let run = |alg, sides: Option<&[bool]>, seed| {
            let mut b = Session::on(if sides.is_some() { &bg } else { &g })
                .algorithm(alg)
                .seed(seed);
            if let Some(sides) = sides {
                b = b.sides(sides);
            }
            b.build().run_to_completion()
        };
        let gen = run(Algorithm::Generic { k: 2 }, None, 1);
        let bip = run(Algorithm::Bipartite { k: 3 }, Some(&sides), 2);
        let gal = run(
            Algorithm::General {
                k: 2,
                early_stop: Some(8),
            },
            None,
            3,
        );
        let ii = run(Algorithm::IsraeliItai, None, 4);
        t.row(vec![
            n.to_string(),
            gen.stats.max_msg_bits.to_string(),
            bip.stats.max_msg_bits.to_string(),
            gal.stats.max_msg_bits.to_string(),
            ii.stats.max_msg_bits.to_string(),
        ]);
    }
    t.print();

    println!("\n--- growing Δ (bipartite d-regular, side 256): one ℓ=5 counting pass over a maximal matching —");
    println!("    count values reach Δ^⌈d/2⌉ (Lemma 3.6), so count messages carry O(ℓ·logΔ) bits");
    let mut t = Table::new(vec!["Δ", "count-msg max (bits)", "≈ 4+3·log2(Δ)"]);
    for &d in &[2usize, 4, 8, 16, 32] {
        let (bg, sides) = bipartite_regular(256, d, 5 + d as u64);
        let m = Session::on(&bg)
            .algorithm(Algorithm::IsraeliItai)
            .seed(1)
            .build()
            .run_to_completion()
            .matching;
        let spec = dmatch::bipartite::SubgraphSpec::full_bipartite(&bg, &sides);
        let pass =
            dmatch::bipartite::count::run_cfg(&bg, &m, &spec, 5, 2, simnet::ExecCfg::default());
        t.row(vec![
            d.to_string(),
            pass.stats.max_msg_bits.to_string(),
            format!("{:.0}", 4.0 + 3.0 * (d as f64).log2()),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape: the generic algorithm's messages grow with n (subgraph views,\n\
         the O(|V|+|E|) regime); all other columns stay bounded by ~100 bits as n grows,\n\
         and the counting-message size grows additively with log Δ (Lemma 3.6/3.7)."
    );
}
