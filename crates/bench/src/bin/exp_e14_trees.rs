//! E14 — related work \[12\]: constant-round matching on trees.
//!
//! Hoepman, Kutten & Lotker (cited in the paper's history section)
//! show a `(½-ε)`-MCM on trees in *expected constant* time. We measure
//! the truncated-Israeli–Itai flavor of that regime: the approximation
//! ratio (vs. ½ of optimum, the maximal-matching target) as a function
//! of a constant iteration budget, across tree sizes — the ratio
//! depends on the budget, not on `n`.

use bench_harness::{banner, f3, mean, Table};
use dgraph::generators::random::random_tree;
use dmatch::Session;

fn main() {
    banner(
        "E14",
        "constant-round matching on trees",
        "Hoepman–Kutten–Lotker [12] (related work)",
    );

    let mut t = Table::new(vec![
        "n", "iters=1", "iters=2", "iters=3", "iters=5", "iters=8",
    ]);
    for &n in &[256usize, 1024, 4096, 16384] {
        let mut row = vec![n.to_string()];
        for &iters in &[1u64, 2, 3, 5, 8] {
            let mut ratios = Vec::new();
            for seed in 0..5u64 {
                let g = random_tree(n, 500 + seed);
                // Israeli–Itai cut off after `iters` 3-round iterations.
                let m = Session::on(&g)
                    .seed(seed * 13 + iters)
                    .round_limit(3 * iters)
                    .build()
                    .run_to_completion()
                    .matching;
                let opt = dgraph::blossom::max_matching(&g).size().max(1);
                ratios.push(m.size() as f64 / opt as f64);
            }
            row.push(f3(mean(&ratios)));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nExpected shape: each column is flat as n grows 64× — the achieved fraction of\n\
         the optimum is a function of the (constant) iteration budget alone, converging\n\
         toward the maximal-matching plateau within a handful of iterations. That is the\n\
         [12] phenomenon: on trees, constant time buys a constant-factor matching."
    );
}
