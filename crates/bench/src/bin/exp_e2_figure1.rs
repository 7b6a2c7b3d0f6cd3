//! E2 — Figure 1: the counting BFS of Algorithm 3, layer by layer.
//!
//! The published figure is an illustration (its exact 17-node topology
//! is not recoverable from the text), so we reproduce the *mechanism*
//! on a concrete instance and print it in the figure's layout: layers
//! X, Y, X, Y …, each node annotated with the sum of numbers received
//! from the previous level. The counts are verified against exhaustive
//! augmenting-path enumeration (the number printed at a free Y node
//! equals the number of augmenting paths of that length ending there —
//! Lemma 3.6).

use bench_harness::banner;
use dgraph::{Graph, Matching};
use dmatch::bipartite::{count, SubgraphSpec};
use simnet::ExecCfg;

fn main() {
    banner(
        "E2",
        "Algorithm 3 counting BFS, layer by layer",
        "Figure 1 + Lemma 3.6",
    );

    // A bipartite graph with X = {0..4}, Y = {5..9}:
    // free X = {0, 1}; matched pairs (2,6), (3,7), (4,8); free Y = {5, 9}.
    let edges = vec![
        (0u32, 5u32),
        (0, 6),
        (0, 7), // free X 0 fans out
        (1, 6),
        (1, 7), // free X 1
        (2, 6),
        (3, 7),
        (4, 8), // matching edges
        (2, 9),
        (3, 9), // matched X nodes reach free Y 9
        (2, 8),
        (4, 9), // a longer detour via (4,8)
    ];
    let g = Graph::new(10, edges);
    let sides: Vec<bool> = (0..10).map(|v| v >= 5).collect();
    let m = Matching::from_edges(
        &g,
        &[
            g.edge_between(2, 6).unwrap(),
            g.edge_between(3, 7).unwrap(),
            g.edge_between(4, 8).unwrap(),
        ],
    );
    println!("matching M = {{(2,6), (3,7), (4,8)}}; free X = {{0,1}}, free Y = {{5,9}}\n");

    let ell = 5;
    let spec = SubgraphSpec::full_bipartite(&g, &sides);
    let pass = count::run_cfg(&g, &m, &spec, ell, 0, ExecCfg::default());

    // Print by BFS layer, exactly like the figure's annotations.
    for d in 0..=ell as u64 {
        let layer: Vec<String> = (0..g.n() as u32)
            .filter(|&v| pass.dist[v as usize] == Some(d))
            .map(|v| {
                format!(
                    "{}{}={}",
                    if sides[v as usize] { "Y" } else { "X" },
                    v,
                    if d == 0 {
                        1
                    } else {
                        pass.total[v as usize] as u64
                    }
                )
            })
            .collect();
        if !layer.is_empty() {
            println!("layer d={d}:  {}", layer.join("   "));
        }
    }

    // Cross-check every reached free Y against exhaustive enumeration.
    println!("\nverification against exhaustive path enumeration:");
    let paths = dgraph::augmenting::enumerate_augmenting_paths(&g, &m, ell);
    for y in [5u32, 9] {
        if let Some(d) = pass.dist[y as usize] {
            let expect = paths
                .iter()
                .filter(|p| (p[0] == y || *p.last().unwrap() == y) && p.len() as u64 == d + 1)
                .count();
            println!(
                "  free Y {y}: d = {d}, counted n_y = {}, enumerated shortest paths = {expect}  {}",
                pass.total[y as usize],
                if pass.total[y as usize] == expect as u128 {
                    "✓"
                } else {
                    "✗ MISMATCH"
                }
            );
            assert_eq!(pass.total[y as usize], expect as u128);
        }
    }
    println!(
        "\ncounting messages: {} total, largest {} bits (Lemma 3.6: n_v ≤ Δ^⌈d/2⌉)",
        pass.stats.messages, pass.stats.max_msg_bits
    );
}
