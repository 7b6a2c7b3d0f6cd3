//! Maximal matching via Luby's MIS on the line graph.
//!
//! The classical reduction (and the conceptual seed of the paper's
//! conflict graph): a maximal matching of `G` is a maximal independent
//! set of `L(G)`. We run our distributed [`crate::luby`] protocol on
//! `L(G)` as the communication topology and map the MIS back.
//!
//! Note on the model: the *physical* network is `G`; executing an
//! `L(G)` protocol on `G` costs a constant-factor emulation (each edge
//! is simulated by its lower-id endpoint, and `L(G)`-neighbors share a
//! physical node or a physical edge). We report the `L(G)` rounds —
//! the emulation factor is ≤ 2 — and use this implementation as a
//! cross-check of Israeli–Itai, not as a headline algorithm.

use dgraph::{line_graph, Graph, Matching};
use simnet::NetStats;

/// Compute a maximal matching of `g` by Luby MIS on `L(g)`.
pub fn maximal_matching(g: &Graph, seed: u64) -> (Matching, NetStats) {
    if g.m() == 0 {
        return (Matching::new(g.n()), NetStats::default());
    }
    let lg = line_graph::line_graph(g);
    let topo = crate::state::topology_of(&lg);
    let (flags, stats) = crate::luby::mis(&topo, seed);
    (line_graph::matching_from_independent_set(g, &flags), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::random::gnp;
    use dgraph::generators::structured::{complete, path};

    #[test]
    fn produces_maximal_matchings() {
        for seed in 0..10 {
            let g = gnp(40, 0.1, seed);
            let (m, _) = maximal_matching(&g, seed);
            assert!(m.validate(&g).is_ok(), "seed {seed}");
            assert!(m.is_maximal(&g), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_israeli_itai_on_quality_class() {
        // Both are maximal ⇒ both are ½-approximations; sizes are
        // within a factor 2 of each other.
        for seed in 0..5 {
            let g = gnp(30, 0.15, 50 + seed);
            let (a, _) = maximal_matching(&g, seed);
            let b = crate::Session::on(&g)
                .seed(seed)
                .build()
                .run_to_completion()
                .matching;
            assert!(2 * a.size() >= b.size() && 2 * b.size() >= a.size());
        }
    }

    #[test]
    fn logarithmic_rounds() {
        let g = complete(48); // L(K48) is large and dense
        let (m, stats) = maximal_matching(&g, 3);
        assert_eq!(m.size(), 24);
        assert!(stats.rounds <= 3 * 80, "{} rounds", stats.rounds);
    }

    #[test]
    fn trivial_graphs() {
        let g = Graph::new(4, vec![]);
        assert_eq!(maximal_matching(&g, 0).0.size(), 0);
        let g = path(2);
        assert_eq!(maximal_matching(&g, 0).0.size(), 1);
    }
}
