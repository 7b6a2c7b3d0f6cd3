//! Sequential greedy baselines.
//!
//! The paper's introduction: *"the greedy algorithm (that repeatedly
//! adds the heaviest remaining edge to the matching and removes all its
//! incident edges) finds a ½-MCM or ½-MWM"*. These are the classical
//! centralized comparators (Preis \[25\], Drake–Hougardy \[6\]).

use crate::graph::{EdgeId, Graph};
use crate::matching::Matching;

/// Greedy by non-increasing weight (ties broken by edge id): ½-MWM.
pub fn greedy_by_weight(g: &Graph) -> Matching {
    let mut order: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
    order.sort_by(|&a, &b| {
        g.weight(b)
            .partial_cmp(&g.weight(a))
            .expect("weights are finite")
            .then(a.cmp(&b))
    });
    maximal_in_order(g, &order)
}

/// Maximal matching taking edges in id order (an arbitrary maximal
/// matching — the ½-MCM baseline).
pub fn greedy_maximal(g: &Graph) -> Matching {
    let order: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
    maximal_in_order(g, &order)
}

/// Maximal matching obtained by scanning `order` and adding every edge
/// whose endpoints are still free.
pub fn maximal_in_order(g: &Graph, order: &[EdgeId]) -> Matching {
    let mut m = Matching::new(g.n());
    for &e in order {
        let (u, v) = g.endpoints(e);
        if m.is_free(u) && m.is_free(v) {
            m.add(g, e);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::gnp;
    use crate::generators::structured::{p4_chain, path};
    use crate::generators::weights::{apply_weights, WeightModel};
    use crate::mwm_exact::max_weight_exact;

    #[test]
    fn greedy_weight_achieves_half_on_random_graphs() {
        for seed in 0..8 {
            let g = apply_weights(
                &gnp(12, 0.3, seed),
                WeightModel::Uniform(0.1, 5.0),
                seed + 7,
            );
            let gw = greedy_by_weight(&g).weight(&g);
            let opt = max_weight_exact(&g);
            assert!(gw >= 0.5 * opt - 1e-9, "seed {seed}: {gw} < half of {opt}");
        }
    }

    #[test]
    fn greedy_maximal_is_maximal_and_half() {
        for seed in 0..8 {
            let g = gnp(14, 0.25, 20 + seed);
            let m = greedy_maximal(&g);
            assert!(m.is_maximal(&g));
            let opt = crate::blossom::max_matching(&g).size();
            assert!(2 * m.size() >= opt, "seed {seed}");
        }
    }

    #[test]
    fn p4_trap_shows_half_gap() {
        // Greedy in id order picks the outer edges here (ids 0,2 first),
        // so use weights to force the trap: heavy middle edge.
        let g0 = p4_chain(1);
        let g = Graph::with_weights(4, g0.edge_list().to_vec(), vec![1.0, 1.5, 1.0]);
        let m = greedy_by_weight(&g);
        assert_eq!(m.size(), 1); // takes the middle, blocking both outer
        let opt = max_weight_exact(&g);
        assert_eq!(opt, 2.0);
    }

    #[test]
    fn greedy_on_unit_path() {
        let g = path(6);
        let m = greedy_maximal(&g);
        assert!(m.is_maximal(&g));
        assert!(m.size() >= 2);
    }
}
