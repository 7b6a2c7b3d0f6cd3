//! Hopcroft–Karp maximum-cardinality matching for bipartite graphs.
//!
//! The paper builds directly on this algorithm's structure (phases of
//! shortest augmenting paths, Lemmas 3.4/3.5 are from the same paper
//! \[13\]); here it serves as the exact baseline for every bipartite
//! approximation-ratio measurement. `O(E·√V)`.

use crate::graph::{Graph, NodeId, UNMATCHED};
use crate::matching::Matching;

const INF: u32 = u32::MAX;

/// Compute a maximum-cardinality matching of a bipartite graph.
/// `sides[v] == false` means `v` is on the X side.
///
/// ```
/// use dgraph::generators::structured::complete_bipartite;
/// let (g, sides) = complete_bipartite(3, 5);
/// let m = dgraph::hopcroft_karp::max_matching(&g, &sides);
/// assert_eq!(m.size(), 3);
/// ```
pub fn max_matching(g: &Graph, sides: &[bool]) -> Matching {
    assert!(
        crate::bipartite::is_valid_bipartition(g, sides),
        "hopcroft_karp requires a valid bipartition"
    );
    let n = g.n();
    let mut mate: Vec<NodeId> = vec![UNMATCHED; n];
    let mut dist: Vec<u32> = vec![INF; n];
    let mut queue = std::collections::VecDeque::new();

    loop {
        // BFS phase: layer X vertices by alternating distance.
        queue.clear();
        for v in 0..n {
            if !sides[v] {
                if mate[v] == UNMATCHED {
                    dist[v] = 0;
                    queue.push_back(v as NodeId);
                } else {
                    dist[v] = INF;
                }
            }
        }
        let mut found = false;
        while let Some(x) = queue.pop_front() {
            for &(y, _) in g.incident(x) {
                let mx = mate[y as usize];
                if mx == UNMATCHED {
                    found = true;
                } else if dist[mx as usize] == INF {
                    dist[mx as usize] = dist[x as usize] + 1;
                    queue.push_back(mx);
                }
            }
        }
        if !found {
            break;
        }
        // DFS phase: augment along a maximal set of shortest paths.
        for v in 0..n as NodeId {
            if !sides[v as usize] && mate[v as usize] == UNMATCHED {
                try_augment(g, v, &mut mate, &mut dist);
            }
        }
    }
    Matching::from_mates(mate)
}

fn try_augment(g: &Graph, x: NodeId, mate: &mut [NodeId], dist: &mut [u32]) -> bool {
    for &(y, _) in g.incident(x) {
        let mx = mate[y as usize];
        let ok = if mx == UNMATCHED {
            true
        } else if dist[mx as usize] == dist[x as usize] + 1 {
            try_augment(g, mx, mate, dist)
        } else {
            false
        };
        if ok {
            mate[x as usize] = y;
            mate[y as usize] = x;
            return true;
        }
    }
    dist[x as usize] = INF;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::two_color;
    use crate::generators::random::bipartite_gnp;
    use crate::generators::structured::{complete_bipartite, path};

    #[test]
    fn perfect_on_complete_bipartite() {
        let (g, sides) = complete_bipartite(5, 5);
        let m = max_matching(&g, &sides);
        assert_eq!(m.size(), 5);
        assert!(m.validate(&g).is_ok());
    }

    #[test]
    fn unbalanced_sides() {
        let (g, sides) = complete_bipartite(3, 7);
        assert_eq!(max_matching(&g, &sides).size(), 3);
    }

    #[test]
    fn path_matching() {
        let g = path(7); // 6 edges, max matching 3
        let sides = two_color(&g).unwrap();
        assert_eq!(max_matching(&g, &sides).size(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(4, vec![]);
        let sides = two_color(&g).unwrap();
        assert_eq!(max_matching(&g, &sides).size(), 0);
    }

    #[test]
    fn random_bipartite_is_maximum_and_at_least_m_over_delta() {
        // A maximum matching is at most a side (20) and at least m / Δ:
        // by König's edge-colouring theorem a bipartite graph's edges
        // split into Δ matchings, and one of them has ≥ m / Δ edges.
        for seed in 0..5 {
            let (g, sides) = bipartite_gnp(20, 20, 0.15, seed);
            let m = max_matching(&g, &sides);
            assert!(m.validate(&g).is_ok());
            assert!(m.size() <= 20);
            assert!(
                m.size() * g.max_degree() >= g.m(),
                "size {} below m / Δ = {} / {} (seed {seed})",
                m.size(),
                g.m(),
                g.max_degree()
            );
            // No augmenting path may remain.
            assert_eq!(
                crate::augmenting::shortest_augmenting_path_len_bipartite(&g, &sides, &m),
                None,
                "matching is not maximum (seed {seed})"
            );
        }
    }

    #[test]
    fn matches_exhaustive_enumeration_on_small_graphs() {
        use crate::augmenting::enumerate_augmenting_paths;
        for seed in 0..10 {
            let (g, sides) = bipartite_gnp(5, 5, 0.4, 100 + seed);
            let hk = max_matching(&g, &sides);
            // Berge: maximum iff no augmenting path of any length (≤ n).
            assert!(enumerate_augmenting_paths(&g, &hk, g.n()).is_empty());
        }
    }
}
