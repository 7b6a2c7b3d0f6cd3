//! Incremental graph construction with deduplication.

use crate::graph::{Graph, NodeId};
use crate::subgraph::IdHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Builds a [`Graph`] edge by edge, silently deduplicating (the last
/// weight written for an edge wins). Useful for generators in which the
/// same pair may be drawn more than once.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Packed pair `(min << 32) | max` → edge index. Probed, never
    /// iterated, so it hashes by one fixed multiply ([`IdHasher`]).
    index: HashMap<u64, usize, BuildHasherDefault<IdHasher>>,
    edges: Vec<(NodeId, NodeId)>,
    weights: Vec<f64>,
}

impl GraphBuilder {
    /// Start a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            ..Default::default()
        }
    }

    /// Number of distinct edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add an unweighted edge (weight 1.0). Returns true if it was new.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.add_weighted(u, v, 1.0)
    }

    /// Add a weighted edge; duplicate pairs overwrite the weight.
    /// Returns true if the edge was new. Self-loops are rejected.
    pub fn add_weighted(&mut self, u: NodeId, v: NodeId, w: f64) -> bool {
        assert!(u != v, "self-loop at {u}");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        let (a, b) = (u.min(v), u.max(v));
        let key = (u64::from(a) << 32) | u64::from(b);
        match self.index.get(&key) {
            Some(&i) => {
                self.weights[i] = w;
                false
            }
            None => {
                self.index.insert(key, self.edges.len());
                self.edges.push((a, b));
                self.weights.push(w);
                true
            }
        }
    }

    /// Finish, producing the immutable graph.
    pub fn build(self) -> Graph {
        Graph::with_weights(self.n, self.edges, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_last_weight() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_weighted(0, 1, 5.0));
        assert!(!b.add_weighted(1, 0, 7.0));
        assert!(b.add_edge(1, 2));
        assert_eq!(b.len(), 2);
        let g = b.build();
        assert_eq!(g.m(), 2);
        let e = g.edge_between(0, 1).unwrap();
        assert_eq!(g.weight(e), 7.0);
    }

    /// Random input with repeats in both orientations builds what a
    /// `BTreeMap` reference says: edges in first-insertion order, the
    /// last weight written wins, and the same `len()` after every add.
    #[test]
    fn dedup_equals_an_ordered_reference() {
        use crate::rng::Rng64;
        use std::collections::BTreeMap;
        for seed in 0..4u64 {
            let n = 40;
            let mut rng = Rng64::new(seed);
            let mut b = GraphBuilder::new(n);
            // Pair → (first insertion, last weight).
            let mut want: BTreeMap<(NodeId, NodeId), (usize, f64)> = BTreeMap::new();
            for i in 0..400 {
                let u = rng.below(n as u64) as NodeId;
                let v = rng.below(n as u64) as NodeId;
                if u == v {
                    continue;
                }
                let w = i as f64 + 0.5;
                let key = (u.min(v), u.max(v));
                let fresh = !want.contains_key(&key);
                let order = want.len();
                want.entry(key).or_insert((order, w)).1 = w;
                assert_eq!(b.add_weighted(u, v, w), fresh, "seed {seed} add {i}");
                assert_eq!(b.len(), want.len(), "seed {seed} add {i}");
            }
            let mut edges: Vec<_> = want.into_iter().collect();
            edges.sort_by_key(|&(_, (order, _))| order);
            let g = b.build();
            assert_eq!(g.m(), edges.len());
            for (e, &((u, v), (_, w))) in edges.iter().enumerate() {
                assert_eq!(
                    g.endpoints(e as crate::graph::EdgeId),
                    (u, v),
                    "seed {seed} edge {e}"
                );
                assert_eq!(
                    g.weight(e as crate::graph::EdgeId),
                    w,
                    "seed {seed} edge {e}"
                );
            }
        }
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b = GraphBuilder::new(5);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
    }
}
