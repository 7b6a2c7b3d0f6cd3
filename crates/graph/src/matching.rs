//! Matchings: validated sets of pairwise disjoint edges.
//!
//! The mate array is the single source of truth; edge ids are derived
//! through the graph on demand. All mutating operations keep the
//! invariant `mate[mate[v]] == v` and panic on violations — an invalid
//! matching is always a bug in the caller.

use crate::graph::{EdgeId, Graph, NodeId, UNMATCHED};
use std::collections::BTreeSet;

/// A matching in a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    mate: Vec<NodeId>,
    size: usize,
}

impl Matching {
    /// The empty matching on `n` nodes.
    pub fn new(n: usize) -> Self {
        Matching {
            mate: vec![UNMATCHED; n],
            size: 0,
        }
    }

    /// Build from a mate array (validates symmetry).
    pub fn from_mates(mate: Vec<NodeId>) -> Self {
        let mut size = 0;
        for (v, &m) in mate.iter().enumerate() {
            if m != UNMATCHED {
                assert!(
                    (m as usize) < mate.len()
                        && mate[m as usize] == v as NodeId
                        && m != v as NodeId,
                    "asymmetric mate array at {v}"
                );
                size += 1;
            }
        }
        Matching {
            mate,
            size: size / 2,
        }
    }

    /// Build from a list of edge ids (validates disjointness).
    pub fn from_edges(g: &Graph, edges: &[EdgeId]) -> Self {
        let mut m = Matching::new(g.n());
        for &e in edges {
            m.add(g, e);
        }
        m
    }

    /// Number of matched edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when no edges are matched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The mate of `v`, if matched.
    #[inline]
    pub fn mate(&self, v: NodeId) -> Option<NodeId> {
        let m = self.mate[v as usize];
        if m == UNMATCHED {
            None
        } else {
            Some(m)
        }
    }

    /// Raw mate array (with [`UNMATCHED`] sentinels).
    #[inline]
    pub fn mates(&self) -> &[NodeId] {
        &self.mate
    }

    /// True if `v` is not matched ("free" in the paper's terminology).
    #[inline]
    pub fn is_free(&self, v: NodeId) -> bool {
        self.mate[v as usize] == UNMATCHED
    }

    /// Is edge `e` in the matching?
    #[inline]
    pub fn contains(&self, g: &Graph, e: EdgeId) -> bool {
        let (u, v) = g.endpoints(e);
        self.mate[u as usize] == v
    }

    /// Add edge `e`; panics if either endpoint is already matched.
    pub fn add(&mut self, g: &Graph, e: EdgeId) {
        let (u, v) = g.endpoints(e);
        assert!(
            self.is_free(u) && self.is_free(v),
            "edge {e} conflicts with matching"
        );
        self.mate[u as usize] = v;
        self.mate[v as usize] = u;
        self.size += 1;
    }

    /// Remove edge `e`; panics if it is not matched.
    pub fn remove(&mut self, g: &Graph, e: EdgeId) {
        let (u, v) = g.endpoints(e);
        assert!(self.contains(g, e), "edge {e} not in matching");
        self.mate[u as usize] = UNMATCHED;
        self.mate[v as usize] = UNMATCHED;
        self.size -= 1;
    }

    /// Edge ids of the matching, sorted.
    pub fn edge_ids(&self, g: &Graph) -> Vec<EdgeId> {
        let mut out = Vec::with_capacity(self.size);
        for v in 0..self.mate.len() as NodeId {
            let m = self.mate[v as usize];
            if m != UNMATCHED && v < m {
                out.push(g.edge_between(v, m).expect("matched pair must be an edge"));
            }
        }
        out
    }

    /// Total weight under the graph's weight function.
    pub fn weight(&self, g: &Graph) -> f64 {
        self.edge_ids(g).iter().map(|&e| g.weight(e)).sum()
    }

    /// Symmetric difference `M ⊕ P` where `P` is a set of edge ids.
    /// The result must again be a matching (panics otherwise) — this is
    /// exactly the augmentation step `M ← M ⊕ P` of Algorithms 1/4/5.
    pub fn symmetric_difference(&self, g: &Graph, p: &[EdgeId]) -> Matching {
        // Ordered sets: the symmetric-difference iterator's order must
        // come from edge ids, not hash state (`from_edges` is
        // order-independent today, but nothing downstream should ever
        // have to prove that again).
        let current: BTreeSet<EdgeId> = self.edge_ids(g).into_iter().collect();
        let pset: BTreeSet<EdgeId> = p.iter().copied().collect();
        let new_edges: Vec<EdgeId> = current.symmetric_difference(&pset).copied().collect();
        Matching::from_edges(g, &new_edges)
    }

    /// Augment along a path given as a node sequence
    /// `v0, v1, …, v_{2t+1}` (odd number of edges, endpoints free,
    /// edges alternating unmatched/matched). Panics if the path is not a
    /// valid augmenting path — callers must only pass verified paths.
    pub fn augment_path(&mut self, g: &Graph, path: &[NodeId]) {
        assert!(
            path.len() >= 2 && path.len().is_multiple_of(2),
            "augmenting path has odd edge count"
        );
        assert!(
            self.is_free(path[0]) && self.is_free(*path.last().unwrap()),
            "endpoints must be free"
        );
        // Check alternation before mutating anything.
        for (i, w) in path.windows(2).enumerate() {
            let e = g
                .edge_between(w[0], w[1])
                .unwrap_or_else(|| panic!("path step ({},{}) is not an edge", w[0], w[1]));
            let matched = self.contains(g, e);
            assert_eq!(matched, i % 2 == 1, "path does not alternate at step {i}");
        }
        // Flip: remove matched (odd) edges first, then add even ones.
        for (i, w) in path.windows(2).enumerate() {
            if i % 2 == 1 {
                let e = g.edge_between(w[0], w[1]).unwrap();
                self.remove(g, e);
            }
        }
        for (i, w) in path.windows(2).enumerate() {
            if i % 2 == 0 {
                let e = g.edge_between(w[0], w[1]).unwrap();
                self.add(g, e);
            }
        }
    }

    /// A matching is *maximal* if no edge has both endpoints free.
    pub fn is_maximal(&self, g: &Graph) -> bool {
        (0..g.m() as EdgeId).all(|e| {
            let (u, v) = g.endpoints(e);
            !(self.is_free(u) && self.is_free(v))
        })
    }

    /// Full validity check against `g` (used by tests and the verifier).
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.mate.len() != g.n() {
            return Err(format!(
                "mate array length {} != n {}",
                self.mate.len(),
                g.n()
            ));
        }
        let mut count = 0usize;
        for v in 0..g.n() as NodeId {
            if let Some(m) = self.mate(v) {
                if self.mate(m) != Some(v) {
                    return Err(format!("asymmetric mates: {v} -> {m}"));
                }
                if g.edge_between(v, m).is_none() {
                    return Err(format!("matched pair ({v},{m}) is not an edge"));
                }
                count += 1;
            }
        }
        if count / 2 != self.size {
            return Err(format!("size {} != counted {}", self.size, count / 2));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4() -> Graph {
        // Path 0-1-2-3.
        Graph::new(4, vec![(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn add_remove_roundtrip() {
        let g = p4();
        let mut m = Matching::new(4);
        m.add(&g, 1); // (1,2)
        assert_eq!(m.size(), 1);
        assert_eq!(m.mate(1), Some(2));
        assert!(m.contains(&g, 1));
        m.remove(&g, 1);
        assert!(m.is_empty());
        assert!(m.validate(&g).is_ok());
    }

    #[test]
    #[should_panic(expected = "conflicts")]
    fn add_rejects_conflicts() {
        let g = p4();
        let mut m = Matching::new(4);
        m.add(&g, 0);
        m.add(&g, 1); // shares node 1
    }

    #[test]
    fn augment_length_three_path() {
        let g = p4();
        let mut m = Matching::from_edges(&g, &[1]); // middle edge matched
        m.augment_path(&g, &[0, 1, 2, 3]);
        assert_eq!(m.size(), 2);
        assert!(m.contains(&g, 0) && m.contains(&g, 2));
        assert!(!m.contains(&g, 1));
        assert!(m.validate(&g).is_ok());
    }

    #[test]
    fn augment_length_one_path() {
        let g = p4();
        let mut m = Matching::new(4);
        m.augment_path(&g, &[2, 3]);
        assert!(m.contains(&g, 2));
    }

    #[test]
    #[should_panic(expected = "alternate")]
    fn augment_rejects_non_alternating() {
        let g = p4();
        let mut m = Matching::new(4);
        // Length-3 path with no matched middle edge.
        m.augment_path(&g, &[0, 1, 2, 3]);
    }

    #[test]
    fn symmetric_difference_applies_paths() {
        let g = p4();
        let m = Matching::from_edges(&g, &[1]);
        let m2 = m.symmetric_difference(&g, &[0, 1, 2]);
        assert_eq!(m2.size(), 2);
        assert!(m2.contains(&g, 0) && m2.contains(&g, 2));
    }

    #[test]
    fn maximality() {
        let g = p4();
        assert!(Matching::from_edges(&g, &[1]).is_maximal(&g));
        assert!(!Matching::new(4).is_maximal(&g));
        assert!(!Matching::from_edges(&g, &[0]).is_maximal(&g)); // (2,3) both free
    }

    #[test]
    fn weights_sum() {
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![3.0, 5.0, 4.0]);
        let m = Matching::from_edges(&g, &[0, 2]);
        assert_eq!(m.weight(&g), 7.0);
    }

    #[test]
    fn from_mates_validates() {
        let m = Matching::from_mates(vec![1, 0, UNMATCHED, UNMATCHED]);
        assert_eq!(m.size(), 1);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn from_mates_rejects_asymmetry() {
        Matching::from_mates(vec![1, UNMATCHED, UNMATCHED]);
    }
}
