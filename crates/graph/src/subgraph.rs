//! A borrowed window onto a [`Graph`]: the induced subgraph on a sorted
//! vertex set, without copying the CSR.
//!
//! This is the substrate of the LCA query plane
//! (`dmatch::oracle::MatchingOracle`): a point query materializes only
//! the ball around its query vertex, runs the algorithm on the induced
//! subgraph, and certifies which answers are exact. Two properties are
//! load-bearing and guaranteed here:
//!
//! * **Monotone relabeling.** Local ids are assigned in increasing
//!   global-id order, so the local incidence order (neighbors sorted by
//!   id, the contract of [`Graph::incident`]) equals the global one for
//!   every interior vertex, and lexicographic comparison of local
//!   vertex sequences agrees with the global comparison. Port-sensitive
//!   protocols (Israeli–Itai picks proposals by port index) therefore
//!   see identical choices inside the ball.
//! * **Sublinear footprint.** [`SubgraphView::ball`] walks outward from
//!   the centers keeping membership in a hash map with a fixed
//!   multiplicative hasher — no `O(n)` scratch, and the map is only
//!   probed, never iterated, so its order cannot leak into a result —
//!   and sorts the vertex list once at the end. Building a view costs
//!   `O(|ball| · Δ + |ball| log |ball|)` regardless of how large the
//!   host graph is. This is what keeps oracle probes flat in `n`
//!   (gated by experiment E22). The same map, relabelled, is the
//!   view's global → local index: every membership test below is one
//!   hash probe.

use crate::graph::{Graph, NodeId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing of a node id: one multiply by `2^64 / φ`, with the
/// high half folded into the low bits the table indexes by. Fixed, so
/// no per-instance state; keys are only probed, never iterated.
#[derive(Default)]
struct IdHasher(u64);

/// `2^64 / φ`, rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only node ids are hashed here (`write_u32`); any other key
        // folds its bytes through the same multiply.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(FIB);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Global id → local id, hashed by [`IdHasher`].
type LocalIndex = HashMap<NodeId, NodeId, BuildHasherDefault<IdHasher>>;

/// An induced subgraph over a borrowed [`Graph`], identified by a
/// sorted vertex list. Local ids are positions in that list.
#[derive(Debug, Clone)]
pub struct SubgraphView<'g> {
    g: &'g Graph,
    /// Sorted, deduplicated global ids; `verts[local] = global`.
    verts: Vec<NodeId>,
    /// `index[global] = local` for every vertex of the view.
    index: LocalIndex,
}

impl<'g> SubgraphView<'g> {
    /// The ball `B(centers, radius)`: every vertex within `radius` hops
    /// of some center. A level-by-level BFS whose queue is the vertex
    /// list itself and whose membership test is the hashed index — the
    /// cost is proportional to the ball, not to `g.n()`.
    pub fn ball(g: &'g Graph, centers: &[NodeId], radius: usize) -> Self {
        let mut index = LocalIndex::default();
        let mut verts = Vec::new();
        for &c in centers {
            if index.insert(c, 0).is_none() {
                verts.push(c);
            }
        }
        let mut level = 0..verts.len();
        for _ in 0..radius {
            if level.is_empty() {
                break;
            }
            let next = verts.len();
            for i in level {
                for &(u, _) in g.incident(verts[i]) {
                    if let Entry::Vacant(e) = index.entry(u) {
                        e.insert(0);
                        verts.push(u);
                    }
                }
            }
            level = next..verts.len();
        }
        verts.sort_unstable();
        for (l, v) in verts.iter().enumerate() {
            *index.get_mut(v).expect("every vertex was inserted") = l as NodeId;
        }
        SubgraphView { g, verts, index }
    }

    /// Number of vertices in the view.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The sorted global vertex ids.
    pub fn vertices(&self) -> &[NodeId] {
        &self.verts
    }

    /// Local id of global vertex `v`, if present. Strictly monotone in
    /// `v` by construction.
    pub fn local(&self, v: NodeId) -> Option<usize> {
        self.index.get(&v).map(|&l| l as usize)
    }

    /// Global id of local vertex `l`.
    pub fn global(&self, l: usize) -> NodeId {
        self.verts[l]
    }

    /// The induced subgraph's CSR rows in local ids, and its boundary,
    /// in one pass over the host's incidence lists:
    /// `neighbors[offsets[l]..offsets[l + 1]]` are `l`'s neighbors
    /// inside the view. The rows come out ascending because the
    /// relabeling is monotone, ready for
    /// [`simnet::Topology::from_sorted_rows`].
    ///
    /// The boundary lists, in ascending order, the locals with at least
    /// one neighbor outside the view (whose row is shorter than their
    /// host degree). For a ball of radius `r` these all sit on the
    /// distance-`r` sphere (an interior vertex's neighbors are all
    /// within `r`), which is what makes them the contamination frontier
    /// of a local simulation.
    pub fn rows(&self) -> (Vec<usize>, Vec<NodeId>, Vec<NodeId>) {
        let mut offsets = Vec::with_capacity(self.verts.len() + 1);
        let mut neighbors = Vec::new();
        let mut boundary = Vec::new();
        offsets.push(0);
        for (l, &v) in self.verts.iter().enumerate() {
            let host = self.g.incident(v);
            neighbors.extend(
                host.iter()
                    .filter_map(|&(u, _)| self.index.get(&u).copied()),
            );
            if neighbors.len() - offsets[l] < host.len() {
                boundary.push(l as NodeId);
            }
            offsets.push(neighbors.len());
        }
        (offsets, neighbors, boundary)
    }

    /// Materialize the induced subgraph as an owned [`Graph`] in local
    /// ids, weights carried over from the host, and return it with the
    /// boundary of [`SubgraphView::rows`], both from one pass over the
    /// host's incidence lists. The graph's edges are listed in sorted
    /// order, smaller endpoint first.
    pub fn induced(&self) -> (Graph, Vec<NodeId>) {
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        let mut boundary = Vec::new();
        for (lv, &v) in self.verts.iter().enumerate() {
            let host = self.g.incident(v);
            let mut inside = 0;
            for &(u, e) in host {
                if let Some(lu) = self.local(u) {
                    inside += 1;
                    if u > v {
                        edges.push((lv as NodeId, lu as NodeId));
                        weights.push(self.g.weight(e));
                    }
                }
            }
            if inside < host.len() {
                boundary.push(lv as NodeId);
            }
        }
        (
            Graph::with_weights(self.verts.len(), edges, weights),
            boundary,
        )
    }
}

/// Multi-source BFS over the graph on `0..n` whose adjacency
/// `neighbors` yields: `dist[v]` is the number of hops from `v` to the
/// nearest source, or `usize::MAX` when that exceeds `radius` (pass
/// `usize::MAX` for no cut-off). The adjacency may be a [`Graph`]'s
/// incidence lists or a view's [`SubgraphView::rows`]. Unlike
/// [`SubgraphView::ball`] it keeps `O(n)` scratch, so it is meant for a
/// whole graph or for a ball already materialized.
pub fn bfs_distances<I>(
    n: usize,
    neighbors: impl Fn(NodeId) -> I,
    sources: &[NodeId],
    radius: usize,
) -> Vec<usize>
where
    I: IntoIterator<Item = NodeId>,
{
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == usize::MAX {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d == radius {
            continue;
        }
        for u in neighbors(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::{barabasi_albert, gnp};
    use crate::generators::structured::path;
    use crate::generators::zoo::random_geometric;

    fn host_neighbors(g: &Graph, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        g.incident(v).iter().map(|&(u, _)| u)
    }

    #[test]
    fn ball_matches_dense_bfs() {
        let g = gnp(60, 0.08, 11);
        for &(c, r) in &[(0u32, 1usize), (7, 2), (13, 3), (30, 0)] {
            let view = SubgraphView::ball(&g, &[c], r);
            let dist = bfs_distances(g.n(), |v| host_neighbors(&g, v), &[c], r);
            let want: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|&v| dist[v as usize] != usize::MAX)
                .collect();
            assert_eq!(view.vertices(), &want[..], "center {c} radius {r}");
        }
    }

    #[test]
    fn ball_tolerates_duplicate_centers() {
        let g = gnp(40, 0.1, 3);
        let a = SubgraphView::ball(&g, &[5, 5, 5, 9], 2);
        let b = SubgraphView::ball(&g, &[5, 9], 2);
        assert_eq!(a.vertices(), b.vertices());
    }

    #[test]
    fn relabeling_is_monotone_and_invertible() {
        let g = gnp(50, 0.1, 7);
        let view = SubgraphView::ball(&g, &[20], 2);
        for l in 0..view.len() {
            assert_eq!(view.local(view.global(l)), Some(l));
        }
        for w in view.vertices().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn induced_preserves_incidence_order() {
        // Interior vertices must see their neighbors in the same order
        // locally as globally (both sorted by id under monotone remap).
        let g = gnp(50, 0.12, 19);
        let view = SubgraphView::ball(&g, &[10], 3);
        let (ind, boundary) = view.induced();
        for l in 0..view.len() {
            if boundary.contains(&(l as NodeId)) {
                continue;
            }
            let global: Vec<NodeId> = g.incident(view.global(l)).iter().map(|&(u, _)| u).collect();
            let local: Vec<NodeId> = ind
                .incident(l as NodeId)
                .iter()
                .map(|&(u, _)| view.global(u as usize))
                .collect();
            assert_eq!(global, local, "interior vertex {l}");
        }
    }

    #[test]
    fn boundary_is_the_sphere() {
        let g = path(30);
        let view = SubgraphView::ball(&g, &[15], 3);
        let boundary: Vec<NodeId> = view
            .induced()
            .1
            .into_iter()
            .map(|l| view.global(l as usize))
            .collect();
        assert_eq!(boundary, vec![12, 18]);
    }

    #[test]
    fn full_component_has_no_boundary() {
        let g = path(8);
        let view = SubgraphView::ball(&g, &[4], 100);
        assert_eq!(view.len(), 8);
        assert!(view.induced().1.is_empty());
    }

    /// The one-pass rows are the induced graph's incidence lists, and
    /// they flag the boundary `induced` returns, on views of every size
    /// from a single vertex to the whole graph, over several centers at
    /// once too.
    #[test]
    fn rows_are_the_induced_incidence_lists() {
        let zoo = [
            gnp(80, 0.06, 5),
            barabasi_albert(80, 2, 6),
            random_geometric(80, 0.15, 7),
            path(20),
        ];
        for (i, g) in zoo.iter().enumerate() {
            for centers in [vec![0], vec![3, 11], vec![g.n() as NodeId - 1]] {
                for r in [0, 1, 2, 3, 5, usize::MAX] {
                    let view = SubgraphView::ball(g, &centers, r);
                    let (ind, want_boundary) = view.induced();
                    let (offsets, neighbors, boundary) = view.rows();
                    assert_eq!(offsets.len(), view.len() + 1);
                    for l in 0..view.len() {
                        let want: Vec<NodeId> = host_neighbors(&ind, l as NodeId).collect();
                        assert_eq!(
                            &neighbors[offsets[l]..offsets[l + 1]],
                            &want[..],
                            "graph {i} centers {centers:?} radius {r} local {l}"
                        );
                    }
                    assert_eq!(
                        boundary, want_boundary,
                        "graph {i} centers {centers:?} radius {r}"
                    );
                    // Both are the boundary by definition: the locals
                    // with a host neighbor outside the view.
                    let outside: Vec<NodeId> = (0..view.len() as NodeId)
                        .filter(|&l| {
                            host_neighbors(g, view.global(l as usize))
                                .any(|u| view.local(u).is_none())
                        })
                        .collect();
                    assert_eq!(
                        boundary, outside,
                        "graph {i} centers {centers:?} radius {r}"
                    );
                    if r == usize::MAX {
                        assert!(boundary.is_empty(), "a whole component has no boundary");
                    }
                }
            }
        }
    }

    #[test]
    fn induced_carries_weights() {
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.5, 2.5, 3.5]);
        let view = SubgraphView::ball(&g, &[2], 1);
        assert_eq!(view.vertices(), &[1, 2, 3]);
        let (ind, boundary) = view.induced();
        assert_eq!(boundary, vec![0], "vertex 1 has its neighbor 0 outside");
        assert_eq!(ind.m(), 2);
        let e = ind.edge_between(0, 1).unwrap();
        assert!((ind.weight(e) - 2.5).abs() < 1e-12);
    }
}
