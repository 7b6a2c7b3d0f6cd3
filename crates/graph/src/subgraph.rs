//! Sublinear indexing and bounded BFS over a [`Graph`](crate::Graph).
//!
//! * [`IdMap`] indexes a sublinear set of node ids: a hash map with a
//!   fixed multiplicative hasher ([`IdHasher`]), so it needs no `O(n)`
//!   scratch, and it costs nothing to create. It is only probed, never
//!   iterated, so its order cannot leak into a result. The oracle's
//!   point queries (`dmatch::oracle::MatchingOracle`) index the nodes
//!   they touch with it, which keeps their cost proportional to what
//!   they touch, not to `n` (experiment E22 gates that). The same
//!   hasher keys [`crate::GraphBuilder`]'s dedup index by packed
//!   vertex pairs.
//! * [`bfs_distances`] is a multi-source BFS with a radius cut-off over
//!   any adjacency on `0..n`, with `O(n)` scratch, for whole graphs.

use crate::graph::NodeId;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing of a node id or a packed pair of them: one
/// multiply by `2^64 / φ`, with the high half folded into the low bits
/// the table indexes by. Fixed, so no per-instance state; keys are only
/// probed, never iterated.
#[derive(Default)]
pub struct IdHasher(u64);

/// `2^64 / φ`, rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only node ids (`write_u32`) and packed pairs (`write_u64`)
        // are hashed here; any other key folds its bytes through the
        // same multiply.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(FIB);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by node id, hashed by [`IdHasher`]: an index over a
/// sublinear set of nodes that costs nothing to create. Probe it; never
/// iterate it (dlint's `unordered-iter` rule).
pub type IdMap<V> = HashMap<NodeId, V, BuildHasherDefault<IdHasher>>;

/// Multi-source BFS over the graph on `0..n` whose adjacency
/// `neighbors` yields: `dist[v]` is the number of hops from `v` to the
/// nearest source, or `usize::MAX` when that exceeds `radius` (pass
/// `usize::MAX` for no cut-off), for example a [`Graph`]'s incidence
/// lists. It keeps `O(n)` scratch, so it is meant for a whole graph.
///
/// [`Graph`]: crate::Graph
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
    use crate::graph::Graph;

    /// Distances by plain BFS: relax every edge of the graph once per
    /// level until nothing changes.
    fn levels(g: &Graph, sources: &[NodeId], radius: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; g.n()];
        for &s in sources {
            dist[s as usize] = 0;
        }
        for d in 0..radius.min(g.n()) {
            for e in 0..g.m() as crate::graph::EdgeId {
                let (u, v) = g.endpoints(e);
                for (a, b) in [(u, v), (v, u)] {
                    if dist[a as usize] == d && dist[b as usize] == usize::MAX {
                        dist[b as usize] = d + 1;
                    }
                }
            }
        }
        dist
    }

    /// `bfs_distances` equals plain BFS, with and without a radius
    /// cut-off, from one and from several sources (repeats included).
    #[test]
    fn bfs_distances_equals_plain_bfs() {
        let zoo = [
            gnp(80, 0.05, 5),
            barabasi_albert(80, 2, 6),
            random_geometric(80, 0.12, 7),
            path(20),
        ];
        for (i, g) in zoo.iter().enumerate() {
            for sources in [vec![0], vec![3, 11, 3], vec![g.n() as NodeId - 1]] {
                for radius in [0, 1, 2, 3, 5, usize::MAX] {
                    let dist = bfs_distances(
                        g.n(),
                        |v| g.incident(v).iter().map(|&(u, _)| u),
                        &sources,
                        radius,
                    );
                    assert_eq!(
                        dist,
                        levels(g, &sources, radius),
                        "graph {i} sources {sources:?} radius {radius}"
                    );
                }
            }
        }
    }

    /// A packed pair hashes by all of its bits: pairs that differ only
    /// in their smaller or only in their larger id land apart.
    #[test]
    fn id_hasher_separates_packed_pairs() {
        let hash = |key: u64| {
            let mut h = IdHasher::default();
            h.write_u64(key);
            h.finish()
        };
        let pack = |a: u64, b: u64| (a << 32) | b;
        assert_ne!(hash(pack(1, 7)), hash(pack(2, 7)));
        assert_ne!(hash(pack(1, 7)), hash(pack(1, 8)));
        let mut id = IdHasher::default();
        id.write_u32(9);
        assert_eq!(id.finish(), hash(9), "a node id hashes as its u64");
    }
}
