//! Network topology: the communication graph in CSR form.
//!
//! A [`Topology`] value is immutable. Each undirected edge `{u, v}`
//! appears as a *port* at both endpoints; `rev_port` maps a port at `u`
//! to the corresponding port at `v` so that message delivery is O(1)
//! and inbox ordering is deterministic.
//!
//! Dynamic networks evolve by *replacing* the topology at an epoch
//! boundary ([`crate::Network::rewire`]). The patch that does it copies
//! the rows of untouched nodes in runs, with shifted offsets and slots,
//! and merges only the rows a batch touches (the row walk of
//! [`crate::csr`], which `dgraph`'s graph patch shares); reverse ports are
//! recomputed only for edges with a touched endpoint. It writes into
//! the buffers of the topology the previous rewire retired, and also
//! yields the old-slot → new-slot remap that lets the network carry its
//! message plane and per-node protocol state across the boundary.

use crate::csr::{RowChanges, RowEdit, RowSpan};
use std::ops::Range;

/// Node identifier. `u32` keeps per-edge bookkeeping compact (see the
/// type-size guidance of the Rust Performance Book); networks of up to
/// 4 billion nodes are far beyond what a round simulator needs.
pub type NodeId = u32;

/// A port is an index into a node's neighbor list.
pub type Port = usize;

/// Immutable communication graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct Topology {
    /// CSR row offsets; `offsets[v]..offsets[v+1]` indexes `neighbors`.
    offsets: Vec<usize>,
    /// Flattened neighbor lists (sorted per node).
    neighbors: Vec<NodeId>,
    /// `rev_port[i]` is the port at `neighbors[i]` that leads back to
    /// the owner of port `i`.
    rev_port: Vec<Port>,
}

impl Topology {
    /// Build a topology on `n` nodes from an undirected edge list: the
    /// edges are bucketed into rows, each row is sorted, and
    /// [`Topology::from_sorted_rows`] pairs the reverse ports.
    ///
    /// Self-loops and duplicate edges are rejected with a panic: both
    /// are modelling errors for a communication graph.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets[..n].to_vec();
        let mut neighbors = vec![0; offsets[n]];
        for &(u, v) in edges {
            for (a, b) in [(u, v), (v, u)] {
                neighbors[fill[a as usize]] = b;
                fill[a as usize] += 1;
            }
        }
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Topology::from_sorted_rows(offsets, neighbors)
    }

    /// Build a topology from CSR rows: row `v`,
    /// `neighbors[offsets[v]..offsets[v + 1]]`, lists `v`'s neighbors
    /// in ascending order, and every edge is listed at both of its
    /// endpoints.
    ///
    /// Reverse ports are paired in one O(n + m) pass, without a search.
    /// Rows are visited in ascending id, so the rows that name `w` from
    /// below do so in ascending order and fill `w`'s lowest entries one
    /// after another; a per-row cursor counts how many are filled, and
    /// the next one is the reverse port.
    ///
    /// Panics on a self-loop, a duplicate or out-of-order entry, a
    /// neighbor out of range, or an edge listed at one endpoint only.
    pub fn from_sorted_rows(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        assert!(
            offsets.first() == Some(&0) && offsets.last() == Some(&neighbors.len()),
            "offsets must run from 0 to the number of entries"
        );
        let n = offsets.len() - 1;
        let mut rev_port = vec![0; neighbors.len()];
        // paired[w]: how many of w's entries, its lowest, the rows
        // before w have paired.
        let mut paired = vec![0usize; n];
        for u in 0..n {
            let (base, row) = (offsets[u], &neighbors[offsets[u]..offsets[u + 1]]);
            for (p, &v) in row.iter().enumerate() {
                let w = v as usize;
                assert!(w != u, "self-loop {u} in topology");
                assert!(w < n, "neighbor {v} of node {u} out of range");
                if p > 0 {
                    assert!(row[p - 1] != v, "duplicate edge at node {u}");
                    assert!(row[p - 1] < v, "neighbors of node {u} are not sorted");
                }
                if p < paired[u] {
                    continue; // paired by the row of v < u
                }
                // A lower neighbor the lower rows did not pair lists
                // the edge at this end only.
                assert!(w > u, "asymmetric adjacency");
                let q = paired[w];
                assert!(
                    offsets[w] + q < offsets[w + 1] && neighbors[offsets[w] + q] == u as NodeId,
                    "asymmetric adjacency"
                );
                rev_port[base + p] = q;
                rev_port[offsets[w] + q] = p;
                paired[w] += 1;
            }
        }
        Topology {
            offsets,
            neighbors,
            rev_port,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the topology has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Neighbor list of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree Δ of the topology.
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// The neighbor reached from `v` through `port`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, port: Port) -> NodeId {
        self.neighbors[self.offsets[v as usize] + port]
    }

    /// The port at `neighbor(v, port)` that leads back to `v`.
    #[inline]
    pub fn reverse_port(&self, v: NodeId, port: Port) -> Port {
        self.rev_port[self.offsets[v as usize] + port]
    }

    /// Port of `v` leading to `u`, if `{v, u}` is an edge.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).binary_search(&u).ok()
    }

    /// Total number of directed ports (`2·|E|`). This is the slot count
    /// of the CSR-aligned message plane: one slot per (node, port) pair.
    #[inline]
    pub fn total_ports(&self) -> usize {
        self.neighbors.len()
    }

    /// First slot index of `v` in a CSR-aligned, port-indexed array:
    /// port `p` of node `v` lives at `port_base(v) + p`.
    #[inline]
    pub fn port_base(&self, v: NodeId) -> usize {
        self.offsets[v as usize]
    }

    /// The neighbor at flat slot `slot` (= `port_base(v) + p`).
    #[inline]
    pub(crate) fn slot_neighbor(&self, slot: usize) -> NodeId {
        self.neighbors[slot]
    }

    /// Apply a mutation batch (edge deletions, then insertions) and
    /// write the new topology, plus the slot remap that carries
    /// CSR-aligned state (message-plane slabs, per-port protocol
    /// arrays) across the epoch boundary, into `patch`, reusing its
    /// buffers.
    ///
    /// Rows of nodes the batch does not touch are copied in runs, their
    /// offsets and slots shifted by the run's displacement; only the
    /// touched ("dirty") rows are merged. Reverse ports are copied with
    /// the runs and recomputed only for edges with a dirty endpoint.
    ///
    /// The node population is fixed: node join/leave is modelled as a
    /// node gaining its first / losing its last edges. Panics on
    /// removing a non-edge, inserting an existing edge, or self-loops —
    /// all modelling errors in a churn batch. An edge may appear in
    /// both lists (removed, then re-inserted): its old slots are
    /// treated as dead and its new slots as born.
    pub(crate) fn rewired(
        &self,
        removed: &[(NodeId, NodeId)],
        added: &[(NodeId, NodeId)],
        patch: &mut TopologyPatch,
    ) {
        let n = self.len();
        let TopologyPatch {
            topo,
            slot_map,
            born_ports,
            born_offsets,
            dirty,
            changes,
        } = patch;
        changes.load(n, removed, added);

        topo.offsets.clear();
        topo.neighbors.clear();
        topo.rev_port.clear();
        slot_map.clear();
        born_ports.clear();
        born_offsets.clear();
        dirty.clear();
        // Exact reservations: the buffers stay the size of the largest
        // topology seen instead of doubling past it.
        let ports = self.total_ports() + 2 * added.len();
        topo.offsets.reserve_exact(n + 1);
        topo.neighbors.reserve_exact(ports);
        topo.rev_port.reserve_exact(ports);
        slot_map.reserve_exact(self.total_ports());
        topo.offsets.push(0);
        born_offsets.push(0);
        for span in changes.spans() {
            match span {
                RowSpan::Clean(rows) => self.copy_rows(rows, topo, slot_map),
                RowSpan::Dirty(r) => {
                    let row_start = topo.neighbors.len();
                    r.merge(
                        self.neighbors(r.row as NodeId),
                        |nb| nb,
                        |edit| match edit {
                            RowEdit::Keep(nb) => {
                                slot_map.push(topo.neighbors.len());
                                topo.neighbors.push(nb);
                            }
                            RowEdit::Drop(_) => slot_map.push(SLOT_GONE),
                            RowEdit::Insert { neighbor, .. } => {
                                born_ports.push(topo.neighbors.len() - row_start);
                                topo.neighbors.push(neighbor);
                            }
                        },
                    );
                    // Placeholders, filled in once every row is in place.
                    topo.rev_port.resize(topo.neighbors.len(), 0);
                    topo.offsets.push(topo.neighbors.len());
                    dirty.push(r.row as NodeId);
                    born_offsets.push(born_ports.len());
                }
            }
        }
        // Reverse ports: the runs' copies are right wherever both ends
        // are clean; every port of a dirty row, and its partner, is
        // looked up again.
        for &d in dirty.iter() {
            let base = topo.port_base(d);
            for q in 0..topo.degree(d) {
                let u = topo.neighbors[base + q];
                let p = topo.port_to(u, d).expect("asymmetric adjacency");
                topo.rev_port[base + q] = p;
                let partner = topo.port_base(u) + p;
                topo.rev_port[partner] = q;
            }
        }
    }

    /// Append `rows`, none of which the batch touches, to `out`:
    /// neighbors and reverse ports copied as one run, offsets and slots
    /// shifted to where the run lands.
    fn copy_rows(&self, rows: Range<usize>, out: &mut Topology, slot_map: &mut Vec<usize>) {
        let (from, to) = (rows.start, rows.end);
        let (a, b) = (self.offsets[from], self.offsets[to]);
        let base = out.neighbors.len();
        debug_assert_eq!(slot_map.len(), a, "slots are mapped in old order");
        out.neighbors.extend_from_slice(&self.neighbors[a..b]);
        out.rev_port.extend_from_slice(&self.rev_port[a..b]);
        out.offsets
            .extend(self.offsets[from + 1..=to].iter().map(|&o| o - a + base));
        slot_map.extend(base..base + (b - a));
    }

    /// Today's whole-graph rebuild, kept as the test oracle of
    /// [`Topology::rewired`]: per-node neighbor vectors, hashed slot
    /// lookups and a fresh CSR.
    #[cfg(test)]
    pub(crate) fn rewired_reference(
        &self,
        removed: &[(NodeId, NodeId)],
        added: &[(NodeId, NodeId)],
    ) -> TopologyPatch {
        let n = self.len();
        let canon = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
        let mut gone: std::collections::HashSet<(NodeId, NodeId)> =
            std::collections::HashSet::new();
        let mut born: std::collections::HashSet<(NodeId, NodeId)> =
            std::collections::HashSet::new();
        let mut adj: Vec<Vec<NodeId>> = (0..n as NodeId)
            .map(|v| self.neighbors(v).to_vec())
            .collect();
        let mut dirty = vec![false; n];
        for &(u, v) in removed {
            assert!(u != v, "self-loop {u} in removal batch");
            let pu = adj[u as usize]
                .iter()
                .position(|&x| x == v)
                .unwrap_or_else(|| panic!("removing non-edge ({u},{v})"));
            adj[u as usize].swap_remove(pu);
            let pv = adj[v as usize]
                .iter()
                .position(|&x| x == u)
                .expect("asymmetric adjacency");
            adj[v as usize].swap_remove(pv);
            assert!(gone.insert(canon(u, v)), "duplicate removal ({u},{v})");
            dirty[u as usize] = true;
            dirty[v as usize] = true;
        }
        for &(u, v) in added {
            assert!(u != v, "self-loop {u} in insertion batch");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "inserted edge ({u},{v}) out of range"
            );
            assert!(
                !adj[u as usize].contains(&v),
                "inserting existing edge ({u},{v})"
            );
            adj[u as usize].push(v);
            adj[v as usize].push(u);
            assert!(born.insert(canon(u, v)), "duplicate insertion ({u},{v})");
            dirty[u as usize] = true;
            dirty[v as usize] = true;
        }
        let topo = tests::paired_by_search(adj);
        // Old slot -> new slot for every surviving directed edge.
        let mut slot_map = vec![SLOT_GONE; self.total_ports()];
        for v in 0..n as NodeId {
            let old_base = self.port_base(v);
            for (p, &u) in self.neighbors(v).iter().enumerate() {
                if gone.contains(&canon(v, u)) {
                    continue;
                }
                let np = topo
                    .port_to(v, u)
                    .expect("surviving edge must be in the new topology");
                slot_map[old_base + p] = topo.port_base(v) + np;
            }
        }
        // Born ports, flattened per dirty node in CSR order.
        let dirty: Vec<NodeId> = (0..n as NodeId).filter(|&v| dirty[v as usize]).collect();
        let mut born_ports = Vec::with_capacity(2 * born.len());
        let mut born_offsets = vec![0usize];
        for &v in &dirty {
            for (p, &u) in topo.neighbors(v).iter().enumerate() {
                if born.contains(&canon(v, u)) {
                    born_ports.push(p);
                }
            }
            born_offsets.push(born_ports.len());
        }
        TopologyPatch {
            topo,
            slot_map,
            born_ports,
            born_offsets,
            dirty,
            changes: RowChanges::default(),
        }
    }
}

/// Sentinel in [`TopologyPatch`]'s slot map for a directed-edge slot
/// whose edge was removed.
pub(crate) const SLOT_GONE: usize = usize::MAX;

/// The output of [`Topology::rewired`]: the new topology plus
/// everything needed to migrate CSR-aligned state across the epoch
/// boundary. A [`crate::Network`] keeps one across rewires, so each
/// patch is built into the buffers of the topology the last one
/// retired.
#[derive(Debug, Clone)]
pub(crate) struct TopologyPatch {
    pub(crate) topo: Topology,
    /// Old directed-edge slot → new slot ([`SLOT_GONE`] when removed).
    pub(crate) slot_map: Vec<usize>,
    /// Ports of the new topology whose edge was inserted by this patch,
    /// flattened per dirty node: `dirty[i]`'s are
    /// `born_offsets[i]..born_offsets[i+1]`.
    born_ports: Vec<Port>,
    born_offsets: Vec<usize>,
    /// Nodes whose incident edge set changed, ascending.
    pub(crate) dirty: Vec<NodeId>,
    /// Scratch: the batch's row changes.
    changes: RowChanges,
}

impl Default for TopologyPatch {
    fn default() -> Self {
        TopologyPatch {
            topo: Topology::from_edges(0, &[]),
            slot_map: Vec::new(),
            born_ports: Vec::new(),
            born_offsets: Vec::new(),
            dirty: Vec::new(),
            changes: RowChanges::default(),
        }
    }
}

impl TopologyPatch {
    /// New slot for an old slot, `None` when the edge was removed.
    #[inline]
    pub(crate) fn new_slot(&self, old_slot: usize) -> Option<usize> {
        let s = self.slot_map[old_slot];
        (s != SLOT_GONE).then_some(s)
    }

    /// Born ports of `dirty[i]` (ports of the new topology whose edge
    /// this patch inserted), ascending.
    #[inline]
    pub(crate) fn born_ports_of_dirty(&self, i: usize) -> &[Port] {
        &self.born_ports[self.born_offsets[i]..self.born_offsets[i + 1]]
    }

    /// Born ports of any node `v`, ascending (empty for clean nodes).
    #[cfg(test)]
    pub(crate) fn born_ports(&self, v: NodeId) -> &[Port] {
        match self.dirty.binary_search(&v) {
            Ok(i) => self.born_ports_of_dirty(i),
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pairing [`Topology::from_sorted_rows`] replaced, kept as its
    /// test oracle: per-node neighbor vectors, each sorted, and every
    /// reverse port found by a binary search in the neighbor's row.
    pub(super) fn paired_by_search(mut adj: Vec<Vec<NodeId>>) -> Topology {
        let n = adj.len();
        for (v, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            assert!(
                list.windows(2).all(|w| w[0] != w[1]),
                "duplicate edge at node {v}"
            );
        }
        let mut offsets = vec![0usize];
        let mut neighbors = Vec::new();
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        let mut rev_port = vec![0usize; neighbors.len()];
        for u in 0..n {
            for i in offsets[u]..offsets[u + 1] {
                let v = neighbors[i] as usize;
                rev_port[i] = neighbors[offsets[v]..offsets[v + 1]]
                    .binary_search(&(u as NodeId))
                    .expect("asymmetric adjacency");
            }
        }
        Topology {
            offsets,
            neighbors,
            rev_port,
        }
    }

    fn triangle() -> Topology {
        Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn basic_accessors() {
        let t = triangle();
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    fn reverse_ports_are_involutive() {
        let t = Topology::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 4)]);
        for v in 0..5u32 {
            for p in 0..t.degree(v) {
                let u = t.neighbor(v, p);
                let q = t.reverse_port(v, p);
                assert_eq!(t.neighbor(u, q), v);
                assert_eq!(t.reverse_port(u, q), p);
            }
        }
    }

    #[test]
    fn port_to_finds_edges() {
        let t = triangle();
        assert_eq!(t.port_to(0, 1), Some(0));
        assert_eq!(t.port_to(0, 2), Some(1));
        assert_eq!(t.port_to(1, 1), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        Topology::from_edges(2, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicates() {
        Topology::from_edges(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_edges(0, &[]);
        assert!(t.is_empty());
        assert_eq!(t.max_degree(), 0);
    }

    /// The cursor pairing of `from_sorted_rows` (reached through
    /// `from_edges`) equals the binary-search pairing, field by field,
    /// on all six zoo generators, on graphs with isolated nodes, and on
    /// a star whose hub is the last node.
    #[test]
    fn sorted_rows_pairing_equals_the_search_on_the_zoo() {
        use dgraph::generators::{
            barabasi_albert, chung_lu, d_regular, gnp, random_geometric, zipf_bipartite,
        };
        let n = 120;
        let mut zoo: Vec<(usize, Vec<(NodeId, NodeId)>)> = [
            gnp(n, 0.05, 1),
            barabasi_albert(n, 3, 2),
            chung_lu(n, 2.5, 6.0, 3),
            random_geometric(n, 0.12, 4),
            d_regular(n, 4, 5),
            zipf_bipartite(50, 70, 300, 1.1, 6).0,
            gnp(n, 0.005, 7),
        ]
        .iter()
        .map(|g| (g.n(), g.edge_list().to_vec()))
        .collect();
        zoo.push((9, (0..8).map(|v| (v, 8)).collect()));
        zoo.push((3, Vec::new()));
        for (i, (n, edges)) in zoo.iter().enumerate() {
            let mut adj = vec![Vec::new(); *n];
            for &(u, v) in edges {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
            let want = paired_by_search(adj);
            let got = Topology::from_edges(*n, edges);
            assert_eq!(got.offsets, want.offsets, "offsets, graph {i}");
            assert_eq!(got.neighbors, want.neighbors, "neighbors, graph {i}");
            assert_eq!(got.rev_port, want.rev_port, "reverse ports, graph {i}");
        }
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn sorted_rows_reject_one_sided_edges() {
        // 0 lists 2, but 2 lists only 1.
        Topology::from_sorted_rows(vec![0, 2, 4, 5], vec![1, 2, 0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn sorted_rows_reject_one_sided_lower_edges() {
        // 2 lists 0, but 0 lists only 1.
        Topology::from_sorted_rows(vec![0, 1, 3, 5], vec![1, 0, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn sorted_rows_reject_unsorted_rows() {
        Topology::from_sorted_rows(vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
    }

    /// Run the fast patch into a used buffer and hold it against the
    /// reference rebuild, field by field; returns the fast patch.
    fn patched(
        t: &Topology,
        removed: &[(NodeId, NodeId)],
        added: &[(NodeId, NodeId)],
    ) -> TopologyPatch {
        let want = t.rewired_reference(removed, added);
        let mut got = TopologyPatch::default();
        // A used buffer, so stale contents would show.
        triangle().rewired(&[(0, 1)], &[], &mut got);
        t.rewired(removed, added, &mut got);
        assert_eq!(got.topo.offsets, want.topo.offsets, "offsets");
        assert_eq!(got.topo.neighbors, want.topo.neighbors, "neighbors");
        assert_eq!(got.topo.rev_port, want.topo.rev_port, "reverse ports");
        assert_eq!(got.slot_map, want.slot_map, "slot map");
        assert_eq!(got.dirty, want.dirty, "dirty list");
        for v in 0..t.len() as NodeId {
            assert_eq!(got.born_ports(v), want.born_ports(v), "born ports of {v}");
        }
        got
    }

    #[test]
    fn rewired_applies_batch_and_maps_slots() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let patch = patched(&t, &[(1, 2)], &[(0, 3), (0, 2)]);
        let nt = &patch.topo;
        assert_eq!(nt.num_edges(), 4);
        assert_eq!(nt.neighbors(0), &[1, 2, 3]);
        assert_eq!(nt.neighbors(1), &[0]);
        // Surviving slots keep pointing at the same directed edge.
        for v in 0..4u32 {
            for p in 0..t.degree(v) {
                let u = t.neighbor(v, p);
                let old_slot = t.port_base(v) + p;
                match patch.new_slot(old_slot) {
                    Some(ns) => {
                        let np = ns - nt.port_base(v);
                        assert_eq!(nt.neighbor(v, np), u, "slot remap broke edge ({v},{u})");
                    }
                    None => assert!(
                        (v.min(u), v.max(u)) == (1, 2),
                        "only the removed edge may lose its slots"
                    ),
                }
            }
        }
        // Born ports name exactly the inserted edges.
        assert_eq!(patch.born_ports(0), &[1, 2]); // 0->2, 0->3
        assert_eq!(patch.born_ports(3), &[0]); // 3->0
        assert_eq!(patch.born_ports(1), &[] as &[usize]);
        assert_eq!(patch.dirty, &[0, 1, 2, 3]);
    }

    #[test]
    fn rewired_remove_and_reinsert_is_born() {
        let t = Topology::from_edges(2, &[(0, 1)]);
        let patch = patched(&t, &[(0, 1)], &[(1, 0)]);
        assert_eq!(patch.topo.num_edges(), 1);
        // The edge came back, but its old slots are dead and the new
        // ports count as born: any in-flight payload is dropped.
        assert_eq!(patch.new_slot(0), None);
        assert_eq!(patch.born_ports(0), &[0]);
        assert_eq!(patch.born_ports(1), &[0]);
    }

    #[test]
    fn rewired_empty_batch_is_identity() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let patch = patched(&t, &[], &[]);
        assert!(patch.dirty.is_empty());
        for s in 0..t.total_ports() {
            assert_eq!(patch.new_slot(s), Some(s));
        }
    }

    /// The fast patch equals the reference rebuild on random batches
    /// over all six zoo generators, and on the edge cases: an empty
    /// batch, a node losing its last edge, an isolated node gaining
    /// its first, an edge removed and re-inserted in one call, and
    /// batches touching nodes 0 and n-1.
    #[test]
    fn rewired_equals_the_reference_on_the_zoo() {
        use dgraph::generators::{
            barabasi_albert, chung_lu, d_regular, gnp, random_geometric, zipf_bipartite,
        };
        use dgraph::rng::Rng64;
        let n = 50;
        let zoo = [
            gnp(n, 0.1, 1),
            barabasi_albert(n, 3, 2),
            chung_lu(n, 2.5, 6.0, 3),
            random_geometric(n, 0.25, 4),
            d_regular(n, 4, 5),
            zipf_bipartite(20, 30, 120, 1.1, 6).0,
        ];
        let mut rng = Rng64::new(11);
        for g in &zoo {
            let mut t = Topology::from_edges(g.n(), g.edge_list());
            let last = g.n() as NodeId - 1;
            patched(&t, &[], &[]);
            // A chain of random epochs, each patch applied to the last.
            for _ in 0..12 {
                let edges: Vec<(NodeId, NodeId)> = (0..t.len() as NodeId)
                    .flat_map(|v| {
                        t.neighbors(v)
                            .iter()
                            .filter(move |&&u| v < u)
                            .map(move |&u| (v, u))
                    })
                    .collect();
                let mut picked: Vec<(NodeId, NodeId)> = Vec::new();
                for _ in 0..rng.index(6) {
                    let e = edges[rng.index(edges.len())];
                    if !picked.contains(&e) {
                        picked.push(e);
                    }
                }
                // Either orientation is a valid removal.
                let removed: Vec<(NodeId, NodeId)> = picked
                    .iter()
                    .map(|&(u, v)| if rng.index(2) == 0 { (u, v) } else { (v, u) })
                    .collect();
                let mut added: Vec<(NodeId, NodeId)> = Vec::new();
                for _ in 0..rng.index(6) {
                    let (u, v) = (rng.index(t.len()) as NodeId, rng.index(t.len()) as NodeId);
                    let e = (u.min(v), u.max(v));
                    if u != v && t.port_to(u, v).is_none() && !added.contains(&e) {
                        added.push(if rng.index(2) == 0 { e } else { (e.1, e.0) });
                    }
                }
                t = patched(&t, &removed, &added).topo;
            }
            // Both ends of the id range, and an edge removed and
            // re-inserted in the same call.
            let lo = (0..=last).find(|&v| t.degree(v) > 0).unwrap();
            let hi = (0..=last).rev().find(|&v| t.degree(v) > 0).unwrap();
            let e_lo = (lo, t.neighbor(lo, 0));
            let e_hi = (t.neighbor(hi, 0), hi);
            let corner: Vec<(NodeId, NodeId)> = if t.port_to(0, last).is_none() {
                vec![(last, 0)]
            } else {
                vec![]
            };
            if e_lo.0.min(e_lo.1) != e_hi.0.min(e_hi.1) || e_lo.0.max(e_lo.1) != e_hi.0.max(e_hi.1)
            {
                patched(&t, &[e_lo, e_hi], &corner);
            }
            patched(&t, &[e_lo], &[e_lo]);
            // A node losing its last edge, then gaining its first.
            let star: Vec<(NodeId, NodeId)> = t.neighbors(lo).iter().map(|&u| (lo, u)).collect();
            let bare = patched(&t, &star, &[]).topo;
            assert_eq!(bare.degree(lo), 0);
            patched(&bare, &[], &[(star[0].1, lo)]);
        }
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn rewired_rejects_removing_non_edges() {
        let mut patch = TopologyPatch::default();
        Topology::from_edges(3, &[(0, 1)]).rewired(&[(1, 2)], &[], &mut patch);
    }

    #[test]
    #[should_panic(expected = "existing edge")]
    fn rewired_rejects_duplicate_insert() {
        let mut patch = TopologyPatch::default();
        Topology::from_edges(3, &[(0, 1)]).rewired(&[], &[(1, 0)], &mut patch);
    }
}
