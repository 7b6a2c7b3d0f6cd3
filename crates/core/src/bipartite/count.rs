//! Algorithm 3: counting augmenting paths by a layered BFS (Figure 1).
//!
//! All free X nodes flood `1` simultaneously; every node records, on
//! first arrival only, the per-port counts of shortest half-augmenting
//! paths reaching it (Lemma 3.6: the count is exact and bounded by
//! `Δ^⌈d/2⌉`). Matched Y nodes forward the sum to their mate; matched X
//! nodes forward to their non-mate neighbors; free Y nodes record and
//! stop — they are the path endpoints ("leaders") of the token pass.
//!
//! This implementation natively supports the paper's "length at most ℓ"
//! variant (needed by Algorithm 4): a free Y node reached at any round
//! `d ≤ ℓ` becomes a leader with its own distance.
//!
//! Counts are carried as `u128` and **charged their actual significant
//! bits** (`O(ℓ log Δ)`, per Lemma 3.6); the paper pipelines them in
//! `O(log Δ)`-bit chunks (Lemma 3.7), which changes round constants but
//! not message *volume* — see EXPERIMENTS.md E10.

use super::{AugNets, Role, SubgraphSpec};
use crate::state;
use dgraph::{Graph, Matching, NodeId};
use simnet::{BitSize, Ctx, ExecCfg, Inbox, NetStats, Protocol};

/// A path-count message.
#[derive(Debug, Clone, Copy)]
pub struct CountMsg(pub u128);

impl BitSize for CountMsg {
    fn bit_size(&self) -> u64 {
        // Significant bits of the count plus a small header.
        4 + (128 - self.0.leading_zeros() as u64).max(1)
    }
}

/// Per-node result of a counting pass.
#[derive(Debug, Clone)]
pub struct CountPass {
    /// `dist[v]` = round of first arrival (the `d(v)` of Lemma 3.6).
    pub dist: Vec<Option<u64>>,
    /// `counts[v][p]` = number of shortest half-augmenting paths
    /// arriving at `v` on port `p`.
    pub counts: Vec<Vec<u128>>,
    /// `total[v]` = `n_v` of Algorithm 3.
    pub total: Vec<u128>,
    /// Number of reached free Y nodes (token-pass leaders).
    pub leaders: usize,
    /// Network statistics of the pass.
    pub stats: NetStats,
}

/// A node of the counting pass; the token pass reads its results.
#[derive(Default, Clone)]
pub(super) struct CountNode {
    pub(super) role: Role,
    pub(super) mate_port: Option<usize>,
    active: Vec<bool>,
    pub(super) ell: u64,
    pub(super) dist: Option<u64>,
    pub(super) counts: Vec<u128>,
    pub(super) total: u128,
}

impl CountNode {
    /// Overwrite every field for a pass; the vectors keep their capacity.
    fn arm(&mut self, g: &Graph, m: &Matching, spec: &SubgraphSpec, v: NodeId, ell: usize) {
        let inc = g.incident(v);
        self.role = spec.role[v as usize];
        self.mate_port = state::mate_port(g, m, v);
        self.active.clear();
        self.active
            .extend(inc.iter().map(|&(_, e)| spec.active[e as usize]));
        self.ell = ell as u64;
        self.dist = None;
        self.counts.clear();
        self.counts.resize(inc.len(), 0);
        self.total = 0;
    }
}

impl Protocol for CountNode {
    type Msg = CountMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, CountMsg>, inbox: Inbox<'_, CountMsg>) {
        let r = ctx.round();
        if self.role == Role::Out {
            return;
        }
        if r == 0 {
            // Free X nodes start the BFS.
            if self.role == Role::X && self.mate_port.is_none() {
                self.dist = Some(0);
                for p in 0..ctx.degree() {
                    if self.active[p] {
                        ctx.send(p, CountMsg(1));
                    }
                }
            }
            return;
        }
        if self.dist.is_some() {
            return; // visited: later messages are discarded (Algorithm 3)
        }
        let mut got = false;
        for env in inbox.iter() {
            if self.active[env.port] {
                self.counts[env.port] = self.counts[env.port].saturating_add(env.msg.0);
                self.total = self.total.saturating_add(env.msg.0);
                got = true;
            }
        }
        if !got {
            return;
        }
        self.dist = Some(r);
        let forward_useful = r < self.ell;
        match (self.role, self.mate_port) {
            (Role::Y, Some(mp)) => {
                // Matched Y: forward the sum to the mate only.
                if forward_useful && self.active[mp] {
                    ctx.send(mp, CountMsg(self.total));
                }
            }
            (Role::Y, None) => {
                // Free Y: a path endpoint; record and stop.
            }
            (Role::X, Some(mp)) => {
                // Matched X (the message came from its mate): forward to
                // every other active neighbor.
                debug_assert!(inbox.iter().all(|e| e.port == mp || !self.active[e.port]));
                if forward_useful {
                    for p in 0..ctx.degree() {
                        if p != mp && self.active[p] {
                            ctx.send(p, CountMsg(self.total));
                        }
                    }
                }
            }
            (Role::X, None) => {
                // Free X nodes never receive: Y sends only to its mate.
                unreachable!("free X node received a count message");
            }
            (Role::Out, _) => unreachable!(),
        }
    }
}

/// Execute one counting pass of `ell + 1` rounds on the substrate's
/// count network. Returns the number of leaders and the statistics.
pub(super) fn run_on(
    nets: &mut AugNets,
    g: &Graph,
    m: &Matching,
    spec: &SubgraphSpec,
    ell: usize,
    seed: u64,
    cfg: ExecCfg,
) -> (usize, NetStats) {
    let net = &mut nets.nets(g, cfg).count;
    net.rearm(seed);
    for (v, node) in net.nodes_mut().iter_mut().enumerate() {
        node.arm(g, m, spec, v as NodeId, ell);
    }
    net.run_rounds(ell as u64 + 1);
    // Free X sources carry dist 0 but are not leaders.
    let leader = |n: &&CountNode| n.role == Role::Y && n.mate_port.is_none() && n.dist.is_some();
    (net.nodes().iter().filter(leader).count(), net.take_stats())
}

/// Execute one counting pass of `ell + 1` rounds on the subgraph, on a
/// substrate of its own, and copy its per-node results out.
pub fn run_cfg(
    g: &Graph,
    m: &Matching,
    spec: &SubgraphSpec,
    ell: usize,
    seed: u64,
    cfg: ExecCfg,
) -> CountPass {
    let mut nets = AugNets::default();
    let (leaders, stats) = run_on(&mut nets, g, m, spec, ell, seed, cfg);
    let nodes = nets.nets(g, cfg).count.nodes();
    CountPass {
        dist: nodes.iter().map(|n| n.dist).collect(),
        counts: nodes.iter().map(|n| n.counts.clone()).collect(),
        total: nodes.iter().map(|n| n.total).collect(),
        leaders,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::structured::{complete_bipartite, path};

    fn full_spec(g: &Graph) -> (SubgraphSpec, Vec<bool>) {
        let sides = dgraph::bipartite::two_color(g).unwrap();
        (SubgraphSpec::full_bipartite(g, &sides), sides)
    }

    #[test]
    fn empty_matching_counts_length_one_paths() {
        let (g, sides) = complete_bipartite(3, 4);
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::new(g.n());
        let pass = run_cfg(&g, &m, &spec, 1, 0, ExecCfg::default());
        assert_eq!(pass.leaders, 4, "every free Y is reached at distance 1");
        for y in 3..7u32 {
            assert_eq!(pass.dist[y as usize], Some(1));
            assert_eq!(
                pass.total[y as usize], 3,
                "three free X sources reach each Y"
            );
        }
    }

    #[test]
    fn path_graph_distance_three() {
        // 0-1-2-3 with (1,2) matched: unique augmenting path of length 3.
        let g = path(4);
        let (spec, sides) = full_spec(&g);
        let m = Matching::from_edges(&g, &[1]);
        let pass = run_cfg(&g, &m, &spec, 3, 0, ExecCfg::default());
        // Node 0 and node 2 are X (sides come from 2-coloring of path:
        // 0,2 on one side, 1,3 on the other).
        let _ = sides;
        assert_eq!(pass.leaders, 1);
        assert_eq!(pass.dist[3], Some(3));
        assert_eq!(pass.total[3], 1);
        assert_eq!(pass.dist[1], Some(1));
        assert_eq!(pass.dist[2], Some(2));
    }

    #[test]
    fn ell_bound_cuts_long_paths() {
        let g = path(6); // 0-1-2-3-4-5, matched (1,2),(3,4): one length-5 path
        let (spec, _) = full_spec(&g);
        let m = Matching::from_edges(&g, &[1, 3]);
        let short = run_cfg(&g, &m, &spec, 3, 0, ExecCfg::default());
        assert_eq!(short.leaders, 0, "no augmenting path of length ≤ 3");
        let long = run_cfg(&g, &m, &spec, 5, 0, ExecCfg::default());
        assert_eq!(long.leaders, 1);
        assert_eq!(long.dist[5], Some(5));
    }

    #[test]
    fn counts_match_lemma_3_6_bound() {
        let (g, sides) = complete_bipartite(4, 4);
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::new(g.n());
        let pass = run_cfg(&g, &m, &spec, 1, 0, ExecCfg::default());
        let delta = g.max_degree() as u128;
        for v in 0..g.n() {
            if let Some(d) = pass.dist[v] {
                if d > 0 {
                    let bound = delta.pow(d.div_ceil(2) as u32);
                    assert!(pass.total[v] <= bound, "n_v > Δ^⌈d/2⌉ at {v}");
                }
            }
        }
    }

    #[test]
    fn counts_agree_with_exhaustive_enumeration() {
        use dgraph::augmenting::enumerate_augmenting_paths;
        use dgraph::generators::random::bipartite_gnp;
        for seed in 0..6 {
            let (g, sides) = bipartite_gnp(6, 6, 0.4, seed);
            let spec = SubgraphSpec::full_bipartite(&g, &sides);
            // Build some matching via greedy to have interesting paths.
            let m = dgraph::greedy::greedy_maximal(&g);
            // Shortest augmenting length, if any.
            let sl = dgraph::augmenting::shortest_augmenting_path_len_bipartite(&g, &sides, &m);
            let Some(ell) = sl else { continue };
            let pass = run_cfg(&g, &m, &spec, ell, seed, ExecCfg::default());
            // For each reached free Y at distance exactly ell, the count
            // must equal the number of shortest augmenting paths ending
            // there.
            let all = enumerate_augmenting_paths(&g, &m, ell);
            for y in 0..g.n() as NodeId {
                if sides[y as usize] && m.is_free(y) && pass.dist[y as usize] == Some(ell as u64) {
                    let expected = all
                        .iter()
                        .filter(|p| p.len() == ell + 1 && (p[0] == y || *p.last().unwrap() == y))
                        .count() as u128;
                    assert_eq!(
                        pass.total[y as usize], expected,
                        "seed {seed}, node {y}: count mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn out_nodes_stay_silent() {
        let g = path(4);
        let m = Matching::from_edges(&g, &[1]);
        // Monochromatic matched pair → all edges inactive.
        let spec = SubgraphSpec::from_coloring(&g, &m, &[false, true, true, false]);
        let pass = run_cfg(&g, &m, &spec, 3, 0, ExecCfg::default());
        assert_eq!(pass.leaders, 0);
        assert_eq!(pass.stats.messages, 0);
    }
}
