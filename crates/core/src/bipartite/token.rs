//! The token pass: one emulated Luby iteration on the conflict graph of
//! augmenting paths (Section 3.2, "Computing a maximal set of
//! augmenting paths").
//!
//! Every reached free Y node ("leader") draws a random priority `w_y`
//! and launches a token that walks *backwards* along the counting BFS,
//! sampling each predecessor edge with probability `c_v[i] / n_v`
//! (so each of the `n_y` paths ending at `y` is equally likely — the
//! leader "chooses a winner among the paths it leads"). When tokens
//! meet at a node, only the largest priority survives. A token reaching
//! a free X node completes an augmenting path; a Flip message then
//! retraces the recorded hops, flipping matched/unmatched edges.
//!
//! Leaders at distance `d < ℓ` launch at round `ℓ - d`, so *all* tokens
//! occupy distance-`(ℓ - t)` nodes in round `t`: the paper's invariant
//! "tokens may arrive at a node only at a single round" holds even in
//! the mixed-length variant, and the surviving paths are vertex
//! disjoint.
//!
//! Tokens carry 64-bit priorities plus the leader id (ties broken by
//! id); the paper's `w_y ∈ [1, N⁴]` serves the same union bound.

use super::count::CountNode;
use super::{AugNets, Nets, Role};
use crate::state;
use dgraph::{Graph, Matching, NodeId};
use simnet::{BitSize, Ctx, ExecCfg, Inbox, NetStats, Protocol, SplitMix64};

/// Wire messages of the token pass.
#[derive(Debug, Clone, Copy)]
pub enum TokMsg {
    /// A walking token: `(priority, leader id)`.
    Token(u64, NodeId),
    /// Path-flip retrace.
    Flip,
}

impl BitSize for TokMsg {
    fn bit_size(&self) -> u64 {
        match self {
            TokMsg::Token(..) => 2 + 64 + 32,
            TokMsg::Flip => 2,
        }
    }
}

/// Outcome of one token pass.
#[derive(Debug)]
pub struct TokenOutcome {
    /// The matching after applying the surviving paths.
    pub matching: Matching,
    /// Number of augmenting paths applied.
    pub applied: usize,
    /// Network statistics.
    pub stats: NetStats,
}

/// A node of the token pass, re-initialised in place by every pass.
#[derive(Default, Clone)]
pub(super) struct TokenNode {
    role: Role,
    mate_port: Option<usize>,
    ell: u64,
    dist: Option<u64>,
    counts: Vec<u128>,
    total: u128,
    /// Port the winning token arrived on (toward the leader side).
    arrival_port: Option<usize>,
    /// Port the winning token was forwarded on (toward the X side);
    /// for leaders, the first sampled hop.
    forward_port: Option<usize>,
    /// Mate port after the pass (initialized to the current mate).
    new_mate_port: Option<usize>,
    /// Set on free X nodes that completed a path.
    initiated: bool,
}

impl TokenNode {
    /// Overwrite every field from the node's state after the counting
    /// pass, whose spent per-port counts are swapped in, not copied.
    fn arm(&mut self, count: &mut CountNode) {
        self.role = count.role;
        self.mate_port = count.mate_port;
        self.ell = count.ell;
        self.dist = count.dist;
        std::mem::swap(&mut self.counts, &mut count.counts);
        self.total = count.total;
        self.arrival_port = None;
        self.forward_port = None;
        self.new_mate_port = count.mate_port;
        self.initiated = false;
    }

    fn is_leader(&self) -> bool {
        self.role == Role::Y && self.mate_port.is_none() && self.dist.is_some() && self.total > 0
    }

    /// Sample a predecessor port with probability `counts[p] / total`.
    fn sample_port(&self, rng: &mut SplitMix64) -> usize {
        debug_assert!(self.total > 0);
        let r = ((rng.next() as u128) << 64 | rng.next() as u128) % self.total;
        let mut acc = 0u128;
        for (p, &c) in self.counts.iter().enumerate() {
            acc += c;
            if r < acc {
                return p;
            }
        }
        unreachable!("total exceeds the sum of counts")
    }
}

impl Protocol for TokenNode {
    type Msg = TokMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, TokMsg>, inbox: Inbox<'_, TokMsg>) {
        if self.role == Role::Out {
            return;
        }
        // --- Flip retrace (traveling free X → leader). ---
        // On a fault-free plane exactly one Flip can reach a node, and
        // only on the port its token went out on (paths are vertex
        // disjoint). The adversary breaks both: a delayed Flip can
        // surface rounds late on a node that never forwarded a token
        // this pass. Only honour a Flip retracing our own forward
        // port — anything else is stale traffic to ignore.
        if self
            .forward_port
            .is_some_and(|p| matches!(inbox.get(p), Some(TokMsg::Flip)))
        {
            match self.role {
                Role::Y => {
                    // New mate is the X-side path edge; the old matched
                    // edge (the arrival port, if any) becomes unmatched.
                    self.new_mate_port = self.forward_port;
                    if let Some(a) = self.arrival_port {
                        ctx.send(a, TokMsg::Flip); // continue toward the leader
                    }
                    // else: this node *is* the leader — the path is done.
                }
                Role::X => {
                    let a = self.arrival_port.expect("intermediate X saw the token");
                    self.new_mate_port = Some(a);
                    ctx.send(a, TokMsg::Flip);
                }
                Role::Out => unreachable!(),
            }
            return;
        }

        // Tokens visit a node, and a leader launches, only in the
        // node's designated round ℓ - d(v) (the paper's invariant). A
        // delayed token arriving outside it — or at a node the faulty
        // counting pass never reached — is stale: processing it would
        // double-walk the node, so it is dropped unread. On a
        // fault-free plane no token arrives outside it.
        if Some(ctx.round()) != self.dist.map(|d| self.ell - d) {
            return;
        }

        // --- Token arrivals: keep the max, forward or complete. ---
        let mut best: Option<(u64, NodeId, usize)> = None;
        for env in inbox.iter() {
            if let TokMsg::Token(w, leader) = *env.msg {
                if best.is_none_or(|(bw, bl, _)| (w, leader) > (bw, bl)) {
                    best = Some((w, leader, env.port));
                }
            }
        }
        if let Some((w, leader, port)) = best {
            self.arrival_port = Some(port);
            match (self.role, self.mate_port) {
                (Role::X, None) => {
                    // Free X: the path is complete. Flip it.
                    self.new_mate_port = Some(port);
                    self.initiated = true;
                    ctx.send(port, TokMsg::Flip);
                }
                (Role::X, Some(mp)) => {
                    // Matched X: backward hop is the matching edge.
                    self.forward_port = Some(mp);
                    ctx.send(mp, TokMsg::Token(w, leader));
                }
                (Role::Y, Some(_)) => {
                    // Matched Y (arrived from its mate): sample a
                    // predecessor among the counting ports.
                    let p = self.sample_port(ctx.rng());
                    self.forward_port = Some(p);
                    ctx.send(p, TokMsg::Token(w, leader));
                }
                (Role::Y, None) => unreachable!("tokens never enter a free Y node"),
                (Role::Out, _) => unreachable!(),
            }
            return;
        }

        // --- Leader launch at round ℓ - d(y). ---
        if self.is_leader() {
            let w = ctx.rng().next();
            let p = self.sample_port(ctx.rng());
            self.forward_port = Some(p);
            ctx.send(p, TokMsg::Token(w, ctx.id()));
        }
    }
}

/// Execute one token pass (2ℓ+1 rounds) on the substrate's token
/// network, from the counting pass last run on `nets`, and apply all
/// surviving augmenting paths.
pub fn run_cfg(nets: &mut AugNets, g: &Graph, ell: usize, seed: u64, cfg: ExecCfg) -> TokenOutcome {
    let Nets { count, token: net } = nets.nets(g, cfg);
    net.rearm(seed);
    for (node, c) in net.nodes_mut().iter_mut().zip(count.nodes_mut()) {
        node.arm(c);
    }
    net.run_rounds(2 * ell as u64 + 1);
    let applied = net.nodes().iter().filter(|n| n.initiated).count();
    // A Flip lost or parked mid-retrace leaves one-sided mate claims;
    // under an active fault plan keep only the pairs both endpoints
    // agree on (always a valid matching).
    let matching = state::matching_from_ports(
        g,
        net.nodes().iter().map(|n| n.new_mate_port),
        cfg.faults.is_active(),
    );
    TokenOutcome {
        matching,
        applied,
        stats: net.take_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::{count, SubgraphSpec};
    use dgraph::generators::random::bipartite_gnp;
    use dgraph::generators::structured::{complete_bipartite, path};

    fn one_iteration(
        g: &Graph,
        m: &Matching,
        spec: &SubgraphSpec,
        ell: usize,
        seed: u64,
    ) -> TokenOutcome {
        let mut nets = AugNets::default();
        count::run_on(&mut nets, g, m, spec, ell, seed, ExecCfg::default());
        run_cfg(&mut nets, g, ell, seed + 1, ExecCfg::default())
    }

    #[test]
    fn single_path_is_flipped() {
        let g = path(4);
        let sides = dgraph::bipartite::two_color(&g).unwrap();
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::from_edges(&g, &[1]);
        let out = one_iteration(&g, &m, &spec, 3, 5);
        assert_eq!(out.applied, 1);
        assert_eq!(out.matching.size(), 2);
        assert!(out.matching.contains(&g, 0) && out.matching.contains(&g, 2));
    }

    #[test]
    fn disjoint_augmentations_in_one_iteration() {
        // Complete bipartite, empty matching, ℓ = 1: the token pass
        // should match several X-Y pairs at once.
        let (g, sides) = complete_bipartite(6, 6);
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::new(g.n());
        let out = one_iteration(&g, &m, &spec, 1, 3);
        assert!(out.applied >= 1);
        assert_eq!(out.matching.size(), out.applied);
        assert!(out.matching.validate(&g).is_ok());
    }

    #[test]
    fn matching_size_strictly_grows() {
        for seed in 0..10 {
            let (g, sides) = bipartite_gnp(12, 12, 0.3, seed);
            let spec = SubgraphSpec::full_bipartite(&g, &sides);
            let m = dgraph::greedy::greedy_maximal(&g);
            let sl = dgraph::augmenting::shortest_augmenting_path_len_bipartite(&g, &sides, &m);
            let Some(ell) = sl else { continue };
            let out = one_iteration(&g, &m, &spec, ell, seed * 7);
            assert!(out.applied >= 1, "seed {seed}: a token must survive");
            assert_eq!(out.matching.size(), m.size() + out.applied);
            assert!(out.matching.validate(&g).is_ok());
        }
    }

    #[test]
    fn mixed_length_paths_are_handled() {
        // Two components: a bare edge (length-1 path) and a P4 with its
        // middle matched (length-3 path). Both augment in one pass with
        // ℓ = 3 thanks to staggered launches.
        let g = Graph::new(6, vec![(0, 1), (2, 3), (3, 4), (4, 5)]);
        let sides = dgraph::bipartite::two_color(&g).unwrap();
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::from_edges(&g, &[2]); // (3,4) matched
        let out = one_iteration(&g, &m, &spec, 3, 9);
        assert_eq!(out.applied, 2);
        assert_eq!(out.matching.size(), 3);
    }

    #[test]
    fn conflicting_paths_resolve_to_one() {
        // Star-like conflict: X = {0}, Y = {1, 2}; both length-1 paths
        // share node 0, so exactly one survives.
        let g = Graph::new(3, vec![(0, 1), (0, 2)]);
        let sides = vec![false, true, true];
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::new(3);
        let out = one_iteration(&g, &m, &spec, 1, 13);
        assert_eq!(out.applied, 1);
        assert_eq!(out.matching.size(), 1);
    }

    #[test]
    fn stats_have_small_messages() {
        let (g, sides) = bipartite_gnp(20, 20, 0.2, 4);
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m = Matching::new(g.n());
        let out = one_iteration(&g, &m, &spec, 1, 21);
        assert!(out.stats.max_msg_bits <= 98);
    }
}
