//! Incremental Israeli–Itai: maximal-matching repair across epochs.
//!
//! The protocol keeps the classical three-phase iteration (propose /
//! accept / resolve+announce) but is built to *survive churn* and to
//! keep repair traffic inside the damage neighborhood:
//!
//! * **Nobody halts.** Nodes with nothing to do go *passive* (send
//!   nothing) instead of halting, so they keep processing liveness
//!   announcements and their knowledge of which neighbors are free
//!   never goes stale — the invariant that lets a proposal always
//!   target a genuinely free node. Passivity, not halting, is what
//!   makes the cost local: a node speaks only when churn near it gives
//!   it something to say.
//! * **Two liveness announcements.** `Matched` kills a port (classic);
//!   `Freed` — sent by a node whose matched edge was churned away —
//!   resurrects it. Both are processed in every round, whatever the
//!   phase.
//! * **Epoch boundaries are one sync round.** After a
//!   [`simnet::Network::rewire`], each node's [`simnet::Rewire`] hook
//!   has remapped its port state; in the first round of the epoch,
//!   newly freed nodes broadcast `Freed` and matched nodes announce
//!   `Matched` on born ports (a new neighbor starts optimistic). From
//!   round 1 on, the usual iterations run — and only nodes that heard
//!   about damage ever participate.
//!
//! Messages stay 2 bits, well inside CONGEST.

use simnet::{BitSize, Ctx, Inbox, Port, Protocol, Rewire, RewireCtx};

/// Wire messages (2 bits each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RMsg {
    /// "Will you match with me?"
    Propose,
    /// "Yes" (sent only to the chosen proposer; consummates the match).
    Accept,
    /// "I am matched; stop considering this edge."
    Matched,
    /// "My matched edge was churned away; this edge is available again."
    Freed,
}

impl BitSize for RMsg {
    fn bit_size(&self) -> u64 {
        2
    }
}

/// Per-node state of the incremental matcher.
#[derive(Debug, Clone)]
pub struct RepairNode {
    /// Port of the mate once matched.
    pub(crate) mate_port: Option<Port>,
    /// `active[p]` = the neighbor on `p` is currently free. Maintained
    /// exactly (up to one round of message latency) by the `Matched` /
    /// `Freed` announcements.
    pub(crate) active: Vec<bool>,
    /// Network round at which the current epoch began (recorded by
    /// `on_rewire` from [`RewireCtx::round`]; 0 for the bootstrap
    /// epoch). The epoch-local round is `ctx.round() - epoch_start`:
    /// derived from the global clock — not a per-step counter — so
    /// nodes that sleep through quiet rounds stay phase-synchronized.
    epoch_start: u64,
    /// True while this node is male in the current iteration.
    male: bool,
    /// Port proposed to in the current iteration.
    proposed_to: Option<Port>,
    /// Set by `on_rewire` when the matched edge vanished: broadcast
    /// `Freed` in the sync round.
    freed_pending: bool,
    /// Born ports a matched node must announce `Matched` on in the
    /// sync round (the new neighbor starts optimistic).
    born_announce: Vec<Port>,
    /// Matched during the current iteration: announce in its phase 2.
    just_matched: bool,
}

impl RepairNode {
    /// Fresh node of the given degree: free, all ports presumed live.
    pub fn new(degree: usize) -> Self {
        RepairNode {
            mate_port: None,
            active: vec![true; degree],
            epoch_start: 0,
            male: false,
            proposed_to: None,
            freed_pending: false,
            born_announce: Vec::new(),
            just_matched: false,
        }
    }

    /// Port of the current mate, if matched.
    pub fn mate_port(&self) -> Option<Port> {
        self.mate_port
    }

    /// Nothing to say and nothing to decide: matched with no pending
    /// announcements, or free with every port dead. Idle nodes
    /// [`Ctx::sleep`] — the `Matched`/`Freed`/`Propose` mail that could
    /// change their situation is exactly what wakes them, so passivity
    /// costs the round loop nothing (this is what makes a repair epoch
    /// cost O(damage) node steps instead of O(n) per round).
    fn idle(&self) -> bool {
        !self.freed_pending
            && !self.just_matched
            && self.born_announce.is_empty()
            && (self.mate_port.is_some() || !self.active.iter().any(|&a| a))
    }
}

impl Protocol for RepairNode {
    type Msg = RMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, RMsg>, inbox: Inbox<'_, RMsg>) {
        // Liveness bookkeeping first, in every round: announcements
        // sent in the previous round take effect before any decision.
        for env in inbox.iter() {
            match env.msg {
                RMsg::Matched => self.active[env.port] = false,
                RMsg::Freed => self.active[env.port] = true,
                _ => {}
            }
        }
        self.phase_round(ctx, inbox);
        if self.idle() {
            ctx.sleep();
        }
    }
}

impl RepairNode {
    /// The phase work of one round (split out so `on_round` can apply
    /// the idle/sleep decision after every branch, early returns
    /// included).
    fn phase_round(&mut self, ctx: &mut Ctx<'_, RMsg>, inbox: Inbox<'_, RMsg>) {
        let lr = ctx.round() - self.epoch_start;
        if lr == 0 {
            // Sync round: publish what the rewire changed about me.
            if self.freed_pending {
                self.freed_pending = false;
                for p in 0..ctx.degree() {
                    ctx.send(p, RMsg::Freed);
                }
            } else if self.mate_port.is_some() {
                for i in 0..self.born_announce.len() {
                    ctx.send(self.born_announce[i], RMsg::Matched);
                }
            }
            self.born_announce.clear();
            return;
        }
        match (lr - 1) % 3 {
            0 => {
                // Propose: free nodes with live ports flip a coin.
                if self.mate_port.is_some() {
                    return;
                }
                let live_count = self.active.iter().filter(|&&a| a).count();
                if live_count == 0 {
                    return; // passive, not halted: churn may revive us
                }
                self.male = ctx.rng().bernoulli(0.5);
                self.proposed_to = None;
                if self.male {
                    let pick = ctx.rng().below(live_count as u64) as usize;
                    let p = self
                        .active
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a)
                        .nth(pick)
                        .expect("pick < live_count")
                        .0;
                    self.proposed_to = Some(p);
                    ctx.send(p, RMsg::Propose);
                }
            }
            1 => {
                // Accept: free females take the lowest-port proposal.
                if self.mate_port.is_some() || self.male {
                    return;
                }
                if let Some(env) = inbox
                    .iter()
                    .find(|e| *e.msg == RMsg::Propose && self.active[e.port])
                {
                    self.mate_port = Some(env.port);
                    // The mate is no longer free; nobody announces this
                    // to us (announcements skip the mate), so record it
                    // first-hand.
                    self.active[env.port] = false;
                    self.just_matched = true;
                    ctx.send(env.port, RMsg::Accept);
                }
            }
            2 => {
                // Resolve: proposers learn their fate; fresh couples
                // announce to everyone else.
                if self.mate_port.is_none() {
                    if let Some(env) = inbox.iter().find(|e| *e.msg == RMsg::Accept) {
                        debug_assert_eq!(Some(env.port), self.proposed_to);
                        self.mate_port = Some(env.port);
                        self.active[env.port] = false; // mate is taken — by us
                        self.just_matched = true;
                    }
                }
                if self.just_matched {
                    self.just_matched = false;
                    let mate = self.mate_port.expect("just matched");
                    for p in 0..ctx.degree() {
                        if p != mate {
                            ctx.send(p, RMsg::Matched);
                        }
                    }
                }
            }
            _ => unreachable!(),
        }
    }
}

impl Rewire for RepairNode {
    fn on_rewire(&mut self, ctx: &RewireCtx<'_>) {
        if !ctx.ports_unchanged() {
            let mut active = vec![true; ctx.new_degree()]; // born ports start optimistic
            for (p, &a) in self.active.iter().enumerate() {
                if let Some(np) = ctx.new_port(p) {
                    active[np] = a;
                }
            }
            self.active = active;
        }
        self.mate_port = match self.mate_port {
            Some(mp) => match ctx.new_port(mp) {
                Some(np) => Some(np),
                None => {
                    // The matched edge was churned away: I am free
                    // again and must tell the neighborhood.
                    self.freed_pending = true;
                    None
                }
            },
            None => None,
        };
        self.born_announce.clear();
        if self.mate_port.is_some() {
            self.born_announce.extend_from_slice(ctx.born_ports());
        }
        self.epoch_start = ctx.round();
        self.male = false;
        self.proposed_to = None;
        self.just_matched = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Network, Topology};

    fn net_of(n: usize, edges: &[(u32, u32)], seed: u64) -> Network<RepairNode> {
        let topo = Topology::from_edges(n, edges);
        let nodes = (0..n as u32)
            .map(|v| RepairNode::new(topo.degree(v)))
            .collect();
        Network::new(topo, nodes, seed)
    }

    fn mates(net: &Network<RepairNode>) -> Vec<Option<u32>> {
        net.nodes()
            .iter()
            .enumerate()
            .map(|(v, s)| s.mate_port.map(|p| net.topology().neighbor(v as u32, p)))
            .collect()
    }

    fn run_iterations(net: &mut Network<RepairNode>, iters: u64) {
        net.run_rounds(1 + 3 * iters);
    }

    #[test]
    fn cold_start_matches_a_path() {
        let mut net = net_of(4, &[(0, 1), (1, 2), (2, 3)], 3);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        // Symmetric, and maximal: no two adjacent free nodes.
        for (v, &mv) in m.iter().enumerate() {
            if let Some(u) = mv {
                assert_eq!(m[u as usize], Some(v as u32));
            }
        }
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 3)] {
            assert!(
                m[a as usize].is_some() || m[b as usize].is_some(),
                "edge ({a},{b}) violates maximality"
            );
        }
    }

    #[test]
    fn matched_pair_goes_quiet() {
        let mut net = net_of(2, &[(0, 1)], 1);
        run_iterations(&mut net, 30);
        assert!(mates(&net)[0].is_some());
        // Once matched, the pair is passive: no further traffic.
        let sent = net.step();
        assert_eq!(sent, 0, "matched nodes must be silent");
    }

    #[test]
    fn rewire_frees_and_reannounces() {
        // Match the pair (0,1), then churn the edge away and connect
        // each to a fresh partner; repair must rematch both.
        let mut net = net_of(4, &[(0, 1)], 5);
        run_iterations(&mut net, 30);
        assert_eq!(mates(&net)[0], Some(1));
        net.rewire(&[(0, 1)], &[(0, 2), (1, 3)]);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        assert_eq!(m[0], Some(2));
        assert_eq!(m[1], Some(3));
    }

    #[test]
    fn freed_announcement_revives_third_party_knowledge() {
        // Triangle-free chain: 2 matched with 3; 0-1 matched. Node 4 is
        // adjacent to 3 only, so it ends free with a dead port. When
        // (2,3) is churned away, 3 must broadcast Freed and 4 must
        // regain the port and match with 3.
        let mut net = net_of(5, &[(0, 1), (2, 3), (3, 4)], 11);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        assert_eq!(m[2], Some(3), "seeded run must match (2,3) first");
        assert_eq!(m[4], None);
        assert!(!net.nodes()[4].active[0], "4 learned its port is dead");
        net.rewire(&[(2, 3)], &[]);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        assert_eq!(m[3], Some(4), "Freed must revive the (3,4) edge");
    }
}
