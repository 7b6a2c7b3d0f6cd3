//! `MatchingOracle` — the LCA point-query plane.
//!
//! Answers "is edge `e` matched?" / "who is `v`'s mate?" for the
//! matching a full [`crate::Session`] run *would* produce, without ever
//! running the network: a query materializes only a ball around the
//! query vertex ([`dgraph::subgraph::SubgraphView`]), simulates the
//! algorithm there, and **certifies** which local answers are
//! bit-identical to the global run. This is the Local Computation
//! Algorithm model of Alon–Rubinfeld–Vardi–Xie / Reingold–Vardi:
//! consistent point queries over a graph far too big to solve end to
//! end, with shared randomness (the frozen per-node RNG streams) making
//! independent probes mutually consistent.
//!
//! ## Certification
//!
//! Let `C` be the ball's contamination frontier: vertices with a
//! neighbor outside the ball (all on the outermost sphere). The local
//! run diverges from the global one only at `C`, and divergence travels
//! one hop per round / one path-length per phase:
//!
//! * **Israeli–Itai** (network simulation on the ball's induced graph,
//!   each node drawing from the RNG stream of its *global* id): a
//!   node's state after `t` rounds is a function of initial states
//!   within distance `t`, so a node that halted in round `h` is exact
//!   iff `h < dist(node, C)` (multi-source BFS inside the ball). An
//!   empty `C` (ball = whole component) certifies every node.
//!
//!   The probe simulates only what it can certify: each node is
//!   *frozen* — halted without a recorded halt round — when round
//!   `dist(node, C)` begins. This changes no certified answer. By
//!   induction on `t`, node `l` acts exactly as in the unfrozen run in
//!   every round `t < dist(l, C)`: its round-`t` inbox comes from
//!   neighbours `w` with `dist(w, C) ≥ dist(l, C) − 1 > t − 1`, which
//!   in round `t − 1` were neither frozen nor contaminated. So every
//!   halt round `h < dist(l, C)` is the unfrozen run's, and the
//!   certified set is the same. A node whose recorded halt round
//!   reaches its distance is not certified either way, so freezing it
//!   there loses nothing, and the run ends on its own within
//!   `max dist(·, C)` rounds. With `C` empty nothing freezes.
//! * **Generic** (purely combinatorial — phases on the induced
//!   subgraph): ranks are keyed by global vertex sequences, and a path
//!   is chosen iff no conflicting path of better rank is
//!   (`generic::rank_key`). Per phase `ℓ`, a path the ball sees wrongly
//!   leaves the ball or crosses a suspect vertex (`C` starts the suspect
//!   set), so it lies within `ℓ` of the suspect set: the *margin*. Down
//!   the rank order, a path is *tainted* iff it touches the margin or
//!   conflicts with a better-ranked tainted path, and the margin and the
//!   tainted paths become suspect. An untainted path has exactly its
//!   global conflicts, and those of better rank are untainted, so by
//!   induction down the order it is chosen iff it is globally.
//!   Unsuspect vertices keep their exact global mates.
//!
//! Certified answers — and only those — go into an ordered memo table,
//! so answers are query-order independent *by construction*: every
//! memoized value equals the global run's value, no matter which query
//! (or probe radius) discovered it. If the query vertex itself is not
//! certified, the radius doubles and the probe re-runs; once the ball
//! swallows the component, `C` is empty and certification is total, so
//! the loop always terminates.

use crate::generic;
use crate::israeli_itai::{self, IIMsg, IINode};
use crate::runner::Algorithm;
use dgraph::augmenting::enumerate_augmenting_paths;
use dgraph::subgraph::{bfs_distances, SubgraphView};
use dgraph::{EdgeId, Graph, Matching, NodeId};
use dobs::metrics::Registry;
use simnet::{Ctx, Inbox, Network, Protocol, Topology};
use std::collections::BTreeMap;

/// Builder for a [`MatchingOracle`]; start from [`MatchingOracle::on`].
pub struct OracleBuilder<'g> {
    g: &'g Graph,
    seed: u64,
    alg: Algorithm,
    initial_radius: usize,
}

impl<'g> OracleBuilder<'g> {
    /// Session seed the answers must agree with (epoch 0 of a fresh
    /// `Session::on(g).seed(seed)` run). Default 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Algorithm whose matching is being queried. Supported:
    /// [`Algorithm::IsraeliItai`] (default) and
    /// [`Algorithm::Generic`]; `build` panics on the others.
    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.alg = alg;
        self
    }

    /// First probe radius (doubles on every uncertified retry).
    /// Default 2.
    pub fn initial_radius(mut self, r: usize) -> Self {
        self.initial_radius = r.max(1);
        self
    }

    /// Finish the builder.
    pub fn build(self) -> MatchingOracle<'g> {
        assert!(
            matches!(self.alg, Algorithm::IsraeliItai | Algorithm::Generic { .. }),
            "MatchingOracle supports IsraeliItai and Generic, not {}",
            self.alg
        );
        if let Algorithm::Generic { k } = self.alg {
            assert!(k >= 1, "k must be positive");
        }
        MatchingOracle {
            g: self.g,
            seed: self.seed,
            alg: self.alg,
            initial_radius: self.initial_radius,
            memo: BTreeMap::new(),
            metrics: Registry::new(),
        }
    }
}

/// The LCA query plane over a borrowed graph. See the module docs for
/// the consistency contract and the certification argument.
pub struct MatchingOracle<'g> {
    g: &'g Graph,
    seed: u64,
    alg: Algorithm,
    initial_radius: usize,
    /// Certified global mates: `v -> Some(mate)` or `v -> None` (free).
    /// Ordered container — part of the determinism contract (dlint).
    memo: BTreeMap<NodeId, Option<NodeId>>,
    metrics: Registry,
}

impl<'g> MatchingOracle<'g> {
    /// Start building an oracle over `g`.
    pub fn on(g: &'g Graph) -> OracleBuilder<'g> {
        OracleBuilder {
            g,
            seed: 0,
            alg: Algorithm::IsraeliItai,
            initial_radius: 2,
        }
    }

    /// Is edge `e` in the global matching?
    pub fn query(&mut self, e: EdgeId) -> bool {
        self.metrics.inc("oracle_queries", 1);
        let (u, v) = self.g.endpoints(e);
        self.resolve(u) == Some(v)
    }

    /// Global mate of `v` (`None` = free in the global matching).
    pub fn query_node(&mut self, v: NodeId) -> Option<NodeId> {
        self.metrics.inc("oracle_queries", 1);
        self.resolve(v)
    }

    /// Probe/memo statistics: counters `oracle_queries`,
    /// `oracle_memo_hits`, `oracle_misses`, `oracle_balls`,
    /// `oracle_probed_nodes`; histograms `oracle_ball_radius`,
    /// `oracle_probed_per_query`; gauge `oracle_memo_size`.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Certified answer for `v`, probing outward as needed.
    fn resolve(&mut self, v: NodeId) -> Option<NodeId> {
        assert!((v as usize) < self.g.n(), "vertex out of range");
        if let Some(&mate) = self.memo.get(&v) {
            self.metrics.inc("oracle_memo_hits", 1);
            return mate;
        }
        self.metrics.inc("oracle_misses", 1);
        let mut radius = self.initial_radius;
        let mut probed_this_query = 0u64;
        loop {
            self.metrics.inc("oracle_balls", 1);
            let view = SubgraphView::ball(self.g, &[v], radius);
            self.metrics.inc("oracle_probed_nodes", view.len() as u64);
            probed_this_query += view.len() as u64;
            let certified = match self.alg {
                Algorithm::IsraeliItai => probe_ii(&view, self.seed),
                Algorithm::Generic { k } => self.probe_generic(&view, k),
                _ => unreachable!("rejected in build"),
            };
            for (local, mate) in certified {
                let gv = view.global(local);
                let prev = self.memo.insert(gv, mate);
                debug_assert!(
                    prev.is_none_or(|p| p == mate),
                    "memo must be single-valued: vertex {gv} was {prev:?}, now {mate:?}"
                );
            }
            if let Some(&mate) = self.memo.get(&v) {
                // Cap the recorded radius at n: any radius ≥ n-1 means
                // "the whole component" (and the uncapped sentinel
                // would overflow the histogram's sum).
                self.metrics
                    .record("oracle_ball_radius", radius.min(self.g.n()) as u64);
                self.metrics
                    .record("oracle_probed_per_query", probed_this_query);
                self.metrics
                    .set_gauge("oracle_memo_size", self.memo.len() as u64);
                return mate;
            }
            // Not yet certified: grow.
            radius = radius.saturating_mul(2);
        }
    }

    /// Replay the Generic phases on the induced subgraph with
    /// globally-keyed MIS ranks, growing a suspect set instead of
    /// simulating the network (gathering does not affect the matching).
    fn probe_generic(&mut self, view: &SubgraphView<'_>, k: usize) -> Vec<(usize, Option<NodeId>)> {
        let (ind, boundary) = view.induced();
        let n_local = ind.n();
        let mut m = Matching::new(n_local);
        // suspect[l]: l's matched status may deviate from the global
        // run in some phase seen so far.
        let mut suspect = vec![false; n_local];
        for b in boundary {
            suspect[b as usize] = true;
        }
        for phase_idx in 0..k {
            let ell = 2 * phase_idx + 1;
            let sources: Vec<NodeId> = (0..n_local as NodeId)
                .filter(|&l| suspect[l as usize])
                .collect();
            // Only the ℓ-margin of the suspect set is read below.
            let dist = bfs_distances(
                n_local,
                |l| ind.incident(l).iter().map(|&(u, _)| u),
                &sources,
                ell,
            );
            let paths = enumerate_augmenting_paths(&ind, &m, ell);
            // Keys and ranks address paths by *global* vertex sequences,
            // so the ball ranks each path as the global run does.
            let keys: Vec<u64> = paths
                .iter()
                .map(|p| {
                    let gp: Vec<NodeId> = p.iter().map(|&l| view.global(l as usize)).collect();
                    generic::path_key(&gp)
                })
                .collect();
            let cm = generic::conflict_graph_mis(n_local, &paths, &keys, self.seed, ell);
            // Apply every chosen augmentation (tainted ones too — their
            // vertices are about to be marked suspect, and the local
            // matching must stay a valid matching for later phases).
            for &i in &cm.chosen {
                m.augment_path(&ind, &paths[i]);
            }
            // The ℓ-margin becomes suspect; then, down the rank order, a
            // path touching a suspect vertex is tainted and its vertices
            // become suspect too.
            for l in 0..n_local {
                if dist[l] <= ell {
                    suspect[l] = true;
                }
            }
            let mut order: Vec<usize> = (0..paths.len()).collect();
            order.sort_by_cached_key(|&i| generic::rank_key(self.seed, ell, keys[i], &paths[i]));
            for &i in &order {
                if paths[i].iter().any(|&v| suspect[v as usize]) {
                    for &v in &paths[i] {
                        suspect[v as usize] = true;
                    }
                }
            }
        }
        (0..n_local)
            .filter(|&l| !suspect[l])
            .map(|l| {
                let mate = m.mate(l as NodeId).map(|w| view.global(w as usize));
                (l, mate)
            })
            .collect()
    }
}

/// An Israeli–Itai ball node that freezes at its contamination
/// distance: it acts in every round before `freeze_at = dist(node, C)`
/// and halts at the end of the last one (a boundary node halts in round
/// 0 without acting), without recording a halt round. What it sent in
/// that round is still delivered, so it is gone exactly when round
/// `freeze_at` begins; see the module docs for why no certified answer
/// moves. Session runs keep the plain [`IINode`].
struct FrozenAtDistance {
    node: IINode,
    freeze_at: u64,
}

impl Protocol for FrozenAtDistance {
    type Msg = IIMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, IIMsg>, inbox: Inbox<'_, IIMsg>) {
        if ctx.round() < self.freeze_at {
            self.node.on_round(ctx, inbox);
        }
        if ctx.round() + 1 >= self.freeze_at {
            ctx.halt();
        }
    }
}

/// Simulate Israeli–Itai (session seed `seed`) on the ball `view` and
/// certify by halt round vs. distance to the contamination frontier:
/// the certified `(local, global mate)` pairs.
///
/// The ball's network is built from the view's rows in one pass, with
/// no induced [`Graph`] in between, and every node freezes at its
/// distance to the frontier.
fn probe_ii(view: &SubgraphView<'_>, seed: u64) -> Vec<(usize, Option<NodeId>)> {
    let (offsets, neighbors, boundary) = view.rows();
    let topo = Topology::from_sorted_rows(offsets, neighbors);
    // dist(l, C); usize::MAX (∞) when C cannot reach l — e.g. C = ∅.
    let dist = bfs_distances(
        topo.len(),
        |l| topo.neighbors(l).iter().copied(),
        &boundary,
        usize::MAX,
    );
    let nodes = (0..topo.len())
        .map(|l| FrozenAtDistance {
            node: IINode::new(topo.degree(l as NodeId)),
            freeze_at: dist[l] as u64,
        })
        .collect();
    let streams: Vec<u64> = view.vertices().iter().map(|&gv| gv as u64).collect();
    let mut net = Network::new(topo, nodes, seed).with_streams(&streams);
    // The *global* budget: every node of the global run halts within
    // it, so certified halt rounds always fit. Frozen, the run ends
    // within max dist(·, C) rounds, long before it unless C is empty.
    net.run_rounds(israeli_itai::round_budget(view.graph().n()));
    let topo = net.topology();
    let mut certified = Vec::new();
    for (l, state) in net.nodes().iter().enumerate() {
        // Halt round h is exact iff h < dist(l, C).
        if state.node.halt_round.is_some_and(|h| h < dist[l] as u64) {
            let mate = state
                .node
                .mate_port()
                .map(|p| view.global(topo.neighbor(l as NodeId, p) as usize));
            certified.push((l, mate));
        }
    }
    certified
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::state;
    use dgraph::generators::random::{barabasi_albert, gnp};
    use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric};

    /// The probe before freezing and one-pass rows, kept as the test
    /// oracle of [`probe_ii`]: the induced [`Graph`], its topology via
    /// [`state::topology_of`], the full round-budget run, and a BFS over
    /// the induced graph.
    fn probe_ii_reference(view: &SubgraphView<'_>, seed: u64) -> Vec<(usize, Option<NodeId>)> {
        let (ball, boundary) = view.induced();
        let nodes = (0..ball.n() as NodeId)
            .map(|l| IINode::new(ball.degree(l)))
            .collect();
        let streams: Vec<u64> = view.vertices().iter().map(|&gv| gv as u64).collect();
        let mut net = Network::new(state::topology_of(&ball), nodes, seed).with_streams(&streams);
        net.run_rounds(israeli_itai::round_budget(view.graph().n()));
        let dist = bfs_distances(
            ball.n(),
            |l| ball.incident(l).iter().map(|&(u, _)| u),
            &boundary,
            usize::MAX,
        );
        let (states, _) = net.into_parts();
        let mut certified = Vec::new();
        for (l, state) in states.iter().enumerate() {
            if state.halt_round.is_some_and(|h| h < dist[l] as u64) {
                let mate = state
                    .mate_port()
                    .map(|p| view.global(ball.incident(l as NodeId)[p].0 as usize));
                certified.push((l, mate));
            }
        }
        certified
    }

    /// Freezing at the contamination distance certifies exactly what
    /// the full run certifies, with the same mates: five zoo families
    /// (n = 300) × 3 seeds × 3 centres × radii from 1 to 64 (the last
    /// swallows the component, so `C` is empty and nothing freezes).
    #[test]
    fn frozen_probe_equals_the_full_run() {
        let n = 300;
        let zoo = [
            gnp(n, 0.02, 1),
            barabasi_albert(n, 2, 2),
            chung_lu(n, 2.5, 4.0, 3),
            random_geometric(n, 0.09, 4),
            d_regular(n, 3, 5),
        ];
        let (mut proper_balls, mut whole_components) = (0, 0);
        for (i, g) in zoo.iter().enumerate() {
            for seed in 0..3u64 {
                for centre in [0, 137, n as NodeId - 1] {
                    for radius in [1, 2, 3, 4, 6, 8, 64] {
                        let view = SubgraphView::ball(g, &[centre], radius);
                        let got = probe_ii(&view, seed);
                        assert_eq!(
                            got,
                            probe_ii_reference(&view, seed),
                            "family {i} seed {seed} centre {centre} radius {radius}"
                        );
                        let whole = view.rows().2.is_empty();
                        proper_balls += usize::from(!whole);
                        whole_components += usize::from(whole);
                    }
                }
            }
        }
        assert!(
            proper_balls > 0 && whole_components > 0,
            "the sweep must cover balls that freeze and balls that do not"
        );
    }

    fn global_mates(g: &Graph, alg: Algorithm, seed: u64) -> Vec<Option<NodeId>> {
        let mut s = Session::on(g).algorithm(alg).seed(seed).build();
        s.run_to_completion();
        let m = s.matching().clone();
        (0..g.n() as NodeId).map(|v| m.mate(v)).collect()
    }

    #[test]
    fn ii_matches_global_session() {
        for seed in 0..4 {
            let g = gnp(48, 0.08, 100 + seed);
            let want = global_mates(&g, Algorithm::IsraeliItai, seed);
            let mut o = MatchingOracle::on(&g).seed(seed).build();
            for v in 0..g.n() as NodeId {
                assert_eq!(o.query_node(v), want[v as usize], "seed {seed} vertex {v}");
            }
        }
    }

    #[test]
    fn generic_matches_global_session() {
        for seed in 0..4 {
            let g = gnp(40, 0.09, 300 + seed);
            let alg = Algorithm::Generic { k: 2 };
            let want = global_mates(&g, alg, seed);
            let mut o = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
            for v in 0..g.n() as NodeId {
                assert_eq!(o.query_node(v), want[v as usize], "seed {seed} vertex {v}");
            }
        }
    }

    #[test]
    fn edge_queries_equal_node_queries() {
        let g = gnp(40, 0.1, 9);
        let mut o = MatchingOracle::on(&g).seed(5).build();
        for e in 0..g.m() as EdgeId {
            let (u, v) = g.endpoints(e);
            let matched = o.query(e);
            assert_eq!(matched, o.query_node(u) == Some(v));
        }
    }

    #[test]
    fn memo_hits_count_and_memo_is_stable() {
        let g = gnp(40, 0.1, 2);
        let mut o = MatchingOracle::on(&g).seed(1).build();
        let first: Vec<_> = (0..g.n() as NodeId).map(|v| o.query_node(v)).collect();
        let probed = o.metrics().counter("oracle_probed_nodes");
        let hits = o.metrics().counter("oracle_memo_hits");
        let second: Vec<_> = (0..g.n() as NodeId).map(|v| o.query_node(v)).collect();
        assert_eq!(first, second);
        assert_eq!(
            o.metrics().counter("oracle_probed_nodes"),
            probed,
            "memoized re-queries must probe nothing"
        );
        assert_eq!(o.metrics().counter("oracle_memo_hits"), hits + g.n() as u64);
    }

    #[test]
    #[should_panic(expected = "MatchingOracle supports")]
    fn rejects_unsupported_algorithms() {
        let g = gnp(10, 0.2, 1);
        let _ = MatchingOracle::on(&g)
            .algorithm(Algorithm::General {
                k: 2,
                early_stop: None,
            })
            .build();
    }
}
