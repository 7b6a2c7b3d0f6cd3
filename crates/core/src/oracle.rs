//! `MatchingOracle` — the LCA point-query plane.
//!
//! Answers "is edge `e` matched?" / "who is `v`'s mate?" for the
//! matching a full [`crate::Session`] run *would* produce, without ever
//! running the whole network: a query evaluates only what its answer
//! depends on. This is the Local Computation Algorithm model of
//! Alon–Rubinfeld–Vardi–Xie / Reingold–Vardi: consistent point queries
//! over a graph far too big to solve end to end, with shared randomness
//! (per-node RNG streams and per-path ranks, both keyed by global ids)
//! making independent queries mutually consistent.
//!
//! ## Israeli–Itai: the light cone, on demand
//!
//! In a synchronous run, a node's state after round `r` depends only on
//! its state after round `r − 1` and on what its neighbours sent in
//! round `r − 1`. The oracle evaluates that recursion lazily, on the
//! host graph itself. Every node it touches keeps, for the oracle's
//! lifetime, its [`IINode`] state, its RNG stream
//! (`SplitMix64::for_node(seed, v)`, the network's), the number of
//! rounds it has stepped and what it sent in its last two rounds. A
//! node steps round `r` only once every neighbour has stepped round
//! `r − 1` or halted, and it reads what they sent in round `r − 1` in
//! port order: the inbox the network delivers. By induction on `r`,
//! every round a node steps is the global run's round, so every state
//! the oracle holds is a prefix of the global run and a halted node's
//! mate is its global mate. Nothing needs certifying, and no answer
//! can depend on query order or on which query stepped a node.
//!
//! A query steps its vertex until it halts. Each step first demands
//! its neighbours' previous round, and so on down: an explicit stack,
//! since the round budget allows thousands of rounds. Demands stop at
//! nodes that halted, so a query touches the light cone of its
//! vertex's halt round, cut where the matching has settled. The live
//! graph of Israeli–Itai shatters, so on sparse graphs that is a few
//! dozen nodes, and it never leaves the ball whose radius is the halt
//! round. A hashed index finds touched nodes; it is probed and never
//! iterated, so a query's cost follows its cone, not `n`. Live
//! neighbours stay within one round of each other, so two send
//! buffers per port, by round parity, hold every message a neighbour
//! may still read.
//!
//! ## Generic: ball replay and certification
//!
//! A Generic query materializes a ball around the query vertex
//! ([`dgraph::subgraph::SubgraphView`]), replays the phases on it, and
//! **certifies** which local answers equal the global run's. Let `C`
//! be the ball's contamination frontier: vertices with a neighbor
//! outside the ball (all on the outermost sphere). Ranks are keyed by
//! global vertex sequences, and a path is chosen iff no conflicting
//! path of better rank is (`generic::rank_key`). Per phase `ℓ`, a path
//! the ball sees wrongly leaves the ball or crosses a suspect vertex
//! (`C` starts the suspect set), so it lies within `ℓ` of the suspect
//! set: the *margin*. Down the rank order, a path is *tainted* iff it
//! touches the margin or conflicts with a better-ranked tainted path,
//! and the margin and the tainted paths become suspect. An untainted
//! path has exactly its global conflicts, and those of better rank are
//! untainted, so by induction down the order it is chosen iff it is
//! globally. Unsuspect vertices keep their exact global mates. The same
//! pass chooses the paths, by first fit: a path is chosen iff no
//! better-ranked chosen path shares a vertex with it, which is the set
//! the session's Step 5 rounds choose.
//!
//! Certified answers — and only those — go into an ordered memo table,
//! so answers are query-order independent *by construction*: every
//! memoized value equals the global run's value, no matter which query
//! (or starting radius) discovered it. If the query vertex itself is
//! not certified, the radius doubles and the probe re-runs; once the
//! ball swallows the component, `C` is empty and certification is
//! total, so the loop always terminates.

use crate::generic;
use crate::israeli_itai::{self, IIMsg, IINode, NodeIo};
use crate::runner::Algorithm;
use dgraph::augmenting::enumerate_augmenting_paths;
use dgraph::subgraph::{bfs_distances, IdMap, SubgraphView};
use dgraph::{EdgeId, Graph, Matching, NodeId};
use dobs::metrics::Registry;
use simnet::{Port, SplitMix64};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

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

    /// First ball radius of a Generic query (doubles on every
    /// uncertified retry). Israeli–Itai queries evaluate their light
    /// cone and build no ball, so they ignore it. Default 2.
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
            cone: Cone::new(self.g, self.seed),
            memo: BTreeMap::new(),
            metrics: Registry::new(),
        }
    }
}

/// The LCA query plane over a borrowed graph. See the module docs for
/// the consistency contract, the Israeli–Itai light cone and the
/// Generic certification argument.
pub struct MatchingOracle<'g> {
    g: &'g Graph,
    seed: u64,
    alg: Algorithm,
    initial_radius: usize,
    /// Israeli–Itai: the global run, as far as queries have stepped it.
    /// Its halted nodes are the known answers.
    cone: Cone<'g>,
    /// Generic: certified global mates, `v -> Some(mate)` or
    /// `v -> None` (free). Ordered container — part of the determinism
    /// contract (dlint).
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

    /// Query statistics: counters `oracle_queries`, `oracle_memo_hits`,
    /// `oracle_misses` and `oracle_probed_nodes` (nodes a miss newly
    /// touched: cone nodes for Israeli–Itai, ball nodes for Generic);
    /// histogram `oracle_probed_per_query`; gauge `oracle_memo_size`
    /// (answers held). Israeli–Itai adds the histogram
    /// `oracle_cone_steps` (node-rounds a miss evaluated); Generic adds
    /// the counter `oracle_balls` and the histogram
    /// `oracle_ball_radius`.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The global answer for `v`: held, or evaluated now.
    fn resolve(&mut self, v: NodeId) -> Option<NodeId> {
        assert!((v as usize) < self.g.n(), "vertex out of range");
        let held = match self.alg {
            Algorithm::IsraeliItai => self.cone.mate(v),
            _ => self.memo.get(&v).copied(),
        };
        if let Some(mate) = held {
            self.metrics.inc("oracle_memo_hits", 1);
            return mate;
        }
        self.metrics.inc("oracle_misses", 1);
        match self.alg {
            Algorithm::IsraeliItai => self.resolve_ii(v),
            Algorithm::Generic { k } => self.resolve_generic(v, k),
            _ => unreachable!("rejected in build"),
        }
    }

    /// Step `v` through the global Israeli–Itai run until it halts.
    fn resolve_ii(&mut self, v: NodeId) -> Option<NodeId> {
        let (touched, steps) = (self.cone.nodes.len(), self.cone.steps);
        self.cone.settle(v);
        let touched = (self.cone.nodes.len() - touched) as u64;
        self.metrics.inc("oracle_probed_nodes", touched);
        self.metrics.record("oracle_probed_per_query", touched);
        self.metrics
            .record("oracle_cone_steps", self.cone.steps - steps);
        self.metrics.set_gauge("oracle_memo_size", self.cone.halted);
        self.cone.mate(v).expect("a settled node has halted")
    }

    /// Replay Generic on balls around `v`, doubling the radius until
    /// `v`'s answer is certified.
    fn resolve_generic(&mut self, v: NodeId, k: usize) -> Option<NodeId> {
        let mut radius = self.initial_radius;
        let mut probed_this_query = 0u64;
        loop {
            self.metrics.inc("oracle_balls", 1);
            let view = SubgraphView::ball(self.g, &[v], radius);
            self.metrics.inc("oracle_probed_nodes", view.len() as u64);
            probed_this_query += view.len() as u64;
            for (local, mate) in self.probe_generic(&view, k) {
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
    /// globally-keyed ranks, growing a suspect set instead of
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
            // The ℓ-margin becomes suspect.
            for l in 0..n_local {
                if dist[l] <= ell {
                    suspect[l] = true;
                }
            }
            // One pass down the rank order. First fit chooses: a path
            // sharing no vertex with a better-ranked chosen path is
            // chosen and applied (tainted ones too: the local matching
            // must stay a valid matching for later phases). And a path
            // touching a suspect vertex is tainted: its vertices become
            // suspect too.
            let mut order: Vec<usize> = (0..paths.len()).collect();
            order.sort_by_cached_key(|&i| generic::rank_key(self.seed, ell, keys[i], &paths[i]));
            let mut used = vec![false; n_local];
            for &i in &order {
                let path = &paths[i];
                if path.iter().all(|&l| !used[l as usize]) {
                    for &l in path {
                        used[l as usize] = true;
                    }
                    m.augment_path(&ind, path);
                }
                if path.iter().any(|&l| suspect[l as usize]) {
                    for &l in path {
                        suspect[l as usize] = true;
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

/// The global Israeli–Itai run, evaluated node by node and round by
/// round only as far as queries demand (see the module docs).
struct Cone<'g> {
    g: &'g Graph,
    seed: u64,
    /// Global id → slot in `nodes`. Probed, never iterated.
    index: IdMap<u32>,
    /// Every touched node, in the order it was touched.
    nodes: Vec<ConeNode>,
    /// The touched nodes' ports, each node's contiguous.
    links: Vec<Link>,
    /// Node-rounds stepped so far.
    steps: u64,
    /// Touched nodes that have halted: the answers held.
    halted: u64,
    /// Scratch: the pending demands, and the mail of the node being
    /// stepped.
    demands: Vec<Demand>,
    mail: Vec<(NodeId, Port, IIMsg)>,
}

/// A node of the global run, as far as queries have stepped it.
struct ConeNode {
    /// Global id.
    id: NodeId,
    node: IINode,
    rng: SplitMix64,
    /// Rounds stepped: the next round this node steps.
    done: u64,
    /// Its ports are `links[base..base + degree]`.
    base: usize,
    /// Whether its links know their peers. Set before the node's round
    /// 1, the first that reads mail.
    wired: bool,
}

impl ConeNode {
    fn halted(&self) -> bool {
        self.node.halt_round.is_some()
    }
}

/// One port of a touched node.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// The neighbour's slot, and the neighbour's port back.
    peer: u32,
    back: u32,
    /// What the node sent on this port in its last two rounds, indexed
    /// by round parity.
    out: [Option<IIMsg>; 2],
}

/// A pending demand: step `slot` until it has stepped `until` rounds
/// or halted. Its first `ready` ports lead to neighbours that have
/// stepped the round before its next one, or halted.
#[derive(Debug, Clone, Copy)]
struct Demand {
    slot: usize,
    until: u64,
    ready: usize,
}

/// A cone node's [`NodeIo`] for one round: its sends go to the round's
/// parity of its links. Halting needs no action here: the node records
/// its halt round, which is what the cone reads.
struct ConeIo<'a> {
    round: u64,
    rng: &'a mut SplitMix64,
    links: &'a mut [Link],
}

impl NodeIo for ConeIo<'_> {
    fn round(&self) -> u64 {
        self.round
    }

    fn degree(&self) -> usize {
        self.links.len()
    }

    fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    fn send(&mut self, port: Port, msg: IIMsg) {
        self.links[port].out[(self.round % 2) as usize] = Some(msg);
    }

    fn halt(&mut self) {}
}

impl<'g> Cone<'g> {
    /// Nothing touched yet; allocates nothing.
    fn new(g: &'g Graph, seed: u64) -> Self {
        Cone {
            g,
            seed,
            index: IdMap::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            steps: 0,
            halted: 0,
            demands: Vec::new(),
            mail: Vec::new(),
        }
    }

    /// `v`'s global mate, if `v` has halted.
    fn mate(&self, v: NodeId) -> Option<Option<NodeId>> {
        let node = &self.nodes[*self.index.get(&v)? as usize];
        node.halted()
            .then(|| node.node.mate_port().map(|p| self.g.incident(v)[p].0))
    }

    /// `v`'s slot, touching it first if needed: a fresh node that has
    /// stepped no round.
    fn touch(&mut self, v: NodeId) -> usize {
        match self.index.entry(v) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                let slot = self.nodes.len();
                e.insert(slot as u32);
                let degree = self.g.degree(v);
                self.nodes.push(ConeNode {
                    id: v,
                    node: IINode::new(degree),
                    rng: SplitMix64::for_node(self.seed, v as u64),
                    done: 0,
                    base: self.links.len(),
                    wired: false,
                });
                self.links
                    .resize(self.links.len() + degree, Link::default());
                slot
            }
        }
    }

    /// Touch every neighbour of `slot`, and record on each of its
    /// links the neighbour's slot and port back.
    fn wire(&mut self, slot: usize) {
        let g = self.g;
        let (v, base) = (self.nodes[slot].id, self.nodes[slot].base);
        for (p, &(u, _)) in g.incident(v).iter().enumerate() {
            let peer = self.touch(u);
            let back = g
                .incident(u)
                .binary_search_by_key(&v, |&(w, _)| w)
                .expect("adjacency is symmetric");
            let link = &mut self.links[base + p];
            link.peer = peer as u32;
            link.back = back as u32;
        }
        self.nodes[slot].wired = true;
    }

    /// Where `links` holds the ports of the node at `slot`.
    fn ports(&self, slot: usize) -> Range<usize> {
        let node = &self.nodes[slot];
        node.base..node.base + self.g.degree(node.id)
    }

    /// Whether the node at `slot` has stepped round `r − 1` or halted:
    /// what a neighbour's round `r` waits for.
    fn ready(&self, slot: u32, r: u64) -> bool {
        let node = &self.nodes[slot as usize];
        node.done >= r || node.halted()
    }

    /// Step `v` until it halts, stepping first whatever each of its
    /// rounds depends on. Every node of the global run halts within
    /// the session's round budget.
    fn settle(&mut self, v: NodeId) {
        let root = self.touch(v);
        let budget = israeli_itai::round_budget(self.g.n());
        let mut demands = std::mem::take(&mut self.demands);
        demands.push(Demand {
            slot: root,
            until: budget,
            ready: 0,
        });
        while let Some(d) = demands.last_mut() {
            let (slot, r) = (d.slot, self.nodes[d.slot].done);
            if r >= d.until || self.nodes[slot].halted() {
                demands.pop();
                continue;
            }
            if r > 0 {
                if !self.nodes[slot].wired {
                    self.wire(slot);
                }
                let links = &self.links[self.ports(slot)];
                while d.ready < links.len() && self.ready(links[d.ready].peer, r) {
                    d.ready += 1;
                }
                if let Some(link) = links.get(d.ready) {
                    // A neighbour lags: it steps round r − 1 first.
                    let peer = link.peer as usize;
                    demands.push(Demand {
                        slot: peer,
                        until: r,
                        ready: 0,
                    });
                    continue;
                }
                d.ready = 0;
            }
            self.step(slot, r);
        }
        self.demands = demands;
        assert!(
            self.nodes[root].halted(),
            "Israeli–Itai did not halt within {budget} rounds"
        );
    }

    /// Step the node at `slot` through round `r`, every neighbour
    /// having stepped round `r − 1` or halted.
    fn step(&mut self, slot: usize, r: u64) {
        let ports = self.ports(slot);
        let Cone {
            g,
            nodes,
            links,
            mail,
            steps,
            halted,
            ..
        } = self;
        let incident = g.incident(nodes[slot].id);
        mail.clear();
        if r > 0 {
            // What each neighbour sent this node in round r − 1, if it
            // stepped that round.
            let parity = ((r - 1) % 2) as usize;
            for (p, link) in links[ports.clone()].iter().enumerate() {
                let peer = &nodes[link.peer as usize];
                if peer.done >= r {
                    if let Some(msg) = links[peer.base + link.back as usize].out[parity] {
                        mail.push((incident[p].0, p, msg));
                    }
                }
            }
        }
        let ports = &mut links[ports];
        for link in ports.iter_mut() {
            link.out[(r % 2) as usize] = None;
        }
        let node = &mut nodes[slot];
        let mut io = ConeIo {
            round: r,
            rng: &mut node.rng,
            links: ports,
        };
        node.node.step(&mut io, &mail[..]);
        node.done = r + 1;
        *steps += 1;
        if node.halted() {
            *halted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::state;
    use dgraph::generators::random::{barabasi_albert, gnp};
    use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric};
    use simnet::Network;

    /// The global Israeli–Itai run as a full network: every node's mate
    /// and halt round.
    fn full_run(g: &Graph, seed: u64) -> Vec<(Option<NodeId>, u64)> {
        let nodes = (0..g.n() as NodeId)
            .map(|v| IINode::new(g.degree(v)))
            .collect();
        let mut net = Network::new(state::topology_of(g), nodes, seed);
        net.run_until_halt(israeli_itai::round_budget(g.n()));
        net.nodes()
            .iter()
            .enumerate()
            .map(|(v, s)| {
                let mate = s.mate_port().map(|p| g.incident(v as NodeId)[p].0);
                (mate, s.halt_round.expect("every node halts"))
            })
            .collect()
    }

    /// What an oracle's cone holds for the queried vertex `v`: its mate
    /// and halt round.
    fn held(o: &MatchingOracle<'_>, v: NodeId) -> (Option<NodeId>, u64) {
        let node = &o.cone.nodes[o.cone.index[&v] as usize];
        let halt = node.node.halt_round.expect("a queried vertex has halted");
        (o.cone.mate(v).expect("halted"), halt)
    }

    /// The cone is the global run: on five zoo families (n = 300) × 3
    /// seeds, every node's mate and halt round equal a full network
    /// run's, queried in ascending and in shuffled order on one oracle,
    /// and on a fresh oracle per vertex. Every node a shared oracle
    /// touched holds a prefix of the global run: a halted one its global
    /// mate and halt round, a live one no round past its halt round.
    #[test]
    fn cone_equals_the_full_run() {
        let n = 300;
        let zoo = [
            gnp(n, 0.02, 1),
            barabasi_albert(n, 2, 2),
            chung_lu(n, 2.5, 4.0, 3),
            random_geometric(n, 0.09, 4),
            d_regular(n, 3, 5),
        ];
        for (i, g) in zoo.iter().enumerate() {
            for seed in 0..3u64 {
                let want = full_run(g, seed);
                for v in 0..n as NodeId {
                    let mut fresh = MatchingOracle::on(g).seed(seed).build();
                    assert_eq!(fresh.query_node(v), want[v as usize].0);
                    assert_eq!(
                        held(&fresh, v),
                        want[v as usize],
                        "family {i} seed {seed} fresh vertex {v}"
                    );
                }
                let ascending: Vec<NodeId> = (0..n as NodeId).collect();
                let mut shuffled = ascending.clone();
                let mut rng = SplitMix64::for_node(0xC0E, 3 * i as u64 + seed);
                for j in (1..n).rev() {
                    shuffled.swap(j, rng.below(j as u64 + 1) as usize);
                }
                for order in [ascending, shuffled] {
                    let mut shared = MatchingOracle::on(g).seed(seed).build();
                    for &v in &order {
                        assert_eq!(shared.query_node(v), want[v as usize].0);
                        assert_eq!(
                            held(&shared, v),
                            want[v as usize],
                            "family {i} seed {seed} vertex {v}"
                        );
                        for node in &shared.cone.nodes {
                            let (mate, halt) = want[node.id as usize];
                            match node.node.halt_round {
                                Some(h) => {
                                    assert_eq!(h, halt);
                                    assert_eq!(shared.cone.mate(node.id), Some(mate));
                                }
                                None => assert!(node.done <= halt),
                            }
                        }
                    }
                }
            }
        }
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
