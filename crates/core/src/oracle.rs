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
//! ## Generic: the greedy choice, by rank recursion
//!
//! Phase `ℓ` (`ℓ = 1, 3, …, 2k − 1`) applies the greedy set of
//! augmenting paths in the fixed order of `generic::rank_key`. Write
//! `mate(ℓ, v)` for `v`'s mate after phase `ℓ`, every vertex being free
//! before phase 1. Three rules determine it:
//!
//! 1. `mate(ℓ, v)` is `v`'s partner on the chosen phase-`ℓ` path
//!    through `v`. If no such path is chosen, it is `mate(ℓ − 2, v)`.
//! 2. A phase-`ℓ` path exists iff it alternates under its vertices'
//!    phase-`(ℓ − 2)` mates and ends at two free vertices. Each of
//!    those mates is a query one phase down.
//! 3. A path is chosen iff no path of better rank that shares a vertex
//!    with it is chosen.
//!
//! Rule 1 is Step 7, rule 2 is the enumeration Step 5 runs on, and
//! rule 3 is the set Step 5's rounds choose (and
//! `generic::tests::conflict_graph_mis_is_greedy_in_rank_order` checks).
//! The induction runs on `ℓ`, and within a phase down the rank order.
//! Rule 2 reads only phase-`(ℓ − 2)` mates, which are the global run's
//! by induction on `ℓ`, so the paths listed through a vertex are
//! exactly the global run's, oriented and keyed as
//! `enumerate_augmenting_paths` and `generic::path_key` do it and
//! ranked under the session's epoch-0 seed. Rule 3 decides a path from
//! better-ranked paths only, so the recursion is well-founded, and down
//! the order every decision is the global run's. So every fact the
//! oracle derives is the global run's. It keeps them for its lifetime,
//! and no answer depends on query order or on which query derived it.
//!
//! The evaluation (`Greedy`) works per touched vertex and phase, on
//! an explicit stack of tasks (decision chains can be long, and test
//! threads have 2 MiB stacks):
//! - its **row**: its neighbours and their mates one phase down, read
//!   once. These are the hops an alternating walk can take from it;
//! - its **path list**: the walks from it (and from its mate, if it is
//!   matched) that leave on an unmatched edge and end at a free
//!   vertex, joined into paths, ranked and sorted once. A path already
//!   listed at another vertex is found there by binary search, so each
//!   path is ranked once and decided once;
//! - a **cursor** into that list: every path before it lost, and a path
//!   at it that is chosen is the vertex's chosen path.
//!
//! Deciding a path moves each of its vertices' cursors up to it,
//! deciding first every better-ranked path met on the way, and stops at
//! the first chosen one. A query settles its vertex in the last phase.
//! It reads the rows and ranks the paths that its answer depends on,
//! and nothing else. A hashed index finds touched vertices; it is
//! probed and never iterated.

use crate::generic;
use crate::israeli_itai::{self, IIMsg, IINode, NodeIo};
use crate::runner::Algorithm;
use dgraph::subgraph::IdMap;
use dgraph::{EdgeId, Graph, NodeId};
use dobs::metrics::Registry;
use simnet::{Port, SplitMix64};
use std::collections::hash_map::Entry;
use std::ops::Range;

/// Builder for a [`MatchingOracle`]; start from [`MatchingOracle::on`].
pub struct OracleBuilder<'g> {
    g: &'g Graph,
    seed: u64,
    alg: Algorithm,
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

    /// Finish the builder. Allocates nothing: queries grow what they
    /// evaluate.
    pub fn build(self) -> MatchingOracle<'g> {
        let engine = match self.alg {
            Algorithm::IsraeliItai => Engine::IsraeliItai(Cone::new(self.g, self.seed)),
            Algorithm::Generic { k } => {
                assert!(k >= 1, "k must be positive");
                Engine::Generic(Greedy::new(self.g, self.seed, k))
            }
            other => panic!("MatchingOracle supports IsraeliItai and Generic, not {other}"),
        };
        MatchingOracle {
            g: self.g,
            engine,
            metrics: Registry::new(),
        }
    }
}

/// The LCA query plane over a borrowed graph. See the module docs for
/// the consistency contract, the Israeli–Itai light cone and the
/// Generic rank recursion.
pub struct MatchingOracle<'g> {
    g: &'g Graph,
    engine: Engine<'g>,
    metrics: Registry,
}

/// The global run being queried, as far as queries have evaluated it.
/// What it holds is the known answers.
#[allow(clippy::large_enum_variant)] // one per oracle, built in place and never moved in a loop; boxing would allocate at build
enum Engine<'g> {
    IsraeliItai(Cone<'g>),
    Generic(Greedy<'g>),
}

impl<'g> MatchingOracle<'g> {
    /// Start building an oracle over `g`.
    pub fn on(g: &'g Graph) -> OracleBuilder<'g> {
        OracleBuilder {
            g,
            seed: 0,
            alg: Algorithm::IsraeliItai,
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
    /// `oracle_misses` and `oracle_probed_nodes` (what a miss newly
    /// read: cone nodes touched for Israeli–Itai, rows read for
    /// Generic); histogram `oracle_probed_per_query`; gauge
    /// `oracle_memo_size` (answers held). Israeli–Itai adds the
    /// histogram `oracle_cone_steps` (node-rounds a miss evaluated);
    /// Generic adds the histogram `oracle_generic_paths` (paths a miss
    /// ranked).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The global answer for `v`: held, or evaluated now.
    fn resolve(&mut self, v: NodeId) -> Option<NodeId> {
        assert!((v as usize) < self.g.n(), "vertex out of range");
        let held = match &self.engine {
            Engine::IsraeliItai(cone) => cone.mate(v),
            Engine::Generic(greedy) => greedy.mate(v),
        };
        if let Some(mate) = held {
            self.metrics.inc("oracle_memo_hits", 1);
            return mate;
        }
        self.metrics.inc("oracle_misses", 1);
        let m = &mut self.metrics;
        match &mut self.engine {
            Engine::IsraeliItai(cone) => {
                let (touched, steps) = (cone.nodes.len(), cone.steps);
                cone.settle(v);
                let touched = (cone.nodes.len() - touched) as u64;
                m.inc("oracle_probed_nodes", touched);
                m.record("oracle_probed_per_query", touched);
                m.record("oracle_cone_steps", cone.steps - steps);
                m.set_gauge("oracle_memo_size", cone.halted);
                cone.mate(v).expect("a settled node has halted")
            }
            Engine::Generic(greedy) => {
                let (rows, paths) = (greedy.rows, greedy.paths.len());
                greedy.settle(v);
                let rows = greedy.rows - rows;
                m.inc("oracle_probed_nodes", rows);
                m.record("oracle_probed_per_query", rows);
                m.record("oracle_generic_paths", (greedy.paths.len() - paths) as u64);
                m.set_gauge("oracle_memo_size", greedy.known);
                greedy.mate(v).expect("a settled vertex has a mate")
            }
        }
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

/// [`Layer::mate`] while unknown.
const UNKNOWN: u32 = u32::MAX;
/// [`Layer::mate`] of a free vertex, and [`Hop::mate`] of a free
/// neighbour.
const FREE: u32 = u32::MAX - 1;
/// The start of a [`Layer`]'s span that is not built yet.
const UNBUILT: u32 = u32::MAX;

/// The global Generic run, evaluated vertex by vertex and path by path
/// only as far as queries demand (see the module docs). Vertices are
/// addressed by slot, in the order they were touched.
struct Greedy<'g> {
    g: &'g Graph,
    seed: u64,
    /// Phases; phase `j` has `ℓ = 2j + 1`.
    k: usize,
    /// Global id → slot. Probed, never iterated.
    index: IdMap<u32>,
    /// Slot → global id.
    ids: Vec<NodeId>,
    /// Slot → whether its row has been read in some phase.
    read: Vec<bool>,
    /// Slot `s` in phase `j` is `layers[s · k + j]`.
    layers: Vec<Layer>,
    /// The rows read, each a contiguous run.
    hops: Vec<Hop>,
    /// The path lists, each a contiguous run in rank order.
    lists: Vec<Listed>,
    /// Every path ranked so far; its vertices' global ids and slots are
    /// `verts[at..at + len]` and `vslots[at..at + len]`.
    paths: Vec<PathRec>,
    verts: Vec<NodeId>,
    vslots: Vec<u32>,
    /// Rows read so far, one per vertex.
    rows: u64,
    /// Vertices whose mate after the last phase is known: the answers
    /// held.
    known: u64,
    /// Scratch: pending tasks; rows a listing found unread; the walk
    /// being extended; the walks found, as spans of `found`; the path
    /// being ranked, in slots and in global ids.
    tasks: Vec<Task>,
    missing: Vec<u32>,
    frames: Vec<Frame>,
    found: Vec<u32>,
    walks: Vec<(usize, usize)>,
    seq: Vec<u32>,
    gseq: Vec<NodeId>,
}

/// What one vertex knows in one phase.
#[derive(Debug, Clone, Copy)]
struct Layer {
    /// Its mate after this phase: a slot, [`FREE`] or [`UNKNOWN`].
    mate: u32,
    /// Its row in `hops`, and its path list in `lists`.
    hops: (u32, u32),
    list: (u32, u32),
    /// Index into `lists`: every path of its list before it lost.
    cursor: u32,
}

impl Layer {
    const NEW: Layer = Layer {
        mate: UNKNOWN,
        hops: (UNBUILT, 0),
        list: (UNBUILT, 0),
        cursor: 0,
    };
}

/// A path in a list, with its rank at hand for the list's searches.
#[derive(Debug, Clone, Copy)]
struct Listed {
    rank: u64,
    path: u32,
}

/// One neighbour in a row: its slot, and its mate before the phase (a
/// slot or [`FREE`]). The matched neighbour is left out.
#[derive(Debug, Clone, Copy)]
struct Hop {
    to: u32,
    mate: u32,
}

/// An augmenting path of one phase, oriented as
/// `enumerate_augmenting_paths` reports it (smaller end first).
#[derive(Debug, Clone, Copy)]
struct PathRec {
    rank: u64,
    key: u64,
    at: u32,
    len: u32,
    phase: u32,
    status: Status,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Open,
    Chosen,
    Lost,
}

/// A step of the recursion, on the explicit stack. A task that needs
/// something first pushes itself back, then what it needs.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// Find the slot's mate after the phase.
    Mate { slot: u32, phase: u32 },
    /// List the slot's paths in the phase.
    List { slot: u32, phase: u32 },
    /// Read the slot's row for the phase; the neighbours before `ready`
    /// know their mates before the phase.
    Row { slot: u32, phase: u32, ready: u32 },
    /// Decide the path; its vertices before `at` have no better-ranked
    /// chosen path.
    Decide { path: u32, at: u32 },
}

impl Task {
    fn mate(slot: u32, phase: usize) -> Self {
        Task::Mate {
            slot,
            phase: phase as u32,
        }
    }

    fn list(slot: u32, phase: usize) -> Self {
        Task::List {
            slot,
            phase: phase as u32,
        }
    }

    fn row(slot: u32, phase: usize, ready: usize) -> Self {
        Task::Row {
            slot,
            phase: phase as u32,
            ready: ready as u32,
        }
    }

    fn decide(path: u32, at: usize) -> Self {
        Task::Decide {
            path,
            at: at as u32,
        }
    }
}

/// A vertex of a walk at an even distance from its start, entered from
/// `via` (the start enters from itself), with the rest of its row in
/// `hops[next..end]`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    via: u32,
    at: u32,
    next: u32,
    end: u32,
}

impl<'g> Greedy<'g> {
    /// Nothing touched yet; allocates nothing.
    fn new(g: &'g Graph, seed: u64, k: usize) -> Self {
        Greedy {
            g,
            seed,
            k,
            index: IdMap::default(),
            ids: Vec::new(),
            read: Vec::new(),
            layers: Vec::new(),
            hops: Vec::new(),
            lists: Vec::new(),
            paths: Vec::new(),
            verts: Vec::new(),
            vslots: Vec::new(),
            rows: 0,
            known: 0,
            tasks: Vec::new(),
            missing: Vec::new(),
            frames: Vec::new(),
            found: Vec::new(),
            walks: Vec::new(),
            seq: Vec::new(),
            gseq: Vec::new(),
        }
    }

    fn at(&self, s: u32, phase: usize) -> usize {
        s as usize * self.k + phase
    }

    /// `s`'s mate before `phase`: every vertex is free before phase 0.
    fn before(&self, s: u32, phase: usize) -> u32 {
        match phase {
            0 => FREE,
            _ => self.layers[self.at(s, phase - 1)].mate,
        }
    }

    /// `v`'s global mate, if known.
    fn mate(&self, v: NodeId) -> Option<Option<NodeId>> {
        let s = *self.index.get(&v)?;
        match self.layers[self.at(s, self.k - 1)].mate {
            UNKNOWN => None,
            FREE => Some(None),
            m => Some(Some(self.ids[m as usize])),
        }
    }

    /// `v`'s slot, touching it first if needed.
    fn touch(&mut self, v: NodeId) -> u32 {
        match self.index.entry(v) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let s = self.ids.len() as u32;
                e.insert(s);
                self.ids.push(v);
                self.read.push(false);
                self.layers.resize(self.layers.len() + self.k, Layer::NEW);
                s
            }
        }
    }

    /// Find `v`'s mate after the last phase, and first whatever it
    /// depends on.
    fn settle(&mut self, v: NodeId) {
        let root = self.touch(v);
        let mut tasks = std::mem::take(&mut self.tasks);
        tasks.push(Task::mate(root, self.k - 1));
        while let Some(task) = tasks.pop() {
            match task {
                Task::Mate { slot, phase } => self.find_mate(slot, phase as usize, &mut tasks),
                Task::List { slot, phase } => self.list(slot, phase as usize, &mut tasks),
                Task::Row { slot, phase, ready } => {
                    self.read_row(slot, phase as usize, ready as usize, &mut tasks)
                }
                Task::Decide { path, at } => self.decide(path, at as usize, &mut tasks),
            }
        }
        self.tasks = tasks;
    }

    /// Rule 1: `s`'s mate after `phase` is its partner on the first
    /// chosen path of its list, or else its mate before.
    fn find_mate(&mut self, s: u32, phase: usize, tasks: &mut Vec<Task>) {
        let at = self.at(s, phase);
        let layer = self.layers[at];
        if layer.mate != UNKNOWN {
            return;
        }
        if layer.list.0 == UNBUILT {
            tasks.extend([Task::mate(s, phase), Task::list(s, phase)]);
            return;
        }
        let mut cursor = layer.cursor;
        while cursor < layer.list.1 {
            let p = self.lists[cursor as usize].path;
            match self.paths[p as usize].status {
                Status::Lost => cursor += 1,
                Status::Open => {
                    self.layers[at].cursor = cursor;
                    tasks.extend([Task::mate(s, phase), Task::decide(p, 0)]);
                    return;
                }
                Status::Chosen => unreachable!("choosing a path sets its vertices' mates"),
            }
        }
        self.layers[at].cursor = cursor;
        let mate = self.before(s, phase);
        self.set_mate(s, phase, mate);
    }

    /// Rule 3: `p` is chosen iff none of its vertices has a chosen path
    /// of better rank.
    fn decide(&mut self, p: u32, from: usize, tasks: &mut Vec<Task>) {
        let path = self.paths[p as usize];
        if path.status != Status::Open {
            return;
        }
        let phase = path.phase as usize;
        for i in from..path.len as usize {
            let x = self.vslots[path.at as usize + i];
            let at = self.at(x, phase);
            if self.layers[at].list.0 == UNBUILT {
                tasks.extend([Task::decide(p, i), Task::list(x, phase)]);
                return;
            }
            // An open path has lost at none of its vertices, so each
            // cursor is at most its place in the list.
            loop {
                let cursor = self.layers[at].cursor;
                let q = self.lists[cursor as usize].path;
                if q == p {
                    break;
                }
                match self.paths[q as usize].status {
                    Status::Lost => self.layers[at].cursor += 1,
                    Status::Chosen => {
                        self.paths[p as usize].status = Status::Lost;
                        return;
                    }
                    Status::Open => {
                        tasks.extend([Task::decide(p, i), Task::decide(q, 0)]);
                        return;
                    }
                }
            }
        }
        self.paths[p as usize].status = Status::Chosen;
        let at = path.at as usize;
        for i in (0..path.len as usize).step_by(2) {
            self.set_mate(self.vslots[at + i], phase, self.vslots[at + i + 1]);
        }
    }

    /// Record `s`'s mate after `phase`, and its mate's.
    fn set_mate(&mut self, s: u32, phase: usize, mate: u32) {
        self.assign(s, phase, mate);
        if mate != FREE {
            self.assign(mate, phase, s);
        }
    }

    fn assign(&mut self, s: u32, phase: usize, mate: u32) {
        let at = self.at(s, phase);
        let held = &mut self.layers[at].mate;
        debug_assert!(*held == UNKNOWN || *held == mate, "a mate is derived once");
        if *held == UNKNOWN && phase + 1 == self.k {
            self.known += 1;
        }
        *held = mate;
    }

    /// Rule 2: list `s`'s phase paths in rank order. A free vertex ends
    /// its paths; a matched one lies inside them, between a walk from
    /// it and a walk from its mate.
    fn list(&mut self, s: u32, phase: usize, tasks: &mut Vec<Task>) {
        let at = self.at(s, phase);
        if self.layers[at].list.0 != UNBUILT {
            return;
        }
        let mate = self.before(s, phase);
        if mate == UNKNOWN {
            tasks.extend([Task::list(s, phase), Task::mate(s, phase - 1)]);
            return;
        }
        let ell = 2 * phase + 1;
        self.missing.clear();
        self.found.clear();
        self.walks.clear();
        let split = if mate == FREE {
            self.find_walks(s, FREE, ell, phase);
            None
        } else {
            self.find_walks(s, mate, ell - 2, phase);
            let split = self.walks.len();
            self.find_walks(mate, s, ell - 2, phase);
            Some(split)
        };
        if !self.missing.is_empty() {
            tasks.push(Task::list(s, phase));
            for &y in &self.missing {
                tasks.push(Task::row(y, phase, 0));
            }
            return;
        }
        let start = self.lists.len();
        match split {
            None => {
                for w in 0..self.walks.len() {
                    let (a, b) = self.walks[w];
                    self.seq.clear();
                    self.seq.extend_from_slice(&self.found[a..b]);
                    self.add_path(s, phase);
                }
            }
            Some(split) => {
                for wa in 0..split {
                    for wb in split..self.walks.len() {
                        let (a0, a1) = self.walks[wa];
                        let (b0, b1) = self.walks[wb];
                        let (side_a, side_b) = (&self.found[a0 + 1..a1], &self.found[b0 + 1..b1]);
                        if side_a.len() + side_b.len() + 1 > ell
                            || side_a.iter().any(|x| side_b.contains(x))
                        {
                            continue;
                        }
                        self.seq.clear();
                        self.seq.extend(self.found[a0..a1].iter().rev());
                        self.seq.extend_from_slice(&self.found[b0..b1]);
                        self.add_path(s, phase);
                    }
                }
            }
        }
        let Greedy {
            lists,
            paths,
            verts,
            layers,
            ..
        } = self;
        // Ranks decide but for ties, which the full tuple breaks.
        lists[start..].sort_unstable_by(|a, b| {
            a.rank
                .cmp(&b.rank)
                .then_with(|| rank_of(paths, verts, a.path).cmp(&rank_of(paths, verts, b.path)))
        });
        // Every path through a matched vertex runs through its matched
        // edge, so its mate lists the same paths.
        let list = (start as u32, lists.len() as u32);
        for x in [s, mate] {
            if x != FREE {
                let layer = &mut layers[x as usize * self.k + phase];
                layer.list = list;
                layer.cursor = list.0;
            }
        }
    }

    /// Append to `walks` every simple walk of at most `budget` edges
    /// that starts at `root` on an unmatched edge, alternates, ends at a
    /// free vertex and avoids `exclude`. A vertex the walk would leave
    /// from whose row is unread goes to `missing` instead.
    fn find_walks(&mut self, root: u32, exclude: u32, budget: usize, phase: usize) {
        let (next, end) = self.layers[self.at(root, phase)].hops;
        if next == UNBUILT {
            self.missing.push(root);
            return;
        }
        let frames = &mut self.frames;
        frames.clear();
        frames.push(Frame {
            via: root,
            at: root,
            next,
            end,
        });
        let on_walk = |frames: &[Frame], x: u32| {
            x == exclude || frames.iter().any(|f| f.via == x || f.at == x)
        };
        while let Some(top) = frames.last_mut() {
            if top.next == top.end {
                frames.pop();
                continue;
            }
            let hop = self.hops[top.next as usize];
            top.next += 1;
            if on_walk(frames, hop.to) {
                continue;
            }
            if hop.mate == FREE {
                let start = self.found.len();
                self.found.push(root);
                for f in &frames[1..] {
                    self.found.extend([f.via, f.at]);
                }
                self.found.push(hop.to);
                self.walks.push((start, self.found.len()));
                continue;
            }
            // Leaving `hop.mate` takes one more edge at least.
            if 2 * frames.len() + 1 > budget || on_walk(frames, hop.mate) {
                continue;
            }
            let (next, end) = self.layers[hop.mate as usize * self.k + phase].hops;
            if next == UNBUILT {
                self.missing.push(hop.mate);
                continue;
            }
            frames.push(Frame {
                via: hop.to,
                at: hop.mate,
                next,
                end,
            });
        }
    }

    /// Rank the path in `seq`, which `s`'s listing found, and append its
    /// id to the list being built. A path another vertex has listed
    /// already is looked up there.
    fn add_path(&mut self, s: u32, phase: usize) {
        let Greedy { ids, seq, gseq, .. } = self;
        gseq.clear();
        gseq.extend(seq.iter().map(|&x| ids[x as usize]));
        if gseq.last() < gseq.first() {
            gseq.reverse();
            seq.reverse();
        }
        let key = generic::path_key(gseq);
        let (rank, key, _) = generic::rank_key(self.seed, 2 * phase + 1, key, gseq);
        for &y in &self.seq {
            let (a, b) = self.layers[self.at(y, phase)].list;
            if y == s || a == UNBUILT {
                continue;
            }
            let listed = &self.lists[a as usize..b as usize];
            let i = listed
                .binary_search_by(|e| {
                    e.rank.cmp(&rank).then_with(|| {
                        rank_of(&self.paths, &self.verts, e.path).cmp(&(rank, key, &self.gseq[..]))
                    })
                })
                .expect("a vertex lists every path through it");
            self.lists.push(listed[i]);
            return;
        }
        self.lists.push(Listed {
            rank,
            path: self.paths.len() as u32,
        });
        self.paths.push(PathRec {
            rank,
            key,
            at: self.verts.len() as u32,
            len: self.seq.len() as u32,
            phase: phase as u32,
            status: Status::Open,
        });
        self.verts.extend_from_slice(&self.gseq);
        self.vslots.extend_from_slice(&self.seq);
    }

    /// Read `s`'s row for `phase`: once every neighbour from `ready` on
    /// knows its mate before the phase.
    fn read_row(&mut self, s: u32, phase: usize, ready: usize, tasks: &mut Vec<Task>) {
        let at = self.at(s, phase);
        if self.layers[at].hops.0 != UNBUILT {
            return;
        }
        let own = self.before(s, phase);
        if own == UNKNOWN {
            tasks.extend([Task::row(s, phase, ready), Task::mate(s, phase - 1)]);
            return;
        }
        let g = self.g;
        let row = g.incident(self.ids[s as usize]);
        if phase > 0 {
            for (r, &(u, _)) in row.iter().enumerate().skip(ready) {
                let u = self.touch(u);
                if self.before(u, phase) == UNKNOWN {
                    tasks.extend([Task::row(s, phase, r), Task::mate(u, phase - 1)]);
                    return;
                }
            }
        }
        let start = self.hops.len() as u32;
        for &(u, _) in row {
            let to = self.touch(u);
            if to != own {
                let mate = self.before(to, phase);
                self.hops.push(Hop { to, mate });
            }
        }
        self.layers[at].hops = (start, self.hops.len() as u32);
        if !self.read[s as usize] {
            self.read[s as usize] = true;
            self.rows += 1;
        }
    }
}

/// Where path `p` stands in its phase's rank order: the tuple of
/// `generic::rank_key`.
fn rank_of<'a>(paths: &[PathRec], verts: &'a [NodeId], p: u32) -> (u64, u64, &'a [NodeId]) {
    let path = &paths[p as usize];
    let at = path.at as usize;
    (path.rank, path.key, &verts[at..at + path.len as usize])
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

    /// An Israeli–Itai oracle's cone.
    fn cone<'a>(o: &'a MatchingOracle<'_>) -> &'a Cone<'a> {
        match &o.engine {
            Engine::IsraeliItai(cone) => cone,
            Engine::Generic(_) => panic!("not an Israeli–Itai oracle"),
        }
    }

    /// What an oracle's cone holds for the queried vertex `v`: its mate
    /// and halt round.
    fn held(o: &MatchingOracle<'_>, v: NodeId) -> (Option<NodeId>, u64) {
        let cone = cone(o);
        let node = &cone.nodes[cone.index[&v] as usize];
        let halt = node.node.halt_round.expect("a queried vertex has halted");
        (cone.mate(v).expect("halted"), halt)
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
                        let cone = cone(&shared);
                        for node in &cone.nodes {
                            let (mate, halt) = want[node.id as usize];
                            match node.node.halt_round {
                                Some(h) => {
                                    assert_eq!(h, halt);
                                    assert_eq!(cone.mate(node.id), Some(mate));
                                }
                                None => assert!(node.done <= halt),
                            }
                        }
                    }
                }
            }
        }
    }

    /// The global Generic(k) run's mates after each phase.
    fn phase_mates(g: &Graph, k: usize, seed: u64) -> Vec<Vec<Option<NodeId>>> {
        let mut s = Session::on(g)
            .algorithm(Algorithm::Generic { k })
            .seed(seed)
            .build();
        (0..k)
            .map(|_| {
                s.step();
                (0..g.n() as NodeId).map(|v| s.matching().mate(v)).collect()
            })
            .collect()
    }

    /// Every mate a Generic oracle holds, in every phase, is the global
    /// run's.
    fn assert_holds_the_global_run(
        o: &MatchingOracle<'_>,
        want: &[Vec<Option<NodeId>>],
        tag: &str,
    ) {
        let Engine::Generic(greedy) = &o.engine else {
            panic!("not a Generic oracle")
        };
        for (s, &v) in greedy.ids.iter().enumerate() {
            for (phase, mates) in want.iter().enumerate() {
                let held = match greedy.layers[greedy.at(s as u32, phase)].mate {
                    UNKNOWN => continue,
                    FREE => None,
                    m => Some(greedy.ids[m as usize]),
                };
                assert_eq!(held, mates[v as usize], "{tag} vertex {v} phase {phase}");
            }
        }
    }

    /// The Generic twin of `cone_equals_the_full_run`: on five zoo
    /// families (n = 300) × 3 seeds × k ∈ {1, 2, 3}, every vertex's
    /// answer equals the session's, on a fresh oracle per vertex and on
    /// one oracle queried in ascending and in shuffled order; and every
    /// mate the shared oracle holds, in every phase, is the session's
    /// after that phase.
    #[test]
    fn greedy_equals_the_session() {
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
                for k in 1..=3 {
                    let alg = Algorithm::Generic { k };
                    let want = phase_mates(g, k, seed);
                    let last = &want[k - 1];
                    for v in 0..n as NodeId {
                        let mut fresh = MatchingOracle::on(g).seed(seed).algorithm(alg).build();
                        assert_eq!(
                            fresh.query_node(v),
                            last[v as usize],
                            "family {i} seed {seed} k {k} fresh vertex {v}"
                        );
                    }
                    let ascending: Vec<NodeId> = (0..n as NodeId).collect();
                    let mut shuffled = ascending.clone();
                    let mut rng = SplitMix64::for_node(0x9E4, 9 * i as u64 + 3 * seed + k as u64);
                    for j in (1..n).rev() {
                        shuffled.swap(j, rng.below(j as u64 + 1) as usize);
                    }
                    for order in [ascending, shuffled] {
                        let mut shared = MatchingOracle::on(g).seed(seed).algorithm(alg).build();
                        for &v in &order {
                            assert_eq!(
                                shared.query_node(v),
                                last[v as usize],
                                "family {i} seed {seed} k {k} vertex {v}"
                            );
                        }
                        let tag = format!("family {i} seed {seed} k {k}");
                        assert_holds_the_global_run(&shared, &want, &tag);
                    }
                }
            }
        }
    }

    /// Fresh Generic queries for k = 2 and 3 on gnp(4096, d̄ = 8) on a
    /// thread with a 2 MiB stack: the evaluation keeps its own stack. At
    /// k = 3 a fresh query there reads most of the graph's rows.
    #[test]
    fn generic_recursion_runs_on_a_small_stack() {
        let g = gnp(4096, 8.0 / 4096.0, 6);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for k in [2, 3] {
                    for v in [0, 2048] {
                        let mut o = MatchingOracle::on(&g)
                            .seed(1)
                            .algorithm(Algorithm::Generic { k })
                            .build();
                        o.query_node(v);
                        let rows = o.metrics().counter("oracle_probed_nodes") as usize;
                        assert!(rows > 0);
                        if k == 3 {
                            assert!(2 * rows > g.n(), "vertex {v} read {rows} rows");
                        }
                    }
                }
            })
            .expect("spawn")
            .join()
            .expect("a fresh query runs on a 2 MiB stack");
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
