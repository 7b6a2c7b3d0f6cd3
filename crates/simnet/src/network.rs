//! The synchronous round loop.
//!
//! A [`Network`] owns one [`Protocol`] state per node plus the
//! [`Topology`]. Each call to [`Network::step`] executes one synchronous
//! round: every live node receives the messages addressed to it in the
//! previous round, runs its local computation, and emits messages for
//! the next round. All accounting (rounds, messages, bits) happens here.
//!
//! Messages travel through the double-buffered, port-indexed plane of
//! [`crate::mailbox`]: `Ctx::send` writes straight into a preallocated
//! slot slab, and receivers read the same slots in place next round
//! through an [`Inbox`] view. Delivery performs no allocation and no
//! sorting — inbox order is positional (ascending arrival port), which
//! is what the old sort-based delivery produced, so protocol semantics
//! are unchanged.

use crate::adversary::{Adversary, CongestMode, CrashKind, FaultPlan};
use crate::mailbox::{Inbox, Slab, DEAD_STAMP};
use crate::message::BitSize;
use crate::rng::SplitMix64;
use crate::stats::{timing, NetStats};
use crate::topology::{NodeId, Port, Topology, TopologyPatch, SLOT_GONE};
use std::time::Instant;

/// A distributed algorithm, from the point of view of a single node.
///
/// The same `Protocol` value is stepped once per round. State lives in
/// the implementing struct; randomness comes from the per-node stream in
/// [`Ctx::rng`]; communication goes through [`Ctx::send`].
pub trait Protocol: Send {
    /// The message type this protocol puts on wires.
    type Msg: Send + Sync + BitSize;

    /// Execute one synchronous round.
    ///
    /// `inbox` holds the messages sent to this node in the previous
    /// round, indexed by the local port they arrived on (iteration is in
    /// ascending port order, hence ascending sender id, since neighbor
    /// lists are sorted). Round 0 has an empty inbox.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: Inbox<'_, Self::Msg>);
}

/// Per-node view of an epoch boundary, handed to [`Rewire::on_rewire`]
/// while [`Network::rewire`] installs a new topology.
pub struct RewireCtx<'a> {
    node: NodeId,
    topo: &'a Topology,
    /// Old port → new port, or `None` when the batch did not touch this
    /// node: its ports map to themselves.
    port_map: Option<&'a [Option<Port>]>,
    born: &'a [Port],
    round: u64,
}

impl RewireCtx<'_> {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The round the rewired network will execute next — the first
    /// round of the new epoch. Protocols that pace themselves by an
    /// epoch-local clock should record this and derive their phase as
    /// `ctx.round() - epoch_start`: unlike a per-step counter, the
    /// derivation stays correct for nodes that [`crate::Ctx::sleep`]
    /// through rounds.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// True when the batch did not touch this node: same degree, every
    /// port maps to itself, no born ports. Port-indexed state can stay
    /// as it is.
    #[inline]
    pub fn ports_unchanged(&self) -> bool {
        self.port_map.is_none()
    }

    /// The node's degree after the rewire.
    #[inline]
    pub fn new_degree(&self) -> usize {
        self.topo.degree(self.node)
    }

    /// Where old port `p` lives now, or `None` when its edge vanished.
    #[inline]
    pub fn new_port(&self, p: Port) -> Option<Port> {
        match self.port_map {
            Some(map) => map[p],
            None => {
                assert!(p < self.new_degree(), "rewire lookup of invalid port {p}");
                Some(p)
            }
        }
    }

    /// Ports of the new topology whose edge was just inserted,
    /// ascending. Per-port protocol state has no old value to migrate
    /// for these.
    #[inline]
    pub fn born_ports(&self) -> &[Port] {
        self.born
    }

    /// The new topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        self.topo
    }
}

/// Protocol state that can survive an epoch boundary of a dynamic
/// network: remap port-indexed state through [`RewireCtx::new_port`],
/// initialize born ports, and invalidate anything (e.g. a matched
/// edge) whose port vanished.
pub trait Rewire {
    /// Migrate this node's state across a topology change. Called once
    /// per node by [`Network::rewire`], before any further round.
    fn on_rewire(&mut self, ctx: &RewireCtx<'_>);
}

/// Per-round, per-node execution context handed to [`Protocol::on_round`].
pub struct Ctx<'a, M> {
    id: NodeId,
    round: u64,
    topo: &'a Topology,
    rng: &'a mut SplitMix64,
    /// This node's port range of the outgoing slab (stamps).
    out_stamp: &'a mut [u64],
    /// This node's port range of the outgoing slab (payload slots).
    out_msg: &'a mut [Option<M>],
    /// Generation the outgoing slab is accepting this round.
    out_gen: u64,
    /// Set on the first send; the executor appends the node to the
    /// round's sender list so delivery touches only senders.
    sent_any: &'a mut bool,
    halted: &'a mut bool,
    /// Set by [`Ctx::sleep`]; cleared by the executor at every step, so
    /// sleeping must be re-asserted each time the node runs.
    dozing: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Internal constructor used by the round executor's node kernel.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        round: u64,
        topo: &'a Topology,
        rng: &'a mut SplitMix64,
        out_stamp: &'a mut [u64],
        out_msg: &'a mut [Option<M>],
        out_gen: u64,
        sent_any: &'a mut bool,
        halted: &'a mut bool,
        dozing: &'a mut bool,
    ) -> Self {
        Ctx {
            id,
            round,
            topo,
            rng,
            out_stamp,
            out_msg,
            out_gen,
            sent_any,
            halted,
            dozing,
        }
    }

    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.out_msg.len()
    }

    /// Sorted neighbor ids.
    #[inline]
    pub fn neighbors(&self) -> &[NodeId] {
        self.topo.neighbors(self.id)
    }

    /// Neighbor on `port`.
    #[inline]
    pub fn neighbor(&self, port: Port) -> NodeId {
        self.topo.neighbor(self.id, port)
    }

    /// Port leading to neighbor `u`, if adjacent.
    #[inline]
    pub fn port_to(&self, u: NodeId) -> Option<Port> {
        self.topo.port_to(self.id, u)
    }

    /// This node's deterministic RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// Send `msg` to the neighbor on `port`; delivered next round.
    ///
    /// The message plane holds exactly one slot per directed edge, so a
    /// node may send **at most one message per port per round** (the
    /// synchronous CONGEST contract). Sending twice on the same port in
    /// one round panics.
    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(port < self.out_msg.len(), "send on invalid port");
        assert!(
            self.out_stamp[port] != self.out_gen,
            "duplicate send on port {port}: one message per port per round"
        );
        self.out_stamp[port] = self.out_gen;
        self.out_msg[port] = Some(msg);
        *self.sent_any = true;
    }

    /// Send a copy of `msg` to every neighbor.
    pub fn send_all(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in 0..self.degree() {
            self.send(port, msg.clone());
        }
    }

    /// Stop participating: this node will not be stepped again and
    /// messages sent to it are dropped. Messages it sent *this* round
    /// are still delivered.
    #[inline]
    pub fn halt(&mut self) {
        *self.halted = true;
    }

    /// Park until something happens: this node is not stepped again
    /// until a message is delivered to it or it is woken externally
    /// ([`Network::wake`] / a rewire's dirty set). Unlike
    /// [`Ctx::halt`], mail addressed to a sleeping node is *kept* —
    /// its arrival is exactly what wakes the node.
    ///
    /// Sleep lasts until the next step: a woken node that still has
    /// nothing to do must call `sleep` again. Both frontier
    /// representations honour the same contract (the dense sweep skips
    /// sleeping nodes without mail), and while the round runs from the
    /// sparse wake list a sleeping node costs it *nothing*.
    ///
    /// Messages sent this round are still delivered, and a node may
    /// both send and sleep (the replies will wake it).
    #[inline]
    pub fn sleep(&mut self) {
        *self.dozing = true;
    }
}

/// The judge's upswitch: a round whose (upper-bound) scheduled count
/// is at least `n / HYBRID_DENSE_DIV` runs as a dense sweep. At that
/// activity the wake list's sort + per-node push + per-delivery stamp
/// dedup cost more than scanning the `n - active` idle flag slots.
pub(crate) const HYBRID_DENSE_DIV: usize = 8;

/// The judge's downswitch: a dense round whose *previous* round
/// stepped fewer than `n / HYBRID_SPARSE_DIV` nodes converts back to
/// the sparse representation (one O(n) wake-list rebuild). The gap to
/// [`HYBRID_DENSE_DIV`] is hysteresis so activity hovering near the
/// threshold does not thrash conversions.
pub(crate) const HYBRID_SPARSE_DIV: usize = 16;

/// Execution knobs shared by every layer that builds a [`Network`]:
/// worker-thread count, fault injection, and phase timing. How a round
/// finds its active nodes is not a knob: the network's judge decides
/// it every round (see [`Network`]). Algorithms that compose several
/// network phases thread one `ExecCfg` through all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecCfg {
    /// Worker threads for node stepping (1 = sequential). This is a
    /// *ceiling*, not a demand: a round uses at most one worker per
    /// core, and one worker per fixed floor of expected node steps
    /// (see [`crate::parallel`]), so small rounds run on the caller's
    /// thread alone. Results are bit-identical regardless of the value.
    pub threads: usize,
    /// The adversary plan (drop, burst, delay, stall, crash, CONGEST
    /// budget) — the one fault-injection knob. [`FaultPlan::NONE`] by
    /// default.
    pub faults: FaultPlan,
    /// Collect the per-phase wall-clock breakdown into the
    /// [`NetStats::timings`] histogram registry (see
    /// [`crate::stats::timing`] for the names). Off by default: the
    /// samples cost a few clock reads per round, and the registry is
    /// the one `NetStats` field outside the bit-identity contract, so
    /// identity suites leave this off.
    pub timing: bool,
    /// Test/bench escape hatch: bypass the fan-out floor and use one
    /// worker per requested thread regardless of machine or workload,
    /// so the chunk cuts and the merge run for real on any host. Never
    /// set this in production configs — on small workloads it
    /// re-creates the thread-spawn pathology the floor exists to
    /// prevent.
    pub force_parallel: bool,
}

impl Default for ExecCfg {
    fn default() -> Self {
        ExecCfg::sequential()
    }
}

impl ExecCfg {
    /// Sequential, reliable execution (the paper's model).
    pub const fn sequential() -> Self {
        ExecCfg {
            threads: 1,
            faults: FaultPlan::NONE,
            timing: false,
            force_parallel: false,
        }
    }

    /// Parallel stepping with up to `threads` workers, reliable
    /// delivery.
    pub const fn parallel(threads: usize) -> Self {
        ExecCfg {
            threads,
            ..ExecCfg::sequential()
        }
    }

    /// The same configuration, unchanged. This once selected the
    /// judge-switched scheduler, which is now the only one. It stays
    /// only because `perfbench/src/sessions.rs` calls it, and the
    /// benchmark crate changes only together with `BENCHMARK.json`; no
    /// workspace code may call it. The next change to the benchmark
    /// drops that call, and then this method.
    pub const fn hybrid(self) -> Self {
        self
    }

    /// The same configuration with per-phase timing gauges enabled.
    pub const fn timed(mut self) -> Self {
        self.timing = true;
        self
    }

    /// The same configuration with the fan-out floor bypassed (testing
    /// only; see [`ExecCfg::force_parallel`]).
    pub const fn forced(mut self) -> Self {
        self.force_parallel = true;
        self
    }

    /// The same configuration under adversary plan `faults`.
    pub const fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Per-worker scratch of the round executor: the sender buffer and the
/// per-chunk counters, recorded contention-free per chunk and merged in
/// chunk (= node) order after the join. A one-chunk round swaps its
/// sender buffer with the network's instead. Reused every round;
/// deliberately not charged to the plane gauge so stats stay
/// bit-identical across thread counts.
///
/// Next-frontier (wake) output does **not** live here: each worker
/// writes wake ids into its own disjoint window of the shared,
/// round-sized `wake_next` buffer — a local queue bounded by the
/// chunk's active count, with no shared-structure contention and no
/// spill (the bound is exact: a chunk wakes at most the nodes it
/// steps). The merge is an in-order compaction of those windows.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Nodes of this chunk that sent at least one message. Capacity is
    /// reserved to the chunk's active count once per round, before the
    /// step loop, so the hot loop never grows it.
    pub(crate) touched: Vec<NodeId>,
    /// Wake entries this worker wrote into its `wake_next` window.
    pub(crate) wake_len: usize,
    /// Size of this worker's `wake_next` window (= chunk active count).
    pub(crate) wake_cap: usize,
    /// Nodes of this chunk that halted this round.
    pub(crate) halts: u64,
    /// Nodes of this chunk actually stepped this round.
    pub(crate) stepped: u64,
    /// Flight-recorder span bounds for this worker's section, in ns
    /// since the recorder epoch the main thread handed over. Written
    /// by the worker of a multi-chunk round only when tracing is
    /// enabled; the main thread turns them into `WorkerSpan` events
    /// after the join (workers never touch the thread-local recorder).
    /// Observation only — never read by the algorithm.
    pub(crate) span_t0_ns: u64,
    pub(crate) span_t1_ns: u64,
}

impl WorkerScratch {
    /// Ready the scratch for a new round: clear, and size the sender
    /// buffer once so the step loop performs no reallocation. The span
    /// bounds are left alone: they are stamped around this call.
    pub(crate) fn prepare(&mut self, chunk_nodes: usize) {
        self.touched.clear();
        self.touched.reserve(chunk_nodes);
        self.wake_len = 0;
        self.wake_cap = 0;
        self.halts = 0;
        self.stepped = 0;
    }
}

/// A synchronous network: topology + per-node protocol state.
///
/// # The round scheduler
///
/// Every round steps exactly the nodes the contract below names. How
/// the round finds them is an internal detail, decided per round by a
/// deterministic judge — the direction-optimizing pattern of parlay's
/// LDD. The network keeps **two frontier representations**:
///
/// * the sparse, epoch-stamped **wake list**, whose round cost is
///   proportional to the number of *active* nodes, not `n` —
///   protocols that halt or [`Ctx::sleep`] drop out of the per-round
///   cost entirely;
/// * the dense **flag sweep** over `0..n`, which skips halted and
///   sleeping nodes and pays no wake-list sort, push, or
///   delivery-stamp dedup.
///
/// A round runs as a dense sweep once the wake list reaches `n / 8`
/// nodes, and goes back to the wake list once the previous round
/// stepped fewer than `n / 16` nodes; in between it keeps the current
/// representation. Sparse→dense conversion is free (the halt/doze/mail
/// flags the sweep reads are always maintained); dense→sparse pays one
/// O(n) wake-list rebuild from the scheduler predicate. The judge reads
/// node counts only, never wall-clock or thread counts, so a run's
/// representation sequence — and with it the per-round
/// [`RoundTrace::sched_overhead`](crate::RoundTrace::sched_overhead)
/// gauge — is a pure function of inputs and seed.
///
/// **Scheduler contract** — a node `v` is stepped in round `r` iff it
/// is not halted and at least one of:
///
/// 1. `r` is the first round after construction or a
///    [`Network::rearm`] (everyone starts awake),
/// 2. `v` was stepped in round `r-1` and called neither [`Ctx::halt`]
///    nor [`Ctx::sleep`] (staying awake is the default),
/// 3. a message was delivered to `v` for round `r` (mail always wakes
///    a sleeping node), or
/// 4. `v` was woken externally since its last step ([`Network::wake`],
///    or the dirty set of a [`Network::rewire`]).
pub struct Network<P: Protocol> {
    pub(crate) topo: Topology,
    pub(crate) nodes: Vec<P>,
    pub(crate) halted: Vec<bool>,
    /// Nodes not yet halted — maintained incrementally so
    /// [`Network::all_halted`] is O(1) instead of an O(n) scan.
    pub(crate) live: usize,
    /// `dozing[v]` = `v` called [`Ctx::sleep`] the last time it was
    /// stepped (cleared on every step; see the scheduler contract).
    pub(crate) dozing: Vec<bool>,
    pub(crate) rngs: Vec<SplitMix64>,
    /// The double-buffered message plane: the slab indexed by the
    /// current round's parity collects this round's sends, the other
    /// one holds last round's (being read through [`Inbox`] views).
    pub(crate) planes: [Slab<P::Msg>; 2],
    /// Nodes that sent at least one message this round, in node order
    /// (delivery walks only these). Reused every round.
    pub(crate) touched: Vec<NodeId>,
    /// Per-worker scratch for the round executor. Reused every round.
    pub(crate) workers: Vec<WorkerScratch>,
    /// Sparse scheduler: nodes scheduled for the round about to
    /// execute, ascending once sorted at the top of `step`. An entry is
    /// valid only while `wake_stamp[v]` equals that round (epoch
    /// stamping — no per-round clearing of the dense bitset).
    pub(crate) wake_cur: Vec<NodeId>,
    /// Sparse scheduler: nodes scheduled for the *next* round
    /// (auto-reschedules in node order, then delivery wake-ups).
    pub(crate) wake_next: Vec<NodeId>,
    /// `wake_stamp[v]` = round `v` is scheduled for (dedupes wake-list
    /// pushes; `u64::MAX` = never).
    pub(crate) wake_stamp: Vec<u64>,
    /// `inbox_count[v]` = messages awaiting `v`, valid when
    /// `inbox_count_round[v]` equals the round about to read them
    /// (generation-stamped, so no per-round clearing).
    pub(crate) inbox_count: Vec<u32>,
    pub(crate) inbox_count_round: Vec<u64>,
    /// Messages delivered by the previous round (readable this round).
    pub(crate) in_flight: u64,
    /// Buffer allocations performed by the message plane, cumulative.
    pub(crate) alloc_events: u64,
    /// `alloc_events` at the end of the previous round (for the
    /// per-round gauge).
    pub(crate) alloc_mark: u64,
    pub(crate) stats: NetStats,
    pub(crate) round: u64,
    /// The last rewire's patch. Its topology is the one that rewire
    /// retired, and the next rewire builds the new topology and slot
    /// map into these buffers.
    pub(crate) patch: TopologyPatch,
    /// Rewire scratch: the old indices of the inbound slab's live slots.
    pub(crate) live_slots: Vec<usize>,
    /// Number of worker threads for node stepping (1 = sequential).
    pub(crate) threads: usize,
    /// Test-only: bypass the fan-out floor so unit tests exercise real
    /// multi-worker rounds on any machine and workload size (see
    /// [`ExecCfg::force_parallel`]).
    pub(crate) force_parallel: bool,
    /// The representation the *next* round will run in: `true` = dense
    /// flag sweep, `false` = sparse wake list. Flipped by the judge.
    /// While dense, the wake list is not maintained (it lapses) and is
    /// rebuilt from the scheduler predicate on conversion back.
    pub(crate) frontier_dense: bool,
    /// Unit tests only: `Some(dense)` holds every round in one
    /// representation instead of asking the judge, so tests can hold
    /// the wake list against the dense sweep, its test oracle. Set by
    /// [`Network::pinned`]; non-test builds have no override.
    #[cfg(test)]
    pub(crate) pin: Option<bool>,
    /// Judge and fan-out input while the frontier is dense: the number
    /// of nodes the previous round stepped (while sparse, the wake-list
    /// length is the exact upcoming count, so this is not consulted).
    pub(crate) est_active: u64,
    /// Largest worker count any round used (1 = every round ran as one
    /// chunk). Bench/CI fingerprint material.
    pub(crate) peak_workers: usize,
    /// Collect the [`crate::stats::timing`] histograms (see
    /// [`ExecCfg::timing`]).
    pub(crate) timing: bool,
    /// The adversary plane every delivery passes through: fault-class
    /// RNG streams (independent of node streams so that enabling
    /// faults does not perturb node randomness), burst link states,
    /// the delayed-payload holding ring, and the pre-sampled crash
    /// schedule. Inert ([`FaultPlan::NONE`]) by default.
    pub(crate) adversary: Adversary<P::Msg>,
}

impl<P: Protocol> Network<P> {
    /// Create a network. `nodes[v]` is the protocol state of node `v`;
    /// its RNG stream is derived from `seed` and `v`.
    ///
    /// All message-plane buffers are allocated here, sized by the
    /// topology (one slot per directed edge, twice for the double
    /// buffer); steady-state stepping performs no further heap
    /// allocation. The initial state is then written by
    /// [`Network::rearm`], the one place that defines it.
    pub fn new(topo: Topology, nodes: Vec<P>, seed: u64) -> Self {
        assert_eq!(topo.len(), nodes.len(), "one protocol state per node");
        let n = topo.len();
        let total = topo.total_ports();
        let mut alloc_events = 0u64;
        let planes = [
            Slab::new(total, &mut alloc_events),
            Slab::new(total, &mut alloc_events),
        ];
        // touched + inbox_count + inbox_count_round + dozing +
        // wake_cur + wake_next + wake_stamp — all preallocated here
        // (wake lists at full capacity: a node appears at most once per
        // round, so they never grow), charged whichever representation
        // the rounds run in.
        alloc_events += 7;
        let mut net = Network {
            topo,
            nodes,
            halted: vec![false; n],
            live: 0,
            dozing: vec![false; n],
            rngs: Vec::with_capacity(n),
            planes,
            touched: Vec::with_capacity(n),
            workers: Vec::new(),
            wake_cur: Vec::with_capacity(n),
            wake_next: Vec::with_capacity(n),
            wake_stamp: vec![0; n],
            inbox_count: vec![0; n],
            inbox_count_round: vec![u64::MAX; n],
            in_flight: 0,
            alloc_events,
            alloc_mark: 0,
            stats: NetStats::default(),
            round: 0,
            patch: TopologyPatch::default(),
            live_slots: Vec::new(),
            threads: 1,
            force_parallel: false,
            frontier_dense: false,
            #[cfg(test)]
            pin: None,
            est_active: 0,
            peak_workers: 1,
            timing: false,
            adversary: Adversary::new(seed),
        };
        net.rearm(seed);
        net
    }

    /// Return the network to the state [`Network::new`] built it in,
    /// under a new `seed`, so one network can serve many runs on the
    /// same topology: every node's RNG stream (from the node's own id)
    /// and the adversary's fault streams, burst states and crash
    /// schedule are derived from `seed` exactly as `new(seed)` plus
    /// [`Network::with_cfg`] derive them; the holding ring is emptied;
    /// every node is awake and unhalted; the round counter, the judge
    /// and the statistics start over.
    ///
    /// Kept: the topology, the node states (the caller re-initialises
    /// them in place through [`Network::nodes_mut`]), the installed
    /// [`ExecCfg`], and every buffer. Fault-free, a re-arm allocates
    /// nothing. Construction allocations are charged to the first
    /// round the network ever runs, so a re-armed run's gauge reads 0.
    pub fn rearm(&mut self, seed: u64) {
        let n = self.topo.len();
        self.halted.fill(false);
        self.live = n;
        self.dozing.fill(false);
        self.rngs.clear();
        self.rngs
            .extend((0..n).map(|v| SplitMix64::for_node(seed, v as u64)));
        // Kill every slot of both slabs: the slab round 0 reads still
        // holds the last run's final sends under its current generation.
        for slab in &mut self.planes {
            slab.advance();
        }
        self.touched.clear();
        // Round 0: everyone starts awake.
        self.wake_cur.clear();
        self.wake_cur.extend(0..n as NodeId);
        self.wake_next.clear();
        self.wake_stamp.fill(0);
        self.inbox_count_round.fill(u64::MAX);
        self.in_flight = 0;
        self.stats = NetStats::default();
        self.round = 0;
        self.frontier_dense = false;
        #[cfg(test)]
        {
            self.frontier_dense = self.pin.unwrap_or(false);
        }
        self.est_active = n as u64;
        self.peak_workers = 1;
        self.adversary.rearm(seed, &self.topo);
    }

    /// Apply the execution knobs of an [`ExecCfg`]: the worker-thread
    /// ceiling, the phase-timing switch, and the adversary plan (drop /
    /// burst / delay / stall / crash / CONGEST budget — see
    /// [`crate::adversary`]). A pre-run builder step: the plan's RNG
    /// streams, burst states, and pre-sampled crash schedule are
    /// (re)derived from the seed of the last [`Network::new`] or
    /// [`Network::rearm`] and the topology, so
    /// installation is idempotent and same seed + same plan ⇒
    /// bit-identical runs at any thread count.
    pub fn with_cfg(mut self, cfg: ExecCfg) -> Self {
        self.threads = cfg.threads.max(1);
        self.force_parallel = cfg.force_parallel;
        self.timing = cfg.timing;
        self.adversary.install(cfg.faults, &self.topo);
        self
    }

    /// Hold every round in one representation (`Some(true)` = dense
    /// sweep, `Some(false)` = sparse wake list) instead of asking the
    /// judge; `None` restores the judge. Call before the first round.
    #[cfg(test)]
    pub(crate) fn pinned(mut self, pin: Option<bool>) -> Self {
        debug_assert_eq!(self.round, 0, "pin the representation before round 0");
        self.pin = pin;
        self.frontier_dense = pin.unwrap_or(false);
        self
    }

    /// Messages dropped by fault injection (Bernoulli + burst drops).
    pub fn dropped(&self) -> u64 {
        self.stats.dropped
    }

    /// The communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Immutable view of all node states.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable view of all node states (for harness-level phase changes).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// Consume the network, returning node states and statistics.
    pub fn into_parts(self) -> (Vec<P>, NetStats) {
        (self.nodes, self.stats)
    }

    /// Take the statistics of the run so far, leaving empty ones (how a
    /// network that is re-armed for its next run hands out each run's).
    pub fn take_stats(&mut self) -> NetStats {
        std::mem::take(&mut self.stats)
    }

    /// Accounting so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// True when every node has halted. O(1): halt bookkeeping is a
    /// maintained counter, not a scan (in both representations).
    pub fn all_halted(&self) -> bool {
        self.live == 0
    }

    /// Nodes not yet halted.
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// True while the upcoming round schedules from the wake list
    /// (sparse representation). Dense rounds — those the judge put above
    /// its threshold — derive scheduling from the halt/doze/mail flags
    /// and let the list lapse.
    #[inline]
    pub(crate) fn uses_wake_list(&self) -> bool {
        !self.frontier_dense
    }

    /// Wake `v` externally: un-halt it if needed, clear its sleep flag,
    /// and schedule it for the next round. The harness-level analogue
    /// of the wake-up a rewire's dirty set performs.
    ///
    /// A node the adversary has crashed refuses the wake-up: it stays
    /// down until its scheduled rejoin (resurrecting it early would
    /// let the harness undo a fault).
    pub fn wake(&mut self, v: NodeId) {
        if self.adversary.is_crashed(v as usize) {
            return;
        }
        if dobs::plane::enabled() {
            dobs::plane::record(dobs::Event::Wake {
                t_ns: dobs::plane::now_ns(),
                round: self.round,
                node: v as u64,
            });
        }
        let vi = v as usize;
        if self.halted[vi] {
            self.halted[vi] = false;
            self.live += 1;
        }
        self.dozing[vi] = false;
        // The wake list is live only in the sparse representation; a
        // dense round derives scheduling from the flags above, and
        // pushing here would grow a list the dense sweep never drains
        // (a dense→sparse conversion rebuilds it instead).
        if self.uses_wake_list() && self.wake_stamp[vi] != self.round {
            self.wake_stamp[vi] = self.round;
            self.wake_cur.push(v);
        }
    }

    /// Messages delivered last round and readable this round.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Plane-allocation gauge delta since the previous round (recorded
    /// into the round trace; 0 in steady state).
    pub(crate) fn take_alloc_delta(&mut self) -> u64 {
        let delta = self.alloc_events - self.alloc_mark;
        self.alloc_mark = self.alloc_events;
        delta
    }

    /// Largest worker count any round used so far (1 = every round ran
    /// as one chunk on the caller's thread — e.g. on a 1-core machine,
    /// or when no round expected two workers' worth of node steps).
    /// Benches record this next to the *requested* thread count so a
    /// `par_speedup ≈ 1.0` row is interpretable at a glance.
    pub fn peak_workers(&self) -> usize {
        self.peak_workers
    }

    /// The judge: pick the representation for the round about to
    /// execute and perform any conversion. Deterministic — inputs are
    /// node counts only, never wall-clock — so a run's representation
    /// sequence is reproducible.
    ///
    /// Upswitch (sparse→dense) triggers on the wake-list length (an
    /// exact upper bound on the upcoming scheduled count, stale entries
    /// included) and is free: the flags the dense sweep reads are
    /// always maintained, the list simply lapses. Downswitch
    /// (dense→sparse) triggers on the previous round's stepped count
    /// and pays one O(n) wake-list rebuild from the scheduler
    /// predicate — charged to the `conversion_ns` timing histogram
    /// when timing is on, and amortized: it only happens when leaving
    /// a regime whose every round already cost O(n).
    ///
    /// Both switch directions emit a `dobs` [`ModeSwitch`] instant
    /// when a flight recorder is installed (observation only — the
    /// decision itself never reads the trace plane or the clock).
    ///
    /// [`ModeSwitch`]: dobs::Event::ModeSwitch
    fn choose_representation(&mut self) -> bool {
        #[cfg(test)]
        if let Some(dense) = self.pin {
            return dense;
        }
        let n = self.topo.len();
        if !self.frontier_dense {
            if n > 0 && self.wake_cur.len() * HYBRID_DENSE_DIV >= n {
                self.frontier_dense = true; // conversion is free
                self.trace_mode_switch(true);
            }
        } else if (self.est_active as usize) * HYBRID_SPARSE_DIV < n {
            // dlint::allow(wall-clock, "timing gauge only: feeds the histogram, never steers execution; traced-vs-untraced bit-identity is property-tested")
            let t0 = self.timing.then(Instant::now);
            self.rebuild_wake_list();
            self.frontier_dense = false;
            if let Some(t0) = t0 {
                self.stats
                    .timings
                    .record(timing::CONVERSION_NS, t0.elapsed().as_nanos() as u64);
            }
            self.trace_mode_switch(false);
        }
        self.frontier_dense
    }

    /// Record a scheduler representation switch into the installed
    /// flight recorder, if any.
    fn trace_mode_switch(&self, to_dense: bool) {
        if dobs::plane::enabled() {
            dobs::plane::record(dobs::Event::ModeSwitch {
                t_ns: dobs::plane::now_ns(),
                round: self.round,
                to_dense,
                wake_len: self.wake_cur.len() as u64,
            });
        }
    }

    /// Execute one synchronous round. Returns the number of messages
    /// sent during the round.
    ///
    /// Dispatch order: the judge picks the frontier representation,
    /// then the fan-out rule picks the worker count
    /// from the round's expected node steps — the wake-list length of
    /// a sparse round, the previous round's stepped count of a dense
    /// one. Both decisions are invisible in the results (bit-identity)
    /// and read counts only, never the clock, so the `sched_overhead`
    /// trace and the per-round worker counts reproduce too.
    pub fn step(&mut self) -> u64 {
        if self.adversary.has_crash_events() {
            self.apply_crash_events();
        }
        let dense = self.choose_representation();
        let expected = if dense {
            self.est_active as usize
        } else {
            self.wake_cur.len()
        };
        let workers = if self.force_parallel {
            self.threads.min(expected.max(1))
        } else {
            crate::parallel::fan_out(self.threads, crate::parallel::hw_parallelism(), expected)
        };
        self.peak_workers = self.peak_workers.max(workers);
        // dlint::allow(wall-clock, "timing gauge only: the round duration feeds the histogram, never steers execution")
        let t0 = self.timing.then(Instant::now);
        // Flight-recorder span for the round (observation only; one
        // thread-local flag read when no recorder is installed).
        let traced = dobs::plane::enabled();
        let span_t0 = if traced { dobs::plane::now_ns() } else { 0 };
        let sent = if dense {
            crate::parallel::step_dense(self, workers)
        } else {
            crate::parallel::step_sparse(self, workers)
        };
        if let Some(t0) = t0 {
            let phase = if dense {
                timing::DENSE_UPDATE_NS
            } else {
                timing::SPARSE_UPDATE_NS
            };
            self.stats
                .timings
                .record(phase, t0.elapsed().as_nanos() as u64);
        }
        if traced {
            let stepped = self.stats.per_round.last().map_or(0, |t| t.active);
            dobs::plane::record(dobs::Event::RoundSpan {
                round: self.round,
                t0_ns: span_t0,
                t1_ns: dobs::plane::now_ns(),
                stepped,
                sent,
                dense,
                workers: if workers > 1 { workers as u32 } else { 0 },
            });
        }
        sent
    }

    /// Apply the pre-sampled crash/rejoin events due at the top of the
    /// current round, before any node is stepped. Main-thread only and
    /// purely schedule-driven, so crash faults are bit-identical across
    /// executors and representations.
    fn apply_crash_events(&mut self) {
        let traced = dobs::plane::enabled();
        while let Some(ev) = self.adversary.next_crash(self.round) {
            let vi = ev.node as usize;
            match ev.kind {
                CrashKind::Crash => {
                    // A node that already halted on its own has nothing
                    // to take down — skip entirely (its rejoin event,
                    // if any, will find `crashed` unset and also skip).
                    if self.halted[vi] {
                        continue;
                    }
                    self.halted[vi] = true;
                    self.adversary.set_crashed(vi, true);
                    self.stats.crashed += 1;
                    // A permanent crash is as dead as a halt, so runs
                    // can terminate; a rejoin-pending node stays in
                    // `live` so the run loops keep stepping (possibly
                    // empty) rounds until it comes back.
                    if self.adversary.plan.rejoin_after() == 0 {
                        self.live -= 1;
                    }
                    if traced {
                        dobs::plane::record(dobs::Event::Fault {
                            t_ns: dobs::plane::now_ns(),
                            round: self.round,
                            node: ev.node as u64,
                            port: 0,
                            kind: dobs::FaultKind::Crash,
                        });
                    }
                }
                CrashKind::Rejoin => {
                    if !self.adversary.is_crashed(vi) {
                        continue; // the crash was skipped (node had halted)
                    }
                    self.adversary.set_crashed(vi, false);
                    // `live` was never decremented for a rejoin-pending
                    // crash, so only the flags come back.
                    self.halted[vi] = false;
                    self.dozing[vi] = false;
                    if self.uses_wake_list() && self.wake_stamp[vi] != self.round {
                        self.wake_stamp[vi] = self.round;
                        self.wake_cur.push(ev.node);
                    }
                    if traced {
                        dobs::plane::record(dobs::Event::Fault {
                            t_ns: dobs::plane::now_ns(),
                            round: self.round,
                            node: ev.node as u64,
                            port: 0,
                            kind: dobs::FaultKind::Rejoin,
                        });
                    }
                }
            }
        }
    }

    /// Close out a round: delivery accounting, round counter, gauges.
    /// The executor calls it once every chunk has been stepped and
    /// settled.
    pub(crate) fn finish_round(&mut self, stepped: u64, sched_overhead: u64) -> u64 {
        let round = self.round;
        let schedule = self.uses_wake_list();
        let (out_plane, _) = split_planes(&mut self.planes, round);
        let out = deliver(
            &self.topo,
            out_plane,
            &self.touched,
            &self.halted,
            &mut self.adversary,
            &mut self.stats,
            &mut self.inbox_count,
            &mut self.inbox_count_round,
            round + 1,
            schedule.then_some((&mut self.wake_stamp, &mut self.wake_next)),
        );
        self.in_flight = out.delivered;
        self.round += 1;
        if schedule {
            std::mem::swap(&mut self.wake_cur, &mut self.wake_next);
            // While sparse the wake list itself is the exact upcoming
            // count; keep the estimate fresh anyway for the round after
            // an upswitch.
            self.est_active = self.wake_cur.len() as u64;
        } else {
            self.est_active = stepped;
        }
        let allocs = self.take_alloc_delta();
        self.stats
            .record_round_gauges(out.sent, out.peak_inbox, allocs, stepped, sched_overhead);
        out.sent
    }

    /// Run until every node halts, or `max_rounds` elapse, and return
    /// the rounds this call executed. Panics if the round budget is
    /// exhausted — a protocol that fails to halt within its theoretical
    /// bound is a bug we want loudly.
    pub fn run_until_halt(&mut self, max_rounds: u64) -> u64 {
        let start = self.round;
        while !self.all_halted() {
            assert!(
                self.round - start < max_rounds,
                "protocol did not halt within {max_rounds} rounds"
            );
            self.step();
        }
        self.round - start
    }

    /// Run exactly `rounds` rounds, or until every node halts, and
    /// return the rounds this call executed. Unlike
    /// [`Network::run_until_halt`], running out of rounds is not an
    /// error: callers that expect some nodes never to halt (a ball cut
    /// out of a larger graph, a fixed fault window) stop quietly here.
    pub fn run_rounds(&mut self, rounds: u64) -> u64 {
        let start = self.round;
        for _ in 0..rounds {
            if self.all_halted() {
                break;
            }
            self.step();
        }
        self.round - start
    }

    /// Nodes that sent at least one message in the most recent round,
    /// ascending. Used by dynamic-network harnesses to measure how far
    /// from the churn damage repair traffic actually travels.
    pub fn last_senders(&self) -> &[NodeId] {
        &self.touched
    }

    /// Apply a churn batch at an epoch boundary — edge deletions
    /// `removed`, then insertions `added` — and carry the network
    /// across:
    ///
    /// * the topology is patched: rows of nodes the batch does not
    ///   touch are copied in runs and only the touched ("dirty") rows
    ///   are merged, into the buffers of the topology the previous
    ///   rewire retired;
    /// * the message plane migrates in place: in-flight messages on
    ///   surviving directed edges move to their new slots (and are
    ///   delivered next round as usual), messages on removed edges are
    ///   dropped, and payloads are moved, never cloned. Only the slab
    ///   read next round holds such mail; the other one is resized;
    /// * every node's protocol state is migrated through
    ///   [`Rewire::on_rewire`]; a dirty node gets its old-port →
    ///   new-port map and its born ports, a clean node an identity
    ///   context ([`RewireCtx::ports_unchanged`]);
    /// * dirty nodes are woken (un-halted) so they can take part in
    ///   repair;
    /// * inbox accounting is recomputed from the inbound slab's live
    ///   slots (mail addressed to nodes still halted after the wake-up
    ///   is dropped, matching the delivery rule).
    ///
    /// The node population is fixed; node churn is modelled by edge
    /// batches. Panics on removing a non-edge, inserting an existing
    /// edge, or self-loops — all modelling errors in a churn batch. An
    /// edge may appear in both lists (removed, then re-inserted): its
    /// in-flight mail is dropped and its new ports count as born.
    /// Rounds, statistics, and per-node RNG streams continue across the
    /// boundary, so a rewired run remains bit-identical across thread
    /// counts.
    pub fn rewire(&mut self, removed: &[(NodeId, NodeId)], added: &[(NodeId, NodeId)])
    where
        P: Rewire,
    {
        let mut patch = std::mem::take(&mut self.patch);
        self.topo.rewired(removed, added, &mut patch);
        if dobs::plane::enabled() {
            dobs::plane::record(dobs::Event::Rewire {
                t_ns: dobs::plane::now_ns(),
                round: self.round,
                added: added.len() as u64,
                removed: removed.len() as u64,
                dirty: patch.dirty.len() as u64,
            });
        }
        // Only the inbound slab (read next round) holds mail anyone
        // will read; the other one is next round's outbound slab, whose
        // advance kills every slot, so it is only resized. The inbound
        // slab's live slots stay in `live_slots` for the recount. Mail
        // it held may have been counted for receivers whose edge is now
        // gone: forget those counts.
        let inbound = ((self.round + 1) % 2) as usize;
        let new_total = patch.topo.total_ports();
        self.planes[1 - inbound].resize(new_total, &mut self.alloc_events);
        self.planes[inbound].remap(
            &patch.slot_map,
            new_total,
            &mut self.live_slots,
            &mut self.alloc_events,
        );
        for &s in &self.live_slots {
            self.inbox_count_round[self.topo.slot_neighbor(s) as usize] = u64::MAX;
        }
        // Adversary state follows the slot remap: burst link states
        // move with their surviving slots, parked payloads on removed
        // edges are dropped (same rule as the slabs' in-flight mail).
        self.adversary.on_rewire(&patch);
        let mut map_scratch: Vec<Option<Port>> = Vec::new(); // reused per dirty node
        let mut next_dirty = 0usize;
        for v in 0..self.topo.len() {
            let vid = v as NodeId;
            let (port_map, born) = if patch.dirty.get(next_dirty) == Some(&vid) {
                let old_base = self.topo.port_base(vid);
                let new_base = patch.topo.port_base(vid);
                map_scratch.clear();
                map_scratch.extend(
                    (0..self.topo.degree(vid))
                        .map(|p| patch.new_slot(old_base + p).map(|s| s - new_base)),
                );
                next_dirty += 1;
                (
                    Some(map_scratch.as_slice()),
                    patch.born_ports_of_dirty(next_dirty - 1),
                )
            } else {
                (None, &[][..])
            };
            self.nodes[v].on_rewire(&RewireCtx {
                node: vid,
                topo: &patch.topo,
                port_map,
                born,
                round: self.round,
            });
        }
        for &v in &patch.dirty {
            let vi = v as usize;
            // Crashed nodes stay down through a rewire: resurrecting
            // them via the dirty set would undo the fault (and corrupt
            // the `live` accounting, which deferred their decrement).
            if self.adversary.is_crashed(vi) {
                continue;
            }
            if self.halted[vi] {
                self.halted[vi] = false;
                self.live += 1;
            }
            self.dozing[vi] = false;
        }
        std::mem::swap(&mut self.topo, &mut patch.topo);
        self.recount_inboxes(&patch.slot_map);
        if self.uses_wake_list() {
            self.rebuild_wake_list();
        }
        // A rewire typically wakes a whole damage ball; refresh the
        // dense-side judge input so the judge re-evaluates from the
        // post-rewire schedule size rather than a pre-churn count.
        self.est_active = self.est_active.max(patch.dirty.len() as u64);
        self.patch = patch;
    }

    /// Recount `inbox_count` / `in_flight` after a rewire from the
    /// inbound slab's live slots (`live_slots`, old indices, mapped
    /// through `slot_map`): the delivery-time counts may include mail
    /// the rewire dropped.
    fn recount_inboxes(&mut self, slot_map: &[usize]) {
        let round = self.round;
        let mut in_flight = 0u64;
        for &old in &self.live_slots {
            let slot = slot_map[old];
            if slot == SLOT_GONE {
                continue;
            }
            let to = self.topo.slot_neighbor(slot) as usize;
            if self.halted[to] {
                continue;
            }
            if self.inbox_count_round[to] != round {
                self.inbox_count_round[to] = round;
                self.inbox_count[to] = 0;
            }
            self.inbox_count[to] += 1;
            in_flight += 1;
        }
        self.in_flight = in_flight;
    }

    /// Recompute the wake list for the next round from first
    /// principles (the dense sweep's predicate): scheduled iff live
    /// and (awake, or has mail). A rewire can both wake nodes (dirty
    /// set) and kill scheduled mail (remapped slabs drop removed
    /// edges' payloads), so entries on the list may no longer be due.
    /// One linear pass over the flag arrays keeps the sparse schedule
    /// exactly equal to the dense one.
    fn rebuild_wake_list(&mut self) {
        let round = self.round;
        self.wake_cur.clear();
        for v in 0..self.topo.len() {
            let scheduled = !self.halted[v]
                && (!self.dozing[v]
                    || (self.inbox_count_round[v] == round && self.inbox_count[v] > 0));
            if scheduled {
                self.wake_stamp[v] = round;
                self.wake_cur.push(v as NodeId);
            }
        }
    }
}

/// Split the double buffer into (this round's out slab, last round's in
/// slab) by round parity.
pub(crate) fn split_planes<M>(planes: &mut [Slab<M>; 2], round: u64) -> (&mut Slab<M>, &Slab<M>) {
    let (a, b) = planes.split_at_mut(1);
    if round.is_multiple_of(2) {
        (&mut a[0], &b[0])
    } else {
        (&mut b[0], &a[0])
    }
}

/// Outcome of one delivery sweep.
pub(crate) struct DeliverOutcome {
    /// Messages sent (charged to stats, including lost ones).
    pub(crate) sent: u64,
    /// Messages actually readable next round (excludes lost messages
    /// and mail addressed to halted nodes).
    pub(crate) delivered: u64,
    /// Largest single inbox produced this round.
    pub(crate) peak_inbox: u64,
}

/// Account (and, under fault injection, cull, delay, or defer) the
/// messages written into `out` this round. Walks only the port ranges
/// of nodes that sent, in ascending node order then ascending port
/// order — a fixed order, so every adversary RNG stream is consumed
/// identically under sequential and parallel stepping. The fault-free
/// path performs **no allocation and no sorting**: the payloads stay
/// in their slots, where the receivers read them in place.
///
/// Per live slot, the adversary pipeline runs in this fixed,
/// documented order (each stream consumed only when its fault class is
/// enabled — see [`crate::adversary`]):
///
/// 1. charge statistics (the sender paid for the message);
/// 2. Bernoulli **drop** (the legacy `loss_rng` stream, drawn at the
///    legacy point, so pure-drop plans replay old lossy runs
///    bit-for-bit);
/// 3. **burst** drop if the slot's Markov link is down;
/// 4. **CONGEST** budget check — strict panics, degrade converts the
///    overflow into `⌈bits/B⌉ - 1` extra rounds and records
///    `deferred_bits`;
/// 5. receiver-halted check (mail to halted or crashed nodes is
///    dropped on the floor, unread — crash-stop);
/// 6. **stall** (+1 round) and **delay** (uniform `0..=D` rounds)
///    draws; a message owing extra rounds is parked in the holding
///    ring, otherwise it is delivered as usual.
///
/// After the sender walk, parked payloads due this round are
/// re-injected in deterministic `(slot, seq)` order: an occupied slot
/// postpones its payload one round, a halted/crashed receiver discards
/// it, and a delivered payload performs the same inbox/wake accounting
/// as a fresh message (its bits were charged at first crossing).
///
/// Under the sparse scheduler (`schedule` is `Some`), delivery is also
/// where mail wakes nodes: every receiver is stamped and appended to
/// the next round's wake list (deduped by the stamp, so a node already
/// auto-rescheduled is not pushed twice).
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver<M: BitSize>(
    topo: &Topology,
    out: &mut Slab<M>,
    touched: &[NodeId],
    halted: &[bool],
    adversary: &mut Adversary<M>,
    stats: &mut NetStats,
    inbox_count: &mut [u32],
    inbox_count_round: &mut [u64],
    read_round: u64,
    mut schedule: Option<(&mut [u64], &mut Vec<NodeId>)>,
) -> DeliverOutcome {
    let gen = out.gen;
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0u64;
    let faults = adversary.is_active();
    let traced = faults && dobs::plane::enabled();
    if faults {
        adversary.evolve_bursts();
    }
    let plan = adversary.plan;
    for &v in touched {
        let base = topo.port_base(v);
        for p in 0..topo.degree(v) {
            let slot = base + p;
            if out.stamp[slot] != gen {
                continue;
            }
            let bits = out.msg[slot]
                .as_ref()
                .expect("live slot holds a message")
                .bit_size();
            stats.record_message(bits);
            sent += 1;
            if plan.drop_p > 0.0 && adversary.drop_rng.bernoulli(plan.drop_p) {
                stats.dropped += 1;
                out.stamp[slot] = DEAD_STAMP; // fault injection ate it
                out.msg[slot] = None;
                if traced {
                    record_fault(read_round - 1, v, p, dobs::FaultKind::Drop);
                }
                continue;
            }
            if !adversary.burst_down.is_empty() && adversary.burst_down[slot] {
                stats.dropped += 1;
                out.stamp[slot] = DEAD_STAMP; // link is down this round
                out.msg[slot] = None;
                if traced {
                    record_fault(read_round - 1, v, p, dobs::FaultKind::BurstDrop);
                }
                continue;
            }
            let to = topo.neighbor(v, p) as usize;
            // One message per port per round, so the per-message size
            // *is* the edge's per-round bit usage.
            let mut congest_extra = 0u64;
            if bits > adversary.budget_bits {
                match plan.congest {
                    CongestMode::Strict => panic!(
                        "CONGEST violation: {bits}-bit message on edge {v}->{to} \
                         exceeds the {}-bit per-edge per-round budget",
                        adversary.budget_bits
                    ),
                    CongestMode::Degrade => {
                        congest_extra = (bits - 1) / adversary.budget_bits;
                        stats.deferred_bits += bits - adversary.budget_bits;
                        if traced {
                            dobs::plane::record(dobs::Event::BudgetViolation {
                                t_ns: dobs::plane::now_ns(),
                                round: read_round - 1,
                                node: v as u64,
                                port: p as u32,
                                bits,
                                budget: adversary.budget_bits,
                            });
                        }
                    }
                }
            }
            if halted[to] {
                continue; // dropped on the floor, unread
            }
            let stall_extra = if plan.stall_p > 0.0 && adversary.stall_rng.bernoulli(plan.stall_p) {
                1
            } else {
                0
            };
            let delay_extra = if plan.delay_max > 0 {
                adversary.delay_rng.below(plan.delay_max + 1)
            } else {
                0
            };
            let extra = congest_extra + stall_extra + delay_extra;
            if extra > 0 {
                stats.delayed += 1;
                let msg = out.msg[slot].take().expect("live slot holds a message");
                out.stamp[slot] = DEAD_STAMP; // parked, not in the plane
                adversary.park(read_round + extra, slot, to as NodeId, msg);
                if traced {
                    let kind = if stall_extra > 0 && delay_extra == 0 && congest_extra == 0 {
                        dobs::FaultKind::Stall
                    } else {
                        dobs::FaultKind::Delay
                    };
                    record_fault(read_round - 1, v, p, kind);
                }
                continue;
            }
            delivered += 1;
            let c = if inbox_count_round[to] == read_round {
                inbox_count[to] + 1
            } else {
                1
            };
            inbox_count[to] = c;
            inbox_count_round[to] = read_round;
            peak = peak.max(c as u64);
            if let Some((wake_stamp, wake_next)) = schedule.as_mut() {
                if wake_stamp[to] != read_round {
                    wake_stamp[to] = read_round;
                    wake_next.push(to as NodeId);
                }
            }
        }
    }
    // Holding-ring injection: payloads due this round enter the plane
    // the receivers read next round, in deterministic (slot, seq)
    // order. Entries are never overdue (everything due is processed
    // each round), so sorting by (due, slot, seq) puts the due set in
    // exactly (slot, seq) order at the front.
    if !adversary.parked_empty() {
        adversary
            .parked
            .sort_unstable_by_key(|e| (e.due, e.slot, e.seq));
        let mut i = 0;
        while i < adversary.parked.len() && adversary.parked[i].due <= read_round {
            let slot = adversary.parked[i].slot;
            let to = adversary.parked[i].to as usize;
            if out.stamp[slot] == gen {
                // The sender refilled the slot this round: postpone one
                // more round (adversarial reordering on a busy edge).
                adversary.parked[i].due = read_round + 1;
            } else if halted[to] {
                adversary.parked[i].msg = None; // receiver gone: discard
            } else {
                out.msg[slot] = adversary.parked[i].msg.take();
                out.stamp[slot] = gen;
                delivered += 1;
                let c = if inbox_count_round[to] == read_round {
                    inbox_count[to] + 1
                } else {
                    1
                };
                inbox_count[to] = c;
                inbox_count_round[to] = read_round;
                peak = peak.max(c as u64);
                if let Some((wake_stamp, wake_next)) = schedule.as_mut() {
                    if wake_stamp[to] != read_round {
                        wake_stamp[to] = read_round;
                        wake_next.push(to as NodeId);
                    }
                }
            }
            i += 1;
        }
        adversary.parked.retain(|e| e.msg.is_some());
    }
    DeliverOutcome {
        sent,
        delivered,
        peak_inbox: peak,
    }
}

/// Record one adversary fault instant into the installed flight
/// recorder (callers have already checked `dobs::plane::enabled()`).
fn record_fault(round: u64, node: NodeId, port: usize, kind: dobs::FaultKind) {
    dobs::plane::record(dobs::Event::Fault {
        t_ns: dobs::plane::now_ns(),
        round,
        node: node as u64,
        port: port as u32,
        kind,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Inbox;

    /// Flood the maximum id; halt when stable for 2 rounds.
    struct MaxFlood {
        best: u32,
        quiet: u32,
    }
    impl Protocol for MaxFlood {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            let before = self.best;
            for e in inbox.iter() {
                self.best = self.best.max(*e.msg);
            }
            if ctx.round() == 0 || self.best > before {
                ctx.send_all(self.best);
                self.quiet = 0;
            } else {
                self.quiet += 1;
                if self.quiet >= 2 {
                    ctx.halt();
                }
            }
        }
    }

    fn path_net(n: usize) -> Network<MaxFlood> {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let topo = Topology::from_edges(n, &edges);
        let nodes = (0..n as u32)
            .map(|v| MaxFlood { best: v, quiet: 0 })
            .collect();
        Network::new(topo, nodes, 1)
    }

    #[test]
    fn max_flood_converges_on_path() {
        let mut net = path_net(10);
        let rounds = net.run_until_halt(100);
        assert!(net.all_halted());
        assert!(net.nodes().iter().all(|s| s.best == 9));
        // Information must travel the diameter: at least n-1 rounds.
        assert!(rounds >= 9);
    }

    #[test]
    fn stats_count_messages_and_bits() {
        let mut net = path_net(4);
        net.run_until_halt(100);
        let s = net.stats();
        assert!(s.messages > 0);
        assert_eq!(s.bits, s.messages * 32, "every message is one u32");
        assert_eq!(s.max_msg_bits, 32);
    }

    #[test]
    fn run_rounds_is_exact() {
        let mut net = path_net(6);
        assert_eq!(net.run_rounds(3), 3);
        assert_eq!(net.round(), 3);
    }

    #[test]
    fn run_rounds_stops_quietly_at_the_budget() {
        // A protocol that never halts: the budget ends the run, and
        // nothing panics.
        struct Stubborn;
        impl Protocol for Stubborn {
            type Msg = u8;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {}
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![Stubborn, Stubborn], 5);
        assert_eq!(net.run_rounds(8), 8);
        assert_eq!(net.round(), 8);
        assert_eq!(net.live_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn halting_budget_enforced() {
        struct Chatty;
        impl Protocol for Chatty {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
                ctx.send_all(0);
            }
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![Chatty, Chatty], 0);
        net.run_until_halt(10);
    }

    #[test]
    fn halted_nodes_drop_mail() {
        struct HaltFirst {
            got: u64,
        }
        impl Protocol for HaltFirst {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, inbox: Inbox<'_, u8>) {
                self.got += inbox.len() as u64;
                if ctx.id() == 0 {
                    ctx.halt();
                } else if ctx.round() < 3 {
                    ctx.send_all(7);
                } else {
                    ctx.halt();
                }
            }
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![HaltFirst { got: 0 }, HaltFirst { got: 0 }], 0);
        net.run_until_halt(20);
        // Node 0 halted in round 0 and never received node 1's messages.
        assert_eq!(net.nodes()[0].got, 0);
    }

    #[derive(Clone)]
    struct Probe {
        left: Option<u32>,
        right: Option<u32>,
    }

    impl Protocol for Probe {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            if ctx.round() == 0 {
                ctx.send_all(100 + ctx.id());
            } else if ctx.id() == 1 {
                self.left = inbox.get(0).copied();
                self.right = inbox.get(1).copied();
                assert_eq!(inbox.len(), 2);
                let seen: Vec<(u32, usize, u32)> =
                    inbox.iter().map(|e| (e.from, e.port, *e.msg)).collect();
                assert_eq!(seen, vec![(0, 0, 100), (2, 1, 102)]);
                ctx.halt();
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn inbox_is_port_indexed() {
        // Node 1 on a path 0-1-2 receives from both sides and can read
        // each port in O(1); ports are ordered by neighbor id.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut net = Network::new(
            topo,
            vec![
                Probe {
                    left: None,
                    right: None
                };
                3
            ],
            0,
        );
        net.run_rounds(2);
        assert_eq!(net.nodes()[1].left, Some(100));
        assert_eq!(net.nodes()[1].right, Some(102));
    }

    #[test]
    #[should_panic(expected = "duplicate send")]
    fn double_send_on_one_port_panics() {
        struct Doubler;
        impl Protocol for Doubler {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
                ctx.send(0, 1);
                ctx.send(0, 2);
            }
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![Doubler, Doubler], 0);
        net.step();
    }

    /// Counts everything it ever received, echoes on every port each
    /// round, and tracks rewires; per-port state is the receive count
    /// per port so remaps are observable.
    struct Echo {
        per_port: Vec<u64>,
        rewires: u64,
        born_seen: usize,
    }
    impl Protocol for Echo {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            for e in inbox.iter() {
                self.per_port[e.port] += 1;
            }
            if ctx.round() < 8 {
                ctx.send_all(ctx.id());
            }
        }
    }
    impl crate::network::Rewire for Echo {
        fn on_rewire(&mut self, ctx: &RewireCtx<'_>) {
            let mut per_port = vec![0u64; ctx.new_degree()];
            for (p, &c) in self.per_port.iter().enumerate() {
                if let Some(np) = ctx.new_port(p) {
                    per_port[np] = c;
                }
            }
            self.per_port = per_port;
            self.rewires += 1;
            self.born_seen += ctx.born_ports().len();
        }
    }

    fn echo_net(n: usize, edges: &[(u32, u32)]) -> Network<Echo> {
        let topo = Topology::from_edges(n, edges);
        let nodes = (0..n as u32)
            .map(|v| Echo {
                per_port: vec![0; topo.degree(v)],
                rewires: 0,
                born_seen: 0,
            })
            .collect();
        Network::new(topo, nodes, 5)
    }

    #[test]
    fn rewire_preserves_in_flight_mail_on_surviving_edges() {
        // Path 0-1-2: run one round (everyone sends), then rewire away
        // (1,2) and add (0,2) with the sends still in flight. Mail on
        // (0,1) must arrive; mail on (1,2) must vanish.
        let mut net = echo_net(3, &[(0, 1), (1, 2)]);
        net.step();
        assert_eq!(net.in_flight(), 4);
        net.rewire(&[(1, 2)], &[(0, 2)]);
        assert_eq!(net.in_flight(), 2, "only the surviving edge's mail remains");
        net.step();
        // Node 0: received 1's round-0 send on port 0 (edge kept).
        assert_eq!(net.nodes()[0].per_port, vec![1, 0]);
        // Node 2 lost its only old edge; its in-flight mail died.
        assert_eq!(net.nodes()[2].per_port, vec![0]);
        assert!(net.nodes().iter().all(|n| n.rewires == 1));
        // Born ports: (0,2) seen at node 0 and node 2.
        assert_eq!(net.nodes()[0].born_seen, 1);
        assert_eq!(net.nodes()[2].born_seen, 1);
        assert_eq!(net.nodes()[1].born_seen, 0);
    }

    #[test]
    fn rewire_wakes_dirty_nodes_and_traffic_flows_on_new_edges() {
        let mut net = echo_net(4, &[(0, 1), (2, 3)]);
        net.run_rounds(2);
        net.rewire(&[], &[(1, 2)]);
        net.run_rounds(2);
        // Node 1 now hears node 2 on its new port 1.
        assert!(net.nodes()[1].per_port[1] > 0, "new edge must carry mail");
        assert_eq!(net.topology().num_edges(), 3);
    }

    #[test]
    fn rewire_allocates_only_when_a_slab_grows() {
        let mut net = echo_net(4, &[(0, 1), (1, 2), (2, 3)]);
        net.run_rounds(2);
        let base = net.stats().plane_allocs;
        net.rewire(&[(0, 1)], &[(0, 2)]);
        net.step();
        assert_eq!(net.stats().plane_allocs, base, "same port count: in place");
        net.rewire(&[], &[(0, 3)]);
        net.step();
        assert_eq!(
            net.stats().plane_allocs,
            base + 4,
            "growing both slabs allocates each of their two buffers once"
        );
    }

    #[test]
    fn rewire_keeps_thread_count_bit_identity() {
        let run = |threads: usize| {
            let mut net = echo_net(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .with_cfg(ExecCfg::parallel(threads).forced());
            net.run_rounds(3);
            net.rewire(&[(2, 3), (5, 0)], &[(0, 3), (1, 4)]);
            net.run_rounds(3);
            let states: Vec<Vec<u64>> = net.nodes().iter().map(|n| n.per_port.clone()).collect();
            (states, net.stats().clone())
        };
        let (s1, st1) = run(1);
        let (s8, st8) = run(8);
        assert_eq!(s1, s8);
        assert_eq!(st1, st8);
    }

    /// Sleeps whenever its inbox is empty; logs every round it runs.
    struct Sleeper {
        stepped_at: Vec<u64>,
    }
    impl Protocol for Sleeper {
        type Msg = u8;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, inbox: Inbox<'_, u8>) {
            self.stepped_at.push(ctx.round());
            if inbox.is_empty() {
                ctx.sleep();
            }
        }
    }

    /// Pings port 0 at fixed rounds, never sleeps, halts at the end.
    struct Pinger {
        at: Vec<u64>,
    }
    impl Protocol for Pinger {
        type Msg = u8;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
            if self.at.contains(&ctx.round()) {
                ctx.send(0, 1);
            }
            if ctx.round() >= *self.at.iter().max().unwrap() + 2 {
                ctx.halt();
            }
        }
    }

    #[test]
    fn mail_wakes_a_sleeping_node_in_both_modes() {
        let run = |dense: bool| {
            let topo = Topology::from_edges(2, &[(0, 1)]);
            // Node 1 is a Sleeper reached through node 0's port 0.
            struct Pair;
            let _ = Pair; // (nodes are heterogeneous via an enum below)
            #[allow(clippy::large_enum_variant)]
            enum N {
                P(Pinger),
                S(Sleeper),
            }
            impl Protocol for N {
                type Msg = u8;
                fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, inbox: Inbox<'_, u8>) {
                    match self {
                        N::P(p) => p.on_round(ctx, inbox),
                        N::S(s) => s.on_round(ctx, inbox),
                    }
                }
            }
            let nodes = vec![
                N::P(Pinger { at: vec![3, 7] }),
                N::S(Sleeper {
                    stepped_at: Vec::new(),
                }),
            ];
            let mut net = Network::new(topo, nodes, 1).pinned(Some(dense));
            net.run_rounds(12);
            let log = match &net.nodes()[1] {
                N::S(s) => s.stepped_at.clone(),
                _ => unreachable!(),
            };
            (log, net.stats().clone())
        };
        let (log_s, stats_s) = run(false);
        let (log_d, stats_d) = run(true);
        // The sleeper runs in round 0, then when mail arrives (one
        // round after each ping), plus one more round each time to
        // re-assert sleep (it only calls `sleep` on an empty inbox).
        assert_eq!(log_s, vec![0, 4, 5, 8, 9]);
        assert_eq!(log_d, log_s, "dense and sparse stepped sets diverged");
        assert_eq!(stats_s.node_steps, stats_d.node_steps);
        assert_eq!(stats_s.messages, stats_d.messages);
    }

    #[test]
    fn sparse_round_cost_tracks_active_nodes() {
        // A path of sleepers: after round 0 everyone is asleep and the
        // wake list is empty, so rounds step zero nodes.
        let topo = Topology::from_edges(64, &(0..63).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let nodes = (0..64)
            .map(|_| Sleeper {
                stepped_at: Vec::new(),
            })
            .collect();
        let mut net = Network::new(topo, nodes, 3);
        net.run_rounds(5);
        let s = net.stats();
        assert_eq!(s.per_round[0].active, 64, "round 0 steps everyone");
        assert!(
            s.per_round[1..].iter().all(|r| r.active == 0),
            "sleeping nodes must not be stepped"
        );
        assert_eq!(s.node_steps, 64);
        assert!(!net.all_halted(), "sleeping is not halting");
    }

    #[test]
    fn explicit_wake_schedules_a_sleeper() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let nodes = (0..3)
            .map(|_| Sleeper {
                stepped_at: Vec::new(),
            })
            .collect();
        let mut net = Network::new(topo, nodes, 9);
        net.run_rounds(3);
        assert_eq!(net.nodes()[1].stepped_at, vec![0]);
        net.wake(1);
        net.run_rounds(2);
        assert_eq!(net.nodes()[1].stepped_at, vec![0, 3]);
        assert_eq!(net.nodes()[0].stepped_at, vec![0], "others stay asleep");
    }

    /// The judge's policy, one row per round on a 64-node network of
    /// sleepers, so `n / HYBRID_DENSE_DIV` = 8 and `n / HYBRID_SPARSE_DIV`
    /// = 4. Before each round the harness wakes `woken` nodes, which
    /// are exactly the nodes the round steps. The representation each
    /// round ran in is read from the flight recorder's `ModeSwitch`
    /// instants, and cross-checked against the `sched_overhead` gauge:
    /// a dense round charges the `n - woken` slots it skipped, a sparse
    /// round over a clean wake list nothing.
    #[test]
    fn judge_policy_table() {
        let n = 64;
        assert_eq!((n / HYBRID_DENSE_DIV, n / HYBRID_SPARSE_DIV), (8, 4));
        // (nodes woken before the round, the round runs dense, why)
        let table = [
            (n, true, "round 0: everyone starts awake"),
            (3, true, "last round stepped n"),
            (3, false, "last round stepped 3 < n/16"),
            (7, false, "wake list 7 < n/8: stay sparse"),
            (8, true, "wake list reaches n/8"),
            (4, true, "last round stepped 8"),
            (7, true, "last round stepped n/16, not fewer"),
            (3, true, "last round stepped 7: stay dense"),
            (20, false, "last round stepped 3, not the wake-ups"),
            (20, true, "wake list 20 ≥ n/8"),
            (2, true, "last round stepped 20"),
            (6, false, "last round stepped 2 < n/16"),
            (6, false, "wake list 6 < n/8: stay sparse"),
        ];
        let topo = Topology::from_edges(
            n,
            &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let nodes = (0..n)
            .map(|_| Sleeper {
                stepped_at: Vec::new(),
            })
            .collect();
        let mut net = Network::new(topo, nodes, 4);
        let session = dobs::TraceSession::start(1 << 10);
        for &(woken, _, _) in &table {
            (0..woken as NodeId).for_each(|v| net.wake(v));
            net.step();
        }
        let switches: Vec<(u64, bool)> = session
            .finish()
            .events()
            .filter_map(|e| match *e {
                dobs::Event::ModeSwitch {
                    round, to_dense, ..
                } => Some((round, to_dense)),
                _ => None,
            })
            .collect();
        let mut dense = false;
        for (r, &(woken, want_dense, why)) in table.iter().enumerate() {
            for &(_, to_dense) in switches.iter().filter(|&&(at, _)| at == r as u64) {
                dense = to_dense;
            }
            assert_eq!(dense, want_dense, "round {r}: {why}");
            let stepped = woken as u64;
            let trace = &net.stats().per_round[r];
            assert_eq!(trace.active, stepped, "round {r}: stepped set");
            let skipped = if want_dense { n as u64 - stepped } else { 0 };
            assert_eq!(trace.sched_overhead, skipped, "round {r}: {why}");
        }
    }

    #[test]
    fn halting_maintains_the_live_counter() {
        let mut net = path_net(10);
        assert_eq!(net.live_nodes(), 10);
        net.run_until_halt(100);
        assert_eq!(net.live_nodes(), 0);
        assert!(net.all_halted());
    }

    /// Draws from its RNG every round, sends the running hash on a
    /// drawn port, sleeps on a third of its draws and halts at a drawn
    /// horizon: every piece of state a re-arm must reset gets used.
    #[derive(Clone, Default)]
    struct Restless {
        acc: u64,
        horizon: Option<u64>,
    }
    impl Protocol for Restless {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            for e in inbox.iter() {
                self.acc = self.acc.rotate_left(7) ^ *e.msg ^ e.port as u64;
            }
            let draw = ctx.rng().next();
            self.acc ^= draw;
            let horizon = *self.horizon.get_or_insert(12 + draw % 12);
            if ctx.round() >= horizon {
                ctx.halt();
                return;
            }
            ctx.send((draw % ctx.degree() as u64) as usize, self.acc);
            if draw % 3 == 0 {
                ctx.sleep();
            }
        }
    }

    /// Stats with the plane-allocation gauge blanked: the one field in
    /// which a re-armed run legitimately differs from a fresh one.
    fn without_allocs(mut s: NetStats) -> NetStats {
        s.plane_allocs = 0;
        s.per_round.iter_mut().for_each(|r| r.plane_allocs = 0);
        s
    }

    /// Run 6 rounds under seed 77 (mail and, under faults, parked
    /// payloads, burst states and crashed nodes are live when it stops),
    /// re-arm under `seed` and run 20 rounds; the second run must equal
    /// a fresh network's 20 rounds under `seed`, node outputs and every
    /// statistic but the allocation gauge.
    fn rearm_matches_fresh(cfg: ExecCfg, pin: Option<bool>, seed: u64) {
        let n = 40u32;
        // A ring with diameters and some 7-chords: degrees 3 to 5.
        let edges: Vec<(u32, u32)> = (0..n)
            .map(|i| (i, (i + 1) % n))
            .chain((0..n / 2).map(|i| (i, i + n / 2)))
            .chain((0..n).step_by(3).map(|i| (i, (i + 7) % n)))
            .collect();
        let topo = Topology::from_edges(n as usize, &edges);
        let build = |seed| {
            Network::new(topo.clone(), vec![Restless::default(); n as usize], seed)
                .with_cfg(cfg)
                .pinned(pin)
        };
        let mut kept = build(77);
        kept.run_rounds(6);
        assert!(
            kept.in_flight() > 0,
            "the first run ends with mail in flight"
        );
        if cfg.faults.is_active() {
            assert!(!kept.adversary.parked_empty(), "payloads are parked");
            assert!(
                kept.adversary.burst_down.iter().any(|&d| d),
                "a link is down"
            );
            assert!((0..n as usize).any(|v| kept.adversary.is_crashed(v)));
        }
        kept.rearm(seed);
        kept.nodes_mut().fill(Restless::default());
        kept.run_rounds(20);
        let mut fresh = build(seed);
        fresh.run_rounds(20);
        let outputs =
            |net: &Network<Restless>| net.nodes().iter().map(|s| s.acc).collect::<Vec<_>>();
        assert_eq!(outputs(&kept), outputs(&fresh), "{cfg:?} {pin:?}");
        let (kept_stats, fresh_stats) = (kept.take_stats(), fresh.take_stats());
        if !cfg.faults.is_active() {
            assert_eq!(kept_stats.plane_allocs, 0, "a re-arm allocates nothing");
        }
        assert_eq!(
            without_allocs(kept_stats),
            without_allocs(fresh_stats),
            "{cfg:?} {pin:?}"
        );
    }

    #[test]
    fn rearmed_network_equals_fresh() {
        for cfg in [ExecCfg::sequential(), ExecCfg::parallel(3).forced()] {
            for pin in [None, Some(false), Some(true)] {
                rearm_matches_fresh(cfg, pin, 5);
            }
        }
    }

    #[test]
    fn rearmed_network_equals_fresh_under_faults() {
        let plan = FaultPlan::drop(0.1)
            .with_delay(3)
            .with_burst(0.2, 0.3)
            .with_crash(0.03, 4);
        for cfg in [ExecCfg::sequential(), ExecCfg::parallel(3).forced()] {
            for pin in [None, Some(false), Some(true)] {
                rearm_matches_fresh(cfg.with_faults(plan), pin, 5);
            }
        }
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut net = path_net(12);
        net.run_until_halt(100);
        let s = net.stats();
        // All plane allocations happen at construction, charged to the
        // first round's gauge; every later round must be zero.
        assert!(s.per_round[0].plane_allocs > 0);
        assert!(s.per_round[1..].iter().all(|r| r.plane_allocs == 0));
        assert_eq!(s.plane_allocs, s.per_round[0].plane_allocs);
        assert!(s.peak_inbox >= 1);
    }
}
