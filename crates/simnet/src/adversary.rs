//! The adversary plane: unified, seeded, deterministic fault injection.
//!
//! Every delivery in a [`crate::Network`] passes through one
//! `Adversary` (crate-internal), configured by a single composable
//! [`FaultPlan`] — the workspace's one way to inject faults, installed
//! through `ExecCfg::faults` (see [`crate::Network::with_cfg`]). The
//! plan covers uniform Bernoulli drop, two-state Markov link flaps
//! (burst loss), bounded per-message delay, per-round partial
//! delivery, crash-stop node faults with optional rejoin, and CONGEST
//! bit-budget enforcement.
//!
//! ## Determinism contract
//!
//! Same seed + same `FaultPlan` ⇒ **bit-identical** runs (matchings,
//! RNG streams, `NetStats` minus the wall-clock timing registry) across
//! every executor ({seq, 2, 8 threads}) and both frontier
//! representations. The contract holds
//! because every adversary decision is made on the **main thread**, in
//! a fixed order, from RNG streams that are independent of the node
//! streams:
//!
//! * fault decisions happen in [`crate::network`]'s delivery sweep,
//!   which walks senders in ascending node order then ascending port
//!   order — the same fixed order under sequential and parallel
//!   stepping (delivery runs after the parallel join);
//! * each fault class draws from its **own** SplitMix64 stream
//!   (derived from the master seed at reserved ids), and a stream is
//!   consumed only when its fault class is enabled — so composing a
//!   new fault class never perturbs the draws of another, and a plan
//!   that only drops messages consumes nothing but the drop stream,
//!   whose frozen id predates the plane (so lossy runs recorded before
//!   it still reproduce bit-for-bit);
//! * crash/rejoin events are **pre-sampled** at plan installation
//!   (geometric first-crash rounds from one dedicated stream) and
//!   applied at the top of each round, before any node is stepped;
//! * delayed payloads are parked in a holding ring and re-injected in
//!   deterministic `(slot, seq)` order at their due round.
//!
//! ## Fault pipeline
//!
//! Per live out-slot, in this fixed order: charge statistics (the
//! sender paid for the message) → Bernoulli **drop** → **burst** (Markov
//! down-state) drop → **CONGEST** budget check (strict: panic; degrade:
//! convert overflow into extra rounds of latency and record
//! `deferred_bits`) → receiver-halted check (crash-stop: mail to
//! crashed or halted nodes is dropped on the floor, unread) →
//! **stall** / **delay** draws → park or deliver. A parked payload
//! whose slot is occupied by a fresh send at its due round is postponed
//! one more round (adversarial reordering between an edge's in-flight
//! messages is allowed, and a busy edge can stretch a delay past `D`);
//! a parked payload whose receiver has halted or crashed by its due
//! round is discarded.
//!
//! Crash-stop semantics: a crashed node stops being stepped, and mail
//! addressed to it is discarded, but messages it sent *before* the
//! crash are still delivered. With `rejoin_after > 0` the node resumes
//! — with its pre-crash protocol state, deliberately stale — after
//! exactly that many rounds, and is woken through the same machinery a
//! rewire's dirty set uses, so repair paths are exercised. A node that
//! had already halted on its own is never crashed (nothing to take
//! down), and each node crashes at most once per run.

use crate::rng::SplitMix64;
use crate::topology::{NodeId, Topology, TopologyPatch};

/// Largest accepted per-message delay bound, in rounds. A bound above
/// this is almost certainly a bug (a delay comparable to any real run
/// length already destroys liveness), so the setter clamps to it.
pub const MAX_DELAY_ROUNDS: u64 = 1 << 20;

// Adversary RNG stream ids live in the workspace-wide registry
// (`crate::rng::streams`) so dlint can verify no other consumer
// collides with them. `ADV_DROP` (= u64::MAX) is the legacy `loss_rng`
// id, kept so pure-drop plans reproduce old lossy runs bit-for-bit.
use crate::rng::streams::{
    ADV_BURST as STREAM_BURST, ADV_CRASH as STREAM_CRASH, ADV_DELAY as STREAM_DELAY,
    ADV_DROP as STREAM_DROP, ADV_STALL as STREAM_STALL,
};

/// Clamp a probability into `[0, 1]`, mapping NaN to 0 (no fault).
/// Factored out of the `debug_assert`ing setters so the clamping rule
/// itself is directly unit-testable in both build profiles.
#[inline]
pub(crate) fn clamped01(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Two-state Markov link model of burst loss:
/// an up edge goes down with probability `fail` per round, a down edge
/// recovers with probability `repair` per round. While down, every
/// message on the edge is dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Markov {
    /// P(up → down) per round.
    pub fail: f64,
    /// P(down → up) per round.
    pub repair: f64,
}

/// Per-edge per-round bit budget (the CONGEST yardstick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Budget {
    /// No budget: the LOCAL model.
    #[default]
    Unlimited,
    /// A fixed budget of this many bits.
    Bits(u64),
    /// `c · ⌈log₂ n⌉` bits — the classical CONGEST budget, resolved
    /// against the network size at plan installation via
    /// [`crate::id_bits`].
    LogN(u64),
}

impl Budget {
    /// The concrete bit bound for a network of `n` nodes
    /// (`u64::MAX` = unlimited).
    pub fn effective_bits(&self, n: usize) -> u64 {
        match *self {
            Budget::Unlimited => u64::MAX,
            Budget::Bits(b) => b.max(1),
            Budget::LogN(c) => c.max(1).saturating_mul(crate::id_bits(n)),
        }
    }
}

/// What happens when a message exceeds the [`Budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestMode {
    /// Queue the overflow: a `b`-bit message on a `B`-bit edge takes
    /// `⌈b/B⌉` rounds to cross, so violations become honest extra
    /// latency, recorded in `NetStats::deferred_bits`.
    #[default]
    Degrade,
    /// Panic on the first violation (conformance testing). The panic
    /// message contains `"CONGEST"`.
    Strict,
}

/// Did a node crash, or rejoin after its crash?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The node stops (crash-stop): not stepped, mail discarded.
    Crash,
    /// The node resumes with its pre-crash state.
    Rejoin,
}

/// One pre-sampled crash-fault event. The schedule is derived from
/// `(seed, crash_p, rejoin_after)` alone — [`FaultPlan::crash_schedule`]
/// is the single source of truth shared by the simulator and by
/// harnesses (e.g. `dchurn`) that convert crashes into churn events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Round at whose start the event applies.
    pub round: u64,
    /// The affected node.
    pub node: NodeId,
    /// Crash or rejoin.
    pub kind: CrashKind,
}

/// One composable fault configuration: drop, burst, delay, stall,
/// crash, and CONGEST budget, all off by default ([`FaultPlan::NONE`]).
/// Setters clamp their arguments (and `debug_assert` on out-of-range
/// input), so a plan is always well-formed.
///
/// Fields are crate-private: construct through the setters so the
/// clamping contract cannot be bypassed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-message Bernoulli drop probability.
    pub(crate) drop_p: f64,
    /// Two-state Markov per-edge burst loss.
    pub(crate) burst: Option<Markov>,
    /// Max per-message delay in rounds (uniform in `0..=delay_max`).
    pub(crate) delay_max: u64,
    /// Per-message stall probability (per-round partial delivery: in
    /// expectation a δ-fraction of that round's messages slip a round).
    pub(crate) stall_p: f64,
    /// Per-node per-round crash probability (geometric first-crash
    /// rounds, pre-sampled).
    pub(crate) crash_p: f64,
    /// Rounds until a crashed node rejoins (0 = never).
    pub(crate) rejoin_after: u64,
    /// Per-edge per-round bit budget.
    pub(crate) budget: Budget,
    /// Strict (panic) vs. degrade (queue) budget enforcement.
    pub(crate) congest: CongestMode,
}

impl FaultPlan {
    /// The fault-free plan (every knob off).
    pub const NONE: FaultPlan = FaultPlan {
        drop_p: 0.0,
        burst: None,
        delay_max: 0,
        stall_p: 0.0,
        crash_p: 0.0,
        rejoin_after: 0,
        budget: Budget::Unlimited,
        congest: CongestMode::Degrade,
    };

    /// Uniform Bernoulli message drop with probability `p`: every
    /// message is dropped independently *after* being charged to the
    /// statistics (the sender paid for it).
    pub fn drop(p: f64) -> FaultPlan {
        FaultPlan::NONE.with_drop(p)
    }

    /// Set the per-message drop probability (clamped to `[0, 1]`).
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} outside [0, 1]"
        );
        self.drop_p = clamped01(p);
        self
    }

    /// Enable two-state Markov burst loss (probabilities clamped).
    pub fn with_burst(mut self, fail: f64, repair: f64) -> FaultPlan {
        debug_assert!(
            (0.0..=1.0).contains(&fail) && (0.0..=1.0).contains(&repair),
            "burst probabilities ({fail}, {repair}) outside [0, 1]"
        );
        self.burst = Some(Markov {
            fail: clamped01(fail),
            repair: clamped01(repair),
        });
        self
    }

    /// Bound per-message delay: each delivered message is held for a
    /// uniform `0..=max_rounds` extra rounds (clamped to
    /// [`MAX_DELAY_ROUNDS`]).
    pub fn with_delay(mut self, max_rounds: u64) -> FaultPlan {
        debug_assert!(
            max_rounds <= MAX_DELAY_ROUNDS,
            "delay bound {max_rounds} exceeds MAX_DELAY_ROUNDS"
        );
        self.delay_max = max_rounds.min(MAX_DELAY_ROUNDS);
        self
    }

    /// Per-round partial delivery: each message independently stalls
    /// one extra round with probability `p` (clamped to `[0, 1]`).
    pub fn with_stall(mut self, p: f64) -> FaultPlan {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "stall probability {p} outside [0, 1]"
        );
        self.stall_p = clamped01(p);
        self
    }

    /// Crash-stop node faults: each node's first-crash round is
    /// geometric with per-round probability `p` (clamped). With
    /// `rejoin_after > 0` a crashed node resumes — stale state and all
    /// — after that many rounds; 0 means crashes are permanent.
    pub fn with_crash(mut self, p: f64, rejoin_after: u64) -> FaultPlan {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "crash probability {p} outside [0, 1]"
        );
        self.crash_p = clamped01(p);
        self.rejoin_after = rejoin_after;
        self
    }

    /// Enforce a per-edge per-round bit budget (default mode:
    /// [`CongestMode::Degrade`]).
    pub fn with_budget(mut self, budget: Budget) -> FaultPlan {
        self.budget = budget;
        self
    }

    /// Switch budget enforcement to [`CongestMode::Strict`] (panic on
    /// the first violation).
    pub fn strict(mut self) -> FaultPlan {
        self.congest = CongestMode::Strict;
        self
    }

    /// Is any fault class enabled?
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.burst.is_some()
            || self.delay_max > 0
            || self.stall_p > 0.0
            || self.crash_p > 0.0
            || self.budget != Budget::Unlimited
    }

    /// Does this plan break the synchronous-round abstraction — can a
    /// message arrive later than the next round, or a node vanish
    /// mid-run? Pure drop (and strict budgets, which panic rather than
    /// defer) keep synchrony: every surviving message still arrives
    /// exactly one round after it was sent. Algorithms that extract
    /// their result from paired per-node agreement need the
    /// agreement-based (bounded-run) extraction exactly when this is
    /// true.
    pub fn breaks_synchrony(&self) -> bool {
        self.delay_max > 0
            || self.stall_p > 0.0
            || self.crash_p > 0.0
            || self.burst.is_some()
            || (self.budget != Budget::Unlimited && self.congest == CongestMode::Degrade)
    }

    /// The per-message drop probability (reads back what
    /// [`FaultPlan::with_drop`] stored, post-clamping).
    pub fn drop_p(&self) -> f64 {
        self.drop_p
    }

    /// The delay bound in rounds (0 = no delay).
    pub fn delay_max(&self) -> u64 {
        self.delay_max
    }

    /// The rejoin delay in rounds (0 = crashes are permanent).
    pub fn rejoin_after(&self) -> u64 {
        self.rejoin_after
    }

    /// Pre-sample the full crash/rejoin schedule for a network of `n`
    /// nodes under `seed`: each node draws a geometric first-crash
    /// round from the dedicated crash stream, in node order, and the
    /// events come back sorted by `(round, node, kind)` with rejoins
    /// after crashes. Deterministic — this is the single source of
    /// truth for both the simulator's crash application and any
    /// harness converting crashes into churn events.
    pub fn crash_schedule(&self, seed: u64, n: usize) -> Vec<CrashEvent> {
        if self.crash_p <= 0.0 {
            return Vec::new();
        }
        let mut rng = SplitMix64::for_node(seed, STREAM_CRASH);
        let mut events = Vec::with_capacity(if self.rejoin_after > 0 { 2 * n } else { n });
        for v in 0..n {
            let u = rng.f64();
            // Geometric first-success round: P(round = 0) = p.
            // `u < 1` always, so `1 - u > 0` and the log is finite;
            // the `as u64` cast saturates huge survival times.
            let round = if self.crash_p >= 1.0 {
                0
            } else {
                ((1.0 - u).ln() / (1.0 - self.crash_p).ln()).floor() as u64
            };
            events.push(CrashEvent {
                round,
                node: v as NodeId,
                kind: CrashKind::Crash,
            });
            if self.rejoin_after > 0 {
                events.push(CrashEvent {
                    round: round.saturating_add(self.rejoin_after),
                    node: v as NodeId,
                    kind: CrashKind::Rejoin,
                });
            }
        }
        events.sort_by_key(|e| (e.round, e.node, e.kind == CrashKind::Rejoin));
        events
    }
}

/// A payload in the holding ring: taken out of its slab slot at its
/// original delivery round, re-injected into the same (sender-side)
/// slot at `due`.
pub(crate) struct Parked<M> {
    /// First round the payload may be read (postponed +1 whenever the
    /// slot is occupied by a fresh send at that round).
    pub(crate) due: u64,
    /// Global slot index (sender's `port_base + port`) — the same slot
    /// the receiver reads through `reverse_port`.
    pub(crate) slot: usize,
    /// Receiver node (for the halted/crashed discard check and inbox
    /// accounting at injection).
    pub(crate) to: NodeId,
    /// Park order, tiebreaker of the deterministic `(slot, seq)`
    /// injection order.
    pub(crate) seq: u64,
    /// The payload; `None` only transiently during injection.
    pub(crate) msg: Option<M>,
}

/// The runtime state of one network's adversary: the installed plan,
/// the per-fault-class RNG streams, burst link states, the holding
/// ring, and the pre-sampled crash schedule.
///
/// Buffers here are deliberately **not** charged to the message-plane
/// allocation gauge (like the parallel executor's scratch): enabling
/// faults must not shift the `plane_allocs` counters committed in
/// BENCH records.
pub(crate) struct Adversary<M> {
    pub(crate) plan: FaultPlan,
    /// The seed of the last [`crate::Network::new`] or
    /// [`crate::Network::rearm`].
    seed: u64,
    /// Bernoulli drop stream — the legacy `loss_rng` (same derivation,
    /// same consumption points), so pure-drop plans replay old lossy
    /// runs bit-for-bit.
    pub(crate) drop_rng: SplitMix64,
    pub(crate) burst_rng: SplitMix64,
    pub(crate) delay_rng: SplitMix64,
    pub(crate) stall_rng: SplitMix64,
    /// Per-slot burst state (`true` = link down); empty unless the
    /// plan has a burst model.
    pub(crate) burst_down: Vec<bool>,
    /// The holding ring of delayed payloads.
    pub(crate) parked: Vec<Parked<M>>,
    parked_seq: u64,
    /// Pre-sampled crash/rejoin events, sorted by round.
    crash_events: Vec<CrashEvent>,
    crash_next: usize,
    /// `crashed[v]` = `v` is down and pending a rejoin (or down
    /// forever); empty unless the plan has crash faults.
    crashed: Vec<bool>,
    /// Resolved per-edge per-round budget (`u64::MAX` = unlimited).
    pub(crate) budget_bits: u64,
}

impl<M> Adversary<M> {
    /// A fault-free adversary for a network seeded with `seed`. The
    /// drop stream is derived eagerly so the legacy construction order
    /// (`loss_rng` at network birth) is preserved.
    pub(crate) fn new(seed: u64) -> Self {
        Adversary {
            plan: FaultPlan::NONE,
            seed,
            drop_rng: SplitMix64::for_node(seed, STREAM_DROP),
            burst_rng: SplitMix64::for_node(seed, STREAM_BURST),
            delay_rng: SplitMix64::for_node(seed, STREAM_DELAY),
            stall_rng: SplitMix64::for_node(seed, STREAM_STALL),
            burst_down: Vec::new(),
            parked: Vec::new(),
            parked_seq: 0,
            crash_events: Vec::new(),
            crash_next: 0,
            crashed: Vec::new(),
            budget_bits: u64::MAX,
        }
    }

    /// Install `plan`, (re)deriving all plan-dependent state from the
    /// seed and topology. Installation is a pre-run builder step:
    /// streams are reset to their origins, so installing the same plan
    /// twice is idempotent.
    pub(crate) fn install(&mut self, plan: FaultPlan, topo: &Topology) {
        self.plan = plan;
        self.drop_rng = SplitMix64::for_node(self.seed, STREAM_DROP);
        self.burst_rng = SplitMix64::for_node(self.seed, STREAM_BURST);
        self.delay_rng = SplitMix64::for_node(self.seed, STREAM_DELAY);
        self.stall_rng = SplitMix64::for_node(self.seed, STREAM_STALL);
        self.burst_down.clear();
        if plan.burst.is_some() {
            self.burst_down.resize(topo.total_ports(), false);
        }
        self.parked.clear();
        self.parked_seq = 0;
        self.crash_events = plan.crash_schedule(self.seed, topo.len());
        self.crash_next = 0;
        self.crashed.clear();
        if plan.crash_p > 0.0 {
            self.crashed.resize(topo.len(), false);
        }
        self.budget_bits = plan.budget.effective_bits(topo.len());
    }

    /// Re-derive all state from `seed` under the installed plan, as a
    /// fresh adversary of that seed would after the same `install`
    /// ([`crate::Network::rearm`]).
    pub(crate) fn rearm(&mut self, seed: u64, topo: &Topology) {
        self.seed = seed;
        self.install(self.plan, topo);
    }

    /// Is any fault class live (fast-path check for the delivery sweep)?
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// True once the holding ring has no parked payloads left.
    #[inline]
    pub(crate) fn parked_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Is node `v` currently crashed (down, possibly pending rejoin)?
    #[inline]
    pub(crate) fn is_crashed(&self, v: usize) -> bool {
        self.crashed.get(v).copied().unwrap_or(false)
    }

    /// Mark `v` crashed. Returns false if the plan has no crash state
    /// (defensive; callers only reach this off a scheduled event).
    pub(crate) fn set_crashed(&mut self, v: usize, down: bool) {
        if let Some(c) = self.crashed.get_mut(v) {
            *c = down;
        }
    }

    /// Pop the next crash/rejoin event due at or before `round`, if any.
    pub(crate) fn next_crash(&mut self, round: u64) -> Option<CrashEvent> {
        let ev = *self.crash_events.get(self.crash_next)?;
        if ev.round <= round {
            self.crash_next += 1;
            Some(ev)
        } else {
            None
        }
    }

    /// Are there crash events at all (fast path for the per-step hook)?
    #[inline]
    pub(crate) fn has_crash_events(&self) -> bool {
        self.crash_next < self.crash_events.len()
    }

    /// Advance every edge's two-state burst chain by one round. One
    /// draw per slot per round, in slot order, only while a burst model
    /// is installed — so enabling bursts is the only thing that
    /// consumes the burst stream.
    pub(crate) fn evolve_bursts(&mut self) {
        let Some(markov) = self.plan.burst else {
            return;
        };
        for down in &mut self.burst_down {
            let p = if *down { markov.repair } else { markov.fail };
            if self.burst_rng.bernoulli(p) {
                *down = !*down;
            }
        }
    }

    /// Park a payload until `due`.
    pub(crate) fn park(&mut self, due: u64, slot: usize, to: NodeId, msg: M) {
        self.parked.push(Parked {
            due,
            slot,
            to,
            seq: self.parked_seq,
            msg: Some(msg),
        });
        self.parked_seq += 1;
    }

    /// Migrate adversary state across a topology change: burst states
    /// follow their surviving slots, parked payloads on removed edges
    /// are dropped (matching the slab remap's rule for in-flight mail).
    pub(crate) fn on_rewire(&mut self, patch: &TopologyPatch) {
        if self.plan.burst.is_some() {
            let mut down = vec![false; patch.topo.total_ports()];
            for (old, was_down) in self.burst_down.iter().enumerate() {
                if *was_down {
                    if let Some(new) = patch.new_slot(old) {
                        down[new] = true;
                    }
                }
            }
            self.burst_down = down;
        }
        self.parked.retain_mut(|e| match patch.new_slot(e.slot) {
            Some(new) => {
                e.slot = new;
                true
            }
            None => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped01_maps_out_of_range_and_nan() {
        assert_eq!(clamped01(-0.5), 0.0);
        assert_eq!(clamped01(1.5), 1.0);
        assert_eq!(clamped01(0.25), 0.25);
        assert_eq!(clamped01(f64::NAN), 0.0);
        assert_eq!(clamped01(f64::INFINITY), 1.0);
        assert_eq!(clamped01(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn with_drop_debug_asserts_range() {
        let _ = FaultPlan::drop(1.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn with_crash_debug_asserts_range() {
        let _ = FaultPlan::NONE.with_crash(-0.1, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "MAX_DELAY_ROUNDS")]
    fn with_delay_debug_asserts_bound() {
        let _ = FaultPlan::NONE.with_delay(MAX_DELAY_ROUNDS + 1);
    }

    #[test]
    fn none_plan_is_inactive_and_synchronous() {
        assert!(!FaultPlan::NONE.is_active());
        assert!(!FaultPlan::NONE.breaks_synchrony());
    }

    #[test]
    fn pure_drop_keeps_synchrony_but_is_active() {
        let p = FaultPlan::drop(0.2);
        assert!(p.is_active());
        assert!(!p.breaks_synchrony());
        assert_eq!(p.drop_p(), 0.2);
    }

    #[test]
    fn asynchrony_classes_are_detected() {
        assert!(FaultPlan::NONE.with_delay(3).breaks_synchrony());
        assert!(FaultPlan::NONE.with_stall(0.1).breaks_synchrony());
        assert!(FaultPlan::NONE.with_crash(0.01, 5).breaks_synchrony());
        assert!(FaultPlan::NONE.with_burst(0.1, 0.5).breaks_synchrony());
        // Degrade-mode budgets defer bits into later rounds…
        assert!(FaultPlan::NONE
            .with_budget(Budget::Bits(64))
            .breaks_synchrony());
        // …strict budgets panic instead of deferring.
        assert!(!FaultPlan::NONE
            .with_budget(Budget::Bits(64))
            .strict()
            .breaks_synchrony());
    }

    #[test]
    fn budget_resolution() {
        assert_eq!(Budget::Unlimited.effective_bits(1000), u64::MAX);
        assert_eq!(Budget::Bits(96).effective_bits(1000), 96);
        // id_bits(1024) = 10.
        assert_eq!(Budget::LogN(4).effective_bits(1024), 40);
        // Degenerate budgets are floored at one bit / one word.
        assert_eq!(Budget::Bits(0).effective_bits(10), 1);
    }

    #[test]
    fn crash_schedule_is_deterministic_sorted_and_paired() {
        let plan = FaultPlan::NONE.with_crash(0.05, 7);
        let a = plan.crash_schedule(42, 50);
        let b = plan.crash_schedule(42, 50);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(a.windows(2).all(|w| w[0].round <= w[1].round), "sorted");
        // Every node crashes exactly once and rejoins exactly once,
        // rejoin_after rounds later.
        let crashes: Vec<_> = a.iter().filter(|e| e.kind == CrashKind::Crash).collect();
        let rejoins: Vec<_> = a.iter().filter(|e| e.kind == CrashKind::Rejoin).collect();
        assert_eq!(crashes.len(), 50);
        assert_eq!(rejoins.len(), 50);
        for c in crashes {
            assert!(rejoins
                .iter()
                .any(|r| r.node == c.node && r.round == c.round + 7));
        }
        let c = plan.crash_schedule(43, 50);
        assert_ne!(a, c, "different seeds must give different schedules");
    }

    #[test]
    fn crash_schedule_certain_crash_hits_round_zero() {
        let plan = FaultPlan::NONE.with_crash(1.0, 0);
        let sched = plan.crash_schedule(9, 4);
        assert_eq!(sched.len(), 4);
        assert!(sched.iter().all(|e| e.round == 0));
    }

    #[test]
    fn crash_schedule_empty_without_crash_faults() {
        assert!(FaultPlan::drop(0.5).crash_schedule(1, 100).is_empty());
    }

    #[test]
    fn setters_clamp_in_release_semantics() {
        // Exercise the clamping helper through the public surface with
        // in-range values (out-of-range trips the debug_assert above);
        // the helper itself is tested for the release-mode clamp.
        let p = FaultPlan::drop(1.0).with_stall(0.0).with_delay(5);
        assert_eq!(p.drop_p(), 1.0);
        assert_eq!(p.delay_max(), 5);
    }
}
