//! Round / message / bit accounting.
//!
//! The statistics collected here are the quantities the paper's theorems
//! bound: total rounds, messages, bits, and — crucially for the CONGEST
//! results (Theorems 3.8, 3.11, 4.5) — the maximum size of any single
//! message.

/// Per-round record: messages sent plus the message-plane gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Messages sent in this round.
    pub messages: u64,
    /// Largest single inbox produced by this round's deliveries.
    pub peak_inbox: u64,
    /// Heap allocations performed by the message plane during this
    /// round. The plane preallocates everything at network construction
    /// (charged to the first round the network runs; a re-arm allocates
    /// nothing), and a rewire migrates the slabs in
    /// place (charged to the next round only when it grows a slab past
    /// its capacity), so the steady-state value is 0 — future changes
    /// that reintroduce per-round allocation show up here and can be
    /// regressed against.
    pub plane_allocs: u64,
    /// Nodes actually stepped this round. Identical between the dense
    /// and sparse representations (they step the same set by contract);
    /// the sparse plane's round cost is proportional to this, not to `n`.
    pub active: u64,
    /// Scheduler slots examined that did *not* result in a step: the
    /// dense sweep charges `n - active` here (the cost the sparse plane
    /// removes), the sparse drain charges its stale wake-list entries
    /// (normally 0). The only gauge that depends on the representation,
    /// which the judge picks from node counts alone, so it reproduces
    /// like every other field.
    pub sched_overhead: u64,
}

/// Histogram names of the per-phase wall-clock breakdown recorded
/// into [`NetStats::timings`] when [`crate::ExecCfg::timing`] is set,
/// in the style of parlay's LDD `BREAKDOWN` timers: where does a round
/// actually spend its time once the judge switches representations?
///
/// One sample is recorded per round (or per conversion/merge), so
/// each histogram carries the *distribution* — `sum()` recovers the
/// old scalar accumulators, `p50()`/`p99()` expose the per-round tail
/// the scalars hid. The bespoke `PhaseTimings` struct this replaces
/// lived here until the `dobs` registry subsumed it.
pub mod timing {
    /// Rounds stepped in the sparse (wake-list) representation,
    /// including the wake-list sort and drain. One sample per round.
    pub const SPARSE_UPDATE_NS: &str = "sparse_update_ns";
    /// Rounds stepped in the dense (flag-sweep) representation. One
    /// sample per round.
    pub const DENSE_UPDATE_NS: &str = "dense_update_ns";
    /// Representation conversions (the dense→sparse wake-list
    /// rebuild; sparse→dense is free and charges nothing). One sample
    /// per downswitch.
    pub const CONVERSION_NS: &str = "conversion_ns";
    /// The parallel executor's per-worker scratch merge (sender
    /// lists, halt counters) after the join. Also included in the
    /// update samples above, which time the whole round; this isolates
    /// the sequential tail. One sample per parallel (dense) round.
    pub const MERGE_NS: &str = "merge_ns";
}

/// Cumulative network statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total synchronous rounds executed.
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_msg_bits: u64,
    /// Largest single inbox observed in any round.
    pub peak_inbox: u64,
    /// Total message-plane allocations (construction, plus rewires
    /// that grow a slab past its capacity; a constant per network in
    /// steady state).
    pub plane_allocs: u64,
    /// Total node steps executed (sum of [`RoundTrace::active`]). In the
    /// sparse representation this is the quantity round cost is
    /// proportional to; `node_steps ≪ rounds · n` is the asymptotic
    /// win the activity-driven plane delivers.
    pub node_steps: u64,
    /// Total scheduler overhead (sum of [`RoundTrace::sched_overhead`]).
    pub sched_overhead: u64,
    /// Messages dropped by the adversary plane (Bernoulli drops; mail
    /// to halted nodes is *not* counted here — it was deliverable, the
    /// receiver just left).
    pub dropped: u64,
    /// Messages parked in the adversary's holding ring (delay, stall,
    /// or degrade-mode budget overflow) instead of arriving next round.
    pub delayed: u64,
    /// Bits carried past their send round by degrade-mode CONGEST
    /// enforcement (`max(0, bits - budget)` per violating message).
    pub deferred_bits: u64,
    /// Crash-stop node faults applied (rejoins are not counted; each
    /// node crashes at most once per run).
    pub crashed: u64,
    /// Per-phase wall-clock breakdown: a [`dobs::Registry`] of
    /// nanosecond histograms under the [`timing`] names (empty unless
    /// [`crate::ExecCfg::timing`] is set). The one field outside the
    /// bit-identity contract: identity suites leave timing off, so it
    /// stays empty.
    pub timings: dobs::Registry,
    /// Messages per round, in order.
    pub per_round: Vec<RoundTrace>,
}

impl NetStats {
    /// Record one message of `bits` bits.
    #[inline]
    pub fn record_message(&mut self, bits: u64) {
        self.messages += 1;
        self.bits += bits;
        if bits > self.max_msg_bits {
            self.max_msg_bits = bits;
        }
    }

    /// Record `count` messages of `bits` bits each in one step (used by
    /// harnesses that charge emulated traffic in bulk).
    #[inline]
    pub fn record_messages(&mut self, count: u64, bits: u64) {
        self.messages += count;
        self.bits += count * bits;
        if count > 0 && bits > self.max_msg_bits {
            self.max_msg_bits = bits;
        }
    }

    /// Close out a round in which `messages` messages were sent (used
    /// by harnesses that charge emulated rounds; gauges default to 0).
    #[inline]
    pub fn record_round(&mut self, messages: u64) {
        self.rounds += 1;
        self.per_round.push(RoundTrace {
            messages,
            ..RoundTrace::default()
        });
    }

    /// Close out a round with its message-plane and scheduler gauges
    /// (used by the simulator's delivery path).
    #[inline]
    pub fn record_round_gauges(
        &mut self,
        messages: u64,
        peak_inbox: u64,
        plane_allocs: u64,
        active: u64,
        sched_overhead: u64,
    ) {
        self.rounds += 1;
        self.peak_inbox = self.peak_inbox.max(peak_inbox);
        self.plane_allocs += plane_allocs;
        self.node_steps += active;
        self.sched_overhead += sched_overhead;
        self.per_round.push(RoundTrace {
            messages,
            peak_inbox,
            plane_allocs,
            active,
            sched_overhead,
        });
    }

    /// Fold another stats block into this one (used when an algorithm is
    /// composed of phases, each run as its own network execution).
    pub fn absorb(&mut self, other: &NetStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_msg_bits = self.max_msg_bits.max(other.max_msg_bits);
        self.peak_inbox = self.peak_inbox.max(other.peak_inbox);
        self.plane_allocs += other.plane_allocs;
        self.node_steps += other.node_steps;
        self.sched_overhead += other.sched_overhead;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.deferred_bits += other.deferred_bits;
        self.crashed += other.crashed;
        self.timings.absorb(&other.timings);
        self.per_round.extend_from_slice(&other.per_round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_absorb() {
        let mut a = NetStats::default();
        a.record_message(10);
        a.record_message(30);
        a.record_round(2);
        assert_eq!(a.rounds, 1);
        assert_eq!(a.messages, 2);
        assert_eq!(a.bits, 40);
        assert_eq!(a.max_msg_bits, 30);

        let mut b = NetStats::default();
        b.record_message(50);
        b.record_round(1);
        a.absorb(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bits, 90);
        assert_eq!(a.max_msg_bits, 50);
        assert_eq!(a.per_round.len(), 2);
    }

    #[test]
    fn absorb_carries_adversary_gauges() {
        let mut a = NetStats {
            dropped: 3,
            delayed: 2,
            deferred_bits: 40,
            crashed: 1,
            ..NetStats::default()
        };
        let b = NetStats {
            dropped: 5,
            delayed: 1,
            deferred_bits: 60,
            crashed: 2,
            ..NetStats::default()
        };
        a.absorb(&b);
        assert_eq!(
            (a.dropped, a.delayed, a.deferred_bits, a.crashed),
            (8, 3, 100, 3)
        );
    }
}
