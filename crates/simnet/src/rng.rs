//! Deterministic random number generation.
//!
//! Every node in a [`crate::Network`] owns an independent RNG stream
//! derived from the master seed and the node id via SplitMix64. This
//! makes runs reproducible bit-for-bit, independent of whether nodes are
//! stepped sequentially or in parallel.

/// SplitMix64 (Steele, Lea, Flood 2014): a tiny, fast, high-quality
/// 64-bit generator. Used both directly (node RNG streams) and as a seed
/// scrambler.
///
/// Not cryptographically secure — this is a simulation RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive the RNG stream for node `id` under master seed `seed`.
    ///
    /// The state of a SplitMix64 is a `+γ` counter, so *every* stream
    /// walks the same 2⁶⁴-cycle output orbit — two streams differ only
    /// in their starting offset. Seeding node streams at the raw
    /// `seed ^ id·γ` (as earlier revisions did) puts nodes at
    /// *adjacent* offsets: node id+2 replays node id's outputs two
    /// steps later, and two neighbors that consume outputs at a
    /// state-dependent rate (e.g. one draw when "female", two when
    /// "male" in Israeli–Itai-style protocols) perform a ±1 random
    /// walk on their offset difference — which locks them into
    /// identical coin flips forever the first time it hits zero.
    /// Jumping through one scrambler application instead places each
    /// `(seed, id)` pair at a pseudorandom orbit offset, separating
    /// streams by ~2⁶³ positions in expectation.
    pub fn for_node(seed: u64, id: u64) -> Self {
        let mut scrambler = SplitMix64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64::new(scrambler.next())
    }

    /// Next raw 64-bit output.
    ///
    /// Deliberately named `next` (the SplitMix64 literature's name).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Uses Lemire's multiply-shift
    /// rejection method to avoid modulo bias.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// Registry of every reserved RNG stream id in the workspace.
///
/// [`SplitMix64::for_node`] takes a stream id; per-node protocol
/// streams use the node id itself, and every *non-node* consumer
/// (churn schedule, adversary fault classes, switch traffic, …) must
/// reserve a named id here instead of inventing a magic literal at the
/// call site — scattered literals are exactly what the `rng-hygiene`
/// dlint rule rejects.
///
/// The values are **frozen**: committed `BENCH_*.json` records and
/// golden traces were produced with them, so renumbering is a silent
/// bit-identity break. The low ids predate this registry and collide
/// with node streams only on graphs larger than the current stress
/// ceiling (smallest is `SWITCH_TRAFFIC` = 0x7AFF = 31 743 nodes,
/// vs. 2¹⁵ node stress topologies). New streams must come from the
/// high block counting down from `u64::MAX` (next free:
/// `u64::MAX - 5`), which no realizable node id reaches. `u64::MAX - 1`
/// belonged to the retired burst-loss link model; leave it unused.
pub mod streams {
    /// Adversary: per-message drop coin flips.
    pub const ADV_DROP: u64 = u64::MAX;
    /// Adversary: per-message delay jitter.
    pub const ADV_DELAY: u64 = u64::MAX - 2;
    /// Adversary: per-message stall coin flips, one for each message
    /// that is neither dropped nor addressed to a halted node.
    pub const ADV_STALL: u64 = u64::MAX - 3;
    /// Adversary: every node's geometric first-crash round, one draw
    /// per node in node order when the plan is installed.
    pub const ADV_CRASH: u64 = u64::MAX - 4;
    /// Dynamic plane: churn arrival/departure schedule.
    pub const CHURN: u64 = 0xC4A7;
    /// Core: per-phase path ranks of the generic conflict-graph MIS.
    pub const GENERIC_MIS: u64 = 0xA160;
    /// Core: the general-graph algorithm's red/blue colorings, one bit
    /// per node per sampling iteration, in node order.
    pub const GENERAL_COLOR: u64 = 0x000C_010B;
    /// Switch plane: scheduler tie-breaking.
    pub const SWITCH_SCHED: u64 = 0x9147;
    /// Switch plane: synthetic traffic arrivals.
    pub const SWITCH_TRAFFIC: u64 = 0x7AFF;

    /// Every reserved id, for the distinctness test and for docs.
    pub const ALL: [(&str, u64); 9] = [
        ("ADV_DROP", ADV_DROP),
        ("ADV_DELAY", ADV_DELAY),
        ("ADV_STALL", ADV_STALL),
        ("ADV_CRASH", ADV_CRASH),
        ("CHURN", CHURN),
        ("GENERIC_MIS", GENERIC_MIS),
        ("GENERAL_COLOR", GENERAL_COLOR),
        ("SWITCH_SCHED", SWITCH_SCHED),
        ("SWITCH_TRAFFIC", SWITCH_TRAFFIC),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::for_node(7, 3);
        let mut b = SplitMix64::for_node(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn distinct_nodes_get_distinct_streams() {
        let mut a = SplitMix64::for_node(7, 3);
        let mut b = SplitMix64::for_node(7, 4);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn node_streams_are_not_shifted_copies() {
        // Regression: with raw `seed ^ id·γ` seeding, node id+2's
        // stream was node id's stream advanced by exactly two outputs,
        // which let adjacent protocol nodes lock into identical coin
        // sequences. No small shift may reproduce one stream from
        // another.
        for (a_id, b_id) in [(1u64, 3u64), (0, 1), (2, 7)] {
            let a: Vec<u64> = {
                let mut r = SplitMix64::for_node(5, a_id);
                (0..48).map(|_| r.next()).collect()
            };
            let b: Vec<u64> = {
                let mut r = SplitMix64::for_node(5, b_id);
                (0..48).map(|_| r.next()).collect()
            };
            for shift in 0..16 {
                assert!(
                    a[shift..shift + 16] != b[..16],
                    "stream {b_id} replays stream {a_id} at shift {shift}"
                );
                assert!(
                    b[shift..shift + 16] != a[..16],
                    "stream {a_id} replays stream {b_id} at shift {shift}"
                );
            }
        }
    }

    #[test]
    fn reserved_stream_ids_are_pairwise_distinct() {
        for (i, &(na, a)) in streams::ALL.iter().enumerate() {
            for &(nb, b) in &streams::ALL[i + 1..] {
                assert_ne!(a, b, "streams {na} and {nb} share id {a:#x}");
            }
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_mean_is_close() {
        let mut r = SplitMix64::new(5);
        let hits = (0..20_000).filter(|_| r.bernoulli(0.3)).count();
        let mean = hits as f64 / 20_000.0;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean} too far from 0.3");
    }
}
