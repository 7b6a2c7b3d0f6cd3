//! Randomized property tests for the simulator core: delivery symmetry,
//! aggregate correctness, and sequential/parallel equivalence on
//! randomized topologies.
//!
//! Dependency-free: cases are enumerated from seeded `SplitMix64`
//! streams, so every run explores the same (deterministic) case set.

use simnet::tree::{aggregate, AggOp};
use simnet::{Ctx, ExecCfg, FaultPlan, Inbox, Network, Protocol, SplitMix64, Topology};

/// Random connected topology: a path backbone plus random chords.
fn random_connected(n: usize, chords: usize, seed: u64) -> Topology {
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    for _ in 0..chords {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        let (a, b) = (u.min(v), u.max(v));
        if a != b && b != a + 1 && !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }
    Topology::from_edges(n, &edges)
}

/// Echo protocol: every node sends its id for `ttl` rounds and records
/// a rolling hash of everything it hears, with RNG salt.
struct Echo {
    acc: u64,
    ttl: u64,
}
impl Protocol for Echo {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
        for e in inbox.iter() {
            self.acc = self.acc.rotate_left(9) ^ *e.msg ^ (e.port as u64);
        }
        if ctx.round() < self.ttl {
            let salt = ctx.rng().next();
            ctx.send_all(self.acc ^ salt);
        } else {
            ctx.halt();
        }
    }
}

/// Deterministic case generator shared by all tests below.
fn cases(tag: u64, count: usize) -> impl Iterator<Item = (usize, usize, u64)> {
    let mut rng = SplitMix64::new(0xCA5E ^ tag);
    (0..count).map(move |_| {
        let n = 2 + rng.below(48) as usize;
        let chords = rng.below(24) as usize;
        let seed = rng.next();
        (n, chords, seed)
    })
}

#[test]
fn aggregate_sum_and_max_are_exact() {
    for (n, chords, seed) in cases(1, 24) {
        let topo = random_connected(n, chords, seed);
        let values: Vec<u64> = (0..n as u64).map(|i| (i * 37 + seed) % 1000).collect();
        let (sum, _) = aggregate(&topo, &values, AggOp::Sum);
        assert_eq!(sum, values.iter().sum::<u64>());
        let (max, stats) = aggregate(&topo, &values, AggOp::Max);
        assert_eq!(max, *values.iter().max().unwrap());
        // O(D) ≤ O(n) rounds with a small constant.
        assert!(stats.rounds <= 3 * n as u64 + 8);
    }
}

#[test]
fn parallel_stepping_is_bit_identical() {
    for (i, (n, chords, seed)) in cases(2, 24).enumerate() {
        let n = n.max(4);
        let threads = 2 + i % 5;
        let topo = random_connected(n, chords, seed);
        let mk = || (0..n).map(|_| Echo { acc: 0, ttl: 12 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), seed);
        seq.run_until_halt(64);
        let mut par = Network::new(topo, mk(), seed).with_cfg(ExecCfg::parallel(threads).forced());
        par.run_until_halt(64);
        for (a, b) in seq.nodes().iter().zip(par.nodes()) {
            assert_eq!(a.acc, b.acc);
        }
        assert_eq!(
            seq.stats(),
            par.stats(),
            "full NetStats must agree (n={n}, t={threads})"
        );
    }
}

#[test]
fn message_conservation() {
    for (n, chords, seed) in cases(3, 24) {
        // With no halting, every sent message is delivered exactly once:
        // per-round trace sums equal the total.
        let topo = random_connected(n, chords, seed);
        let mk = || (0..n).map(|_| Echo { acc: 1, ttl: 6 }).collect::<Vec<_>>();
        let mut net = Network::new(topo, mk(), seed);
        net.run_until_halt(64);
        let traced: u64 = net.stats().per_round.iter().map(|r| r.messages).sum();
        assert_eq!(traced, net.stats().messages);
    }
}

#[test]
fn reverse_ports_consistent() {
    for (n, chords, seed) in cases(4, 24) {
        let topo = random_connected(n, chords, seed);
        for v in 0..n as u32 {
            for p in 0..topo.degree(v) {
                let u = topo.neighbor(v, p);
                let q = topo.reverse_port(v, p);
                assert_eq!(topo.neighbor(u, q), v);
            }
        }
    }
}

#[test]
fn plane_gauges_are_steady_state_zero() {
    // Message-plane allocation happens only at construction; the gauge
    // must read zero for every round after the first, sequential or
    // parallel, reliable or lossy.
    for (n, chords, seed) in cases(5, 12) {
        let n = n.max(4);
        let topo = random_connected(n, chords, seed);
        let mk = || (0..n).map(|_| Echo { acc: 0, ttl: 10 }).collect::<Vec<_>>();
        for threads in [1usize, 4] {
            let cfg = ExecCfg::parallel(threads).forced();
            let mut net = Network::new(topo.clone(), mk(), seed)
                .with_cfg(cfg.with_faults(FaultPlan::drop(0.05)));
            net.run_until_halt(64);
            let s = net.stats();
            assert!(
                s.per_round[1..].iter().all(|r| r.plane_allocs == 0),
                "t={threads}"
            );
            assert!((s.peak_inbox as usize) < n);
        }
    }
}
