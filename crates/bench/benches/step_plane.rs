//! `bench_step_plane` — old vs. new message plane on `gnp(50k, d̄=8)`.
//!
//! The old plane (reimplemented here verbatim as `LegacyNet`) collected
//! every sent message into a fresh global `Vec<(from, port, msg)>`,
//! pushed envelopes one-by-one into per-node inbox `Vec`s, and sorted
//! **every inbox in the network every round**. The new plane
//! (`simnet::mailbox`) writes sends into a preallocated double-buffered
//! slot slab which receivers read in place: no sort, no copy, no
//! steady-state allocation.
//!
//! Both planes drive the identical gossip protocol from identical
//! per-node RNG streams, so their final states must agree bit-for-bit
//! (asserted). A counting global allocator measures allocations per
//! round in the steady state; the run reports wall-clock and allocation
//! ratios, and asserts the ≥2× allocation reduction the plane was built
//! to deliver.
//!
//! The run also sweeps an n-ladder to locate the **sequential/parallel
//! crossover**: the smallest network at which 8-thread stepping beats
//! sequential. Below the crossover the executor's fan-out floor (one
//! worker per fixed number of expected node steps; see
//! `simnet::parallel`) keeps parallel runs on the caller's thread, so
//! "8 threads" runs the sequential code — the earlier capture of this
//! file measured a ~100x parallel *slowdown* at n=10 because every
//! round paid thread-spawn latency for five node steps.
//!
//! Knobs: `STEP_PLANE_N` (default 50000), `STEP_PLANE_ROUNDS`
//! (default 10), `STEP_PLANE_RUNS` (default 5), `STEP_PLANE_THREADS`
//! (default 8).
//!
//! Besides the human-readable table, the run writes
//! `BENCH_step_plane.json` (machine-readable: time/round in ns and
//! allocs/round per plane, plus the crossover ladder) so the perf
//! trajectory is trackable across PRs; CI uploads it as an artifact.

use bench_harness::{env_or, f2, Table};
use dgraph::generators::random::gnp;
use simnet::{Ctx, ExecCfg, Inbox, Network, NodeId, Port, Protocol, SplitMix64, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Global allocator that counts allocation events (alloc/realloc), the
/// quantity the new plane is engineered to hold at zero per round.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through wrapper around `System` — every method
// delegates with the caller's own layout/pointer arguments unchanged,
// so `System`'s contract (the layout fits the allocation, the pointer
// came from this allocator) is upheld exactly when the caller upholds
// it. The only addition is a relaxed atomic increment, which cannot
// allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same `layout` the caller passed; delegation only.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are the caller's, and every allocation
        // this wrapper hands out comes from `System`, so the pair is
        // valid for `System.dealloc` exactly when the caller's call to
        // us was valid.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `dealloc`: unmodified caller arguments, and the
        // allocation being resized originated from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same `layout` the caller passed; delegation only.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// The workload: a gossip protocol identical on both planes.
// ---------------------------------------------------------------------

#[inline]
fn fold(acc: u64, msg: u64, port: usize) -> u64 {
    acc.rotate_left(9) ^ msg ^ (port as u64)
}

struct GossipNode {
    acc: u64,
}

impl Protocol for GossipNode {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
        for e in inbox.iter() {
            self.acc = fold(self.acc, *e.msg, e.port);
        }
        let salt = ctx.rng().next();
        ctx.send_all(self.acc ^ salt);
    }
}

// ---------------------------------------------------------------------
// The old message plane, reimplemented as it was before the rewrite:
// global `sent` vector + per-inbox pushes + per-round inbox sorting.
// ---------------------------------------------------------------------

struct LegacyEnvelope {
    port: Port,
    msg: u64,
}

struct LegacyNet {
    topo: Topology,
    accs: Vec<u64>,
    rngs: Vec<SplitMix64>,
    inboxes: Vec<Vec<LegacyEnvelope>>,
}

impl LegacyNet {
    fn new(topo: Topology, seed: u64) -> Self {
        let n = topo.len();
        LegacyNet {
            topo,
            accs: vec![0; n],
            rngs: (0..n)
                .map(|v| SplitMix64::for_node(seed, v as u64))
                .collect(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    fn step(&mut self) {
        let n = self.topo.len();
        let mut sent: Vec<(NodeId, Port, u64)> = Vec::new();
        let mut out: Vec<(Port, u64)> = Vec::new();
        for v in 0..n {
            let inbox = std::mem::take(&mut self.inboxes[v]);
            for e in &inbox {
                self.accs[v] = fold(self.accs[v], e.msg, e.port);
            }
            let salt = self.rngs[v].next();
            let msg = self.accs[v] ^ salt;
            for port in 0..self.topo.degree(v as NodeId) {
                out.push((port, msg));
            }
            for (port, msg) in out.drain(..) {
                sent.push((v as NodeId, port, msg));
            }
        }
        for (from, port, msg) in sent {
            let to = self.topo.neighbor(from, port);
            let rev = self.topo.reverse_port(from, port);
            self.inboxes[to as usize].push(LegacyEnvelope { port: rev, msg });
        }
        for inbox in &mut self.inboxes {
            inbox.sort_by_key(|e| e.port);
        }
    }
}

// ---------------------------------------------------------------------

struct Measured {
    time_per_round: Duration,
    allocs_per_round: f64,
}

fn measure(rounds: u64, runs: u32, mut step: impl FnMut()) -> Measured {
    // Warmup past the cold-start rounds so only steady state is timed.
    step();
    step();
    let mut best = Duration::MAX;
    let mut alloc_total = 0u64;
    for _ in 0..runs {
        let a0 = allocs();
        let t0 = Instant::now();
        for _ in 0..rounds {
            step();
        }
        let dt = t0.elapsed();
        alloc_total += allocs() - a0;
        best = best.min(dt);
    }
    Measured {
        time_per_round: best / rounds as u32,
        allocs_per_round: alloc_total as f64 / (runs as u64 * rounds) as f64,
    }
}

fn main() {
    let n = env_or("STEP_PLANE_N", 50_000) as usize;
    let rounds = env_or("STEP_PLANE_ROUNDS", 10);
    let runs = env_or("STEP_PLANE_RUNS", 5) as u32;
    let seed = 42u64;

    println!("bench_step_plane: gnp(n={n}, d̄=8), {rounds} rounds/run, {runs} runs");
    let g = gnp(n, 8.0 / n as f64, 7);
    let topo = dmatch::topology_of(&g);
    println!(
        "  topology: {} nodes, {} edges, max degree {}",
        topo.len(),
        topo.num_edges(),
        topo.max_degree()
    );

    // -- Correctness gate: both planes, and both executors of the new
    //    plane, must produce bit-identical results.
    let check_rounds = 6;
    let mut legacy = LegacyNet::new(topo.clone(), seed);
    for _ in 0..check_rounds {
        legacy.step();
    }
    let mk = |threads: usize| {
        let nodes = (0..n).map(|_| GossipNode { acc: 0 }).collect();
        Network::new(topo.clone(), nodes, seed).with_cfg(ExecCfg::parallel(threads))
    };
    let mut seq = mk(1);
    seq.run_rounds(check_rounds);
    let mut par = mk(8);
    par.run_rounds(check_rounds);
    assert!(
        legacy
            .accs
            .iter()
            .zip(seq.nodes())
            .all(|(a, b)| *a == b.acc),
        "new plane diverged from the legacy plane"
    );
    assert!(
        seq.nodes()
            .iter()
            .zip(par.nodes())
            .all(|(a, b)| a.acc == b.acc),
        "parallel stepping diverged from sequential"
    );
    assert_eq!(seq.stats(), par.stats(), "sequential vs parallel NetStats");
    println!("  correctness: legacy == new(seq) == new(8 threads)  [bit-identical]");

    // -- Measurements.
    let mut legacy = LegacyNet::new(topo.clone(), seed);
    let m_legacy = measure(rounds, runs, || {
        legacy.step();
        black_box(&legacy.accs);
    });
    let mut net = mk(1);
    let m_new = measure(rounds, runs, || {
        net.step();
        black_box(net.nodes().len());
    });
    let mut netp = mk(8);
    let m_par = measure(rounds, runs, || {
        netp.step();
        black_box(netp.nodes().len());
    });

    let mut t = Table::new(vec!["plane", "time/round", "allocs/round"]);
    t.row(vec![
        "legacy (vec+sort)".to_string(),
        format!("{:?}", m_legacy.time_per_round),
        format!("{:.1}", m_legacy.allocs_per_round),
    ]);
    t.row(vec![
        "new (slab, seq)".to_string(),
        format!("{:?}", m_new.time_per_round),
        format!("{:.1}", m_new.allocs_per_round),
    ]);
    t.row(vec![
        "new (slab, 8 thr)".to_string(),
        format!("{:?}", m_par.time_per_round),
        format!("{:.1}", m_par.allocs_per_round),
    ]);
    t.print();

    // -- Sequential/parallel crossover sweep: smallest n where
    //    multi-thread stepping actually wins. Thanks to the fan-out
    //    throttle, sub-crossover parallel runs ride the sequential
    //    path instead of losing to thread-spawn latency.
    let threads = env_or("STEP_PLANE_THREADS", 8) as usize;
    let ladder: Vec<usize> = [500usize, 1000, 2000, 4000, 8000, 16000, 32000, 64000]
        .into_iter()
        .filter(|&x| x <= n.max(500))
        .collect();
    let mut crossover_n: Option<usize> = None;
    let mut ladder_rows = Vec::new();
    println!("\n  crossover sweep ({threads} threads vs sequential):");
    for &ln in &ladder {
        let lg = gnp(ln, 8.0 / ln as f64, 7);
        let ltopo = dmatch::topology_of(&lg);
        let mk = |threads: usize| {
            let nodes = (0..ln).map(|_| GossipNode { acc: 0 }).collect();
            Network::new(ltopo.clone(), nodes, seed).with_cfg(ExecCfg::parallel(threads))
        };
        let mut s = mk(1);
        let m_s = measure(rounds, runs, || {
            s.step();
            black_box(s.nodes().len());
        });
        let mut p = mk(threads);
        let m_p = measure(rounds, runs, || {
            p.step();
            black_box(p.nodes().len());
        });
        let ratio = m_s.time_per_round.as_secs_f64() / m_p.time_per_round.as_secs_f64();
        println!(
            "    n={ln:>6}: seq {:>9?}  par {:>9?}  ({}x)",
            m_s.time_per_round,
            m_p.time_per_round,
            f2(ratio)
        );
        // First n where parallel wins by a margin beyond timer noise.
        // A "win" in which no round fanned out is two sequential runs
        // plus noise, not a crossover.
        if crossover_n.is_none() && ratio > 1.05 && p.peak_workers() > 1 {
            crossover_n = Some(ln);
        }
        ladder_rows.push((ln, m_s.time_per_round, m_p.time_per_round, ratio));
    }
    match crossover_n {
        Some(c) => println!("  sequential/parallel crossover: n ≈ {c}"),
        None => println!("  sequential/parallel crossover: beyond n={n} on this machine"),
    }

    let alloc_ratio = m_legacy.allocs_per_round / m_new.allocs_per_round.max(1.0);
    let time_ratio = m_legacy.time_per_round.as_secs_f64() / m_new.time_per_round.as_secs_f64();
    println!(
        "\n  allocation reduction: {}x fewer allocations/round (legacy {:.0} vs new {:.0})",
        f2(alloc_ratio),
        m_legacy.allocs_per_round,
        m_new.allocs_per_round
    );
    println!("  speedup (sequential): {}x", f2(time_ratio));

    // Machine-readable record for cross-PR perf tracking (uploaded as
    // a CI artifact). Hand-rolled JSON: the workspace is std-only.
    let plane_json = |name: &str, m: &Measured| {
        format!(
            "    {{\"plane\": \"{name}\", \"time_per_round_ns\": {}, \"allocs_per_round\": {:.2}}}",
            m.time_per_round.as_nanos(),
            m.allocs_per_round
        )
    };
    let crossover_rows: Vec<String> = ladder_rows
        .iter()
        .map(|(ln, s, p, r)| {
            format!(
                "    {{\"n\": {ln}, \"seq_ns\": {}, \"par_ns\": {}, \"par_speedup\": {r:.2}}}",
                s.as_nanos(),
                p.as_nanos()
            )
        })
        .collect();
    let host = bench_harness::host::fingerprint();
    let json = format!
        ("{{\n  \"bench\": \"step_plane\",\n  \"host\": {},\n  \"threads_requested\": {threads},\n  \"threads_used_peak\": {},\n  \"n\": {n},\n  \"rounds_per_run\": {rounds},\n  \"runs\": {runs},\n  \"planes\": [\n{},\n{},\n{}\n  ],\n  \"alloc_ratio\": {:.2},\n  \"speedup_sequential\": {:.3},\n  \"crossover\": {{\n  \"threads\": {threads},\n  \"sequential_parallel_crossover_n\": {},\n  \"ladder\": [\n{}\n  ]\n  }}\n}}\n",
        host.to_json(),
        netp.peak_workers(),
        plane_json("legacy_vec_sort", &m_legacy),
        plane_json("slab_seq", &m_new),
        plane_json("slab_8_threads", &m_par),
        alloc_ratio,
        time_ratio,
        crossover_n.map_or("null".to_string(), |c| c.to_string()),
        crossover_rows.join(",\n"),
    );
    // Cargo runs benches with the package as working directory; the
    // record belongs at the workspace root, where CI picks it up.
    let path = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| std::path::PathBuf::from(d).join("../../BENCH_step_plane.json"))
        .unwrap_or_else(|_| std::path::PathBuf::from("BENCH_step_plane.json"));
    std::fs::write(&path, &json).expect("write bench record");
    println!("  wrote {}", path.display());

    assert!(
        alloc_ratio >= 2.0,
        "acceptance: the new plane must allocate at least 2x less per round"
    );
}
