//! The `oracle-lca` workload: `MatchingOracle` point queries, each on a
//! fresh oracle (the LCA model: no state shared between queries).
//!
//! Israeli–Itai queries run on geometric(n = 20 000) under twelve
//! session seeds; every 31st query is a Generic(k=2) query on one of
//! twelve geometric(n = 600) graphs, where the global runs that check
//! them stay affordable. Query edges are drawn from the seed outside the
//! timed calls, once; every sweep asks the same queries. Every answer
//! must equal one global `Session` run on the same graph and seed. The
//! oracle exposes no simulated traffic, so this workload's simulated
//! cost is that of the global runs its answers reproduce.

use crate::measure::{median, metric, Sim};
use crate::spans::Spans;
use crate::{SweepOut, Workload};
use bench_harness::workloads::Family;
use dgraph::{EdgeId, Graph, Matching};
use dmatch::{Algorithm, MatchingOracle, Session};
use simnet::SplitMix64;

const GENERIC: Algorithm = Algorithm::Generic { k: 2 };
/// Every `GENERIC_EVERY`-th query is a Generic query; the others are
/// Israeli–Itai queries.
const GENERIC_EVERY: usize = 31;
const II_SEEDS: usize = 12;
const GENERIC_GRAPHS: usize = 12;

/// One queried matching: an algorithm and seed on one of the graphs,
/// and the global run that checks the answers.
struct Target {
    alg: Algorithm,
    graph: usize,
    seed: u64,
    reference: Option<Matching>,
}

pub struct OracleWorkload {
    seed: u64,
    query_count: usize,
    /// `graphs[0]` carries the II targets, the others one Generic
    /// target each.
    graphs: Vec<Graph>,
    targets: Vec<Target>,
    /// `(target, edge)` of every query, drawn by sweep 0.
    queries: Vec<(usize, EdgeId)>,
    /// Simulated cost of the global runs, computed by sweep 0.
    sim: Sim,
}

/// Blocks of 31 queries per second of `--seconds` (≈ 1.4 ms per II
/// query and ≈ 10 ms per Generic query on a 2-core host, asked once per
/// sweep); fixed by `--seconds` alone.
pub fn oracle_lca(seed: u64, seconds: u64) -> OracleWorkload {
    let ii = (0..II_SEEDS).map(|i| Target {
        alg: Algorithm::IsraeliItai,
        graph: 0,
        seed: seed.wrapping_add(i as u64),
        reference: None,
    });
    let generic = (1..=GENERIC_GRAPHS).map(|graph| Target {
        alg: GENERIC,
        graph,
        seed: seed.wrapping_add(graph as u64),
        reference: None,
    });
    OracleWorkload {
        seed,
        query_count: GENERIC_EVERY * ((seconds as f64 * 6.0).round() as usize).max(1),
        graphs: Vec::new(),
        targets: ii.chain(generic).collect(),
        queries: Vec::new(),
        sim: Sim::default(),
    }
}

impl OracleWorkload {
    /// Run the global runs every answer must reproduce (with the exact
    /// maximum matching of every graph) and draw the queries.
    fn prepare(&mut self, sp: &mut Spans, out: &mut SweepOut) {
        let check = sp.begin("check", "dgraph.verify");
        let open = sp.begin("blossom::max_matching", "dgraph.verify");
        let opt: Vec<usize> = self
            .graphs
            .iter()
            .map(|g| dgraph::blossom::max_matching(g).size())
            .collect();
        sp.end(open);
        self.sim = Sim::default();
        for t in &mut self.targets {
            let g = &self.graphs[t.graph];
            let report = Session::on(g)
                .algorithm(t.alg)
                .seed(t.seed)
                .build()
                .run_to_completion();
            let ratio = report.matching.size() as f64 / opt[t.graph].max(1) as f64;
            let bound = if t.alg == GENERIC { 2.0 / 3.0 } else { 0.5 };
            if ratio < bound - 1e-9 {
                out.fail(format!(
                    "global {} ratio {ratio:.4} below {bound:.4}",
                    report.name
                ));
            }
            out.ratio_min = out.ratio_min.min(ratio);
            self.sim.add(Sim::of(&report.stats));
            t.reference = Some(report.matching);
        }
        sp.end(check);

        let open = sp.begin("draw_queries", "load");
        // dlint::allow(rng-hygiene, "benchmark load stream drawing query edges; no program stream derives from it")
        let mut rng = SplitMix64::new(self.seed ^ 0x0C4A_11E5);
        self.queries = (0..self.query_count)
            .map(|i| {
                let t = Self::target_of(i);
                let m = self.graphs[self.targets[t].graph].m() as u64;
                (t, rng.below(m) as EdgeId)
            })
            .collect();
        sp.end(open);
    }

    /// The target of query `i`.
    fn target_of(i: usize) -> usize {
        if i % GENERIC_EVERY == GENERIC_EVERY - 1 {
            II_SEEDS + (i / GENERIC_EVERY) % GENERIC_GRAPHS
        } else {
            i % II_SEEDS
        }
    }
}

impl Workload for OracleWorkload {
    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, sp: &mut Spans, _timed: bool) {
        self.graphs = (0..=GENERIC_GRAPHS)
            .map(|i| {
                let n = if i == 0 { 20_000 } else { 600 };
                let open = sp.begin("Family::instantiate", "dgraph");
                let gseed = self.seed.wrapping_mul(17).wrapping_add(i as u64);
                let w = Family::Geometric.instantiate(n, gseed);
                sp.end(open);
                w.graph
            })
            .collect();
        for t in [0, II_SEEDS] {
            let target = &self.targets[t];
            let open = sp.begin("OracleBuilder::build", "dmatch.oracle");
            let g = &self.graphs[target.graph];
            drop(
                MatchingOracle::on(g)
                    .algorithm(target.alg)
                    .seed(target.seed)
                    .build(),
            );
            sp.end(open);
        }
        self.queries.clear();
    }

    fn sweep(&mut self, sp: &mut Spans, sweep: usize) -> SweepOut {
        let mut out = SweepOut::default();
        if sweep == 0 {
            self.prepare(sp, &mut out);
        }
        out.sim = self.sim;

        let mut query_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut build_us = Vec::with_capacity(self.queries.len());
        let mut radii = Vec::with_capacity(self.queries.len());
        let mut totals = dobs::Registry::new();
        for &(t, e) in &self.queries {
            let target = &self.targets[t];
            let g = &self.graphs[target.graph];
            sp.next_op();
            let open = sp.begin("OracleBuilder::build", "dmatch.oracle");
            let mut oracle = MatchingOracle::on(g)
                .algorithm(target.alg)
                .seed(target.seed)
                .build();
            build_us.push(sp.end(open) * 1e6);
            let open = sp.begin("MatchingOracle::query", "dmatch.oracle");
            let answer = oracle.query(e);
            let secs = sp.end(open);
            out.record_op(secs);
            query_ms[usize::from(target.alg == GENERIC)].push(secs * 1e3);

            let check = sp.begin("check", "dgraph.verify");
            let reference = target.reference.as_ref().expect("global run done above");
            let ok = answer == reference.contains(g, e);
            sp.end(check);
            if !ok {
                out.fail(format!(
                    "{} query of edge {e} disagrees with the global run",
                    target.alg
                ));
            }
            let m = oracle.metrics();
            if let Some(h) = m.hist("oracle_ball_radius") {
                radii.push(h.max() as f64);
            }
            totals.absorb(m);
        }

        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.layers.extend([
            metric("oracle.ii.query_ms", median(&query_ms[0]), "ms"),
            metric("oracle.generic.query_ms", median(&query_ms[1]), "ms"),
            metric(
                "oracle.probed_per_query",
                ratio(
                    totals.counter("oracle_probed_nodes"),
                    totals.counter("oracle_queries"),
                ),
                "count",
            ),
            metric(
                "oracle.balls_per_miss",
                ratio(
                    totals.counter("oracle_balls"),
                    totals.counter("oracle_misses"),
                ),
                "ratio",
            ),
            metric("oracle.ball_radius_p50", median(&radii), "hops"),
            metric("oracle.build_us", median(&build_us), "us"),
        ]);
        out
    }
}
