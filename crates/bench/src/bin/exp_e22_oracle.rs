//! E22 — `MatchingOracle`: LCA point queries over a graph that is
//! never run end-to-end.
//!
//! The LCA claim (Alon–Rubinfeld–Vardi–Xie; Reingold–Vardi), measured:
//! answering "who is `v`'s mate?" costs work proportional to the part
//! of the run around `v` that its answer depends on, whose reach tracks
//! the *algorithm's* locality (the halt horizon, `O(log n)` rounds),
//! not the graph size. Every cell uses a **fresh oracle per query**:
//! with a shared memo, one query's work answers many later queries, so
//! amortized cost per query *falls* as the work per query grows. A
//! fresh oracle isolates the single-query cost the LCA model talks
//! about; the memo contract is gated separately in `tests/oracle.rs`.
//!
//! **Part A — Generic ball cost vs. starting radius (fixed n).** A
//! `Generic { k: 2 }` query replays the algorithm on a ball around the
//! query vertex and doubles the radius until the answer is certified.
//! On the cycle (`|ball(r)| = 2r+1`), starting radii at or above the
//! certification radius probe exactly one ball of `2r+1` nodes:
//! probed-per-query must grow from the smallest to the largest radius
//! cell (asserted unless `E22_ASSERT=0`).
//!
//! **Part B — Israeli–Itai cone cost vs. n.** An Israeli–Itai query
//! evaluates the global run on demand: a node steps round `r` once its
//! neighbours have stepped round `r − 1` or halted, so a query touches
//! the light cone of its vertex's halt round, cut where nodes halted.
//! Cells on the cycle and on the geometric family perfbench's
//! oracle-lca workload queries, each at n/4, n/2 and n. Across the
//! 4× range of n, touched-nodes-per-query must stay within
//! `E22_FLAT_FACTOR` (×10, default 25 = 2.5×) per family (asserted).
//! This is the headline: query cost does not scale with n.
//!
//! On an expander the cone of the first rounds is supercritical and
//! engulfs the component within the halt horizon, the known LCA
//! caveat. A ball replay engulfs it too, so there both pay for the
//! component, and EXPERIMENTS.md records that comparison (gnp,
//! 8-regular and Chung–Lu at n = 20 000) rather than a flatness cell
//! here.
//!
//! **Part C — Generic consistency spot-check.** A `Generic { k: 2 }`
//! oracle against the full `Session` run on a small gnp instance —
//! every queried vertex must agree bit-for-bit (always asserted; the
//! cheap twin of the `tests/oracle.rs` consistency gate).
//!
//! Knobs: `E22_N` (default 8192), `E22_QUERIES` (default 200),
//! `E22_RUNS` (default 3), `E22_FLAT_FACTOR` (×10, default 25),
//! `E22_ASSERT` (default 1).
//!
//! Writes `BENCH_e22_oracle.json` (host-fingerprinted) for the CI
//! artifact trail; `throughput_qps` is a perf metric (host-gated),
//! the probed / ball / touched / cone-step counters are deterministic
//! and gate cross-host.

use bench_harness::workloads::Family;
use bench_harness::{banner, env_or, f2, host, timing, Table};
use dgraph::generators::random::gnp;
use dgraph::generators::structured::cycle;
use dgraph::{Graph, NodeId};
use dmatch::{Algorithm, MatchingOracle, Session};
use simnet::SplitMix64;
use std::fmt::Write as _;
use std::hint::black_box;

/// Seeded query set: `q` distinct-ish vertices drawn with replacement.
fn sample_queries(n: usize, q: usize, tag: u64) -> Vec<NodeId> {
    let mut rng = SplitMix64::for_node(0xE22, tag);
    (0..q).map(|_| rng.below(n as u64) as NodeId).collect()
}

/// Per-query means of the deterministic counters, and throughput.
struct Cell {
    /// Nodes a query newly probed: ball nodes (Generic) or cone nodes
    /// touched (Israeli–Itai).
    probed_per_query: f64,
    /// Balls replayed (Generic).
    balls_per_query: f64,
    /// Node-rounds evaluated (Israeli–Itai).
    steps_per_query: f64,
    qps: f64,
}

/// One measurement cell: a fresh oracle per query (no memo
/// amortization — see the module docs), deterministic counters summed
/// across queries, throughput over `runs` passes (fastest run).
fn fresh_cell(
    g: &Graph,
    alg: Algorithm,
    seed: u64,
    radius: usize,
    queries: &[NodeId],
    runs: u32,
) -> Cell {
    let oracle = || {
        MatchingOracle::on(g)
            .algorithm(alg)
            .seed(seed)
            .initial_radius(radius)
            .build()
    };
    let (mut probed, mut balls, mut steps) = (0u64, 0u64, 0u64);
    for &v in queries {
        let mut o = oracle();
        black_box(o.query_node(v));
        let m = o.metrics();
        probed += m.counter("oracle_probed_nodes");
        balls += m.counter("oracle_balls");
        steps += m.hist("oracle_cone_steps").map_or(0, |h| h.sum());
    }
    let q = queries.len() as f64;
    let s = timing::bench(runs, || {
        for &v in queries {
            black_box(oracle().query_node(v));
        }
    });
    Cell {
        probed_per_query: probed as f64 / q,
        balls_per_query: balls as f64 / q,
        steps_per_query: steps as f64 / q,
        qps: q / s.min.as_secs_f64(),
    }
}

fn main() {
    banner(
        "E22",
        "MatchingOracle: LCA point queries",
        "work ∝ what the answer depends on, flat in n (ARVX / Reingold–Vardi model)",
    );
    let n = env_or("E22_N", 8192) as usize;
    let q = env_or("E22_QUERIES", 200) as usize;
    let runs = env_or("E22_RUNS", 3) as u32;
    let flat_factor = env_or("E22_FLAT_FACTOR", 25) as f64 / 10.0;
    let do_assert = env_or("E22_ASSERT", 1) == 1;
    let seed = 22u64;
    let radii = [4usize, 16, 64];
    let generic = Algorithm::Generic { k: 2 };

    // Part A: Generic's radius sweep at fixed n on the cycle.
    println!(
        "Part A: generic(k=2) probed ball vs starting radius, cycle(n={n}), {q} fresh queries"
    );
    let g = cycle(n);
    let queries = sample_queries(n, q, 1);
    let mut t = Table::new(vec!["radius", "probed/query", "balls/query", "queries/sec"]);
    let mut radius_cells = Vec::new();
    for &r in &radii {
        let c = fresh_cell(&g, generic, seed, r, &queries, runs);
        t.row(vec![
            format!("{r}"),
            format!("{:.1}", c.probed_per_query),
            format!("{}", f2(c.balls_per_query)),
            format!("{:.0}", c.qps),
        ]);
        radius_cells.push((r, c));
    }
    t.print();
    let (first, last) = (&radius_cells[0].1, &radius_cells[radii.len() - 1].1);
    println!(
        "  probed/query grows {}x from radius {} to {}",
        f2(last.probed_per_query / first.probed_per_query),
        radii[0],
        radii[radii.len() - 1]
    );
    if do_assert {
        assert!(
            last.probed_per_query > first.probed_per_query,
            "probed nodes/query must grow with the starting radius \
             ({} at r={} vs {} at r={})",
            last.probed_per_query,
            radii[radii.len() - 1],
            first.probed_per_query,
            radii[0]
        );
    }

    // Part B: Israeli–Itai's cone vs n, on the cycle and the geometric
    // family.
    println!("\nPart B: israeli-itai light cone vs n, {q} fresh queries");
    let ns = [n / 4, n / 2, n];
    let mut t = Table::new(vec![
        "family",
        "n",
        "touched/query",
        "cone steps/query",
        "queries/sec",
    ]);
    let mut n_cells = Vec::new();
    for family in ["cycle", "geometric"] {
        let mut cells = Vec::new();
        for &ni in &ns {
            let gi = match family {
                "cycle" => cycle(ni),
                _ => Family::Geometric.instantiate(ni, seed).graph,
            };
            let qi = sample_queries(ni, q, 2);
            let c = fresh_cell(&gi, Algorithm::IsraeliItai, seed, 2, &qi, runs);
            t.row(vec![
                family.to_string(),
                format!("{ni}"),
                format!("{:.1}", c.probed_per_query),
                format!("{:.1}", c.steps_per_query),
                format!("{:.0}", c.qps),
            ]);
            cells.push(c.probed_per_query);
            n_cells.push((family, ni, c));
        }
        let (small, big) = (cells[0], cells[ns.len() - 1]);
        if do_assert {
            assert!(
                big <= flat_factor * small,
                "{family}: touched nodes/query must stay flat in n: {big} at n={} vs {small} \
                 at n={} (allowed factor {flat_factor})",
                ns[ns.len() - 1],
                ns[0]
            );
        }
    }
    t.print();
    for family in ["cycle", "geometric"] {
        let cells: Vec<f64> = n_cells
            .iter()
            .filter(|(f, _, _)| *f == family)
            .map(|(_, _, c)| c.probed_per_query)
            .collect();
        println!(
            "  {family}: touched/query ratio across 4x n: {}",
            f2(cells[cells.len() - 1] / cells[0])
        );
    }

    // Part C: Generic consistency spot-check (always asserted).
    let gn = 512usize;
    let gg = gnp(gn, 3.0 / gn as f64, 221);
    let alg = Algorithm::Generic { k: 2 };
    let mut session = Session::on(&gg).algorithm(alg).seed(seed).build();
    session.run_to_completion();
    let mut go = MatchingOracle::on(&gg).seed(seed).algorithm(alg).build();
    let gqueries = sample_queries(gn, 40, 3);
    for &v in &gqueries {
        assert_eq!(
            go.query_node(v),
            session.matching().mate(v),
            "Generic oracle diverged from the session at vertex {v}"
        );
    }
    println!(
        "\nPart C: generic(k=2) oracle agrees with the session on {} queries at n={gn}",
        gqueries.len()
    );

    // Machine-readable mirror.
    let mut json = String::from("{\n  \"bench\": \"e22_oracle\",\n");
    let _ = writeln!(json, "  \"host\": {},", host::fingerprint().to_json());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"queries\": {q},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    json.push_str("  \"radius_cells\": [\n");
    for (i, (r, c)) in radius_cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"radius\": {r}, \"probed_per_query\": {:.2}, \"balls_per_query\": {:.3}, \
             \"throughput_qps\": {:.0}}}",
            c.probed_per_query, c.balls_per_query, c.qps
        );
        json.push_str(if i + 1 < radius_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"n_cells\": [\n");
    for (i, (family, ni, c)) in n_cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"family\": \"{family}\", \"cell_n\": {ni}, \"touched_per_query\": {:.2}, \
             \"cone_steps_per_query\": {:.2}, \"throughput_qps\": {:.0}}}",
            c.probed_per_query, c.steps_per_query, c.qps
        );
        json.push_str(if i + 1 < n_cells.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        json,
        "  ],\n  \"generic_spot_check\": {{\"cell_n\": {gn}, \"queries\": {}, \"consistent\": 1}}\n}}",
        gqueries.len()
    );
    std::fs::write("BENCH_e22_oracle.json", &json).expect("write BENCH_e22_oracle.json");
    println!("\n  wrote BENCH_e22_oracle.json");
}
