//! The `MatchingOracle` consistency gate.
//!
//! The headline LCA contract, gated for both supported algorithms: the
//! union of per-edge point-query answers equals one global `Session`
//! run **bit-for-bit**, no matter in which order the queries arrive or
//! how they interleave with node queries. Plus the memo contract:
//! re-queries return identical answers with zero additional probed
//! nodes.

use distributed_matching::dgraph::generators::random::gnp;
use distributed_matching::dgraph::generators::zoo::random_geometric;
use distributed_matching::dgraph::subgraph::bfs_distances;
use distributed_matching::dgraph::{EdgeId, Graph, NodeId};
use distributed_matching::dmatch::{Algorithm, MatchingOracle, Session};
use distributed_matching::simnet::SplitMix64;

fn global_mates(g: &Graph, alg: Algorithm, seed: u64) -> Vec<Option<NodeId>> {
    let mut s = Session::on(g).algorithm(alg).seed(seed).build();
    s.run_to_completion();
    let m = s.matching().clone();
    (0..g.n() as NodeId).map(|v| m.mate(v)).collect()
}

fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Query every edge in the given order; return `matched[e]`.
fn edge_answers(o: &mut MatchingOracle<'_>, m: usize, order: &[usize]) -> Vec<bool> {
    let mut ans = vec![false; m];
    for &e in order {
        ans[e] = o.query(e as EdgeId);
    }
    ans
}

fn consistency_gate(alg: Algorithm, tag: u64, graph: impl Fn(u64) -> Graph) {
    for seed in 0..3u64 {
        let g = graph(seed);
        let want_mates = global_mates(&g, alg, seed);
        let want_edges: Vec<bool> = (0..g.m() as EdgeId)
            .map(|e| {
                let (u, v) = g.endpoints(e);
                want_mates[u as usize] == Some(v)
            })
            .collect();

        // Order 1: ascending edge ids.
        let mut o1 = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
        let asc: Vec<usize> = (0..g.m()).collect();
        assert_eq!(edge_answers(&mut o1, g.m(), &asc), want_edges);

        // Order 2: descending.
        let mut o2 = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
        let desc: Vec<usize> = (0..g.m()).rev().collect();
        assert_eq!(edge_answers(&mut o2, g.m(), &desc), want_edges);

        // Order 3: seeded shuffle, interleaved with node queries.
        let mut rng = SplitMix64::for_node(0xE22, tag * 100 + seed);
        let order = shuffled(g.m(), &mut rng);
        let mut o3 = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
        for &e in &order {
            let (u, v) = g.endpoints(e as EdgeId);
            let matched = o3.query(e as EdgeId);
            assert_eq!(matched, want_edges[e], "{alg} seed {seed} edge {e}");
            // Interleave node queries; they must agree with the run.
            assert_eq!(o3.query_node(u), want_mates[u as usize]);
            assert_eq!(o3.query_node(v), want_mates[v as usize]);
        }

        // Node queries across the whole vertex set.
        for v in 0..g.n() as NodeId {
            assert_eq!(o1.query_node(v), want_mates[v as usize]);
        }
    }
}

#[test]
fn ii_query_union_equals_global_session() {
    consistency_gate(Algorithm::IsraeliItai, 1, |seed| gnp(64, 0.06, 510 + seed));
}

/// On a sparse geometric graph the union of answers is the global
/// run's too, and a query's light cone stays local: the median query
/// touches under a tenth of the graph, both on one oracle answering
/// every vertex and on a fresh oracle per vertex.
#[test]
fn ii_query_union_equals_global_session_on_geometric() {
    let graph = |seed| random_geometric(300, 0.075, 520 + seed);
    consistency_gate(Algorithm::IsraeliItai, 3, graph);
    for seed in 0..3u64 {
        let g = graph(seed);
        let mut o = MatchingOracle::on(&g).seed(seed).build();
        for v in 0..g.n() as NodeId {
            o.query_node(v);
        }
        let probed = o.metrics().hist("oracle_probed_per_query").unwrap();
        assert!(
            probed.p50() * 10 < g.n() as u64,
            "seed {seed}: a median query touched {} nodes",
            probed.p50()
        );
        let mut fresh: Vec<u64> = (0..g.n() as NodeId)
            .map(|v| {
                let mut o = MatchingOracle::on(&g).seed(seed).build();
                o.query_node(v);
                o.metrics().counter("oracle_probed_nodes")
            })
            .collect();
        fresh.sort_unstable();
        let p50 = fresh[fresh.len() / 2];
        assert!(
            p50 * 10 < g.n() as u64,
            "seed {seed}: a median fresh query touched {p50} nodes"
        );
    }
}

#[test]
fn generic_query_union_equals_global_session() {
    consistency_gate(Algorithm::Generic { k: 2 }, 2, |seed| {
        gnp(64, 0.06, 520 + seed)
    });
}

/// Generic on the geometric graphs above, for k = 1, 2, 3: the union
/// of answers is the global run's, and a single fresh query stays
/// local. Over the vertices of components with at least 50 nodes, more
/// than half of the fresh queries read fewer rows than their component
/// has vertices.
#[test]
fn generic_query_union_equals_global_session_on_geometric() {
    let graph = |seed| random_geometric(300, 0.075, 520 + seed);
    for k in 1..=3 {
        let alg = Algorithm::Generic { k };
        consistency_gate(alg, 3 + k as u64, graph);
        let (mut local, mut queries) = (0, 0);
        for seed in 0..3u64 {
            let g = graph(seed);
            let neighbors = |v: NodeId| g.incident(v).iter().map(|&(u, _)| u);
            for v in 0..g.n() as NodeId {
                let component = bfs_distances(g.n(), neighbors, &[v], usize::MAX)
                    .into_iter()
                    .filter(|&d| d != usize::MAX)
                    .count();
                if component < 50 {
                    continue;
                }
                let mut o = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
                o.query_node(v);
                queries += 1;
                let rows = o.metrics().counter("oracle_probed_nodes") as usize;
                local += usize::from(rows < component);
            }
        }
        assert!(
            2 * local > queries,
            "k {k}: only {local} of {queries} fresh queries read less than their component"
        );
    }
}

#[test]
fn generic_k3_query_union_equals_global_session() {
    let g = gnp(48, 0.07, 903);
    let alg = Algorithm::Generic { k: 3 };
    let want = global_mates(&g, alg, 4);
    let mut o = MatchingOracle::on(&g).seed(4).algorithm(alg).build();
    for v in 0..g.n() as NodeId {
        assert_eq!(o.query_node(v), want[v as usize], "vertex {v}");
    }
}

#[test]
fn answers_invariant_under_query_order() {
    // Property: for shuffled permutations, every oracle instance
    // produces identical answers.
    let g = gnp(72, 0.05, 777);
    let seed = 9;
    for alg in [Algorithm::IsraeliItai, Algorithm::Generic { k: 2 }] {
        let reference: Vec<Option<NodeId>> = {
            let mut o = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
            (0..g.n() as NodeId).map(|v| o.query_node(v)).collect()
        };
        assert_eq!(reference, global_mates(&g, alg, seed), "{alg}");
        for perm in 0..4u64 {
            let mut rng = SplitMix64::for_node(0x08DE8, perm);
            let order = shuffled(g.n(), &mut rng);
            let mut o = MatchingOracle::on(&g).seed(seed).algorithm(alg).build();
            for &v in &order {
                assert_eq!(
                    o.query_node(v as NodeId),
                    reference[v],
                    "{alg} perm {perm} vertex {v}"
                );
            }
        }
    }
}

#[test]
fn memoized_requeries_probe_nothing() {
    for (alg, tag) in [
        (Algorithm::IsraeliItai, 0u64),
        (Algorithm::Generic { k: 2 }, 1),
    ] {
        let g = gnp(56, 0.06, 40 + tag);
        let mut o = MatchingOracle::on(&g).seed(tag).algorithm(alg).build();
        let first: Vec<_> = (0..g.n() as NodeId).map(|v| o.query_node(v)).collect();
        let probed = o.metrics().counter("oracle_probed_nodes");
        assert!(probed > 0, "{alg}: first queries probe");
        // Re-query in reverse: all memo hits, zero new probes.
        let second: Vec<_> = (0..g.n() as NodeId)
            .rev()
            .map(|v| o.query_node(v))
            .collect();
        let mut second_fwd = second.clone();
        second_fwd.reverse();
        assert_eq!(first, second_fwd, "{alg}");
        assert_eq!(
            o.metrics().counter("oracle_probed_nodes"),
            probed,
            "{alg}: memoized re-queries must not probe"
        );
    }
}

#[test]
fn oracle_metrics_are_populated() {
    let g = gnp(40, 0.08, 5);
    let mut o = MatchingOracle::on(&g).seed(3).build();
    for v in 0..g.n() as NodeId {
        o.query_node(v);
    }
    let m = o.metrics();
    assert_eq!(m.counter("oracle_queries"), g.n() as u64);
    assert!(m.counter("oracle_misses") >= 1);
    assert!(m.counter("oracle_probed_nodes") >= m.counter("oracle_misses"));
    let steps = m
        .hist("oracle_cone_steps")
        .expect("II misses record cone steps");
    assert_eq!(steps.count(), m.counter("oracle_misses"));
    assert!(steps.max() >= 1);
    assert!(m.hist("oracle_generic_paths").is_none(), "II ranks no path");
    assert!(m.hist("oracle_probed_per_query").is_some());
    assert!(m.gauge("oracle_memo_size") >= 1);
    assert_eq!(
        m.counter("oracle_memo_hits") + m.counter("oracle_misses"),
        m.counter("oracle_queries")
    );
}

/// A Generic miss records the rows it read and the paths it ranked; a
/// hit records neither.
#[test]
fn generic_oracle_metrics_are_populated() {
    let g = gnp(40, 0.08, 5);
    let mut o = MatchingOracle::on(&g)
        .seed(3)
        .algorithm(Algorithm::Generic { k: 2 })
        .build();
    for v in 0..g.n() as NodeId {
        o.query_node(v);
    }
    let m = o.metrics();
    let misses = m.counter("oracle_misses");
    assert!(misses >= 1);
    let rows = m
        .hist("oracle_probed_per_query")
        .expect("misses record rows");
    assert_eq!(rows.count(), misses);
    assert_eq!(rows.sum(), m.counter("oracle_probed_nodes"));
    assert!(
        m.counter("oracle_probed_nodes") <= g.n() as u64,
        "a row is read once"
    );
    let paths = m.hist("oracle_generic_paths").expect("misses rank paths");
    assert_eq!(paths.count(), misses);
    assert!(paths.sum() >= 1);
    assert!(
        m.hist("oracle_cone_steps").is_none(),
        "Generic steps no cone"
    );
    assert_eq!(m.gauge("oracle_memo_size"), g.n() as u64);
    assert_eq!(
        m.counter("oracle_memo_hits") + misses,
        m.counter("oracle_queries")
    );
}
