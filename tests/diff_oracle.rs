//! Differential tests for `diff_graphs` against a naive oracle.
//!
//! The oracle rebuilds both versions' full directed edge lists and
//! vertex lists and compares them as plain sorted sets — no structural
//! sharing, no tree walks, nothing shared with the implementation
//! under test. The property suite drives randomized update histories
//! (edge inserts/deletes, vertex inserts/deletes, duplicates, no-ops)
//! through every edge-set representation and checks the pointer-pruned
//! diff agrees with the oracle on every consecutive version pair.
//!
//! The deterministic tests pin the structural-sharing fast paths:
//! self-diffs and unchanged updates must come back empty *without
//! comparing vertices*, and subtrees shared between versions must
//! contribute zero added/removed edges.

use aspen_repro::aspen::{
    diff_graphs, diff_graphs_with_stats, CompressedEdges, EdgeSet, Graph, GraphDiff, IntervalEdges,
    PlainEdges, UncompressedEdges, VertexId,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Exhaustive diff by full enumeration: the trusted oracle.
fn oracle_diff<E: EdgeSet>(before: &Graph<E>, after: &Graph<E>) -> GraphDiff {
    let edge_list = |g: &Graph<E>| -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for u in g.vertex_ids() {
            let ent = g.find_vertex(u).expect("listed id");
            ent.edges.for_each(&mut |v| out.push((u, v)));
        }
        out
    };
    let b_edges: std::collections::HashSet<_> = edge_list(before).into_iter().collect();
    let a_edges: std::collections::HashSet<_> = edge_list(after).into_iter().collect();
    let b_verts: std::collections::HashSet<_> = before.vertex_ids().into_iter().collect();
    let a_verts: std::collections::HashSet<_> = after.vertex_ids().into_iter().collect();

    let mut d = GraphDiff {
        added_edges: a_edges.difference(&b_edges).copied().collect(),
        removed_edges: b_edges.difference(&a_edges).copied().collect(),
        added_vertices: a_verts.difference(&b_verts).copied().collect(),
        removed_vertices: b_verts.difference(&a_verts).copied().collect(),
    };
    d.added_edges.sort_unstable();
    d.removed_edges.sort_unstable();
    d.added_vertices.sort_unstable();
    d.removed_vertices.sort_unstable();
    d
}

/// One step of a random update history.
#[derive(Clone, Debug)]
enum Op {
    InsertEdges(Vec<(VertexId, VertexId)>),
    DeleteEdges(Vec<(VertexId, VertexId)>),
    InsertVertices(Vec<VertexId>),
    DeleteVertices(Vec<VertexId>),
}

fn apply<E: EdgeSet>(g: &Graph<E>, op: &Op) -> Graph<E> {
    match op {
        Op::InsertEdges(es) => g.insert_edges(es),
        Op::DeleteEdges(es) => g.delete_edges(es),
        Op::InsertVertices(vs) => g.insert_vertices(vs),
        Op::DeleteVertices(vs) => g.delete_vertices(vs),
    }
}

/// Checks implementation == oracle across a whole update history, for
/// one edge-set representation.
fn check_history<E: EdgeSet>(initial: &[(VertexId, VertexId)], ops: &[Op], cfg: E::Config) {
    let mut versions = vec![Graph::<E>::from_edges(initial, cfg)];
    for op in ops {
        let next = apply(versions.last().expect("nonempty"), op);
        versions.push(next);
    }
    // Consecutive pairs (the streaming use case) plus first-vs-last
    // (a multi-batch jump with far less sharing).
    for w in versions.windows(2) {
        assert_eq!(diff_graphs(&w[0], &w[1]), oracle_diff(&w[0], &w[1]));
    }
    let (first, last) = (versions.first().expect("x"), versions.last().expect("x"));
    assert_eq!(diff_graphs(first, last), oracle_diff(first, last));
}

/// Replays a diff onto `before` and checks it reproduces `after`.
///
/// Only sound for undirected (symmetrized) histories: with asymmetric
/// edges, `delete_vertices` can leave dangling edges whose endpoints a
/// replaying `insert_edges` would re-materialize as vertices.
fn check_replay<E: EdgeSet>(before: &Graph<E>, after: &Graph<E>) {
    let d = diff_graphs(before, after);
    let replayed = before
        .insert_vertices(&d.added_vertices)
        .insert_edges(&d.added_edges)
        .delete_edges(&d.removed_edges)
        .delete_vertices(&d.removed_vertices);
    assert!(diff_graphs(&replayed, after).is_empty(), "replay mismatch");
}

fn edge_strategy() -> impl Strategy<Value = (VertexId, VertexId)> {
    (0u32..48, 0u32..48)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        vec(edge_strategy(), 0..24).prop_map(Op::InsertEdges),
        vec(edge_strategy(), 0..24).prop_map(Op::DeleteEdges),
        vec(0u32..64, 0..6).prop_map(Op::InsertVertices),
        vec(0u32..48, 0..4).prop_map(Op::DeleteVertices),
    ]
}

fn sym(edges: Vec<(VertexId, VertexId)>) -> Vec<(VertexId, VertexId)> {
    edges
        .into_iter()
        .flat_map(|(u, v)| [(u, v), (v, u)])
        .collect()
}

/// Like [`op_strategy`], but every edge batch is symmetrized — the
/// invariant the streaming writer maintains.
fn sym_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        vec(edge_strategy(), 0..24).prop_map(|es| Op::InsertEdges(sym(es))),
        vec(edge_strategy(), 0..24).prop_map(|es| Op::DeleteEdges(sym(es))),
        vec(0u32..64, 0..6).prop_map(Op::InsertVertices),
        vec(0u32..48, 0..4).prop_map(Op::DeleteVertices),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matches_oracle_uncompressed(
        initial in vec(edge_strategy(), 0..64),
        ops in vec(op_strategy(), 1..6),
    ) {
        check_history::<UncompressedEdges>(&initial, &ops, ());
    }

    #[test]
    fn matches_oracle_plain_ctree(
        initial in vec(edge_strategy(), 0..64),
        ops in vec(op_strategy(), 1..6),
    ) {
        // Small chunks so histories cross chunk boundaries often.
        check_history::<PlainEdges>(&initial, &ops, aspen_repro::aspen::ChunkParams::with_b(4));
    }

    #[test]
    fn matches_oracle_default_codec(
        initial in vec(edge_strategy(), 0..64),
        ops in vec(op_strategy(), 1..6),
    ) {
        check_history::<CompressedEdges>(&initial, &ops, Default::default());
    }

    #[test]
    fn matches_oracle_interval(
        initial in vec(edge_strategy(), 0..64),
        ops in vec(op_strategy(), 1..6),
    ) {
        check_history::<IntervalEdges>(&initial, &ops, Default::default());
    }

    #[test]
    fn symmetric_history_replays(
        initial in vec(edge_strategy(), 0..48),
        ops in vec(sym_op_strategy(), 1..6),
    ) {
        let mut versions =
            vec![Graph::<CompressedEdges>::from_edges(&sym(initial), Default::default())];
        for op in &ops {
            let next = apply(versions.last().expect("nonempty"), op);
            versions.push(next);
        }
        for w in versions.windows(2) {
            check_replay(&w[0], &w[1]);
        }
        check_replay(
            versions.first().expect("x"),
            versions.last().expect("x"),
        );
    }

    #[test]
    fn self_diff_is_empty_and_free(initial in vec(edge_strategy(), 0..64)) {
        let g = Graph::<CompressedEdges>::from_edges(&initial, Default::default());
        let (d, stats) = diff_graphs_with_stats(&g, &g.clone());
        prop_assert!(d.is_empty());
        prop_assert_eq!(stats.vertices_compared, 0);
        prop_assert_eq!(stats.shared_edge_sets_skipped, 0);
    }
}

/// Satellite pin: an update that changes nothing diffs empty *and*
/// cheap — untouched subtrees are pruned by pointer, not re-compared.
#[test]
fn unchanged_update_diff_is_empty_and_cheap() {
    let path: Vec<(u32, u32)> = (0..511u32).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
    let g = Graph::<CompressedEdges>::from_edges(&path, Default::default());
    // Re-insert edges that already exist: a no-op update, but it still
    // rebuilds tree nodes along two root-to-leaf paths.
    let g2 = g.insert_edges(&[(5, 6), (6, 5)]);
    let (d, stats) = diff_graphs_with_stats(&g, &g2);
    assert!(d.is_empty());
    let n = g.num_vertices() as u64;
    assert!(
        stats.vertices_compared + stats.shared_edge_sets_skipped < n / 8,
        "no-op update visited {} + {} of {} vertices",
        stats.vertices_compared,
        stats.shared_edge_sets_skipped,
        n
    );
    assert!(stats.shared_subtrees_skipped > 0, "no subtrees pruned");
}

/// Satellite pin: subtrees shared between versions contribute no
/// added/removed edges, and the diff only reports the touched region.
#[test]
fn shared_subtrees_contribute_nothing() {
    let ring: Vec<(u32, u32)> = (0..1024u32)
        .flat_map(|i| {
            let j = (i + 1) % 1024;
            [(i, j), (j, i)]
        })
        .collect();
    let g = Graph::<CompressedEdges>::from_edges(&ring, Default::default());
    let g2 = g
        .insert_edges(&[(10, 500), (500, 10)])
        .delete_edges(&[(7, 8), (8, 7)]);
    let (d, stats) = diff_graphs_with_stats(&g, &g2);
    assert_eq!(d.added_edges, vec![(10, 500), (500, 10)]);
    assert_eq!(d.removed_edges, vec![(7, 8), (8, 7)]);
    assert!(d.added_vertices.is_empty() && d.removed_vertices.is_empty());
    // Work scales with the touched region, not the graph.
    let n = g.num_vertices() as u64;
    assert!(
        stats.vertices_compared < n / 8,
        "compared {} of {} vertices",
        stats.vertices_compared,
        n
    );
    assert!(stats.shared_subtrees_skipped > 0);
}

/// The fast path never misreports: two graphs built independently with
/// the same content (no sharing at all) still diff empty.
#[test]
fn equal_but_unshared_versions_diff_empty() {
    let edges: Vec<(u32, u32)> = (0..100u32).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
    let a = Graph::<CompressedEdges>::from_edges(&edges, Default::default());
    let b = Graph::<CompressedEdges>::from_edges(&edges, Default::default());
    let (d, stats) = diff_graphs_with_stats(&a, &b);
    assert!(d.is_empty());
    // Nothing is shared, so everything really was compared.
    assert_eq!(stats.shared_subtrees_skipped, 0);
    assert_eq!(stats.vertices_compared, a.num_vertices() as u64);
}
