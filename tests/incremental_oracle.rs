//! Differential oracle suite for the incremental repair algorithms.
//!
//! Randomized batched update histories — symmetrized edge batches (the
//! invariant the streaming writer maintains), vertex-removing deletes,
//! duplicate updates, empty batches — are replayed as version chains.
//! Repair runs every `stride`-th version (and at the last), driven by
//! the `diff_graphs` delta across the versions skipped since the last
//! repair — the input the engine's repairer feeds when it falls behind
//! — and must equal the from-scratch recomputation at each repaired
//! version; stride 1 repairs after every batch. Every edge-set
//! representation is covered, and one property re-runs histories
//! across 1/2/4/8-worker pools, since the from-scratch side
//! (`connected_components`, `bfs`) is parallel.

use aspen_repro::algorithms::{self, connected_components, DeltaBfs, DeltaCc};
use aspen_repro::aspen::{
    diff_graphs, ChunkParams, CompressedEdges, EdgeSet, Graph, GraphView, IntervalEdges,
    PlainEdges, UncompressedEdges, VertexId,
};
use aspen_repro::parlib;
use proptest::collection::vec;
use proptest::prelude::*;

/// One batch of a random update history.
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

fn sym(edges: Vec<(VertexId, VertexId)>) -> Vec<(VertexId, VertexId)> {
    edges
        .into_iter()
        .flat_map(|(u, v)| [(u, v), (v, u)])
        .collect()
}

/// The from-scratch BFS answer with `DeltaBfs`'s out-of-space
/// convention (a source beyond the id space reaches nothing).
fn bfs_oracle<E: EdgeSet>(g: &Graph<E>, src: u32) -> Vec<u32> {
    if (src as usize) >= g.id_bound() {
        return vec![u32::MAX; g.id_bound()];
    }
    algorithms::bfs(g, src).dist
}

/// Replays `ops` as a version chain and checks both repair algorithms
/// against from-scratch recomputation after every `stride`-th batch
/// and after the last, each repair spanning every batch since the
/// previous one.
fn check_incremental<E: EdgeSet>(
    initial: &[(VertexId, VertexId)],
    ops: &[Op],
    cfg: E::Config,
    src: u32,
    stride: usize,
) {
    let mut cur = Graph::<E>::from_edges(&sym(initial.to_vec()), cfg);
    let mut repaired = cur.clone();
    let mut cc = DeltaCc::new(&cur);
    let mut bfs = DeltaBfs::new(&cur, src);
    assert_eq!(cc.labels(), connected_components(&cur).as_slice());
    assert_eq!(bfs.dist(), bfs_oracle(&cur, src).as_slice());
    for (i, op) in ops.iter().enumerate() {
        cur = apply(&cur, op);
        if (i + 1) % stride != 0 && i + 1 != ops.len() {
            continue;
        }
        let diff = diff_graphs(&repaired, &cur);
        cc.apply_diff(&diff, &cur);
        bfs.apply_diff(&diff, &cur);
        assert_eq!(
            cc.labels(),
            connected_components(&cur).as_slice(),
            "CC diverged after batch {i} (stride {stride}): {op:?}"
        );
        assert_eq!(
            bfs.dist(),
            bfs_oracle(&cur, src).as_slice(),
            "BFS diverged after batch {i} (stride {stride}): {op:?}"
        );
        repaired = cur.clone();
    }
}

fn edge_strategy() -> impl Strategy<Value = (VertexId, VertexId)> {
    // A small id range makes duplicate edges and repeated touches of
    // the same vertex common.
    (0u32..40, 0u32..40)
}

/// Symmetrized batches, length 0 included (empty batches must be
/// no-ops through the whole diff/repair path).
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        vec(edge_strategy(), 0..20).prop_map(|es| Op::InsertEdges(sym(es))),
        vec(edge_strategy(), 0..20).prop_map(|es| Op::DeleteEdges(sym(es))),
        vec(0u32..56, 0..5).prop_map(Op::InsertVertices),
        vec(0u32..40, 0..4).prop_map(Op::DeleteVertices),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repair_matches_recompute_uncompressed(
        initial in vec(edge_strategy(), 0..48),
        ops in vec(op_strategy(), 1..8),
        src in 0u32..56,
        stride in 1usize..=4,
    ) {
        check_incremental::<UncompressedEdges>(&initial, &ops, (), src, stride);
    }

    #[test]
    fn repair_matches_recompute_plain_ctree(
        initial in vec(edge_strategy(), 0..48),
        ops in vec(op_strategy(), 1..8),
        src in 0u32..56,
        stride in 1usize..=4,
    ) {
        // Tiny chunks so batches cross chunk boundaries constantly.
        check_incremental::<PlainEdges>(&initial, &ops, ChunkParams::with_b(4), src, stride);
    }

    #[test]
    fn repair_matches_recompute_default_codec(
        initial in vec(edge_strategy(), 0..48),
        ops in vec(op_strategy(), 1..8),
        src in 0u32..56,
        stride in 1usize..=4,
    ) {
        check_incremental::<CompressedEdges>(&initial, &ops, Default::default(), src, stride);
    }

    #[test]
    fn repair_matches_recompute_interval(
        initial in vec(edge_strategy(), 0..48),
        ops in vec(op_strategy(), 1..8),
        src in 0u32..56,
        stride in 1usize..=4,
    ) {
        check_incremental::<IntervalEdges>(&initial, &ops, Default::default(), src, stride);
    }

    #[test]
    fn repair_matches_recompute_across_worker_pools(
        initial in vec(edge_strategy(), 0..48),
        ops in vec(op_strategy(), 1..6),
        src in 0u32..56,
        stride in 1usize..=4,
    ) {
        // The from-scratch side is parallel; the repaired answer must
        // be identical no matter how wide the pool is.
        for threads in [1usize, 2, 4, 8] {
            parlib::with_threads(threads, || {
                check_incremental::<CompressedEdges>(&initial, &ops, Default::default(), src, stride);
            });
        }
    }
}

/// Empty and duplicate-only batches leave both analytics untouched.
#[test]
fn empty_and_noop_batches_change_nothing() {
    let ring: Vec<(u32, u32)> = (0..32u32).map(|i| (i, (i + 1) % 32)).collect();
    let g = Graph::<CompressedEdges>::from_edges(&sym(ring), Default::default());
    let mut cc = DeltaCc::new(&g);
    let mut bfs = DeltaBfs::new(&g, 0);
    let labels_before = cc.labels().to_vec();
    let dist_before = bfs.dist().to_vec();
    for op in [
        Op::InsertEdges(vec![]),
        Op::DeleteEdges(vec![]),
        // Re-inserting present edges and deleting absent ones are
        // no-ops at the version level: the diff comes back empty.
        Op::InsertEdges(sym(vec![(3, 4), (3, 4), (10, 11)])),
        Op::DeleteEdges(sym(vec![(100, 200)])),
    ] {
        let next = apply(&g, &op);
        let diff = diff_graphs(&g, &next);
        assert!(diff.is_empty(), "unexpected diff for {op:?}");
        let s_cc = cc.apply_diff(&diff, &next);
        let s_bfs = bfs.apply_diff(&diff, &next);
        assert!(!s_cc.full_recompute && !s_bfs.full_recompute);
        assert_eq!(cc.labels(), labels_before.as_slice());
        assert_eq!(bfs.dist(), dist_before.as_slice());
    }
}

/// A vertex-removing delete that takes out a BFS-tree interior vertex
/// and splits a component, in one batch with inserts.
#[test]
fn vertex_removal_splits_and_reroutes() {
    // 0-1-2-3-4-5 path plus a pocket {8,9} hanging off 2.
    let edges = sym(vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 8), (8, 9)]);
    let g = Graph::<CompressedEdges>::from_edges(&edges, Default::default());
    let mut cc = DeltaCc::new(&g);
    let mut bfs = DeltaBfs::new(&g, 0);
    // Remove vertex 2 (BFS-tree interior, articulation point) and at
    // the same time bridge 1-3 so the main path survives without it.
    let next = g.delete_vertices(&[2]).insert_edges(&sym(vec![(1, 3)]));
    let diff = diff_graphs(&g, &next);
    assert!(diff.removed_vertices.contains(&2));
    cc.apply_diff(&diff, &next);
    bfs.apply_diff(&diff, &next);
    assert_eq!(cc.labels(), connected_components(&next).as_slice());
    assert_eq!(bfs.dist(), bfs_oracle(&next, 0).as_slice());
    // The pocket is now its own component, unreachable from 0.
    assert_eq!(cc.labels()[8], cc.labels()[9]);
    assert_ne!(cc.labels()[0], cc.labels()[8]);
    assert_eq!(bfs.dist()[9], u32::MAX);
    assert_eq!(bfs.dist()[5], 4); // 0-1-3-4-5 after the bridge
}
