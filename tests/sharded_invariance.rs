//! Shard-count invariance suite for the sharded multi-writer engine.
//!
//! Randomized batched update histories are pushed through
//! [`ShardedEngine`]s of 1, 2 and 4 shards — under both hash and range
//! routers, over delta-encoded and intervalized chunk codecs — and the
//! fully-drained final cut must agree with a **sequentially applied
//! unsharded oracle** on every analytics digest: directed edge count,
//! connected-component labels, and BFS distances. Both read paths are
//! exercised: the cut's own queries (`cut.bfs`,
//! `cut.connected_components`), which run the unsharded algorithms
//! over one flat snapshot merged from every shard, and the same
//! algorithms walking the shard trees through the cut's `GraphView`
//! impl. Every cut is also audited for its invariants (each arc in its
//! source's owner shard, its reverse present in the other endpoint's
//! shard) — the properties the router and the epoch-barrier protocol
//! exist to guarantee.
//!
//! Only the *final* state is compared because epoch boundaries depend
//! on writer timing; final state does not (per-batch last-wins
//! coalescing equals sequential replay for set operations).

use aspen_repro::algorithms;
use aspen_repro::aspen::{
    symmetrize, ChunkParams, CompressedEdges, EdgeSet, Graph, GraphView, IntervalEdges,
    ShardRouter, VertexId,
};
use aspen_repro::graphgen::Update;
use aspen_repro::stream::ShardedEngine;
use proptest::collection::vec;
use proptest::prelude::*;

fn sym(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId)> {
    symmetrize(edges)
}

/// The unsharded oracle: the initial graph with every update applied
/// in order, one at a time (no batching, no coalescing).
fn oracle<E: EdgeSet>(initial: &[(u32, u32)], updates: &[Update], cfg: E::Config) -> Graph<E> {
    let mut g = Graph::<E>::from_edges(initial, cfg);
    for &u in updates {
        g = match u {
            Update::Insert(a, b) => g.insert_edges(&sym(&[(a, b)])),
            Update::Delete(a, b) => g.delete_edges(&sym(&[(a, b)])),
        };
    }
    g
}

/// Drives one sharded engine to completion and checks every digest
/// against the oracle.
fn check_one<E: EdgeSet>(
    router: ShardRouter,
    initial: &[(u32, u32)],
    updates: &[Update],
    cfg: E::Config,
    want: &Graph<E>,
) {
    let engine = ShardedEngine::<E>::builder(router)
        .initial_arcs(initial)
        .edge_config(cfg)
        .start();
    let h = engine.handle();
    h.push_all(updates).expect("engine closed early");
    drop(h);
    let report = engine.finish();
    let cut = &report.final_cut;

    assert_eq!(
        cut.check_mirror_consistency(),
        0,
        "mirror-torn cut under {router:?}"
    );
    assert_eq!(cut.num_edges(), want.num_edges(), "edges under {router:?}");
    assert_eq!(cut.id_bound(), want.id_bound(), "bound under {router:?}");

    let want_cc = algorithms::connected_components(want);
    // Over the merged flat snapshot…
    assert_eq!(cut.connected_components(), want_cc, "cc under {router:?}");
    // …and the same algorithm through the cut's GraphView.
    assert_eq!(
        algorithms::connected_components(&**cut),
        want_cc,
        "cc via GraphView under {router:?}"
    );

    if want.id_bound() > 0 {
        // A source guaranteed in-bounds for both representations.
        let src = (want.id_bound() - 1) as u32 / 2;
        let want_bfs = algorithms::bfs(want, src);
        let got = cut.bfs(src);
        assert_eq!(got.dist, want_bfs.dist, "bfs under {router:?}");
        assert_eq!(got.rounds, want_bfs.rounds, "bfs rounds under {router:?}");
        if rayon::current_num_threads() == 1 {
            // One worker claims parents in one order, on any view.
            assert_eq!(got.parent, want_bfs.parent, "bfs tree under {router:?}");
        }
        assert_eq!(
            algorithms::bfs(&**cut, src).dist,
            want_bfs.dist,
            "bfs via GraphView under {router:?}"
        );
    }
}

/// Replays one history at every shard count and router family.
fn check_invariance<E: EdgeSet>(raw_initial: &[(u32, u32)], updates: &[Update], cfg: E::Config) {
    let initial = sym(raw_initial);
    let want = oracle::<E>(&initial, updates, cfg);
    let id_span = want.id_bound().max(1) as u32;
    for shards in [1usize, 2, 4] {
        check_one::<E>(ShardRouter::hash(shards), &initial, updates, cfg, &want);
        check_one::<E>(
            ShardRouter::range(shards, id_span),
            &initial,
            updates,
            cfg,
            &want,
        );
    }
}

fn edge_strategy() -> impl Strategy<Value = (VertexId, VertexId)> {
    // Small id range: collisions, re-inserts, and deletes of live
    // edges are all common.
    (0u32..32, 0u32..32)
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        edge_strategy().prop_map(|(u, v)| Update::Insert(u, v)),
        edge_strategy().prop_map(|(u, v)| Update::Delete(u, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_matches_oracle_default_codec(
        initial in vec(edge_strategy(), 0..40),
        updates in vec(update_strategy(), 0..60),
    ) {
        check_invariance::<CompressedEdges>(&initial, &updates, Default::default());
    }

    #[test]
    fn sharded_matches_oracle_intervalized(
        initial in vec(edge_strategy(), 0..40),
        updates in vec(update_strategy(), 0..60),
    ) {
        // Tiny chunks so arcs cross chunk boundaries constantly.
        check_invariance::<IntervalEdges>(&initial, &updates, ChunkParams::with_b(4));
    }
}

#[test]
fn empty_history_all_shard_counts() {
    check_invariance::<CompressedEdges>(&[], &[], Default::default());
}

#[test]
fn delete_only_history() {
    // Deletes against existing and missing edges, including the whole
    // initial graph.
    let initial: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
    let mut updates: Vec<Update> = (0..8u32).map(|i| Update::Delete(i, (i + 1) % 8)).collect();
    updates.push(Update::Delete(100, 200));
    check_invariance::<CompressedEdges>(&initial, &updates, Default::default());
}

#[test]
fn insert_delete_reinsert_churn() {
    let initial = [(0u32, 1u32), (1, 2)];
    let updates = vec![
        Update::Insert(2, 3),
        Update::Delete(2, 3),
        Update::Insert(2, 3),
        Update::Delete(0, 1),
        Update::Insert(0, 1),
        Update::Insert(3, 4),
        Update::Delete(1, 2),
    ];
    check_invariance::<CompressedEdges>(&initial, &updates, Default::default());
    check_invariance::<IntervalEdges>(&initial, &updates, ChunkParams::with_b(4));
}
