//! Flat snapshots (§5.1).
//!
//! Global algorithms touch `Ω(n)` vertices, so the `O(log n)` cost of
//! reaching each vertex through the vertex-tree adds an `O(K log n)`
//! term over a CSR baseline. A **flat snapshot** pays `O(n)` work once
//! — a single parallel traversal of the vertex tree — to produce an
//! array of edge-set handles indexed by vertex id, after which each
//! vertex access is `O(1)`.
//!
//! Because the handles are persistent edge sets, a flat snapshot is
//! itself a consistent snapshot: concurrent updates to the versioned
//! graph never disturb it.

use crate::edges::{EdgeSet, VertexId};
use crate::graph::Graph;
use crate::view::GraphView;

/// An array of per-vertex edge-set handles, giving `O(1)` vertex
/// access for global algorithms.
///
/// # Example
///
/// ```
/// use aspen::{CompressedEdges, FlatSnapshot, Graph};
///
/// let g: Graph<CompressedEdges> =
///     Graph::from_edges(&[(0, 1), (1, 0)], Default::default());
/// let snap = FlatSnapshot::new(&g);
/// assert_eq!(snap.degree(0), 1);
/// ```
pub struct FlatSnapshot<E: EdgeSet> {
    slots: Vec<Option<E>>,
    num_edges: u64,
}

impl<E: EdgeSet> FlatSnapshot<E> {
    /// Builds a flat snapshot from a graph snapshot: one parallel
    /// traversal of the vertex tree that writes each vertex's handle
    /// straight into its slot, `O(n)` work and polylogarithmic depth.
    pub fn new(graph: &Graph<E>) -> Self {
        Self::merged(&[graph])
    }

    /// One flat snapshot over several graphs that partition the
    /// out-edges of one logical graph by source vertex — the shards of
    /// a sharded engine, where every vertex's whole adjacency list
    /// lives in its owner shard. A shard holds only the vertices it
    /// owns, but shards built by older versions also hold an edgeless
    /// entry for every target they mention; such an entry never
    /// displaces one with edges, so those still merge correctly.
    ///
    /// # Panics
    ///
    /// Panics if two of the graphs both hold out-edges of one vertex.
    pub fn merged(graphs: &[&Graph<E>]) -> Self {
        let bound = graphs
            .iter()
            .filter_map(|g| g.max_vertex_id())
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut slots: Vec<Option<E>> = Vec::with_capacity(bound);
        slots.resize_with(bound, || None);
        for graph in graphs {
            graph.vertex_tree().par_scatter(
                &mut slots,
                |entry| entry.id as usize,
                |entry, slot| {
                    // An edgeless entry never displaces one already there.
                    if slot.is_none() || entry.edges.degree() > 0 {
                        assert!(
                            slot.as_ref().map_or(0, |held| held.degree()) == 0,
                            "two merged graphs both hold out-edges of vertex {}",
                            entry.id
                        );
                        *slot = Some(entry.edges.clone());
                    }
                },
            );
        }
        FlatSnapshot {
            slots,
            num_edges: graphs.iter().map(|g| g.num_edges()).sum(),
        }
    }

    /// Number of id slots (`max id + 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the snapshot covers no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The edge set of `v`, if the vertex exists.
    #[inline]
    pub fn edges(&self, v: VertexId) -> Option<&E> {
        self.slots.get(v as usize).and_then(|s| s.as_ref())
    }

    /// Degree of `v`; `O(1)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.edges(v).map_or(0, |e| e.degree())
    }

    /// Bytes used by the snapshot array itself (the "Flat Snap." column
    /// of Table 2). The edge sets are shared with the graph and not
    /// counted here.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<E>>()
    }
}

impl<E: EdgeSet> GraphView for FlatSnapshot<E> {
    fn id_bound(&self) -> usize {
        self.slots.len()
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        FlatSnapshot::degree(self, v)
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        if let Some(edges) = self.edges(v) {
            edges.for_each(f);
        }
    }

    fn for_each_neighbor_until(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        match self.edges(v) {
            Some(edges) => edges.for_each_until(f),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::CompressedEdges;
    use crate::shard::ShardRouter;
    use crate::versioned::symmetrize;
    use ctree::ChunkParams;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    type G = Graph<CompressedEdges>;

    fn grid() -> G {
        let mut edges = Vec::new();
        for i in 0u32..100 {
            edges.push((i, (i + 1) % 100));
            edges.push(((i + 1) % 100, i));
        }
        G::from_edges(&edges, ChunkParams::default())
    }

    #[test]
    fn flat_matches_tree_access() {
        let g = grid();
        let snap = FlatSnapshot::new(&g);
        assert_eq!(snap.len(), 100);
        for v in 0u32..100 {
            assert_eq!(snap.degree(v), g.degree(v));
            assert_eq!(snap.neighbors(v), GraphView::neighbors(&g, v));
        }
    }

    #[test]
    fn flat_is_a_stable_snapshot() {
        let g = grid();
        let snap = FlatSnapshot::new(&g);
        let _g2 = g.insert_edges(&[(0, 50), (50, 0)]);
        // snapshot untouched by the (persistent) update
        assert_eq!(snap.degree(0), 2);
    }

    #[test]
    fn missing_ids_are_isolated() {
        let g = G::from_edges(&[(0, 5), (5, 0)], ChunkParams::default());
        let snap = FlatSnapshot::new(&g);
        assert_eq!(snap.len(), 6);
        assert_eq!(snap.degree(3), 0);
        assert!(snap.edges(3).is_none());
        let mut visited = false;
        snap.for_each_neighbor(3, &mut |_| visited = true);
        assert!(!visited);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = G::new(ChunkParams::default());
        let snap = FlatSnapshot::new(&g);
        assert!(snap.is_empty());
        assert_eq!(snap.memory_bytes(), 0);
        assert!(FlatSnapshot::<CompressedEdges>::merged(&[]).is_empty());
    }

    /// An edge set that counts its handles (the `Arc`) and every
    /// `clone` call ever made of it.
    struct Counted(Arc<(Vec<VertexId>, AtomicUsize)>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0 .1.fetch_add(1, Ordering::Relaxed);
            Counted(self.0.clone())
        }
    }

    impl EdgeSet for Counted {
        type Config = ();
        fn empty((): ()) -> Self {
            Self::from_sorted(&[], ())
        }
        fn from_sorted(neighbors: &[VertexId], (): ()) -> Self {
            Counted(Arc::new((neighbors.to_vec(), AtomicUsize::new(0))))
        }
        fn degree(&self) -> usize {
            self.0 .0.len()
        }
        fn contains(&self, v: VertexId) -> bool {
            self.0 .0.binary_search(&v).is_ok()
        }
        fn for_each(&self, f: &mut dyn FnMut(VertexId)) {
            self.0 .0.iter().for_each(|&v| f(v));
        }
        fn for_each_until(&self, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
            self.0 .0.iter().all(|&v| f(v))
        }
        fn union(&self, _: &Self) -> Self {
            unimplemented!("the snapshot never combines edge sets")
        }
        fn difference(&self, _: &Self) -> Self {
            unimplemented!("the snapshot never combines edge sets")
        }
        fn memory_bytes(&self) -> usize {
            self.0 .0.len() * 4
        }
        fn repr_name() -> &'static str {
            "counted"
        }
    }

    #[test]
    fn building_clones_each_edge_handle_exactly_once() {
        let edges: Vec<(u32, u32)> = (0u32..600).map(|i| (i * 3, (i * 7) % 1800)).collect();
        let g = Graph::<Counted>::from_edges(&edges, ());
        // (live handles, clone calls so far) of every vertex.
        let counts = || {
            let mut counts = Vec::new();
            g.vertex_tree().for_each_seq(&mut |e| {
                let clones = e.edges.0 .1.load(Ordering::Relaxed);
                counts.push((Arc::strong_count(&e.edges.0), clones));
            });
            counts
        };
        let before = counts();
        assert!(before.len() > 600 && before.iter().all(|&(handles, _)| handles == 1));
        let plus = |handles: usize, clones: usize| -> Vec<(usize, usize)> {
            before
                .iter()
                .map(|&(h, c)| (h + handles, c + clones))
                .collect()
        };
        let snap = FlatSnapshot::new(&g);
        assert_eq!(counts(), plus(1, 1), "one handle and one clone per vertex");
        drop(snap);
        assert_eq!(counts(), plus(0, 1), "and no handle kept");
    }

    #[test]
    #[should_panic(expected = "both hold out-edges of vertex 1")]
    fn merging_graphs_that_share_a_source_is_rejected() {
        let a = G::from_edges(&[(1, 2)], ChunkParams::default());
        let b = G::from_edges(&[(1, 3)], ChunkParams::default());
        let _ = FlatSnapshot::merged(&[&a, &b]);
    }

    #[test]
    fn edgeless_target_entries_never_displace_adjacency() {
        // Shards from older builds: each holds an edgeless entry for
        // the target it mentions, in either order of the merge.
        let a = G::from_edges(&[(1, 2)], ChunkParams::default());
        let b = G::from_edges(&[(2, 1)], ChunkParams::default());
        for parts in [[&a, &b], [&b, &a]] {
            let snap = FlatSnapshot::merged(&parts);
            assert_eq!((snap.neighbors(1), snap.neighbors(2)), (vec![2], vec![1]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shards built and updated the way a sharded engine does it —
        /// each arc of a symmetric list in its source's owner shard,
        /// sources only — merge into the unsharded snapshot.
        #[test]
        fn merged_matches_the_unsharded_snapshot(
            edges in vec((0u32..48, 0u32..48), 0..60),
            deleted in 0usize..30,
            shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
            by_range in any::<bool>(),
        ) {
            // A range span past every id leaves the last shards empty.
            let router = if by_range { ShardRouter::range(shards, 64) } else { ShardRouter::hash(shards) };
            let arcs = symmetrize(&edges);
            let deleted = &symmetrize(&edges[..deleted.min(edges.len())]);
            let own = |k: usize, arcs: &[(u32, u32)]| -> Vec<(u32, u32)> {
                arcs.iter().copied().filter(|&(u, _)| router.shard_of(u) == k).collect()
            };
            let cfg = ChunkParams::with_b(4);
            let whole = G::from_edges(&arcs, cfg).delete_edges(deleted);
            let parts: Vec<G> = (0..shards)
                .map(|k| G::from_arcs(&own(k, &arcs), cfg).delete_edges(&own(k, deleted)))
                .collect();
            let want = FlatSnapshot::new(&whole);
            let got = FlatSnapshot::merged(&parts.iter().collect::<Vec<_>>());
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(GraphView::num_edges(&got), GraphView::num_edges(&want));
            for v in 0..want.len() as u32 + 2 {
                prop_assert_eq!(got.neighbors(v), want.neighbors(v), "vertex {}", v);
                prop_assert_eq!(got.edges(v).is_some(), want.edges(v).is_some(), "vertex {}", v);
            }
        }
    }
}
