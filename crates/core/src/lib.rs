//! Aspen: a multicore graph-streaming framework over compressed
//! purely-functional trees.
//!
//! This crate is the framework layer of the PLDI 2019 paper
//! *"Low-Latency Graph Streaming Using Compressed Purely-Functional
//! Trees"* (Dhulipala, Blelloch, Shun). It represents an undirected
//! graph as a purely-functional **vertex tree** (augmented with edge
//! counts) whose values are persistent per-vertex **edge sets** —
//! by default C-trees with difference-encoded chunks (the `ctree`
//! crate, the paper's core contribution).
//!
//! # The interface (paper §6 and Appendix 10.4)
//!
//! * **Versioning** — [`VersionedGraph`] provides `acquire`/`set`/
//!   `release`: any number of readers run on immutable snapshots while
//!   a single writer installs new versions atomically; queries and
//!   updates are strictly serializable.
//! * **Updates** — [`Graph::insert_edges`], [`Graph::delete_edges`],
//!   [`Graph::insert_vertices`], [`Graph::delete_vertices`], all batch
//!   operations built on the trees' `MultiInsert` with `Union`/
//!   `Difference` combiners.
//! * **Ligra interface** — [`VertexSubset`] and [`edge_map`] with
//!   direction optimization, so Ligra-style algorithms port with minor
//!   changes (they live in the `aspen-algorithms` crate).
//! * **Flat snapshots** (§5.1) — [`FlatSnapshot`] trades `O(n)` setup
//!   for `O(1)` vertex access, removing the `O(K log n)` overhead of
//!   tree lookups in global algorithms.
//!
//! # Quick start
//!
//! ```
//! use aspen::{edge_map, CompressedEdges, Graph, VersionedGraph, VertexSubset};
//!
//! // A triangle, kept symmetric (undirected).
//! let vg: VersionedGraph<CompressedEdges> = VersionedGraph::new(Graph::from_edges(
//!     &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)],
//!     Default::default(),
//! ));
//!
//! // A reader takes a snapshot; a writer streams in more edges.
//! let snapshot = vg.acquire();
//! vg.insert_edges_undirected(&[(2, 3)]);
//!
//! // The snapshot still sees the triangle only.
//! assert_eq!(snapshot.num_vertices(), 3);
//! assert_eq!(vg.acquire().num_vertices(), 4);
//!
//! // One edgeMap step from vertex 0 over the snapshot.
//! let frontier = VertexSubset::single(3, 0);
//! let next = edge_map(&*snapshot, &frontier, |_u, _v| true, |_v| true);
//! assert_eq!(next.len(), 2);
//! ```

mod diff;
mod edgemap;
mod edges;
mod flat;
mod graph;
mod shard;
mod snapshot;
mod subset;
mod versioned;
mod view;

pub use diff::{diff_graphs, diff_graphs_with_stats, DiffStats, GraphDiff};
pub use edgemap::{edge_map, edge_map_directed, vertex_map, Direction};
pub use edges::{
    CTreeEdges, CompressedEdges, EdgeSet, IntervalEdges, PlainEdges, UncompressedEdges, VertexId,
};
pub use flat::FlatSnapshot;
pub use graph::{EdgeMeasure, Graph, VertexEntry, VertexTree};
pub use shard::{ShardRouter, VersionVector};
pub use snapshot::{put_u32, put_u64, read_snapshot, ByteReader, SnapshotError, SnapshotWriter};
pub use subset::VertexSubset;
pub use versioned::{symmetrize, ApplyTiming, Version, VersionedGraph};
pub use view::GraphView;

// Re-export the chunk configuration so users tune `b` without a direct
// `ctree` dependency.
pub use ctree::ChunkParams;
