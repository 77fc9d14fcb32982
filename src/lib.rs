//! # aspen-repro
//!
//! A from-scratch Rust reproduction of *"Low-Latency Graph Streaming
//! Using Compressed Purely-Functional Trees"* (Dhulipala, Blelloch,
//! Shun — PLDI 2019): the **C-tree** data structure and the **Aspen**
//! graph-streaming framework, together with the substrate layers,
//! algorithm suite, comparison baselines and the benchmark harness that
//! regenerates every table and figure in the paper's evaluation.
//!
//! This facade crate re-exports the workspace so downstream users can
//! depend on a single package:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ctree`] | `aspen-ctree` | the C-tree (paper §3–4) |
//! | [`aspen`] | `aspen` | graph + versions + edgeMap (§5–6) |
//! | [`stream`] | `aspen-stream` | concurrent ingestion engine: adaptive batching, live analytics (§7.4) |
//! | [`algorithms`] | `aspen-algorithms` | BFS, BC, MIS, 2-hop, Local-Cluster (§7); CC, PageRank |
//! | [`baselines`] | `aspen-baselines` | CSR, compressed CSR, Stinger-like, LLAMA-like |
//! | [`graphgen`] | `aspen-graphgen` | rMAT / Erdős–Rényi / update streams |
//! | [`ptree`] | `aspen-ptree` | purely-functional treaps (PAM-equivalent) |
//! | [`encoder`] | `aspen-encoder` | difference encoding + byte codes |
//! | [`obs`] | `aspen-obs` | metrics registry, latency histograms, task tracing, JSON |
//! | [`parlib`] | `parlib` | scans, packs, atomics, hashing |
//!
//! ## Quick start
//!
//! ```
//! use aspen_repro::aspen::{CompressedEdges, Graph, VersionedGraph};
//! use aspen_repro::algorithms::bfs;
//! use aspen_repro::aspen::FlatSnapshot;
//!
//! // Stream a graph, query a snapshot while writing.
//! let vg: VersionedGraph<CompressedEdges> =
//!     VersionedGraph::new(Graph::from_edges(&[(0, 1), (1, 0)], Default::default()));
//! vg.insert_edges_undirected(&[(1, 2), (2, 3)]);
//!
//! let snapshot = vg.acquire();
//! let result = bfs(&FlatSnapshot::new(&snapshot), 0);
//! assert_eq!(result.dist[3], 3);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! `repro` binary that regenerates the paper's tables.

pub use algorithms;
pub use aspen;
pub use baselines;
pub use ctree;
pub use encoder;
pub use graphgen;
pub use obs;
pub use parlib;
pub use ptree;
pub use stream;
