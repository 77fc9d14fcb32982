//! Ligra-style parallel graph algorithms over any [`aspen::GraphView`].
//!
//! The paper implements five algorithms in Aspen (§7): three global —
//! [`bfs`], [`bc`] (single-source betweenness), [`mis`] — and two local
//! — [`two_hop`] and [`local_cluster`] (Nibble-Serial). This crate adds
//! two extensions in the same style: [`connected_components`] and
//! [`pagerank`].
//!
//! Everything is generic over [`aspen::GraphView`], so the identical
//! algorithm code runs against:
//!
//! * an Aspen snapshot (vertex-tree lookups, `O(log n)` per vertex),
//! * an [`aspen::FlatSnapshot`] (the §5.1 flat-snapshot optimization),
//! * every baseline engine in `aspen-baselines` (CSR, compressed CSR,
//!   Stinger-like, LLAMA-like) — which is what makes the paper's
//!   cross-system tables apples-to-apples.

mod bc;
mod bfs;
mod cc;
pub mod incremental;
mod local;
mod mis;
mod pagerank;

pub use bc::{bc, BcResult};
pub use bfs::{bfs, bfs_directed, BfsResult, UNREACHED};
pub use cc::{connected_components, num_components};
pub use incremental::{DeltaBfs, DeltaCc, RepairStats};
pub use local::{local_cluster, local_cluster_with, two_hop, ClusterResult};
pub use mis::{mis, verify_mis};
pub use pagerank::pagerank;
