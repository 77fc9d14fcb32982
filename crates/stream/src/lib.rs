//! `aspen-stream`: a concurrent streaming-ingestion engine over
//! [`aspen::VersionedGraph`].
//!
//! The paper's headline result (§7.4, Table 9) is running batch updates
//! *simultaneously* with graph queries at low latency. This crate is
//! the subsystem that actually does that, rather than replaying a
//! stream synchronously inside a bench loop:
//!
//! * **[`IngestHandle`]** — producers push [`graphgen::Update`]s
//!   into a bounded MPSC channel; a full channel blocks the producer
//!   (backpressure) instead of buffering without bound.
//! * **Writer loop** — a dedicated thread drains the channel into
//!   batches under an adaptive [`BatchPolicy`] (flush on max batch size
//!   or max linger time, whichever comes first, so throughput spikes
//!   get large batches and quiet periods keep latency low) and applies
//!   them with the paper's functional batch insert/delete via the
//!   core's timed-apply hook.
//! * **[`QueryExecutor`]** — registered analytics (BFS, connected
//!   components, PageRank, or anything custom) run on `acquire`d
//!   snapshots concurrently with ingestion; readers never block the
//!   writer and vice versa.
//! * **[`standing`] queries** — analytics maintained *incrementally*
//!   by a repairer thread the writer never waits for: each round it
//!   skips to the newest installed version, diffs it against the last
//!   one it repaired ([`aspen::diff_graphs`], cheap under structural
//!   sharing) and repairs the result in place instead of recomputing,
//!   publishing immutable, version-labelled [`StandingResult`]s that
//!   readers fetch in `O(1)`.
//! * **[`EngineStats`]** — per-batch apply latency, end-to-end update
//!   latency (enqueue → visible in an installed version), and query
//!   latency, all as log-bucketed histograms with percentile reporting.
//!
//! # Quick start
//!
//! ```
//! use aspen::{CompressedEdges, Graph, VersionedGraph};
//! use graphgen::Update;
//! use std::sync::Arc;
//! use stream::{analytics, BatchPolicy, StreamEngine};
//!
//! let vg: Arc<VersionedGraph<CompressedEdges>> = Arc::new(VersionedGraph::new(
//!     Graph::from_edges(&[(0, 1), (1, 0)], Default::default()),
//! ));
//!
//! let engine = StreamEngine::builder(vg.clone())
//!     .policy(BatchPolicy::default())
//!     .register_query(analytics::bfs_from_hub())
//!     .query_threads(1)
//!     .start();
//!
//! // Producers (any number of threads) push updates with backpressure.
//! let h = engine.handle();
//! h.push(Update::Insert(1, 2)).unwrap();
//! h.push(Update::Insert(2, 3)).unwrap();
//! drop(h);
//!
//! // Drains the channel, joins the writer and query threads.
//! let report = engine.finish();
//! assert_eq!(report.updates_applied, 2);
//! assert!(vg.acquire().contains_edge(2, 3));
//! ```

mod config;
mod engine;
mod handle;
mod query;
pub mod sharded;
pub mod standing;
mod stats;
pub mod wal;
mod writer;

pub use config::{BatchPolicy, EngineConfig};
pub use engine::{StreamEngine, StreamEngineBuilder};
pub use handle::{IngestError, IngestHandle};
pub use query::{analytics, QueryExecutor, QueryFn, QuerySpec};
pub use sharded::{
    ShardedCut, ShardedEngine, ShardedEngineBuilder, ShardedIngestHandle, ShardedReport,
};
pub use standing::{digest_values, StandingAnalytic, StandingHandle, StandingResult};
pub use stats::{
    EngineSnapshot, EngineStats, HistogramSnapshot, LatencyHistogram, LatencySummary, StatsReport,
};
pub use wal::{DurabilityConfig, FsyncPolicy, WalError};
