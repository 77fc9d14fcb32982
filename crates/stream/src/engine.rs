//! Engine assembly: builder, thread lifecycle, shutdown.

use crate::config::{BatchPolicy, EngineConfig};
use crate::handle::{IngestHandle, Msg};
use crate::query::{QueryExecutor, QuerySpec};
use crate::standing::{StandingAnalytic, StandingHandle, StandingQueryState, StandingSet};
use crate::stats::{EngineStats, StatsReport};
use crate::wal::{DurabilityConfig, WalWriter};
use crate::writer::{writer_loop, ConsistencyTracker, WalState, WriterShared};
use aspen::{EdgeSet, VersionedGraph};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configures and launches a [`StreamEngine`].
pub struct StreamEngineBuilder<E: EdgeSet> {
    vg: Arc<VersionedGraph<E>>,
    policy: BatchPolicy,
    config: EngineConfig,
    queries: Vec<QuerySpec<E>>,
    standing: Vec<Box<dyn StandingAnalytic<E>>>,
    query_threads: usize,
    track_consistency: bool,
    directed_arcs: bool,
    stats: Option<Arc<EngineStats>>,
    durability: Option<DurabilityConfig>,
    first_seq: u64,
}

impl<E: EdgeSet> StreamEngineBuilder<E> {
    /// Sets the batching/backpressure policy (default:
    /// [`BatchPolicy::default`]).
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the compute configuration (default:
    /// [`EngineConfig::default`], sharing the global pool).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Shorthand for a dedicated compute pool of `n` workers, shared
    /// by the writer's batch applies and the query executor.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.config.num_threads = Some(n);
        self
    }

    /// Registers an analytic to run continuously on fresh snapshots;
    /// see [`crate::analytics`] for the built-ins.
    pub fn register_query(mut self, query: QuerySpec<E>) -> Self {
        self.queries.push(query);
        self
    }

    /// Registers a **standing query**: an analytic whose result a
    /// repairer thread keeps *repairing* to the newest installed
    /// version — driven by the [`aspen::GraphDiff`] from the version it
    /// last repaired, however many batches ago — instead of being
    /// recomputed from scratch by query threads. The writer never waits
    /// for it, so a result may lag the install; its
    /// [`version`](crate::StandingResult::version) says which version it
    /// reflects. Read the latest result through
    /// [`StreamEngine::standing`]; see [`crate::standing`] for the
    /// built-ins and the publication discipline.
    pub fn register_standing(mut self, analytic: impl StandingAnalytic<E> + 'static) -> Self {
        self.standing.push(Box::new(analytic));
        self
    }

    /// Number of query threads looping over the registered analytics
    /// (default 1; ignored when no queries are registered).
    pub fn query_threads(mut self, n: usize) -> Self {
        self.query_threads = n;
        self
    }

    /// Enables snapshot-consistency auditing: the writer registers
    /// every installed version's edge count, and query threads count a
    /// [`consistency violation`](EngineStats::consistency_violations)
    /// whenever an acquired snapshot shows an unregistered count.
    /// Costs one small mutex acquisition per batch and per query round.
    pub fn track_consistency(mut self, on: bool) -> Self {
        self.track_consistency = on;
        self
    }

    /// Treats every pushed update as a **directed arc** applied as-is:
    /// the writer neither symmetrizes nor coalesces opposite
    /// orientations together. This is how the sharded engine runs its
    /// per-shard engines — each undirected edge's two arcs live in the
    /// two endpoint owners' shards, so symmetrizing locally would
    /// fabricate arcs the shard does not own.
    pub fn directed_arcs(mut self, on: bool) -> Self {
        self.directed_arcs = on;
        self
    }

    /// Uses a caller-constructed stats block instead of a fresh one —
    /// the sharded engine pre-creates per-shard stats so it can attach
    /// them to an obs registry under `stream.shard<K>.*` names before
    /// the shards start.
    pub fn with_stats(mut self, stats: Arc<EngineStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Turns on durability: every batch is framed into a write-ahead
    /// log (and fsynced per [`DurabilityConfig::fsync`]) *before* its
    /// version installs, and checkpoints bound recovery work. To
    /// restart from an existing log, run [`crate::wal::recover`]
    /// first, build the [`VersionedGraph`] from the recovered graph,
    /// and pass the recovered seq to [`first_seq`](Self::first_seq).
    pub fn durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = Some(cfg);
        self
    }

    /// Starts version numbering at `seq` instead of 0 — set this to
    /// [`crate::wal::Recovered::seq`] when resuming a durable engine,
    /// so new WAL frames continue the recovered sequence.
    pub fn first_seq(mut self, seq: u64) -> Self {
        self.first_seq = seq;
        self
    }

    /// Validates the configuration, spawns the writer loop, the
    /// standing-query repairer (only if a standing query is
    /// registered) and the query threads, and returns the running
    /// engine.
    pub fn start(self) -> StreamEngine<E> {
        self.policy.validate();
        self.config.validate();
        let (tx, rx) = sync_channel::<Msg>(self.policy.channel_capacity);
        let stats = self.stats.unwrap_or_else(|| Arc::new(EngineStats::new()));
        // Open (or create) the WAL before anything can be ingested.
        // `first_seq` anchors both the version counter and the log, so
        // frame seqs always equal the versions they produce.
        let wal = self.durability.map(|cfg| {
            let writer = WalWriter::open(
                Arc::clone(&cfg.io),
                &cfg.dir,
                cfg.fsync,
                cfg.segment_bytes,
                self.first_seq,
            )
            .unwrap_or_else(|e| panic!("open write-ahead log in {:?}: {e}", cfg.dir));
            assert_eq!(
                writer.next_seq(),
                self.first_seq + 1,
                "WAL in {:?} continues past first_seq {} — recover() it first \
                 and pass the recovered seq to first_seq()",
                cfg.dir,
                self.first_seq
            );
            stats.wal_durable_seq.set(writer.durable_seq() as i64);
            WalState { writer, cfg }
        });
        let tracker = self
            .track_consistency
            .then(|| Arc::new(ConsistencyTracker::new(self.vg.acquire().num_edges())));
        // One pool for the whole engine: the writer's parallel batch
        // applies and the analytics share it, so an engine sized with
        // `num_threads(n)` never fans out past `n` workers no matter
        // how many query threads race rounds.
        let pool = self.config.num_threads.map(|n| {
            Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("build engine compute pool"),
            )
        });

        // Standing queries initialize on the caller's thread (from the
        // engine's starting snapshot) so their version-0 results are
        // readable before `start` even returns; the repairer thread
        // then keeps them up with the installs.
        let installed_seq = Arc::new(AtomicU64::new(self.first_seq));
        let mut standing_handles = Vec::with_capacity(self.standing.len());
        let (repair_tx, repairer) = if self.standing.is_empty() {
            (None, None)
        } else {
            let initial = self.vg.acquire();
            let init_one = |analytic| {
                let (state, handle) = StandingQueryState::init(analytic, &initial);
                standing_handles.push(handle);
                state
            };
            let queries = match &pool {
                Some(p) => p.install(|| self.standing.into_iter().map(init_one).collect()),
                None => self.standing.into_iter().map(init_one).collect(),
            };
            let set = StandingSet {
                prev: initial,
                queries,
            };
            // Unbounded: the writer never blocks on the repairer, and
            // each round drains whatever queued up meanwhile.
            let (tx, rx) = channel();
            let stats = stats.clone();
            let pool = pool.clone();
            let repairer = std::thread::Builder::new()
                .name("aspen-stream-repairer".into())
                .spawn(move || set.run(rx, &stats, pool.as_deref()))
                .expect("spawn repairer thread");
            (Some(tx), Some(repairer))
        };

        let writer = {
            let vg = self.vg.clone();
            let stats = stats.clone();
            let tracker = tracker.clone();
            let policy = self.policy;
            let pool = pool.clone();
            let installed_seq = installed_seq.clone();
            let directed = self.directed_arcs;
            std::thread::Builder::new()
                .name("aspen-stream-writer".into())
                .spawn(move || {
                    let shared = WriterShared {
                        vg,
                        stats,
                        tracker,
                        pool,
                        installed_seq,
                        repairer: repair_tx,
                        directed,
                        wal,
                    };
                    writer_loop(shared, rx, policy)
                })
                .expect("spawn writer thread")
        };

        let stop_queries = Arc::new(AtomicBool::new(false));
        let executor = Arc::new(QueryExecutor::new(
            self.vg.clone(),
            self.queries,
            stats.clone(),
            tracker,
            pool,
        ));
        let query_threads = if executor.has_queries() {
            (0..self.query_threads.max(1))
                .map(|i| {
                    let executor = executor.clone();
                    let stop = stop_queries.clone();
                    std::thread::Builder::new()
                        .name(format!("aspen-stream-query-{i}"))
                        .spawn(move || executor.run_until(&stop))
                        .expect("spawn query thread")
                })
                .collect()
        } else {
            Vec::new()
        };

        StreamEngine {
            vg: self.vg,
            handle: IngestHandle {
                tx,
                closed: Arc::new(AtomicBool::new(false)),
            },
            writer,
            repairer,
            query_threads,
            stop_queries,
            stats,
            installed_seq,
            standing_handles,
        }
    }
}

/// A running ingestion engine: one writer loop, any number of producer
/// handles, a pool of query threads, and a standing-query repairer
/// when standing queries are registered — all over one
/// [`VersionedGraph`].
///
/// Lifecycle: [`builder`](Self::builder) → [`start`](StreamEngineBuilder::start)
/// → clone [`handle`](Self::handle)s into producers → producers drop
/// their handles → [`finish`](Self::finish).
pub struct StreamEngine<E: EdgeSet> {
    vg: Arc<VersionedGraph<E>>,
    handle: IngestHandle,
    writer: JoinHandle<()>,
    repairer: Option<JoinHandle<()>>,
    query_threads: Vec<JoinHandle<()>>,
    stop_queries: Arc<AtomicBool>,
    stats: Arc<EngineStats>,
    installed_seq: Arc<AtomicU64>,
    standing_handles: Vec<StandingHandle>,
}

impl<E: EdgeSet> StreamEngine<E> {
    /// Starts configuring an engine over `vg`.
    pub fn builder(vg: Arc<VersionedGraph<E>>) -> StreamEngineBuilder<E> {
        StreamEngineBuilder {
            vg,
            policy: BatchPolicy::default(),
            config: EngineConfig::default(),
            queries: Vec::new(),
            standing: Vec::new(),
            query_threads: 1,
            track_consistency: false,
            directed_arcs: false,
            stats: None,
            durability: None,
            first_seq: 0,
        }
    }

    /// A new producer handle. Clone as many as there are producers.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// The graph under ingestion; `acquire` snapshots freely.
    pub fn graph(&self) -> &Arc<VersionedGraph<E>> {
        &self.vg
    }

    /// Live statistics (updated concurrently by the writer and query
    /// threads).
    pub fn stats(&self) -> &Arc<EngineStats> {
        &self.stats
    }

    /// Version sequence number of the most recently installed batch
    /// (0 = the initial snapshot, +1 per batch). Any standing result
    /// readable *now* has `version <= installed_version()` — the
    /// torn-repair-freedom invariant.
    pub fn installed_version(&self) -> u64 {
        self.installed_seq.load(Ordering::Acquire)
    }

    /// The shared installed-version counter itself; the sharded engine
    /// reads per-shard counters when assembling version vectors.
    pub(crate) fn installed_counter(&self) -> Arc<AtomicU64> {
        self.installed_seq.clone()
    }

    /// Reader handle for the standing query named `name` (as given by
    /// its [`StandingAnalytic::name`]), if one was registered.
    pub fn standing(&self, name: &str) -> Option<StandingHandle> {
        self.standing_handles
            .iter()
            .find(|h| h.name() == name)
            .cloned()
    }

    /// Reader handles for every registered standing query, in
    /// registration order.
    pub fn standing_handles(&self) -> &[StandingHandle] {
        &self.standing_handles
    }

    /// Shuts down: drains and joins the writer (blocks until every
    /// producer [`IngestHandle`] is dropped and the channel is empty),
    /// lets the standing-query repairer finish on the final version,
    /// stops and joins the query threads, and returns the final
    /// statistics report.
    pub fn finish(self) -> StatsReport {
        self.join()
    }

    /// Graceful shutdown that does **not** wait for producers to drop
    /// their handles: everything already enqueued is drained, flushed,
    /// and installed, the WAL tail is fsynced, standing results are
    /// repaired to the final version, and then the writer, repairer and
    /// query threads are joined. Producers racing the close see
    /// [`crate::IngestError::Closed`] on their next push instead of
    /// blocking forever on an undrained channel.
    pub fn close(self) -> StatsReport {
        self.handle.closed.store(true, Ordering::Release);
        // FIFO channel: the shutdown message sorts after every update
        // already accepted, so nothing acked is abandoned. The send
        // only fails if the writer is already gone — equally done.
        let _ = self.handle.push_shutdown();
        self.join()
    }

    /// The shared tail of [`finish`](Self::finish) and
    /// [`close`](Self::close): writer, then repairer, then query
    /// threads, then the report.
    fn join(self) -> StatsReport {
        // Dropping the engine's own sender lets the writer's channel
        // disconnect once external producers have dropped theirs.
        drop(self.handle);
        self.writer.join().expect("writer thread panicked");
        // The writer's exit dropped the repairer's sender: the repairer
        // runs its last round, on the final version, and returns.
        if let Some(r) = self.repairer {
            r.join().expect("repairer thread panicked");
        }
        self.stop_queries.store(true, Ordering::Release);
        for t in self.query_threads {
            t.join().expect("query thread panicked");
        }
        self.stats.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::analytics;
    use aspen::{CompressedEdges, Graph};
    use graphgen::Update;

    fn engine_over_ring(n: u32) -> StreamEngine<CompressedEdges> {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .collect();
        let vg = Arc::new(VersionedGraph::new(Graph::from_edges(
            &edges,
            Default::default(),
        )));
        StreamEngine::builder(vg).track_consistency(true).start()
    }

    #[test]
    fn ingest_then_finish_applies_everything() {
        let engine = engine_over_ring(8);
        let vg = engine.graph().clone();
        let h = engine.handle();
        h.push(Update::Insert(0, 100)).unwrap();
        h.push(Update::Insert(100, 200)).unwrap();
        h.push(Update::Delete(0, 1)).unwrap();
        drop(h);
        let report = engine.finish();
        assert_eq!(report.updates_applied, 3);
        assert_eq!(report.update_e2e.count, 3);
        assert_eq!(report.consistency_violations, 0);
        let g = vg.acquire();
        assert!(g.contains_edge(100, 0) && g.contains_edge(200, 100));
        assert!(!g.contains_edge(0, 1));
    }

    #[test]
    fn dedicated_compute_pool_applies_batches_and_queries() {
        let edges: Vec<(u32, u32)> = (0..32u32)
            .flat_map(|i| [(i, (i + 1) % 32), ((i + 1) % 32, i)])
            .collect();
        let vg: Arc<VersionedGraph<CompressedEdges>> = Arc::new(VersionedGraph::new(
            Graph::from_edges(&edges, Default::default()),
        ));
        let engine = StreamEngine::builder(vg.clone())
            .num_threads(2)
            .register_query(analytics::connected_components())
            .track_consistency(true)
            .start();
        let h = engine.handle();
        for i in 0..300 {
            h.push(Update::Insert(i % 32, 32 + i)).unwrap();
        }
        drop(h);
        let report = engine.finish();
        assert_eq!(report.updates_applied, 300);
        assert_eq!(report.consistency_violations, 0);
        assert!(vg.acquire().contains_edge(32, 0));
    }

    #[test]
    fn standing_query_repairs_across_ingestion() {
        let engine = engine_over_ring(16);
        let builder_engine = {
            // Rebuild with a standing CC query (engine_over_ring has none).
            let vg = engine.graph().clone();
            drop(engine);
            StreamEngine::builder(vg)
                .register_standing(crate::standing::connected_components())
                .register_standing(crate::standing::bfs_from(0))
                .start()
        };
        let cc = builder_engine.standing("cc").expect("cc registered");
        let bfs = builder_engine.standing("bfs").expect("bfs registered");
        assert!(builder_engine.standing("nope").is_none());
        assert_eq!(builder_engine.standing_handles().len(), 2);
        // Version-0 results are readable before any ingestion.
        assert_eq!(cc.read().version, 0);
        assert_eq!(bfs.read().values[0], 0);
        let h = builder_engine.handle();
        for i in 0..200u32 {
            h.push(Update::Insert(i % 16, 16 + i)).unwrap();
        }
        h.push(Update::Delete(0, 1)).unwrap();
        drop(h);
        let vg = builder_engine.graph().clone();
        let report = builder_engine.finish();
        assert!(report.standing_repairs >= 1, "repairer never ran");
        let g = vg.acquire();
        let r = cc.read();
        assert_eq!(*r.values, algorithms::connected_components(&*g));
        // After drain, the final result reflects the last installed batch.
        assert_eq!(r.version, report.batches_applied);
        assert_eq!(*bfs.read().values, algorithms::bfs(&*g, 0).dist);
    }

    #[test]
    fn finish_with_no_updates_is_clean() {
        let engine = engine_over_ring(4);
        let report = engine.finish();
        assert_eq!(report.updates_applied, 0);
        assert_eq!(report.batches_applied, 0);
    }

    #[test]
    fn queries_run_while_ingesting() {
        let edges: Vec<(u32, u32)> = (0..64u32)
            .flat_map(|i| [(i, (i + 1) % 64), ((i + 1) % 64, i)])
            .collect();
        let vg: Arc<VersionedGraph<CompressedEdges>> = Arc::new(VersionedGraph::new(
            Graph::from_edges(&edges, Default::default()),
        ));
        let engine = StreamEngine::builder(vg)
            .register_query(analytics::connected_components())
            .query_threads(2)
            .track_consistency(true)
            .start();
        let h = engine.handle();
        for i in 0..500 {
            h.push(Update::Insert(i % 64, 64 + i)).unwrap();
        }
        drop(h);
        // Let the queries observe some post-ingestion versions too.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let report = engine.finish();
        assert_eq!(report.updates_applied, 500);
        assert!(report.queries_run > 0, "query threads never ran");
        assert_eq!(report.consistency_violations, 0);
    }
}
