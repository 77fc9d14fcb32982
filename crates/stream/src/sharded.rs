//! The sharded multi-writer engine: N independent [`StreamEngine`]s,
//! one per vertex-space shard, behind a single ingest front end and a
//! consistent-cut query surface.
//!
//! # Why
//!
//! One [`aspen::VersionedGraph`] means one writer loop: every batch
//! serializes through a single root install. Partitioning the vertex
//! space across shards gives each partition its own writer loop,
//! version chain, and batch pipeline — inserts touching different
//! shards proceed concurrently end to end.
//!
//! # Topology
//!
//! An [`aspen::ShardRouter`] owns the partitioning decision. The
//! undirected edge `{u, v}` is stored as the directed arc `(u, v)` in
//! `shard_of(u)` and the mirror arc `(v, u)` in `shard_of(v)`
//! (per-shard engines run in [`directed-arc mode`]), so any vertex's
//! full adjacency list lives in its owner shard and neighbor scans
//! never cross shards. Summing per-shard directed edge counts yields
//! the global count with no double counting.
//!
//! [`directed-arc mode`]: crate::StreamEngineBuilder::directed_arcs
//!
//! # Consistency: epoch barriers and version vectors
//!
//! Concurrent shard writers flush on their own schedules, so "acquire
//! every shard's latest version" can observe a **mirror-torn** state:
//! arc `(u, v)` applied in `shard_of(u)` but `(v, u)` not yet applied
//! in `shard_of(v)`. The front end prevents this by construction:
//!
//! 1. A single **router thread** drains the producer channel into
//!    **epochs** under the engine's [`BatchPolicy`], splitting each
//!    update into its two arcs and forwarding them to the owner
//!    shards' channels (both arcs routed in the same epoch).
//! 2. After routing an epoch it pushes a barrier message onto **every**
//!    shard channel. Shard channels are FIFO and each shard has
//!    exactly one writer, so by the time a shard's writer reaches the
//!    barrier it has installed every update of that epoch (and none of
//!    a later one) — it flushes its pending batch and acks with its
//!    post-epoch version.
//! 3. When all shards have acked epoch `e`, the collector publishes a
//!    [`ShardedCut`]: the per-shard snapshots plus the
//!    [`VersionVector`] labeling them. Successive cuts' vectors are
//!    totally ordered ([`VersionVector::dominates`]).
//!
//! Queries [`pin`](ShardedEngine::pin) the latest cut. Point reads go
//! through its [`GraphView`] impl to the owner shard's tree; global
//! algorithms ([`ShardedCut::bfs`], [`ShardedCut::connected_components`])
//! run the ordinary unsharded code over one [`FlatSnapshot`] merged
//! from every shard (paper §5.1), built on the cut's first global
//! query and kept for the cut's life.

use crate::config::BatchPolicy;
use crate::handle::{Barrier, Envelope, IngestError};
use crate::stats::{EngineStats, StatsReport};
use crate::wal::{
    prune, write_checkpoint, write_manifest, DurabilityConfig, Manifest, RecoveredSharded, WalError,
};
use crate::StreamEngine;
use aspen::{
    EdgeSet, FlatSnapshot, Graph, GraphView, ShardRouter, Version, VersionVector, VersionedGraph,
    VertexId,
};
use graphgen::{partition_arcs, route_update, Update};
use obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A consistent cut across every shard: one immutable snapshot per
/// shard, all aligned on the same ingest epoch, labeled by the
/// [`VersionVector`] of per-shard installed versions.
///
/// Implements [`GraphView`] by routing every vertex access to the
/// owner shard's tree (`O(log n)` per vertex, nothing built), which is
/// the path for point reads. [`bfs`](Self::bfs) and
/// [`connected_components`](Self::connected_components) touch every
/// vertex, so they pay `O(n)` once for a flat snapshot merged from all
/// shards and then run exactly as on an unsharded graph.
pub struct ShardedCut<E: EdgeSet> {
    router: ShardRouter,
    epoch: u64,
    vector: VersionVector,
    shards: Vec<Version<E>>,
    /// Every shard's vertices in one id-indexed array; filled by the
    /// first global query and shared by all later ones on this cut.
    flat: OnceLock<FlatSnapshot<E>>,
}

impl<E: EdgeSet> ShardedCut<E> {
    fn new(router: ShardRouter, epoch: u64, versions: Vec<u64>, shards: Vec<Version<E>>) -> Self {
        ShardedCut {
            router,
            epoch,
            vector: VersionVector::from_versions(versions),
            shards,
            flat: OnceLock::new(),
        }
    }

    /// The ingest epoch this cut closed (0 = the initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-shard installed-version numbers at this cut.
    pub fn vector(&self) -> &VersionVector {
        &self.vector
    }

    /// The router that partitioned this cut's vertex space.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Shard `k`'s snapshot.
    pub fn local(&self, k: usize) -> &Version<E> {
        &self.shards[k]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The merged flat snapshot of this cut, built on first use.
    fn flat(&self) -> &FlatSnapshot<E> {
        self.flat.get_or_init(|| {
            let shards: Vec<&Graph<E>> = self.shards.iter().map(|s| s.as_ref()).collect();
            FlatSnapshot::merged(&shards)
        })
    }

    /// [`algorithms::bfs`] from `src` over the cut's flat snapshot:
    /// the same result as on the unsharded graph.
    pub fn bfs(&self, src: VertexId) -> algorithms::BfsResult {
        algorithms::bfs(self.flat(), src)
    }

    /// [`algorithms::connected_components`] over the cut's flat
    /// snapshot: `label[v]` is the smallest id in `v`'s component.
    pub fn connected_components(&self) -> Vec<u32> {
        algorithms::connected_components(self.flat())
    }

    /// Audits the two invariants of a cut: every vertex with out-edges
    /// in shard `k` is owned by `k`, and every arc `(u, v)` there has
    /// its mirror `(v, u)` in `v`'s owner shard. Returns the number of
    /// violations (0 on any published cut — a nonzero count means the
    /// router or the epoch-barrier protocol broke).
    pub fn check_mirror_consistency(&self) -> usize {
        let mut violations = 0usize;
        for (k, shard) in self.shards.iter().enumerate() {
            shard.for_each_edge(|u, v| {
                let mirrored = self.shards[self.router.shard_of(v)].contains_edge(v, u);
                if self.router.shard_of(u) != k || !mirrored {
                    violations += 1;
                }
            });
        }
        violations
    }
}

impl<E: EdgeSet> GraphView for ShardedCut<E> {
    fn id_bound(&self) -> usize {
        // Mirroring makes every edge endpoint a source in its owner
        // shard, so the max over shard-local bounds is the global one.
        self.shards.iter().map(|s| s.id_bound()).max().unwrap_or(0)
    }

    fn num_edges(&self) -> u64 {
        self.shards.iter().map(|s| s.num_edges()).sum()
    }

    fn degree(&self, v: VertexId) -> usize {
        let shard = &self.shards[self.router.shard_of(v)];
        if (v as usize) < shard.id_bound() {
            shard.degree(v)
        } else {
            0
        }
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        let shard = &self.shards[self.router.shard_of(v)];
        if (v as usize) < shard.id_bound() {
            shard.for_each_neighbor(v, f);
        }
    }

    fn for_each_neighbor_until(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        let shard = &self.shards[self.router.shard_of(v)];
        if (v as usize) < shard.id_bound() {
            shard.for_each_neighbor_until(v, f)
        } else {
            true
        }
    }
}

/// Tracks barrier acknowledgements and publishes each epoch's cut once
/// every shard has reported.
struct CutCollector<E: EdgeSet> {
    state: Mutex<CollectorState<E>>,
    published: Mutex<Arc<ShardedCut<E>>>,
    cut_epoch: Arc<Gauge>,
}

struct CollectorState<E: EdgeSet> {
    /// Per-epoch partial cuts, keyed by epoch; entries complete (and
    /// leave the map) in epoch order because each shard acks epochs in
    /// order.
    pending: BTreeMap<u64, PendingCut<E>>,
    last_published: u64,
}

struct PendingCut<E: EdgeSet> {
    versions: Vec<Option<(u64, Version<E>)>>,
    remaining: usize,
}

impl<E: EdgeSet> CutCollector<E> {
    fn new(initial: Arc<ShardedCut<E>>, cut_epoch: Arc<Gauge>) -> Self {
        CutCollector {
            state: Mutex::new(CollectorState {
                pending: BTreeMap::new(),
                last_published: 0,
            }),
            published: Mutex::new(initial),
            cut_epoch,
        }
    }

    /// Shard `k` acks `epoch` with its post-epoch version number and
    /// snapshot. Called from the shard writer thread.
    fn report(
        &self,
        router: ShardRouter,
        shards: usize,
        epoch: u64,
        k: usize,
        version: u64,
        snapshot: Version<E>,
    ) {
        let complete = {
            let mut state = self.state.lock();
            let entry = state.pending.entry(epoch).or_insert_with(|| PendingCut {
                versions: (0..shards).map(|_| None).collect(),
                remaining: shards,
            });
            debug_assert!(entry.versions[k].is_none(), "double ack from shard {k}");
            entry.versions[k] = Some((version, snapshot));
            entry.remaining -= 1;
            if entry.remaining == 0 {
                let entry = state.pending.remove(&epoch).expect("entry just filled");
                if epoch > state.last_published {
                    state.last_published = epoch;
                    Some(entry)
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some(entry) = complete {
            let mut versions = Vec::with_capacity(shards);
            let mut snapshots = Vec::with_capacity(shards);
            for slot in entry.versions {
                let (version, snapshot) = slot.expect("complete cut has every shard");
                versions.push(version);
                snapshots.push(snapshot);
            }
            let cut = Arc::new(ShardedCut::new(router, epoch, versions, snapshots));
            self.cut_epoch.set(epoch as i64);
            *self.published.lock() = cut;
        }
    }

    fn pin(&self) -> Arc<ShardedCut<E>> {
        self.published.lock().clone()
    }
}

/// Coordinator-level counters, registered as `stream.sharded.*` in the
/// engine's registry alongside every shard's `stream.shard<K>.*`.
struct ShardedMetrics {
    epochs: Arc<Counter>,
    updates_routed: Arc<Counter>,
    cross_shard_updates: Arc<Counter>,
    cut_epoch: Arc<Gauge>,
}

impl ShardedMetrics {
    fn on_registry(registry: &Registry) -> Self {
        ShardedMetrics {
            epochs: registry.counter("stream.sharded.epochs"),
            updates_routed: registry.counter("stream.sharded.updates_routed"),
            cross_shard_updates: registry.counter("stream.sharded.cross_shard_updates"),
            cut_epoch: registry.gauge("stream.sharded.cut_epoch"),
        }
    }
}

/// Configures and launches a [`ShardedEngine`].
pub struct ShardedEngineBuilder<E: EdgeSet> {
    router: ShardRouter,
    initial_arcs: Vec<(u32, u32)>,
    initial_shards: Option<Vec<Graph<E>>>,
    policy: BatchPolicy,
    cfg: E::Config,
    shard_threads: Option<usize>,
    registry: Option<Arc<Registry>>,
    durability: Option<DurabilityConfig>,
    first_seqs: Option<Vec<u64>>,
    first_epoch: u64,
}

impl<E: EdgeSet> ShardedEngineBuilder<E> {
    /// Seeds the engine with a **symmetric** directed arc list (both
    /// orientations present, as [`aspen::symmetrize`] produces); each
    /// arc is stored in its source's owner shard.
    pub fn initial_arcs(mut self, arcs: &[(u32, u32)]) -> Self {
        self.initial_arcs = arcs.to_vec();
        self
    }

    /// Batching policy, used both by the front end's epoch formation
    /// and by every shard writer (default: [`BatchPolicy::default`]).
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Edge-set construction parameters (chunk size for C-trees).
    pub fn edge_config(mut self, cfg: E::Config) -> Self {
        self.cfg = cfg;
        self
    }

    /// Dedicated compute pool size for **each** shard's batch applies
    /// (default: shards share the global pool).
    pub fn shard_threads(mut self, n: usize) -> Self {
        self.shard_threads = Some(n);
        self
    }

    /// Registers all metrics into an existing registry (default: a
    /// fresh private one). Shard `k`'s engine metrics appear under
    /// `stream.shard<k>.*`, coordinator metrics under `stream.sharded.*`.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Turns on durability: shard `k` logs to `cfg.dir/shard{k}` (see
    /// [`DurabilityConfig::shard`]) and epoch markers in each shard's
    /// log let recovery land on a consistent cut. Checkpoints are
    /// taken across all shards at one pinned cut by
    /// [`ShardedEngine::checkpoint`] and on [`ShardedEngine::close`].
    pub fn durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = Some(cfg);
        self
    }

    /// Seeds the engine with pre-built per-shard graphs (already
    /// partitioned and mirror-consistent) instead of partitioning
    /// [`initial_arcs`](Self::initial_arcs). Used when resuming from
    /// recovered state.
    pub fn initial_shards(mut self, shards: Vec<Graph<E>>) -> Self {
        self.initial_shards = Some(shards);
        self
    }

    /// Per-shard starting seqs (version numbers), so new WAL frames
    /// continue each shard's recovered sequence. Default: all zeros.
    pub fn first_seqs(mut self, seqs: Vec<u64>) -> Self {
        self.first_seqs = Some(seqs);
        self
    }

    /// The epoch number the router assigns to its first new epoch
    /// (default 1). Set to [`RecoveredSharded::next_epoch`] when
    /// resuming, so epoch markers in the logs stay monotone.
    pub fn first_epoch(mut self, epoch: u64) -> Self {
        self.first_epoch = epoch.max(1);
        self
    }

    /// Resumes from a [`crate::wal::recover_sharded`] result: seeds the
    /// per-shard graphs, continues each shard's seq, and continues the
    /// epoch numbering — one call instead of three.
    pub fn recovered(self, rec: &RecoveredSharded<E>) -> Self {
        self.initial_shards(rec.shards.clone())
            .first_seqs(rec.seqs.clone())
            .first_epoch(rec.next_epoch)
    }

    /// Builds the per-shard graphs, starts every shard engine and the
    /// router thread, and publishes the epoch-0 cut.
    pub fn start(self) -> ShardedEngine<E> {
        self.policy.validate();
        let router = self.router;
        let shards = router.num_shards();
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = ShardedMetrics::on_registry(&registry);

        // Per-shard engines, each in directed-arc mode with stats
        // prefixed by its shard index. The shard graphs either come
        // pre-built (resuming from recovery) or from partitioning the
        // initial arc list.
        let initial: Vec<Graph<E>> = match self.initial_shards {
            Some(graphs) => {
                assert_eq!(
                    graphs.len(),
                    shards,
                    "initial_shards must match the router's shard count"
                );
                graphs
            }
            None => partition_arcs(&self.initial_arcs, shards, |v| router.shard_of(v))
                .into_iter()
                .map(|arcs| Graph::from_edges(&arcs, self.cfg))
                .collect(),
        };
        let first_seqs = self.first_seqs.unwrap_or_else(|| vec![0; shards]);
        assert_eq!(
            first_seqs.len(),
            shards,
            "first_seqs must match the router's shard count"
        );
        let mut engines = Vec::with_capacity(shards);
        let mut graphs = Vec::with_capacity(shards);
        let mut initial_cut = Vec::with_capacity(shards);
        for (k, g) in initial.into_iter().enumerate() {
            let vg = Arc::new(VersionedGraph::new(g));
            let stats = Arc::new(EngineStats::on_registry_with_prefix(
                registry.clone(),
                &format!("stream.shard{k}."),
            ));
            let mut builder = StreamEngine::builder(vg.clone())
                .policy(self.policy)
                .directed_arcs(true)
                .with_stats(stats)
                .first_seq(first_seqs[k]);
            if let Some(cfg) = &self.durability {
                builder = builder.durability(cfg.shard(k));
            }
            if let Some(n) = self.shard_threads {
                builder = builder.num_threads(n);
            }
            initial_cut.push(vg.acquire());
            graphs.push(vg);
            engines.push(builder.start());
        }

        // The pre-ingest cut carries the epoch/vector the engine is
        // resuming at (both zero on a fresh start).
        let base_epoch = self.first_epoch - 1;
        metrics.cut_epoch.set(base_epoch as i64);
        let collector = Arc::new(CutCollector::new(
            Arc::new(ShardedCut::new(router, base_epoch, first_seqs, initial_cut)),
            metrics.cut_epoch.clone(),
        ));

        // One ack closure per shard, fired by that shard's writer when
        // it passes a barrier. The writer is the shard's only
        // installer and fires synchronously between messages, so the
        // acquired snapshot is exactly the post-epoch state.
        let acks: Vec<Arc<dyn Fn(u64) + Send + Sync>> = (0..shards)
            .map(|k| {
                let collector = collector.clone();
                let vg = graphs[k].clone();
                let installed = engines[k].installed_counter();
                Arc::new(move |epoch: u64| {
                    let version = installed.load(Ordering::Acquire);
                    collector.report(router, shards, epoch, k, version, vg.acquire());
                }) as Arc<dyn Fn(u64) + Send + Sync>
            })
            .collect();

        let (tx, rx) = sync_channel::<RouterMsg>(self.policy.channel_capacity);
        let router_thread = {
            let shard_handles: Vec<_> = engines.iter().map(|e| e.handle()).collect();
            let policy = self.policy;
            let epochs = metrics.epochs.clone();
            let updates_routed = metrics.updates_routed.clone();
            let cross_shard = metrics.cross_shard_updates.clone();
            std::thread::Builder::new()
                .name("aspen-shard-router".into())
                .spawn(move || {
                    router_loop(RouterShared {
                        router,
                        shard_handles,
                        acks,
                        epochs,
                        updates_routed,
                        cross_shard,
                        rx,
                        policy,
                        base_epoch,
                    })
                })
                .expect("spawn shard router thread")
        };

        ShardedEngine {
            router,
            engines,
            graphs,
            handle: ShardedIngestHandle {
                tx,
                closed: Arc::new(AtomicBool::new(false)),
            },
            router_thread,
            collector,
            registry,
            durability: self.durability,
        }
    }
}

/// What flows through the sharded front-end channel.
enum RouterMsg {
    Env(Envelope),
    /// Route what is buffered as a final epoch, then exit
    /// ([`ShardedEngine::close`]).
    Shutdown,
}

/// Everything the router thread owns.
struct RouterShared {
    router: ShardRouter,
    shard_handles: Vec<crate::IngestHandle>,
    acks: Vec<Arc<dyn Fn(u64) + Send + Sync>>,
    epochs: Arc<Counter>,
    updates_routed: Arc<Counter>,
    cross_shard: Arc<Counter>,
    rx: Receiver<RouterMsg>,
    policy: BatchPolicy,
    /// Last already-completed epoch; the first epoch formed here is
    /// `base_epoch + 1` (resuming engines continue the numbering).
    base_epoch: u64,
}

/// The router thread's body: drain producer envelopes into epochs
/// under the batch policy, forward each update's two arcs to the owner
/// shards, close every epoch with a barrier on every shard channel.
fn router_loop(shared: RouterShared) {
    let RouterShared {
        router,
        shard_handles,
        acks,
        epochs,
        updates_routed,
        cross_shard,
        rx,
        policy,
        base_epoch,
    } = shared;
    let mut epoch = base_epoch;
    let mut batch: Vec<Envelope> = Vec::with_capacity(policy.max_batch);
    loop {
        match rx.recv() {
            Ok(RouterMsg::Env(env)) => batch.push(env),
            Ok(RouterMsg::Shutdown) => return, // nothing buffered
            Err(_) => return,                  // producers gone, everything routed
        }
        let deadline = batch[0].enqueued + policy.max_linger;
        let mut stopping = false;
        while batch.len() < policy.max_batch {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(RouterMsg::Env(env)) => batch.push(env),
                Ok(RouterMsg::Shutdown) => {
                    stopping = true;
                    break;
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    stopping = true;
                    break;
                }
            }
        }
        // Route the epoch: both arcs of each update go out before the
        // epoch closes, so no cut can observe a half-routed edge.
        for env in batch.drain(..) {
            let (u, v) = env.update.endpoints();
            if router.is_cross_shard(u, v) {
                cross_shard.inc();
            }
            for (k, arc) in route_update(env.update, |x| router.shard_of(x)) {
                // Preserve the producer's enqueue instant so shard
                // engines attribute true end-to-end latency.
                let _ = shard_handles[k].push_envelope(Envelope {
                    update: arc,
                    enqueued: env.enqueued,
                });
            }
            updates_routed.inc();
        }
        epoch += 1;
        epochs.inc();
        for (k, handle) in shard_handles.iter().enumerate() {
            let _ = handle.push_barrier(Barrier {
                epoch,
                ack: acks[k].clone(),
            });
        }
        if stopping {
            return;
        }
    }
}

/// Producer handle into the sharded engine's front end. Clone freely;
/// pushes block when the front-end channel is full (backpressure);
/// [`try_send`](Self::try_send) and [`send_timeout`](Self::send_timeout)
/// mirror the single-engine [`crate::IngestHandle`] variants.
#[derive(Clone)]
pub struct ShardedIngestHandle {
    tx: SyncSender<RouterMsg>,
    closed: Arc<AtomicBool>,
}

/// The update an errored front-end send carried (shutdown sends report
/// a placeholder; they never fail while the router lives).
fn rejected(msg: RouterMsg) -> Update {
    match msg {
        RouterMsg::Env(env) => env.update,
        RouterMsg::Shutdown => Update::Insert(0, 0),
    }
}

impl ShardedIngestHandle {
    /// Enqueues one update, blocking while the channel is full.
    pub fn push(&self, update: Update) -> Result<(), IngestError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(IngestError::Closed(update));
        }
        self.tx
            .send(RouterMsg::Env(Envelope {
                update,
                enqueued: Instant::now(),
            }))
            .map_err(|e| IngestError::Closed(rejected(e.0)))
    }

    /// Non-blocking push: [`IngestError::Full`] instead of blocking.
    pub fn try_send(&self, update: Update) -> Result<(), IngestError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(IngestError::Closed(update));
        }
        self.tx
            .try_send(RouterMsg::Env(Envelope {
                update,
                enqueued: Instant::now(),
            }))
            .map_err(|e| match e {
                TrySendError::Full(msg) => IngestError::Full(rejected(msg)),
                TrySendError::Disconnected(msg) => IngestError::Closed(rejected(msg)),
            })
    }

    /// Push with a bounded wait; [`IngestError::TimedOut`] hands the
    /// update back once `timeout` elapses with the channel still full.
    pub fn send_timeout(&self, update: Update, timeout: Duration) -> Result<(), IngestError> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_micros(50);
        loop {
            match self.try_send(update) {
                Err(IngestError::Full(u)) => {
                    if Instant::now() >= deadline {
                        return Err(IngestError::TimedOut(u));
                    }
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    /// Pushes a whole slice in order, blocking as needed.
    pub fn push_all(&self, updates: &[Update]) -> Result<(), IngestError> {
        for &u in updates {
            self.push(u)?;
        }
        Ok(())
    }
}

/// End-of-run summary of a sharded engine: per-shard reports plus the
/// final consistent cut.
pub struct ShardedReport<E: EdgeSet> {
    /// Shard `k`'s engine report.
    pub shards: Vec<StatsReport>,
    /// The cut closing the final epoch (equals the fully-drained state).
    pub final_cut: Arc<ShardedCut<E>>,
    /// Ingest epochs formed by the router thread.
    pub epochs: u64,
    /// Updates routed through the front end.
    pub updates_routed: u64,
    /// Routed updates whose endpoints live in different shards.
    pub cross_shard_updates: u64,
}

impl<E: EdgeSet> ShardedReport<E> {
    /// Sum of per-shard applied update counts (arcs; two per routed
    /// update).
    pub fn arcs_applied(&self) -> u64 {
        self.shards.iter().map(|r| r.updates_applied).sum()
    }
}

/// A running sharded engine. Lifecycle mirrors [`StreamEngine`]:
/// builder → start → clone [`handle`](Self::handle)s into producers →
/// producers drop their handles → [`finish`](Self::finish).
pub struct ShardedEngine<E: EdgeSet> {
    router: ShardRouter,
    engines: Vec<StreamEngine<E>>,
    graphs: Vec<Arc<VersionedGraph<E>>>,
    handle: ShardedIngestHandle,
    router_thread: JoinHandle<()>,
    collector: Arc<CutCollector<E>>,
    registry: Arc<Registry>,
    durability: Option<DurabilityConfig>,
}

impl<E: EdgeSet> ShardedEngine<E> {
    /// Starts configuring a sharded engine over `router`'s partitions.
    pub fn builder(router: ShardRouter) -> ShardedEngineBuilder<E> {
        ShardedEngineBuilder {
            router,
            initial_arcs: Vec::new(),
            initial_shards: None,
            policy: BatchPolicy::default(),
            cfg: E::Config::default(),
            shard_threads: None,
            registry: None,
            durability: None,
            first_seqs: None,
            first_epoch: 1,
        }
    }

    /// A new producer handle into the front end.
    pub fn handle(&self) -> ShardedIngestHandle {
        self.handle.clone()
    }

    /// The router partitioning this engine's vertex space.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The latest published consistent cut. O(1); the cut is immutable
    /// and shared, so hold it as long as the query needs.
    pub fn pin(&self) -> Arc<ShardedCut<E>> {
        self.collector.pin()
    }

    /// Shard `k`'s underlying versioned graph (its latest version may
    /// be *ahead* of the latest cut; use [`pin`](Self::pin) for
    /// cross-shard-consistent reads).
    pub fn shard_graph(&self, k: usize) -> &Arc<VersionedGraph<E>> {
        &self.graphs[k]
    }

    /// The registry holding `stream.shard<K>.*` and `stream.sharded.*`
    /// metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Checkpoints every shard at one consistent cut: writes shard `k`'s
    /// snapshot under `dir/shard{k}`, then durably publishes the cut
    /// with a root-level manifest, then prunes covered WAL segments.
    /// A crash anywhere in the middle is safe — recovery only trusts
    /// shard checkpoints a manifest names. Returns the checkpointed
    /// epoch, or `Ok(None)` when the engine runs without durability.
    pub fn checkpoint(&self) -> Result<Option<u64>, WalError> {
        match &self.durability {
            Some(cfg) => Self::checkpoint_cut(cfg, &self.pin()).map(Some),
            None => Ok(None),
        }
    }

    fn checkpoint_cut(cfg: &DurabilityConfig, cut: &ShardedCut<E>) -> Result<u64, WalError> {
        let seqs: Vec<u64> = cut.vector().as_slice().to_vec();
        for (k, &seq) in seqs.iter().enumerate() {
            let shard_cfg = cfg.shard(k);
            write_checkpoint(
                cfg.io.as_ref(),
                &shard_cfg.dir,
                seq,
                cut.epoch(),
                cut.local(k).as_ref(),
            )?;
        }
        // Only now is the cut complete on disk; the manifest makes it
        // eligible for recovery atomically.
        write_manifest(
            cfg.io.as_ref(),
            &cfg.dir,
            &Manifest {
                epoch: cut.epoch(),
                seqs: seqs.clone(),
            },
        )?;
        for (k, &seq) in seqs.iter().enumerate() {
            let shard_cfg = cfg.shard(k);
            if let Err(e) = prune(cfg.io.as_ref(), &shard_cfg.dir, seq, 2) {
                eprintln!("aspen-stream: prune of shard {k} wal failed: {e}");
            }
        }
        Ok(cut.epoch())
    }

    /// Shuts down: waits for producers to drop their handles, drains
    /// and joins the router thread and every shard engine, and returns
    /// the final reports plus the fully-drained cut.
    pub fn finish(self) -> ShardedReport<E> {
        drop(self.handle);
        self.router_thread.join().expect("router thread panicked");
        // The router's shard handles died with it; each shard engine's
        // finish drops its own handle, disconnecting the shard channel
        // after the final barrier, so the last epoch's cut is published
        // before the writer exits.
        let shards: Vec<StatsReport> = self.engines.into_iter().map(|e| e.finish()).collect();
        let snap = self.registry.snapshot();
        ShardedReport {
            shards,
            final_cut: self.collector.pin(),
            epochs: snap.counter("stream.sharded.epochs").unwrap_or(0),
            updates_routed: snap.counter("stream.sharded.updates_routed").unwrap_or(0),
            cross_shard_updates: snap
                .counter("stream.sharded.cross_shard_updates")
                .unwrap_or(0),
        }
    }

    /// Graceful shutdown that does **not** wait for producers to drop
    /// their handles: the router routes what it has buffered as a
    /// final epoch, every shard drains through that epoch's barrier
    /// (making it durable when a WAL is configured), and — with
    /// durability on — a full checkpoint is taken at the final cut so
    /// the next start recovers instantly. Producers racing the close
    /// get [`IngestError::Closed`].
    pub fn close(self) -> ShardedReport<E> {
        let ShardedEngine {
            engines,
            handle,
            router_thread,
            collector,
            registry,
            durability,
            ..
        } = self;
        handle.closed.store(true, Ordering::Release);
        let _ = handle.tx.send(RouterMsg::Shutdown);
        drop(handle);
        router_thread.join().expect("router thread panicked");
        // The router pushed its final barriers before exiting; each
        // shard's close message sorts after them (FIFO), so every
        // shard installs the final epoch and acks the cut before its
        // writer exits and syncs its WAL tail.
        let shards: Vec<StatsReport> = engines.into_iter().map(|e| e.close()).collect();
        let final_cut = collector.pin();
        if let Some(cfg) = &durability {
            if let Err(e) = Self::checkpoint_cut(cfg, &final_cut) {
                eprintln!("aspen-stream: checkpoint on close failed: {e}");
            }
        }
        let snap = registry.snapshot();
        ShardedReport {
            shards,
            final_cut,
            epochs: snap.counter("stream.sharded.epochs").unwrap_or(0),
            updates_routed: snap.counter("stream.sharded.updates_routed").unwrap_or(0),
            cross_shard_updates: snap
                .counter("stream.sharded.cross_shard_updates")
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen::CompressedEdges;

    type Sharded = ShardedEngine<CompressedEdges>;

    fn ring_arcs(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .collect()
    }

    /// The unsharded oracle: same initial edges, updates applied
    /// sequentially.
    fn oracle(initial: &[(u32, u32)], updates: &[Update]) -> Graph<CompressedEdges> {
        let vg: VersionedGraph<CompressedEdges> =
            VersionedGraph::new(Graph::from_edges(initial, Default::default()));
        for &u in updates {
            match u {
                Update::Insert(a, b) => vg.insert_edges_undirected(&[(a, b)]),
                Update::Delete(a, b) => {
                    vg.update_with_timed(|g| g.delete_edges(&aspen::symmetrize(&[(a, b)])));
                }
            }
        }
        Arc::try_unwrap(vg.acquire()).unwrap_or_else(|arc| (*arc).clone())
    }

    fn drive(
        router: ShardRouter,
        initial: &[(u32, u32)],
        updates: &[Update],
    ) -> ShardedReport<CompressedEdges> {
        let engine = Sharded::builder(router).initial_arcs(initial).start();
        let h = engine.handle();
        h.push_all(updates).unwrap();
        drop(h);
        engine.finish()
    }

    #[test]
    fn sharded_ingest_matches_unsharded_oracle() {
        let initial = ring_arcs(16);
        let updates: Vec<Update> = (0..200u32)
            .map(|i| {
                if i % 5 == 4 {
                    Update::Delete(i % 16, (i + 1) % 16)
                } else {
                    Update::Insert(i % 16, 16 + i)
                }
            })
            .collect();
        let want = oracle(&initial, &updates);
        for router in [
            ShardRouter::hash(1),
            ShardRouter::hash(2),
            ShardRouter::hash(4),
        ] {
            let report = drive(router, &initial, &updates);
            let cut = &report.final_cut;
            assert_eq!(cut.check_mirror_consistency(), 0, "router {router:?}");
            assert_eq!(cut.num_edges(), want.num_edges(), "router {router:?}");
            assert_eq!(
                cut.connected_components(),
                algorithms::connected_components(&want),
                "router {router:?}"
            );
            assert_eq!(
                cut.bfs(0).dist,
                algorithms::bfs(&want, 0).dist,
                "router {router:?}"
            );
            assert_eq!(report.updates_routed, updates.len() as u64);
            // Every routed update lands as two arcs somewhere.
            assert_eq!(report.arcs_applied(), 2 * updates.len() as u64);
            assert!(report.epochs >= 1);
        }
    }

    #[test]
    fn cut_graphview_runs_unsharded_algorithms() {
        let initial = ring_arcs(12);
        let report = drive(ShardRouter::hash(3), &initial, &[]);
        let cut = &report.final_cut;
        // Through the GraphView impl, the standard algorithms see the
        // logical graph.
        let r = algorithms::bfs(&**cut, 0);
        assert_eq!(r.num_reached(), 12);
        assert_eq!(
            algorithms::num_components(&algorithms::connected_components(&**cut)),
            1
        );
        assert_eq!(cut.id_bound(), 12);
        assert_eq!(cut.num_edges(), 24);
        assert_eq!(cut.degree(5), 2);
        let mut n = cut.neighbors(5);
        n.sort_unstable();
        assert_eq!(n, vec![4, 6]);
    }

    #[test]
    fn cuts_are_epoch_labeled_and_monotone() {
        let engine = Sharded::builder(ShardRouter::hash(2))
            .initial_arcs(&ring_arcs(8))
            .start();
        let epoch0 = engine.pin();
        assert_eq!(epoch0.epoch(), 0);
        assert_eq!(epoch0.vector().as_slice(), &[0, 0]);
        let h = engine.handle();
        for i in 0..50u32 {
            h.push(Update::Insert(i % 8, 8 + i)).unwrap();
        }
        drop(h);
        let report = engine.finish();
        let last = &report.final_cut;
        assert!(last.epoch() >= 1);
        assert!(last.vector().dominates(epoch0.vector()));
        assert_eq!(last.vector().len(), 2);
        // The pinned epoch-0 cut still shows only the ring.
        assert_eq!(epoch0.num_edges(), 16);
        assert_eq!(last.num_edges(), 16 + 100);
    }

    #[test]
    fn point_reads_and_pin_never_build_the_flat_snapshot() {
        let engine = Sharded::builder(ShardRouter::hash(2))
            .initial_arcs(&ring_arcs(8))
            .start();
        let cut = engine.pin();
        assert_eq!(cut.degree(3), 2);
        assert_eq!(cut.neighbors(3), vec![2, 4]);
        assert!(!cut.for_each_neighbor_until(3, &mut |w| w < 4));
        assert_eq!((cut.id_bound(), cut.num_edges()), (8, 16));
        assert_eq!(cut.check_mirror_consistency(), 0);
        // The tree-walking GraphView path for whole algorithms, too.
        assert_eq!(algorithms::bfs(&*cut, 0).num_reached(), 8);
        assert!(cut.flat.get().is_none());
        engine.finish();
    }

    #[test]
    fn queries_on_one_cut_share_one_flat_snapshot() {
        let report = drive(ShardRouter::range(2, 8), &ring_arcs(8), &[]);
        let cut = &report.final_cut;
        assert_eq!(cut.bfs(0).dist[4], 4);
        let built: *const FlatSnapshot<CompressedEdges> = cut.flat.get().expect("built by bfs");
        assert_eq!(cut.connected_components(), vec![0; 8]);
        assert_eq!(cut.bfs(4).dist[0], 4);
        assert!(std::ptr::eq(built, cut.flat.get().unwrap()));
    }

    #[test]
    fn a_pinned_cut_keeps_answering_from_its_own_snapshot() {
        let engine = Sharded::builder(ShardRouter::hash(2))
            .initial_arcs(&ring_arcs(8))
            .start();
        let old = engine.pin();
        assert_eq!(old.bfs(0).dist[4], 4);
        let h = engine.handle();
        // A chord 0–4, and a new vertex beyond the old id space.
        h.push_all(&[Update::Insert(0, 4), Update::Insert(7, 8)])
            .unwrap();
        drop(h);
        let last = engine.finish().final_cut;
        assert_eq!(last.bfs(0).dist[4], 1);
        assert_eq!(last.connected_components(), vec![0; 9]);
        // The old cut, queried before and after, still sees the ring.
        assert_eq!(old.bfs(0).dist, vec![0, 1, 2, 3, 4, 3, 2, 1]);
        assert_eq!(old.connected_components(), vec![0; 8]);
    }

    #[test]
    fn audit_flags_a_source_outside_its_owner_shard() {
        // Shard 1 of a range router over 0..8 owns 4..8; hand it 0's arc.
        let router = ShardRouter::range(2, 8);
        let shard = |arcs: &[(u32, u32)]| {
            Arc::new(Graph::<CompressedEdges>::from_edges(
                arcs,
                Default::default(),
            ))
        };
        let good = ShardedCut::new(
            router,
            0,
            vec![0, 0],
            vec![shard(&[(0, 5)]), shard(&[(5, 0)])],
        );
        assert_eq!(good.check_mirror_consistency(), 0);
        let misplaced = ShardedCut::new(
            router,
            0,
            vec![0, 0],
            vec![shard(&[]), shard(&[(0, 5), (5, 0)])],
        );
        assert_eq!(
            misplaced.check_mirror_consistency(),
            2,
            "no mirror in shard 0, and 0 ∉ shard 1"
        );
        let torn = ShardedCut::new(router, 0, vec![0, 0], vec![shard(&[(0, 5)]), shard(&[])]);
        assert_eq!(torn.check_mirror_consistency(), 1);
    }

    #[test]
    fn per_shard_metrics_share_the_registry() {
        let registry = Arc::new(Registry::new());
        let engine = Sharded::builder(ShardRouter::hash(2))
            .initial_arcs(&ring_arcs(8))
            .registry(registry.clone())
            .start();
        let h = engine.handle();
        for i in 0..40u32 {
            h.push(Update::Insert(i % 8, 100 + i)).unwrap();
        }
        drop(h);
        let report = engine.finish();
        let snap = registry.snapshot();
        let s0 = snap.counter("stream.shard0.updates_applied").unwrap_or(0);
        let s1 = snap.counter("stream.shard1.updates_applied").unwrap_or(0);
        assert_eq!(s0 + s1, 80, "40 updates = 80 arcs across the shards");
        assert!(s0 > 0 && s1 > 0, "hash routing spreads arcs: {s0}/{s1}");
        assert_eq!(
            snap.counter("stream.sharded.updates_routed"),
            Some(40),
            "coordinator metrics registered alongside"
        );
        // The cross-shard counter must match the router's own verdict.
        let router = ShardRouter::hash(2);
        let want_cross = (0..40u32)
            .filter(|i| router.is_cross_shard(i % 8, 100 + i))
            .count() as u64;
        assert_eq!(report.cross_shard_updates, want_cross);
    }

    #[test]
    fn empty_engine_finishes_clean() {
        let report = drive(ShardRouter::hash(4), &[], &[]);
        assert_eq!(report.final_cut.num_edges(), 0);
        assert_eq!(report.final_cut.id_bound(), 0);
        assert_eq!(report.epochs, 0);
        assert_eq!(report.updates_routed, 0);
    }

    #[test]
    fn deletes_of_missing_edges_are_harmless() {
        let report = drive(
            ShardRouter::hash(2),
            &ring_arcs(4),
            &[Update::Delete(0, 3), Update::Delete(100, 200)],
        );
        // (0,3) is a ring edge; (100,200) never existed.
        assert_eq!(report.final_cut.num_edges(), 8 - 2);
        assert_eq!(report.final_cut.check_mirror_consistency(), 0);
    }
}
