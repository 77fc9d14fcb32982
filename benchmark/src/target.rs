//! The engine as the benchmark sees it: a front door, the public read
//! path, the public counters, and a final state. `StreamEngine` and
//! `ShardedEngine` both fit behind [`Engine`]; the load driver itself
//! only needs the three calls of [`Sink`], which a test fakes.

use crate::spec::{EngineKind, Workload};
use aspen::{
    ChunkParams, CompressedEdges, FlatSnapshot, Graph, GraphView, ShardRouter, Version,
    VersionedGraph,
};
use graphgen::Update;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::standing::StandingHandle;
use stream::{
    DurabilityConfig, EngineSnapshot, EngineStats, FsyncPolicy, IngestHandle, ShardedCut,
    ShardedEngine, ShardedIngestHandle, StreamEngine,
};

/// The shipped default edge representation (C-trees, default codec).
pub type Edges = CompressedEdges;

/// What the load driver needs of the system under test.
pub trait Sink {
    /// Enqueues one update, blocking on backpressure; `false` when the
    /// engine rejected it.
    fn push(&self, update: Update) -> bool;

    /// A number that moves whenever newer updates may have become
    /// visible (`installed_version()`; sharded: the pinned cut's epoch).
    fn version(&self) -> u64;

    /// Acquires one snapshot through the public read path and returns
    /// how many of `pairs`, from the front, it contains as edges.
    fn visible_prefix(&self, pairs: &mut dyn Iterator<Item = (u32, u32)>) -> usize;
}

/// Whether the sorted neighbor list of `u` in `view` holds `v`.
fn view_contains(view: &impl GraphView, u: u32, v: u32) -> bool {
    let mut found = false;
    view.for_each_neighbor_until(u, &mut |w| {
        found = w == v;
        w < v
    });
    found
}

/// A fresh directory under `benchmark/target/`, removed when dropped —
/// so WAL files never outlive the run, however it ends.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = scratch_root().join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/target");
        TempDir(dir)
    }

    pub fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/target/`: the one place the benchmark writes to.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// The WAL configuration of a durable workload: every batch fsynced
/// before it installs, and a checkpoint every 64 batches — often
/// enough that a run of some 300 batches goes through several, so
/// that checkpoint stalls are part of what is measured.
pub fn durability(dir: &TempDir) -> DurabilityConfig {
    DurabilityConfig::new(dir.path())
        .fsync(FsyncPolicy::Always)
        .checkpoint_every(64)
}

/// A running engine of either kind, with a producer handle.
pub enum Engine {
    Unsharded {
        engine: StreamEngine<Edges>,
        handle: IngestHandle,
    },
    Sharded {
        engine: ShardedEngine<Edges>,
        handle: ShardedIngestHandle,
    },
}

/// One analytic a query op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    Bfs,
    Cc,
}

impl QueryKind {
    pub fn span_name(self) -> &'static str {
        match self {
            QueryKind::Bfs => "algorithms.bfs",
            QueryKind::Cc => "algorithms.cc",
        }
    }
}

/// Where one query op's time went. A sharded cut needs no flat
/// snapshot (its fan-out algorithms read the shard trees directly),
/// so `flat` is zero there.
#[derive(Clone, Copy, Debug)]
pub struct QueryTiming {
    pub kind: QueryKind,
    pub start: Instant,
    pub acquire: Duration,
    pub flat: Duration,
    pub analytic: Duration,
}

impl QueryTiming {
    pub fn total(&self) -> Duration {
        self.acquire + self.flat + self.analytic
    }
}

/// What an engine leaves behind when closed.
pub enum FinalState {
    Graph(Version<Edges>),
    Cut(Arc<ShardedCut<Edges>>),
}

impl FinalState {
    pub fn view(&self) -> &dyn GraphView {
        match self {
            FinalState::Graph(g) => g.as_ref(),
            FinalState::Cut(c) => c.as_ref(),
        }
    }

    pub fn memory_bytes(&self) -> usize {
        match self {
            FinalState::Graph(g) => g.memory_bytes(),
            FinalState::Cut(c) => (0..c.num_shards()).map(|k| c.local(k).memory_bytes()).sum(),
        }
    }

    /// BFS distances from `src` the way a query op computes them.
    pub fn bfs_dist(&self, src: u32) -> Vec<u32> {
        match self {
            FinalState::Graph(g) => algorithms::bfs(&FlatSnapshot::new(g), src).dist,
            FinalState::Cut(c) => c.bfs(src).dist,
        }
    }
}

/// Coordinator counters of a sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedCounts {
    pub epochs: u64,
    pub updates_routed: u64,
    pub cross_shard_updates: u64,
}

impl Engine {
    /// Starts the workload's engine over the initial graph, with the
    /// shipped defaults (`BatchPolicy::default()`, global pool).
    pub fn start(w: &Workload, arcs: &[(u32, u32)], hub: u32, wal: Option<&TempDir>) -> Engine {
        match w.engine {
            EngineKind::Unsharded => {
                let graph = Graph::from_edges(arcs, ChunkParams::default());
                Engine::unsharded(w, graph, hub, wal)
            }
            EngineKind::Sharded2 => {
                assert!(
                    wal.is_none() && !w.standing,
                    "no sharded workload is durable"
                );
                let engine = ShardedEngine::<Edges>::builder(ShardRouter::hash(2))
                    .initial_arcs(arcs)
                    .start();
                let handle = engine.handle();
                Engine::Sharded { engine, handle }
            }
        }
    }

    /// An unsharded engine over an already built graph.
    pub fn unsharded(w: &Workload, graph: Graph<Edges>, hub: u32, wal: Option<&TempDir>) -> Engine {
        let cfg = wal.map(durability);
        if let Some(cfg) = &cfg {
            // The log only holds batches: a bulk-loaded graph becomes
            // recoverable by checkpointing it as version 0.
            stream::wal::write_checkpoint(cfg.io.as_ref(), &cfg.dir, 0, 0, &graph)
                .expect("checkpoint the initial graph under benchmark/target");
        }
        let mut builder = StreamEngine::builder(Arc::new(VersionedGraph::new(graph)));
        if let Some(cfg) = cfg {
            builder = builder.durability(cfg);
        }
        if w.standing {
            builder = builder
                .register_standing(stream::standing::connected_components())
                .register_standing(stream::standing::bfs_from(hub));
        }
        let engine = builder.start();
        let handle = engine.handle();
        Engine::Unsharded { engine, handle }
    }

    /// Handles onto the engine's public counters, one per writer loop.
    /// A sharded engine registers shard `k`'s under `stream.shard<k>.`
    /// in its registry; registering is create-or-get, so this returns
    /// the live instruments.
    pub fn stats(&self) -> Vec<Arc<EngineStats>> {
        match self {
            Engine::Unsharded { engine, .. } => vec![engine.stats().clone()],
            Engine::Sharded { engine, .. } => (0..engine.num_shards())
                .map(|k| {
                    Arc::new(EngineStats::on_registry_with_prefix(
                        engine.registry().clone(),
                        &format!("stream.shard{k}."),
                    ))
                })
                .collect(),
        }
    }

    pub fn standing(&self, name: &str) -> Option<StandingHandle> {
        match self {
            Engine::Unsharded { engine, .. } => engine.standing(name),
            Engine::Sharded { .. } => None,
        }
    }

    /// Mean time of one `pin()` (sharded) in nanoseconds.
    pub fn pin_ns(&self) -> f64 {
        match self {
            Engine::Unsharded { .. } => 0.0,
            Engine::Sharded { engine, .. } => mean_ns(|| {
                std::hint::black_box(engine.pin());
            }),
        }
    }

    /// One query op: acquire/pin, flat snapshot, analytic.
    pub fn query(&self, kind: QueryKind, hub: u32) -> QueryTiming {
        let start = Instant::now();
        let (acquire, flat, analytic) = match self {
            Engine::Unsharded { engine, .. } => {
                let snapshot = engine.graph().acquire();
                let acquire = start.elapsed();
                let t = Instant::now();
                let flat = FlatSnapshot::new(&snapshot);
                let flat_time = t.elapsed();
                let t = Instant::now();
                match kind {
                    QueryKind::Bfs => drop(std::hint::black_box(algorithms::bfs(&flat, hub))),
                    QueryKind::Cc => drop(std::hint::black_box(algorithms::connected_components(
                        &flat,
                    ))),
                }
                (acquire, flat_time, t.elapsed())
            }
            Engine::Sharded { engine, .. } => {
                let cut = engine.pin();
                let acquire = start.elapsed();
                let t = Instant::now();
                match kind {
                    QueryKind::Bfs => drop(std::hint::black_box(cut.bfs(hub))),
                    QueryKind::Cc => drop(std::hint::black_box(cut.connected_components())),
                }
                (acquire, Duration::ZERO, t.elapsed())
            }
        };
        QueryTiming {
            kind,
            start,
            acquire,
            flat,
            analytic,
        }
    }

    /// Drains, flushes and joins the engine (`close()` on both kinds)
    /// and hands back the final state.
    pub fn close(self) -> (FinalState, ShardedCounts) {
        match self {
            Engine::Unsharded { engine, handle } => {
                drop(handle);
                let vg = engine.graph().clone();
                engine.close();
                (FinalState::Graph(vg.acquire()), ShardedCounts::default())
            }
            Engine::Sharded { engine, handle } => {
                drop(handle);
                let report = engine.close();
                let counts = ShardedCounts {
                    epochs: report.epochs,
                    updates_routed: report.updates_routed,
                    cross_shard_updates: report.cross_shard_updates,
                };
                (FinalState::Cut(report.final_cut), counts)
            }
        }
    }
}

impl Sink for Engine {
    fn push(&self, update: Update) -> bool {
        match self {
            Engine::Unsharded { handle, .. } => handle.push(update).is_ok(),
            Engine::Sharded { handle, .. } => handle.push(update).is_ok(),
        }
    }

    fn version(&self) -> u64 {
        match self {
            Engine::Unsharded { engine, .. } => engine.installed_version(),
            Engine::Sharded { engine, .. } => engine.pin().epoch(),
        }
    }

    fn visible_prefix(&self, pairs: &mut dyn Iterator<Item = (u32, u32)>) -> usize {
        match self {
            Engine::Unsharded { engine, .. } => {
                let snapshot = engine.graph().acquire();
                pairs
                    .take_while(|&(u, v)| snapshot.contains_edge(u, v))
                    .count()
            }
            Engine::Sharded { engine, .. } => {
                let cut = engine.pin();
                pairs
                    .take_while(|&(u, v)| view_contains(cut.as_ref(), u, v))
                    .count()
            }
        }
    }
}

/// The counters the benchmark reads, summed over an engine's writer
/// loops: counts, and exact sums behind the histograms' means.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub batches: u64,
    pub updates: u64,
    pub net_ops: u64,
    pub apply_ns: u64,
    pub wal_frames: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_fsync_ns: u64,
    pub wal_checkpoints: u64,
    pub wal_checkpoint_bytes: u64,
    pub standing_diffs: u64,
    pub standing_diff_ns: u64,
    pub standing_repairs: u64,
    pub standing_repair_ns: u64,
    pub standing_full_recomputes: u64,
}

impl Counters {
    /// What happened between two sets of per-writer snapshots.
    pub fn between(earlier: &[EngineSnapshot], later: &[EngineSnapshot]) -> Counters {
        let mut c = Counters::default();
        for (a, b) in earlier.iter().zip(later) {
            let hist = |x: &stream::HistogramSnapshot, y: &stream::HistogramSnapshot| {
                let d = y.delta_since(x);
                (d.count(), d.sum_nanos())
            };
            c.batches += b.batches_applied - a.batches_applied;
            c.updates += b.updates_applied - a.updates_applied;
            c.net_ops +=
                (b.inserts_applied - a.inserts_applied) + (b.deletes_applied - a.deletes_applied);
            c.apply_ns += hist(&a.batch_apply, &b.batch_apply).1;
            c.wal_frames += b.wal_frames - a.wal_frames;
            c.wal_bytes += b.wal_bytes - a.wal_bytes;
            c.wal_fsyncs += b.wal_fsyncs - a.wal_fsyncs;
            c.wal_fsync_ns += hist(&a.wal_fsync, &b.wal_fsync).1;
            c.wal_checkpoints += b.wal_checkpoints - a.wal_checkpoints;
            c.wal_checkpoint_bytes += b.wal_checkpoint_bytes - a.wal_checkpoint_bytes;
            let (n, ns) = hist(&a.standing_diff, &b.standing_diff);
            c.standing_diffs += n;
            c.standing_diff_ns += ns;
            c.standing_repairs += b.standing_repairs - a.standing_repairs;
            c.standing_repair_ns += hist(&a.standing_repair, &b.standing_repair).1;
            c.standing_full_recomputes += b.standing_full_recomputes - a.standing_full_recomputes;
        }
        c
    }

    pub fn mean_batch(&self) -> f64 {
        ratio(self.updates as f64, self.batches as f64)
    }

    pub fn apply_mean_us(&self) -> f64 {
        ratio(self.apply_ns as f64 / 1e3, self.batches as f64)
    }
}

/// Mean nanoseconds per call of a call too short to time alone.
pub fn mean_ns(mut f: impl FnMut()) -> f64 {
    const REPS: u32 = 10_000;
    let t = Instant::now();
    for _ in 0..REPS {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(REPS)
}

/// `a / b`, or 0 when there is nothing to divide by (a layer that did
/// not run reports 0).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Snapshots of every writer loop's counters.
pub fn snapshot_all(stats: &[Arc<EngineStats>]) -> Vec<EngineSnapshot> {
    stats.iter().map(|s| s.snapshot()).collect()
}
