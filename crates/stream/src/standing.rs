//! Standing queries: analytics maintained **incrementally** by a
//! repairer thread instead of recomputed per snapshot by query threads.
//!
//! A [`StandingAnalytic`] initializes from the engine's starting
//! snapshot and is thereafter *repaired* in rounds. The writer hands
//! every installed version to the repairer and goes straight back to
//! batching; each round takes the **newest** version handed over so
//! far, skipping any that queued up behind the previous round, and
//! repairs from the [`aspen::GraphDiff`] between the last repaired
//! version and that one (cheap to extract thanks to structural
//! sharing, and proportional to what changed however many batches the
//! gap spans). Under load one round covers several batches, so repair
//! cost per update falls as the load rises instead of holding up
//! ingestion. Results are published as immutable [`StandingResult`]s
//! behind an `O(1)` pointer-swap slot — readers clone an `Arc` under a
//! never-held-long mutex, exactly the publication discipline
//! [`aspen::VersionedGraph::acquire`] uses — so readers never block
//! the repairer and never observe a partially repaired result.
//!
//! Torn-repair freedom: the writer bumps the engine's installed-version
//! counter *before* it hands that version to the repairer, so a reader
//! that sees a result for version `v` is guaranteed the counter already
//! reads at least `v` ([`StreamEngine::installed_version`]). Results
//! may lag the installed version; [`StandingResult::version`] says by
//! how much. Shutting the engine down drains the repairer, so after
//! `finish`/`close` every result reflects the final version. The test
//! suite asserts both under concurrent producers and readers.
//!
//! Because incremental repair is the classic source of silent
//! wrong-answer bugs, every analytic also exposes its from-scratch
//! [`oracle`](StandingAnalytic::oracle), and the differential harness
//! in `tests/incremental_oracle.rs` replays randomized histories
//! comparing repair against recomputation, across single batches and
//! across gaps of skipped versions alike.
//!
//! [`StreamEngine::installed_version`]: crate::StreamEngine::installed_version

use crate::stats::EngineStats;
use algorithms::incremental::{DeltaBfs, DeltaCc, RepairStats};
use aspen::{EdgeSet, Graph, GraphDiff, GraphView, Version};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

/// An analytic the repairer thread can maintain across versions.
///
/// Implementations own whatever auxiliary state repair needs (spanning
/// forests, BFS trees, …). `repair` must produce values identical to
/// re-running `init` on `graph` — the differential harness enforces it.
pub trait StandingAnalytic<E: EdgeSet>: Send {
    /// Short name; the lookup key for [`StandingHandle`]s.
    fn name(&self) -> &'static str;

    /// Computes the result from scratch on `graph` and adopts it as
    /// the maintained state.
    fn init(&mut self, graph: &Graph<E>) -> Arc<Vec<u32>>;

    /// Repairs the maintained result for `graph`, given the diff from
    /// the previously repaired version to `graph` (which may be several
    /// installed versions back).
    fn repair(&mut self, diff: &GraphDiff, graph: &Graph<E>) -> (Arc<Vec<u32>>, RepairStats);

    /// The from-scratch reference answer on `graph` (pure; does not
    /// touch maintained state). Differential tests compare `repair`
    /// output against this after every batch.
    fn oracle(&self, graph: &Graph<E>) -> Vec<u32>;
}

/// One published standing-query result (immutable once published).
#[derive(Clone, Debug)]
pub struct StandingResult {
    /// Engine version sequence number this result reflects: 0 is the
    /// initial snapshot, +1 per installed batch. Never exceeds
    /// [`StreamEngine::installed_version`] at the time of any read.
    ///
    /// [`StreamEngine::installed_version`]: crate::StreamEngine::installed_version
    pub version: u64,
    /// The analytic's value array (CC labels, BFS distances, …).
    pub values: Arc<Vec<u32>>,
    /// FNV-1a digest of `values`, for cheap cross-checking.
    pub digest: u64,
    /// Whether this result came from incremental repair (`false` for
    /// the initial result and for full-recompute fallbacks).
    pub repaired_incrementally: bool,
    /// Repair effort details for the round that produced this result.
    pub stats: RepairStats,
}

/// FNV-1a over the little-endian bytes of `values`.
pub fn digest_values(values: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The publication slot: readers clone the current `Arc` under a
/// pointer-copy critical section (same discipline as
/// [`aspen::VersionedGraph::acquire`]).
pub(crate) struct Slot {
    result: Mutex<Arc<StandingResult>>,
}

impl Slot {
    fn new(initial: StandingResult) -> Self {
        Slot {
            result: Mutex::new(Arc::new(initial)),
        }
    }

    fn publish(&self, result: StandingResult) {
        *self.result.lock() = Arc::new(result);
    }

    fn read(&self) -> Arc<StandingResult> {
        self.result.lock().clone()
    }
}

/// A cloneable reader handle onto one standing query's latest result.
#[derive(Clone)]
pub struct StandingHandle {
    pub(crate) name: &'static str,
    pub(crate) slot: Arc<Slot>,
}

impl StandingHandle {
    /// The query's name (as given by its [`StandingAnalytic::name`]).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The latest published result; `O(1)`, never blocks the repairer
    /// for longer than a pointer copy.
    pub fn read(&self) -> Arc<StandingResult> {
        self.slot.read()
    }
}

/// The repairer-side registry: every registered analytic plus its slot.
pub(crate) struct StandingQueryState<E: EdgeSet> {
    pub(crate) analytic: Box<dyn StandingAnalytic<E>>,
    pub(crate) slot: Arc<Slot>,
}

impl<E: EdgeSet> StandingQueryState<E> {
    /// Initializes the analytic on `graph` and returns the state plus
    /// a reader handle, with the version-0 result already published.
    pub(crate) fn init(
        mut analytic: Box<dyn StandingAnalytic<E>>,
        graph: &Graph<E>,
    ) -> (Self, StandingHandle) {
        let values = analytic.init(graph);
        let digest = digest_values(&values);
        let slot = Arc::new(Slot::new(StandingResult {
            version: 0,
            values,
            digest,
            repaired_incrementally: false,
            stats: RepairStats::default(),
        }));
        let handle = StandingHandle {
            name: analytic.name(),
            slot: slot.clone(),
        };
        (StandingQueryState { analytic, slot }, handle)
    }

    /// Repairs for version `version` of `graph` and publishes.
    pub(crate) fn repair(
        &mut self,
        version: u64,
        diff: &GraphDiff,
        graph: &Graph<E>,
    ) -> RepairStats {
        let (values, stats) = self.analytic.repair(diff, graph);
        let digest = digest_values(&values);
        self.slot.publish(StandingResult {
            version,
            values,
            digest,
            repaired_incrementally: !stats.full_recompute,
            stats,
        });
        stats
    }
}

/// How long the repairer idles after a round, in multiples of that
/// round's duration, when newer versions are already waiting. With
/// the engine on one CPU of a 2-CPU x86-64 VM beside a query client
/// (the benchmark's `durable-standing`), median BFS query latency was
/// ~57, ~52 and ~32 ms at 1 : 0, 1 : 1 and 1 : 3 busy : idle, against
/// ~29 ms with no standing repair at all.
const IDLE_PER_ROUND: u32 = 3;

/// What the writer hands the repairer after each install: the version
/// number and the graph it installed.
pub(crate) type Installed<E> = (u64, Version<E>);

/// Everything the repairer thread carries to maintain standing queries:
/// the last repaired version (diff base) and the registry.
pub(crate) struct StandingSet<E: EdgeSet> {
    pub(crate) prev: Version<E>,
    pub(crate) queries: Vec<StandingQueryState<E>>,
}

impl<E: EdgeSet> StandingSet<E> {
    /// The body of the engine's repairer thread: one repair round per
    /// wake-up, each to the newest version installed so far, until the
    /// writer drops its sender. A disconnected channel still yields
    /// every version sent before the drop, so the last round repairs to
    /// the final installed version.
    ///
    /// A round starts no sooner after the previous one ended than
    /// [`IDLE_PER_ROUND`] times that round's duration, so a repairer
    /// that is always behind repairs at most a quarter of the time and
    /// leaves the rest to the writer and the query threads. Run back to
    /// back, rounds whose cost hardly shrinks with the gap (a full
    /// recompute) would take every CPU cycle the writer leaves, and
    /// queries would pay for it. The writer's exit ends the wait at
    /// once, so shutdown never waits out an idle spell.
    ///
    /// Each round runs `install`ed on the engine's compute pool (when
    /// it has one), like the writer's batch applies.
    pub(crate) fn run(
        mut self,
        rx: Receiver<Installed<E>>,
        stats: &EngineStats,
        pool: Option<&rayon::ThreadPool>,
    ) {
        let mut next_round = Instant::now();
        while let Ok(mut newest) = rx.recv() {
            // Skip to the newest version: one diff across the whole
            // gap costs what changed, not how many batches it spans.
            // Waits out the idle spell, then drains what is queued.
            while let Ok(next) =
                rx.recv_timeout(next_round.saturating_duration_since(Instant::now()))
            {
                newest = next;
            }
            let (version, graph) = newest;
            let start = Instant::now();
            match pool {
                Some(p) => p.install(|| self.round(version, graph, stats)),
                None => self.round(version, graph, stats),
            }
            let end = Instant::now();
            next_round = end + (end - start) * IDLE_PER_ROUND;
        }
    }

    /// Diffs `graph` against the last repaired version (once, shared by
    /// every query), repairs and publishes each query as `version`.
    fn round(&mut self, version: u64, graph: Version<E>, stats: &EngineStats) {
        let _s = obs::trace::span_cat("standing.round", "stream");
        let t_diff = Instant::now();
        let diff = aspen::diff_graphs(&self.prev, &graph);
        stats.standing_diff.record(t_diff.elapsed());
        stats
            .standing_diff_edges
            .fetch_add(diff.num_edge_changes() as u64, Ordering::Relaxed);
        for q in &mut self.queries {
            let t0 = Instant::now();
            let repair = q.repair(version, &diff, &graph);
            stats.standing_repair.record(t0.elapsed());
            stats.standing_repairs.fetch_add(1, Ordering::Relaxed);
            if repair.full_recompute {
                stats
                    .standing_full_recomputes
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.prev = graph;
    }
}

/// Standing connected components ([`algorithms::incremental::DeltaCc`]
/// under the hood); values are min-id component labels.
pub struct StandingCc {
    cc: Option<DeltaCc>,
}

/// Builds the standing connected-components analytic.
pub fn connected_components() -> StandingCc {
    StandingCc { cc: None }
}

impl<E: EdgeSet> StandingAnalytic<E> for StandingCc {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn init(&mut self, graph: &Graph<E>) -> Arc<Vec<u32>> {
        let cc = DeltaCc::new(graph);
        let values = Arc::new(cc.labels().to_vec());
        self.cc = Some(cc);
        values
    }

    fn repair(&mut self, diff: &GraphDiff, graph: &Graph<E>) -> (Arc<Vec<u32>>, RepairStats) {
        let cc = self.cc.as_mut().expect("repair before init");
        let stats = cc.apply_diff(diff, graph);
        (Arc::new(cc.labels().to_vec()), stats)
    }

    fn oracle(&self, graph: &Graph<E>) -> Vec<u32> {
        algorithms::connected_components(graph)
    }
}

/// Standing single-source BFS distances
/// ([`algorithms::incremental::DeltaBfs`] under the hood); values are
/// hop distances with `u32::MAX` for unreached.
pub struct StandingBfs {
    src: u32,
    bfs: Option<DeltaBfs>,
}

/// Builds the standing BFS analytic rooted at `src`.
pub fn bfs_from(src: u32) -> StandingBfs {
    StandingBfs { src, bfs: None }
}

impl<E: EdgeSet> StandingAnalytic<E> for StandingBfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init(&mut self, graph: &Graph<E>) -> Arc<Vec<u32>> {
        let bfs = DeltaBfs::new(graph, self.src);
        let values = Arc::new(bfs.dist().to_vec());
        self.bfs = Some(bfs);
        values
    }

    fn repair(&mut self, diff: &GraphDiff, graph: &Graph<E>) -> (Arc<Vec<u32>>, RepairStats) {
        let bfs = self.bfs.as_mut().expect("repair before init");
        let stats = bfs.apply_diff(diff, graph);
        (Arc::new(bfs.dist().to_vec()), stats)
    }

    fn oracle(&self, graph: &Graph<E>) -> Vec<u32> {
        if (self.src as usize) >= graph.id_bound() {
            return vec![u32::MAX; graph.id_bound()];
        }
        algorithms::bfs(graph, self.src).dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen::{diff_graphs, CompressedEdges, Graph};

    type G = Graph<CompressedEdges>;

    fn sym(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
    }

    #[test]
    fn standing_cc_matches_oracle_across_repairs() {
        let g = G::from_edges(&sym(&[(0, 1), (2, 3)]), Default::default());
        let mut q: Box<dyn StandingAnalytic<CompressedEdges>> = Box::new(connected_components());
        let init = q.init(&g);
        assert_eq!(*init, q.oracle(&g));
        let g2 = g
            .insert_edges(&sym(&[(1, 2)]))
            .delete_edges(&sym(&[(0, 1)]));
        let (vals, _) = q.repair(&diff_graphs(&g, &g2), &g2);
        assert_eq!(*vals, q.oracle(&g2));
    }

    #[test]
    fn standing_bfs_matches_oracle_across_repairs() {
        let g = G::from_edges(&sym(&[(0, 1), (1, 2), (2, 3)]), Default::default());
        let mut q: Box<dyn StandingAnalytic<CompressedEdges>> = Box::new(bfs_from(0));
        let init = q.init(&g);
        assert_eq!(*init, q.oracle(&g));
        let g2 = g
            .delete_edges(&sym(&[(1, 2)]))
            .insert_edges(&sym(&[(0, 3)]));
        let (vals, _) = q.repair(&diff_graphs(&g, &g2), &g2);
        assert_eq!(*vals, q.oracle(&g2));
    }

    #[test]
    fn slot_publishes_monotone_versions() {
        let g = G::from_edges(&sym(&[(0, 1)]), Default::default());
        let (mut state, handle) =
            StandingQueryState::<CompressedEdges>::init(Box::new(connected_components()), &g);
        assert_eq!(handle.read().version, 0);
        let g2 = g.insert_edges(&sym(&[(1, 2)]));
        state.repair(1, &diff_graphs(&g, &g2), &g2);
        let r = handle.read();
        assert_eq!(r.version, 1);
        assert!(r.repaired_incrementally);
        assert_eq!(r.digest, digest_values(&r.values));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest_values(&[1, 2]), digest_values(&[2, 1]));
        assert_ne!(digest_values(&[]), digest_values(&[0]));
    }
}
