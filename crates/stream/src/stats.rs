//! Engine observability: the engine's metrics live in an
//! [`obs::Registry`] (one per engine), so the same counters and
//! histograms the end-of-run [`StatsReport`] folds up are also
//! nameable, snapshotable at any instant, and renderable as text or
//! JSON by generic observability tooling — without the engine having
//! to know who is watching.
//!
//! [`LatencyHistogram`] and [`LatencySummary`] moved to `aspen-obs`
//! (`obs::hist`) and are re-exported here so existing callers compile
//! unchanged. The struct-of-fields shape of [`EngineStats`] is also
//! unchanged: fields are now [`Arc`] handles into the registry, and
//! [`obs::Counter`] mirrors the `AtomicU64` `fetch_add`/`load` calls
//! the writer and query paths were already making.

pub use obs::{HistogramSnapshot, LatencyHistogram, LatencySummary};

use obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Shared counters and histograms recorded by the writer loop and the
/// query executor while the engine runs.
///
/// All members are updated with relaxed atomics; read them at any time
/// for a live view, take a [`snapshot`](Self::snapshot) for periodic
/// delta reporting, or let [`StreamEngine::finish`] fold them into a
/// [`StatsReport`]. Every metric is registered by name (under the
/// `stream.` prefix) in this engine's [`registry`](Self::registry).
///
/// [`StreamEngine::finish`]: crate::StreamEngine::finish
pub struct EngineStats {
    registry: Arc<Registry>,
    /// Latency of applying one batch run (compute + install), per the
    /// core's [`aspen::ApplyTiming`] hook.
    pub batch_apply: Arc<LatencyHistogram>,
    /// End-to-end update latency: enqueue at the producer → visible in
    /// an installed version.
    pub update_e2e: Arc<LatencyHistogram>,
    /// Latency of one registered query execution (including flat
    /// snapshot construction).
    pub query: Arc<LatencyHistogram>,
    /// Batches applied by the writer loop.
    pub batches_applied: Arc<Counter>,
    /// Undirected updates consumed from the channel (raw envelope
    /// count, before coalescing).
    pub updates_applied: Arc<Counter>,
    /// **Net** insert operations applied after per-batch coalescing
    /// (last update per edge wins); can be less than the raw insert
    /// envelope count when a batch touches an edge more than once.
    pub inserts_applied: Arc<Counter>,
    /// **Net** delete operations applied after per-batch coalescing.
    pub deletes_applied: Arc<Counter>,
    /// Query executions completed across all query threads.
    pub queries_run: Arc<Counter>,
    /// Latency of repairing one standing query in one repair round
    /// (incremental repair, or the full-recompute fallback). A round
    /// covers every version installed since the previous one.
    pub standing_repair: Arc<LatencyHistogram>,
    /// Latency of extracting the version diff the standing repairs
    /// consume (one diff per repair round, shared by every standing
    /// query); `batches_applied` ÷ its count is versions per round.
    pub standing_diff: Arc<LatencyHistogram>,
    /// Standing-query repairs performed (one per query per round).
    pub standing_repairs: Arc<Counter>,
    /// Repairs that fell back to from-scratch recomputation because
    /// the diff touched too much of the graph.
    pub standing_full_recomputes: Arc<Counter>,
    /// Total directed edge changes carried by the diffs the standing
    /// repairs consumed.
    pub standing_diff_edges: Arc<Counter>,
    /// Snapshots a query thread observed whose edge count did not match
    /// any installed version — **must stay zero**; a nonzero value
    /// means snapshot isolation is broken.
    pub consistency_violations: Arc<Counter>,
    /// Query rounds that reused a cached flat snapshot instead of
    /// rebuilding one (the installed version had not changed since the
    /// last round that flattened it).
    pub flat_reuse: Arc<Counter>,
    /// Latency of appending one batch frame to the WAL, *including* any
    /// policy-triggered fsync (this sits on the install path, so its
    /// tail is the durability tax on batch latency).
    pub wal_append: Arc<LatencyHistogram>,
    /// Latency of the fsync calls alone (a subset of
    /// [`wal_append`](Self::wal_append) samples, plus barrier/shutdown
    /// syncs).
    pub wal_fsync: Arc<LatencyHistogram>,
    /// WAL records appended (batch frames + epoch markers).
    pub wal_frames: Arc<Counter>,
    /// WAL bytes appended.
    pub wal_bytes: Arc<Counter>,
    /// fsync calls issued by the WAL.
    pub wal_fsyncs: Arc<Counter>,
    /// Segment rotations performed.
    pub wal_segments_rotated: Arc<Counter>,
    /// Checkpoints written.
    pub wal_checkpoints: Arc<Counter>,
    /// Bytes of checkpoint files written.
    pub wal_checkpoint_bytes: Arc<Counter>,
    /// Highest batch seq known durable (0 until the first sync; stays 0
    /// when the engine runs without durability).
    pub wal_durable_seq: Arc<Gauge>,
}

impl Default for EngineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineStats {
    /// Stats backed by a fresh private registry.
    pub fn new() -> Self {
        Self::on_registry(Arc::new(Registry::new()))
    }

    /// Stats registered into an existing registry (e.g. a process-wide
    /// one a `/stats` endpoint serves) under the default `stream.`
    /// prefix. Metric names are fixed, so two engines must not share
    /// one registry — unless each uses a distinct prefix via
    /// [`on_registry_with_prefix`](Self::on_registry_with_prefix).
    pub fn on_registry(registry: Arc<Registry>) -> Self {
        Self::on_registry_with_prefix(registry, "stream.")
    }

    /// Stats registered under an arbitrary name prefix (e.g.
    /// `stream.shard0.`), letting several engines share one registry —
    /// the sharded engine registers every shard's stats alongside its
    /// own coordinator metrics this way.
    pub fn on_registry_with_prefix(registry: Arc<Registry>, prefix: &str) -> Self {
        let name = |suffix: &str| format!("{prefix}{suffix}");
        EngineStats {
            batch_apply: registry.histogram(&name("batch_apply")),
            update_e2e: registry.histogram(&name("update_e2e")),
            query: registry.histogram(&name("query")),
            batches_applied: registry.counter(&name("batches_applied")),
            updates_applied: registry.counter(&name("updates_applied")),
            inserts_applied: registry.counter(&name("inserts_applied")),
            deletes_applied: registry.counter(&name("deletes_applied")),
            queries_run: registry.counter(&name("queries_run")),
            standing_repair: registry.histogram(&name("standing.repair")),
            standing_diff: registry.histogram(&name("standing.diff")),
            standing_repairs: registry.counter(&name("standing.repairs")),
            standing_full_recomputes: registry.counter(&name("standing.full_recomputes")),
            standing_diff_edges: registry.counter(&name("standing.diff_edges")),
            consistency_violations: registry.counter(&name("consistency_violations")),
            flat_reuse: registry.counter(&name("query.flat_reuse")),
            wal_append: registry.histogram(&name("wal.append")),
            wal_fsync: registry.histogram(&name("wal.fsync")),
            wal_frames: registry.counter(&name("wal.frames")),
            wal_bytes: registry.counter(&name("wal.bytes")),
            wal_fsyncs: registry.counter(&name("wal.fsyncs")),
            wal_segments_rotated: registry.counter(&name("wal.segments_rotated")),
            wal_checkpoints: registry.counter(&name("wal.checkpoints")),
            wal_checkpoint_bytes: registry.counter(&name("wal.checkpoint_bytes")),
            wal_durable_seq: registry.gauge(&name("wal.durable_seq")),
            registry,
        }
    }

    /// The registry holding this engine's metrics, for generic
    /// rendering ([`obs::Registry::snapshot`] → `render_text()` /
    /// `to_json()`) or for registering additional app-level metrics
    /// alongside the engine's.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Coherent point-in-time copy of every counter and histogram.
    /// Cheap enough for periodic polling; difference two snapshots
    /// with [`EngineSnapshot::delta_since`] for an interval report.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            batches_applied: self.batches_applied.get(),
            updates_applied: self.updates_applied.get(),
            inserts_applied: self.inserts_applied.get(),
            deletes_applied: self.deletes_applied.get(),
            queries_run: self.queries_run.get(),
            standing_repairs: self.standing_repairs.get(),
            standing_full_recomputes: self.standing_full_recomputes.get(),
            standing_diff_edges: self.standing_diff_edges.get(),
            consistency_violations: self.consistency_violations.get(),
            flat_reuse: self.flat_reuse.get(),
            wal_frames: self.wal_frames.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_fsyncs: self.wal_fsyncs.get(),
            wal_segments_rotated: self.wal_segments_rotated.get(),
            wal_checkpoints: self.wal_checkpoints.get(),
            wal_checkpoint_bytes: self.wal_checkpoint_bytes.get(),
            batch_apply: self.batch_apply.snapshot(),
            update_e2e: self.update_e2e.snapshot(),
            query: self.query.snapshot(),
            standing_repair: self.standing_repair.snapshot(),
            standing_diff: self.standing_diff.snapshot(),
            wal_append: self.wal_append.snapshot(),
            wal_fsync: self.wal_fsync.snapshot(),
        }
    }

    /// Folds the live counters into an owned report.
    pub fn report(&self) -> StatsReport {
        self.snapshot().report()
    }
}

/// A point-in-time copy of all [`EngineStats`] values, including full
/// histogram bucket contents — so two snapshots can be differenced
/// into an interval-exact [`StatsReport`] (the periodic-reporting
/// building block: poll, delta, emit, repeat).
#[derive(Clone, Debug, Default)]
pub struct EngineSnapshot {
    pub batches_applied: u64,
    pub updates_applied: u64,
    pub inserts_applied: u64,
    pub deletes_applied: u64,
    pub queries_run: u64,
    pub standing_repairs: u64,
    pub standing_full_recomputes: u64,
    pub standing_diff_edges: u64,
    pub consistency_violations: u64,
    pub flat_reuse: u64,
    pub wal_frames: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_segments_rotated: u64,
    pub wal_checkpoints: u64,
    pub wal_checkpoint_bytes: u64,
    pub batch_apply: HistogramSnapshot,
    pub update_e2e: HistogramSnapshot,
    pub query: HistogramSnapshot,
    pub standing_repair: HistogramSnapshot,
    pub standing_diff: HistogramSnapshot,
    pub wal_append: HistogramSnapshot,
    pub wal_fsync: HistogramSnapshot,
}

impl EngineSnapshot {
    /// Cumulative report as of this snapshot.
    pub fn report(&self) -> StatsReport {
        StatsReport {
            batches_applied: self.batches_applied,
            updates_applied: self.updates_applied,
            inserts_applied: self.inserts_applied,
            deletes_applied: self.deletes_applied,
            queries_run: self.queries_run,
            standing_repairs: self.standing_repairs,
            standing_full_recomputes: self.standing_full_recomputes,
            standing_diff_edges: self.standing_diff_edges,
            consistency_violations: self.consistency_violations,
            flat_reuse: self.flat_reuse,
            wal_frames: self.wal_frames,
            wal_bytes: self.wal_bytes,
            wal_fsyncs: self.wal_fsyncs,
            wal_segments_rotated: self.wal_segments_rotated,
            wal_checkpoints: self.wal_checkpoints,
            wal_checkpoint_bytes: self.wal_checkpoint_bytes,
            batch_apply: self.batch_apply.summarize(),
            update_e2e: self.update_e2e.summarize(),
            query: self.query.summarize(),
            standing_repair: self.standing_repair.summarize(),
            standing_diff: self.standing_diff.summarize(),
            wal_append: self.wal_append.summarize(),
            wal_fsync: self.wal_fsync.summarize(),
        }
    }

    /// Report covering only the interval `earlier → self`. Counters
    /// and histogram counts/quantiles/means are interval-exact; a
    /// histogram's `max` is the cumulative maximum (an upper bound for
    /// the interval — see [`HistogramSnapshot::delta_since`]).
    pub fn delta_since(&self, earlier: &EngineSnapshot) -> StatsReport {
        StatsReport {
            batches_applied: self.batches_applied.saturating_sub(earlier.batches_applied),
            updates_applied: self.updates_applied.saturating_sub(earlier.updates_applied),
            inserts_applied: self.inserts_applied.saturating_sub(earlier.inserts_applied),
            deletes_applied: self.deletes_applied.saturating_sub(earlier.deletes_applied),
            queries_run: self.queries_run.saturating_sub(earlier.queries_run),
            standing_repairs: self
                .standing_repairs
                .saturating_sub(earlier.standing_repairs),
            standing_full_recomputes: self
                .standing_full_recomputes
                .saturating_sub(earlier.standing_full_recomputes),
            standing_diff_edges: self
                .standing_diff_edges
                .saturating_sub(earlier.standing_diff_edges),
            consistency_violations: self
                .consistency_violations
                .saturating_sub(earlier.consistency_violations),
            flat_reuse: self.flat_reuse.saturating_sub(earlier.flat_reuse),
            wal_frames: self.wal_frames.saturating_sub(earlier.wal_frames),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(earlier.wal_fsyncs),
            wal_segments_rotated: self
                .wal_segments_rotated
                .saturating_sub(earlier.wal_segments_rotated),
            wal_checkpoints: self.wal_checkpoints.saturating_sub(earlier.wal_checkpoints),
            wal_checkpoint_bytes: self
                .wal_checkpoint_bytes
                .saturating_sub(earlier.wal_checkpoint_bytes),
            batch_apply: self
                .batch_apply
                .delta_since(&earlier.batch_apply)
                .summarize(),
            update_e2e: self.update_e2e.delta_since(&earlier.update_e2e).summarize(),
            query: self.query.delta_since(&earlier.query).summarize(),
            standing_repair: self
                .standing_repair
                .delta_since(&earlier.standing_repair)
                .summarize(),
            standing_diff: self
                .standing_diff
                .delta_since(&earlier.standing_diff)
                .summarize(),
            wal_append: self.wal_append.delta_since(&earlier.wal_append).summarize(),
            wal_fsync: self.wal_fsync.delta_since(&earlier.wal_fsync).summarize(),
        }
    }
}

/// Owned end-of-run summary returned by [`StreamEngine::finish`].
///
/// [`StreamEngine::finish`]: crate::StreamEngine::finish
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsReport {
    pub batches_applied: u64,
    pub updates_applied: u64,
    pub inserts_applied: u64,
    pub deletes_applied: u64,
    pub queries_run: u64,
    pub standing_repairs: u64,
    pub standing_full_recomputes: u64,
    pub standing_diff_edges: u64,
    pub consistency_violations: u64,
    pub flat_reuse: u64,
    pub wal_frames: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_segments_rotated: u64,
    pub wal_checkpoints: u64,
    pub wal_checkpoint_bytes: u64,
    pub batch_apply: LatencySummary,
    pub update_e2e: LatencySummary,
    pub query: LatencySummary,
    pub standing_repair: LatencySummary,
    pub standing_diff: LatencySummary,
    pub wal_append: LatencySummary,
    pub wal_fsync: LatencySummary,
}

impl StatsReport {
    /// Mean undirected updates per applied batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_applied == 0 {
            0.0
        } else {
            self.updates_applied as f64 / self.batches_applied as f64
        }
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "updates: {} (net {} ins, {} del) in {} batches (mean {:.1}/batch)",
            self.updates_applied,
            self.inserts_applied,
            self.deletes_applied,
            self.batches_applied,
            self.mean_batch_size()
        )?;
        writeln!(f, "batch apply : {}", self.batch_apply)?;
        writeln!(f, "update e2e  : {}", self.update_e2e)?;
        writeln!(f, "query       : {}", self.query)?;
        if self.standing_repairs > 0 {
            writeln!(f, "standing    : {}", self.standing_repair)?;
            writeln!(
                f,
                "standing rep: {} ({} full recomputes, {} diff edges)",
                self.standing_repairs, self.standing_full_recomputes, self.standing_diff_edges
            )?;
        }
        if self.wal_frames > 0 {
            writeln!(f, "wal append  : {}", self.wal_append)?;
            writeln!(
                f,
                "wal         : {} frames, {} bytes, {} fsyncs, {} rotations, {} checkpoints",
                self.wal_frames,
                self.wal_bytes,
                self.wal_fsyncs,
                self.wal_segments_rotated,
                self.wal_checkpoints
            )?;
        }
        write!(f, "queries run : {}", self.queries_run)?;
        if self.flat_reuse > 0 {
            write!(f, " ({} flat-snapshot reuses)", self.flat_reuse)?;
        }
        if self.consistency_violations > 0 {
            write!(
                f,
                "\nCONSISTENCY VIOLATIONS: {}",
                self.consistency_violations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10));
        }
        let p50 = h.quantile(0.5);
        assert!(
            p50 >= Duration::from_micros(5) && p50 <= Duration::from_micros(20),
            "p50 = {p50:?}"
        );
        let p99 = h.quantile(0.99);
        assert!(p99 >= Duration::from_millis(5), "p99 = {p99:?}");
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), Duration::from_millis(10));
    }

    #[test]
    fn mean_tracks_sum() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        assert_eq!(h.mean(), Duration::from_micros(2));
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    h.record(Duration::from_nanos(i));
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn report_renders() {
        let s = EngineStats::new();
        s.batch_apply.record(Duration::from_micros(100));
        s.batches_applied.fetch_add(1, Ordering::Relaxed);
        s.updates_applied.fetch_add(8, Ordering::Relaxed);
        let r = s.report();
        assert_eq!(r.batches_applied, 1);
        assert!((r.mean_batch_size() - 8.0).abs() < 1e-9);
        let text = r.to_string();
        assert!(text.contains("batch apply"), "{text}");
        assert!(!text.contains("VIOLATIONS"), "{text}");
    }

    #[test]
    fn stats_are_registered_by_name() {
        let s = EngineStats::new();
        s.queries_run.inc();
        s.query.record(Duration::from_micros(7));
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("stream.queries_run"), Some(1));
        let h = snap
            .histogram("stream.query")
            .expect("histogram registered");
        assert_eq!(h.count(), 1);
        // The generic renderers see the engine metrics too.
        assert!(snap.render_text().contains("stream.batches_applied"));
        assert!(obs::json::parse(&snap.to_json().render()).is_ok());
    }

    #[test]
    fn snapshot_delta_isolates_the_interval() {
        let s = EngineStats::new();
        s.updates_applied.add(10);
        s.batches_applied.inc();
        s.update_e2e.record(Duration::from_micros(10));
        let first = s.snapshot();

        s.updates_applied.add(5);
        s.batches_applied.inc();
        for _ in 0..3 {
            s.update_e2e.record(Duration::from_millis(2));
        }
        let second = s.snapshot();

        let delta = second.delta_since(&first);
        assert_eq!(delta.updates_applied, 5);
        assert_eq!(delta.batches_applied, 1);
        assert_eq!(delta.update_e2e.count, 3);
        // Interval mean reflects only the three 2 ms samples, not the
        // earlier 10 µs one.
        assert!(delta.update_e2e.mean >= Duration::from_millis(1));
        assert!((delta.mean_batch_size() - 5.0).abs() < 1e-9);

        // Cumulative report is unaffected.
        assert_eq!(second.report().updates_applied, 15);
        assert_eq!(second.report().update_e2e.count, 4);
    }

    #[test]
    fn prefixed_stats_share_a_registry() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let a = EngineStats::on_registry_with_prefix(registry.clone(), "stream.shard0.");
        let b = EngineStats::on_registry_with_prefix(registry.clone(), "stream.shard1.");
        a.batches_applied.add(2);
        b.batches_applied.add(5);
        a.flat_reuse.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stream.shard0.batches_applied"), Some(2));
        assert_eq!(snap.counter("stream.shard1.batches_applied"), Some(5));
        assert_eq!(snap.counter("stream.shard0.query.flat_reuse"), Some(1));
        assert_eq!(a.report().batches_applied, 2);
        assert_eq!(b.report().flat_reuse, 0);
    }

    #[test]
    fn snapshot_delta_against_empty_is_cumulative() {
        let s = EngineStats::new();
        s.queries_run.add(3);
        s.query.record(Duration::from_micros(1));
        let delta = s.snapshot().delta_since(&EngineSnapshot::default());
        assert_eq!(delta.queries_run, 3);
        assert_eq!(delta.query.count, 1);
    }
}
