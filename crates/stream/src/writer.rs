//! The writer loop: drains the ingest channel into adaptive batches
//! and applies them with the paper's functional batch updates.

use crate::config::BatchPolicy;
use crate::handle::{Barrier, Envelope, Msg};
use crate::standing::Installed;
use crate::stats::EngineStats;
use crate::wal::{prune, write_checkpoint, DurabilityConfig, WalWriter};
use aspen::{EdgeSet, VersionedGraph};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Edge counts of the versions the writer recently installed
/// (including the initial one). A snapshot acquired at *any* instant
/// must show one of these counts — a count outside the window means a
/// reader observed a torn or phantom version.
///
/// Counts are registered **before** the version carrying them is
/// installed, so there is no window where a reader can see a count
/// that is not yet tracked. Retention is bounded to the most recent
/// [`WINDOW`](Self::WINDOW) installs — memory stays constant on
/// long-running engines, and stale counts age out instead of
/// accumulating as false-negative mass. Query threads check a
/// snapshot immediately after acquiring it, so the version they hold
/// is always far younger than the window.
pub(crate) struct ConsistencyTracker {
    window: Mutex<TrackerWindow>,
}

struct TrackerWindow {
    /// Registered counts in install order, oldest first.
    order: VecDeque<u64>,
    /// Multiset view of `order` for O(1) membership.
    counts: HashMap<u64, u32>,
}

impl ConsistencyTracker {
    /// Installs remembered before the oldest ages out. Far larger than
    /// the handful of batches between a reader's `acquire` and its
    /// consistency check.
    const WINDOW: usize = 4096;

    pub fn new(initial_edges: u64) -> Self {
        let tracker = ConsistencyTracker {
            window: Mutex::new(TrackerWindow {
                order: VecDeque::new(),
                counts: HashMap::new(),
            }),
        };
        tracker.register(initial_edges);
        tracker
    }

    fn register(&self, count: u64) {
        let mut w = self.window.lock();
        w.order.push_back(count);
        *w.counts.entry(count).or_insert(0) += 1;
        if w.order.len() > Self::WINDOW {
            let old = w.order.pop_front().expect("window nonempty");
            if let std::collections::hash_map::Entry::Occupied(mut e) = w.counts.entry(old) {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
        }
    }

    pub fn is_valid(&self, count: u64) -> bool {
        self.window.lock().counts.contains_key(&count)
    }
}

/// A batch reduced to its net effect: for every undirected edge the
/// *last* update in arrival order wins (insert/delete are set
/// operations, so the final membership of an edge depends only on the
/// last operation touching it). The result is a disjoint insert set and
/// delete set that one atomic version install applies with the same
/// outcome as replaying the batch sequentially.
struct NetBatch {
    inserts: Vec<(u32, u32)>,
    deletes: Vec<(u32, u32)>,
}

fn coalesce(batch: &[Envelope], directed: bool) -> NetBatch {
    // Undirected mode normalizes the key to (min, max) so both
    // orientations of an edge coalesce; directed-arc mode (shard
    // writers, where the mirror arc lives in another shard's engine)
    // keys on the ordered pair. Value is "last op was insert".
    let mut last: HashMap<(u32, u32), bool> = HashMap::with_capacity(batch.len());
    for env in batch {
        let (u, v) = env.update.endpoints();
        let key = if directed || u <= v { (u, v) } else { (v, u) };
        last.insert(key, env.update.is_insert());
    }
    let mut net = NetBatch {
        inserts: Vec::new(),
        deletes: Vec::new(),
    };
    for (edge, is_insert) in last {
        if is_insert {
            net.inserts.push(edge);
        } else {
            net.deletes.push(edge);
        }
    }
    net
}

/// The writer thread's durability state: the open WAL appender plus
/// the config it was built from (for checkpoint cadence and paths).
pub(crate) struct WalState {
    pub writer: WalWriter,
    pub cfg: DurabilityConfig,
}

/// Appends the batch frame for `seq` (the version about to be
/// installed) and lets the fsync policy run. A WAL write failure is
/// fatal by design: continuing would install — and thereby ack —
/// updates that can never be recovered, silently breaking the
/// durability contract, so the writer thread panics instead.
fn wal_append_batch(
    wal: &mut Option<WalState>,
    stats: &EngineStats,
    seq: u64,
    inserts: &[(u32, u32)],
    deletes: &[(u32, u32)],
) {
    let Some(w) = wal else { return };
    let t0 = Instant::now();
    let out = w
        .writer
        .append_batch(seq, inserts, deletes)
        .unwrap_or_else(|e| panic!("wal append for batch {seq} failed, refusing to ack: {e}"));
    stats.wal_append.record(t0.elapsed());
    wal_settle(stats, &w.writer, out);
}

/// Appends an epoch-complete marker before a barrier ack (sharded
/// engines); same fatality rule as batch frames.
fn wal_mark_epoch(wal: &mut Option<WalState>, stats: &EngineStats, epoch: u64) {
    let Some(w) = wal else { return };
    let out = w
        .writer
        .append_epoch(epoch)
        .unwrap_or_else(|e| panic!("wal epoch marker {epoch} failed, refusing to ack: {e}"));
    wal_settle(stats, &w.writer, out);
}

fn wal_settle(stats: &EngineStats, writer: &WalWriter, out: crate::wal::AppendOutcome) {
    stats.wal_frames.inc();
    stats.wal_bytes.add(out.bytes);
    if out.synced {
        stats.wal_fsyncs.inc();
        stats.wal_fsync.record(out.sync_time);
    }
    if out.rotated {
        stats.wal_segments_rotated.inc();
    }
    stats.wal_durable_seq.set(writer.durable_seq() as i64);
}

/// Forces the WAL tail to disk — on shutdown/disconnect, so nothing an
/// exiting engine accepted is left in a volatile tail. Failure here is
/// reported, not fatal: the engine is going away either way, and a
/// panic would poison the join the caller is blocked on.
fn wal_final_sync(wal: &mut Option<WalState>, stats: &EngineStats) {
    let Some(w) = wal else { return };
    match w.writer.sync() {
        Ok(d) => {
            stats.wal_fsyncs.inc();
            stats.wal_fsync.record(d);
            stats.wal_durable_seq.set(w.writer.durable_seq() as i64);
        }
        Err(e) => eprintln!("aspen-stream: final wal sync failed: {e}"),
    }
}

/// After installing `version`, writes a checkpoint if the config's
/// cadence says one is due, then prunes segments it covers. Errors are
/// reported but non-fatal: the WAL still holds every frame a failed
/// checkpoint would have folded up, so durability is unaffected —
/// only recovery time.
fn wal_maybe_checkpoint<E: EdgeSet>(
    wal: &mut Option<WalState>,
    stats: &EngineStats,
    vg: &VersionedGraph<E>,
    version: u64,
) {
    let Some(w) = wal else { return };
    let Some(every) = w.cfg.checkpoint_every else {
        return;
    };
    if !version.is_multiple_of(every) {
        return;
    }
    // The writer is the only installer, so this acquire is exactly the
    // version just installed.
    let g = vg.acquire();
    match write_checkpoint(w.cfg.io.as_ref(), &w.cfg.dir, version, 0, &g) {
        Ok(bytes) => {
            stats.wal_checkpoints.inc();
            stats.wal_checkpoint_bytes.add(bytes);
            if let Err(e) = prune(w.cfg.io.as_ref(), &w.cfg.dir, version, 2) {
                eprintln!("aspen-stream: wal prune after checkpoint {version} failed: {e}");
            }
        }
        Err(e) => eprintln!("aspen-stream: checkpoint at version {version} failed: {e}"),
    }
}

/// Everything the engine hands its dedicated writer thread: the graph
/// and the state the writer shares with readers (stats, the audit
/// tracker, the installed-version counter) plus writer-private state
/// (the compute pool, the repairer's channel, and the WAL).
pub(crate) struct WriterShared<E: EdgeSet> {
    pub vg: Arc<VersionedGraph<E>>,
    pub stats: Arc<EngineStats>,
    pub tracker: Option<Arc<ConsistencyTracker>>,
    pub pool: Option<Arc<rayon::ThreadPool>>,
    pub installed_seq: Arc<AtomicU64>,
    /// Standing queries: every installed version goes to the repairer
    /// thread, which dropping this sender (writer exit) lets drain and
    /// stop.
    pub repairer: Option<Sender<Installed<E>>>,
    /// Directed-arc mode: updates are oriented arcs that are applied
    /// as-is (no symmetrization, ordered coalescing keys). Shard
    /// engines run in this mode — the mirror arc of each undirected
    /// edge is routed to the other endpoint's shard.
    pub directed: bool,
    /// Durability: batch frames are appended (and policy-synced)
    /// *before* the version installs, so an installed batch is in the
    /// log, and a logged-but-uninstalled batch is replayed whole on
    /// recovery.
    pub wal: Option<WalState>,
}

/// Drains `rx` until every sender is gone, flushing under `policy`.
/// This is the body of the engine's dedicated writer thread.
///
/// When the engine owns a compute pool, every batch apply runs
/// `install`ed on it: the parallel `MultiInsert`/`MultiDelete` inside
/// `insert_edges`/`delete_edges` then forks onto the engine's workers
/// instead of the global pool — pool context would otherwise be lost
/// here, because this writer thread is spawned fresh and a
/// thread-local override from the builder's caller would not reach
/// it.
pub(crate) fn writer_loop<E: EdgeSet>(
    shared: WriterShared<E>,
    rx: Receiver<Msg>,
    policy: BatchPolicy,
) {
    let WriterShared {
        vg,
        stats,
        tracker,
        pool,
        installed_seq,
        repairer,
        directed,
        mut wal,
    } = shared;
    let mut batch: Vec<Envelope> = Vec::with_capacity(policy.max_batch);
    loop {
        // Block for the first message of the next batch. A barrier with
        // nothing buffered acks immediately: every earlier update was
        // already flushed (its epoch marker still goes to the WAL
        // first, so a recovered log knows the epoch completed).
        match rx.recv() {
            Ok(Msg::Update(env)) => batch.push(env),
            Ok(Msg::Barrier(b)) => {
                wal_mark_epoch(&mut wal, &stats, b.epoch);
                b.fire();
                continue;
            }
            Ok(Msg::Shutdown) => {
                wal_final_sync(&mut wal, &stats);
                return;
            }
            Err(_) => {
                // All producers gone, nothing buffered.
                wal_final_sync(&mut wal, &stats);
                return;
            }
        }
        // Fill until max_batch or until the oldest buffered update has
        // lingered max_linger, whichever comes first. The deadline is
        // anchored at the oldest update's *enqueue* time (not at this
        // recv), so the policy's visibility bound holds even when the
        // update already aged in the channel while a previous batch
        // was being applied. A barrier ends the fill early: it must not
        // ack until the updates buffered ahead of it are installed.
        let deadline = batch[0].enqueued + policy.max_linger;
        let mut stopping = false;
        let mut pending_barrier: Option<Barrier> = None;
        while batch.len() < policy.max_batch {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(Msg::Update(env)) => batch.push(env),
                Ok(Msg::Barrier(b)) => {
                    pending_barrier = Some(b);
                    break;
                }
                Ok(Msg::Shutdown) => {
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
        match &pool {
            Some(p) => p.install(|| {
                flush(
                    &vg,
                    &batch,
                    &stats,
                    tracker.as_deref(),
                    &installed_seq,
                    repairer.as_ref(),
                    directed,
                    &mut wal,
                )
            }),
            None => flush(
                &vg,
                &batch,
                &stats,
                tracker.as_deref(),
                &installed_seq,
                repairer.as_ref(),
                directed,
                &mut wal,
            ),
        }
        batch.clear();
        if let Some(b) = pending_barrier {
            // Fire only after the flush: the ack's version capture must
            // observe every update enqueued before the barrier. The
            // epoch marker lands before the ack for the same reason —
            // an acked cut must be reconstructible from the log.
            wal_mark_epoch(&mut wal, &stats, b.epoch);
            b.fire();
        }
        if stopping {
            wal_final_sync(&mut wal, &stats);
            return;
        }
    }
}

/// Applies one batch as a single atomic version install, hands the new
/// version to the standing-query repairer (if any), and settles
/// statistics. With durability on, the batch's WAL frame is appended
/// (and policy-synced) *before* the install — write-ahead in the
/// literal sense.
#[allow(clippy::too_many_arguments)]
fn flush<E: EdgeSet>(
    vg: &VersionedGraph<E>,
    batch: &[Envelope],
    stats: &EngineStats,
    tracker: Option<&ConsistencyTracker>,
    installed_seq: &AtomicU64,
    repairer: Option<&Sender<Installed<E>>>,
    directed: bool,
    wal: &mut Option<WalState>,
) {
    if batch.is_empty() {
        return;
    }
    // Phase spans (no-ops unless the `obs-trace` feature is on and
    // tracing is enabled): the whole flush, with coalesce and the
    // version install as nested sub-phases — the classic question a
    // trace answers here is how much of a slow flush was tree work
    // versus batch preprocessing.
    let _flush = obs::trace::span_cat("batch.flush", "stream");
    let net = {
        let _s = obs::trace::span_cat("batch.coalesce", "stream");
        coalesce(batch, directed)
    };
    {
        // Log before install: the frame carries the seq the install
        // below will produce, so replay order equals install order.
        let _s = obs::trace::span_cat("batch.wal", "stream");
        let seq = installed_seq.load(Ordering::Acquire) + 1;
        wal_append_batch(wal, stats, seq, &net.inserts, &net.deletes);
    }
    let timing = {
        let _s = obs::trace::span_cat("batch.apply", "stream");
        vg.update_with_timed(|g| {
            let mut next = None;
            if !net.inserts.is_empty() {
                next = Some(if directed {
                    g.insert_edges(&net.inserts)
                } else {
                    g.insert_edges(&aspen::symmetrize(&net.inserts))
                });
            }
            if !net.deletes.is_empty() {
                let base = next.as_ref().unwrap_or(g);
                next = Some(if directed {
                    base.delete_edges(&net.deletes)
                } else {
                    base.delete_edges(&aspen::symmetrize(&net.deletes))
                });
            }
            let next = next.expect("nonempty batch nets to at least one op");
            if let Some(t) = tracker {
                // Register before install: a reader that acquires the
                // new version immediately already finds its count valid.
                t.register(next.num_edges());
            }
            next
        })
    };
    // The whole batch became visible at the install; what follows
    // (handing off, checkpointing) is not visibility latency.
    let visible = Instant::now();

    // Bump the installed-version counter **before** handing the version
    // to the repairer: a reader that sees a standing result for version
    // N is then guaranteed to read a counter ≥ N (no torn repair —
    // results never get ahead of the install).
    let version = installed_seq.fetch_add(1, Ordering::AcqRel) + 1;
    if let Some(tx) = repairer {
        // The writer is the only thread installing versions, so this
        // acquire returns exactly the version installed above. A send
        // fails only if the repairer panicked, which joining it reports.
        let _ = tx.send((version, vg.acquire()));
    }
    wal_maybe_checkpoint(wal, stats, vg, version);

    // Settle end-to-end latencies for every update the batch carried.
    for env in batch {
        stats
            .update_e2e
            .record(visible.saturating_duration_since(env.enqueued));
    }
    stats.batch_apply.record(timing.total());
    stats
        .updates_applied
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    stats
        .inserts_applied
        .fetch_add(net.inserts.len() as u64, Ordering::Relaxed);
    stats
        .deletes_applied
        .fetch_add(net.deletes.len() as u64, Ordering::Relaxed);
    stats.batches_applied.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::Update;

    fn env(u: Update) -> Envelope {
        Envelope {
            update: u,
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn coalesce_last_op_wins() {
        let batch = vec![
            env(Update::Insert(0, 1)),
            env(Update::Insert(1, 2)),
            env(Update::Delete(1, 0)), // other orientation of (0, 1)
            env(Update::Insert(3, 4)),
        ];
        let net = coalesce(&batch, false);
        let mut ins = net.inserts.clone();
        ins.sort_unstable();
        assert_eq!(ins, vec![(1, 2), (3, 4)]);
        assert_eq!(net.deletes, vec![(0, 1)]);
    }

    #[test]
    fn coalesce_dedupes_repeats() {
        let batch = vec![
            env(Update::Insert(5, 6)),
            env(Update::Insert(5, 6)),
            env(Update::Insert(6, 5)),
        ];
        let net = coalesce(&batch, false);
        assert_eq!(net.inserts, vec![(5, 6)]);
        assert!(net.deletes.is_empty());
    }

    #[test]
    fn coalesce_directed_keeps_orientations_distinct() {
        // In directed-arc mode (5, 6) and (6, 5) are different arcs: a
        // delete of one must not cancel an insert of the other.
        let batch = vec![
            env(Update::Insert(5, 6)),
            env(Update::Delete(6, 5)),
            env(Update::Insert(5, 6)), // repeat still dedupes
        ];
        let net = coalesce(&batch, true);
        assert_eq!(net.inserts, vec![(5, 6)]);
        assert_eq!(net.deletes, vec![(6, 5)]);
    }

    #[test]
    fn tracker_accepts_registered_counts_only() {
        let t = ConsistencyTracker::new(10);
        assert!(t.is_valid(10));
        assert!(!t.is_valid(12));
        t.register(12);
        assert!(t.is_valid(12));
    }

    #[test]
    fn tracker_window_evicts_old_counts() {
        let t = ConsistencyTracker::new(0);
        // Duplicates must survive until their last occurrence ages out.
        t.register(7);
        t.register(7);
        for i in 0..ConsistencyTracker::WINDOW as u64 {
            t.register(1_000_000 + i);
        }
        assert!(!t.is_valid(0), "initial count should have aged out");
        assert!(!t.is_valid(7), "duplicate count should age out too");
        assert!(t.is_valid(1_000_000 + ConsistencyTracker::WINDOW as u64 - 1));
    }
}
