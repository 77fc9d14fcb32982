//! Startup recovery: checkpoint load + WAL replay + tail truncation.
//!
//! Single-engine recovery is the textbook protocol — newest loadable
//! checkpoint, then contiguous batch frames above its seq, stopping at
//! (and truncating) the first torn frame.
//!
//! Sharded recovery must additionally land every shard on the **same
//! epoch cut**. Each shard writer appends an epoch marker, stamped with
//! the seq of its last batch, after flushing the epoch's batches, so a
//! shard's durable log shows where each epoch ended; a manifest does
//! the same for its checkpoint epoch even when the marker itself was
//! lost. Recovery picks the newest epoch `E` that every shard can end
//! on exactly, replays each shard through `E`'s last batch, and
//! truncates everything after it — partially durable epochs above `E`
//! are discarded on every shard, which is exactly what makes the
//! recovered state a consistent cut (mirror arcs of one undirected
//! edge always travel in the same epoch).

use super::checkpoint::{load_checkpoint_at, load_latest_checkpoint, load_latest_manifest};
use super::frame::{scan_segment, WalRecord};
use super::io::{join, WalIo};
use super::log::{list_segments, segment_name};
use super::{DurabilityConfig, WalError};
use aspen::{symmetrize, EdgeSet, Graph};

/// What recovery did, for logs and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Seq of the checkpoint replay started from (0 = none).
    pub checkpoint_seq: u64,
    /// Batch frames re-applied on top of the checkpoint.
    pub frames_replayed: u64,
    /// Garbage bytes truncated off segment tails.
    pub torn_tail_bytes: u64,
    /// Segments scanned during replay.
    pub segments_scanned: u64,
}

/// A recovered single-engine state.
pub struct Recovered<E: EdgeSet> {
    pub graph: Graph<E>,
    /// Seq of the last applied batch — pass to
    /// `StreamEngineBuilder::first_seq` so acks continue the sequence.
    pub seq: u64,
    pub report: RecoveryReport,
}

/// A recovered sharded state: one graph per shard on a consistent
/// epoch cut.
pub struct RecoveredSharded<E: EdgeSet> {
    pub shards: Vec<Graph<E>>,
    /// Per-shard seq of the last applied batch (the cut's version
    /// vector).
    pub seqs: Vec<u64>,
    /// The common complete epoch recovery landed on (0 = none).
    pub epoch: u64,
    /// Pass to `ShardedEngineBuilder::first_epoch`.
    pub next_epoch: u64,
    pub reports: Vec<RecoveryReport>,
}

fn apply_batch<E: EdgeSet>(
    g: Graph<E>,
    inserts: &[(u32, u32)],
    deletes: &[(u32, u32)],
    directed: bool,
) -> Graph<E> {
    // Mirror the writer's flush: inserts first, then deletes; the two
    // sets are disjoint after coalescing so the order is immaterial,
    // but keeping it identical makes replay trivially equivalent.
    let mut next = g;
    if !inserts.is_empty() {
        next = if directed {
            next.insert_arcs(inserts)
        } else {
            next.insert_edges(&symmetrize(inserts))
        };
    }
    if !deletes.is_empty() {
        next = if directed {
            next.delete_edges(deletes)
        } else {
            next.delete_edges(&symmetrize(deletes))
        };
    }
    next
}

/// One shard/engine log fully scanned into valid records, ready for a
/// replay pass. `records` holds `(segment_start, record, end_offset)`.
struct ScannedLog {
    records: Vec<(u64, WalRecord, usize)>,
    torn_tail_bytes: u64,
    segments_scanned: u64,
    /// Segment that contained a torn tail (already safe to truncate at
    /// the recorded offset), plus later segments to drop entirely.
    torn: Option<(u64, usize, Vec<u64>)>,
}

fn scan_log(io: &dyn WalIo, dir: &str) -> Result<ScannedLog, WalError> {
    let segments = list_segments(io, dir)?;
    let mut out = ScannedLog {
        records: Vec::new(),
        torn_tail_bytes: 0,
        segments_scanned: 0,
        torn: None,
    };
    for (i, &start) in segments.iter().enumerate() {
        let path = join(dir, &segment_name(start));
        let bytes = io.read(&path).map_err(WalError::io("read segment"))?;
        let scan = scan_segment(&bytes);
        out.segments_scanned += 1;
        let torn = scan.is_torn();
        for (rec, end) in scan.records {
            out.records.push((start, rec, end));
        }
        if torn {
            out.torn_tail_bytes += (scan.total_len - scan.valid_len) as u64;
            out.torn = Some((start, scan.valid_len, segments[i + 1..].to_vec()));
            break; // nothing after a torn frame is trustworthy
        }
    }
    Ok(out)
}

fn truncate_torn(io: &dyn WalIo, dir: &str, log: &ScannedLog) -> Result<(), WalError> {
    if let Some((seg, valid_len, ref later)) = log.torn {
        io.truncate(&join(dir, &segment_name(seg)), valid_len as u64)
            .map_err(WalError::io("truncate torn tail"))?;
        for &s in later {
            io.remove(&join(dir, &segment_name(s)))
                .map_err(WalError::io("remove orphan segment"))?;
        }
    }
    Ok(())
}

/// Recovers a single engine's graph from `cfg.dir`: newest loadable
/// checkpoint, plus every contiguous batch frame above it. Torn tails
/// are truncated so a subsequent `WalWriter::open` starts clean.
/// `directed` must match the engine's arc mode (shard engines run
/// directed; standalone engines symmetrize).
pub fn recover<E: EdgeSet>(
    cfg: &DurabilityConfig,
    edge_cfg: E::Config,
    directed: bool,
) -> Result<Recovered<E>, WalError> {
    let io = cfg.io.as_ref();
    io.create_dir_all(&cfg.dir)
        .map_err(WalError::io("create wal dir"))?;
    let (mut graph, mut seq, checkpoint_seq) = match load_latest_checkpoint::<E>(io, &cfg.dir) {
        Some(ck) => (ck.graph, ck.seq, ck.seq),
        None => (Graph::new(edge_cfg), 0, 0),
    };
    let log = scan_log(io, &cfg.dir)?;
    let mut frames_replayed = 0u64;
    for (_, rec, _) in &log.records {
        let WalRecord::Batch {
            seq: s,
            inserts,
            deletes,
        } = rec
        else {
            continue; // epoch markers are sharded-mode metadata
        };
        if *s <= seq {
            continue; // already folded into the checkpoint
        }
        if *s != seq + 1 {
            break; // gap: everything beyond is untrustworthy
        }
        graph = apply_batch(graph, inserts, deletes, directed);
        seq = *s;
        frames_replayed += 1;
    }
    truncate_torn(io, &cfg.dir, &log)?;
    Ok(Recovered {
        graph,
        seq,
        report: RecoveryReport {
            checkpoint_seq,
            frames_replayed,
            torn_tail_bytes: log.torn_tail_bytes,
            segments_scanned: log.segments_scanned,
        },
    })
}

/// The epochs one shard's durable state can end on exactly, each with
/// the seq of its last batch: the checkpoint's epoch, then every marker
/// the in-order walk reaches. The walk stops where phase-2 replay would
/// stop — at a batch whose seq is not the next one, or at a marker whose
/// `last_seq` it has not reached (the lost batch was the epoch's last) —
/// because a marker beyond a lost write proves nothing.
struct EpochBounds(Vec<(u64, u64)>);

impl EpochBounds {
    fn scan(log: &ScannedLog, ck_epoch: u64, ck_seq: u64) -> Self {
        let mut bounds = vec![(ck_epoch, ck_seq)];
        let mut reach_seq = ck_seq;
        for (_, rec, _) in &log.records {
            match rec {
                WalRecord::Epoch { epoch, last_seq } => {
                    if *last_seq > reach_seq {
                        break;
                    }
                    if *epoch > bounds[bounds.len() - 1].0 {
                        bounds.push((*epoch, reach_seq));
                    }
                }
                WalRecord::Batch { seq, .. } => {
                    if *seq <= reach_seq {
                        continue;
                    }
                    if *seq != reach_seq + 1 {
                        break;
                    }
                    reach_seq = *seq;
                }
            }
        }
        EpochBounds(bounds)
    }

    /// The newest epoch this shard provably completed.
    fn complete(&self) -> u64 {
        self.0[self.0.len() - 1].0
    }

    /// The seq of epoch `e`'s last batch on this shard, if known: from
    /// its marker, or — when that marker was lost — from the markers on
    /// either side of it holding the same seq (no batch between them).
    /// A lost marker with batches after it hides where its epoch ended.
    fn last_seq(&self, e: u64) -> Option<u64> {
        let i = self.0.partition_point(|&(x, _)| x < e);
        match self.0.get(i) {
            Some(&(x, s)) if x == e => Some(s),
            Some(&(_, s)) if i > 0 && self.0[i - 1].1 == s => Some(s),
            _ => None,
        }
    }
}

/// Recovers a `num_shards`-way sharded engine onto a consistent epoch
/// cut (see the module docs for the protocol). Shard `k`'s log lives
/// in `cfg.shard(k).dir`; the manifest lives in `cfg.dir`.
///
/// Replaying truncates each shard's log right after the cut epoch's
/// last record, discarding partially durable later epochs — after this
/// returns, the logs themselves are on the cut.
pub fn recover_sharded<E: EdgeSet>(
    cfg: &DurabilityConfig,
    num_shards: usize,
    edge_cfg: E::Config,
) -> Result<RecoveredSharded<E>, WalError> {
    assert!(num_shards > 0, "need at least one shard");
    let io = cfg.io.as_ref();
    io.create_dir_all(&cfg.dir)
        .map_err(WalError::io("create wal root"))?;
    let manifest = load_latest_manifest(io, &cfg.dir, num_shards);

    // Phase 1: per shard, load the manifest-listed checkpoint and scan
    // the durable log for the epochs it can end on.
    let mut shards = Vec::with_capacity(num_shards);
    for k in 0..num_shards {
        let sdir = cfg.shard(k).dir;
        io.create_dir_all(&sdir)
            .map_err(WalError::io("create shard wal dir"))?;
        let ck = manifest
            .as_ref()
            .and_then(|m| load_checkpoint_at::<E>(io, &sdir, m.seqs[k]).ok());
        let (graph, ck_seq, ck_epoch) = match ck {
            Some(ck) => (ck.graph, ck.seq, ck.epoch),
            None => (Graph::new(edge_cfg), 0, 0),
        };
        let log = scan_log(io, &sdir)?;
        let bounds = EpochBounds::scan(&log, ck_epoch, ck_seq);
        shards.push((sdir, graph, ck_seq, bounds, log));
    }
    // The cut is the newest epoch every shard can end on exactly. Every
    // shard shares the manifest's epoch (or 0 without one), so the
    // search ends there at the latest.
    let newest = shards
        .iter()
        .map(|s| s.3.complete())
        .min()
        .expect("num_shards > 0");
    let cut_epoch = (0..=newest)
        .rev()
        .find(|&e| shards.iter().all(|s| s.3.last_seq(e).is_some()))
        .unwrap_or(newest);

    // Phase 2: replay each shard through the last batch of `cut_epoch`
    // and truncate the log right after it.
    let mut graphs = Vec::with_capacity(num_shards);
    let mut seqs = Vec::with_capacity(num_shards);
    let mut reports = Vec::with_capacity(num_shards);
    for (sdir, mut graph, ck_seq, bounds, log) in shards {
        // A shard whose checkpoint did not load has no boundary at the
        // cut; it applies nothing above its checkpoint.
        let through = bounds.last_seq(cut_epoch).unwrap_or(ck_seq);
        let mut seq = ck_seq;
        let mut frames_replayed = 0u64;
        // keep = (segment, offset) of the last byte worth keeping.
        let mut keep: Option<(u64, usize)> = None;
        for (seg, rec, end) in &log.records {
            match rec {
                WalRecord::Epoch { epoch: e, .. } => {
                    if *e > cut_epoch {
                        break;
                    }
                    keep = Some((*seg, *end));
                    if *e == cut_epoch {
                        break; // the cut point itself
                    }
                }
                WalRecord::Batch {
                    seq: s,
                    inserts,
                    deletes,
                } => {
                    if *s <= ck_seq {
                        keep = Some((*seg, *end));
                        continue;
                    }
                    if *s > through || *s != seq + 1 {
                        break; // beyond the cut, or a gap
                    }
                    graph = apply_batch(graph, inserts, deletes, true);
                    seq = *s;
                    frames_replayed += 1;
                    keep = Some((*seg, *end));
                }
            }
        }
        // Truncate the shard's log to the keep point: later epochs'
        // frames must not linger ahead of future appends.
        let segments = list_segments(io, &sdir)?;
        let (keep_seg, keep_off) =
            keep.unwrap_or_else(|| (segments.first().copied().unwrap_or(1), 0));
        let mut torn_tail_bytes = log.torn_tail_bytes;
        for &s in &segments {
            let path = join(&sdir, &segment_name(s));
            if s < keep_seg {
                continue;
            } else if s == keep_seg {
                let cur = io.read(&path).map_err(WalError::io("read segment"))?;
                if cur.len() > keep_off {
                    torn_tail_bytes += (cur.len() - keep_off) as u64;
                    io.truncate(&path, keep_off as u64)
                        .map_err(WalError::io("truncate past cut"))?;
                }
            } else {
                let cur = io.read(&path).map_err(WalError::io("read segment"))?;
                torn_tail_bytes += cur.len() as u64;
                io.remove(&path).map_err(WalError::io("remove past cut"))?;
            }
        }
        graphs.push(graph);
        seqs.push(seq);
        reports.push(RecoveryReport {
            checkpoint_seq: ck_seq,
            frames_replayed,
            torn_tail_bytes,
            segments_scanned: log.segments_scanned,
        });
    }
    Ok(RecoveredSharded {
        shards: graphs,
        seqs,
        epoch: cut_epoch,
        next_epoch: cut_epoch + 1,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::super::checkpoint::{write_checkpoint, write_manifest, Manifest};
    use super::super::io::MemIo;
    use super::super::log::WalWriter;
    use super::super::{DurabilityConfig, FsyncPolicy};
    use super::*;
    use aspen::{ChunkParams, CompressedEdges};
    use std::sync::Arc;

    type G = Graph<CompressedEdges>;

    fn cfg(mem: &Arc<MemIo>) -> DurabilityConfig {
        DurabilityConfig::with_io("wal", Arc::clone(mem) as Arc<dyn WalIo>)
    }

    fn edge_list(g: &G) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for v in g.vertex_ids() {
            for n in g.find_vertex(v).unwrap().edges.to_vec() {
                out.push((v, n));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_dir_recovers_to_empty_graph() {
        let mem = MemIo::new();
        let r = recover::<CompressedEdges>(&cfg(&mem), ChunkParams::default(), false).unwrap();
        assert_eq!(r.seq, 0);
        assert_eq!(r.graph.num_vertices(), 0);
    }

    #[test]
    fn replay_matches_direct_application() {
        let mem = MemIo::new();
        let c = cfg(&mem);
        let mut w =
            WalWriter::open(Arc::clone(&c.io), &c.dir, FsyncPolicy::Always, 1 << 16, 0).unwrap();
        let mut oracle = G::new(ChunkParams::default());
        for i in 0..10u32 {
            let ins = [(i, i + 1)];
            let del: &[(u32, u32)] = if i >= 5 { &[(i - 5, i - 4)] } else { &[] };
            w.append_batch(i as u64 + 1, &ins, del).unwrap();
            oracle = apply_batch(oracle, &ins, del, false);
        }
        drop(w);
        mem.crash();
        let r = recover::<CompressedEdges>(&c, ChunkParams::default(), false).unwrap();
        assert_eq!(r.seq, 10);
        assert_eq!(r.report.frames_replayed, 10);
        assert_eq!(edge_list(&r.graph), edge_list(&oracle));
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let mem = MemIo::new();
        let c = cfg(&mem);
        let mut w =
            WalWriter::open(Arc::clone(&c.io), &c.dir, FsyncPolicy::Always, 1 << 16, 0).unwrap();
        let mut g = G::new(ChunkParams::default());
        for i in 0..8u32 {
            let ins = [(i, 100 + i)];
            w.append_batch(i as u64 + 1, &ins, &[]).unwrap();
            g = apply_batch(g, &ins, &[], false);
            if i == 4 {
                write_checkpoint(c.io.as_ref(), &c.dir, 5, 0, &g).unwrap();
            }
        }
        drop(w);
        let r = recover::<CompressedEdges>(&c, ChunkParams::default(), false).unwrap();
        assert_eq!(r.report.checkpoint_seq, 5);
        assert_eq!(r.report.frames_replayed, 3);
        assert_eq!(r.seq, 8);
        assert_eq!(edge_list(&r.graph), edge_list(&g));
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let mem = MemIo::new();
        let c = cfg(&mem);
        let mut w =
            WalWriter::open(Arc::clone(&c.io), &c.dir, FsyncPolicy::Always, 1 << 16, 0).unwrap();
        for i in 0..3u64 {
            w.append_batch(i + 1, &[(i as u32, 9)], &[]).unwrap();
        }
        drop(w);
        // Simulate a torn append: garbage bytes at the end, synced.
        let mut f = mem.open_append("wal/wal-00000000000000000001.seg").unwrap();
        f.append(&[7, 0, 0, 0, 1, 2, 3]).unwrap();
        f.sync().unwrap();
        let r = recover::<CompressedEdges>(&c, ChunkParams::default(), false).unwrap();
        assert_eq!(r.seq, 3);
        assert!(r.report.torn_tail_bytes > 0);
        // The truncation is durable: a second recovery sees a clean log.
        let r2 = recover::<CompressedEdges>(&c, ChunkParams::default(), false).unwrap();
        assert_eq!(r2.report.torn_tail_bytes, 0);
        assert_eq!(r2.seq, 3);
    }

    /// Two shards; shard 0 has markers through epoch 3, shard 1 only
    /// through epoch 2 — recovery must land both on epoch 2 and
    /// discard shard 0's epoch-3 frames.
    #[test]
    fn sharded_recovery_lands_on_min_common_epoch() {
        let mem = MemIo::new();
        let root = cfg(&mem);
        let mut oracles: Vec<G> = vec![G::new(ChunkParams::default()); 2];
        let mut writers: Vec<WalWriter> = (0..2)
            .map(|k| {
                let sc = root.shard(k);
                WalWriter::open(Arc::clone(&sc.io), &sc.dir, FsyncPolicy::Always, 1 << 16, 0)
                    .unwrap()
            })
            .collect();
        let mut seqs = [0u64; 2];
        // Epochs 1..=2 land fully on both shards.
        for e in 1..=2u64 {
            for k in 0..2usize {
                seqs[k] += 1;
                let ins = [(10 * e as u32 + k as u32, 77)];
                writers[k].append_batch(seqs[k], &ins, &[]).unwrap();
                if e <= 2 {
                    oracles[k] = apply_batch(oracles[k].clone(), &ins, &[], true);
                }
                writers[k].append_epoch(e).unwrap();
            }
        }
        // Epoch 3 completes only on shard 0.
        seqs[0] += 1;
        writers[0].append_batch(seqs[0], &[(90, 91)], &[]).unwrap();
        writers[0].append_epoch(3).unwrap();
        drop(writers);
        mem.crash();

        let r = recover_sharded::<CompressedEdges>(&root, 2, ChunkParams::default()).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(r.next_epoch, 3);
        assert_eq!(r.seqs, vec![2, 2]);
        for (k, oracle) in oracles.iter().enumerate() {
            assert_eq!(edge_list(&r.shards[k]), edge_list(oracle), "shard {k}");
        }
        // The discarded epoch-3 frames are gone from shard 0's log too.
        let r2 = recover_sharded::<CompressedEdges>(&root, 2, ChunkParams::default()).unwrap();
        assert_eq!(r2.seqs, vec![2, 2]);
        assert_eq!(r2.reports[0].torn_tail_bytes, 0);
    }

    /// A lost (dropped) write leaves a seq gap with durable frames and
    /// markers beyond it. Those markers must not pin the cut on an
    /// epoch the shard cannot replay — recovery has to fall back to
    /// the last epoch below the gap on every shard.
    #[test]
    fn markers_beyond_a_lost_write_do_not_advance_the_cut() {
        use super::super::frame::encode_record_frame;
        let mem = MemIo::new();
        let root = cfg(&mem);

        // Shard 0: epoch 1 complete, then batch seq 2 is LOST, batch
        // seq 3 and the epoch-2 marker land durably after the hole.
        // The markers are the old, seq-less kind: a later batch frame
        // alone must expose the gap.
        let mut bytes = Vec::new();
        for rec in [
            WalRecord::Batch {
                seq: 1,
                inserts: vec![(10, 77)],
                deletes: vec![],
            },
            WalRecord::Epoch {
                epoch: 1,
                last_seq: 0,
            },
            WalRecord::Batch {
                seq: 3,
                inserts: vec![(30, 77)],
                deletes: vec![],
            },
            WalRecord::Epoch {
                epoch: 2,
                last_seq: 0,
            },
        ] {
            bytes.extend_from_slice(&encode_record_frame(&rec));
        }
        let s0 = root.shard(0);
        mem.create_dir_all(&s0.dir).unwrap();
        mem.atomic_write(&join(&s0.dir, &segment_name(1)), &bytes)
            .unwrap();

        // Shard 1: epochs 1 and 2 both fully durable.
        let s1 = root.shard(1);
        let mut w1 =
            WalWriter::open(Arc::clone(&s1.io), &s1.dir, FsyncPolicy::Always, 1 << 16, 0).unwrap();
        w1.append_batch(1, &[(11, 88)], &[]).unwrap();
        w1.append_epoch(1).unwrap();
        w1.append_batch(2, &[(21, 88)], &[]).unwrap();
        w1.append_epoch(2).unwrap();
        drop(w1);
        mem.crash();

        let r = recover_sharded::<CompressedEdges>(&root, 2, ChunkParams::default()).unwrap();
        assert_eq!(r.epoch, 1, "gap-stranded marker must not prove epoch 2");
        assert_eq!(r.seqs, vec![1, 1]);
        assert!(
            r.shards[0].find_vertex(30).is_none(),
            "beyond-gap frame applied"
        );
        assert!(
            r.shards[1].find_vertex(21).is_none(),
            "cut not honored on shard 1"
        );
    }

    /// A manifest proves an epoch complete even when the shard's
    /// marker for it was lost with the page cache.
    #[test]
    fn manifest_substitutes_for_lost_markers() {
        let mem = MemIo::new();
        let root = cfg(&mem);
        let mut gs: Vec<G> = Vec::new();
        for k in 0..2usize {
            let sc = root.shard(k);
            mem.create_dir_all(&sc.dir).unwrap();
            let g = G::from_edges(&[(k as u32, 50)], ChunkParams::default());
            write_checkpoint(root.io.as_ref(), &sc.dir, 4, 6, &g).unwrap();
            gs.push(g);
        }
        write_manifest(
            root.io.as_ref(),
            &root.dir,
            &Manifest {
                epoch: 6,
                seqs: vec![4, 4],
            },
        )
        .unwrap();
        let r = recover_sharded::<CompressedEdges>(&root, 2, ChunkParams::default()).unwrap();
        assert_eq!(r.epoch, 6);
        assert_eq!(r.seqs, vec![4, 4]);
        for (k, g) in gs.iter().enumerate() {
            assert_eq!(edge_list(&r.shards[k]), edge_list(g));
        }
    }
}
