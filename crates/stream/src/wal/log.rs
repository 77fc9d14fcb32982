//! The segmented WAL appender used by engine writer threads.
//!
//! Segments are named `wal-{first_seq:020}.seg` so a lexical sort is a
//! seq sort. [`WalWriter::open`] scans what is on disk, truncates any
//! torn tail (normal after a crash), and positions itself after the
//! last valid batch frame; appends then continue the sequence.

use super::frame::{encode_record_frame, scan_segment, WalRecord};
use super::io::{join, WalFile, WalIo};
use super::{FsyncPolicy, WalError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// File name of the segment whose first batch record is `seq`.
pub fn segment_name(seq: u64) -> String {
    format!("wal-{seq:020}.seg")
}

/// Parses a segment file name back to its starting seq.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Sorted starting-seq list of the segments under `dir`.
pub fn list_segments(io: &dyn WalIo, dir: &str) -> Result<Vec<u64>, WalError> {
    let mut seqs: Vec<u64> = io
        .list(dir)
        .map_err(WalError::io("list wal dir"))?
        .iter()
        .filter_map(|n| parse_segment_name(n))
        .collect();
    seqs.sort_unstable();
    Ok(seqs)
}

/// What one append did, for the caller's metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppendOutcome {
    /// Frame bytes written.
    pub bytes: u64,
    /// Whether this append triggered an fsync under the policy.
    pub synced: bool,
    /// How long that fsync took ([`Duration::ZERO`] when not synced).
    pub sync_time: Duration,
    /// Whether a new segment was started.
    pub rotated: bool,
}

/// Append half of the WAL: one per engine writer thread, never shared.
pub struct WalWriter {
    io: Arc<dyn WalIo>,
    dir: String,
    policy: FsyncPolicy,
    segment_bytes: u64,
    file: Box<dyn WalFile>,
    current_segment: u64,
    /// Seq the next batch record must carry.
    next_seq: u64,
    /// Highest seq known durable (covered by a completed sync).
    synced_through: u64,
    appends_since_sync: u64,
    last_sync: Instant,
}

impl WalWriter {
    /// Opens (or creates) the log in `dir`, truncating any torn tail
    /// and seeking to the end of the batch sequence. `base_seq` is the
    /// seq already captured by state outside the log (a recovered
    /// checkpoint); the next batch gets `max(scanned, base_seq) + 1`.
    pub fn open(
        io: Arc<dyn WalIo>,
        dir: &str,
        policy: FsyncPolicy,
        segment_bytes: u64,
        base_seq: u64,
    ) -> Result<WalWriter, WalError> {
        io.create_dir_all(dir)
            .map_err(WalError::io("create wal dir"))?;
        let segments = list_segments(io.as_ref(), dir)?;
        let mut last_batch_seq = base_seq;
        let mut kept: Vec<u64> = Vec::new();
        let mut torn_at: Option<usize> = None;
        for (i, &start) in segments.iter().enumerate() {
            let path = join(dir, &segment_name(start));
            let bytes = io.read(&path).map_err(WalError::io("read segment"))?;
            let scan = scan_segment(&bytes);
            for (rec, _) in &scan.records {
                if let WalRecord::Batch { seq, .. } = rec {
                    last_batch_seq = last_batch_seq.max(*seq);
                }
            }
            kept.push(start);
            if scan.is_torn() {
                // Nothing after a torn frame is trustworthy: truncate
                // this segment and drop any later ones.
                io.truncate(&path, scan.valid_len as u64)
                    .map_err(WalError::io("truncate torn tail"))?;
                torn_at = Some(i);
                break;
            }
        }
        if let Some(i) = torn_at {
            for &start in &segments[i + 1..] {
                io.remove(&join(dir, &segment_name(start)))
                    .map_err(WalError::io("remove orphan segment"))?;
            }
        }
        let next_seq = last_batch_seq + 1;
        let current_segment = kept.last().copied().unwrap_or(next_seq);
        let file = io
            .open_append(&join(dir, &segment_name(current_segment)))
            .map_err(WalError::io("open segment"))?;
        Ok(WalWriter {
            io,
            dir: dir.to_string(),
            policy,
            segment_bytes: segment_bytes.max(1),
            file,
            current_segment,
            next_seq,
            synced_through: next_seq - 1,
            appends_since_sync: 0,
            last_sync: Instant::now(),
        })
    }

    /// Seq the next [`append_batch`](Self::append_batch) must use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest batch seq guaranteed on disk.
    pub fn durable_seq(&self) -> u64 {
        self.synced_through
    }

    /// Appends one batch record; `seq` must continue the sequence.
    pub fn append_batch(
        &mut self,
        seq: u64,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> Result<AppendOutcome, WalError> {
        assert_eq!(seq, self.next_seq, "batch seq must be contiguous");
        let rec = WalRecord::Batch {
            seq,
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        };
        // Advance before appending so a policy-triggered sync inside
        // `append_record` accounts this very record as durable.
        self.next_seq = seq + 1;
        self.append_record(&rec, seq)
    }

    /// Appends an epoch-complete marker (sharded engines), stamped
    /// with the seq of the last batch appended before it.
    pub fn append_epoch(&mut self, epoch: u64) -> Result<AppendOutcome, WalError> {
        let marker = WalRecord::Epoch {
            epoch,
            last_seq: self.next_seq - 1,
        };
        self.append_record(&marker, self.next_seq)
    }

    fn append_record(&mut self, rec: &WalRecord, name_seq: u64) -> Result<AppendOutcome, WalError> {
        let frame = encode_record_frame(rec);
        let mut rotated = false;
        if self.file.len() >= self.segment_bytes {
            let next = name_seq.max(self.current_segment + 1);
            // Seal the old segment before any frame lands in the new
            // one, so recovery never sees a durable successor segment
            // ahead of a volatile predecessor tail.
            self.sync()?;
            self.file = self
                .io
                .open_append(&join(&self.dir, &segment_name(next)))
                .map_err(WalError::io("rotate segment"))?;
            self.current_segment = next;
            rotated = true;
        }
        self.file
            .append(&frame)
            .map_err(WalError::io("append frame"))?;
        self.appends_since_sync += 1;
        let sync_time = self.maybe_sync()?;
        Ok(AppendOutcome {
            bytes: frame.len() as u64,
            synced: sync_time.is_some(),
            sync_time: sync_time.unwrap_or(Duration::ZERO),
            rotated,
        })
    }

    fn maybe_sync(&mut self) -> Result<Option<Duration>, WalError> {
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
        };
        if due {
            Ok(Some(self.sync()?))
        } else {
            Ok(None)
        }
    }

    /// Forces everything appended so far to disk (used before acks
    /// that promise durability, and on engine shutdown). Returns how
    /// long the fsync took, for the caller's latency histogram.
    pub fn sync(&mut self) -> Result<Duration, WalError> {
        let t0 = Instant::now();
        self.file.sync().map_err(WalError::io("fsync wal"))?;
        self.synced_through = self.next_seq - 1;
        self.appends_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(t0.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::super::io::MemIo;
    use super::*;

    fn open_mem(mem: &Arc<MemIo>, seg_bytes: u64) -> WalWriter {
        WalWriter::open(
            Arc::clone(mem) as Arc<dyn WalIo>,
            "wal",
            FsyncPolicy::Always,
            seg_bytes,
            0,
        )
        .unwrap()
    }

    fn append_n(w: &mut WalWriter, n: u64) {
        for _ in 0..n {
            let seq = w.next_seq();
            w.append_batch(seq, &[(seq as u32, seq as u32 + 1)], &[])
                .unwrap();
        }
    }

    #[test]
    fn appends_survive_reopen() {
        let mem = MemIo::new();
        {
            let mut w = open_mem(&mem, 1 << 20);
            append_n(&mut w, 5);
            assert_eq!(w.durable_seq(), 5);
        }
        let w = open_mem(&mem, 1 << 20);
        assert_eq!(w.next_seq(), 6);
    }

    #[test]
    fn rotation_starts_new_segments() {
        let mem = MemIo::new();
        let mut w = open_mem(&mem, 64); // tiny segments force rotation
        append_n(&mut w, 20);
        let segs = list_segments(mem.as_ref(), "wal").unwrap();
        assert!(segs.len() > 1, "expected rotation, got {segs:?}");
        // Reopen continues the sequence across segments.
        drop(w);
        let w = open_mem(&mem, 64);
        assert_eq!(w.next_seq(), 21);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let mem = MemIo::new();
        {
            let mut w = open_mem(&mem, 1 << 20);
            append_n(&mut w, 3);
            // A 4th append that never syncs: lost at crash.
            let seq = w.next_seq();
            let io: Arc<dyn WalIo> = Arc::clone(&mem) as _;
            let mut raw = io.open_append(&join("wal", &segment_name(1))).unwrap();
            drop(w);
            raw.append(&[0xde, 0xad, 0xbe, 0xef]).unwrap(); // garbage tail
            let _ = seq;
        }
        mem.crash();
        let w = open_mem(&mem, 1 << 20);
        assert_eq!(w.next_seq(), 4, "garbage tail must not eat valid frames");
    }

    #[test]
    fn every_n_policy_syncs_in_groups() {
        let mem = MemIo::new();
        let mut w = WalWriter::open(
            Arc::clone(&mem) as Arc<dyn WalIo>,
            "wal",
            FsyncPolicy::EveryN(3),
            1 << 20,
            0,
        )
        .unwrap();
        append_n(&mut w, 2);
        assert_eq!(w.durable_seq(), 0);
        append_n(&mut w, 1); // third append crosses the threshold
        assert_eq!(w.durable_seq(), 3);
    }

    #[test]
    fn epoch_markers_do_not_advance_seq() {
        let mem = MemIo::new();
        let mut w = open_mem(&mem, 1 << 20);
        append_n(&mut w, 2);
        w.append_epoch(1).unwrap();
        assert_eq!(w.next_seq(), 3);
        drop(w);
        let w = open_mem(&mem, 1 << 20);
        assert_eq!(w.next_seq(), 3);
    }
}
