//! WAL record framing: length-prefixed, CRC32-guarded frames.
//!
//! On-disk layout of one frame:
//!
//! ```text
//! [u32 payload_len LE][u32 crc32(payload) LE][payload]
//! ```
//!
//! The payload starts with a kind byte. Kind [`KIND_BATCH`] carries one
//! coalesced net batch (`seq`, insert pairs, delete pairs — exactly
//! what one version install applies); kind [`KIND_EPOCH`] is a marker
//! a shard writer appends after flushing every batch of an epoch, so
//! sharded recovery can cut the per-shard logs at a common epoch. The
//! marker carries the epoch and the seq of the last batch frame written
//! before it; markers from older logs carry only the epoch and decode
//! with `last_seq` 0.
//!
//! A scanner reading a segment stops at the first frame that is
//! truncated, fails its CRC, or does not decode — everything before
//! that point is trusted, everything from it on is the torn tail.

use aspen::{put_u32, put_u64, ByteReader};

/// Payload kind: a coalesced batch record.
pub const KIND_BATCH: u8 = 1;
/// Payload kind: an epoch-complete marker (sharded engines).
pub const KIND_EPOCH: u8 = 2;

/// Bytes of the `[len][crc]` frame header.
pub const FRAME_HEADER: usize = 8;

/// Frames larger than this are rejected as corrupt rather than
/// allocated for (a flipped bit in the length field must not ask for
/// gigabytes).
const MAX_PAYLOAD: usize = 1 << 30;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A coalesced batch: the net edge sets one version install
    /// applies, tagged with the version sequence number it produced.
    Batch {
        seq: u64,
        inserts: Vec<(u32, u32)>,
        deletes: Vec<(u32, u32)>,
    },
    /// "Every batch of epoch `epoch` routed to this shard is in the
    /// log before this point, and the last of them has seq `last_seq`."
    /// A marker only proves its epoch if the log really holds every
    /// batch through `last_seq` — a write lost before the marker
    /// leaves no later batch frame to show the gap.
    Epoch { epoch: u64, last_seq: u64 },
}

impl WalRecord {
    /// Encodes the payload (kind byte + body, no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Batch {
                seq,
                inserts,
                deletes,
            } => {
                out.push(KIND_BATCH);
                put_u64(*seq, out);
                put_pairs(inserts, out);
                put_pairs(deletes, out);
            }
            WalRecord::Epoch { epoch, last_seq } => {
                out.push(KIND_EPOCH);
                put_u64(*epoch, out);
                put_u64(*last_seq, out);
            }
        }
    }

    /// Decodes a payload; `None` on any malformation (the caller
    /// treats that frame as the start of the torn tail).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = ByteReader::new(payload);
        let rec = match r.u8()? {
            KIND_BATCH => {
                let seq = r.u64v()?;
                let inserts = read_pairs(&mut r)?;
                let deletes = read_pairs(&mut r)?;
                WalRecord::Batch {
                    seq,
                    inserts,
                    deletes,
                }
            }
            KIND_EPOCH => {
                let epoch = r.u64v()?;
                // Markers written before `last_seq` existed end here.
                let last_seq = if r.is_empty() { 0 } else { r.u64v()? };
                WalRecord::Epoch { epoch, last_seq }
            }
            _ => return None,
        };
        if !r.is_empty() {
            return None; // trailing garbage inside a checksummed frame
        }
        Some(rec)
    }
}

fn put_pairs(pairs: &[(u32, u32)], out: &mut Vec<u8>) {
    put_u32(pairs.len() as u32, out);
    for &(u, v) in pairs {
        put_u32(u, out);
        put_u32(v, out);
    }
}

fn read_pairs(r: &mut ByteReader<'_>) -> Option<Vec<(u32, u32)>> {
    let n = r.u32v()? as usize;
    if n > r.remaining() {
        return None; // each pair costs ≥ 2 bytes; bound before alloc
    }
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((r.u32v()?, r.u32v()?));
    }
    Some(pairs)
}

/// Wraps a payload in a `[len][crc]` frame.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes `rec` as one complete frame.
pub fn encode_record_frame(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    rec.encode(&mut payload);
    let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER);
    encode_frame(&payload, &mut frame);
    frame
}

/// The result of scanning one segment's bytes.
pub struct ScannedSegment {
    /// Valid records in order, each with the byte offset just past its
    /// frame (a safe truncation point that keeps the record).
    pub records: Vec<(WalRecord, usize)>,
    /// Offset just past the last valid frame; bytes beyond it are the
    /// torn tail (equal to `total_len` when the segment is clean).
    pub valid_len: usize,
    /// Length of the scanned bytes.
    pub total_len: usize,
}

impl ScannedSegment {
    /// Whether the segment ends in garbage that must be truncated.
    pub fn is_torn(&self) -> bool {
        self.valid_len < self.total_len
    }
}

/// Decodes frames from `bytes` until the first truncated, corrupt, or
/// undecodable frame. Never panics on arbitrary input.
pub fn scan_segment(bytes: &[u8]) -> ScannedSegment {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_PAYLOAD || len > bytes.len() - pos - FRAME_HEADER {
            break; // truncated or absurd length
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        let Some(rec) = WalRecord::decode(payload) else {
            break;
        };
        pos += FRAME_HEADER + len;
        records.push((rec, pos));
    }
    ScannedSegment {
        records,
        valid_len: pos,
        total_len: bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Batch {
                seq: 1,
                inserts: vec![(0, 1), (5, 9)],
                deletes: vec![],
            },
            WalRecord::Epoch {
                epoch: 1,
                last_seq: 1,
            },
            WalRecord::Batch {
                seq: 2,
                inserts: vec![],
                deletes: vec![(5, 9)],
            },
            WalRecord::Epoch {
                epoch: 2,
                last_seq: 2,
            },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&encode_record_frame(r));
        }
        buf
    }

    #[test]
    fn frames_roundtrip() {
        let records = sample_records();
        let buf = encode_all(&records);
        let scan = scan_segment(&buf);
        assert!(!scan.is_torn());
        let got: Vec<WalRecord> = scan.records.into_iter().map(|(r, _)| r).collect();
        assert_eq!(got, records);
    }

    #[test]
    fn markers_without_a_seq_still_decode() {
        // An epoch marker as logs before `last_seq` wrote it.
        let mut payload = vec![KIND_EPOCH];
        put_u64(7, &mut payload);
        assert_eq!(
            WalRecord::decode(&payload),
            Some(WalRecord::Epoch {
                epoch: 7,
                last_seq: 0
            })
        );
    }

    #[test]
    fn truncation_yields_a_prefix() {
        let records = sample_records();
        let buf = encode_all(&records);
        for cut in 0..buf.len() {
            let scan = scan_segment(&buf[..cut]);
            let got: Vec<WalRecord> = scan.records.into_iter().map(|(r, _)| r).collect();
            assert!(
                records.starts_with(&got),
                "cut at {cut} produced a non-prefix"
            );
        }
    }

    #[test]
    fn bit_flips_never_yield_phantom_records() {
        let records = sample_records();
        let buf = encode_all(&records);
        for i in 0..buf.len() {
            let mut m = buf.clone();
            m[i] ^= 0x10;
            let scan = scan_segment(&m);
            // Every decoded record must literally be one of the
            // originals at its position — a flip may shorten the valid
            // prefix, never invent or alter a record that passes CRC.
            for (k, (rec, _)) in scan.records.iter().enumerate() {
                assert_eq!(rec, &records[k], "flip at byte {i} altered record {k}");
            }
            assert!(scan.records.len() <= records.len());
        }
    }

    #[test]
    fn scan_offsets_are_safe_truncation_points() {
        let records = sample_records();
        let buf = encode_all(&records);
        let scan = scan_segment(&buf);
        for (k, &(_, end)) in scan.records.iter().enumerate() {
            let rescan = scan_segment(&buf[..end]);
            assert_eq!(rescan.records.len(), k + 1);
            assert!(!rescan.is_torn());
        }
    }
}
