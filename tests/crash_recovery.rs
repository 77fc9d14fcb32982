//! Crash-recovery suite for the durability subsystem: the whole engine
//! runs against an in-memory filesystem with scripted fault injection,
//! gets "killed" at every interesting point, and is recovered; an
//! auditor then proves the two durability promises:
//!
//! 1. **No acked batch is lost** — recovery restores the exact prefix
//!    of the update history whose WAL frames became durable.
//! 2. **No unacked batch is half-applied** — a torn, flipped, or
//!    dropped frame removes its batch *whole*; the recovered graph is
//!    always equal to some prefix of sequential replay, never a state
//!    between two updates.
//!
//! The single-engine matrix runs one-update batches so WAL write-op
//! `k` carries exactly batch seq `k + 1`, making the surviving prefix
//! deterministic per failpoint. The sharded matrix checks the weaker
//! but sufficient property: the recovered 4-shard state is mirror
//! consistent and equals *some* prefix of the push order (the epoch
//! cut recovery landed on).

use aspen::{
    symmetrize, ChunkParams, CompressedEdges, EdgeSet, Graph, ShardRouter, VersionedGraph,
};
use graphgen::Update;
use std::sync::Arc;
use std::time::Duration;
use stream::wal::{
    join, recover, recover_sharded, scan_segment, segment_name, DurabilityConfig, Failpoint,
    FailpointIo, Fault, FsyncPolicy, MemIo, Recovered, WalIo, WalRecord, WalWriter,
};
use stream::{BatchPolicy, IngestError, ShardedEngine, StatsReport, StreamEngine};

type G = Graph<CompressedEdges>;

// ---------------------------------------------------------------------
// Oracle and auditing helpers
// ---------------------------------------------------------------------

/// Deterministic mixed insert/delete stream over a small id range so
/// deletes regularly hit live edges (xorshift; no external RNG).
fn update_stream(n: usize, seed: u64) -> Vec<Update> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            let r = next();
            let a = ((r >> 8) % 24) as u32;
            let b = ((r >> 34) % 24) as u32;
            if r % 10 < 7 {
                Update::Insert(a, b)
            } else {
                Update::Delete(a, b)
            }
        })
        .collect()
}

fn apply(g: G, u: Update) -> G {
    match u {
        Update::Insert(a, b) => g.insert_edges(&symmetrize(&[(a, b)])),
        Update::Delete(a, b) => g.delete_edges(&symmetrize(&[(a, b)])),
    }
}

/// Sequential replay of `ups` onto an empty graph — what every
/// recovered state is audited against.
fn oracle_after(ups: &[Update]) -> G {
    let mut g = G::new(ChunkParams::default());
    for &u in ups {
        g = apply(g, u);
    }
    g
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

fn merged_arcs(shards: &[G]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for g in shards {
        out.extend(edge_list(g));
    }
    out.sort_unstable();
    out
}

/// Audits the mirror invariant on recovered shard graphs directly:
/// every stored arc lives on its source's owner shard, and its reverse
/// exists on the target's owner shard.
fn assert_mirror_consistent(shards: &[G], router: &ShardRouter) {
    for (k, g) in shards.iter().enumerate() {
        for (v, w) in edge_list(g) {
            assert_eq!(
                router.shard_of(v),
                k,
                "arc ({v},{w}) stored on non-owner shard {k}"
            );
            assert!(
                shards[router.shard_of(w)].contains_edge(w, v),
                "mirror arc ({w},{v}) missing after recovery"
            );
        }
    }
}

/// Proves the recovered merged state equals sequential replay of some
/// prefix of the push order, returning the (earliest) prefix length.
fn assert_is_acked_prefix(merged: &[(u32, u32)], ups: &[Update]) -> usize {
    let mut g = G::new(ChunkParams::default());
    if merged == edge_list(&g) {
        return 0;
    }
    for (i, &u) in ups.iter().enumerate() {
        g = apply(g, u);
        if merged == edge_list(&g) {
            return i + 1;
        }
    }
    panic!("recovered state is not a prefix of the update history: {merged:?}");
}

// ---------------------------------------------------------------------
// Engine drivers
// ---------------------------------------------------------------------

/// One-update batches: the writer appends exactly one WAL frame per
/// pushed update, in push order, so write-op `k` is batch seq `k + 1`.
fn lockstep_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 1,
        max_linger: Duration::from_micros(100),
        channel_capacity: 8,
    }
}

fn run_single(ups: &[Update], cfg: DurabilityConfig) -> StatsReport {
    let vg: Arc<VersionedGraph<CompressedEdges>> =
        Arc::new(VersionedGraph::new(G::new(ChunkParams::default())));
    let engine = StreamEngine::builder(vg)
        .policy(lockstep_policy())
        .durability(cfg)
        .start();
    let h = engine.handle();
    h.push_all(ups).expect("engine closed early");
    drop(h);
    engine.close()
}

fn run_sharded(ups: &[Update], io: Arc<dyn WalIo>, dir: &str) {
    let engine = ShardedEngine::<CompressedEdges>::builder(ShardRouter::hash(4))
        .edge_config(ChunkParams::default())
        .policy(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
            channel_capacity: 64,
        })
        .durability(DurabilityConfig::with_io(dir, io))
        .start();
    let h = engine.handle();
    h.push_all(ups).expect("engine closed early");
    drop(h);
    engine.close();
}

fn mem_cfg(mem: &Arc<MemIo>, dir: &str) -> DurabilityConfig {
    DurabilityConfig::with_io(dir, Arc::clone(mem) as Arc<dyn WalIo>)
}

fn recover_mem(mem: &Arc<MemIo>, dir: &str) -> Recovered<CompressedEdges> {
    recover::<CompressedEdges>(&mem_cfg(mem, dir), ChunkParams::default(), false).unwrap()
}

// ---------------------------------------------------------------------
// Single-engine crash matrix
// ---------------------------------------------------------------------

/// Kill the engine's disk at every fault kind × several failpoints.
/// With `FsyncPolicy::Always` and one-update batches, the durable
/// prefix is exactly the frames before the tripped op: recovery must
/// land on seq == at_op and the oracle prefix of that length.
#[test]
fn single_engine_recovers_the_exact_acked_prefix_under_faults() {
    let ups = update_stream(40, 7);
    let faults = [
        Fault::DropWrite,
        Fault::TruncateWrite(3),
        Fault::TruncateWrite(6),
        Fault::BitFlip(2),
        Fault::BitFlip(57),
        Fault::CrashHard,
    ];
    for fault in faults {
        for at_op in [0u64, 5, 17, 33] {
            let mem = MemIo::new();
            let fio = Arc::new(FailpointIo::new(Arc::clone(&mem)));
            fio.fail_at(Failpoint { at_op, fault });
            run_single(
                &ups,
                DurabilityConfig::with_io("wal", Arc::clone(&fio) as _),
            );
            mem.crash();

            let r = recover_mem(&mem, "wal");
            assert_eq!(r.seq, at_op, "{fault:?} at op {at_op}: wrong recovered seq");
            assert_eq!(
                edge_list(&r.graph),
                edge_list(&oracle_after(&ups[..at_op as usize])),
                "{fault:?} at op {at_op}: recovered graph is not the acked prefix"
            );
            // Recovery healed the log: a second pass finds nothing torn.
            let r2 = recover_mem(&mem, "wal");
            assert_eq!(r2.seq, r.seq);
            assert_eq!(r2.report.torn_tail_bytes, 0);
        }
    }
}

#[test]
fn clean_close_makes_every_acked_update_durable() {
    let ups = update_stream(40, 1);
    let mem = MemIo::new();
    let report = run_single(&ups, mem_cfg(&mem, "wal"));
    assert_eq!(report.updates_applied, 40);
    assert_eq!(report.wal_frames, 40);
    assert!(
        report.wal_fsyncs >= report.wal_frames,
        "Always policy must sync per frame"
    );

    mem.crash();
    let r = recover_mem(&mem, "wal");
    assert_eq!(r.seq, 40);
    assert_eq!(r.report.frames_replayed, 40);
    assert_eq!(edge_list(&r.graph), edge_list(&oracle_after(&ups)));
}

/// A grouped-fsync policy leaves a tail of unsynced frames while
/// running, but `close()` fsyncs that tail; and automatic checkpoints
/// bound how much of the log replay has to touch.
#[test]
fn everyn_policy_close_syncs_the_tail_and_checkpoints_bound_replay() {
    let ups = update_stream(50, 3);
    let mem = MemIo::new();
    let cfg = mem_cfg(&mem, "wal")
        .fsync(FsyncPolicy::EveryN(8))
        .checkpoint_every(20);
    let report = run_single(&ups, cfg);
    assert!(report.wal_checkpoints >= 1, "no automatic checkpoint fired");
    assert!(
        report.wal_fsyncs < report.wal_frames,
        "EveryN should batch fsyncs"
    );

    mem.crash();
    let r = recover_mem(&mem, "wal");
    assert_eq!(r.seq, 50, "close() must fsync the unsynced tail");
    assert!(r.report.checkpoint_seq >= 20);
    assert!(
        r.report.frames_replayed <= 30,
        "checkpoint at seq {} did not bound replay ({} frames)",
        r.report.checkpoint_seq,
        r.report.frames_replayed
    );
    assert_eq!(edge_list(&r.graph), edge_list(&oracle_after(&ups)));
}

#[test]
fn close_rejects_late_producers_instead_of_blocking() {
    let vg: Arc<VersionedGraph<CompressedEdges>> =
        Arc::new(VersionedGraph::new(G::new(ChunkParams::default())));
    let engine = StreamEngine::builder(vg).policy(lockstep_policy()).start();
    let h = engine.handle();
    h.push(Update::Insert(1, 2)).unwrap();
    let report = engine.close();
    assert_eq!(report.updates_applied, 1);

    assert!(matches!(
        h.push(Update::Insert(3, 4)),
        Err(IngestError::Closed(Update::Insert(3, 4)))
    ));
    assert!(matches!(
        h.try_send(Update::Insert(5, 6)),
        Err(IngestError::Closed(_))
    ));
    assert!(matches!(
        h.send_timeout(Update::Insert(7, 8), Duration::from_millis(1)),
        Err(IngestError::Closed(_))
    ));
}

/// Restart after a clean shutdown: recover, seed a new engine with the
/// recovered graph and seq, stream more updates, crash, recover again
/// — the final state must equal replaying the *whole* history.
#[test]
fn single_engine_resume_continues_the_wal_sequence() {
    let ups = update_stream(60, 23);
    let mem = MemIo::new();
    run_single(&ups[..30], mem_cfg(&mem, "wal"));

    let r1 = recover_mem(&mem, "wal");
    assert_eq!(r1.seq, 30);

    let vg: Arc<VersionedGraph<CompressedEdges>> = Arc::new(VersionedGraph::new(r1.graph));
    let engine = StreamEngine::builder(vg)
        .policy(lockstep_policy())
        .durability(mem_cfg(&mem, "wal"))
        .first_seq(r1.seq)
        .start();
    let h = engine.handle();
    h.push_all(&ups[30..]).unwrap();
    drop(h);
    engine.close();

    mem.crash();
    let r2 = recover_mem(&mem, "wal");
    assert_eq!(
        r2.seq, 60,
        "resumed engine must continue the seq, not restart it"
    );
    assert_eq!(edge_list(&r2.graph), edge_list(&oracle_after(&ups)));
}

/// The same protocol against the real filesystem: run, close, reopen
/// the directory like a fresh process would, recover, compare.
#[test]
fn stdio_round_trip_recovers_after_reopen() {
    let dir = std::env::temp_dir().join(format!("aspen-crash-recovery-{}", std::process::id()));
    let dir = dir.to_string_lossy().into_owned();
    let _ = std::fs::remove_dir_all(&dir);

    let ups = update_stream(25, 31);
    let cfg = DurabilityConfig::new(dir.clone()).fsync(FsyncPolicy::EveryN(4));
    run_single(&ups, cfg.clone());

    let r = recover::<CompressedEdges>(&cfg, ChunkParams::default(), false).unwrap();
    assert_eq!(r.seq, 25);
    assert_eq!(edge_list(&r.graph), edge_list(&oracle_after(&ups)));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Sharded crash matrix
// ---------------------------------------------------------------------

/// `kill -9` a 4-shard engine mid-stream at assorted points: the four
/// shard logs freeze at an arbitrary interleaving, and recovery must
/// still land every shard on one consistent epoch cut — mirror intact,
/// merged state equal to a prefix of the push order.
#[test]
fn sharded_kill_nine_recovers_a_consistent_acked_prefix() {
    let ups = update_stream(80, 11);
    let router = ShardRouter::hash(4);
    for at_op in [0u64, 3, 11, 27, 55] {
        let mem = MemIo::new();
        let fio = Arc::new(FailpointIo::new(Arc::clone(&mem)));
        fio.fail_at(Failpoint {
            at_op,
            fault: Fault::CrashHard,
        });
        run_sharded(&ups, Arc::clone(&fio) as _, "dur");
        mem.crash();

        let r =
            recover_sharded::<CompressedEdges>(&mem_cfg(&mem, "dur"), 4, ChunkParams::default())
                .unwrap();
        assert_mirror_consistent(&r.shards, &router);
        let p = assert_is_acked_prefix(&merged_arcs(&r.shards), &ups);
        assert!(p <= ups.len(), "kill at op {at_op} recovered prefix {p}");
    }
}

/// Corruption faults (lost, torn, and bit-flipped writes) land in one
/// shard's log, then the power goes out a few writes later. The hit
/// shard's provable epoch regresses and the whole cut must regress
/// with it — never a state where the other shards run ahead.
#[test]
fn sharded_corruption_plus_crash_recovers_a_consistent_prefix() {
    let ups = update_stream(80, 13);
    let router = ShardRouter::hash(4);
    for fault in [
        Fault::DropWrite,
        Fault::TruncateWrite(5),
        Fault::BitFlip(19),
    ] {
        for at_op in [2u64, 9, 23] {
            let mem = MemIo::new();
            let fio = Arc::new(FailpointIo::new(Arc::clone(&mem)));
            fio.fail_at(Failpoint { at_op, fault });
            fio.fail_at(Failpoint {
                at_op: at_op + 6,
                fault: Fault::CrashHard,
            });
            run_sharded(&ups, Arc::clone(&fio) as _, "dur");
            mem.crash();

            let r = recover_sharded::<CompressedEdges>(
                &mem_cfg(&mem, "dur"),
                4,
                ChunkParams::default(),
            )
            .unwrap();
            assert_mirror_consistent(&r.shards, &router);
            assert_is_acked_prefix(&merged_arcs(&r.shards), &ups);
        }
    }
}

/// One frame a shard writer appends: a batch of arcs (`Some`) or the
/// next epoch's marker (`None`).
type Step<'a> = Option<&'a [(u32, u32)]>;

/// Two hash shards whose logs are written frame by frame: `shard0`
/// through a disk that drops its `drop_op`-th write, `shard1` intact.
/// Returns the recovered cut after a crash.
fn recover_two_shard_logs(
    drop_op: u64,
    shard0: &[Step],
    shard1: &[Step],
) -> stream::wal::RecoveredSharded<CompressedEdges> {
    let mem = MemIo::new();
    let root = mem_cfg(&mem, "dur");
    let fio = Arc::new(FailpointIo::new(Arc::clone(&mem)));
    fio.fail_at(Failpoint {
        at_op: drop_op,
        fault: Fault::DropWrite,
    });
    let logs: [(Arc<dyn WalIo>, &[Step]); 2] =
        [(fio as _, shard0), (Arc::clone(&mem) as _, shard1)];
    for (k, (io, steps)) in logs.into_iter().enumerate() {
        let dir = root.shard(k).dir;
        let mut w = WalWriter::open(io, &dir, FsyncPolicy::Always, 1 << 16, 0).unwrap();
        let (mut seq, mut epoch) = (0, 0);
        for step in steps {
            match step {
                Some(arcs) => {
                    seq += 1;
                    w.append_batch(seq, arcs, &[]).unwrap();
                }
                None => {
                    epoch += 1;
                    w.append_epoch(epoch).unwrap();
                }
            }
        }
    }
    mem.crash();
    recover_sharded::<CompressedEdges>(&root, 2, ChunkParams::default()).unwrap()
}

/// Vertex `u` owned by shard 0 of two, and `v`, `w`, `x` by shard 1.
fn two_shard_ids() -> (ShardRouter, u32, u32, u32, u32) {
    let router = ShardRouter::hash(2);
    let owned_by = |k: usize| (0u32..).filter(move |&id| router.shard_of(id) == k);
    let mut ones = owned_by(1);
    let (v, w, x) = (
        ones.next().unwrap(),
        ones.next().unwrap(),
        ones.next().unwrap(),
    );
    (router, owned_by(0).next().unwrap(), v, w, x)
}

/// A write lost right before an epoch marker leaves no later batch
/// frame to show the seq gap, so the marker itself must. Shard 0 logs
/// `B1 E1 [B2 lost] E2` while shard 1 logs both epochs whole: recovery
/// has to land both shards on epoch 1, or shard 1 keeps the mirror of
/// an arc shard 0 lost.
#[test]
fn sharded_marker_after_a_lost_batch_does_not_prove_its_epoch() {
    let (router, u, v, w, _) = two_shard_ids();
    let r = recover_two_shard_logs(
        2, // B2
        &[Some(&[(u, v)]), None, Some(&[(u, w)]), None],
        &[Some(&[(v, u)]), None, Some(&[(w, u)]), None],
    );
    assert_mirror_consistent(&r.shards, &router);
    assert_eq!((r.epoch, r.seqs.clone()), (1, vec![1, 1]));
    let mut want = vec![(u, v), (v, u)];
    want.sort_unstable();
    assert_eq!(merged_arcs(&r.shards), want);
}

/// A lost epoch marker with batches after it hides where its epoch
/// ended. Shard 0 logs `B1 E1 B2 [E2 lost] B3 E3`; shard 1 got no
/// further than epoch 2. Shard 0 cannot stop at the end of epoch 2 —
/// B3 may belong to it or to epoch 3 — so the cut is epoch 1 on both.
#[test]
fn sharded_lost_marker_hides_where_its_epoch_ended() {
    let (router, u, v, w, x) = two_shard_ids();
    let r = recover_two_shard_logs(
        3, // E2
        &[
            Some(&[(u, v)]),
            None,
            Some(&[(u, x)]),
            None,
            Some(&[(u, w)]),
            None,
        ],
        &[Some(&[(v, u)]), None, Some(&[(x, u)]), None],
    );
    assert_mirror_consistent(&r.shards, &router);
    assert_eq!((r.epoch, r.seqs.clone()), (1, vec![1, 1]));
    let mut want = vec![(u, v), (v, u)];
    want.sort_unstable();
    assert_eq!(merged_arcs(&r.shards), want);
}

/// A clean sharded close checkpoints every shard at the final cut and
/// writes the manifest; recovery then restores the full state without
/// replaying a single frame.
#[test]
fn sharded_clean_close_checkpoints_the_final_cut() {
    let ups = update_stream(60, 17);
    let mem = MemIo::new();
    run_sharded(&ups, Arc::clone(&mem) as _, "dur");
    mem.crash();

    let r = recover_sharded::<CompressedEdges>(&mem_cfg(&mem, "dur"), 4, ChunkParams::default())
        .unwrap();
    assert_mirror_consistent(&r.shards, &ShardRouter::hash(4));
    assert_eq!(merged_arcs(&r.shards), edge_list(&oracle_after(&ups)));
    assert!(
        r.reports.iter().all(|rep| rep.frames_replayed == 0),
        "close() checkpoints should bound replay to zero frames: {:?}",
        r.reports
    );
}

/// Restart a sharded engine from a recovered cut and stream the rest
/// of the history: seqs and epochs continue, and the final recovery
/// equals the full oracle.
#[test]
fn sharded_resume_continues_from_the_recovered_cut() {
    let ups = update_stream(80, 29);
    let mem = MemIo::new();
    run_sharded(&ups[..40], Arc::clone(&mem) as _, "dur");

    let r1 = recover_sharded::<CompressedEdges>(&mem_cfg(&mem, "dur"), 4, ChunkParams::default())
        .unwrap();
    assert_eq!(
        merged_arcs(&r1.shards),
        edge_list(&oracle_after(&ups[..40]))
    );

    let engine = ShardedEngine::<CompressedEdges>::builder(ShardRouter::hash(4))
        .edge_config(ChunkParams::default())
        .policy(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
            channel_capacity: 64,
        })
        .durability(mem_cfg(&mem, "dur"))
        .recovered(&r1)
        .start();
    let h = engine.handle();
    h.push_all(&ups[40..]).unwrap();
    drop(h);
    engine.close();
    mem.crash();

    let r2 = recover_sharded::<CompressedEdges>(&mem_cfg(&mem, "dur"), 4, ChunkParams::default())
        .unwrap();
    assert_mirror_consistent(&r2.shards, &ShardRouter::hash(4));
    assert_eq!(merged_arcs(&r2.shards), edge_list(&oracle_after(&ups)));
    assert!(
        r2.epoch >= r1.epoch,
        "epochs went backwards across a resume"
    );
}

// ---------------------------------------------------------------------
// Adversarial WAL properties
// ---------------------------------------------------------------------

mod wal_prefix_properties {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use stream::wal::encode_record_frame;

    fn op_strategy() -> impl Strategy<Value = Update> {
        prop_oneof![
            ((0u32..16), (0u32..16)).prop_map(|(a, b)| Update::Insert(a, b)),
            ((0u32..16), (0u32..16)).prop_map(|(a, b)| Update::Delete(a, b)),
        ]
    }

    /// Writes each update as one batch frame and returns the durable
    /// segment bytes plus the oracle graph after every prefix.
    fn durable_log_for(ups: &[Update]) -> (Vec<u8>, Vec<G>) {
        let mem = MemIo::new();
        let mut w = WalWriter::open(
            Arc::clone(&mem) as Arc<dyn WalIo>,
            "wal",
            FsyncPolicy::Always,
            1 << 20,
            0,
        )
        .unwrap();
        let mut g = G::new(ChunkParams::default());
        let mut prefixes = vec![g.clone()];
        for (i, &u) in ups.iter().enumerate() {
            let (ins, del) = match u {
                Update::Insert(a, b) => (vec![(a, b)], vec![]),
                Update::Delete(a, b) => (vec![], vec![(a, b)]),
            };
            w.append_batch(i as u64 + 1, &ins, &del).unwrap();
            g = apply(g, u);
            prefixes.push(g.clone());
        }
        drop(w);
        let bytes = mem.read(&join("wal", &segment_name(1))).unwrap();
        (bytes, prefixes)
    }

    fn recover_bytes(bytes: &[u8]) -> Recovered<CompressedEdges> {
        let mem = MemIo::new();
        mem.create_dir_all("wal").unwrap();
        mem.atomic_write(&join("wal", &segment_name(1)), bytes)
            .unwrap();
        recover_mem(&mem, "wal")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every byte-prefix of a valid log recovers to a prefix of the
        /// batch history — never a panic, never a partial batch.
        #[test]
        fn any_truncation_recovers_to_a_prefix(
            ups in vec(op_strategy(), 1..30),
            cut in 0usize..1000,
        ) {
            let (bytes, prefixes) = durable_log_for(&ups);
            let t = bytes.len() * cut / 1000;
            let r = recover_bytes(&bytes[..t]);
            prop_assert!((r.seq as usize) < prefixes.len());
            prop_assert_eq!(
                edge_list(&r.graph),
                edge_list(&prefixes[r.seq as usize])
            );
        }

        /// Flipping any single bit anywhere in the log still recovers
        /// to a prefix: the CRC walls off the damaged frame and
        /// everything after it.
        #[test]
        fn any_single_bit_flip_recovers_to_a_prefix(
            ups in vec(op_strategy(), 1..30),
            pos in 0usize..1000,
            bit in 0u32..8,
        ) {
            let (bytes, prefixes) = durable_log_for(&ups);
            let mut mangled = bytes;
            let i = (mangled.len() - 1) * pos / 1000;
            mangled[i] ^= 1 << bit;
            let r = recover_bytes(&mangled);
            prop_assert!((r.seq as usize) < prefixes.len());
            prop_assert_eq!(
                edge_list(&r.graph),
                edge_list(&prefixes[r.seq as usize])
            );
        }

        /// Frame encode/decode is the identity on arbitrary records.
        #[test]
        fn frames_round_trip(
            seq in 1u64..u64::MAX / 2,
            ins in vec((0u32..1000, 0u32..1000), 0..20),
            del in vec((0u32..1000, 0u32..1000), 0..20),
        ) {
            let rec = WalRecord::Batch { seq, inserts: ins, deletes: del };
            let frame = encode_record_frame(&rec);
            let scan = scan_segment(&frame);
            prop_assert!(!scan.is_torn());
            prop_assert_eq!(scan.records.len(), 1);
            prop_assert_eq!(&scan.records[0].0, &rec);
        }
    }
}
