//! Integration tests for the `aspen-stream` ingestion engine: snapshot
//! isolation and statistics under genuinely concurrent load — multiple
//! producer threads pushing through the bounded channel while the
//! writer loop batches and multiple query threads run analytics.

use aspen::{CompressedEdges, Graph, VersionedGraph};
use graphgen::{build_update_stream, Rmat, Update};
use std::sync::Arc;
use std::time::Duration;
use stream::{analytics, BatchPolicy, StandingAnalytic, StreamEngine};

type VG = VersionedGraph<CompressedEdges>;

/// The §7.3 workload scaled down for CI: an rMAT graph and a shuffled
/// 90/10 insert/delete stream.
fn workload(sample: usize) -> (Arc<VG>, Vec<Update>) {
    let edges = Rmat::new(11, 0xA5EED).symmetric_graph_edges(60_000);
    let setup = build_update_stream(&edges, sample, 42);
    let vg: Arc<VG> = Arc::new(VersionedGraph::new(Graph::from_edges(
        &setup.initial_edges,
        Default::default(),
    )));
    (vg, setup.updates)
}

/// The acceptance scenario: ≥2 producers and ≥2 query threads running
/// concurrently with the writer loop; every acquired snapshot must be
/// internally consistent (its edge count matches a version the writer
/// installed) and the engine must report end-to-end update latency.
#[test]
fn concurrent_producers_and_queries_stay_consistent() {
    let (vg, updates) = workload(4_000);
    let initial_edges = vg.acquire().num_edges();

    let engine = StreamEngine::builder(vg.clone())
        .policy(BatchPolicy {
            max_batch: 256,
            max_linger: Duration::from_micros(500),
            channel_capacity: 1024,
        })
        .register_query(analytics::bfs_from_hub())
        .register_query(analytics::connected_components())
        .query_threads(2)
        .track_consistency(true)
        .start();

    // Two producers split the stream and push concurrently.
    let mid = updates.len() / 2;
    let producers: Vec<_> = [&updates[..mid], &updates[mid..]]
        .into_iter()
        .map(|half| {
            let handle = engine.handle();
            let half = half.to_vec();
            std::thread::spawn(move || handle.push_all(&half).expect("engine closed early"))
        })
        .collect();
    for p in producers {
        p.join().expect("producer panicked");
    }

    let report = engine.finish();

    // Everything pushed was applied, and every snapshot any query
    // thread acquired matched an installed version.
    assert_eq!(report.updates_applied, updates.len() as u64);
    assert_eq!(
        report.consistency_violations, 0,
        "snapshot isolation broken"
    );
    assert!(report.queries_run > 0, "no query ever completed");
    assert!(report.batches_applied > 0);

    // End-to-end update latency is reported for every single update.
    assert_eq!(report.update_e2e.count, updates.len() as u64);
    assert!(report.update_e2e.max > Duration::ZERO);
    assert!(report.update_e2e.p50 <= report.update_e2e.max);

    // The final state equals a sequential replay of the same stream:
    // batching + net-effect coalescing must not change semantics.
    // (Concurrent producers interleave halves, but the §7.3 stream
    // touches each edge once, so the final state is order-independent.)
    let mut inserts = 0i64;
    let mut deletes = 0i64;
    for u in &updates {
        if u.is_insert() {
            inserts += 1;
        } else {
            deletes += 1;
        }
    }
    let expect = initial_edges as i64 + 2 * (inserts - deletes);
    assert_eq!(vg.acquire().num_edges() as i64, expect);
    vg.acquire().check_invariants();
}

/// Old snapshots must survive the engine rewriting the graph under
/// them (the paper's `acquire` guarantee, exercised through the
/// engine's writer rather than direct calls).
#[test]
fn pre_engine_snapshot_is_isolated_from_ingestion() {
    let (vg, updates) = workload(1_000);
    let before = vg.acquire();
    let edges_before = before.num_edges();

    let engine = StreamEngine::builder(vg.clone()).start();
    let h = engine.handle();
    h.push_all(&updates).unwrap();
    drop(h);
    let report = engine.finish();

    assert_eq!(report.updates_applied, 1_000);
    assert_eq!(before.num_edges(), edges_before, "old snapshot mutated");
    before.check_invariants();
    assert_ne!(vg.acquire().num_edges(), edges_before);
}

/// Backpressure: a channel smaller than the stream forces producers to
/// block, and nothing is lost.
#[test]
fn bounded_channel_backpressure_loses_nothing() {
    let (vg, updates) = workload(2_000);
    let engine = StreamEngine::builder(vg)
        .policy(BatchPolicy {
            max_batch: 64,
            max_linger: Duration::from_micros(200),
            channel_capacity: 8, // far smaller than the stream
        })
        .start();

    let producers: Vec<_> = updates
        .chunks(updates.len() / 3 + 1)
        .map(|chunk| {
            let handle = engine.handle();
            let chunk = chunk.to_vec();
            std::thread::spawn(move || handle.push_all(&chunk).unwrap())
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.updates_applied, 2_000);
    assert_eq!(report.update_e2e.count, 2_000);
}

/// Torn-repair freedom for standing queries: a reader that observes a
/// standing result for version `v` must find the engine's installed
/// version already at `v` or later — repaired results may lag the
/// writer but can never get ahead of an install — and per-handle
/// result versions never go backwards. Exercised under concurrent
/// producers and spinning readers, then the final published results
/// are checked against from-scratch recomputation.
#[test]
fn standing_results_never_outrun_installed_versions() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (vg, updates) = workload(4_000);
    let engine = StreamEngine::builder(vg.clone())
        .policy(BatchPolicy {
            max_batch: 128,
            max_linger: Duration::from_micros(200),
            channel_capacity: 1024,
        })
        .register_standing(stream::standing::connected_components())
        .register_standing(stream::standing::bfs_from(0))
        .start();

    let handles = engine.standing_handles().to_vec();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = vec![0u64; handles.len()];
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for (i, h) in handles.iter().enumerate() {
                        // Read the result FIRST, the counter second:
                        // the invariant is that the result can only
                        // lag the counter, never lead it.
                        let r = h.read();
                        let installed = engine.installed_version();
                        assert!(
                            r.version <= installed,
                            "torn repair on {}: result v{} but installed v{}",
                            h.name(),
                            r.version,
                            installed
                        );
                        assert!(
                            r.version >= last[i],
                            "{} result went backwards: v{} after v{}",
                            h.name(),
                            r.version,
                            last[i]
                        );
                        last[i] = r.version;
                        reads += 1;
                    }
                }
                assert!(reads > 0, "reader never completed a round");
            });
        }
        let mid = updates.len() / 2;
        let producers: Vec<_> = [&updates[..mid], &updates[mid..]]
            .into_iter()
            .map(|half| {
                let h = engine.handle();
                let half = half.to_vec();
                s.spawn(move || h.push_all(&half).expect("engine closed early"))
            })
            .collect();
        for p in producers {
            p.join().expect("producer panicked");
        }
        // Let the writer drain its last lingering batches while the
        // readers keep hammering the invariant, then release them.
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Release);
    });

    let report = engine.finish();
    assert!(report.standing_repairs > 0, "repairer never ran");
    assert!(report.batches_applied > 0);

    // After the drain the final published results reflect the last
    // installed version exactly, and match from-scratch recomputation.
    let g = vg.acquire();
    let cc = handles[0].read();
    assert_eq!(cc.version, report.batches_applied);
    assert_eq!(*cc.values, algorithms::connected_components(&*g));
    let bfs = handles[1].read();
    assert_eq!(bfs.version, report.batches_applied);
    assert_eq!(*bfs.values, algorithms::bfs(&*g, 0).dist);
}

/// Standing cc that takes its time: the first repair waits on `gate`
/// (so the test decides when repair may start), and every repair
/// sleeps 20 ms before repairing for real.
struct SlowCc {
    inner: stream::standing::StandingCc,
    gate: Option<std::sync::mpsc::Receiver<()>>,
}

impl StandingAnalytic<CompressedEdges> for SlowCc {
    fn name(&self) -> &'static str {
        "slow-cc"
    }

    fn init(&mut self, graph: &Graph<CompressedEdges>) -> Arc<Vec<u32>> {
        self.inner.init(graph)
    }

    fn repair(
        &mut self,
        diff: &aspen::GraphDiff,
        graph: &Graph<CompressedEdges>,
    ) -> (Arc<Vec<u32>>, algorithms::RepairStats) {
        if let Some(gate) = self.gate.take() {
            // Err only if the test already dropped its sender.
            let _ = gate.recv();
        }
        std::thread::sleep(Duration::from_millis(20));
        self.inner.repair(diff, graph)
    }

    fn oracle(&self, graph: &Graph<CompressedEdges>) -> Vec<u32> {
        self.inner.oracle(graph)
    }
}

/// A slow standing analytic must not slow ingestion: the writer keeps
/// installing while the repair lags behind, the repairer catches up by
/// skipping to the newest version (fewer rounds than batches), result
/// versions never go backwards, and shutdown drains the repairer to
/// the final version.
#[test]
fn slow_standing_repair_does_not_hold_up_installs() {
    let (vg, updates) = workload(2_000);
    let (open_gate, gate) = std::sync::mpsc::channel();
    let engine = StreamEngine::builder(vg.clone())
        .policy(BatchPolicy {
            max_batch: 64,
            max_linger: Duration::from_micros(200),
            channel_capacity: 1024,
        })
        .register_standing(SlowCc {
            inner: stream::standing::connected_components(),
            gate: Some(gate),
        })
        .start();
    let cc = engine.standing("slow-cc").expect("registered");
    let producer = {
        let h = engine.handle();
        std::thread::spawn(move || h.push_all(&updates).expect("engine closed early"))
    };

    let mut last = 0;
    let mut read = || {
        // Result first, counter second (see the torn-repair test).
        let r = cc.read();
        let installed = engine.installed_version();
        assert!(
            r.version <= installed,
            "torn repair: v{} > v{installed}",
            r.version
        );
        assert!(
            r.version >= last,
            "went backwards: v{} after v{last}",
            r.version
        );
        last = r.version;
        (r.version, installed)
    };
    // While the first repair is held at the gate, the writer must keep
    // installing. Were repair on the install path, the counter would
    // stop one version past the result.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (version, installed) = read();
        if installed >= version + 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "installs stalled behind the standing repair at v{installed}"
        );
        std::thread::yield_now();
    }
    open_gate.send(()).expect("repairer holds the gate");
    while !producer.is_finished() {
        read();
        std::thread::yield_now();
    }
    producer.join().expect("producer panicked");
    let report = engine.finish();

    assert_eq!(report.updates_applied, 2_000);
    let rounds = report.standing_diff.count;
    assert!(
        rounds < report.batches_applied,
        "{rounds} rounds for {} batches: the repairer never skipped ahead",
        report.batches_applied
    );
    let r = cc.read();
    assert_eq!(r.version, report.batches_applied);
    assert_eq!(*r.values, algorithms::connected_components(&*vg.acquire()));
}

/// A max-linger flush must make a lone update visible without waiting
/// for a full batch.
#[test]
fn linger_flushes_partial_batches() {
    let (vg, _) = workload(100);
    let engine = StreamEngine::builder(vg.clone())
        .policy(BatchPolicy {
            max_batch: 1_000_000, // size-based flush unreachable
            max_linger: Duration::from_millis(1),
            channel_capacity: 16,
        })
        .start();
    let h = engine.handle();
    h.push(Update::Insert(0, 9_999)).unwrap();
    // Poll for visibility while the engine is still running — only the
    // linger timer can have flushed.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if vg.acquire().contains_edge(0, 9_999) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "update never became visible via linger flush"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(h);
    engine.finish();
}
