//! Property tests for the metrics registry under concurrency: with
//! recorder threads hammering counters and histograms while other
//! threads snapshot, no snapshot may ever tear (show a value nobody
//! wrote), regress (counters are monotone across snapshots), or lose
//! counts (the post-join snapshot is exact).

use obs::Registry;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_record_and_snapshot_never_tears(
        threads in 2usize..5,
        per_thread in 1u64..2_000,
    ) {
        let reg = Arc::new(Registry::new());
        let ops = reg.counter("test.ops");
        let lat = reg.histogram("test.lat");
        let stop = Arc::new(AtomicBool::new(false));

        // A concurrent snapshotter: every observation must be
        // self-consistent and monotone vs the previous one.
        let snapshotter = {
            let reg = reg.clone();
            let stop = stop.clone();
            let bound = threads as u64 * per_thread;
            std::thread::spawn(move || {
                let mut last_ops = 0u64;
                let mut last_lat = 0u64;
                let mut rounds = 0u64;
                // Snapshot first, check `stop` after: at least one round
                // runs however the scheduler orders this thread against
                // the recorders.
                loop {
                    let snap = reg.snapshot();
                    let ops = snap.counter("test.ops").expect("counter registered");
                    let h = snap.histogram("test.lat").expect("histogram registered");
                    assert!(ops >= last_ops, "counter went backwards: {last_ops} -> {ops}");
                    assert!(h.count() >= last_lat, "histogram count went backwards");
                    assert!(ops <= bound, "counter overshot: {ops} > {bound}");
                    assert!(h.count() <= bound, "histogram overshot");
                    // Bucket sum can trail `count` (relaxed reads land
                    // in either order) but never exceeds the writes
                    // actually issued.
                    let bucket_sum: u64 = h.buckets().iter().sum();
                    assert!(bucket_sum <= bound, "phantom bucket increments");
                    last_ops = ops;
                    last_lat = h.count();
                    rounds += 1;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                rounds
            })
        };

        let recorders: Vec<_> = (0..threads)
            .map(|t| {
                let ops = ops.clone();
                let lat = lat.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        ops.inc();
                        lat.record(Duration::from_nanos((t as u64) << 20 | i));
                    }
                })
            })
            .collect();
        for r in recorders {
            r.join().expect("recorder panicked");
        }
        stop.store(true, Ordering::Release);
        let rounds = snapshotter.join().expect("snapshotter panicked");
        prop_assert!(rounds > 0, "snapshotter never ran");

        // Quiescent: the final snapshot is exact — nothing lost.
        let total = threads as u64 * per_thread;
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("test.ops"), Some(total));
        let h = snap.histogram("test.lat").expect("histogram registered");
        prop_assert_eq!(h.count(), total);
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), total);
    }

    #[test]
    fn concurrent_registration_yields_one_shared_metric(
        threads in 2usize..6,
        adds in 1u64..500,
    ) {
        let reg = Arc::new(Registry::new());
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    // Every thread registers the same name: all must
                    // resolve to the same underlying counter.
                    let c = reg.counter("shared.ops");
                    for _ in 0..adds {
                        c.inc();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked");
        }
        prop_assert_eq!(
            reg.snapshot().counter("shared.ops"),
            Some(threads as u64 * adds)
        );
        prop_assert_eq!(reg.names().len(), 1);
    }
}
