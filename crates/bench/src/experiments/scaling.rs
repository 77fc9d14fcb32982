//! Thread-scaling experiment: batch inserts and graph kernels at
//! 1/2/4/8 workers.
//!
//! The paper's self-relative speedups (Tables 3, 4 and 8 report 1
//! thread vs 72 cores) are the evidence that its tree operations run
//! with the claimed parallel depth. This experiment is the reduced
//! version: one rMAT stand-in, pools of 1/2/4/8 work-stealing workers
//! (via [`parlib::with_threads`]), and the two op families whose
//! scalability the system lives on —
//!
//! * **`insert_edges`** with a large batch: the functional
//!   `MultiInsert` path (`Build` + `Union`), the writer's hot loop;
//! * **BFS and connected components** on a snapshot: the
//!   frontier-parallel kernels queries run concurrently.
//!
//! Speedups are reported relative to the 1-thread pool. On a machine
//! with fewer physical cores than a pool has workers the extra
//! workers timeshare and the speedup column flattens accordingly —
//! the experiment prints the machine parallelism so reports stay
//! interpretable.

use crate::datasets::{default_b, Dataset};
use crate::tables::Table;
use aspen::{symmetrize, CompressedEdges, FlatSnapshot, Graph, GraphView, ShardRouter};
use graphgen::{build_update_stream, Rmat};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::{BatchPolicy, ShardedEngine, StreamEngine};

/// Pool widths the experiment sweeps.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Shard counts the sharded-engine axis sweeps.
const SHARDS: &[usize] = &[1, 2, 4, 8];

#[derive(Clone, Copy)]
struct OpTimes {
    fork_ns: f64,
    insert: f64,
    bfs: f64,
    cc: f64,
}

/// Wall-clock cost of one `rayon::join`, measured on the *current*
/// pool by timing a perfect binary join tree with trivial leaves.
///
/// This is the per-fork constant the grain thresholds across the
/// workspace (`SEQ_BUILD`, `SEQ_BULK`, `SEQ_SETOP`, parlib block
/// sizes) amortize against; the runtime book (`docs/RUNTIME.md`)
/// records the measured values. At 1 worker the pool inlines both
/// closures, so the 1-worker figure is the sequential-fallback cost;
/// at ≥2 workers the figure includes all deque and latch traffic,
/// averaged over the tree (most forks are pushed-then-popped-back
/// un-stolen, a minority are genuine steals).
fn fork_overhead_ns(depth: u32, reps: usize) -> f64 {
    fn tree(d: u32) -> u64 {
        if d == 0 {
            return 1;
        }
        let (a, b) = rayon::join(|| tree(d - 1), || tree(d - 1));
        a + b
    }
    let joins = (1u64 << depth) - 1;
    let t = crate::median_time(reps, || {
        std::hint::black_box(tree(depth));
    });
    t / joins as f64 * 1e9
}

fn measure(g: &Graph<CompressedEdges>, batch: &[(u32, u32)], hub: u32, reps: usize) -> OpTimes {
    let fork_ns = fork_overhead_ns(14, reps);
    let insert = crate::median_time(reps, || {
        std::hint::black_box(g.insert_edges(batch));
    });
    let bfs = crate::median_time(reps, || {
        std::hint::black_box(algorithms::bfs(g, hub));
    });
    let cc = crate::median_time(reps, || {
        std::hint::black_box(algorithms::connected_components(g));
    });
    OpTimes {
        fork_ns,
        insert,
        bfs,
        cc,
    }
}

/// Renders the thread-scaling experiment on `d`.
pub fn run_scaling(d: &Dataset, quick: bool) -> Table {
    let edges = d.edges();
    let g = Graph::from_edges(&edges, default_b());
    let hub = super::hub(&g);

    // A fresh batch of rMAT edges drawn past the base graph's stream
    // position, symmetrized like every update path in the workspace.
    // Large enough that `MultiInsert` dominates fork overhead (the
    // regime where Table 8 shows batching pays).
    let batch_target = if quick { 10_000 } else { 100_000 };
    let raw = Rmat::new(d.scale, d.seed ^ 0x5CA1E).edges(edges.len() as u64, batch_target / 2);
    let batch = symmetrize(&raw);

    let reps = if quick { 2 } else { 3 };
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut t = Table::new(
        &format!(
            "scaling: {} (|batch| = {}, machine parallelism = {machine})",
            d.name,
            batch.len()
        ),
        &[
            "threads",
            "fork ns",
            "insert",
            "ins x",
            "ins edges/s",
            "bfs",
            "bfs x",
            "cc",
            "cc x",
        ],
    );

    let mut base: Option<OpTimes> = None;
    for &threads in THREADS {
        let times = parlib::with_threads(threads, || measure(&g, &batch, hub, reps));
        let b = base.get_or_insert(times);
        t.row(&[
            threads.to_string(),
            format!("{:.0}", times.fork_ns),
            crate::fmt_secs(times.insert),
            format!("{:.2}x", b.insert / times.insert),
            crate::fmt_rate(batch.len() as f64 / times.insert),
            crate::fmt_secs(times.bfs),
            format!("{:.2}x", b.bfs / times.bfs),
            crate::fmt_secs(times.cc),
            format!("{:.2}x", b.cc / times.cc),
        ]);
        t.metric(&format!("t{threads}.fork_ns"), times.fork_ns);
        t.metric(&format!("t{threads}.insert_s"), times.insert);
        t.metric(
            &format!("t{threads}.insert_edges_per_s"),
            batch.len() as f64 / times.insert,
        );
        t.metric(&format!("t{threads}.bfs_s"), times.bfs);
        t.metric(&format!("t{threads}.cc_s"), times.cc);
    }
    t
}

/// One shard-count configuration's measurements.
struct ShardRun {
    wall: Duration,
    install_p50: Duration,
    e2e_p50: Duration,
    bfs: Duration,
    cc: Duration,
    cross_shard: u64,
    digest_ok: bool,
}

/// Analytics digests used to verify every configuration computes the
/// same logical graph.
struct Digests {
    num_edges: u64,
    cc: Vec<u32>,
    bfs_dist: Vec<u32>,
}

fn digests_of<G: GraphView>(g: &G, hub: u32) -> Digests {
    Digests {
        num_edges: g.num_edges(),
        cc: algorithms::connected_components(g),
        bfs_dist: algorithms::bfs(g, hub).dist,
    }
}

fn shard_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 2048,
        max_linger: Duration::from_millis(1),
        channel_capacity: 16 * 1024,
    }
}

/// Renders the sharded-engine scaling experiment on `d`: the same
/// mixed insert/delete stream pushed through the unsharded
/// [`StreamEngine`] (the baseline row) and through [`ShardedEngine`]s
/// of 1/2/4/8 hash-routed shards, reporting ingest throughput, install
/// and end-to-end latency, and query latency (`flat+bfs`: one flat
/// snapshot — merged from every shard on a cut — plus a BFS; `cc`:
/// connected components over that same snapshot) — with every
/// configuration's analytics digest-checked against the unsharded
/// result.
pub fn run_scaling_shards(d: &Dataset, quick: bool) -> Table {
    let edges = d.edges();
    let undirected = edges.len() / 2;
    let cap = if quick { 20_000 } else { 200_000 };
    let sample = (undirected / 10).clamp(100, cap);
    let setup = build_update_stream(&edges, sample, d.seed ^ 0x54A2D);
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Baseline: the unsharded engine. Its fully-drained graph is also
    // the oracle every sharded configuration is digest-checked against
    // (per-batch last-wins coalescing makes the final state equal to a
    // sequential replay, independent of batch boundaries).
    let vg = Arc::new(aspen::VersionedGraph::<CompressedEdges>::new(
        Graph::from_edges(&setup.initial_edges, default_b()),
    ));
    let engine = StreamEngine::builder(vg.clone())
        .policy(shard_policy())
        .start();
    let h = engine.handle();
    let wall = Instant::now();
    h.push_all(&setup.updates).expect("engine closed early");
    drop(h);
    let base_report = engine.finish();
    let base_wall = wall.elapsed();
    let oracle = vg.acquire();
    let hub = super::hub(&*oracle);
    let want = digests_of(&*oracle, hub);
    let t_bfs = Instant::now();
    let flat = FlatSnapshot::new(&oracle);
    std::hint::black_box(algorithms::bfs(&flat, hub));
    let base_bfs = t_bfs.elapsed();
    let t_cc = Instant::now();
    std::hint::black_box(algorithms::connected_components(&flat));
    let base_cc = t_cc.elapsed();

    let mut t = Table::new(
        &format!(
            "sharded scaling: {} (|updates| = {}, machine parallelism = {machine})",
            d.name,
            setup.updates.len()
        ),
        &[
            "config",
            "ingest",
            "upd/s",
            "x",
            "install p50",
            "e2e p50",
            "flat+bfs",
            "cc",
            "xshard",
            "digest",
        ],
    );
    let updates = setup.updates.len() as f64;
    t.row(&[
        "unsharded".into(),
        crate::fmt_secs(base_wall.as_secs_f64()),
        crate::fmt_rate(updates / base_wall.as_secs_f64()),
        "1.00x".into(),
        crate::fmt_secs(base_report.batch_apply.p50.as_secs_f64()),
        crate::fmt_secs(base_report.update_e2e.p50.as_secs_f64()),
        crate::fmt_secs(base_bfs.as_secs_f64()),
        crate::fmt_secs(base_cc.as_secs_f64()),
        "-".into(),
        "ok".into(),
    ]);
    t.metric("unsharded.ingest_s", base_wall.as_secs_f64());
    t.metric(
        "unsharded.ingest_updates_per_s",
        updates / base_wall.as_secs_f64(),
    );
    t.metric(
        "unsharded.install_p50_s",
        base_report.batch_apply.p50.as_secs_f64(),
    );
    t.metric(
        "unsharded.e2e_p50_s",
        base_report.update_e2e.p50.as_secs_f64(),
    );
    t.metric("unsharded.bfs_s", base_bfs.as_secs_f64());
    t.metric("unsharded.cc_s", base_cc.as_secs_f64());

    for &shards in SHARDS {
        let run = run_sharded(&setup.initial_edges, &setup.updates, shards, hub, &want);
        t.row(&[
            format!("{shards} shards"),
            crate::fmt_secs(run.wall.as_secs_f64()),
            crate::fmt_rate(updates / run.wall.as_secs_f64()),
            format!("{:.2}x", base_wall.as_secs_f64() / run.wall.as_secs_f64()),
            crate::fmt_secs(run.install_p50.as_secs_f64()),
            crate::fmt_secs(run.e2e_p50.as_secs_f64()),
            crate::fmt_secs(run.bfs.as_secs_f64()),
            crate::fmt_secs(run.cc.as_secs_f64()),
            run.cross_shard.to_string(),
            if run.digest_ok { "ok" } else { "MISMATCH" }.into(),
        ]);
        t.metric(&format!("shards{shards}.ingest_s"), run.wall.as_secs_f64());
        t.metric(
            &format!("shards{shards}.ingest_updates_per_s"),
            updates / run.wall.as_secs_f64(),
        );
        t.metric(
            &format!("shards{shards}.install_p50_s"),
            run.install_p50.as_secs_f64(),
        );
        t.metric(
            &format!("shards{shards}.e2e_p50_s"),
            run.e2e_p50.as_secs_f64(),
        );
        t.metric(&format!("shards{shards}.bfs_s"), run.bfs.as_secs_f64());
        t.metric(&format!("shards{shards}.cc_s"), run.cc.as_secs_f64());
        t.metric(
            &format!("shards{shards}.cross_shard_updates"),
            run.cross_shard as f64,
        );
        t.metric(
            &format!("shards{shards}.digest_ok"),
            if run.digest_ok { 1.0 } else { 0.0 },
        );
        assert!(
            run.digest_ok,
            "{shards}-shard analytics diverged from the unsharded oracle"
        );
    }
    t
}

fn run_sharded(
    initial: &[(u32, u32)],
    updates: &[graphgen::Update],
    shards: usize,
    hub: u32,
    want: &Digests,
) -> ShardRun {
    let engine = ShardedEngine::<CompressedEdges>::builder(ShardRouter::hash(shards))
        .initial_arcs(initial)
        .policy(shard_policy())
        .start();
    let h = engine.handle();
    let wall = Instant::now();
    h.push_all(updates).expect("sharded engine closed early");
    drop(h);
    let report = engine.finish();
    let wall = wall.elapsed();
    let cut = &report.final_cut;

    let t_bfs = Instant::now();
    let bfs_got = cut.bfs(hub);
    let bfs = t_bfs.elapsed();
    let t_cc = Instant::now();
    let cc_got = cut.connected_components();
    let cc = t_cc.elapsed();
    let digest_ok =
        cut.num_edges() == want.num_edges && cc_got == want.cc && bfs_got.dist == want.bfs_dist;

    // Aggregate install/e2e latency across shards: the worst shard's
    // median — the shard a consistent cut waits for.
    let install_p50 = report
        .shards
        .iter()
        .map(|r| r.batch_apply.p50)
        .max()
        .unwrap_or_default();
    let e2e_p50 = report
        .shards
        .iter()
        .map(|r| r.update_e2e.p50)
        .max()
        .unwrap_or_default();
    ShardRun {
        wall,
        install_p50,
        e2e_p50,
        bfs,
        cc,
        cross_shard: report.cross_shard_updates,
        digest_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn scaling_runs_on_tiny_dataset() {
        // Smoke: all four pool widths complete and produce rows.
        let t = run_scaling(&datasets::tiny(), true);
        assert_eq!(t.num_rows(), THREADS.len());
    }

    #[test]
    fn shard_scaling_runs_and_digests_agree() {
        let t = run_scaling_shards(&datasets::tiny(), true);
        // One baseline row plus one per shard count; run_scaling_shards
        // panics internally on any digest mismatch.
        assert_eq!(t.num_rows(), 1 + SHARDS.len());
        let metrics = t.metrics();
        for shards in SHARDS {
            let name = format!("shards{shards}.digest_ok");
            let ok = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            assert_eq!(ok, 1.0, "{name}");
        }
    }
}
