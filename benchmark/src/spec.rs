//! What the benchmark measures: the four workloads with their frozen
//! sizes and rates, and the metric names, units and directions. The
//! names here and in `../BENCHMARK.json` must agree (a test pins it);
//! `BENCHMARK.json` also holds each end-to-end metric's bound.

/// Which engine a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// One `StreamEngine` over one `VersionedGraph`.
    Unsharded,
    /// `ShardedEngine` behind a 2-shard hash `ShardRouter`: the fewest
    /// shards that have a router, a barrier and a collector to measure.
    /// On the sandbox both shard writers share the engine's one CPU.
    Sharded2,
}

/// The update mix of a workload's stream (probes ride on top of both,
/// see `gen`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 90 % inserts of fresh rMAT edges, 10 % deletes of earlier
    /// inserts — the paper's §7.3 stream.
    Paper,
    /// Sliding window: every step inserts the next rMAT edge and
    /// deletes the one `window` steps older, so the graph's size is
    /// steady and `difference` runs as often as `union`.
    Window { window: u64 },
}

/// What the query client does beside the update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// One BFS from the hub every `every_ms`, on a schedule.
    PacedBfs { every_ms: u64 },
    /// Back to back, alternating BFS from the hub and connected
    /// components: queries run flat out.
    ClosedLoop,
}

/// One workload: inputs, engine configuration and the frozen load.
/// Sizes and rates never scale at run time; only `--seconds` sets the
/// open-loop phase's length.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// rMAT scale of the initial graph (`2^scale` vertex ids).
    pub scale: u32,
    /// Target average directed degree of the initial graph.
    pub avg_degree: u32,
    /// rMAT seed of the initial graph: the one `crates/bench` gives
    /// the stand-in dataset of that scale and degree.
    pub dataset_seed: u64,
    pub mix: Mix,
    pub engine: EngineKind,
    /// WAL on (`StdIo`, `FsyncPolicy::Always`, checkpoint every 64
    /// batches) in a fresh directory under `benchmark/target/`.
    pub durable: bool,
    /// Standing `cc` and `bfs_from(hub)` registered with the engine.
    pub standing: bool,
    /// Updates pushed closed-loop in the saturation phase. A multiple
    /// of 128, so that every eighth of it ends on a probe insert.
    pub n_sat: usize,
    /// Open-loop offered rate in updates per second: ≈ 40 % of this
    /// box's measured saturation rate, one significant figure (README,
    /// "Calibration").
    pub rate: u64,
    pub query: QueryMode,
}

/// Seeds of the `Twitter-sim` and `soc-LJ-sim` stand-ins in
/// `crates/bench/src/datasets.rs`.
const TWITTER_SIM: u64 = 0xC7;
const SOC_LJ_SIM: u64 = 0xA5;

/// The streams of `steady-ingest`, `query-heavy` and `sharded-2` are
/// one stream family over one graph; only split points, rates and the
/// engine differ.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady-ingest",
        why: "insert-heavy stream at a moderate rate, rare queries: front door, coalesce and insert_edges do nearly all the work",
        scale: 16,
        avg_degree: 58,
        dataset_seed: TWITTER_SIM,
        mix: Mix::Paper,
        engine: EngineKind::Unsharded,
        durable: false,
        standing: false,
        n_sat: 640_000,
        rate: 30_000,
        query: QueryMode::PacedBfs { every_ms: 500 },
    },
    Workload {
        name: "query-heavy",
        why: "same graph and mix at a trickle rate beside flat-out BFS/CC: flat snapshot, chunk decode and edgeMap dominate",
        scale: 16,
        avg_degree: 58,
        dataset_seed: TWITTER_SIM,
        mix: Mix::Paper,
        engine: EngineKind::Unsharded,
        durable: false,
        standing: false,
        n_sat: 320_000,
        rate: 5_000,
        query: QueryMode::ClosedLoop,
    },
    Workload {
        name: "durable-standing",
        why: "50/50 sliding window with WAL fsync, checkpoints and standing cc+bfs: difference, diff and repair on the install path",
        scale: 16,
        avg_degree: 18,
        dataset_seed: SOC_LJ_SIM,
        mix: Mix::Window { window: 200_000 },
        engine: EngineKind::Unsharded,
        durable: true,
        standing: true,
        n_sat: 192_000,
        rate: 10_000,
        query: QueryMode::PacedBfs { every_ms: 500 },
    },
    Workload {
        name: "sharded-2",
        why: "steady-ingest's own stream through a 2-shard router: linger, per-arc messages, epoch barrier and cut collector",
        scale: 16,
        avg_degree: 58,
        dataset_seed: TWITTER_SIM,
        mix: Mix::Paper,
        engine: EngineKind::Sharded2,
        durable: false,
        standing: false,
        n_sat: 384_000,
        rate: 20_000,
        query: QueryMode::PacedBfs { every_ms: 1_000 },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The smoke tier: the same phases and checks on a graph and a
    /// stream small enough for `cargo test`. Its numbers mean nothing.
    pub fn quick(mut self) -> Workload {
        self.scale = 10;
        self.avg_degree = self.avg_degree.min(16);
        self.n_sat = 4_096;
        self.rate = self.rate.min(4_000);
        if let Mix::Window { .. } = self.mix {
            self.mix = Mix::Window { window: 1_000 };
        }
        if let QueryMode::PacedBfs { .. } = self.query {
            self.query = QueryMode::PacedBfs { every_ms: 50 };
        }
        self
    }

    /// Updates the open-loop phase sends in `seconds`.
    pub fn n_open(&self, seconds: f64) -> usize {
        (self.rate as f64 * seconds).round() as usize
    }
}

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the engine sees. Always measured untraced.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ingest_updates_per_s", "upd/s"),
    lower("visible_p50_ms", "ms"),
    lower("query_p50_ms", "ms"),
    lower("bytes_per_edge", "B/edge"),
];

/// Single layers, measured by the traced run and its layers pass.
/// Counts have no preferred direction in themselves; they are listed
/// with the direction in which the end-to-end metric they feed improves.
pub const PER_LAYER: &[MetricDef] = &[
    lower("encoder.varint.encode_ns_per_edge", "ns"),
    lower("encoder.varint.decode_ns_per_edge", "ns"),
    lower("ptree.build_ns_per_key", "ns"),
    lower("ptree.multi_insert_ns_per_key.b2k", "ns"),
    lower("ptree.multi_insert_ns_per_key.b100k", "ns"),
    lower("ptree.find_ns", "ns"),
    lower("ctree.build_ns_per_edge", "ns"),
    lower("ctree.union_ns_per_edge", "ns"),
    lower("ctree.difference_ns_per_edge", "ns"),
    lower("ctree.scan_ns_per_edge", "ns"),
    lower("ctree.contains_ns", "ns"),
    lower("ctree.bytes_per_edge", "B/edge"),
    lower("core.insert_edges.us_per_edge.b2k", "us"),
    lower("core.insert_edges.us_per_edge.b100k", "us"),
    lower("core.delete_edges.us_per_edge.b2k", "us"),
    lower("core.symmetrize_ns_per_edge", "ns"),
    lower("core.acquire_ns", "ns"),
    lower("core.install_us", "us"),
    lower("core.flat_snapshot_ms", "ms"),
    lower("core.edge_map.sparse_ns_per_edge", "ns"),
    lower("core.edge_map.dense_ns_per_edge", "ns"),
    lower("core.diff_graphs_us.b2k", "us"),
    lower("core.snapshot.write_ms", "ms"),
    lower("core.snapshot.read_ms", "ms"),
    lower("algorithms.bfs_ms", "ms"),
    lower("algorithms.cc_ms", "ms"),
    lower("algorithms.delta_cc.repair_us.b2k", "us"),
    lower("algorithms.delta_bfs.repair_us.b2k", "us"),
    lower("algorithms.delta_cc.full_recompute_share", "fraction"),
    lower("stream.push_ns", "ns"),
    lower("stream.push_blocked_share", "fraction"),
    lower("stream.batches", "count"),
    higher("stream.mean_batch", "upd"),
    lower("stream.apply_mean_us", "us"),
    lower("stream.coalesce_ratio", "fraction"),
    lower("stream.replay_us_per_update", "us"),
    lower("stream.overhead_ratio", "ratio"),
    lower("stream.visible_minus_apply_ms", "ms"),
    lower("stream.visible_p99_ms", "ms"),
    lower("stream.backlog_ratio", "ratio"),
    lower("stream.query_sat_mean_ms", "ms"),
    lower("stream.close_ms", "ms"),
    lower("stream.late_share", "fraction"),
    lower("stream.gen_late_share", "fraction"),
    lower("stream.wal.append_us_per_batch.b2k", "us"),
    lower("stream.wal.fsync_mean_us", "us"),
    lower("stream.wal.fsyncs", "count"),
    lower("stream.wal.bytes_per_update", "B/upd"),
    lower("stream.wal.checkpoint_ms", "ms"),
    lower("stream.wal.checkpoint_bytes", "B"),
    lower("stream.wal.recover_ms", "ms"),
    lower("stream.wal.replayed_frames", "count"),
    lower("stream.standing.diff_mean_us", "us"),
    lower("stream.standing.repair_mean_us", "us"),
    lower("stream.standing.full_recompute_share", "fraction"),
    lower("stream.standing.read_ns", "ns"),
    lower("stream.sharded.epochs", "count"),
    lower("stream.sharded.cross_shard_share", "fraction"),
    lower("stream.sharded.arcs_per_update", "ratio"),
    lower("stream.sharded.shard_skew", "ratio"),
    lower("stream.sharded.pin_ns", "ns"),
    lower("runtime.fork_ns", "ns"),
    lower("runtime.forks", "count"),
    lower("runtime.steals", "count"),
    lower("runtime.sleeps", "count"),
    lower("bench.trace_overhead_share", "fraction"),
    lower("bench.steal_share", "fraction"),
    lower("bench.query_busy_share", "fraction"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes_keep_probe_alignment() {
        for w in WORKLOADS.iter().flat_map(|w| [*w, w.quick()]) {
            assert_eq!(w.n_sat % 128, 0, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
