//! The layers pass of a traced run: every layer's public functions,
//! timed from outside on the workload's own graph with batches cut
//! from the workload's own stream, plus the writer's pipeline rebuilt
//! from public calls (`replay`). Layer = crate or module name.

use crate::gen::Generator;
use crate::run::Metrics;
use crate::spec::Workload;
use crate::stats::median;
use crate::target::{durability, ratio, Edges, TempDir};
use crate::trace::Trace;
use algorithms::{DeltaBfs, DeltaCc};
use aspen::{
    diff_graphs, edge_map_directed, read_snapshot, symmetrize, ChunkParams, Direction,
    FlatSnapshot, Graph, SnapshotWriter, VersionedGraph, VertexSubset,
};
use ctree::CTree;
use graphgen::Update;
use ptree::Tree;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::wal::{write_checkpoint, StdIo, WalWriter};
use stream::FsyncPolicy;

/// Small batch: what a lingering writer applies. Large batch: the size
/// at which the ROADMAP quotes raw `insert_edges`.
const SMALL: usize = 2_000;
const LARGE: usize = 100_000;
/// Time one measurement may take; with ~40 of them the pass stays
/// within a few seconds.
const BUDGET: Duration = Duration::from_millis(60);

/// Median seconds per call of `f` over as many calls as fit in
/// [`BUDGET`] (at least 3, or 1 for calls that alone exceed it).
fn time(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 1_000 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        let spent = begin.elapsed();
        if spent > BUDGET && (samples.len() >= 3 || spent > 3 * BUDGET) {
            break;
        }
    }
    median(samples)
}

/// Seconds per call of a call too short to time alone.
fn time_each(reps: u32, mut f: impl FnMut(u32)) -> f64 {
    time(|| {
        for i in 0..reps {
            f(i);
        }
    }) / f64::from(reps)
}

/// Undirected endpoint pairs of the first `n` mix inserts (`want_insert`)
/// or deletes of `stream`, probes left out.
fn endpoints(gen: &Generator, stream: &[Update], want_insert: bool, n: usize) -> Vec<(u32, u32)> {
    stream
        .iter()
        .filter(|u| u.is_insert() == want_insert && u.endpoints().0 < gen.probe_base())
        .map(|u| u.endpoints())
        .take(n)
        .collect()
}

/// Cost of one `rayon::join` on the global pool: a binary join tree
/// with trivial leaves, as `repro scaling` measures it.
fn fork_ns() -> f64 {
    fn tree(d: u32) -> u64 {
        if d == 0 {
            return 1;
        }
        let (a, b) = rayon::join(|| tree(d - 1), || tree(d - 1));
        a + b
    }
    const DEPTH: u32 = 12;
    time(|| {
        black_box(tree(DEPTH));
    }) / ((1u64 << DEPTH) - 1) as f64
        * 1e9
}

/// What the layers pass works on.
pub struct Inputs<'a> {
    pub workload: &'a Workload,
    pub gen: &'a Generator,
    /// The workload's initial graph.
    pub graph: Graph<Edges>,
    pub hub: u32,
    /// The size of batch the engine formed under saturation.
    pub mean_batch: usize,
}

/// Runs every microbenchmark and the replay; writes their metrics
/// into `out` and the replay's spans into `trace`. Returns the
/// replay's cost in µs per update.
pub fn measure(inp: &Inputs<'_>, out: &mut Metrics, trace: &mut Trace) -> f64 {
    let g = &inp.graph;
    let gen = inp.gen;
    // Enough of the stream to cut a large batch of inserts from either
    // mix (the window mix is half deletes, and an eighth is probes).
    let stream = gen.stream(0, LARGE * 5 / 2);
    let ins_large = endpoints(gen, &stream, true, LARGE);
    let ins_small = &ins_large[..SMALL.min(ins_large.len())];
    let del_small = endpoints(gen, &stream, false, SMALL);

    // encoder, ctree: the hub's neighbor list, the high-degree case.
    let hub_tree: CTree = g
        .find_vertex(inp.hub)
        .expect("the hub is a vertex")
        .edges
        .ctree()
        .clone();
    let hub_list = hub_tree.to_vec();
    let per_hub_edge = |secs: f64| secs / hub_list.len() as f64 * 1e9;
    let encoded = encoder::encode_sorted(&hub_list);
    out.set(
        "encoder.varint.encode_ns_per_edge",
        per_hub_edge(time(|| {
            black_box(encoder::encode_sorted(black_box(&hub_list)));
        })),
    );
    out.set(
        "encoder.varint.decode_ns_per_edge",
        per_hub_edge(time(|| {
            black_box(encoder::decode_sorted(black_box(&encoded), hub_list.len()));
        })),
    );
    let params = ChunkParams::default();
    out.set(
        "ctree.build_ns_per_edge",
        per_hub_edge(time(|| {
            black_box(CTree::<ctree::DefaultCodec>::from_sorted(&hub_list, params));
        })),
    );
    // The streaming case: a few new ids into a long list.
    let few: Vec<u32> = (0..8).map(|i| gen.probe_base() + 2 * i).collect();
    let few_tree: CTree = CTree::from_sorted(&few, params);
    let grown = hub_tree.union(&few_tree);
    out.set(
        "ctree.union_ns_per_edge",
        time(|| {
            black_box(hub_tree.union(&few_tree));
        }) / few.len() as f64
            * 1e9,
    );
    out.set(
        "ctree.difference_ns_per_edge",
        time(|| {
            black_box(grown.difference(&few_tree));
        }) / few.len() as f64
            * 1e9,
    );
    out.set(
        "ctree.scan_ns_per_edge",
        per_hub_edge(time(|| {
            let mut sum = 0u64;
            hub_tree.for_each(|v| sum += u64::from(v));
            black_box(sum);
        })),
    );
    out.set(
        "ctree.contains_ns",
        time_each(1_000, |i| {
            black_box(hub_tree.contains(hub_list[i as usize % hub_list.len()]));
        }) * 1e9,
    );
    out.set(
        "ctree.bytes_per_edge",
        hub_tree.memory_bytes() as f64 / hub_list.len() as f64,
    );

    // ptree: a tree the size of the vertex tree, batches of the
    // sources the stream's batches touch.
    let ids = g.vertex_ids();
    let id_tree = Tree::<u32>::from_sorted(&ids);
    out.set(
        "ptree.build_ns_per_key",
        time(|| {
            black_box(Tree::<u32>::from_sorted(&ids));
        }) / ids.len() as f64
            * 1e9,
    );
    for (name, batch) in [
        ("ptree.multi_insert_ns_per_key.b2k", ins_small),
        ("ptree.multi_insert_ns_per_key.b100k", &ins_large[..]),
    ] {
        let keys: Vec<u32> = batch.iter().map(|&(u, _)| u).collect();
        out.set(
            name,
            time(|| {
                black_box(id_tree.multi_insert(keys.clone(), |_, new| new));
            }) / keys.len() as f64
                * 1e9,
        );
    }
    out.set(
        "ptree.find_ns",
        time_each(1_000, |i| {
            black_box(id_tree.find(&ids[i as usize * 7919 % ids.len()]));
        }) * 1e9,
    );

    // core: batch updates, versioning, flat snapshot, edgeMap, diff,
    // snapshot serialization.
    let sym_small = symmetrize(ins_small);
    let sym_large = symmetrize(&ins_large);
    let per_edge_us = |secs: f64, n: usize| secs / n as f64 * 1e6;
    out.set(
        "core.insert_edges.us_per_edge.b2k",
        per_edge_us(
            time(|| {
                black_box(g.insert_edges(&sym_small));
            }),
            ins_small.len(),
        ),
    );
    out.set(
        "core.insert_edges.us_per_edge.b100k",
        per_edge_us(
            time(|| {
                black_box(g.insert_edges(&sym_large));
            }),
            ins_large.len(),
        ),
    );
    // Deleting edges that are there: insert the batch first.
    let with_small = g.insert_edges(&sym_small);
    out.set(
        "core.delete_edges.us_per_edge.b2k",
        per_edge_us(
            time(|| {
                black_box(with_small.delete_edges(&sym_small));
            }),
            ins_small.len(),
        ),
    );
    out.set(
        "core.symmetrize_ns_per_edge",
        time(|| {
            black_box(symmetrize(black_box(ins_small)));
        }) / ins_small.len() as f64
            * 1e9,
    );
    let vg = VersionedGraph::new(g.clone());
    out.set(
        "core.acquire_ns",
        time_each(1_000, |_| {
            black_box(vg.acquire());
        }) * 1e9,
    );
    out.set(
        "core.install_us",
        time_each(100, |_| vg.set(black_box(g.clone()))) * 1e6,
    );
    out.set(
        "core.flat_snapshot_ms",
        time(|| {
            black_box(FlatSnapshot::new(g));
        }) * 1e3,
    );
    let flat = FlatSnapshot::new(g);
    let n = flat.len();
    let some: Vec<u32> = ids.iter().copied().step_by(64).collect();
    let some_edges: usize = some.iter().map(|&v| flat.degree(v)).sum();
    let frontier = VertexSubset::sparse(n, some);
    out.set(
        "core.edge_map.sparse_ns_per_edge",
        time(|| {
            black_box(edge_map_directed(
                &flat,
                &frontier,
                |_, _| false,
                |_| true,
                Direction::ForceSparse,
            ));
        }) / some_edges.max(1) as f64
            * 1e9,
    );
    // A condition that never turns false makes the pull direction scan
    // every edge of the graph.
    out.set(
        "core.edge_map.dense_ns_per_edge",
        time(|| {
            black_box(edge_map_directed(
                &flat,
                &frontier,
                |_, _| false,
                |_| true,
                Direction::ForceDense,
            ));
        }) / g.num_edges().max(1) as f64
            * 1e9,
    );
    out.set(
        "core.diff_graphs_us.b2k",
        time(|| {
            black_box(diff_graphs(g, &with_small));
        }) * 1e6,
    );
    let write = || {
        let mut w = SnapshotWriter::<Edges>::new(g.config());
        w.add_graph(g);
        w.finish()
    };
    let bytes = write();
    out.set(
        "core.snapshot.write_ms",
        time(|| {
            black_box(write());
        }) * 1e3,
    );
    out.set(
        "core.snapshot.read_ms",
        time(|| {
            black_box(read_snapshot::<Edges>(&bytes).expect("own snapshot reads back"));
        }) * 1e3,
    );

    // algorithms: the two analytics of the query ops, and incremental
    // repair over consecutive small batches of the stream as it comes
    // (inserts and deletes mixed).
    out.set(
        "algorithms.bfs_ms",
        time(|| {
            black_box(algorithms::bfs(&flat, inp.hub));
        }) * 1e3,
    );
    out.set(
        "algorithms.cc_ms",
        time(|| {
            black_box(algorithms::connected_components(&flat));
        }) * 1e3,
    );
    let mut cc = DeltaCc::new(g);
    let mut bfs = DeltaBfs::new(g, inp.hub);
    let mut cur = g.clone();
    let (mut cc_us, mut bfs_us, mut full) = (Vec::new(), Vec::new(), 0u32);
    for batch in stream.chunks(SMALL).take(5) {
        let next = apply(&cur, batch);
        let diff = diff_graphs(&cur, &next);
        let t = Instant::now();
        full += u32::from(cc.apply_diff(&diff, &next).full_recompute);
        cc_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        bfs.apply_diff(&diff, &next);
        bfs_us.push(t.elapsed().as_secs_f64() * 1e6);
        cur = next;
    }
    out.set(
        "algorithms.delta_cc.full_recompute_share",
        f64::from(full) / cc_us.len() as f64,
    );
    out.set("algorithms.delta_cc.repair_us.b2k", median(cc_us));
    out.set("algorithms.delta_bfs.repair_us.b2k", median(bfs_us));

    out.set("runtime.fork_ns", fork_ns());

    // stream.wal, called directly: an append that never syncs, and one
    // checkpoint of the initial graph.
    if inp.workload.durable {
        let dir = TempDir::new("wal-layers");
        let mut wal = WalWriter::open(
            Arc::new(StdIo),
            &dir.path(),
            FsyncPolicy::Interval(Duration::from_secs(3_600)),
            8 << 20,
            0,
        )
        .expect("open a write-ahead log under benchmark/target");
        let mut seq = 0;
        out.set(
            "stream.wal.append_us_per_batch.b2k",
            time(|| {
                seq += 1;
                black_box(wal.append_batch(seq, ins_small, &del_small))
                    .expect("append to the write-ahead log");
            }) * 1e6,
        );
        let mut ck_bytes = 0;
        out.set(
            "stream.wal.checkpoint_ms",
            time(|| {
                ck_bytes = write_checkpoint(&StdIo, &dir.path(), seq, 0, g)
                    .expect("write a checkpoint under benchmark/target");
            }) * 1e3,
        );
        out.set("stream.wal.checkpoint_bytes", ck_bytes as f64);
    } else {
        out.set("stream.wal.append_us_per_batch.b2k", 0.0);
        out.set("stream.wal.checkpoint_ms", 0.0);
        out.set("stream.wal.checkpoint_bytes", 0.0);
    }

    replay(inp, &stream, trace)
}

/// The endpoints of a batch's inserts and of its deletes. (No
/// coalescing: within one batch of this stream an insert and a delete
/// of the same edge are too rare to matter for timing.)
fn split(batch: &[Update]) -> [Vec<(u32, u32)>; 2] {
    let pick = |insert: bool| {
        batch
            .iter()
            .filter(|u| u.is_insert() == insert)
            .map(|u| u.endpoints())
            .collect()
    };
    [pick(true), pick(false)]
}

/// Applies a batch the way the writer does: inserts, then deletes,
/// both symmetrized.
fn apply(g: &Graph<Edges>, batch: &[Update]) -> Graph<Edges> {
    let [ins, del] = split(batch);
    g.insert_edges(&symmetrize(&ins))
        .delete_edges(&symmetrize(&del))
}

/// The writer's pipeline rebuilt from public calls, batch by batch at
/// the size the engine formed under saturation: symmetrize → [WAL
/// append + fsync] → insert/delete → install → [diff → repair]. What
/// the engine spends per update beyond this — channel, coalesce,
/// linger, bookkeeping — is `stream.overhead_ratio`. Returns µs per
/// update.
fn replay(inp: &Inputs<'_>, stream: &[Update], trace: &mut Trace) -> f64 {
    const MAX_TIME: Duration = Duration::from_millis(1_500);
    let w = inp.workload;
    let vg = VersionedGraph::new(inp.graph.clone());
    let dir = w.durable.then(|| TempDir::new("wal-replay"));
    let mut wal = dir.as_ref().map(|d| {
        let cfg = durability(d);
        WalWriter::open(cfg.io, &cfg.dir, cfg.fsync, cfg.segment_bytes, 0)
            .expect("open a write-ahead log under benchmark/target")
    });
    let mut standing = w
        .standing
        .then(|| (DeltaCc::new(&inp.graph), DeltaBfs::new(&inp.graph, inp.hub)));
    let begin = Instant::now();
    let (mut updates, mut busy) = (0usize, Duration::ZERO);
    for (seq, batch) in stream[..LARGE.min(stream.len())]
        .chunks(inp.mean_batch.max(1))
        .enumerate()
    {
        if begin.elapsed() > MAX_TIME {
            break;
        }
        let prev = vg.acquire();
        let first = Instant::now();
        let mut steps: Vec<(&'static str, Instant)> = Vec::new();
        let mut mark = |name| steps.push((name, Instant::now()));
        let [ins, del] = split(batch);
        let (sym_ins, sym_del) = (symmetrize(&ins), symmetrize(&del));
        mark("core.symmetrize");
        if let Some(wal) = wal.as_mut() {
            black_box(wal.append_batch(seq as u64 + 1, &ins, &del))
                .expect("append to the write-ahead log");
            mark("stream.wal.append");
        }
        let next = prev.insert_edges(&sym_ins);
        mark("core.insert_edges");
        let next = next.delete_edges(&sym_del);
        mark("core.delete_edges");
        vg.set(next);
        mark("core.install");
        if let Some((cc, bfs)) = standing.as_mut() {
            let new = vg.acquire();
            let diff = diff_graphs(&prev, &new);
            mark("core.diff_graphs");
            cc.apply_diff(&diff, &*new);
            mark("algorithms.delta_cc");
            bfs.apply_diff(&diff, &*new);
            mark("algorithms.delta_bfs");
        }
        let last = steps.last().map_or(first, |&(_, t)| t);
        let root = trace.root("replay.batch", first, last);
        let mut from = first;
        for (name, to) in steps {
            trace.child(root, name, from, to);
            from = to;
        }
        busy += last - first;
        updates += batch.len();
    }
    ratio(busy.as_secs_f64() * 1e6, updates as f64)
}
