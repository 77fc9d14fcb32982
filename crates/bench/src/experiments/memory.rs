//! Memory-accounting experiments: Tables 1, 2, 5 and 9, plus the
//! chunk-codec compression frontier (`repro memory`).

use super::{build_aspen, hub};
use crate::datasets::{default_b, Dataset};
use crate::tables::Table;
use crate::{fmt_bytes, fmt_secs, timed};
use aspen::{
    CTreeEdges, ChunkParams, CompressedEdges, FlatSnapshot, Graph, GraphView, PlainEdges,
    UncompressedEdges,
};
use baselines::CompressedCsr;
use ctree::{ChunkCodec, DeltaCodec, IntervalCodec, PlainCodec};

/// Table 1: statistics of the stand-in graphs.
pub fn run_table1(datasets: &[Dataset]) -> Table {
    let mut t = Table::new(
        "Table 1: input graph statistics (synthetic stand-ins)",
        &["graph", "vertices", "directed edges", "avg degree"],
    );
    for d in datasets {
        let g = d.build();
        let avg = g.num_edges() as f64 / g.num_vertices().max(1) as f64;
        t.row(&[
            d.name.to_owned(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            format!("{avg:.1}"),
        ]);
    }
    t
}

/// Table 2: memory usage of flat snapshots and the three edge
/// representations, plus the savings of Aspen (DE) over uncompressed
/// trees.
pub fn run_table2(datasets: &[Dataset]) -> Table {
    let mut t = Table::new(
        "Table 2: memory usage by representation",
        &[
            "graph",
            "flat snap.",
            "uncompressed",
            "no-DE (C-tree)",
            "DE (C-tree)",
            "savings",
        ],
    );
    for d in datasets {
        let edges = d.edges();
        let unc: Graph<UncompressedEdges> = Graph::from_edges(&edges, ());
        let plain: Graph<PlainEdges> = Graph::from_edges(&edges, default_b());
        let delta: Graph<CompressedEdges> = Graph::from_edges(&edges, default_b());
        let flat = FlatSnapshot::new(&delta);
        let (u, p, de) = (
            unc.memory_bytes(),
            plain.memory_bytes(),
            delta.memory_bytes(),
        );
        t.row(&[
            d.name.to_owned(),
            fmt_bytes(flat.memory_bytes()),
            fmt_bytes(u),
            fmt_bytes(p),
            fmt_bytes(de),
            format!("{:.2}x", u as f64 / de as f64),
        ]);
    }
    t
}

/// Table 5: memory and algorithm performance as a function of the
/// chunk size `b` (swept over `2^1 .. 2^12` on the Twitter stand-in).
pub fn run_table5(d: &Dataset) -> Table {
    let mut t = Table::new(
        &format!("Table 5: chunk-size sweep on {}", d.name),
        &["b", "memory", "BFS", "BC", "MIS"],
    );
    let edges = d.edges();
    for log_b in 1..=12u32 {
        let g: Graph<CompressedEdges> = Graph::from_edges(&edges, ChunkParams::with_b(1 << log_b));
        let f = FlatSnapshot::new(&g);
        let src = hub(&f);
        let (_, bfs_t) = timed(|| algorithms::bfs(&f, src));
        let (_, bc_t) = timed(|| algorithms::bc(&f, src));
        let (_, mis_t) = timed(|| algorithms::mis(&f, 1));
        t.row(&[
            format!("2^{log_b}"),
            fmt_bytes(g.memory_bytes()),
            fmt_secs(bfs_t),
            fmt_secs(bc_t),
            fmt_secs(mis_t),
        ]);
    }
    t
}

/// Table 9: memory of the Stinger-like and LLAMA-like streaming
/// systems and the Ligra+-like compressed CSR, against Aspen (DE).
pub fn run_table9(datasets: &[Dataset]) -> Table {
    let mut t = Table::new(
        "Table 9: memory across systems",
        &[
            "graph",
            "Stinger-like",
            "LLAMA-like",
            "Ligra+ (ccsr)",
            "Aspen (DE)",
            "ST/Asp",
            "LL/Asp",
            "L+/Asp",
        ],
    );
    for d in datasets {
        let edges = d.edges();
        // The streaming systems are measured in streamed-in state (the
        // per-batch indirection copies are LLAMA's documented memory
        // cost); the static Ligra+-like CSR is built in one shot.
        let (stinger, llama) = super::build_streamed_baselines(&edges);
        let ccsr = CompressedCsr::from_edges(&edges);
        let (aspen_g, _) = build_aspen(d);
        let (s, l, c, a) = (
            stinger.memory_bytes(),
            llama.memory_bytes(),
            ccsr.memory_bytes(),
            aspen_g.memory_bytes(),
        );
        t.row(&[
            d.name.to_owned(),
            fmt_bytes(s),
            fmt_bytes(l),
            fmt_bytes(c),
            fmt_bytes(a),
            format!("{:.2}x", s as f64 / a as f64),
            format!("{:.2}x", l as f64 / a as f64),
            format!("{:.2}x", c as f64 / a as f64),
        ]);
    }
    t
}

/// Timed sequential decode passes over every adjacency list; the number
/// of passes amortizes timer noise on the small stand-ins.
const DECODE_REPS: u32 = 3;

/// One (dataset, codec) row of the compression frontier: space as
/// bytes-per-edge and sequential decode throughput as ns-per-edge,
/// both also attached as raw metrics
/// (`{dataset}.{codec}.bytes_per_edge` / `.decode_ns_per_edge`).
fn codec_row<C: ChunkCodec>(t: &mut Table, dataset: &str, edges: &[(u32, u32)]) {
    let g: Graph<CTreeEdges<C>> = Graph::from_edges(edges, default_b());
    let mem = g.memory_bytes();
    let ne = g.num_edges().max(1);
    let bytes_per_edge = mem as f64 / ne as f64;

    // Full sequential neighbor scans through the lazy chunk decoders;
    // the checksum keeps the traversal from being optimized away.
    let scan = || {
        let mut acc = 0u64;
        for v in 0..g.id_bound() as u32 {
            g.for_each_neighbor(v, &mut |u| acc = acc.wrapping_add(u64::from(u)));
        }
        acc
    };
    let warm = scan();
    let (check, secs) = timed(|| {
        let mut acc = 0u64;
        for _ in 0..DECODE_REPS {
            acc = acc.wrapping_add(std::hint::black_box(scan()));
        }
        acc
    });
    assert_eq!(check, warm.wrapping_mul(u64::from(DECODE_REPS)));
    let decode_ns_per_edge = secs * 1e9 / (f64::from(DECODE_REPS) * ne as f64);

    t.row(&[
        dataset.to_owned(),
        C::name().to_owned(),
        fmt_bytes(mem),
        format!("{bytes_per_edge:.2}"),
        format!("{decode_ns_per_edge:.1}"),
    ]);
    t.metric(
        &format!("{dataset}.{}.bytes_per_edge", C::name()),
        bytes_per_edge,
    );
    t.metric(
        &format!("{dataset}.{}.decode_ns_per_edge", C::name()),
        decode_ns_per_edge,
    );
}

/// `repro memory` — the codec axis: the Plain/Delta/Interval
/// space–time frontier, measured per dataset. Bytes-per-edge counts all
/// C-tree overhead (vertex tree, heads, chunk storage) against the
/// directed edge count; decode-ns-per-edge is a full sequential
/// neighbor scan through [`ChunkCodec::iter`].
pub fn run_memory(datasets: &[Dataset]) -> Table {
    let mut t = Table::new(
        "Memory: chunk-codec compression frontier",
        &["graph", "codec", "memory", "bytes/edge", "decode ns/edge"],
    );
    for d in datasets {
        let edges = d.edges();
        codec_row::<PlainCodec>(&mut t, d.name, &edges);
        codec_row::<DeltaCodec>(&mut t, d.name, &edges);
        codec_row::<IntervalCodec>(&mut t, d.name, &edges);
    }
    t
}
