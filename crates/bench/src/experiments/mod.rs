//! One module per experiment family; each function regenerates the
//! rows of a paper table (or figure series) and returns a renderable
//! [`Table`](crate::tables::Table).
//!
//! The per-experiment index is `repro`'s usage text (`../main.rs`) and
//! "Serving surface" in `docs/ARCHITECTURE.md`; measured results are
//! discussed per subsystem in `docs/RUNTIME.md`, `COMPRESSION.md`,
//! `INCREMENTAL.md`, `SHARDING.md` and `DURABILITY.md`.

mod algos;
mod concurrent;
mod durability;
mod incremental;
mod memory;
mod scaling;
mod updates;

pub use algos::{run_table11, run_table12, run_table13, run_table14_15, run_table3_4, run_table6};
pub use concurrent::run_stream_engine;
pub use durability::run_durability;
pub use incremental::run_incremental;
pub use memory::{run_memory, run_table1, run_table2, run_table5, run_table9};
pub use scaling::{run_scaling, run_scaling_shards};
pub use updates::{run_figure5, run_table10, run_table7, run_table8};

use crate::datasets::{default_b, Dataset};
use aspen::{CompressedEdges, FlatSnapshot, Graph, GraphView};

/// Builds the default Aspen graph plus its flat snapshot.
pub(crate) fn build_aspen(d: &Dataset) -> (Graph<CompressedEdges>, FlatSnapshot<CompressedEdges>) {
    let g = Graph::from_edges(&d.edges(), default_b());
    let f = FlatSnapshot::new(&g);
    (g, f)
}

/// Loads the streaming baselines the way a stream would leave them:
/// `INGEST_BATCHES` ingestion rounds (LLAMA: one delta snapshot each,
/// chaining adjacency fragments across snapshots) plus a
/// delete/re-insert churn pass for Stinger (holes in edge blocks) —
/// the fragmented state §7.5–7.6 attribute both systems' weaknesses to.
pub(crate) fn build_streamed_baselines(
    edges: &[(u32, u32)],
) -> (baselines::StingerLike, baselines::LlamaLike) {
    const INGEST_BATCHES: usize = 50;
    let n = edges
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    let stinger = baselines::StingerLike::new(n);
    let mut llama = baselines::LlamaLike::new(n);
    let per = edges.len().div_ceil(INGEST_BATCHES).max(1);
    for chunk in edges.chunks(per) {
        stinger.insert_batch(chunk);
        llama.ingest_batch(chunk);
    }
    let churn: Vec<(u32, u32)> = edges.iter().copied().step_by(10).collect();
    stinger.delete_batch(&churn);
    stinger.insert_batch(&churn);
    (stinger, llama)
}

/// The max-degree vertex: a deterministic source inside the giant
/// component (the paper samples random sources; rMAT's giant component
/// always contains the hubs).
pub(crate) fn hub<G: GraphView>(g: &G) -> u32 {
    (0..g.id_bound() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

/// A deterministic set of `k` query vertices with nonzero degree,
/// spread over the id space.
pub(crate) fn query_vertices<G: GraphView>(g: &G, k: usize) -> Vec<u32> {
    let n = g.id_bound() as u64;
    let mut out = Vec::with_capacity(k);
    let mut i = 0u64;
    while out.len() < k && i < n * 4 {
        let v = (parlib::hash64_with_seed(i, 0x9e) % n) as u32;
        if g.degree(v) > 0 {
            out.push(v);
        }
        i += 1;
    }
    out
}
