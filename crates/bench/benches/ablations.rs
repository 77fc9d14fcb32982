//! Ablation benchmarks for the design choices `docs/ARCHITECTURE.md`
//! ("Trees", "Graph layer") and `docs/COMPRESSION.md` call out:
//!
//! * chunking on/off (C-tree vs plain purely-functional tree),
//! * difference encoding on/off within chunks,
//! * flat snapshot on/off for a global traversal,
//! * direction optimization on/off for BFS.

use algorithms::{bfs, bfs_directed};
use aspen::{CompressedEdges, Direction, FlatSnapshot, Graph, PlainEdges, UncompressedEdges};
use bench_support::datasets::{default_b, tiny};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_representation_ablation(c: &mut Criterion) {
    let edges = tiny().edges();
    let mut grp = c.benchmark_group("ablation_representation_bfs");
    grp.sample_size(20);

    let unc: Graph<UncompressedEdges> = Graph::from_edges(&edges, ());
    let unc_f = FlatSnapshot::new(&unc);
    let src = (0..unc_f.len() as u32)
        .max_by_key(|&v| unc_f.degree(v))
        .unwrap_or(0);
    grp.bench_function("uncompressed_tree", |bench| {
        bench.iter(|| black_box(bfs(&unc_f, src)));
    });

    let plain: Graph<PlainEdges> = Graph::from_edges(&edges, default_b());
    let plain_f = FlatSnapshot::new(&plain);
    grp.bench_function("ctree_no_de", |bench| {
        bench.iter(|| black_box(bfs(&plain_f, src)));
    });

    let delta: Graph<CompressedEdges> = Graph::from_edges(&edges, default_b());
    let delta_f = FlatSnapshot::new(&delta);
    grp.bench_function("ctree_de", |bench| {
        bench.iter(|| black_box(bfs(&delta_f, src)));
    });
    grp.finish();
}

fn bench_flat_snapshot_ablation(c: &mut Criterion) {
    let g = tiny().build();
    let f = FlatSnapshot::new(&g);
    let src = (0..f.len() as u32)
        .max_by_key(|&v| f.degree(v))
        .unwrap_or(0);
    let mut grp = c.benchmark_group("ablation_flat_snapshot_bfs");
    grp.sample_size(20);
    grp.bench_function("with_flat_snapshot", |bench| {
        bench.iter(|| black_box(bfs(&f, src)));
    });
    grp.bench_function("tree_lookups_only", |bench| {
        bench.iter(|| black_box(bfs(&g, src)));
    });
    grp.bench_function("including_fs_build", |bench| {
        bench.iter(|| {
            let fresh = FlatSnapshot::new(&g);
            black_box(bfs(&fresh, src))
        });
    });
    grp.finish();
}

fn bench_direction_ablation(c: &mut Criterion) {
    let g = tiny().build();
    let f = FlatSnapshot::new(&g);
    let src = (0..f.len() as u32)
        .max_by_key(|&v| f.degree(v))
        .unwrap_or(0);
    let mut grp = c.benchmark_group("ablation_direction_bfs");
    grp.sample_size(20);
    for (name, dir) in [
        ("auto", Direction::Auto),
        ("sparse_only", Direction::ForceSparse),
        ("dense_only", Direction::ForceDense),
    ] {
        grp.bench_function(name, |bench| {
            bench.iter(|| black_box(bfs_directed(&f, src, dir)));
        });
    }
    grp.finish();
}

criterion_group!(
    benches,
    bench_representation_ablation,
    bench_flat_snapshot_ablation,
    bench_direction_ablation
);
criterion_main!(benches);
