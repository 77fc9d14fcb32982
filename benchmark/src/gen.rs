//! Input generation: the initial graph and the whole update stream.
//! The graph is the workload's *dataset* — an rMAT stand-in with the
//! fixed seed `crates/bench` gives it, so that what a query costs does
//! not change with the run's seed (between two graphs of one rMAT
//! family a BFS from the hub differs by a round or two, which moved
//! sharded BFS latency by 40 %). The update stream is a pure function
//! of `(workload, seed)`. The engine under test receives only what is
//! generated here.
//!
//! # Stream layout
//!
//! Position `i` of a stream holds, by `i mod 16`:
//!
//! * `15` — a **probe insert**: probe `k = i / 16` inserts an edge
//!   between two ids of a reserved block above the graph's id space.
//!   The edge is not in the graph at that point, so the moment a
//!   snapshot contains it is the moment update `i` (and, ingest being
//!   FIFO, every update before it) became visible.
//! * `7` — a **probe delete** of probe `k - PROBE_LAG`, so probe state
//!   stays bounded. The lag (`16 * PROBE_LAG` positions) exceeds every
//!   batch and epoch size, so a probe's insert and delete never
//!   coalesce, and it is long against any latency worth reporting.
//!   While `k < PROBE_LAG` the delete names a pair no probe has
//!   inserted yet and is a no-op.
//! * anything else — the next operation of the workload's [`Mix`].

use crate::spec::{Mix, Workload};
use graphgen::{Rmat, Update};
use rayon::prelude::*;

/// Ids `base .. base + PROBE_BLOCK` are reserved for probes, where
/// `base = 2^scale` is the first id the rMAT generator cannot produce.
pub const PROBE_BLOCK: u32 = 512;
/// Distinct probe pairs before the cycle repeats (`a` in the block's
/// lower half, `b` in its upper half).
const PROBE_PAIRS: u64 = 1 << 16;
/// Probes between a probe's insert and its delete.
pub const PROBE_LAG: u64 = 4_096;
/// Of every 16 positions, this many carry the workload's own mix.
const MIX_PER_16: u64 = 14;

/// Generates one workload's inputs.
#[derive(Clone, Debug)]
pub struct Generator {
    /// Positions `0 .. graph_len` of this make the initial graph.
    dataset: Rmat,
    graph_len: u64,
    /// The stream's fresh edges, from the run's seed.
    fresh: Rmat,
    mix: Mix,
    seed: u64,
    probe_base: u32,
}

/// Self loops bent to a neighbouring id, so that every generated
/// update is a real undirected edge.
fn no_loop((u, v): (u32, u32)) -> (u32, u32) {
    if u == v {
        (u, v ^ 1)
    } else {
        (u, v)
    }
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Generator {
        Generator {
            dataset: Rmat::new(w.scale, w.dataset_seed),
            graph_len: ((1u64 << w.scale) * u64::from(w.avg_degree)) / 2 + 1,
            fresh: Rmat::new(w.scale, seed),
            mix: w.mix,
            seed,
            probe_base: 1 << w.scale,
        }
    }

    /// First id of the reserved probe block.
    pub fn probe_base(&self) -> u32 {
        self.probe_base
    }

    /// The `p`-th fresh edge of the stream.
    fn edge(&self, p: u64) -> (u32, u32) {
        no_loop(self.fresh.edge(p))
    }

    /// The initial graph as a symmetric, sorted, duplicate-free arc
    /// list, ready for `Graph::from_edges`.
    pub fn initial_arcs(&self) -> Vec<(u32, u32)> {
        let mut arcs: Vec<(u32, u32)> = (0..self.graph_len)
            .into_par_iter()
            .flat_map_iter(|p| {
                let (u, v) = no_loop(self.dataset.edge(p));
                [(u, v), (v, u)]
            })
            .collect();
        arcs.par_sort_unstable();
        arcs.dedup();
        arcs
    }

    /// The endpoints of probe `k`.
    pub fn probe_pair(&self, k: u64) -> (u32, u32) {
        let p = (k % PROBE_PAIRS) as u32;
        let half = PROBE_BLOCK / 2;
        (
            self.probe_base + p / half,
            self.probe_base + half + p % half,
        )
    }

    /// Whether `u` is a probe insert (as opposed to a probe delete or
    /// an operation of the mix).
    pub fn is_probe_insert(&self, u: &Update) -> bool {
        u.is_insert() && u.endpoints().0 >= self.probe_base
    }

    /// Whether mix operation `j` of the paper mix is a delete. The
    /// first operation never is: there is nothing to delete yet.
    fn paper_deletes(&self, j: u64) -> bool {
        j > 0 && parlib::hash64_with_seed(j, self.seed ^ 0xDE1E).is_multiple_of(10)
    }

    /// Mix operation `j`.
    fn mix_op(&self, j: u64) -> Update {
        match self.mix {
            Mix::Paper => {
                if self.paper_deletes(j) {
                    // Delete what an earlier insert inserted.
                    let mut t = parlib::hash64_with_seed(j, self.seed ^ 0x7A26) % j;
                    while self.paper_deletes(t) {
                        t -= 1;
                    }
                    let (u, v) = self.edge(t);
                    Update::Delete(u, v)
                } else {
                    let (u, v) = self.edge(j);
                    Update::Insert(u, v)
                }
            }
            Mix::Window { window } => {
                // Step s slides a window over the dataset's sequence
                // continued by the fresh one: in comes fresh edge s,
                // out goes the edge `window` steps older — at first
                // still one of the initial graph's.
                let s = j / 2;
                let (u, v) = if j.is_multiple_of(2) {
                    self.edge(s)
                } else if s >= window {
                    self.edge(s - window)
                } else {
                    no_loop(
                        self.dataset
                            .edge((self.graph_len + s).saturating_sub(window)),
                    )
                };
                if j.is_multiple_of(2) {
                    Update::Insert(u, v)
                } else {
                    Update::Delete(u, v)
                }
            }
        }
    }

    /// The update at stream position `i`.
    pub fn update_at(&self, i: u64) -> Update {
        let (k, r) = (i / 16, i % 16);
        match r {
            15 => {
                let (a, b) = self.probe_pair(k);
                Update::Insert(a, b)
            }
            7 => {
                let (a, b) = self.probe_pair(k.wrapping_sub(PROBE_LAG));
                Update::Delete(a, b)
            }
            _ => self.mix_op(k * MIX_PER_16 + r - u64::from(r > 7)),
        }
    }

    /// Stream positions `from .. from + len`.
    pub fn stream(&self, from: u64, len: usize) -> Vec<Update> {
        (from..from + len as u64)
            .into_par_iter()
            .map(|i| self.update_at(i))
            .collect()
    }
}

/// FNV-1a over a stream's updates, for pinning streams in tests.
#[cfg(test)]
pub fn stream_hash(updates: &[Update]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for u in updates {
        let (a, b) = u.endpoints();
        let word = (u64::from(a) << 33) | (u64::from(b) << 1) | u64::from(u.is_insert());
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::collections::HashSet;

    fn workload(name: &str) -> Workload {
        Workload::by_name(name).unwrap().quick()
    }

    #[test]
    fn equal_seeds_give_identical_streams_and_graphs() {
        for w in WORKLOADS {
            let w = w.quick();
            let (a, b) = (Generator::new(&w, 7), Generator::new(&w, 7));
            assert_eq!(
                stream_hash(&a.stream(0, 20_000)),
                stream_hash(&b.stream(0, 20_000))
            );
            assert_eq!(a.initial_arcs(), b.initial_arcs());
            // A stream is addressed by position: any slice of it is
            // the same however it is cut.
            assert_eq!(a.stream(0, 20_000)[5_000..], b.stream(5_000, 15_000)[..]);
        }
    }

    #[test]
    fn different_seeds_differ() {
        for w in WORKLOADS {
            let w = w.quick();
            let (a, b) = (Generator::new(&w, 7), Generator::new(&w, 8));
            assert_ne!(
                stream_hash(&a.stream(0, 20_000)),
                stream_hash(&b.stream(0, 20_000))
            );
            // The graph is the dataset, whatever the seed.
            assert_eq!(a.initial_arcs(), b.initial_arcs());
        }
    }

    #[test]
    fn sharded_stream_is_steady_ingests_stream() {
        // At full scale too: the pair isolates the sharded front end
        // only if both engines are fed the very same updates.
        let steady = Workload::by_name("steady-ingest").unwrap();
        let sharded = Workload::by_name("sharded-2").unwrap();
        for (a, b) in [(steady, sharded), (steady.quick(), sharded.quick())] {
            let (ga, gb) = (Generator::new(&a, 3), Generator::new(&b, 3));
            assert_eq!(ga.stream(0, 30_000), gb.stream(0, 30_000));
            assert_eq!(ga.probe_base(), gb.probe_base());
        }
        assert!(sharded.n_sat <= steady.n_sat && sharded.rate <= steady.rate);
    }

    #[test]
    fn probes_are_never_duplicates_of_live_edges() {
        for name in ["steady-ingest", "durable-standing"] {
            let w = workload(name);
            let g = Generator::new(&w, 11);
            let mut live: HashSet<(u32, u32)> = g
                .initial_arcs()
                .into_iter()
                .filter(|&(u, v)| u < v)
                .collect();
            let n = 16 * (PROBE_PAIRS + 2 * PROBE_LAG);
            let mut probes = 0u64;
            for i in 0..n {
                let u = g.update_at(i);
                let (a, b) = u.endpoints();
                assert_ne!(a, b, "self loop at {i}");
                let key = (a.min(b), a.max(b));
                if u.is_insert() {
                    let fresh = live.insert(key);
                    if g.is_probe_insert(&u) {
                        assert!(fresh, "probe at {i} duplicates a live edge");
                        assert!(b < g.probe_base() + PROBE_BLOCK);
                        probes += 1;
                    } else {
                        assert!(a < g.probe_base() && b < g.probe_base());
                    }
                } else {
                    live.remove(&key);
                }
            }
            assert_eq!(probes, n / 16);
        }
    }

    #[test]
    fn paper_mix_is_nine_to_one_and_deletes_earlier_inserts() {
        let w = workload("steady-ingest");
        let g = Generator::new(&w, 5);
        let mut inserted = HashSet::new();
        let (mut ins, mut del) = (0u32, 0u32);
        for j in 0..50_000 {
            match g.mix_op(j) {
                Update::Insert(u, v) => {
                    inserted.insert((u, v));
                    ins += 1;
                }
                Update::Delete(u, v) => {
                    assert!(inserted.contains(&(u, v)), "op {j} deletes a stranger");
                    del += 1;
                }
            }
        }
        let share = f64::from(del) / f64::from(ins + del);
        assert!((0.09..0.11).contains(&share), "delete share {share}");
    }

    #[test]
    fn window_mix_keeps_the_edge_count_steady() {
        let w = workload("durable-standing");
        let Mix::Window { window } = w.mix else {
            panic!("durable-standing slides a window")
        };
        let g = Generator::new(&w, 5);
        // Multiset of live rMAT positions: after any number of steps
        // it is exactly the `graph_len` newest positions... as edges,
        // the last `window` inserts are all still present.
        let mut live: HashSet<(u32, u32)> = HashSet::new();
        let steps = 3 * window;
        for j in 0..2 * steps {
            match g.mix_op(j) {
                Update::Insert(u, v) => live.insert((u.min(v), u.max(v))),
                Update::Delete(u, v) => live.remove(&(u.min(v), u.max(v))),
            };
        }
        let newest: HashSet<(u32, u32)> = (steps - window / 2..steps)
            .map(|s| g.edge(s))
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        assert!(live.len() as u64 <= window, "window overflowed");
        // A newest edge is missing only if an older duplicate of it
        // slid out after it came in; that is rare.
        let missing = newest.difference(&live).count();
        assert!(missing * 5 < newest.len(), "{missing} of {}", newest.len());
    }
}
