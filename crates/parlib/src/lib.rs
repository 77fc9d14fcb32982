//! Parallel primitives shared by the Aspen reproduction.
//!
//! The paper ("Low-Latency Graph Streaming Using Compressed
//! Purely-Functional Trees", PLDI 2019) analyses its algorithms in the
//! work–depth model and implements them on a Cilk-like work-stealing
//! scheduler with a small set of sequence primitives (`Scan`, `Filter`,
//! parallel sort; Appendix 10.1). This crate provides the Rust
//! equivalents on top of [`rayon`] — backed by the workspace's
//! lock-free work-stealing fork-join pool (Chase–Lev deques with
//! adaptive split-on-steal iterators; see `docs/RUNTIME.md`), so the
//! primitives genuinely run with the `O(log n)` depths quoted below.
//! Block sizes adapt to the pool width (`~8` blocks per worker, see
//! `scan::block_size`), and the default pool width honours the
//! `ASPEN_THREADS` environment variable:
//!
//! * [`scan`](fn@scan) — exclusive prefix sums with an associative
//!   operator, `O(n)` work and `O(log n)` depth.
//! * [`pack`]/[`filter_indices`] — stable parallel filter.
//! * [`AtomicBitset`] — a lock-free concurrent bitset used for visited
//!   flags in graph traversals.
//! * [`atomics`] — `write_min`, atomic `f64` accumulation and
//!   compare-and-swap helpers used by betweenness centrality and MIS.
//! * [`hash`] — `splitmix64` and related mixers; deterministic hashing
//!   drives both treap priorities and C-tree head selection.
//!
//! # Example
//!
//! ```
//! let xs = vec![1u64, 2, 3, 4];
//! let (sums, total) = parlib::scan(&xs, 0u64, |a, b| a + b);
//! assert_eq!(sums, vec![0, 1, 3, 6]);
//! assert_eq!(total, 10);
//! ```

pub mod atomics;
pub mod bitset;
pub mod hash;
pub mod scan;

pub use atomics::{write_min_u32, AtomicF64};
pub use bitset::AtomicBitset;
pub use hash::{hash64, hash64_with_seed, mix64};
pub use scan::{filter_indices, pack, scan, scan_inplace};

/// Returns the number of worker threads rayon will use.
///
/// Convenience used by benches to report the configuration under which a
/// measurement was taken.
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `f` on a dedicated rayon pool with `n` threads.
///
/// This genuinely constrains (or widens) the parallelism of every
/// `join`/`scope`/parallel-iterator call inside `f`, including nested
/// spawns executing on the pool's workers — the thread-scaling
/// experiment (`repro scaling`) and the single-thread vs all-threads
/// comparisons in Tables 3 and 4 run through it.
///
/// # Panics
///
/// Panics if the thread pool cannot be constructed (e.g. `n == 0`).
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn with_threads_single() {
        let r = with_threads(1, rayon::current_num_threads);
        assert_eq!(r, 1);
    }

    #[test]
    fn with_threads_returns_value() {
        assert_eq!(with_threads(2, || 41 + 1), 42);
    }
}
