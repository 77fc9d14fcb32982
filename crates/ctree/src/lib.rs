//! C-trees: compressed purely-functional search trees.
//!
//! This crate implements the core contribution of *"Low-Latency Graph
//! Streaming Using Compressed Purely-Functional Trees"* (Dhulipala,
//! Blelloch, Shun — PLDI 2019): a chunked purely-functional search tree
//! that keeps the asymptotic bounds of balanced binary trees while
//! slashing space usage and improving cache locality.
//!
//! # How it works (§3)
//!
//! Given a set of elements and a chunking parameter `b`, each element is
//! promoted to a **head** with probability `1/b` by hashing the element
//! itself. Heads are stored in an ordinary purely-functional tree (the
//! [`ptree`] crate); each head carries its **tail** — the run of
//! non-head elements up to the next head — as a contiguous, optionally
//! compressed array. Elements before the first head form the
//! **prefix**. Chunks have expected size `b` and are `O(b log n)` w.h.p.
//! (Lemma 3.1).
//!
//! Because the head decision depends only on the element, two C-trees
//! over overlapping sets agree on what is a head — the property that
//! lets `Union`/`Difference`/`Intersect` recurse structurally
//! ([`CTree::union`] and friends; Algorithms 1–3).
//!
//! When elements are integers (this crate specializes to `u32` vertex
//! identifiers, the case the paper's evaluation exercises), each chunk
//! is difference-encoded and byte-coded ([`DeltaCodec`]), reaching a few
//! bytes per element on real-world-like inputs — the key to storing
//! massive graphs on one machine.
//!
//! # Example
//!
//! ```
//! use ctree::{ChunkParams, CTree};
//!
//! let params = ChunkParams::with_b(128);
//! let evens: CTree = CTree::from_sorted(&(0..10_000).step_by(2).collect::<Vec<_>>(), params);
//! let threes: CTree = CTree::from_sorted(&(0..10_000).step_by(3).collect::<Vec<_>>(), params);
//!
//! let both = evens.intersect(&threes); // multiples of 6
//! assert_eq!(both.len(), 1667);
//! // purely functional: inputs are untouched snapshots
//! assert_eq!(evens.len(), 5000);
//! ```

mod chunk;
mod setops;
mod tree;

pub use chunk::{Chunk, ChunkCodec, DeltaCodec, IntervalCodec, IntervalIter, PlainCodec, MIN_RUN};
pub use tree::{CTree, ChunkParams, ElementCount, HeadTail, HeadTree};

/// The chunk codec used when a tree leaves its codec parameter to the
/// default — selected at compile time by the `default-codec-*` cargo
/// features so the whole test suite (ctree, algorithms) can be re-run
/// with any codec as the tree's type parameter. Without a feature this
/// is [`DeltaCodec`], the paper's "Aspen (DE)" configuration.
#[cfg(feature = "default-codec-plain")]
pub type DefaultCodec = PlainCodec;
#[cfg(all(
    feature = "default-codec-interval",
    not(feature = "default-codec-plain")
))]
pub type DefaultCodec = IntervalCodec;
#[cfg(not(any(feature = "default-codec-plain", feature = "default-codec-interval")))]
pub type DefaultCodec = DeltaCodec;

#[cfg(test)]
mod proptests;
