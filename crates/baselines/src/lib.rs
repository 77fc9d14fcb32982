//! Comparison systems, rebuilt in Rust.
//!
//! The paper benchmarks Aspen against two streaming systems (Stinger
//! \[28], LLAMA \[46]) and three static frameworks (Ligra+ \[70],
//! GAP \[6], Galois \[55]). Those are C/C++ codebases; to keep the comparisons
//! about *data structures* rather than FFI and build systems, this
//! crate re-implements each system's representative representation and
//! update discipline:
//!
//! * [`Csr`] — flat offsets + edge array (GAP-like static baseline);
//! * [`CompressedCsr`] — byte-compressed adjacency (Ligra+-like);
//! * [`StingerLike`] — per-vertex chains of fixed-size edge blocks
//!   with fine-grained locking and in-place updates;
//! * [`LlamaLike`] — multiversioned arrays: per-batch delta snapshots
//!   with copied vertex indirection and fragment chains;
//! * [`worklist_bfs`]/[`worklist_mis`] — an asynchronous worklist
//!   engine standing in for Galois-style scheduling (the weakest
//!   substitution; `docs/ARCHITECTURE.md`, "`crates/baselines`", says
//!   what each stand-in keeps of its original).
//!
//! All engines implement [`aspen::GraphView`], so the algorithms in
//! `aspen-algorithms` run unchanged on each — the property that makes
//! Tables 9–15 apples-to-apples.

pub mod ccsr;
pub mod csr;
pub mod llama_like;
pub mod stinger_like;
pub mod worklist;

pub use ccsr::CompressedCsr;
pub use csr::Csr;
pub use llama_like::LlamaLike;
pub use stinger_like::StingerLike;
pub use worklist::{worklist_bfs, worklist_mis};
