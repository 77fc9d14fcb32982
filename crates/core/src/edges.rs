//! Edge-set representations: the value stored at each vertex-tree node.
//!
//! The paper evaluates three layouts for the per-vertex adjacency sets
//! (Table 2 and Table 13):
//!
//! * **Aspen Uncomp.** — a plain purely-functional tree, one node per
//!   neighbor ([`UncompressedEdges`]);
//! * **Aspen (No DE)** — a C-tree whose chunks store raw `u32`s
//!   ([`PlainEdges`]);
//! * **Aspen (DE)** — a C-tree with difference-encoded byte-coded
//!   chunks ([`CompressedEdges`]), the configuration simply called
//!   "Aspen" everywhere else in the paper.
//!
//! The graph layer is generic over [`EdgeSet`], so every experiment can
//! swap representations without touching algorithm code.

use ctree::{CTree, ChunkCodec, ChunkParams, DefaultCodec, IntervalCodec, PlainCodec};
use ptree::Tree;

/// A vertex identifier. The paper's graphs have up to 3.5B vertices
/// (stored as 32-bit ids after symmetrization); `u32` matches that.
pub type VertexId = u32;

/// An immutable, persistent set of neighbor ids.
///
/// Implementations must be cheap to clone (snapshot semantics): all
/// three provided representations are `Arc`-backed trees.
pub trait EdgeSet: Clone + Send + Sync + 'static {
    /// Representation-specific construction parameters (chunk size for
    /// C-trees; `()` for plain trees).
    type Config: Clone + Copy + Send + Sync + Default;

    /// The empty edge set.
    fn empty(cfg: Self::Config) -> Self;

    /// Builds from a strictly increasing neighbor list.
    fn from_sorted(neighbors: &[VertexId], cfg: Self::Config) -> Self;

    /// Number of neighbors (the vertex degree).
    fn degree(&self) -> usize;

    /// Whether `v` is a neighbor.
    fn contains(&self, v: VertexId) -> bool;

    /// Calls `f` on every neighbor in increasing order.
    fn for_each(&self, f: &mut dyn FnMut(VertexId));

    /// Calls `f` on every neighbor in increasing order until `f`
    /// returns `false`; returns `false` iff iteration was cut short.
    fn for_each_until(&self, f: &mut dyn FnMut(VertexId) -> bool) -> bool;

    /// The neighbors as a sorted `Vec`.
    fn to_vec(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree());
        self.for_each(&mut |v| out.push(v));
        out
    }

    /// Persistent union with another edge set (used by `InsertEdges`:
    /// the vertex-tree `MultiInsert` combines old and new edge sets
    /// with exactly this operation, §5 "Batch Updates").
    fn union(&self, other: &Self) -> Self;

    /// Persistent difference (used by `DeleteEdges`).
    fn difference(&self, other: &Self) -> Self;

    /// Whether the two sets share their backing allocation, proving
    /// equality without touching an element. Versions produced by batch
    /// updates share untouched edge sets by `Arc` pointer, so
    /// `diff_graphs` uses this to skip unchanged vertices outright.
    /// `false` proves nothing; the conservative default never claims
    /// sharing.
    fn shares_representation(&self, _other: &Self) -> bool {
        false
    }

    /// Heap bytes attributable to this edge set.
    fn memory_bytes(&self) -> usize;

    /// Short name for benchmark reports.
    fn repr_name() -> &'static str;

    /// Serializes the construction parameters into `out` (checkpoint
    /// headers record them so recovery rebuilds edge sets with the
    /// same chunking). Representations without parameters write
    /// nothing — the default.
    fn encode_config(_cfg: &Self::Config, _out: &mut Vec<u8>) {}

    /// Decodes parameters written by
    /// [`encode_config`](Self::encode_config); `None` on truncated or
    /// malformed input. The default reads nothing and returns the
    /// default configuration.
    fn decode_config(_r: &mut crate::snapshot::ByteReader<'_>) -> Option<Self::Config> {
        Some(Self::Config::default())
    }
}

/// One purely-functional tree node per neighbor — the paper's
/// "Aspen Uncomp." configuration.
#[derive(Clone, Debug, Default)]
pub struct UncompressedEdges {
    tree: Tree<VertexId>,
}

impl EdgeSet for UncompressedEdges {
    type Config = ();

    fn empty((): ()) -> Self {
        UncompressedEdges { tree: Tree::new() }
    }

    fn from_sorted(neighbors: &[VertexId], (): ()) -> Self {
        UncompressedEdges {
            tree: Tree::from_sorted(neighbors),
        }
    }

    fn degree(&self) -> usize {
        self.tree.len()
    }

    fn contains(&self, v: VertexId) -> bool {
        self.tree.contains(&v)
    }

    fn for_each(&self, f: &mut dyn FnMut(VertexId)) {
        self.tree.for_each_seq(&mut |&v| f(v));
    }

    fn for_each_until(&self, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        for &v in self.tree.iter() {
            if !f(v) {
                return false;
            }
        }
        true
    }

    fn union(&self, other: &Self) -> Self {
        UncompressedEdges {
            tree: self.tree.union(&other.tree, |a, _| *a),
        }
    }

    fn difference(&self, other: &Self) -> Self {
        UncompressedEdges {
            tree: self.tree.difference(&other.tree),
        }
    }

    fn shares_representation(&self, other: &Self) -> bool {
        self.tree.ptr_eq(&other.tree)
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }

    fn repr_name() -> &'static str {
        "uncompressed-tree"
    }
}

/// C-tree edge set, generic over the chunk codec.
///
/// `CTreeEdges<PlainCodec>` is "Aspen (No DE)"; `CTreeEdges<DeltaCodec>`
/// is the full "Aspen (DE)" configuration.
#[derive(Clone, Debug)]
pub struct CTreeEdges<C: ChunkCodec> {
    tree: CTree<C>,
}

/// C-tree chunks without difference encoding ("Aspen (No DE)").
pub type PlainEdges = CTreeEdges<PlainCodec>;

/// C-tree chunks with the workspace default codec — difference-encoded
/// byte codes ("Aspen (DE)") unless one of the `aspen-ctree`
/// `default-codec-*` features re-selects the codec, which is how the CI
/// codec matrix re-runs the whole suite per codec.
pub type CompressedEdges = CTreeEdges<DefaultCodec>;

/// C-tree chunks with intervalized ζ₃ codes (WebGraph-style).
pub type IntervalEdges = CTreeEdges<IntervalCodec>;

impl<C: ChunkCodec> CTreeEdges<C> {
    /// Access to the underlying C-tree (for diagnostics/benchmarks).
    pub fn ctree(&self) -> &CTree<C> {
        &self.tree
    }
}

impl<C: ChunkCodec> EdgeSet for CTreeEdges<C> {
    type Config = ChunkParams;

    fn empty(cfg: ChunkParams) -> Self {
        CTreeEdges {
            tree: CTree::new(cfg),
        }
    }

    fn from_sorted(neighbors: &[VertexId], cfg: ChunkParams) -> Self {
        CTreeEdges {
            tree: CTree::from_sorted(neighbors, cfg),
        }
    }

    fn degree(&self) -> usize {
        self.tree.len()
    }

    fn contains(&self, v: VertexId) -> bool {
        self.tree.contains(v)
    }

    fn for_each(&self, f: &mut dyn FnMut(VertexId)) {
        self.tree.for_each(f);
    }

    fn for_each_until(&self, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        // Streams chunk decoders with early exit — the old
        // implementation materialized the whole adjacency list first.
        self.tree.for_each_until(f)
    }

    fn to_vec(&self) -> Vec<VertexId> {
        self.tree.to_vec()
    }

    fn union(&self, other: &Self) -> Self {
        CTreeEdges {
            tree: self.tree.union(&other.tree),
        }
    }

    fn difference(&self, other: &Self) -> Self {
        CTreeEdges {
            tree: self.tree.difference(&other.tree),
        }
    }

    fn shares_representation(&self, other: &Self) -> bool {
        self.tree.ptr_eq(&other.tree)
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }

    fn repr_name() -> &'static str {
        match C::name() {
            "delta" => "ctree-delta",
            "interval" => "ctree-interval",
            _ => "ctree-plain",
        }
    }

    fn encode_config(cfg: &ChunkParams, out: &mut Vec<u8>) {
        crate::snapshot::put_u32(cfg.b, out);
        crate::snapshot::put_u64(cfg.seed, out);
    }

    fn decode_config(r: &mut crate::snapshot::ByteReader<'_>) -> Option<ChunkParams> {
        let b = r.u32v()?;
        let seed = r.u64v()?;
        if b == 0 {
            return None; // with_b would panic; reject corrupt input
        }
        Some(ChunkParams { b, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_edge_set<E: EdgeSet>(cfg: E::Config) {
        let e = E::empty(cfg);
        assert_eq!(e.degree(), 0);
        assert!(!e.contains(3));
        assert!(e.to_vec().is_empty());

        let a = E::from_sorted(&[1, 5, 9], cfg);
        assert_eq!(a.degree(), 3);
        assert!(a.contains(5));
        assert!(!a.contains(4));
        assert_eq!(a.to_vec(), vec![1, 5, 9]);

        let b = E::from_sorted(&[5, 7], cfg);
        assert_eq!(a.union(&b).to_vec(), vec![1, 5, 7, 9]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 9]);
        // persistence
        assert_eq!(a.to_vec(), vec![1, 5, 9]);

        let mut seen = Vec::new();
        a.for_each(&mut |v| seen.push(v));
        assert_eq!(seen, vec![1, 5, 9]);

        let mut count = 0;
        let completed = a.for_each_until(&mut |_| {
            count += 1;
            count < 2
        });
        assert!(!completed);
        assert_eq!(count, 2);
    }

    #[test]
    fn uncompressed_contract() {
        check_edge_set::<UncompressedEdges>(());
    }

    #[test]
    fn plain_ctree_contract() {
        check_edge_set::<PlainEdges>(ChunkParams::with_b(4));
    }

    #[test]
    fn delta_ctree_contract() {
        check_edge_set::<CompressedEdges>(ChunkParams::with_b(4));
    }

    #[test]
    fn interval_ctree_contract() {
        check_edge_set::<IntervalEdges>(ChunkParams::with_b(4));
    }

    #[test]
    fn interval_codec_compresses_below_plain() {
        let neighbors: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let plain = PlainEdges::from_sorted(&neighbors, ChunkParams::default());
        let interval = IntervalEdges::from_sorted(&neighbors, ChunkParams::default());
        assert!(interval.memory_bytes() < plain.memory_bytes());
    }

    #[test]
    fn memory_ordering_between_representations() {
        let neighbors: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let unc = UncompressedEdges::from_sorted(&neighbors, ());
        let plain = PlainEdges::from_sorted(&neighbors, ChunkParams::default());
        let delta = CompressedEdges::from_sorted(&neighbors, ChunkParams::default());
        assert!(
            delta.memory_bytes() < plain.memory_bytes(),
            "difference encoding should shrink chunks"
        );
        assert!(
            plain.memory_bytes() < unc.memory_bytes(),
            "chunking should beat per-element nodes"
        );
    }

    #[test]
    fn repr_names_are_distinct() {
        assert_ne!(PlainEdges::repr_name(), CompressedEdges::repr_name());
        assert_ne!(UncompressedEdges::repr_name(), CompressedEdges::repr_name());
    }
}
