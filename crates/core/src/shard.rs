//! Vertex-space partitioning for sharded engines.
//!
//! One [`crate::VersionedGraph`] means one writer loop and one root
//! install per batch. To scale past that, the vertex space is
//! partitioned across N independent shard engines, each owning the
//! adjacency lists of its vertices. [`ShardRouter`] is the one place
//! that partitioning decision lives: every layer (ingest routing,
//! point reads on a cut, bench splitting, test oracles) asks the same router,
//! so a vertex's owner can never be computed two different ways.
//!
//! The mirroring convention: an undirected edge `{u, v}` is stored as
//! the directed arc `(u, v)` in `shard_of(u)` and the directed arc
//! `(v, u)` in `shard_of(v)`. Every neighbor scan of `v` is therefore
//! local to `v`'s owner shard, and summing per-shard directed edge
//! counts yields the global count with no double counting.
//!
//! [`VersionVector`] is the companion consistency primitive: one
//! monotone per-shard version sequence number per shard. A *cut*
//! (a set of per-shard snapshots) is labeled by the vector of versions
//! it pins; vectors are partially ordered by [`VersionVector::dominates`].

use crate::edges::VertexId;

/// Maps vertex ids to owning shards. Copyable, deterministic, and
/// cheap enough to call per edge endpoint on the ingest hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardRouter {
    /// Multiplicative hash of the vertex id, modulo the shard count.
    /// Balances power-law id spaces (rMAT hubs land on distinct shards
    /// with high probability) at the cost of destroying id locality.
    Hash {
        /// Number of shards (positive).
        shards: u32,
    },
    /// Contiguous id ranges of `stride` ids per shard: vertex `v` is
    /// owned by `min(v / stride, shards - 1)`. Preserves id locality
    /// (neighbors in generators with local structure co-locate) but
    /// inherits any skew in the id space.
    Range {
        /// Number of shards (positive).
        shards: u32,
        /// Ids per shard (positive); the last shard absorbs the tail.
        stride: u32,
    },
}

/// SplitMix64 finalizer: the full-avalanche mixer used for hash
/// routing. Public only through routing decisions; kept local so the
/// router has no dependencies.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardRouter {
    /// Hash routing over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn hash(shards: usize) -> Self {
        assert!(shards > 0, "a router needs at least one shard");
        ShardRouter::Hash {
            shards: shards as u32,
        }
    }

    /// Range routing over `shards` shards covering ids `0..id_span`
    /// (ids at or beyond `id_span` fall into the last shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn range(shards: usize, id_span: u32) -> Self {
        assert!(shards > 0, "a router needs at least one shard");
        let stride = (id_span / shards as u32).max(1);
        ShardRouter::Range {
            shards: shards as u32,
            stride,
        }
    }

    /// Number of shards this router partitions into.
    #[inline]
    pub fn num_shards(&self) -> usize {
        match *self {
            ShardRouter::Hash { shards } | ShardRouter::Range { shards, .. } => shards as usize,
        }
    }

    /// The shard owning vertex `v`; always `< num_shards()`.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        match *self {
            ShardRouter::Hash { shards } => {
                if shards == 1 {
                    0
                } else {
                    (mix64(u64::from(v)) % u64::from(shards)) as usize
                }
            }
            ShardRouter::Range { shards, stride } => ((v / stride).min(shards - 1)) as usize,
        }
    }

    /// The owner shards of an arc `(u, v)`'s two endpoints:
    /// `(shard_of(u), shard_of(v))`.
    #[inline]
    pub fn endpoints_of(&self, u: VertexId, v: VertexId) -> (usize, usize) {
        (self.shard_of(u), self.shard_of(v))
    }

    /// Whether the undirected edge `{u, v}` spans two shards (and is
    /// therefore mirrored to both under the arc convention).
    #[inline]
    pub fn is_cross_shard(&self, u: VertexId, v: VertexId) -> bool {
        self.shard_of(u) != self.shard_of(v)
    }
}

/// A monotone vector of per-shard version sequence numbers.
///
/// Shard `i`'s entry counts the batches its engine has installed
/// (0 = the initial snapshot). The sharded engine publishes a
/// consistent cut by capturing the vector after every shard has
/// installed the same ingest epoch; successive cuts' vectors are
/// totally ordered under [`dominates`](Self::dominates).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionVector(Vec<u64>);

impl VersionVector {
    /// The zero vector over `shards` entries.
    pub fn new(shards: usize) -> Self {
        VersionVector(vec![0; shards])
    }

    /// Wraps explicit per-shard versions.
    pub fn from_versions(versions: Vec<u64>) -> Self {
        VersionVector(versions)
    }

    /// Number of shards covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector covers no shards.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Shard `i`'s version sequence number.
    pub fn get(&self, i: usize) -> u64 {
        self.0[i]
    }

    /// The per-shard entries.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Advances shard `i` to `version`.
    ///
    /// # Panics
    ///
    /// Panics if `version` would move the entry backwards — entries
    /// are monotone by construction.
    pub fn advance(&mut self, i: usize, version: u64) {
        assert!(
            version >= self.0[i],
            "version vector is monotone: shard {i} cannot go {} -> {version}",
            self.0[i]
        );
        self.0[i] = version;
    }

    /// Whether every entry of `self` is at least the matching entry of
    /// `other` (i.e. `self` describes the same cut or a later one).
    pub fn dominates(&self, other: &VersionVector) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }
}

impl std::fmt::Display for VersionVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_router_is_deterministic_and_in_range() {
        let r = ShardRouter::hash(4);
        assert_eq!(r.num_shards(), 4);
        for v in 0u32..10_000 {
            let s = r.shard_of(v);
            assert!(s < 4);
            assert_eq!(s, r.shard_of(v), "routing must be stable");
        }
    }

    #[test]
    fn hash_router_balances_contiguous_ids() {
        let r = ShardRouter::hash(4);
        let mut counts = [0usize; 4];
        for v in 0u32..40_000 {
            counts[r.shard_of(v)] += 1;
        }
        for &c in &counts {
            // Within 10% of perfectly balanced.
            assert!((9_000..=11_000).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for r in [ShardRouter::hash(1), ShardRouter::range(1, 100)] {
            for v in [0u32, 1, 99, u32::MAX] {
                assert_eq!(r.shard_of(v), 0);
            }
        }
    }

    #[test]
    fn range_router_partitions_contiguously() {
        let r = ShardRouter::range(4, 100);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(24), 0);
        assert_eq!(r.shard_of(25), 1);
        assert_eq!(r.shard_of(99), 3);
        // Ids past the declared span land in the last shard.
        assert_eq!(r.shard_of(1_000_000), 3);
    }

    #[test]
    fn range_router_survives_tiny_spans() {
        let r = ShardRouter::range(8, 3); // stride clamps to 1
        for v in 0..3u32 {
            assert!(r.shard_of(v) < 8);
        }
        assert_eq!(r.shard_of(500), 7);
    }

    #[test]
    fn cross_shard_predicate_matches_shard_of() {
        let r = ShardRouter::hash(3);
        for (u, v) in [(0u32, 1u32), (5, 5), (17, 40)] {
            assert_eq!(
                r.is_cross_shard(u, v),
                r.shard_of(u) != r.shard_of(v),
                "({u},{v})"
            );
            assert_eq!(r.endpoints_of(u, v), (r.shard_of(u), r.shard_of(v)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::hash(0);
    }

    #[test]
    fn version_vector_advances_and_dominates() {
        let mut a = VersionVector::new(3);
        assert_eq!(a.len(), 3);
        a.advance(0, 2);
        a.advance(2, 1);
        assert_eq!(a.as_slice(), &[2, 0, 1]);
        let b = VersionVector::from_versions(vec![1, 0, 1]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a.clone()));
        // Different widths never dominate.
        assert!(!a.dominates(&VersionVector::new(2)));
        assert_eq!(a.to_string(), "[2, 0, 1]");
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn version_vector_rejects_regression() {
        let mut a = VersionVector::new(1);
        a.advance(0, 5);
        a.advance(0, 4);
    }
}
