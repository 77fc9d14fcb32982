//! Synthetic stand-ins for the paper's input graphs (Table 1).
//!
//! The real datasets (LiveJournal … Hyperlink2012, up to 225B edges)
//! are multi-gigabyte downloads evaluated on a 72-core/1TB machine.
//! This reproduction substitutes rMAT graphs with *matched average
//! degree* at scales sized for a small machine; rMAT's heavy-tailed
//! degree distribution is the standard proxy for such social/web
//! graphs. Every experiment keeps the paper's structure — the sweeps,
//! the derived metrics, and the cross-system ratios — at the reduced
//! scale. `benchmark/README.md` ("Datasets and seeds") says which
//! stand-ins the repo benchmark runs on.

use aspen::{ChunkParams, CompressedEdges, Graph};
use graphgen::Rmat;

/// A named synthetic dataset specification.
#[derive(Clone, Copy, Debug)]
pub struct Dataset {
    /// Stand-in name, matching the paper's dataset it substitutes.
    pub name: &'static str,
    /// log2 of the vertex-id space.
    pub scale: u32,
    /// Target average (directed) degree, matching Table 1.
    pub avg_degree: u32,
    /// rMAT seed.
    pub seed: u64,
}

impl Dataset {
    /// Target number of directed edges.
    pub fn target_edges(&self) -> usize {
        (1usize << self.scale) * self.avg_degree as usize
    }

    /// Generates the symmetric directed edge list.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        Rmat::new(self.scale, self.seed).symmetric_graph_edges(self.target_edges())
    }

    /// Builds the default Aspen graph (C-trees with difference
    /// encoding, `b = 2⁸` as in §7).
    pub fn build(&self) -> Graph<CompressedEdges> {
        Graph::from_edges(&self.edges(), default_b())
    }
}

/// The paper's main-experiment chunk parameter (`b = 2⁸`, Table 5).
pub fn default_b() -> ChunkParams {
    ChunkParams::with_b(1 << 8)
}

/// The small tier: stand-ins for LiveJournal, com-Orkut and Twitter
/// with the paper's average degrees (17.8, 76.2, 57.7) at reduced
/// scale.
pub const SMALL: &[Dataset] = &[
    Dataset {
        name: "soc-LJ-sim",
        scale: 16,
        avg_degree: 18,
        seed: 0xA5,
    },
    Dataset {
        name: "com-Orkut-sim",
        scale: 14,
        avg_degree: 76,
        seed: 0xB6,
    },
    Dataset {
        name: "Twitter-sim",
        scale: 16,
        avg_degree: 58,
        seed: 0xC7,
    },
];

/// The large tier: stand-ins for the web graphs (ClueWeb and the two
/// Hyperlink crawls, avg degrees 76.4 / 72.0 / 63.3), still reduced to
/// laptop scale.
pub const LARGE: &[Dataset] = &[
    Dataset {
        name: "ClueWeb-sim",
        scale: 17,
        avg_degree: 76,
        seed: 0xD8,
    },
    Dataset {
        name: "Hyperlink14-sim",
        scale: 18,
        avg_degree: 72,
        seed: 0xE9,
    },
    Dataset {
        name: "Hyperlink12-sim",
        scale: 18,
        avg_degree: 63,
        seed: 0xFA,
    },
];

/// Look up a dataset by name across both tiers.
pub fn by_name(name: &str) -> Option<Dataset> {
    SMALL
        .iter()
        .chain(LARGE.iter())
        .copied()
        .find(|d| d.name == name)
}

/// A tiny dataset for smoke tests and examples.
pub fn tiny() -> Dataset {
    Dataset {
        name: "tiny",
        scale: 10,
        avg_degree: 8,
        seed: 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_builds_and_matches_spec() {
        let d = tiny();
        let g = d.build();
        assert!(g.num_vertices() > 0);
        // average degree should be within 2x of target (rMAT dedup
        // and isolated vertices shift it)
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 2.0, "avg degree {avg} too low");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("soc-LJ-sim").is_some());
        assert!(by_name("ClueWeb-sim").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn small_tier_has_three_graphs() {
        assert_eq!(SMALL.len(), 3);
        assert_eq!(LARGE.len(), 3);
    }
}
