//! The immutable graph: a purely-functional tree of vertices, each
//! holding a persistent edge set (§5, "Representing Graphs as Trees").

use crate::edges::{EdgeSet, VertexId};
use crate::view::GraphView;
use ptree::{CountAug, Entry, Measure, Tree};
use rayon::prelude::*;
use std::marker::PhantomData;

/// One vertex: its identifier and its adjacency set.
#[derive(Clone, Debug)]
pub struct VertexEntry<E> {
    /// Vertex identifier (the vertex-tree key).
    pub id: VertexId,
    /// Neighbors of this vertex.
    pub edges: E,
}

impl<E: EdgeSet> Entry for VertexEntry<E> {
    type Key = VertexId;

    #[inline]
    fn key(&self) -> &VertexId {
        &self.id
    }
}

/// Measures a vertex by its degree, so the vertex-tree's augmented
/// value is the total number of (directed) edges — the `O(1)`
/// `num_edges()` the paper gets from augmentation (§5).
#[derive(Clone, Debug)]
pub struct EdgeMeasure<E>(PhantomData<E>);

impl<E: EdgeSet> Measure<VertexEntry<E>> for EdgeMeasure<E> {
    #[inline]
    fn measure(entry: &VertexEntry<E>) -> u64 {
        entry.edges.degree() as u64
    }
}

/// The augmented vertex tree.
pub type VertexTree<E> = Tree<VertexEntry<E>, CountAug<EdgeMeasure<E>>>;

/// An immutable snapshot of an undirected graph.
///
/// `Graph` is a handle onto purely-functional structures: cloning is
/// `O(1)` and yields an isolated snapshot; all "mutators" return a new
/// graph. Undirectedness is a convention maintained by the update
/// helpers in [`crate::VersionedGraph`], which mirror every `(u, v)`
/// as `(v, u)` — exactly how the paper runs its experiments (§7.3).
///
/// # Example
///
/// ```
/// use aspen::{CompressedEdges, Graph};
///
/// let g: Graph<CompressedEdges> =
///     Graph::from_edges(&[(0, 1), (1, 0), (1, 2), (2, 1)], Default::default());
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 4); // directed count
/// assert_eq!(g.degree(1), 2);
/// ```
pub struct Graph<E: EdgeSet> {
    vertices: VertexTree<E>,
    cfg: E::Config,
}

impl<E: EdgeSet> Clone for Graph<E> {
    fn clone(&self) -> Self {
        Graph {
            vertices: self.vertices.clone(),
            cfg: self.cfg,
        }
    }
}

impl<E: EdgeSet> std::fmt::Debug for Graph<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

impl<E: EdgeSet> Default for Graph<E> {
    fn default() -> Self {
        Self::new(E::Config::default())
    }
}

impl<E: EdgeSet> Graph<E> {
    /// The empty graph.
    pub fn new(cfg: E::Config) -> Self {
        Graph {
            vertices: Tree::new(),
            cfg,
        }
    }

    /// The edge-set construction parameters used by this graph.
    #[inline]
    pub fn config(&self) -> E::Config {
        self.cfg
    }

    pub(crate) fn vertex_tree(&self) -> &VertexTree<E> {
        &self.vertices
    }

    pub(crate) fn from_parts(vertices: VertexTree<E>, cfg: E::Config) -> Self {
        Graph { vertices, cfg }
    }

    /// Builds a graph from a directed edge list (the paper's
    /// `BuildGraph`). Duplicate edges collapse; vertices are the union
    /// of all endpoints, so every mentioned vertex exists even with
    /// zero out-edges.
    pub fn from_edges(edges: &[(VertexId, VertexId)], cfg: E::Config) -> Self {
        let sorted = sorted_arcs(edges);
        Self::from_sorted_arcs(&sorted, cfg).insert_missing_targets(&sorted)
    }

    /// Builds a graph holding exactly the **sources** of `arcs`: like
    /// [`from_edges`](Self::from_edges) without the target pass, so an
    /// id that only appears as a target gets no vertex entry. This is
    /// how a shard of a sharded engine is built — a target's entry
    /// lives in its owner shard, where the mirror arc makes it a source.
    pub fn from_arcs(arcs: &[(VertexId, VertexId)], cfg: E::Config) -> Self {
        Self::from_sorted_arcs(&sorted_arcs(arcs), cfg)
    }

    fn from_sorted_arcs(sorted: &[(VertexId, VertexId)], cfg: E::Config) -> Self {
        Graph {
            vertices: Tree::from_sorted(&source_entries(sorted, cfg)),
            cfg,
        }
    }

    /// Builds from explicit adjacency lists `(vertex, sorted neighbors)`
    /// given in increasing vertex order.
    pub fn from_adjacency(adj: &[(VertexId, Vec<VertexId>)], cfg: E::Config) -> Self {
        let entries: Vec<VertexEntry<E>> = adj
            .par_iter()
            .map(|(id, neighbors)| VertexEntry {
                id: *id,
                edges: E::from_sorted(neighbors, cfg),
            })
            .collect();
        Graph {
            vertices: Tree::from_sorted(&entries),
            cfg,
        }
    }

    /// Number of vertices; `O(1)`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges; `O(1)` via the edge-count
    /// augmentation.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.vertices.aug().value()
    }

    /// Largest vertex id present, or `None` for the empty graph.
    pub fn max_vertex_id(&self) -> Option<VertexId> {
        self.vertices.last().map(|e| e.id)
    }

    /// Looks up a vertex (the paper's `FindVertex`); `O(log n)`.
    pub fn find_vertex(&self, v: VertexId) -> Option<&VertexEntry<E>> {
        self.vertices.find(&v)
    }

    /// Whether `v` exists in the graph.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Degree of `v` (0 if absent); `O(log n)`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.find_vertex(v).map_or(0, |e| e.edges.degree())
    }

    /// Whether the directed edge `(u, v)` exists.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_vertex(u).is_some_and(|e| e.edges.contains(v))
    }

    /// Iterates `(vertex, neighbor)` pairs sequentially in sorted order.
    pub fn for_each_edge(&self, mut f: impl FnMut(VertexId, VertexId)) {
        self.vertices.for_each_seq(&mut |entry| {
            let u = entry.id;
            entry.edges.for_each(&mut |v| f(u, v));
        });
    }

    /// All vertex ids in increasing order.
    pub fn vertex_ids(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.num_vertices());
        self.vertices.for_each_seq(&mut |e| out.push(e.id));
        out
    }

    /// Inserts a batch of **directed** edges (the paper's
    /// `InsertEdges`, §5 "Batch Updates"): [`insert_arcs`](Self::insert_arcs),
    /// then an edgeless vertex for every target that is still missing.
    ///
    /// `O(k log n)` work for a batch of `k` onto a graph of `n`
    /// vertices.
    pub fn insert_edges(&self, batch: &[(VertexId, VertexId)]) -> Self {
        if batch.is_empty() {
            return self.clone();
        }
        let sorted = sorted_arcs(batch);
        self.insert_sorted_arcs(&sorted)
            .insert_missing_targets(&sorted)
    }

    /// Inserts a batch of directed arcs without the destination pass:
    /// sort the batch, build an edge set per source, and `MultiInsert`
    /// into the vertex tree with `Union` as the combiner. Missing
    /// sources are created; a target that is not a source gets no
    /// entry (see [`from_arcs`](Self::from_arcs)).
    pub fn insert_arcs(&self, batch: &[(VertexId, VertexId)]) -> Self {
        if batch.is_empty() {
            return self.clone();
        }
        self.insert_sorted_arcs(&sorted_arcs(batch))
    }

    fn insert_sorted_arcs(&self, sorted: &[(VertexId, VertexId)]) -> Self {
        let vertices = self
            .vertices
            .multi_insert(source_entries(sorted, self.cfg), |old, new| VertexEntry {
                id: old.id,
                edges: old.edges.union(&new.edges),
            });
        Graph {
            vertices,
            cfg: self.cfg,
        }
    }

    /// Creates an edgeless vertex for every target of `sorted` (sorted,
    /// deduplicated arcs already inserted into `self`) that has no
    /// entry yet. Targets that are also sources of the batch exist by
    /// now, so only the rest cost a tree lookup.
    fn insert_missing_targets(&self, sorted: &[(VertexId, VertexId)]) -> Self {
        let mut targets: Vec<VertexId> = sorted.iter().map(|&(_, v)| v).collect();
        targets.par_sort_unstable();
        targets.dedup();
        let mut src = 0;
        targets.retain(|&v| {
            while src < sorted.len() && sorted[src].0 < v {
                src += 1;
            }
            let is_source = src < sorted.len() && sorted[src].0 == v;
            !is_source && !self.contains_vertex(v)
        });
        if targets.is_empty() {
            self.clone()
        } else {
            self.insert_vertices(&targets)
        }
    }

    /// Deletes a batch of **directed** edges (`DeleteEdges`): like
    /// insertion but combining with `Difference`. Vertices are kept
    /// even if their degree drops to zero (the paper makes singleton
    /// removal optional; we keep them).
    pub fn delete_edges(&self, batch: &[(VertexId, VertexId)]) -> Self {
        if batch.is_empty() {
            return self.clone();
        }
        let mut entries = source_entries(&sorted_arcs(batch), self.cfg);
        // A source absent from the graph has nothing to delete;
        // filtering here keeps MultiInsert from inserting it.
        entries.retain(|e| self.contains_vertex(e.id));
        let vertices = self.vertices.multi_insert(entries, |old, new| VertexEntry {
            id: old.id,
            edges: old.edges.difference(&new.edges),
        });
        Graph {
            vertices,
            cfg: self.cfg,
        }
    }

    /// Inserts vertices with empty adjacency sets (`InsertVertices`).
    /// Existing vertices are left untouched.
    pub fn insert_vertices(&self, ids: &[VertexId]) -> Self {
        let cfg = self.cfg;
        let entries: Vec<VertexEntry<E>> = ids
            .iter()
            .map(|&id| VertexEntry {
                id,
                edges: E::empty(cfg),
            })
            .collect();
        let vertices = self.vertices.multi_insert(entries, |old, _new| old.clone());
        Graph { vertices, cfg }
    }

    /// Deletes vertices and all incident edges (`DeleteVertices`),
    /// yielding the induced subgraph `G[V \ ids]`. Assumes the
    /// symmetric (undirected) edge invariant, under which every edge
    /// incident to a deleted vertex is discoverable from the vertex
    /// itself.
    pub fn delete_vertices(&self, ids: &[VertexId]) -> Self {
        let cfg = self.cfg;
        // Collect reverse edges to scrub from surviving vertices.
        let mut incident: Vec<(VertexId, VertexId)> = Vec::new();
        for &v in ids {
            if let Some(entry) = self.find_vertex(v) {
                entry.edges.for_each(&mut |u| incident.push((u, v)));
            }
        }
        let scrubbed = self.delete_edges(&incident);
        let vertices = scrubbed.vertices.multi_delete(ids.to_vec());
        Graph { vertices, cfg }
    }

    /// Applies `f` to every vertex entry in parallel.
    pub fn par_for_each_vertex(&self, f: impl Fn(&VertexEntry<E>) + Sync) {
        self.vertices.par_for_each(f);
    }

    /// Heap bytes: vertex-tree nodes plus all edge-set payloads.
    /// The counterpart of the paper's Table 2 accounting.
    pub fn memory_bytes(&self) -> usize {
        let edges: u64 =
            self.vertices
                .map_reduce(|e| e.edges.memory_bytes() as u64, |a, b| a + b, || 0);
        self.vertices.memory_bytes() + edges as usize
    }

    /// Validates graph-level invariants (sorted adjacency, edge counts);
    /// for tests.
    ///
    /// # Panics
    ///
    /// Panics if any cached count disagrees with a full recount.
    pub fn check_invariants(&self) {
        self.vertices.check_invariants();
        let mut total = 0u64;
        self.vertices.for_each_seq(&mut |e| {
            let vec = e.edges.to_vec();
            assert!(vec.windows(2).all(|w| w[0] < w[1]), "adjacency unsorted");
            assert_eq!(vec.len(), e.edges.degree(), "degree cache stale");
            total += vec.len() as u64;
        });
        assert_eq!(total, self.num_edges(), "edge-count augmentation stale");
    }
}

/// `batch` sorted by `(source, target)` with duplicates removed.
fn sorted_arcs(batch: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId)> {
    let mut sorted = batch.to_vec();
    sorted.par_sort_unstable();
    sorted.dedup();
    sorted
}

/// One vertex entry per source of `sorted` (as [`sorted_arcs`] returns
/// it), holding that source's targets.
fn source_entries<E: EdgeSet>(
    sorted: &[(VertexId, VertexId)],
    cfg: E::Config,
) -> Vec<VertexEntry<E>> {
    let targets: Vec<VertexId> = sorted.iter().map(|&(_, v)| v).collect();
    let mut entries = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let (id, start) = (sorted[i].0, i);
        while i < sorted.len() && sorted[i].0 == id {
            i += 1;
        }
        entries.push(VertexEntry {
            id,
            edges: E::from_sorted(&targets[start..i], cfg),
        });
    }
    entries
}

impl<E: EdgeSet> GraphView for Graph<E> {
    fn id_bound(&self) -> usize {
        self.max_vertex_id().map_or(0, |m| m as usize + 1)
    }

    fn num_edges(&self) -> u64 {
        Graph::num_edges(self)
    }

    fn degree(&self, v: VertexId) -> usize {
        Graph::degree(self, v)
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        if let Some(entry) = self.find_vertex(v) {
            entry.edges.for_each(f);
        }
    }

    fn for_each_neighbor_until(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        match self.find_vertex(v) {
            Some(entry) => entry.edges.for_each_until(f),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::{CompressedEdges, UncompressedEdges};
    use ctree::ChunkParams;

    type G = Graph<CompressedEdges>;

    fn sym(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
    }

    #[test]
    fn empty_graph() {
        let g = G::new(ChunkParams::default());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert!(!g.contains_edge(0, 1));
    }

    #[test]
    fn from_edges_builds_expected_shape() {
        let g = G::from_edges(&sym(&[(0, 1), (1, 2), (0, 2)]), ChunkParams::default());
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert!(g.contains_edge(2, 0));
        assert!(!g.contains_edge(2, 3));
        g.check_invariants();
    }

    #[test]
    fn from_edges_creates_sink_vertices() {
        // 5 appears only as a destination.
        let g = G::from_edges(&[(1, 5)], ChunkParams::default());
        assert!(g.contains_vertex(5));
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn arc_inserts_create_sources_only() {
        let g = G::from_arcs(&[(1, 5), (1, 2), (2, 1)], ChunkParams::default());
        assert_eq!(g.vertex_ids(), vec![1, 2], "no entry for target-only 5");
        assert_eq!(g.num_edges(), 3);
        let arcs = g.insert_arcs(&[(3, 9), (1, 7)]);
        assert_eq!(arcs.vertex_ids(), vec![1, 2, 3]);
        assert!(arcs.contains_edge(3, 9) && arcs.contains_edge(1, 7));
        arcs.check_invariants();
        // The same batch through insert_edges materialises its targets.
        let edges = g.insert_edges(&[(3, 9), (1, 7)]);
        assert_eq!(edges.vertex_ids(), vec![1, 2, 3, 7, 9]);
        assert_eq!(edges.num_edges(), arcs.num_edges());
        assert_eq!(edges.degree(9), 0);
        edges.check_invariants();
    }

    #[test]
    fn insert_edges_is_persistent() {
        let g = G::from_edges(&sym(&[(0, 1)]), ChunkParams::default());
        let g2 = g.insert_edges(&sym(&[(1, 2)]));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g2.num_edges(), 4);
        assert!(g2.contains_edge(2, 1));
        assert!(!g.contains_vertex(2));
        g2.check_invariants();
    }

    #[test]
    fn insert_duplicate_edges_is_idempotent() {
        let g = G::from_edges(&sym(&[(0, 1)]), ChunkParams::default());
        let g2 = g.insert_edges(&sym(&[(0, 1), (0, 1)]));
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn delete_edges_roundtrip() {
        let edges = sym(&[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let g = G::from_edges(&edges, ChunkParams::default());
        let g2 = g.delete_edges(&sym(&[(1, 2)]));
        assert_eq!(g2.num_edges(), 6);
        assert!(!g2.contains_edge(1, 2));
        assert!(!g2.contains_edge(2, 1));
        // vertices survive with zero edges
        assert!(g2.contains_vertex(2));
        // deleting a non-existent edge or vertex is a no-op
        let g3 = g2.delete_edges(&[(9, 1), (1, 9)]);
        assert_eq!(g3.num_edges(), 6);
        g3.check_invariants();
    }

    #[test]
    fn insert_vertices_only_adds_missing() {
        let g = G::from_edges(&sym(&[(0, 1)]), ChunkParams::default());
        let g2 = g.insert_vertices(&[0, 7]);
        assert_eq!(g2.num_vertices(), 3);
        assert_eq!(g2.degree(0), 1, "existing vertex edges preserved");
    }

    #[test]
    fn delete_vertices_removes_incident_edges() {
        let g = G::from_edges(&sym(&[(0, 1), (1, 2), (0, 2)]), ChunkParams::default());
        let g2 = g.delete_vertices(&[1]);
        assert_eq!(g2.num_vertices(), 2);
        assert!(!g2.contains_vertex(1));
        assert!(!g2.contains_edge(0, 1));
        assert!(g2.contains_edge(0, 2));
        assert_eq!(g2.num_edges(), 2);
        g2.check_invariants();
    }

    #[test]
    fn graph_view_over_tree_lookups() {
        let g = G::from_edges(&sym(&[(0, 1), (1, 2)]), ChunkParams::default());
        let view: &dyn GraphView = &g;
        assert_eq!(view.id_bound(), 3);
        let mut ns = Vec::new();
        view.for_each_neighbor(1, &mut |v| ns.push(v));
        assert_eq!(ns, vec![0, 2]);
    }

    #[test]
    fn works_with_uncompressed_representation() {
        let g: Graph<UncompressedEdges> = Graph::from_edges(&sym(&[(0, 1), (1, 2)]), ());
        assert_eq!(g.num_edges(), 4);
        let g2 = g.delete_edges(&sym(&[(0, 1)]));
        assert_eq!(g2.num_edges(), 2);
        g2.check_invariants();
    }

    #[test]
    fn memory_accounting_is_monotone() {
        let small = G::from_edges(&sym(&[(0, 1)]), ChunkParams::default());
        let edges: Vec<(u32, u32)> = (0u32..200).map(|i| (i, (i + 1) % 200)).collect();
        let big = G::from_edges(&sym(&edges), ChunkParams::default());
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn large_batch_update_matches_rebuild() {
        let initial: Vec<(u32, u32)> = (0..500u32).map(|i| (i, (i * 7 + 1) % 500)).collect();
        let extra: Vec<(u32, u32)> = (0..500u32).map(|i| (i, (i * 11 + 3) % 500)).collect();
        let g = G::from_edges(&sym(&initial), ChunkParams::default());
        let g2 = g.insert_edges(&sym(&extra));
        let mut all = sym(&initial);
        all.extend(sym(&extra));
        let rebuilt = G::from_edges(&all, ChunkParams::default());
        assert_eq!(g2.num_edges(), rebuilt.num_edges());
        for v in rebuilt.vertex_ids() {
            assert_eq!(
                g2.find_vertex(v).unwrap().edges.to_vec(),
                rebuilt.find_vertex(v).unwrap().edges.to_vec(),
                "adjacency of {v}"
            );
        }
    }
}
