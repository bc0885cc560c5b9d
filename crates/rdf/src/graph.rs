//! The RDF graph: a dictionary-encoded directed labeled multigraph.

use crate::dictionary::Dictionary;
use crate::ids::{PropertyId, VertexId};
use crate::triple::Triple;
use crate::narrow;
use std::sync::Arc;

/// An RDF graph `G = {V, E, L, f}` (Definition 3.1).
///
/// * `V` — vertices `0..vertex_count()`,
/// * `E` — the multiset of directed edges in [`triples`](Self::triples),
/// * `L` — properties `0..property_count()`,
/// * `f` — each triple carries its own label.
///
/// The graph stores a per-property CSR index (all triple positions grouped
/// by property), because the MPC algorithm is property-centric: building
/// `DS({p})`, trial-merging a candidate property, and inducing `G[L']` all
/// iterate "the edges of property p".
///
/// Graphs can be built either through a [`crate::GraphBuilder`] (which
/// interns real terms) or from raw ids via [`RdfGraph::from_raw`] (used by
/// the large synthetic generators where materializing IRIs for hundreds of
/// millions of edges would only burn memory). A raw graph has an empty
/// [`Dictionary`].
///
/// The dictionary sits behind an `Arc`, so cloning a graph or handing
/// its dictionary to a server or a live-update layer
/// ([`RdfGraph::shared_dictionary`]) never copies the terms.
#[derive(Clone, Debug)]
pub struct RdfGraph {
    dict: Arc<Dictionary>,
    triples: Vec<Triple>,
    vertex_count: usize,
    property_count: usize,
    /// CSR offsets into `prop_triples`, length `property_count + 1`.
    prop_offsets: Vec<u32>,
    /// Triple indices grouped by property.
    prop_triples: Vec<u32>,
}

impl RdfGraph {
    /// Builds a graph from raw dictionary-encoded triples.
    ///
    /// # Panics
    /// Panics if any triple references a vertex `>= vertex_count` or a
    /// property `>= property_count`.
    pub fn from_raw(vertex_count: usize, property_count: usize, triples: Vec<Triple>) -> Self {
        Self::assemble(Arc::default(), vertex_count, property_count, triples)
    }

    /// Builds a graph from an interning dictionary plus its triples.
    pub fn from_dictionary(dict: Dictionary, triples: Vec<Triple>) -> Self {
        let vc = dict.vertex_count();
        let pc = dict.property_count();
        Self::assemble(Arc::new(dict), vc, pc, triples)
    }

    fn assemble(
        dict: Arc<Dictionary>,
        vertex_count: usize,
        property_count: usize,
        triples: Vec<Triple>,
    ) -> Self {
        // Counting sort of triple indices by property: one pass to count,
        // one pass to place. O(|E| + |L|).
        let mut counts = vec![0u32; property_count + 1];
        for t in &triples {
            assert!(t.s.index() < vertex_count, "subject {} out of range", t.s);
            assert!(t.o.index() < vertex_count, "object {} out of range", t.o);
            assert!(
                t.p.index() < property_count,
                "property {} out of range",
                t.p
            );
            counts[t.p.index() + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let prop_offsets = counts.clone();
        let mut cursor = counts;
        let mut prop_triples = vec![0u32; triples.len()];
        for (i, t) in triples.iter().enumerate() {
            let slot = cursor[t.p.index()];
            prop_triples[slot as usize] = narrow::u32_from(i);
            cursor[t.p.index()] += 1;
        }
        RdfGraph {
            dict,
            triples,
            vertex_count,
            property_count,
            prop_offsets,
            prop_triples,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of triples (edges) `|E|`.
    #[inline]
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// Number of distinct properties `|L|`.
    #[inline]
    pub fn property_count(&self) -> usize {
        self.property_count
    }

    /// All triples, in insertion order.
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The triple at a given index.
    #[inline]
    pub fn triple(&self, idx: u32) -> Triple {
        self.triples[idx as usize]
    }

    /// The interning dictionary (empty for [`RdfGraph::from_raw`] graphs).
    #[inline]
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The interning dictionary, shared rather than copied.
    #[inline]
    pub fn shared_dictionary(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dict)
    }

    /// Iterator over all property ids.
    pub fn property_ids(&self) -> impl Iterator<Item = PropertyId> {
        (0..narrow::u32_from(self.property_count)).map(PropertyId)
    }

    /// Iterator over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..narrow::u32_from(self.vertex_count)).map(VertexId)
    }

    /// Indices (into [`triples`](Self::triples)) of all edges labeled `p`.
    #[inline]
    pub fn property_triple_indices(&self, p: PropertyId) -> &[u32] {
        let lo = self.prop_offsets[p.index()] as usize;
        let hi = self.prop_offsets[p.index() + 1] as usize;
        &self.prop_triples[lo..hi]
    }

    /// Iterator over the triples labeled `p`.
    pub fn property_triples(&self, p: PropertyId) -> impl Iterator<Item = Triple> + '_ {
        self.property_triple_indices(p)
            .iter()
            .map(move |&i| self.triples[i as usize])
    }

    /// Number of edges labeled `p` (the property's frequency).
    #[inline]
    pub fn property_frequency(&self, p: PropertyId) -> usize {
        self.property_triple_indices(p).len()
    }

    /// Properties sorted by ascending frequency — the order in which the
    /// greedy selection tends to admit them (rare properties induce small
    /// WCCs).
    pub fn properties_by_frequency(&self) -> Vec<PropertyId> {
        let mut props: Vec<PropertyId> = self.property_ids().collect();
        props.sort_by_key(|&p| self.property_frequency(p));
        props
    }

    /// Undirected adjacency with parallel edges collapsed: for every vertex,
    /// the list of `(neighbor, multiplicity)` pairs. Self-loops are dropped
    /// (they can never be crossing edges). This is the input shape the
    /// multilevel min edge-cut partitioner consumes.
    pub fn undirected_adjacency(&self) -> Vec<Vec<(VertexId, u32)>> {
        let mut adj: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); self.vertex_count];
        for t in &self.triples {
            if t.is_loop() {
                continue;
            }
            adj[t.s.index()].push((t.o, 1));
            adj[t.o.index()].push((t.s, 1));
        }
        // Collapse duplicates by sorting each neighbor list.
        for list in &mut adj {
            list.sort_unstable_by_key(|&(v, _)| v);
            let mut w = 0;
            for r in 0..list.len() {
                if w > 0 && list[w - 1].0 == list[r].0 {
                    list[w - 1].1 += list[r].1;
                } else {
                    list[w] = list[r];
                    w += 1;
                }
            }
            list.truncate(w);
        }
        adj
    }

    /// Histogram of undirected vertex degrees in power-of-two buckets:
    /// bucket 0 counts isolated vertices and bucket `i ≥ 1` counts degrees
    /// in `[2^(i-1), 2^i)`. Useful for eyeballing how hub-heavy a generated
    /// graph is.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut degree = vec![0usize; self.vertex_count];
        for t in &self.triples {
            degree[t.s.index()] += 1;
            if t.o != t.s {
                degree[t.o.index()] += 1;
            }
        }
        let mut hist = Vec::new();
        for d in degree {
            let bucket = if d == 0 {
                0
            } else {
                (usize::BITS - d.leading_zeros()) as usize
            };
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        hist
    }

    /// Summary statistics used by generators and reports.
    pub fn stats(&self) -> GraphStats {
        let mut max_freq = 0usize;
        let mut min_freq = usize::MAX;
        for p in self.property_ids() {
            let f = self.property_frequency(p);
            max_freq = max_freq.max(f);
            min_freq = min_freq.min(f);
        }
        if self.property_count == 0 {
            min_freq = 0;
        }
        GraphStats {
            vertices: self.vertex_count,
            triples: self.triples.len(),
            properties: self.property_count,
            max_property_frequency: max_freq,
            min_property_frequency: min_freq,
        }
    }
}

/// Compact summary of a graph's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// `|V|`.
    pub vertices: usize,
    /// `|E|`.
    pub triples: usize,
    /// `|L|`.
    pub properties: usize,
    /// Largest number of edges sharing one property.
    pub max_property_frequency: usize,
    /// Smallest number of edges sharing one property.
    pub min_property_frequency: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn sample() -> RdfGraph {
        RdfGraph::from_raw(5, 3, vec![t(0, 0, 1), t(1, 1, 2), t(2, 0, 3), t(3, 2, 4), t(0, 0, 2)])
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.triple_count(), 5);
        assert_eq!(g.property_count(), 3);
    }

    #[test]
    fn property_index_groups_edges() {
        let g = sample();
        assert_eq!(g.property_frequency(PropertyId(0)), 3);
        assert_eq!(g.property_frequency(PropertyId(1)), 1);
        assert_eq!(g.property_frequency(PropertyId(2)), 1);
        let p0: Vec<Triple> = g.property_triples(PropertyId(0)).collect();
        assert!(p0.contains(&t(0, 0, 1)));
        assert!(p0.contains(&t(2, 0, 3)));
        assert!(p0.contains(&t(0, 0, 2)));
    }

    #[test]
    fn property_index_covers_all_triples_once() {
        let g = sample();
        let total: usize = g
            .property_ids()
            .map(|p| g.property_triple_indices(p).len())
            .sum();
        assert_eq!(total, g.triple_count());
    }

    #[test]
    fn frequency_ordering() {
        let g = sample();
        let order = g.properties_by_frequency();
        assert_eq!(order.last().copied(), Some(PropertyId(0)));
    }

    #[test]
    fn undirected_adjacency_collapses_parallel_edges() {
        let g = RdfGraph::from_raw(3, 2, vec![t(0, 0, 1), t(1, 1, 0), t(0, 1, 1), t(2, 0, 2)]);
        let adj = g.undirected_adjacency();
        // Three parallel edges between 0 and 1 (in either direction).
        assert_eq!(adj[0], vec![(VertexId(1), 3)]);
        assert_eq!(adj[1], vec![(VertexId(0), 3)]);
        // The self-loop on 2 is dropped.
        assert!(adj[2].is_empty());
    }

    #[test]
    fn stats() {
        let g = sample();
        let s = g.stats();
        assert_eq!(s.vertices, 5);
        assert_eq!(s.triples, 5);
        assert_eq!(s.properties, 3);
        assert_eq!(s.max_property_frequency, 3);
        assert_eq!(s.min_property_frequency, 1);
    }

    #[test]
    fn degree_histogram_buckets() {
        // Vertex 0: degree 3 (bucket 2); vertices 1,2,3: degree 1
        // (bucket 1); vertex 4: degree 0 (bucket 0).
        let g = RdfGraph::from_raw(
            5,
            1,
            vec![t(0, 0, 1), t(0, 0, 2), t(0, 0, 3)],
        );
        let hist = g.degree_histogram();
        assert_eq!(hist, vec![1, 3, 1]);
        assert_eq!(hist.iter().sum::<usize>(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_vertices() {
        RdfGraph::from_raw(1, 1, vec![t(0, 0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = RdfGraph::from_raw(0, 0, vec![]);
        assert_eq!(g.stats().min_property_frequency, 0);
        assert_eq!(g.undirected_adjacency().len(), 0);
    }
}
