//! Component-local reachability estimation — the F-tree's sampling kernel
//! (§5.3, Lemma 1 applied per bi-connected component).
//!
//! A bi-connected component `BC = (BC.V, BC.P(v), BC.AV)` needs the
//! probability that each of its vertices reaches the articulation vertex
//! using *only the component's edges*. [`ComponentGraph`] snapshots the
//! component into a compact local-index form once, then either
//! * samples it (`sample_reachability`) — the paper's estimator, or
//! * enumerates it exactly (`exact_reachability`) — possible because
//!   components are small; this powers the `Exact`/`Hybrid` estimators used
//!   for ground-truth testing and low-variance evaluation.

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};

use crate::batch::WorldBatch;
use crate::coin::scalar_coin;
use crate::confidence::{wald_interval, ConfidenceInterval};
use crate::rng::{splitmix64, FlowRng, SeedSequence};

/// Reusable global-vertex → local-id scratch map for
/// [`ComponentGraph::build_with`].
///
/// A graph-sized dense array replaces the per-snapshot `HashMap` the
/// builder used to allocate: entries are validated by an epoch counter, so
/// resetting between builds is a single integer increment rather than a
/// clear or a reallocation. Allocate one per solver session (the F-tree
/// owns one) and thread it through every snapshot build.
#[derive(Debug, Clone, Default)]
pub struct LocalIdScratch {
    /// `local[v]` is valid iff `mark[v] == epoch`.
    mark: Vec<u64>,
    local: Vec<u32>,
    epoch: u64,
}

impl LocalIdScratch {
    /// A scratch sized for graphs with `vertex_count` vertices.
    pub fn new(vertex_count: usize) -> Self {
        LocalIdScratch {
            mark: vec![0; vertex_count],
            local: vec![0; vertex_count],
            epoch: 0,
        }
    }

    /// Starts a new build: bumps the epoch (invalidating every entry in
    /// O(1)) and grows the arrays if the graph is larger than any seen
    /// before.
    fn begin(&mut self, vertex_count: usize) {
        if self.mark.len() < vertex_count {
            self.mark.resize(vertex_count, 0);
            self.local.resize(vertex_count, 0);
        }
        self.epoch += 1;
    }

    /// The local id of `v`, assigning the next one (and recording `v` in
    /// `vertices`) on first sight this epoch.
    #[inline]
    fn local_of(&mut self, v: VertexId, vertices: &mut Vec<VertexId>) -> u32 {
        let i = v.index();
        if self.mark[i] == self.epoch {
            return self.local[i];
        }
        let id = vertices.len() as u32;
        vertices.push(v);
        self.mark[i] = self.epoch;
        self.local[i] = id;
        id
    }
}

/// A compact, self-contained snapshot of one component: local vertex ids are
/// `0..n` with the articulation vertex at local id 0.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentGraph {
    /// Local → global vertex ids; `vertices[0]` is the articulation vertex.
    vertices: Vec<VertexId>,
    /// Edge probabilities, parallel to `global_edges`.
    edge_probs: Vec<f64>,
    /// Global edge ids of the component.
    global_edges: Vec<EdgeId>,
    /// CSR adjacency over local ids: `(local vertex, local edge)`.
    adj_offsets: Vec<u32>,
    adj_entries: Vec<(u32, u32)>,
    /// Commutative identity hash over (AV, edge multiset), fixed at build
    /// time — see [`ComponentGraph::fingerprint`].
    fingerprint: u64,
}

/// Salt decorrelating the per-edge terms of the commutative fingerprint from
/// raw edge ids (so `{e}` and `{e+1}` don't land one apart).
const FINGERPRINT_EDGE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

impl ComponentGraph {
    /// Snapshots the subgraph formed by `edges`, rooted at the articulation
    /// vertex `articulation`, using a throwaway [`LocalIdScratch`].
    ///
    /// Hot callers (the F-tree's insert and probe paths) should prefer
    /// [`ComponentGraph::build_with`] with a long-lived scratch — this
    /// convenience form pays one graph-sized allocation per call.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty; a component always has at least one edge.
    pub fn build(graph: &ProbabilisticGraph, articulation: VertexId, edges: &[EdgeId]) -> Self {
        Self::build_with(
            graph,
            articulation,
            edges,
            &mut LocalIdScratch::new(graph.vertex_count()),
        )
    }

    /// [`ComponentGraph::build`] against a reusable [`LocalIdScratch`]: the
    /// epoch bump replaces the old per-snapshot hash map, so repeated
    /// builds allocate only the snapshot's own (component-sized) vectors.
    ///
    /// The produced snapshot is identical to [`ComponentGraph::build`]'s —
    /// local ids are assigned in first-sight order either way.
    pub fn build_with(
        graph: &ProbabilisticGraph,
        articulation: VertexId,
        edges: &[EdgeId],
        scratch: &mut LocalIdScratch,
    ) -> Self {
        assert!(
            !edges.is_empty(),
            "a component snapshot needs at least one edge"
        );
        scratch.begin(graph.vertex_count());
        let mut vertices = Vec::with_capacity(edges.len() + 1);
        scratch.local_of(articulation, &mut vertices);
        let mut local_endpoints = Vec::with_capacity(edges.len());
        let mut edge_probs = Vec::with_capacity(edges.len());
        let mut fingerprint = splitmix64(articulation.0 as u64);
        for &e in edges {
            let (a, b) = graph.endpoints(e);
            let la = scratch.local_of(a, &mut vertices);
            let lb = scratch.local_of(b, &mut vertices);
            local_endpoints.push((la, lb));
            edge_probs.push(graph.probability(e).value());
            fingerprint = fingerprint.wrapping_add(splitmix64(e.0 as u64 ^ FINGERPRINT_EDGE_SALT));
        }
        // Build local CSR.
        let n = vertices.len();
        let mut degree = vec![0u32; n];
        for &(a, b) in &local_endpoints {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut adj_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        adj_offsets.push(0);
        for d in &degree {
            acc += d;
            adj_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
        let mut adj_entries = vec![(0u32, 0u32); 2 * local_endpoints.len()];
        for (i, &(a, b)) in local_endpoints.iter().enumerate() {
            adj_entries[cursor[a as usize] as usize] = (b, i as u32);
            cursor[a as usize] += 1;
            adj_entries[cursor[b as usize] as usize] = (a, i as u32);
            cursor[b as usize] += 1;
        }
        ComponentGraph {
            vertices,
            edge_probs,
            global_edges: edges.to_vec(),
            adj_offsets,
            adj_entries,
            fingerprint,
        }
    }

    /// Number of vertices (including the articulation vertex).
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.global_edges.len()
    }

    /// Global vertex ids, articulation vertex first.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The articulation vertex.
    pub fn articulation(&self) -> VertexId {
        self.vertices[0]
    }

    /// Global edge ids of the component.
    pub fn global_edges(&self) -> &[EdgeId] {
        &self.global_edges
    }

    /// Number of edges with probability strictly below one.
    pub fn uncertain_edge_count(&self) -> usize {
        self.edge_probs.iter().filter(|&&p| p < 1.0).count()
    }

    /// A 64-bit identity fingerprint: articulation vertex + global edge set.
    /// Two snapshots of the *same* component (same edges, same AV) always
    /// collide, regardless of edge order; this keys memoization and the
    /// racing engine's per-component seed streams.
    ///
    /// The hash is a commutative running sum (`splitmix64(AV)` plus one
    /// salted `splitmix64` term per edge) accumulated during
    /// [`ComponentGraph::build_with`], so reading it here is O(1) — no
    /// per-call sort of the edge set. Order independence comes from the
    /// commutativity of the per-edge terms instead.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Samples `lanes` worlds of the component's edge domain into `batch`,
    /// lane `w` drawing from `seq.rng(first_label + w)` (the engine-wide
    /// lane/seed contract of [`crate::batch`]).
    pub(crate) fn fill_batch<const W: usize>(
        &self,
        batch: &mut WorldBatch<W>,
        seq: &SeedSequence,
        first_label: u64,
        lanes: u32,
    ) {
        let probs = self.edge_probs.iter().copied().enumerate();
        batch.sample_indexed_into(self.edge_count(), probs, seq, first_label, lanes);
    }

    /// Local CSR adjacency of vertex `u`: `(local vertex, local edge)`.
    pub(crate) fn local_neighbors(&self, u: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj_entries[self.adj_offsets[u] as usize..self.adj_offsets[u + 1] as usize]
            .iter()
            .map(|&(v, e)| (v as usize, e as usize))
    }

    fn bfs_from_articulation(&self, alive: &[bool], visited: &mut [bool], stack: &mut Vec<u32>) {
        visited.fill(false);
        visited[0] = true;
        stack.clear();
        stack.push(0);
        while let Some(u) = stack.pop() {
            let range =
                self.adj_offsets[u as usize] as usize..self.adj_offsets[u as usize + 1] as usize;
            for &(v, e) in &self.adj_entries[range] {
                if alive[e as usize] && !visited[v as usize] {
                    visited[v as usize] = true;
                    stack.push(v);
                }
            }
        }
    }

    /// Monte-Carlo estimate of `Pr[v ↔ AV]` for every local vertex
    /// (Lemma 1 applied to the component).
    pub fn sample_reachability(&self, samples: u32, rng: &mut FlowRng) -> ComponentEstimate {
        assert!(samples > 0, "need at least one sample");
        let n = self.vertex_count();
        let m = self.edge_count();
        let mut successes = vec![0u32; n];
        let mut alive = vec![false; m];
        let mut visited = vec![false; n];
        let mut stack = Vec::with_capacity(n);
        for _ in 0..samples {
            for (a, &p) in alive.iter_mut().zip(&self.edge_probs) {
                *a = scalar_coin(p, rng);
            }
            self.bfs_from_articulation(&alive, &mut visited, &mut stack);
            for (s, &v) in successes.iter_mut().zip(&visited) {
                *s += v as u32;
            }
        }
        let reach = successes
            .iter()
            .map(|&s| s as f64 / samples as f64)
            .collect();
        ComponentEstimate {
            reach,
            successes,
            samples,
        }
    }

    /// Exact `Pr[v ↔ AV]` by enumerating the `2^u` worlds over the `u`
    /// uncertain edges. Returns `None` when `u > cap`.
    pub fn exact_reachability(&self, cap: usize) -> Option<ComponentEstimate> {
        let uncertain: Vec<usize> = self
            .edge_probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p < 1.0)
            .map(|(i, _)| i)
            .collect();
        if uncertain.len() > cap {
            return None;
        }
        let n = self.vertex_count();
        let m = self.edge_count();
        let mut reach = vec![0.0f64; n];
        let mut alive = vec![true; m]; // certain edges always alive
        let mut visited = vec![false; n];
        let mut stack = Vec::with_capacity(n);
        let worlds: u64 = 1u64 << uncertain.len();
        for mask in 0..worlds {
            let mut prob = 1.0;
            for (bit, &e) in uncertain.iter().enumerate() {
                let on = mask >> bit & 1 == 1;
                alive[e] = on;
                let p = self.edge_probs[e];
                prob *= if on { p } else { 1.0 - p };
            }
            self.bfs_from_articulation(&alive, &mut visited, &mut stack);
            for (r, &v) in reach.iter_mut().zip(&visited) {
                if v {
                    *r += prob;
                }
            }
        }
        Some(ComponentEstimate {
            reach,
            successes: Vec::new(),
            samples: 0,
        })
    }
}

/// Per-vertex reachability probabilities of a component toward its
/// articulation vertex — the `BC.P(v)` function of Def. 9(3).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEstimate {
    /// `reach[local]` = `Pr[v ↔ AV]`; `reach[0] == 1`.
    reach: Vec<f64>,
    /// Success counts (empty for exact estimates).
    successes: Vec<u32>,
    /// Number of samples drawn; 0 marks an exact estimate.
    samples: u32,
}

impl ComponentEstimate {
    /// Builds a sampled estimate from per-vertex success counts over
    /// `samples` worlds (local vertex 0 is the articulation vertex, which
    /// trivially reaches itself in every world).
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero (0 marks exact estimates) or the
    /// articulation vertex's count disagrees with `samples`.
    pub fn from_success_counts(successes: Vec<u32>, samples: u32) -> Self {
        assert!(samples > 0, "sampled estimates need at least one world");
        assert_eq!(
            successes.first().copied(),
            Some(samples),
            "the articulation vertex reaches itself in every world"
        );
        let reach = successes
            .iter()
            .map(|&s| s as f64 / samples as f64)
            .collect();
        ComponentEstimate {
            reach,
            successes,
            samples,
        }
    }

    /// A placeholder for deferred estimation: the articulation vertex
    /// reaches itself, everything else reads as unreachable, no samples.
    /// Consumers must replace it (via [`ComponentEstimate::from_success_counts`]
    /// or a real estimator) before evaluating flow.
    pub fn placeholder(vertex_count: usize) -> Self {
        assert!(vertex_count >= 1, "a component has an articulation vertex");
        let mut reach = vec![0.0; vertex_count];
        reach[0] = 1.0;
        ComponentEstimate {
            reach,
            successes: Vec::new(),
            samples: 0,
        }
    }

    /// Reachability probability of the local vertex `local`.
    pub fn reach(&self, local: usize) -> f64 {
        self.reach[local]
    }

    /// All reachability probabilities, indexed by local vertex id.
    pub fn reach_all(&self) -> &[f64] {
        &self.reach
    }

    /// `true` when produced by exact enumeration.
    pub fn is_exact(&self) -> bool {
        self.samples == 0
    }

    /// Samples drawn (0 for exact estimates).
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Confidence interval for the local vertex's reachability (degenerate
    /// when exact).
    pub fn interval(&self, local: usize, alpha: f64) -> ConfidenceInterval {
        if self.is_exact() {
            ConfidenceInterval::exact(self.reach[local])
        } else {
            wald_interval(self.successes[local], self.samples, alpha)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelEstimator;
    use crate::rng::SeedSequence;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// Triangle AV(0)-1-2 with all p = 0.5 (the paper's component B shape:
    /// each non-AV vertex reaches AV with probability 0.375... computed:
    /// For a triangle with p=0.5 everywhere, Pr[1 ↔ 0] = p01 coverage:
    /// direct (0.5) + indirect (0.5·0.25) = 0.625? Enumerate: 8 worlds.
    /// e01, e12, e02 each 0.5. 1↔0 iff e01 ∨ (e12 ∧ e02):
    /// Pr = 0.5 + 0.5·0.25 = 0.625.
    fn triangle() -> (ProbabilisticGraph, Vec<EdgeId>) {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        let e0 = b.add_edge(VertexId(0), VertexId(1), p(0.5)).unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p(0.5)).unwrap();
        let e2 = b.add_edge(VertexId(0), VertexId(2), p(0.5)).unwrap();
        (b.build(), vec![e0, e1, e2])
    }

    #[test]
    fn build_maps_articulation_to_local_zero() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(1), &es);
        assert_eq!(c.articulation(), VertexId(1));
        assert_eq!(c.vertices()[0], VertexId(1));
        assert_eq!(c.vertex_count(), 3);
        assert_eq!(c.edge_count(), 3);
        assert_eq!(c.uncertain_edge_count(), 3);
    }

    #[test]
    fn exact_triangle_reachability() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(0), &es);
        let est = c.exact_reachability(20).unwrap();
        assert!(est.is_exact());
        assert_eq!(est.reach(0), 1.0);
        // Both non-AV vertices: p + (1-p)·p² = 0.5 + 0.5·0.25 = 0.625.
        for local in 1..3 {
            assert!((est.reach(local) - 0.625).abs() < 1e-12, "local {local}");
        }
    }

    #[test]
    fn sampled_matches_exact_within_tolerance() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(0), &es);
        let exact = c.exact_reachability(20).unwrap();
        let mut rng = SeedSequence::new(17).rng(0);
        let est = c.sample_reachability(20_000, &mut rng);
        assert!(!est.is_exact());
        assert_eq!(est.samples(), 20_000);
        for local in 0..3 {
            assert!(
                (est.reach(local) - exact.reach(local)).abs() < 0.02,
                "local {local}: {} vs {}",
                est.reach(local),
                exact.reach(local)
            );
        }
    }

    #[test]
    fn exact_respects_cap() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(0), &es);
        assert!(c.exact_reachability(2).is_none());
        assert!(c.exact_reachability(3).is_some());
    }

    #[test]
    fn certain_edges_not_counted_against_cap() {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        let e0 = b
            .add_edge(VertexId(0), VertexId(1), Probability::ONE)
            .unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p(0.5)).unwrap();
        let g = b.build();
        let c = ComponentGraph::build(&g, VertexId(0), &[e0, e1]);
        assert_eq!(c.uncertain_edge_count(), 1);
        let est = c.exact_reachability(1).unwrap();
        assert_eq!(est.reach(1), 1.0);
        assert!((est.reach(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intervals_behave() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(0), &es);
        let mut rng = SeedSequence::new(3).rng(0);
        let est = c.sample_reachability(1000, &mut rng);
        let ci = est.interval(1, 0.01);
        assert!(ci.contains(est.reach(1)));
        assert!(ci.width() > 0.0);
        let exact = c.exact_reachability(20).unwrap();
        assert_eq!(exact.interval(1, 0.01).width(), 0.0);
    }

    #[test]
    fn batched_sampling_matches_exact_within_tolerance() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(0), &es);
        let exact = c.exact_reachability(20).unwrap();
        let seq = SeedSequence::new(29);
        let est = ParallelEstimator::new(4).sample_component(&c, 20_000, &seq);
        assert!(!est.is_exact());
        assert_eq!(est.samples(), 20_000);
        assert_eq!(est.reach(0), 1.0);
        for local in 0..3 {
            assert!(
                (est.reach(local) - exact.reach(local)).abs() < 0.02,
                "local {local}: {} vs {}",
                est.reach(local),
                exact.reach(local)
            );
        }
    }

    #[test]
    fn batched_sampling_is_thread_count_invariant() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(1), &es);
        let seq = SeedSequence::new(71);
        for samples in [1, 64, 100, 1000] {
            let base = ParallelEstimator::new(1).sample_component(&c, samples, &seq);
            for threads in [2, 8] {
                let est = ParallelEstimator::new(threads).sample_component(&c, samples, &seq);
                assert_eq!(base, est, "samples={samples} threads={threads}");
            }
        }
    }

    #[test]
    fn articulation_always_reaches_itself() {
        let (g, es) = triangle();
        let c = ComponentGraph::build(&g, VertexId(2), &es);
        let mut rng = SeedSequence::new(9).rng(0);
        let est = c.sample_reachability(100, &mut rng);
        assert_eq!(est.reach(0), 1.0);
    }

    #[test]
    fn snapshot_is_independent_of_graph_edge_order() {
        // Same component described with edges in different order must give
        // identical exact estimates (keyed by global vertex id).
        let (g, es) = triangle();
        let c1 = ComponentGraph::build(&g, VertexId(0), &es);
        let reversed: Vec<EdgeId> = es.iter().rev().copied().collect();
        let c2 = ComponentGraph::build(&g, VertexId(0), &reversed);
        let e1 = c1.exact_reachability(20).unwrap();
        let e2 = c2.exact_reachability(20).unwrap();
        for v in g.vertices() {
            let l1 = c1.vertices().iter().position(|&x| x == v).unwrap();
            let l2 = c2.vertices().iter().position(|&x| x == v).unwrap();
            assert!((e1.reach(l1) - e2.reach(l2)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn empty_component_rejected() {
        let (g, _) = triangle();
        ComponentGraph::build(&g, VertexId(0), &[]);
    }

    #[test]
    fn fingerprint_is_order_independent_and_identity_sensitive() {
        let (g, es) = triangle();
        let base = ComponentGraph::build(&g, VertexId(0), &es);
        let reversed: Vec<EdgeId> = es.iter().rev().copied().collect();
        let same = ComponentGraph::build(&g, VertexId(0), &reversed);
        assert_eq!(
            base.fingerprint(),
            same.fingerprint(),
            "edge order must not affect the identity hash"
        );
        let other_av = ComponentGraph::build(&g, VertexId(1), &es);
        assert_ne!(base.fingerprint(), other_av.fingerprint());
        let fewer = ComponentGraph::build(&g, VertexId(0), &es[..2]);
        assert_ne!(base.fingerprint(), fewer.fingerprint());
    }
}
