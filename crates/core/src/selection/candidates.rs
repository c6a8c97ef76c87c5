//! Candidate edge maintenance for the greedy loop (§6.1).
//!
//! `candList` contains every edge of the graph that touches the connected
//! selection (so inserting it keeps the subgraph connected to `Q`) and has
//! not been selected yet. It grows as new vertices join the tree.
//!
//! The candidates fall into two groups by how their gain is known:
//!
//! * **leaf** candidates (Case II: one endpoint outside the tree) have the
//!   closed-form gain `Δ = W(leaf) · p(e) · reach(anchor)`
//!   (`FTree::leaf_delta`). They live in an index ordered by cached `Δ`
//!   (highest first, ties by lowest edge id, keys compared with
//!   [`f64::total_cmp`]). A Case II commit writes no existing vertex's
//!   reach, so every cached `Δ` stays exact and only the new vertex's
//!   edges change: edges back into the tree turn structural, edges out of
//!   it join as unscored leaves. A Case IIIa/IIIb/IV commit re-estimates
//!   components, so `CandidateSet::invalidate_leaf_scores` sends every
//!   leaf back to be rescored. Scoring is lazy (`CandidateSet::score_leaves`,
//!   once per iteration), so a run that stops computes nothing it does
//!   not use.
//! * **structural** candidates (both endpoints in the tree) are kept in
//!   ascending edge-id order and probed by the engines every iteration.
//!
//! Each iteration's probe pool (`CandidateSet::probe_round`) is the
//! unsuspended structural candidates plus the single leaf that the
//! selection's tie rule (max flow, then lowest edge id) would pick among
//! all leaves — the only leaf that can win, so selections are unchanged.
//! A membership bitmap answers `contains` in one bit test, and a version
//! counter increments on every mutation. `CandidateSet::debug_validate`
//! (debug builds only) lets the greedy loop assert after every commit that
//! both groups still equal a fresh enumeration from the tree and that
//! every cached `Δ` equals a fresh `FTree::leaf_delta` bit for bit.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use flowmax_graph::{EdgeId, EdgeSubset, ProbabilisticGraph, VertexId};

use crate::ftree::FTree;

/// A scored leaf candidate; orders by `Δ` descending, then edge ascending.
#[derive(Debug, Clone, Copy)]
struct LeafKey {
    delta: f64,
    edge: EdgeId,
}

impl Ord for LeafKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .delta
            .total_cmp(&self.delta)
            .then(self.edge.cmp(&other.edge))
    }
}

impl PartialOrd for LeafKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for LeafKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for LeafKey {}

/// One greedy iteration's probe pool (see [`CandidateSet::probe_round`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProbeRound {
    /// Edges for the probe engines, ascending: the unsuspended structural
    /// candidates plus the best leaf, if any.
    pub(crate) pool: Vec<EdgeId>,
    /// Candidates competing this iteration: every leaf plus the
    /// unsuspended structural candidates.
    pub(crate) competing: usize,
    /// Structural candidates skipped because they are suspended (§6.4).
    pub(crate) skipped: u64,
}

/// The candidate list of §6.1: structural candidates in edge-id order and
/// leaf candidates in an index ordered by their closed-form gain.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Structural candidates (both endpoints in the tree), ascending.
    structural: Vec<EdgeId>,
    /// Scored leaf candidates, highest `Δ` first.
    leaves: BTreeSet<LeafKey>,
    /// Leaf candidates awaiting a `Δ`, in join order.
    unscored: Vec<EdgeId>,
    /// Cached `Δ` of each scored leaf: the key that finds it in `leaves`.
    delta: BTreeMap<EdgeId, f64>,
    /// One bit per graph edge: set iff the edge is a candidate.
    bitmap: Vec<u64>,
    /// One bit per graph vertex: set iff the vertex has joined the tree.
    joined: Vec<u64>,
    /// Incremented on every insert, remove or change of group.
    version: u64,
}

fn bit(i: u32) -> (usize, u64) {
    ((i / 64) as usize, 1u64 << (i % 64))
}

fn test_bit(bits: &[u64], i: u32) -> bool {
    let (w, m) = bit(i);
    bits.get(w).is_some_and(|&word| word & m != 0)
}

impl CandidateSet {
    /// Initializes candidates with the query vertex's incident edges.
    pub fn new(graph: &ProbabilisticGraph, query: VertexId) -> Self {
        let mut s = CandidateSet {
            structural: Vec::new(),
            leaves: BTreeSet::new(),
            unscored: Vec::new(),
            delta: BTreeMap::new(),
            bitmap: vec![0; graph.edge_count().div_ceil(64)],
            joined: vec![0; graph.vertex_count().div_ceil(64)],
            version: 0,
        };
        let selected = EdgeSubset::for_graph(graph);
        s.vertex_joined(graph, query, &selected);
        s
    }

    /// Number of current candidates.
    pub fn len(&self) -> usize {
        self.structural.len() + self.leaves.len() + self.unscored.len()
    }

    /// Whether no candidate remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutation count: bumped by every insert, remove or change of group,
    /// so a consumer holding a pool snapshot can detect staleness in O(1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether `v` has joined the tree.
    fn is_joined(&self, v: VertexId) -> bool {
        test_bit(&self.joined, v.0)
    }

    /// Drops leaf `e` from the index or the unscored list.
    fn remove_leaf(&mut self, e: EdgeId) {
        if let Some(delta) = self.delta.remove(&e) {
            let removed = self.leaves.remove(&LeafKey { delta, edge: e });
            debug_assert!(removed, "leaf candidate missing from the index");
        } else {
            let pos = self.unscored.iter().position(|&u| u == e);
            self.unscored
                .swap_remove(pos.expect("a listed leaf is scored or unscored"));
        }
    }

    /// Registers that `v` joined the tree. Its unselected incident edges
    /// back into the tree become structural candidates (they were leaves
    /// anchored at the other endpoint); those to outside vertices become
    /// new, unscored leaf candidates. A no-op for a vertex already joined.
    pub fn vertex_joined(
        &mut self,
        graph: &ProbabilisticGraph,
        v: VertexId,
        selected: &EdgeSubset,
    ) {
        if self.is_joined(v) {
            return;
        }
        let (w, m) = bit(v.0);
        self.joined[w] |= m;
        for (x, e) in graph.neighbors(v) {
            if selected.contains(e) {
                continue;
            }
            let (ew, em) = bit(e.0);
            let listed = self.bitmap[ew] & em != 0;
            if self.is_joined(x) {
                if listed {
                    self.remove_leaf(e);
                }
                self.bitmap[ew] |= em;
                let pos = self
                    .structural
                    .binary_search(&e)
                    .expect_err("a leaf is not yet structural");
                self.structural.insert(pos, e);
            } else {
                debug_assert!(!listed, "an edge between outside vertices is no candidate");
                self.bitmap[ew] |= em;
                self.unscored.push(e);
            }
            self.version += 1;
        }
    }

    /// Removes a candidate (because it was selected).
    pub fn remove(&mut self, e: EdgeId) -> bool {
        if !self.contains(e) {
            return false;
        }
        let (w, m) = bit(e.0);
        self.bitmap[w] &= !m;
        match self.structural.binary_search(&e) {
            Ok(pos) => {
                self.structural.remove(pos);
            }
            Err(_) => self.remove_leaf(e),
        }
        self.version += 1;
        true
    }

    /// Whether `e` is currently a candidate (one bit test).
    pub fn contains(&self, e: EdgeId) -> bool {
        test_bit(&self.bitmap, e.0)
    }

    /// Iterates candidates in ascending edge-id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.bitmap.len() as u32 * 64)
            .map(EdgeId)
            .filter(|&e| self.contains(e))
    }

    /// Snapshot of the candidates as a vector, ascending.
    pub fn to_vec(&self) -> Vec<EdgeId> {
        self.iter().collect()
    }

    /// Computes `Δ` (`FTree::leaf_delta`) for every unscored leaf and
    /// files it in the index. Returns the number of `Δ` computations.
    pub(crate) fn score_leaves(&mut self, graph: &ProbabilisticGraph, tree: &FTree) -> u64 {
        let scored = self.unscored.len() as u64;
        for e in std::mem::take(&mut self.unscored) {
            let (a, b) = graph.endpoints(e);
            let (anchor, leaf) = if self.is_joined(a) { (a, b) } else { (b, a) };
            let delta = tree.leaf_delta(graph, e, anchor, leaf);
            self.delta.insert(e, delta);
            self.leaves.insert(LeafKey { delta, edge: e });
        }
        scored
    }

    /// Marks every cached `Δ` stale: a Case IIIa/IIIb/IV commit rewrote
    /// reaches, so all leaves go back to be rescored.
    pub(crate) fn invalidate_leaf_scores(&mut self) {
        self.unscored
            .extend(std::mem::take(&mut self.leaves).into_iter().map(|k| k.edge));
        self.delta.clear();
    }

    /// The leaf the selection would pick among all leaves at `base_flow`:
    /// maximal `base_flow + Δ`, ties to the lowest edge id. The index is
    /// scanned down from the top `Δ` while the flow still rounds to the
    /// top flow, so ties created by rounding keep the edge-id rule.
    fn best_leaf(&self, base_flow: f64) -> Option<EdgeId> {
        let mut keys = self.leaves.iter();
        let top = keys.next()?;
        let flow = base_flow + top.delta;
        let mut best = top.edge;
        for k in keys {
            if base_flow + k.delta != flow {
                break;
            }
            best = best.min(k.edge);
        }
        Some(best)
    }

    /// The probe pool of one greedy iteration at `base_flow`: the
    /// structural candidates that are not `suspended` (§6.4 — delayed
    /// candidates never enter the round) plus the best leaf. Leaves are
    /// never suspended: they cost no samples. When every candidate is
    /// suspended the full structural list is probed instead (skipped = 0),
    /// so the loop never stalls. Every leaf must be scored.
    pub(crate) fn probe_round(
        &self,
        base_flow: f64,
        suspended: impl Fn(EdgeId) -> bool,
    ) -> ProbeRound {
        debug_assert!(self.unscored.is_empty(), "score leaves before probing");
        let mut pool = Vec::with_capacity(self.structural.len() + 1);
        let mut skipped = 0u64;
        for &e in &self.structural {
            if suspended(e) {
                skipped += 1;
            } else {
                pool.push(e);
            }
        }
        if pool.is_empty() && self.leaves.is_empty() {
            pool = self.structural.clone();
            skipped = 0;
        }
        let competing = pool.len() + self.leaves.len();
        if let Some(leaf) = self.best_leaf(base_flow) {
            let pos = pool
                .binary_search(&leaf)
                .expect_err("leaves are not structural");
            pool.insert(pos, leaf);
        }
        ProbeRound {
            pool,
            competing,
            skipped,
        }
    }

    /// Cross-checks the maintained state against a fresh enumeration from
    /// the tree (debug builds only): the joined vertices must be the
    /// tree's, the structural list strictly ascending, the groups disjoint
    /// and together equal to the bitmap and to the set of unselected edges
    /// touching a tree vertex, the structural list exactly those with both
    /// endpoints in the tree, and every cached `Δ` bit-identical to a
    /// fresh `FTree::leaf_delta`. The greedy loop calls this after every
    /// commit.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_validate(&self, graph: &ProbabilisticGraph, tree: &FTree) {
        for v in graph.vertices() {
            assert_eq!(
                self.is_joined(v),
                tree.contains_vertex(v),
                "joined vertices out of sync with the tree at {v:?}"
            );
        }
        assert!(
            self.structural.windows(2).all(|w| w[0] < w[1]),
            "structural candidates must be strictly ascending"
        );
        let mut expected_bits = vec![0u64; self.bitmap.len()];
        let grouped = self
            .structural
            .iter()
            .chain(self.leaves.iter().map(|k| &k.edge))
            .chain(&self.unscored);
        for &e in grouped {
            let (w, m) = bit(e.0);
            assert!(expected_bits[w] & m == 0, "{e:?} is listed twice");
            expected_bits[w] |= m;
        }
        assert_eq!(
            expected_bits, self.bitmap,
            "candidate bitmap out of sync with the candidate groups"
        );
        let selected = tree.selected_edges();
        let mut expected: Vec<EdgeId> = Vec::new();
        let mut expected_structural: Vec<EdgeId> = Vec::new();
        for (e, edge) in graph.edges() {
            let (a, b) = edge.endpoints();
            let (a_in, b_in) = (tree.contains_vertex(a), tree.contains_vertex(b));
            if selected.contains(e) || !(a_in || b_in) {
                continue;
            }
            expected.push(e);
            if a_in && b_in {
                expected_structural.push(e);
            }
        }
        assert_eq!(
            expected,
            self.to_vec(),
            "candidate list out of sync with tree membership"
        );
        assert_eq!(
            expected_structural, self.structural,
            "structural candidates out of sync with tree membership"
        );
        assert_eq!(
            self.delta.len(),
            self.leaves.len(),
            "cached Δ map out of sync with the leaf index"
        );
        for k in &self.leaves {
            let (a, b) = graph.endpoints(k.edge);
            let (anchor, leaf) = if tree.contains_vertex(a) {
                (a, b)
            } else {
                (b, a)
            };
            let fresh = tree.leaf_delta(graph, k.edge, anchor, leaf);
            assert_eq!(
                (
                    k.delta.to_bits(),
                    self.delta.get(&k.edge).map(|d| d.to_bits())
                ),
                (fresh.to_bits(), Some(fresh.to_bits())),
                "cached leaf Δ of {:?} is stale",
                k.edge
            );
        }
    }

    /// Test-only corruption hook: flips `e`'s bitmap bit without touching
    /// the candidate groups, so the next [`debug_validate`] must fire. Used
    /// by the dirty-state regression test to prove the revalidation is
    /// live.
    ///
    /// [`debug_validate`]: CandidateSet::debug_validate
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn debug_poison(&mut self, e: EdgeId) {
        let (w, m) = bit(e.0);
        self.bitmap[w] ^= m;
    }

    /// Test-only corruption hook: moves scored leaf `e`'s cached `Δ` one
    /// ulp up, in the index and the cache alike, so only the comparison
    /// with a fresh `FTree::leaf_delta` can catch it.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn debug_poison_delta(&mut self, e: EdgeId) {
        let old = self.delta[&e];
        assert!(self.leaves.remove(&LeafKey {
            delta: old,
            edge: e
        }));
        let delta = f64::from_bits(old.to_bits() + 1);
        self.delta.insert(e, delta);
        self.leaves.insert(LeafKey { delta, edge: e });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    /// Star: Q(0) joined to 1, 2; 1 joined to 3.
    fn graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(1), VertexId(3), p).unwrap(); // e2
        b.build()
    }

    #[test]
    fn starts_with_query_incident_edges() {
        let g = graph();
        let c = CandidateSet::new(&g, VertexId(0));
        assert_eq!(c.to_vec(), vec![EdgeId(0), EdgeId(1)]);
        assert!(!c.is_empty());
    }

    #[test]
    fn grows_when_vertices_join() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let mut selected = EdgeSubset::for_graph(&g);
        selected.insert(EdgeId(0));
        c.remove(EdgeId(0));
        c.vertex_joined(&g, VertexId(1), &selected);
        assert_eq!(c.to_vec(), vec![EdgeId(1), EdgeId(2)]);
        assert!(c.contains(EdgeId(2)));
    }

    #[test]
    fn selected_edges_never_reappear() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let mut selected = EdgeSubset::for_graph(&g);
        selected.insert(EdgeId(0));
        selected.insert(EdgeId(2));
        c.remove(EdgeId(0));
        c.vertex_joined(&g, VertexId(1), &selected);
        assert!(!c.contains(EdgeId(0)));
        assert!(!c.contains(EdgeId(2)));
        assert_eq!(c.len(), 1);
    }

    /// Triangle Q(0)-1-2 plus pendant 2-3; vertex 1 weighs 10.
    fn triangle() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO);
        b.add_vertex(Weight::new(10.0).unwrap());
        b.add_vertex(Weight::ONE);
        b.add_vertex(Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e2
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e3
        b.build()
    }

    #[test]
    fn probe_round_offers_the_best_leaf_with_the_structural_pool() {
        let g = triangle();
        let tree = FTree::new(&g, VertexId(0));
        let mut c = CandidateSet::new(&g, VertexId(0));
        assert_eq!(c.score_leaves(&g, &tree), 2);
        assert_eq!(c.score_leaves(&g, &tree), 0, "nothing left to score");
        // Δ(e0) = 10·0.5 beats Δ(e1) = 1·0.5.
        let round = c.probe_round(0.0, |_| false);
        assert_eq!(round.pool, vec![EdgeId(0)]);
        assert_eq!(round.competing, 2);
        // Vertex 1 joins through e0: e2 (to outside vertex 2) is a new
        // leaf; e1 stays a scored leaf.
        let mut selected = EdgeSubset::for_graph(&g);
        selected.insert(EdgeId(0));
        c.remove(EdgeId(0));
        c.vertex_joined(&g, VertexId(1), &selected);
        assert_eq!(c.score_leaves(&g, &tree), 1);
        // Vertex 2 joins through e1: e2 closes the triangle (structural),
        // e3 is a new leaf.
        selected.insert(EdgeId(1));
        c.remove(EdgeId(1));
        c.vertex_joined(&g, VertexId(2), &selected);
        assert_eq!(c.score_leaves(&g, &tree), 1);
        let round = c.probe_round(0.0, |_| false);
        assert_eq!(round.pool, vec![EdgeId(2), EdgeId(3)]);
        assert_eq!(round.competing, 2);
    }

    #[test]
    fn best_leaf_breaks_rounded_ties_by_edge_id() {
        // Q joined to 1 (weight 3) and 2 (weight 3 + 2^-50): Δ differs in
        // the last bits, but at base flow 2^10 both flows round alike, so
        // the lower edge id must win although its Δ is smaller.
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO);
        b.add_vertex(Weight::new(3.0 + 2f64.powi(-50)).unwrap());
        b.add_vertex(Weight::new(3.0).unwrap());
        let p = Probability::new(1.0).unwrap();
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e0: Δ = 3
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e1: Δ = 3 + 2^-50
        let g = b.build();
        let tree = FTree::new(&g, VertexId(0));
        let mut c = CandidateSet::new(&g, VertexId(0));
        c.score_leaves(&g, &tree);
        assert_eq!(c.probe_round(0.0, |_| false).pool, vec![EdgeId(1)]);
        assert_eq!(c.probe_round(1024.0, |_| false).pool, vec![EdgeId(0)]);
    }

    #[test]
    fn probe_pool_honours_suspensions_with_fallback() {
        // Triangle with vertices 1 and 2 joined: e2 structural, e3 a leaf.
        let g = triangle();
        let tree = FTree::new(&g, VertexId(0));
        let mut c = CandidateSet::new(&g, VertexId(0));
        let mut selected = EdgeSubset::for_graph(&g);
        for (e, v) in [(EdgeId(0), VertexId(1)), (EdgeId(1), VertexId(2))] {
            selected.insert(e);
            c.remove(e);
            c.vertex_joined(&g, v, &selected);
        }
        c.score_leaves(&g, &tree);
        let round = c.probe_round(0.0, |_| false);
        assert_eq!((round.pool, round.skipped), (vec![EdgeId(2), EdgeId(3)], 0));
        let round = c.probe_round(0.0, |e| e == EdgeId(2));
        assert_eq!((round.pool, round.skipped), (vec![EdgeId(3)], 1));
        assert_eq!(round.competing, 1, "the suspended edge does not compete");
        // Without leaves, everything suspended: fall back to the full
        // structural list, nothing counts as skipped (every candidate is
        // probed after all).
        c.remove(EdgeId(3));
        let round = c.probe_round(0.0, |_| true);
        assert_eq!((round.pool, round.skipped), (vec![EdgeId(2)], 0));
        assert_eq!(round.competing, 1);
    }

    #[test]
    fn isolated_query_yields_empty_set() {
        let mut b = GraphBuilder::new();
        b.add_vertices(2, Weight::ONE);
        let g = b.build();
        let c = CandidateSet::new(&g, VertexId(0));
        assert!(c.is_empty());
    }

    #[test]
    fn version_counts_every_mutation() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let v0 = c.version();
        assert_eq!(v0, 2, "two initial inserts");
        assert!(c.remove(EdgeId(0)));
        assert_eq!(c.version(), v0 + 1);
        assert!(!c.remove(EdgeId(0)), "double remove is a no-op");
        assert_eq!(c.version(), v0 + 1, "no-ops do not bump the version");
        let selected = EdgeSubset::for_graph(&g);
        c.vertex_joined(&g, VertexId(1), &selected);
        // Edge 0 re-listed + edge 2 new; edge 1 was already present.
        assert_eq!(c.version(), v0 + 3);
        assert_eq!(c.to_vec(), vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn bitmap_tracks_membership_out_of_range_safe() {
        let g = graph();
        let c = CandidateSet::new(&g, VertexId(0));
        assert!(c.contains(EdgeId(0)));
        assert!(!c.contains(EdgeId(2)));
        // Out-of-range ids are simply absent, not a panic.
        assert!(!c.contains(EdgeId(1_000)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "candidate bitmap out of sync")]
    fn poisoned_bitmap_fails_validation() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let tree = FTree::new(&g, VertexId(0));
        c.debug_validate(&g, &tree);
        c.debug_poison(EdgeId(2));
        c.debug_validate(&g, &tree);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cached leaf Δ of e1 is stale")]
    fn poisoned_leaf_delta_fails_validation() {
        let g = graph();
        let mut c = CandidateSet::new(&g, VertexId(0));
        let tree = FTree::new(&g, VertexId(0));
        c.score_leaves(&g, &tree);
        c.debug_validate(&g, &tree);
        c.debug_poison_delta(EdgeId(1));
        c.debug_validate(&g, &tree);
    }
}
