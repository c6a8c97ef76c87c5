//! Edge insertion into the F-tree: cases I–IV of §5.4/§5.5.
//!
//! Case I (both endpoints new) is rejected — candidate generation keeps the
//! selection connected to `Q` (§5.4). Case II attaches a new leaf. Case III
//! closes a cycle inside one component. Case IV closes a cycle across
//! components; it subsumes Case IIIb (same mono component = a cross-case with
//! empty chains), so both share one generic cycle builder:
//!
//! 1. walk both endpoints' component chains up to the lowest common ancestor
//!    component, absorbing bi-components whole (IVb) and carving the unique
//!    AV-ward paths out of mono components (IVc, the `splitTree` operation);
//! 2. meet at the LCA (IVa): either a trivial meeting vertex, a merge with a
//!    bi-connected LCA, or a `splitTree` inside a mono LCA;
//! 3. assemble the collected vertices/edges into one new bi-connected
//!    component, re-parent the inherited children and orphan groups, and
//!    estimate its reachability function.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax_sampling::ComponentGraph;

use super::{Component, ComponentId, FTree, Kind, LocalMap, MonoMember};
use crate::error::CoreError;
use crate::estimator::EstimateProvider;

/// Which structural case an insertion took (§5.4 nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertCase {
    /// Case IIa: new leaf attached to a mono-connected component (or to `Q`).
    LeafMono,
    /// Case IIb: new leaf attached to a bi-connected component.
    LeafBi,
    /// Case IIIa: new edge inside an existing bi-connected component.
    CycleInBi,
    /// Case IIIb: new cycle inside a mono-connected component (`splitTree`).
    CycleInMono,
    /// Case IV: new cycle across components.
    CycleAcross,
}

/// Outcome of an insertion, consumed by metrics and the selection heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// The structural case taken.
    pub case: InsertCase,
    /// The bi-connected component that was created or re-estimated, if any.
    pub component: Option<ComponentId>,
    /// Number of edges in that component — the sampling cost `cost(e)` of
    /// the delayed-sampling heuristic (§6.4); 0 for leaf attachments.
    pub sampled_edge_count: usize,
}

impl FTree {
    /// Inserts a selected edge, updating the component structure
    /// (§5.4 cases II–IV). `provider` supplies reachability estimates for
    /// any bi-connected component that forms or changes.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EdgeAlreadySelected`] on repeat insertion;
    /// * [`CoreError::DisconnectedEdge`] if neither endpoint is connected to
    ///   `Q` (the excluded Case I).
    pub fn insert_edge(
        &mut self,
        graph: &ProbabilisticGraph,
        e: EdgeId,
        provider: &mut dyn EstimateProvider,
    ) -> Result<InsertReport, CoreError> {
        // A direct insertion bypasses the journal, so an enabled flow cache
        // would silently go stale; incremental commits go through
        // `apply` + `cache_mark_dirty` instead.
        debug_assert!(
            self.recorder.is_some() || self.flow_cache.is_none(),
            "direct insert_edge would stale the enabled flow cache"
        );
        if self.selected.contains(e) {
            return Err(CoreError::EdgeAlreadySelected(e));
        }
        let (a, b) = graph.endpoints(e);
        match (self.contains_vertex(a), self.contains_vertex(b)) {
            (false, false) => Err(CoreError::DisconnectedEdge {
                edge: e,
                endpoints: (a, b),
            }),
            (true, false) => {
                self.selected.insert(e);
                Ok(self.attach_leaf(graph, a, b, e))
            }
            (false, true) => {
                self.selected.insert(e);
                Ok(self.attach_leaf(graph, b, a, e))
            }
            (true, true) => {
                self.selected.insert(e);
                Ok(self.close_cycle(graph, a, b, e, provider))
            }
        }
    }

    /// Case II: `leaf` is new, `anchor` is in the tree.
    fn attach_leaf(
        &mut self,
        graph: &ProbabilisticGraph,
        anchor: VertexId,
        leaf: VertexId,
        e: EdgeId,
    ) -> InsertReport {
        let p = graph.probability(e).value();
        match self.owner(anchor) {
            None => {
                // anchor is Q: attach to (or create) the mono root component.
                debug_assert_eq!(anchor, self.query);
                let existing = self.roots.iter().copied().find(|&c| !self.comp(c).is_bi());
                let cid = existing.unwrap_or_else(|| {
                    let c = Component {
                        articulation: anchor,
                        parent: None,
                        children: Vec::new(),
                        kind: Kind::Mono {
                            members: BTreeMap::new(),
                        },
                    };
                    let id = self.alloc(c);
                    self.roots.push(id);
                    id
                });
                self.add_mono_member(cid, leaf, anchor, e, p);
                InsertReport {
                    case: InsertCase::LeafMono,
                    component: None,
                    sampled_edge_count: 0,
                }
            }
            Some(cid) if !self.comp(cid).is_bi() => {
                // Case IIa: dead end extends the mono component.
                self.add_mono_member(cid, leaf, anchor, e, p);
                InsertReport {
                    case: InsertCase::LeafMono,
                    component: None,
                    sampled_edge_count: 0,
                }
            }
            Some(cid) => {
                // Case IIb: new mono component hanging off the bi component.
                let mut members = BTreeMap::new();
                members.insert(
                    leaf,
                    MonoMember {
                        parent: anchor,
                        parent_edge: e,
                        edge_prob: p,
                        reach: p,
                        depth: 1,
                    },
                );
                let c = Component {
                    articulation: anchor,
                    parent: Some(cid),
                    children: Vec::new(),
                    kind: Kind::Mono { members },
                };
                let id = self.alloc(c);
                self.comp_mut(cid).children.push(id);
                self.set_assignment(leaf, Some(id));
                InsertReport {
                    case: InsertCase::LeafBi,
                    component: None,
                    sampled_edge_count: 0,
                }
            }
        }
    }

    /// Adds `leaf` to mono component `cid`, hanging off member (or AV)
    /// `anchor`.
    fn add_mono_member(
        &mut self,
        cid: ComponentId,
        leaf: VertexId,
        anchor: VertexId,
        e: EdgeId,
        p: f64,
    ) {
        let comp = self.comp(cid);
        let (anchor_reach, anchor_depth) = if anchor == comp.articulation {
            (1.0, 0)
        } else {
            let Kind::Mono { members } = &comp.kind else {
                unreachable!()
            };
            let m = members
                .get(&anchor)
                .expect("anchor is a member of the mono component");
            (m.reach, m.depth)
        };
        let Kind::Mono { members } = &mut self.comp_mut(cid).kind else {
            unreachable!()
        };
        members.insert(
            leaf,
            MonoMember {
                parent: anchor,
                parent_edge: e,
                edge_prob: p,
                reach: anchor_reach * p,
                depth: anchor_depth + 1,
            },
        );
        self.set_assignment(leaf, Some(cid));
    }

    /// Case III/IV dispatch: both endpoints are already in the tree.
    fn close_cycle(
        &mut self,
        graph: &ProbabilisticGraph,
        a: VertexId,
        b: VertexId,
        e: EdgeId,
        provider: &mut dyn EstimateProvider,
    ) -> InsertReport {
        let ca = self.owner(a);
        let cb = self.owner(b);
        // Case IIIa: the cycle stays inside one bi component. This covers
        // both endpoints being members, and one endpoint being the
        // component's articulation vertex (which the parent owns).
        if let Some(cid) = self.same_bi_component(a, b, ca, cb) {
            let Kind::Bi { edges, .. } = &mut self.comp_mut(cid).kind else {
                unreachable!()
            };
            edges.push(e);
            let n = edges.len();
            self.refresh_bi(graph, cid, provider);
            return InsertReport {
                case: InsertCase::CycleInBi,
                component: Some(cid),
                sampled_edge_count: n,
            };
        }
        if ca.is_some() && ca == cb {
            // Case IIIb: splitTree inside one mono component — handled by
            // the generic builder below (empty chains, mono LCA).
            return self.build_cycle(graph, a, b, e, provider, InsertCase::CycleInMono);
        }
        self.build_cycle(graph, a, b, e, provider, InsertCase::CycleAcross)
    }

    /// Detects Case IIIa: both endpoints lie within one bi component's
    /// vertex set (members ∪ articulation vertex).
    fn same_bi_component(
        &self,
        a: VertexId,
        b: VertexId,
        ca: Option<ComponentId>,
        cb: Option<ComponentId>,
    ) -> Option<ComponentId> {
        if let (Some(x), Some(y)) = (ca, cb) {
            if x == y {
                return self.comp(x).is_bi().then_some(x);
            }
        }
        // One endpoint may be the AV of the other's bi component.
        for (owner, other_vertex) in [(ca, b), (cb, a)] {
            if let Some(cid) = owner {
                if self.comp(cid).is_bi() && self.comp(cid).articulation == other_vertex {
                    return Some(cid);
                }
            }
        }
        None
    }

    /// The generic cycle builder shared by cases IIIb and IV.
    fn build_cycle(
        &mut self,
        graph: &ProbabilisticGraph,
        a: VertexId,
        b: VertexId,
        e: EdgeId,
        provider: &mut dyn EstimateProvider,
        case: InsertCase,
    ) -> InsertReport {
        let ca = self.owner(a);
        let cb = self.owner(b);
        let lca = self.lca_component(ca, cb);

        let mut members: Vec<VertexId> = Vec::new();
        let mut edges: Vec<EdgeId> = vec![e];
        let mut inherited: Vec<ComponentId> = Vec::new();

        let x = self.absorb_chain(a, ca, lca, &mut members, &mut edges, &mut inherited);
        let y = self.absorb_chain(b, cb, lca, &mut members, &mut edges, &mut inherited);

        // Case IVa: meet at the lowest common ancestor component.
        let (av, parent) = match lca {
            None => {
                // Virtual root: both chains terminate at Q.
                debug_assert!(x == self.query && y == self.query);
                (self.query, None)
            }
            Some(cid) => {
                if x == y {
                    // Trivial meeting cycle (the paper's "(9)" example).
                    (x, Some(cid))
                } else if self.comp(cid).is_bi() {
                    // The big cycle connects two vertices of a bi LCA
                    // transitively: the LCA merges into the new component.
                    let av = self.comp(cid).articulation;
                    let parent = self.comp(cid).parent;
                    self.detach_from_parent(cid);
                    self.absorb_bi(cid, &mut members, &mut edges, &mut inherited);
                    (av, parent)
                } else {
                    // splitTree between the two entry vertices of a mono LCA.
                    let v_lca = self.mono_lca(cid, x, y);
                    let mut removed = Vec::new();
                    self.move_mono_path(cid, x, v_lca, &mut members, &mut edges, &mut removed);
                    self.move_mono_path(cid, y, v_lca, &mut members, &mut edges, &mut removed);
                    self.regroup_after_removal(cid, &removed, &mut inherited);
                    let comp = self.comp(cid);
                    if v_lca == comp.articulation {
                        let parent = comp.parent;
                        if comp.member_count() == 0 {
                            debug_assert!(comp.children.is_empty());
                            self.detach_from_parent(cid);
                            self.dealloc(cid);
                        }
                        (v_lca, parent)
                    } else {
                        (v_lca, Some(cid))
                    }
                }
            }
        };

        let n_edges = edges.len();
        let bc =
            self.finish_cycle_component(graph, av, parent, members, edges, inherited, provider);
        InsertReport {
            case,
            component: Some(bc),
            sampled_edge_count: n_edges,
        }
    }

    /// Lowest common ancestor of two components in the F-tree
    /// (`None` = the virtual root at `Q`).
    fn lca_component(&self, a: Option<ComponentId>, b: Option<ComponentId>) -> Option<ComponentId> {
        let mut ancestors = HashSet::new();
        let mut cur = a;
        while let Some(c) = cur {
            ancestors.insert(c);
            cur = self.comp(c).parent;
        }
        let mut cur = b;
        while let Some(c) = cur {
            if ancestors.contains(&c) {
                return Some(c);
            }
            cur = self.comp(c).parent;
        }
        None
    }

    /// Walks a chain of components from `start`'s component up to (exclusive)
    /// `stop`, absorbing everything on the cycle's path into the new
    /// component being built. Returns the vertex at which the chain enters
    /// `stop` (or `Q` if `stop` is the virtual root).
    fn absorb_chain(
        &mut self,
        start: VertexId,
        start_comp: Option<ComponentId>,
        stop: Option<ComponentId>,
        members: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        inherited: &mut Vec<ComponentId>,
    ) -> VertexId {
        let mut entry = start;
        let mut cur = start_comp;
        while cur != stop {
            let cid = cur.expect("a chain can only end at the virtual root when stop is None");
            let av = self.comp(cid).articulation;
            let next = self.comp(cid).parent;
            if self.comp(cid).is_bi() {
                // Case IVb: the bi component is absorbed whole.
                self.detach_from_parent(cid);
                self.absorb_bi(cid, members, edges, inherited);
            } else {
                // Case IVc: only the entry→AV path joins the cycle.
                let mut removed = Vec::new();
                self.move_mono_path(cid, entry, av, members, edges, &mut removed);
                self.regroup_after_removal(cid, &removed, inherited);
                if self.comp(cid).member_count() == 0 {
                    debug_assert!(self.comp(cid).children.is_empty());
                    self.detach_from_parent(cid);
                    self.dealloc(cid);
                }
            }
            entry = av;
            cur = next;
        }
        entry
    }

    /// Dissolves bi component `cid` into the cycle being built. The caller
    /// must already have detached it from its parent.
    fn absorb_bi(
        &mut self,
        cid: ComponentId,
        members: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        inherited: &mut Vec<ComponentId>,
    ) {
        let comp = self.take_component(cid);
        let Kind::Bi {
            edges: bi_edges,
            local,
            ..
        } = comp.kind
        else {
            panic!("absorb_bi on a mono component");
        };
        for &(v, _) in local.iter() {
            self.set_assignment(v, None); // reassigned to the new BC later
            members.push(v);
        }
        edges.extend(bi_edges);
        inherited.extend(comp.children);
    }

    /// Lowest common ancestor of two members within a mono component's
    /// internal tree (the AV acts as root with depth 0).
    fn mono_lca(&self, cid: ComponentId, x: VertexId, y: VertexId) -> VertexId {
        let comp = self.comp(cid);
        let av = comp.articulation;
        let Kind::Mono { members } = &comp.kind else {
            panic!("mono_lca on bi component")
        };
        let depth = |v: VertexId| if v == av { 0 } else { members[&v].depth };
        let up = |v: VertexId| members[&v].parent;
        let (mut px, mut py) = (x, y);
        while depth(px) > depth(py) {
            px = up(px);
        }
        while depth(py) > depth(px) {
            py = up(py);
        }
        while px != py {
            px = up(px);
            py = up(py);
        }
        px
    }

    /// Moves the path `from → stop_vertex` (excluding `stop_vertex`) out of
    /// mono component `cid` into the cycle being built: the vertices join
    /// `members`, their parent edges join `edges`.
    fn move_mono_path(
        &mut self,
        cid: ComponentId,
        from: VertexId,
        stop_vertex: VertexId,
        members: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        removed: &mut Vec<VertexId>,
    ) {
        let Kind::Mono { members: mm } = &mut self.comp_mut(cid).kind else {
            panic!("move_mono_path on bi component")
        };
        let mut v = from;
        while v != stop_vertex {
            let m = mm
                .remove(&v)
                .expect("path vertex is a member of the mono component");
            members.push(v);
            edges.push(m.parent_edge);
            removed.push(v);
            v = m.parent;
        }
        for &v in removed.iter() {
            self.set_assignment(v, None); // reassigned to the new BC later
        }
    }

    /// After removing `removed` vertices from mono component `cid`: collects
    /// orphans (remaining members whose AV-ward path crossed a removed
    /// vertex) into new mono components anchored at the first removed vertex
    /// on their path (§5.4 case IIIb step iii), and re-parents the children
    /// of `cid` whose AV moved.
    ///
    /// Newly created orphan components and children that must hang off the
    /// new bi component are appended to `inherited`.
    fn regroup_after_removal(
        &mut self,
        cid: ComponentId,
        removed: &[VertexId],
        inherited: &mut Vec<ComponentId>,
    ) {
        if removed.is_empty() {
            return;
        }
        let removed_set: BTreeSet<VertexId> = removed.iter().copied().collect();
        let av = self.comp(cid).articulation;

        // Classify every remaining member: Stay, or orphan of the first
        // removed vertex on its path to the AV. Memoized chain walk keeps
        // this linear overall.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        enum Class {
            Stay,
            OrphanOf(VertexId),
        }
        let mut classes: BTreeMap<VertexId, Class> = BTreeMap::new();
        {
            let Kind::Mono { members } = &self.comp(cid).kind else {
                unreachable!()
            };
            let keys: Vec<VertexId> = members.keys().copied().collect();
            let mut chain: Vec<VertexId> = Vec::new();
            for v in keys {
                chain.clear();
                let mut cur = v;
                let class = loop {
                    if cur == av {
                        break Class::Stay;
                    }
                    if removed_set.contains(&cur) {
                        break Class::OrphanOf(cur);
                    }
                    if let Some(&c) = classes.get(&cur) {
                        break c;
                    }
                    chain.push(cur);
                    cur = members[&cur].parent;
                };
                for &c in &chain {
                    classes.insert(c, class);
                }
            }
        }

        // Group orphans by anchor and split them off into new mono
        // components, recomputing reach/depth relative to the new AV.
        let mut groups: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
        for (&v, &class) in &classes {
            if let Class::OrphanOf(r) = class {
                groups.entry(r).or_default().push(v);
            }
        }
        for (&anchor, group) in &groups {
            let mut taken: BTreeMap<VertexId, MonoMember> = BTreeMap::new();
            {
                let Kind::Mono { members } = &mut self.comp_mut(cid).kind else {
                    unreachable!()
                };
                for &v in group {
                    let m = members.remove(&v).expect("orphan is a member");
                    taken.insert(v, m);
                }
            }
            recompute_mono_tree(&mut taken, anchor);
            let oc = Component {
                articulation: anchor,
                parent: None, // fixed up when attached to the new BC
                children: Vec::new(),
                kind: Kind::Mono { members: taken },
            };
            let oid = self.alloc(oc);
            for &v in group {
                self.set_assignment(v, Some(oid));
            }
            inherited.push(oid);
        }

        // Re-parent children of `cid` whose AV left the component.
        let children: Vec<ComponentId> = self.comp(cid).children.clone();
        for child in children {
            let cav = self.comp(child).articulation;
            if removed_set.contains(&cav) {
                // AV joins the new BC: the child hangs off it.
                self.detach_from_parent(child);
                inherited.push(child);
            } else if let Some(owner) = self.owner(cav) {
                if owner != cid {
                    // AV moved into an orphan group: reattach there.
                    self.detach_from_parent(child);
                    self.comp_mut(child).parent = Some(owner);
                    self.comp_mut(owner).children.push(child);
                }
            }
        }
    }

    /// Assembles the collected cycle into a new bi-connected component,
    /// estimates its reachability function, and wires up assignments,
    /// parent and inherited children.
    #[allow(clippy::too_many_arguments)]
    fn finish_cycle_component(
        &mut self,
        graph: &ProbabilisticGraph,
        av: VertexId,
        parent: Option<ComponentId>,
        members: Vec<VertexId>,
        edges: Vec<EdgeId>,
        inherited: Vec<ComponentId>,
        provider: &mut dyn EstimateProvider,
    ) -> ComponentId {
        debug_assert!(
            !members.contains(&av),
            "AV is never a member of its component"
        );
        debug_assert_eq!(
            members.iter().collect::<BTreeSet<_>>().len(),
            members.len(),
            "cycle members must be unique"
        );
        let mut scratch = std::mem::take(&mut self.local_scratch);
        let snapshot = ComponentGraph::build_with(graph, av, &edges, &mut scratch);
        self.local_scratch = scratch;
        let estimate = provider.estimate(&snapshot);
        let local = LocalMap::from_snapshot(snapshot.vertices());
        debug_assert_eq!(
            local.len(),
            members.len(),
            "snapshot vertices must equal members"
        );
        let version = self.next_version();
        let bc = self.alloc(Component {
            articulation: av,
            parent: None,
            children: Vec::new(),
            kind: Kind::Bi {
                edges,
                snapshot: Arc::new(snapshot),
                estimate: Arc::new(estimate),
                local: Arc::new(local),
                version,
            },
        });
        for &v in &members {
            self.set_assignment(v, Some(bc));
        }
        for child in inherited {
            self.comp_mut(child).parent = Some(bc);
            self.comp_mut(bc).children.push(child);
        }
        self.attach_to_parent(bc, parent);
        bc
    }
}

/// Recomputes `reach` and `depth` for a detached mono-member group whose new
/// AV is `anchor`. Parent pointers within the group are unchanged; members
/// adjacent to `anchor` reset to depth 1.
fn recompute_mono_tree(members: &mut BTreeMap<VertexId, MonoMember>, anchor: VertexId) {
    let keys: Vec<VertexId> = members.keys().copied().collect();
    let mut fixed: BTreeSet<VertexId> = BTreeSet::new();
    let mut stack: Vec<VertexId> = Vec::new();
    for v in keys {
        if fixed.contains(&v) {
            continue;
        }
        stack.push(v);
        while let Some(&top) = stack.last() {
            let parent = members[&top].parent;
            if parent == anchor {
                let m = members.get_mut(&top).expect("member");
                m.reach = m.edge_prob;
                m.depth = 1;
                fixed.insert(top);
                stack.pop();
            } else if fixed.contains(&parent) {
                let (p_reach, p_depth) = {
                    let pm = &members[&parent];
                    (pm.reach, pm.depth)
                };
                let m = members.get_mut(&top).expect("member");
                m.reach = p_reach * m.edge_prob;
                m.depth = p_depth + 1;
                fixed.insert(top);
                stack.pop();
            } else {
                stack.push(parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, SamplingProvider};
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn exact_provider() -> SamplingProvider {
        SamplingProvider::new(EstimatorConfig::exact(), 42)
    }

    /// Path Q(0)-1-2 plus chord 0-2 and tail 2-3.
    fn diamond_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e2
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e3
        b.build()
    }

    #[test]
    fn case_i_rejected() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        // Edge 2-3 touches neither Q nor any inserted vertex.
        let err = t.insert_edge(&g, EdgeId(3), &mut pr).unwrap_err();
        assert!(matches!(err, CoreError::DisconnectedEdge { .. }));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        let err = t.insert_edge(&g, EdgeId(0), &mut pr).unwrap_err();
        assert_eq!(err, CoreError::EdgeAlreadySelected(EdgeId(0)));
    }

    #[test]
    fn leaf_attachments_build_mono_root() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        let r = t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::LeafMono);
        let r = t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::LeafMono);
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.bi_component_count(), 0);
        assert!((t.reach_to_query(VertexId(2)) - 0.25).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn chord_triggers_split_tree() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        t.insert_edge(&g, EdgeId(0), &mut pr).unwrap();
        t.insert_edge(&g, EdgeId(1), &mut pr).unwrap();
        // Chord 0-2: cycle Q-1-2-Q. Endpoint 0 is Q (virtual root), so this
        // runs the cross-component path meeting at the virtual root.
        let r = t.insert_edge(&g, EdgeId(2), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleAcross);
        assert_eq!(r.sampled_edge_count, 3);
        assert_eq!(t.bi_component_count(), 1);
        // Exact triangle probability: 0.5 + 0.5·0.25 = 0.625.
        assert!((t.reach_to_query(VertexId(1)) - 0.625).abs() < 1e-12);
        assert!((t.reach_to_query(VertexId(2)) - 0.625).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn leaf_on_bi_component_becomes_child_mono() {
        let g = diamond_graph();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in [0, 1, 2] {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let r = t.insert_edge(&g, EdgeId(3), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::LeafBi);
        assert_eq!(t.component_count(), 2);
        // v3 reach = reach(2) · 0.5 = 0.3125.
        assert!((t.reach_to_query(VertexId(3)) - 0.3125).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn cycle_in_mono_splits_and_orphans() {
        // Q(0)-1, 1-2, 2-3, 1-4 (orphan side), then chord 2-... build:
        // tree: Q-1-2-3 and 1-4; cycle edge 3-1 creates BC {2,3} AV=1;
        // vertex 4 stays mono under 1.
        let mut b = GraphBuilder::new();
        b.add_vertices(5, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e2
        b.add_edge(VertexId(1), VertexId(4), p).unwrap(); // e3
        b.add_edge(VertexId(3), VertexId(1), p).unwrap(); // e4 (chord)
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in [0, 1, 2, 3] {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        let r = t.insert_edge(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleInMono);
        assert_eq!(t.bi_component_count(), 1);
        // Mono root {1, 4}, BC {2, 3} with AV 1.
        assert!((t.reach_to_query(VertexId(4)) - 0.25).abs() < 1e-12);
        // Triangle-as-cycle 1-2-3-1: reach(2 ↔ 1) = 0.625; times reach(1) 0.5.
        assert!((t.reach_to_query(VertexId(2)) - 0.3125).abs() < 1e-12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn cycle_in_bi_reestimates_in_place() {
        // Square Q-1-2-3-Q, then diagonal 1-3 inside the bi component.
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        b.add_edge(VertexId(2), VertexId(3), p).unwrap();
        b.add_edge(VertexId(3), VertexId(0), p).unwrap();
        b.add_edge(VertexId(1), VertexId(3), p).unwrap();
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in [0, 1, 2, 3] {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        assert_eq!(t.bi_component_count(), 1);
        let before = t.reach_to_query(VertexId(2));
        let r = t.insert_edge(&g, EdgeId(4), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleInBi);
        assert_eq!(t.bi_component_count(), 1);
        assert_eq!(t.component_count(), 1);
        let after = t.reach_to_query(VertexId(2));
        assert!(after > before, "extra path must increase reachability");
        t.validate(&g).unwrap();
    }

    #[test]
    fn cross_component_cycle_absorbs_bi_chain() {
        // Build: triangle Q-1-2 (BC1), tail 2-3 (mono), triangle 3-4-5 via
        // edges (3-4),(4-5),(5-3) => BC2 under mono; then edge 5-Q closes a
        // giant cycle absorbing everything.
        let mut b = GraphBuilder::new();
        b.add_vertices(6, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        b.add_edge(VertexId(0), VertexId(1), p).unwrap(); // e0
        b.add_edge(VertexId(1), VertexId(2), p).unwrap(); // e1
        b.add_edge(VertexId(0), VertexId(2), p).unwrap(); // e2 → BC1
        b.add_edge(VertexId(2), VertexId(3), p).unwrap(); // e3 tail
        b.add_edge(VertexId(3), VertexId(4), p).unwrap(); // e4
        b.add_edge(VertexId(4), VertexId(5), p).unwrap(); // e5
        b.add_edge(VertexId(5), VertexId(3), p).unwrap(); // e6 → BC2
        b.add_edge(VertexId(5), VertexId(0), p).unwrap(); // e7 giant cycle
        let g = b.build();
        let mut t = FTree::new(&g, VertexId(0));
        let mut pr = exact_provider();
        for e in 0..7 {
            t.insert_edge(&g, EdgeId(e), &mut pr).unwrap();
        }
        assert_eq!(t.bi_component_count(), 2);
        let r = t.insert_edge(&g, EdgeId(7), &mut pr).unwrap();
        assert_eq!(r.case, InsertCase::CycleAcross);
        // Everything collapses into one bi component rooted at Q.
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.bi_component_count(), 1);
        assert_eq!(r.sampled_edge_count, 8);
        t.validate(&g).unwrap();
    }

    #[test]
    fn recompute_mono_tree_fixes_reach_and_depth() {
        // Chain anchor <- a <- b with probs 0.5, 0.25.
        let anchor = VertexId(7);
        let a = VertexId(8);
        let b = VertexId(9);
        let mut members = BTreeMap::new();
        members.insert(
            a,
            MonoMember {
                parent: anchor,
                parent_edge: EdgeId(0),
                edge_prob: 0.5,
                reach: 0.1,
                depth: 9,
            },
        );
        members.insert(
            b,
            MonoMember {
                parent: a,
                parent_edge: EdgeId(1),
                edge_prob: 0.25,
                reach: 0.2,
                depth: 9,
            },
        );
        recompute_mono_tree(&mut members, anchor);
        assert_eq!(members[&a].reach, 0.5);
        assert_eq!(members[&a].depth, 1);
        assert_eq!(members[&b].reach, 0.125);
        assert_eq!(members[&b].depth, 2);
    }
}
