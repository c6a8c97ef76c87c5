//! Structural-probe-churn workloads: graphs built so that **structural**
//! candidate probes (cases IIIa/IIIb/IV) dominate every greedy iteration.
//!
//! Two shapes. The *diamond chain* ([`diamond_chain`],
//! [`diamond_chain_weighted`]) has `B` links, each a 4-edge diamond
//! `h_i → {a_i, b_i} → h_{i+1}` of near-certain edges, so the selected
//! subgraph grows into a chain of `B` small bi-connected components. One
//! low-probability rung chord `a_i – a_{i+1}` per link is never worth
//! selecting but stays in the candidate list forever: every iteration
//! re-probes every open chord, and each such probe is a Case IV structural
//! insertion across two adjacent components along an `O(B)`-deep block
//! tree.
//!
//! The *preferential-attachment churn* ([`preferential_attachment_churn`])
//! grows diamond blocks from degree-weighted hubs into a shallow,
//! organically skewed block tree and churns on in-component diagonals
//! (Case IIIa): probes that mutate nothing, so their cost is almost
//! entirely flow evaluation.
//!
//! The incremental-vs-journal differential harness
//! (`tests/differential_incremental.rs` of the facade crate) runs both
//! workloads at 60 links/diamonds; the tests below keep small instances of
//! the same check next to the generators.

use flowmax_graph::{GraphBuilder, ProbabilisticGraph, Probability, VertexId, Weight};

/// Builds the diamond-chain churn graph with `links` diamonds.
///
/// Vertices: `h_0 = Q`, then per link `a_i`, `b_i`, `h_{i+1}` — `3·links + 1`
/// in total. Edges per link, in id order: `h_i–a_i`, `h_i–b_i`,
/// `a_i–h_{i+1}`, `b_i–h_{i+1}` (probability 0.99, the selection targets)
/// and the churn chord `a_i–a_{i+1}` (probability 0.05, structurally probed
/// forever, never selected) for every link but the last.
pub fn diamond_chain(links: usize) -> ProbabilisticGraph {
    diamond_chain_weighted(links, Weight::ONE)
}

/// [`diamond_chain`] with the chain hubs `h_{i+1}` carrying weight `tail`
/// instead of one.
///
/// A heavy tail (200, say) makes closing a link's second rail
/// (≈ `0.0098 · tail` flow gain) outrank opening the next link's leaves
/// (≈ 0.97), so the greedy selection completes each diamond as soon as it
/// reaches it. The mono frontier of incomplete links then stays `O(1)`:
/// chord probes always bridge two *completed* bi-connected components
/// instead of carving paths out of a large mono component.
pub fn diamond_chain_weighted(links: usize, tail: Weight) -> ProbabilisticGraph {
    assert!(links >= 2, "need at least two links for cross-link chords");
    let mut b = GraphBuilder::new();
    let diamond = Probability::new(0.99).unwrap();
    let chord = Probability::new(0.05).unwrap();
    let mut hub = b.add_vertex(Weight::ONE);
    let mut prev_a: Option<VertexId> = None;
    for _ in 0..links {
        let a = b.add_vertex(Weight::ONE);
        let bb = b.add_vertex(Weight::ONE);
        let next = b.add_vertex(tail);
        b.add_edge(hub, a, diamond).unwrap();
        b.add_edge(hub, bb, diamond).unwrap();
        b.add_edge(a, next, diamond).unwrap();
        b.add_edge(bb, next, diamond).unwrap();
        if let Some(pa) = prev_a {
            b.add_edge(pa, a, chord).unwrap();
        }
        prev_a = Some(a);
        hub = next;
    }
    b.build()
}

/// Builds the preferential-attachment churn graph: `diamonds` four-edge
/// diamond blocks `h → {a, b} → t` of near-certain edges, each anchored at
/// a **degree-weighted** existing vertex (an endpoint of a uniformly chosen
/// existing backbone edge), so hubs accrete many blocks and the selected
/// block tree is `O(log n)` deep instead of the diamond chain's `O(n)`.
///
/// The first `chords` diamonds additionally carry the churn chord — their
/// low-probability `a–b` diagonal. Once a diamond completes, its diagonal
/// joins two members of one bi-connected component and stays an open
/// **in-component (Case IIIa)** candidate that is re-probed every iteration
/// and never selected. Tails weigh 200, so the greedy completes each
/// diamond as soon as it opens it.
///
/// Deterministic for a given `(diamonds, chords, seed)` via an inline
/// xorshift — no RNG dependency.
pub fn preferential_attachment_churn(
    diamonds: usize,
    chords: usize,
    seed: u64,
) -> ProbabilisticGraph {
    assert!(diamonds >= 2, "need at least two diamond blocks");
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rail = Probability::new(0.99).unwrap();
    let chord = Probability::new(0.05).unwrap();
    let tail = Weight::new(200.0).unwrap();
    let mut b = GraphBuilder::new();
    let q = b.add_vertex(Weight::ONE);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for d in 0..diamonds {
        let hub = if edges.is_empty() {
            q
        } else {
            let (x, y) = edges[next() as usize % edges.len()];
            if next() & 1 == 0 {
                x
            } else {
                y
            }
        };
        let a = b.add_vertex(Weight::ONE);
        let bb = b.add_vertex(Weight::ONE);
        let t = b.add_vertex(tail);
        b.add_edge(hub, a, rail).unwrap();
        b.add_edge(hub, bb, rail).unwrap();
        b.add_edge(a, t, rail).unwrap();
        b.add_edge(bb, t, rail).unwrap();
        if d < chords {
            b.add_edge(a, bb, chord).unwrap();
        }
        edges.extend([(hub, a), (hub, bb), (a, t), (bb, t)]);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_core::{greedy_select, GreedyConfig};

    /// Asserts the incremental engine and the journal reference commit the
    /// same edges and report the same final flow bits on an `FT+M` run.
    fn assert_engines_agree(graph: &ProbabilisticGraph, budget: usize) {
        let mut config = GreedyConfig::ft(budget, 13).with_memo().with_threads(1);
        config.samples = 60;
        let incremental = greedy_select(graph, VertexId(0), &config.with_incremental(true));
        let journal = greedy_select(graph, VertexId(0), &config.with_incremental(false));
        assert_eq!(incremental.selected, journal.selected);
        assert_eq!(
            incremental.final_flow.to_bits(),
            journal.final_flow.to_bits()
        );
        assert_eq!(incremental.selected.len(), budget);
    }

    #[test]
    fn diamond_chain_shape() {
        let g = diamond_chain(5);
        assert_eq!(g.vertex_count(), 16);
        assert_eq!(g.edge_count(), 4 * 5 + 4);
    }

    #[test]
    fn pa_churn_shape() {
        let g = preferential_attachment_churn(10, 4, 1706);
        assert_eq!(g.vertex_count(), 31);
        assert_eq!(g.edge_count(), 4 * 10 + 4);
    }

    #[test]
    fn pa_churn_is_deterministic() {
        let a = preferential_attachment_churn(12, 6, 99);
        let b = preferential_attachment_churn(12, 6, 99);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn engines_agree_on_a_tiny_pa_churn() {
        assert_engines_agree(&preferential_attachment_churn(4, 4, 1706), 16);
    }

    #[test]
    fn engines_agree_on_a_tiny_chain() {
        assert_engines_agree(&diamond_chain(3), 12);
    }
}
