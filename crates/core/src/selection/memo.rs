//! Component memoization (§6.2, the **M** heuristic).
//!
//! During each greedy iteration many candidate probes (re-)estimate
//! bi-connected components. [`MemoProvider`] caches estimates keyed by the
//! component's identity — articulation vertex + exact edge set. The sample
//! budget and the exact-enumeration cap are fixed for a provider's life, so
//! they need no place in the key.
//! If a component re-forms unchanged in a later probe or insertion, the
//! cached reachability function is reused and no sampling happens. Staleness
//! is automatic: any change to the component changes its edge set and
//! therefore its key.

use std::collections::HashMap;

use flowmax_sampling::{ComponentEstimate, ComponentGraph};

use crate::estimator::{EstimateProvider, SamplingProvider};

/// A memoizing wrapper around [`SamplingProvider`].
#[derive(Debug)]
pub struct MemoProvider {
    inner: SamplingProvider,
    cache: HashMap<u64, ComponentEstimate>,
    enabled: bool,
    /// Number of cache hits (estimates served without sampling).
    pub hits: u64,
    /// Number of cache misses (estimates computed and stored).
    pub misses: u64,
}

impl MemoProvider {
    /// Wraps a sampling provider; when `enabled` is false the wrapper is a
    /// transparent pass-through (the plain `FT` algorithm).
    pub fn new(inner: SamplingProvider, enabled: bool) -> Self {
        MemoProvider {
            inner,
            cache: HashMap::new(),
            enabled,
            hits: 0,
            misses: 0,
        }
    }

    /// The wrapped provider (for metrics extraction).
    pub fn inner(&self) -> &SamplingProvider {
        &self.inner
    }

    /// Drops all cached estimates.
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Number of live cache entries.
    pub fn cached_components(&self) -> usize {
        self.cache.len()
    }

    /// Publishes an externally computed estimate into the cache under the
    /// component's key, so later probes and insertions of the same
    /// component reuse it without sampling. The racing engine stores
    /// its finalists here: their estimates hold *at least* the configured
    /// budget (racing budgets are whole-batch quantized and may be
    /// reallocation-boosted), so serving them where a full-budget estimate
    /// is expected only reduces variance.
    ///
    /// A no-op when memoization is disabled.
    pub fn store(&mut self, snapshot: &ComponentGraph, estimate: ComponentEstimate) {
        if !self.enabled {
            return;
        }
        self.cache.insert(snapshot.fingerprint(), estimate);
    }
}

impl EstimateProvider for MemoProvider {
    fn estimate(&mut self, snapshot: &ComponentGraph) -> ComponentEstimate {
        if !self.enabled {
            return self.inner.estimate(snapshot);
        }
        let key = snapshot.fingerprint();
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            self.inner.metrics.memo_hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let est = self.inner.estimate(snapshot);
        self.cache.insert(key, est.clone());
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorConfig;
    use flowmax_graph::{EdgeId, GraphBuilder, Probability, VertexId, Weight};

    fn snapshot(extra_edge: bool) -> ComponentGraph {
        let mut b = GraphBuilder::new();
        b.add_vertices(4, Weight::ONE);
        let p = Probability::new(0.5).unwrap();
        let e0 = b.add_edge(VertexId(0), VertexId(1), p).unwrap();
        let e1 = b.add_edge(VertexId(1), VertexId(2), p).unwrap();
        let e2 = b.add_edge(VertexId(0), VertexId(2), p).unwrap();
        let e3 = b.add_edge(VertexId(1), VertexId(3), p).unwrap();
        let _ = e3;
        let g = b.build();
        let edges: Vec<EdgeId> = if extra_edge {
            vec![e0, e1, e2, e3]
        } else {
            vec![e0, e1, e2]
        };
        ComponentGraph::build(&g, VertexId(0), &edges)
    }

    #[test]
    fn repeat_estimates_hit_the_cache() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(200), 1);
        let mut memo = MemoProvider::new(inner, true);
        let s = snapshot(false);
        let a = memo.estimate(&s);
        let b = memo.estimate(&s);
        assert_eq!(memo.hits, 1);
        assert_eq!(memo.misses, 1);
        assert_eq!(a.reach_all(), b.reach_all());
        assert_eq!(
            memo.inner().metrics.components_sampled,
            1,
            "sampled only once"
        );
    }

    #[test]
    fn different_edge_sets_do_not_alias() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        memo.estimate(&snapshot(false));
        memo.estimate(&snapshot(true));
        assert_eq!(memo.hits, 0);
        assert_eq!(memo.misses, 2);
        assert_eq!(memo.cached_components(), 2);
    }

    #[test]
    fn disabled_wrapper_is_transparent() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, false);
        let s = snapshot(false);
        memo.estimate(&s);
        memo.estimate(&s);
        assert_eq!(memo.hits, 0);
        assert_eq!(
            memo.inner().metrics.components_sampled,
            2,
            "resampled both times"
        );
    }

    #[test]
    fn stored_estimates_are_served_to_later_probes() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        let s = snapshot(false);
        // An externally computed (e.g. racing) estimate at a larger budget.
        let external = SamplingProvider::new(EstimatorConfig::monte_carlo(256), 9).estimate(&s);
        memo.store(&s, external.clone());
        let served = memo.estimate(&s);
        assert_eq!(memo.hits, 1, "the stored estimate must be served");
        assert_eq!(served.reach_all(), external.reach_all());
        assert_eq!(
            memo.inner().metrics.components_sampled,
            0,
            "no sampling through the memoized provider"
        );
        // Disabled wrapper: store is a no-op.
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut off = MemoProvider::new(inner, false);
        off.store(&s, external);
        assert_eq!(off.cached_components(), 0);
    }

    #[test]
    fn clear_empties_cache() {
        let inner = SamplingProvider::new(EstimatorConfig::monte_carlo(100), 1);
        let mut memo = MemoProvider::new(inner, true);
        memo.estimate(&snapshot(false));
        memo.clear();
        assert_eq!(memo.cached_components(), 0);
        memo.estimate(&snapshot(false));
        assert_eq!(memo.misses, 2);
    }
}
