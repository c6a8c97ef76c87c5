//! The greedy edge-selection algorithm (§6.1) with the M / CI / DS
//! heuristics (§6.2–6.4).
//!
//! Each iteration finds the flow maximizer among all candidate edges
//! (Eq. 5) and inserts it into the F-tree. Leaf (Case II) candidates have
//! a closed-form gain and sit in a gain-ordered index
//! ([`CandidateSet`]) that is rescored only where a commit changed a
//! reach: the new vertex's edges after a leaf commit, every leaf after a
//! Case IIIa/IIIb/IV commit. The engines probe the structural candidates
//! plus the one leaf the tie rule would pick, so selections are those of
//! probing every candidate. The heuristics modify the probing loop only:
//!
//! * **M** — probes and insertions share a memoizing estimate provider;
//! * **CI** — candidates whose components must be sampled race each other in
//!   rounds of growing sample budgets; a candidate whose upper flow bound
//!   falls below another's lower bound is pruned (with ≥ 30 samples, §6.3).
//!   The racing engine (`selection::racing`) runs each round as one
//!   multi-candidate job on the parallel sampler with incremental
//!   whole-batch estimates and budget reallocation;
//! * **DS** — probed-but-not-selected candidates are suspended for
//!   `⌊log_c(cost/pot)⌋` iterations (§6.4); suspended candidates never
//!   enter a race round.

use flowmax_graph::{EdgeId, ProbabilisticGraph, VertexId};

use crate::cancel::{RunControl, StopCause};
use crate::estimator::{EstimatorConfig, SamplingProvider};
use crate::ftree::{FTree, InsertCase, ProbeOutcome};
use crate::metrics::SelectionMetrics;
use crate::selection::candidates::CandidateSet;
use crate::selection::delayed::DelayTracker;
use crate::selection::memo::MemoProvider;
use crate::selection::observer::{NoObserver, SelectionObserver, SelectionStep};
use crate::selection::racing::RaceDriver;

/// Configuration of a greedy selection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyConfig {
    /// Edge budget `k` (Def. 4).
    pub budget: usize,
    /// Monte-Carlo samples per component estimation (paper: 1000).
    pub samples: u32,
    /// Components with at most this many uncertain edges are enumerated
    /// exactly instead of sampled (0 = pure Monte-Carlo, the paper setting).
    pub exact_edge_cap: usize,
    /// Enable component memoization (§6.2).
    pub memoize: bool,
    /// Enable confidence-interval pruning (§6.3).
    pub confidence_pruning: bool,
    /// Enable delayed sampling (§6.4).
    pub delayed_sampling: bool,
    /// DS penalty parameter `c` (paper default 2).
    pub ds_penalty_c: f64,
    /// CI significance level `α` (paper default 0.01).
    pub alpha: f64,
    /// Whether `W(Q)` counts toward the flow.
    pub include_query: bool,
    /// Master seed for all sampling.
    pub seed: u64,
    /// Worker threads for component sampling (results do not depend on
    /// this; see `flowmax_sampling::ParallelEstimator`).
    pub threads: usize,
    /// Lane width for component sampling, in 64-world lane words per BFS
    /// block (supported widths 1, 4, 8; results do not depend on this —
    /// see `flowmax_sampling::ParallelEstimator::with_lane_words`).
    pub lane_words: usize,
    /// Drive iterations through the incremental engine (the default):
    /// `O(touched)` flow aggregation through the F-tree flow cache, with
    /// every winner committed by a journalled apply whose touched slots
    /// mark the cache dirty. `false` selects the journal reference engine,
    /// which commits by plain insertion and re-aggregates the whole forest
    /// per evaluation, kept for the differential tests; results are
    /// bit-identical either way.
    pub incremental: bool,
}

impl GreedyConfig {
    /// The plain `FT` algorithm at the paper's defaults, with the
    /// `FLOWMAX_THREADS` worker count (default 1).
    pub fn ft(budget: usize, seed: u64) -> Self {
        GreedyConfig {
            budget,
            samples: 1000,
            exact_edge_cap: 0,
            memoize: false,
            confidence_pruning: false,
            delayed_sampling: false,
            ds_penalty_c: 2.0,
            alpha: 0.01,
            include_query: false,
            seed,
            threads: flowmax_sampling::default_threads(),
            lane_words: flowmax_sampling::default_lane_words(),
            incremental: true,
        }
    }

    /// Selects between the incremental engine (`true`, the default) and
    /// the pinned whole-forest journal reference (`false`). Bit-identical
    /// results; the differential harness runs both.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Overrides the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the sampling lane width (64-world lane words per BFS
    /// block). Bit-identical results at every supported width.
    pub fn with_lane_words(mut self, lane_words: usize) -> Self {
        self.lane_words = lane_words;
        self
    }

    /// Enables memoization (`FT+M`).
    pub fn with_memo(mut self) -> Self {
        self.memoize = true;
        self
    }

    /// Enables confidence-interval pruning (`+CI`).
    pub fn with_ci(mut self) -> Self {
        self.confidence_pruning = true;
        self
    }

    /// Enables delayed sampling (`+DS`).
    pub fn with_ds(mut self) -> Self {
        self.delayed_sampling = true;
        self
    }
}

/// Result of a greedy selection run.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Selected edges, in selection order.
    pub selected: Vec<EdgeId>,
    /// Expected flow after each iteration (under the run's own estimates).
    pub flow_trace: Vec<f64>,
    /// Final expected flow (under the run's own estimates).
    pub final_flow: f64,
    /// Work counters.
    pub metrics: SelectionMetrics,
    /// Why the run stopped early, if it did. `None` means the run used its
    /// full edge budget (or ran out of candidates). When `Some`, the
    /// selection is bit-identical to the same-seed uncontrolled run's
    /// prefix of the same length — the anytime contract.
    pub stopped: Option<StopCause>,
}

pub(crate) struct ProbeRecord {
    pub(crate) edge: EdgeId,
    pub(crate) outcome: ProbeOutcome,
}

/// Runs the greedy selection (§6.1) over `graph` from `query`.
pub fn greedy_select(
    graph: &ProbabilisticGraph,
    query: VertexId,
    config: &GreedyConfig,
) -> SelectionOutcome {
    greedy_select_observed(graph, query, config, &mut NoObserver)
}

/// [`greedy_select`] with a [`SelectionObserver`] receiving one
/// [`SelectionStep`] per committed edge, while the run executes. The
/// observer is passive: observed and unobserved runs are bit-identical.
pub fn greedy_select_observed(
    graph: &ProbabilisticGraph,
    query: VertexId,
    config: &GreedyConfig,
    observer: &mut dyn SelectionObserver,
) -> SelectionOutcome {
    greedy_select_controlled(graph, query, config, &RunControl::unlimited(), observer)
}

/// [`greedy_select_observed`] under a [`RunControl`]: cancellation and
/// deadlines are checked strictly *between* iterations, so a stopped run's
/// selection is the uncontrolled run's prefix, bit for bit —
/// [`SelectionOutcome::stopped`] records why it stopped.
pub fn greedy_select_controlled(
    graph: &ProbabilisticGraph,
    query: VertexId,
    config: &GreedyConfig,
    control: &RunControl,
    observer: &mut dyn SelectionObserver,
) -> SelectionOutcome {
    let estimator = EstimatorConfig {
        exact_edge_cap: config.exact_edge_cap,
        samples: config.samples,
    };
    let inner = SamplingProvider::with_parallelism(
        estimator,
        config.seed,
        config.threads,
        config.lane_words,
    );
    let mut provider = MemoProvider::new(inner, config.memoize);
    let mut tree = FTree::new(graph, query);
    let incremental = config.incremental;
    if incremental {
        tree.enable_flow_cache();
    }
    let mut candidates = CandidateSet::new(graph, query);
    let mut delays = DelayTracker::new(config.ds_penalty_c);
    let mut racer = config.confidence_pruning.then(|| RaceDriver::new(config));
    let mut metrics = SelectionMetrics::default();
    let mut flow_trace = Vec::with_capacity(config.budget);
    let mut base_flow = 0.0;
    let mut stopped = None;

    for iter in 0..config.budget {
        // The stop check sits strictly between iterations: `iter` edges
        // are committed at this point, and stopping here yields exactly
        // that prefix — never a torn iteration.
        if !control.is_unlimited() {
            if let Some(cause) = control.should_stop(iter) {
                stopped = Some(cause);
                break;
            }
        }
        if candidates.is_empty() {
            break;
        }
        let probes_before = metrics.probes;
        let ci_pruned_before = metrics.ci_pruned;
        let memo_hits_before = metrics.memo_hits + provider.inner().metrics.memo_hits;
        // Score the leaves that joined since the last iteration (all of them
        // after a structural commit): each is one closed-form Δ.
        let scored = candidates.score_leaves(graph, &tree);
        metrics.probes += scored;
        metrics.analytic_probes += scored;
        // Gather the probe pool, honouring DS suspensions (§6.4: suspended
        // candidates never enter the round; if everything is suspended the
        // full pool is probed rather than stalling).
        let round = candidates.probe_round(base_flow, |e| {
            config.delayed_sampling && delays.is_suspended(e)
        });
        metrics.ds_skipped += round.skipped;

        // The probe phase is clone-free by construction (journalled
        // apply/rollback); debug builds prove it with the thread-local
        // clone counter.
        #[cfg(debug_assertions)]
        let clones_before = FTree::debug_clone_count();
        #[cfg(debug_assertions)]
        let full_evals_before = FTree::debug_full_flow_eval_count();
        let records = if let Some(racer) = racer.as_mut() {
            racer.probe_candidates(
                graph,
                &mut tree,
                &round.pool,
                base_flow,
                config,
                &mut provider,
                &mut metrics,
            )
        } else {
            probe_all(
                graph,
                &mut tree,
                &round.pool,
                base_flow,
                config,
                &mut provider,
                &mut metrics,
            )
        };
        #[cfg(debug_assertions)]
        debug_assert!(
            FTree::debug_clone_count() == clones_before,
            "the selection hot loop must not clone the F-tree"
        );
        let Some(best_idx) = best_record(&records) else {
            break;
        };
        let best_edge = records[best_idx].edge;
        let prev_flow = base_flow;
        let best_gain = records[best_idx].outcome.flow - prev_flow;
        let best_case = records[best_idx].outcome.case;

        // Commit. With memoization the insertion reuses the winning probe's
        // estimate from the memo; otherwise it re-samples (the paper's plain
        // FT). The incremental engine commits through the journalled apply,
        // which hands the touched slots to the flow cache.
        if incremental {
            let (report, journal) = tree
                .apply(graph, best_edge, &mut provider)
                .expect("candidate edges are insertable");
            debug_assert_eq!(report.case, best_case);
            let touched: Vec<u32> = journal.touched_slot_ids().collect();
            // Dropping the journal keeps the insertion.
            drop(journal);
            tree.cache_mark_dirty(touched);
        } else {
            let report = tree
                .insert_edge(graph, best_edge, &mut provider)
                .expect("candidate edges are insertable");
            debug_assert_eq!(report.case, best_case);
        }
        match best_case {
            InsertCase::LeafMono | InsertCase::LeafBi => metrics.insert_case_ii += 1,
            InsertCase::CycleInBi => metrics.insert_case_iiia += 1,
            InsertCase::CycleInMono => metrics.insert_case_iiib += 1,
            InsertCase::CycleAcross => metrics.insert_case_iv += 1,
        }
        candidates.remove(best_edge);
        delays.lift(best_edge);
        if matches!(best_case, InsertCase::LeafMono | InsertCase::LeafBi) {
            // A leaf attachment writes no existing vertex's reach, so every
            // cached leaf Δ stays exact; the one new vertex's edges change
            // group or join as leaves.
            let (a, b) = graph.endpoints(best_edge);
            for v in [a, b] {
                candidates.vertex_joined(graph, v, tree.selected_edges());
            }
        } else {
            // Cases IIIa/IIIb/IV re-estimate components: reaches changed.
            candidates.invalidate_leaf_scores();
        }

        base_flow = if incremental {
            tree.flow_cached_total(graph, config.include_query)
        } else {
            tree.expected_flow(graph, config.include_query)
        };

        // Post-commit revalidation (the clone-counter pattern of the probe
        // phase, extended to the incremental state): the candidate groups
        // and every cached leaf Δ must match a from-scratch recomputation
        // bit for bit; under the incremental engine the whole iteration
        // must also have run zero whole-forest traversals, and the cached
        // base flow must match the whole-forest reference.
        #[cfg(debug_assertions)]
        candidates.debug_validate(graph, &tree);
        #[cfg(debug_assertions)]
        if incremental {
            assert_eq!(
                FTree::debug_full_flow_eval_count(),
                full_evals_before,
                "incremental iterations must never fall back to whole-forest flow evaluation"
            );
            assert_eq!(
                base_flow.to_bits(),
                tree.expected_flow(graph, config.include_query).to_bits(),
                "cached base flow diverged from the whole-forest reference"
            );
        }

        flow_trace.push(base_flow);
        observer.on_step(&SelectionStep {
            iteration: iter,
            edge: best_edge,
            gain: base_flow - prev_flow,
            flow: base_flow,
            pool: round.competing,
            probes: metrics.probes - probes_before,
            ci_pruned: metrics.ci_pruned - ci_pruned_before,
            ds_skipped: round.skipped,
            memo_hits: metrics.memo_hits + provider.inner().metrics.memo_hits - memo_hits_before,
        });

        if config.delayed_sampling {
            // Age existing suspensions *before* recording this iteration's:
            // a fresh `d(e') = ⌊log_c(cost/pot)⌋` must suspend the candidate
            // for the next d full iterations (the paper's worked example:
            // d = 9 ⇒ nine skipped probe rounds), not d − 1.
            delays.tick();
            for r in &records {
                if r.edge != best_edge {
                    delays.record(
                        r.edge,
                        r.outcome.flow - prev_flow,
                        best_gain,
                        r.outcome.sampling_cost_edges,
                    );
                }
            }
        }
    }

    metrics.absorb(&provider.inner().metrics);
    SelectionOutcome {
        selected: tree.selected_edges().iter().collect(),
        flow_trace,
        final_flow: base_flow,
        metrics,
        stopped,
    }
}

/// Index of the record with maximal flow (ties: lowest edge id, for
/// deterministic selection).
fn best_record(records: &[ProbeRecord]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in records.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(j) => {
                let rj = &records[j];
                if r.outcome.flow > rj.outcome.flow
                    || (r.outcome.flow == rj.outcome.flow && r.edge < rj.edge)
                {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// Plain probing: every pool edge probed once at the full sample budget.
/// Each structural probe is one journalled apply and rollback on the shared
/// tree.
fn probe_all(
    graph: &ProbabilisticGraph,
    tree: &mut FTree,
    pool: &[EdgeId],
    base_flow: f64,
    config: &GreedyConfig,
    provider: &mut MemoProvider,
    metrics: &mut SelectionMetrics,
) -> Vec<ProbeRecord> {
    let mut records = Vec::with_capacity(pool.len());
    for &e in pool {
        let outcome = tree
            .probe_edge(
                graph,
                e,
                base_flow,
                config.include_query,
                config.alpha,
                provider,
            )
            .expect("candidates are probeable");
        metrics.probes += 1;
        if outcome.sampling_cost_edges == 0 {
            metrics.analytic_probes += 1;
        }
        records.push(ProbeRecord { edge: e, outcome });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax_graph::{GraphBuilder, Probability, Weight};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// Q(0) with two branches: a high-value branch (weight 10 at v1) and a
    /// low-value one (weight 1 at v2), plus a chord 1-2.
    fn small_graph() -> ProbabilisticGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex(Weight::ZERO); // Q
        b.add_vertex(Weight::new(10.0).unwrap());
        b.add_vertex(Weight::ONE);
        b.add_vertex(Weight::new(5.0).unwrap());
        b.add_edge(VertexId(0), VertexId(1), p(0.9)).unwrap(); // e0
        b.add_edge(VertexId(0), VertexId(2), p(0.9)).unwrap(); // e1
        b.add_edge(VertexId(1), VertexId(2), p(0.9)).unwrap(); // e2
        b.add_edge(VertexId(2), VertexId(3), p(0.9)).unwrap(); // e3
        b.build()
    }

    #[test]
    fn greedy_picks_high_value_edge_first() {
        let g = small_graph();
        let out = greedy_select(&g, VertexId(0), &GreedyConfig::ft(1, 1));
        assert_eq!(out.selected, vec![EdgeId(0)], "weight-10 branch first");
        assert!((out.final_flow - 9.0).abs() < 1e-9);
        assert_eq!(out.flow_trace.len(), 1);
    }

    #[test]
    fn budget_exhausts_or_candidates_do() {
        let g = small_graph();
        let out = greedy_select(&g, VertexId(0), &GreedyConfig::ft(10, 1));
        assert_eq!(out.selected.len(), 4, "only 4 edges exist");
        assert_eq!(out.metrics.insertions(), 4);
    }

    #[test]
    fn flow_trace_is_monotone_under_exact_estimation() {
        let g = small_graph();
        let mut cfg = GreedyConfig::ft(4, 1);
        cfg.exact_edge_cap = 20;
        let out = greedy_select(&g, VertexId(0), &cfg);
        for w in out.flow_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "adding edges never hurts: {:?}",
                out.flow_trace
            );
        }
    }

    #[test]
    fn memoization_reduces_sampling() {
        let g = small_graph();
        let base = greedy_select(&g, VertexId(0), &GreedyConfig::ft(4, 1));
        let memo = greedy_select(&g, VertexId(0), &GreedyConfig::ft(4, 1).with_memo());
        assert!(
            memo.metrics.memo_hits > 0,
            "commits should reuse probe estimates"
        );
        assert!(
            memo.metrics.components_sampled < base.metrics.components_sampled,
            "memoized run must sample fewer components ({} vs {})",
            memo.metrics.components_sampled,
            base.metrics.components_sampled
        );
        assert_eq!(memo.selected.len(), base.selected.len());
    }

    #[test]
    fn heuristic_stacks_produce_connected_selections() {
        let g = small_graph();
        let configs = [
            GreedyConfig::ft(4, 2),
            GreedyConfig::ft(4, 2).with_memo(),
            GreedyConfig::ft(4, 2).with_memo().with_ci(),
            GreedyConfig::ft(4, 2).with_memo().with_ds(),
            GreedyConfig::ft(4, 2).with_memo().with_ci().with_ds(),
        ];
        for cfg in configs {
            let out = greedy_select(&g, VertexId(0), &cfg);
            assert!(!out.selected.is_empty());
            assert!(out.final_flow > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_graph();
        let cfg = GreedyConfig::ft(4, 7).with_memo().with_ci().with_ds();
        let a = greedy_select(&g, VertexId(0), &cfg);
        let b = greedy_select(&g, VertexId(0), &cfg);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.final_flow, b.final_flow);
    }

    #[test]
    fn isolated_query_returns_empty() {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, Weight::ONE);
        b.add_edge(VertexId(1), VertexId(2), p(0.5)).unwrap();
        let g = b.build();
        let out = greedy_select(&g, VertexId(0), &GreedyConfig::ft(3, 1));
        assert!(out.selected.is_empty());
        assert_eq!(out.final_flow, 0.0);
    }
}
