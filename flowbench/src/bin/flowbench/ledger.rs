//! In-process calls into the library layers: the oracle runs every answer
//! is checked against, and the traced pass that times selection,
//! evaluation and the sampling kernel and keeps their work counters.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flowmax::core::{
    evaluate_selection_with_parallelism, Algorithm, SelectionMetrics, SelectionStep, Session,
};
use flowmax::graph::{EdgeId, ProbabilisticGraph, VertexId};
use flowmax::sampling::{ComponentGraph, ParallelEstimator, SeedSequence};

use crate::spans::Recorder;

/// The master seed of every query: the CLI's and the daemon's default.
pub const SEED: u64 = 42;

/// One query as the CLI and the daemon state it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub query: u32,
    pub algorithm: Algorithm,
    pub budget: usize,
    pub samples: u32,
}

/// An answer: the selection in commit order, its evaluated flow and the
/// selection's work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub selected: Vec<EdgeId>,
    pub flow: f64,
    pub metrics: SelectionMetrics,
}

fn session(graph: &ProbabilisticGraph, threads: usize, lanes: usize) -> Session<'_> {
    Session::new(graph)
        .with_threads(threads)
        .with_lane_words(lanes)
        .with_seed(SEED)
}

/// Runs `spec` through `Session` without tracing.
pub fn solve(
    graph: &ProbabilisticGraph,
    spec: Spec,
    threads: usize,
    lanes: usize,
) -> Result<Answer, String> {
    let session = session(graph, threads, lanes);
    let run = session
        .query(VertexId(spec.query))
        .map_err(|e| e.to_string())?
        .algorithm(spec.algorithm)
        .budget(spec.budget)
        .samples(spec.samples)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(Answer {
        selected: run.selected,
        flow: run.flow,
        metrics: run.metrics,
    })
}

/// What the traced pass accumulates over its queries.
#[derive(Debug, Default)]
pub struct Ledger {
    pub metrics: SelectionMetrics,
    pub runs: usize,
    pub iterations: u64,
    pub select: Duration,
    pub eval: Duration,
    /// Gaps between consecutive observer steps, in milliseconds.
    pub step_gaps_ms: Vec<f64>,
}

impl Ledger {
    /// Per-layer metrics of the pass: times per query, counters summed.
    pub fn metrics(&self) -> Vec<flowbench::report::Metric> {
        use flowbench::report::Metric;
        use flowbench::stats;
        let m = &self.metrics;
        let runs = self.runs.max(1) as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let gaps = &self.step_gaps_ms;
        vec![
            Metric::new(
                "core.selection.select_s",
                "s",
                self.select.as_secs_f64() / runs,
                self.runs,
            ),
            Metric::new(
                "core.selection.iter_p50_ms",
                "ms",
                stats::median(gaps).unwrap_or(0.0),
                gaps.len(),
            ),
            Metric::new(
                "core.selection.iter_p99_ms",
                "ms",
                stats::tail_or_max(gaps).map_or(0.0, |t| t.0),
                gaps.len(),
            ),
            Metric::new("core.selection.probes", "count", m.probes as f64, self.runs),
            Metric::new(
                "core.selection.probes_per_iter",
                "count",
                ratio(m.probes, self.iterations),
                self.runs,
            ),
            Metric::new(
                "core.selection.analytic_share",
                "share",
                ratio(m.analytic_probes, m.probes),
                self.runs,
            ),
            Metric::new(
                "core.selection.memo_hit_ratio",
                "share",
                ratio(m.memo_hits, m.memo_hits + m.components_sampled),
                self.runs,
            ),
            Metric::new(
                "core.selection.ci_pruned",
                "count",
                m.ci_pruned as f64,
                self.runs,
            ),
            Metric::new(
                "core.selection.ds_skipped",
                "count",
                m.ds_skipped as f64,
                self.runs,
            ),
            Metric::new(
                "core.ftree.case_ii",
                "count",
                m.insert_case_ii as f64,
                self.runs,
            ),
            Metric::new(
                "core.ftree.case_iiia",
                "count",
                m.insert_case_iiia as f64,
                self.runs,
            ),
            Metric::new(
                "core.ftree.case_iiib",
                "count",
                m.insert_case_iiib as f64,
                self.runs,
            ),
            Metric::new(
                "core.ftree.case_iv",
                "count",
                m.insert_case_iv as f64,
                self.runs,
            ),
            Metric::new(
                "core.eval.eval_s",
                "s",
                self.eval.as_secs_f64() / runs,
                self.runs,
            ),
            Metric::new(
                "sampling.samples_drawn",
                "count",
                m.samples_drawn as f64,
                self.runs,
            ),
            Metric::new(
                "sampling.edge_samples",
                "count",
                m.edge_samples_drawn as f64,
                self.runs,
            ),
            Metric::new(
                "sampling.components_sampled",
                "count",
                m.components_sampled as f64,
                self.runs,
            ),
        ]
    }
}

/// Runs `spec` through `QueryBuilder::run_with` with one span per observer
/// step, then times `evaluate_selection_with_parallelism` on its answer.
#[allow(clippy::too_many_arguments)]
pub fn traced_solve(
    graph: &ProbabilisticGraph,
    spec: Spec,
    threads: usize,
    lanes: usize,
    rec: &mut Recorder,
    parent: Option<usize>,
    request: u64,
    ledger: &mut Ledger,
) -> Result<Answer, String> {
    let session = session(graph, threads, lanes);
    let builder = session
        .query(VertexId(spec.query))
        .map_err(|e| e.to_string())?
        .algorithm(spec.algorithm)
        .budget(spec.budget)
        .samples(spec.samples);
    let mut stamps = Vec::with_capacity(spec.budget);
    let start = Instant::now();
    let run = builder
        .run_with(&mut |_: &SelectionStep| stamps.push(Instant::now()))
        .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let run_span = rec.record("core.selection.run_with", parent, request, start, end);
    let mut previous = start;
    for &stamp in &stamps {
        rec.record("core.selection.step", run_span, request, previous, stamp);
        ledger
            .step_gaps_ms
            .push((stamp - previous).as_secs_f64() * 1e3);
        previous = stamp;
    }

    // The session evaluates the F-tree algorithms' selections in edge-id
    // order; time the same call.
    let mut order = run.selected.clone();
    if !matches!(spec.algorithm, Algorithm::Naive | Algorithm::Dijkstra) {
        order.sort_unstable();
    }
    let eval_start = Instant::now();
    black_box(evaluate_selection_with_parallelism(
        graph,
        VertexId(spec.query),
        &order,
        session.evaluation(),
        false,
        SEED,
        threads,
        lanes,
    ));
    let eval_end = Instant::now();
    rec.record("core.eval.evaluate", parent, request, eval_start, eval_end);

    ledger.metrics.absorb(&run.metrics);
    ledger.runs += 1;
    ledger.iterations += run.steps.len() as u64;
    ledger.select += run.elapsed;
    ledger.eval += eval_end - eval_start;
    Ok(Answer {
        selected: run.selected,
        flow: run.flow,
        metrics: run.metrics,
    })
}

/// Edge-samples per second of the public batched estimator, at the
/// workload's samples, threads and lanes, on the component spanned by the
/// first edges of an answer's selection: as many edges as the answer's
/// sampled components had on average (8 to 256). Runs for at least
/// `min_time`.
pub fn kernel_edge_samples_per_s(
    graph: &ProbabilisticGraph,
    query: u32,
    answer: &Answer,
    samples: u32,
    threads: usize,
    lanes: usize,
    min_time: Duration,
) -> f64 {
    let m = &answer.metrics;
    let typical = (m.edge_samples_drawn / m.samples_drawn.max(1)).clamp(8, 256) as usize;
    let edges = &answer.selected[..answer.selected.len().min(typical)];
    if edges.is_empty() {
        return 0.0;
    }
    let component = ComponentGraph::build(graph, VertexId(query), edges);
    let estimator = ParallelEstimator::new(threads).with_lane_words(lanes);
    let seq = SeedSequence::new(SEED);
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < min_time {
        black_box(estimator.sample_component(&component, samples, &seq));
        calls += 1;
    }
    (component.edge_count() as u64 * samples as u64 * calls) as f64 / start.elapsed().as_secs_f64()
}

/// Checks that `spec` gives the same answer and the same work counters at
/// one thread and at `threads`, and at lane width 1 and 8. Returns one
/// description per mismatch, and the number of comparisons made.
pub fn invariance_failures(
    graph: &ProbabilisticGraph,
    spec: Spec,
    threads: usize,
    lanes: usize,
) -> Result<(Vec<String>, u64), String> {
    let reference = solve(graph, spec, threads, lanes)?;
    let mut failures = Vec::new();
    let variants = [
        (1, lanes, "threads 1"),
        (
            threads,
            if lanes == 1 { 8 } else { 1 },
            "the other lane width",
        ),
    ];
    for (t, l, what) in variants {
        let other = solve(graph, spec, t, l)?;
        if other.selected != reference.selected
            || other.flow.to_bits() != reference.flow.to_bits()
            || other.metrics != reference.metrics
        {
            failures.push(format!(
                "{spec:?} differs at {what} (threads {t}, lanes {l}) from threads {threads}, lanes {lanes}"
            ));
        }
    }
    Ok((failures, variants.len() as u64))
}
