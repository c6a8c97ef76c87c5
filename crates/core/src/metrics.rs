//! Instrumentation counters for F-tree maintenance and edge selection.
//!
//! The paper's claims are about *where time goes* (sampling vs analytic
//! propagation, memo hits vs re-sampling); these counters let the experiment
//! harness and the `flowbench` benchmark report that directly.

/// Counters accumulated during a selection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionMetrics {
    /// Probe evaluations: closed-form leaf gains computed for the greedy
    /// loop's candidate index (each new leaf once, every leaf again after a
    /// Case IIIa/IIIb/IV commit) plus engine probes (memoized ones
    /// included).
    pub probes: u64,
    /// Probes answered purely analytically: the index's leaf gains plus
    /// engine probes that drew no samples.
    pub analytic_probes: u64,
    /// Components (re-)estimated by Monte-Carlo sampling.
    pub components_sampled: u64,
    /// Components estimated by exact enumeration.
    pub components_enumerated: u64,
    /// Total Monte-Carlo samples drawn (possible worlds of components).
    pub samples_drawn: u64,
    /// Total component edges × samples — the per-edge sampling work.
    pub edge_samples_drawn: u64,
    /// Memoization hits (§6.2): estimates reused without re-sampling.
    pub memo_hits: u64,
    /// Candidates eliminated by confidence-interval pruning (§6.3).
    pub ci_pruned: u64,
    /// Candidate probes skipped because the edge was suspended (§6.4).
    pub ds_skipped: u64,
    /// Edge insertions by structural case (II, IIIa, IIIb, IV).
    pub insert_case_ii: u64,
    /// Case IIIa insertions (cycle inside a bi-connected component).
    pub insert_case_iiia: u64,
    /// Case IIIb insertions (cycle inside a mono-connected component).
    pub insert_case_iiib: u64,
    /// Case IV insertions (cycle across components).
    pub insert_case_iv: u64,
}

impl SelectionMetrics {
    /// Merges counters from another run (e.g. per-iteration aggregation).
    pub fn absorb(&mut self, other: &SelectionMetrics) {
        self.probes += other.probes;
        self.analytic_probes += other.analytic_probes;
        self.components_sampled += other.components_sampled;
        self.components_enumerated += other.components_enumerated;
        self.samples_drawn += other.samples_drawn;
        self.edge_samples_drawn += other.edge_samples_drawn;
        self.memo_hits += other.memo_hits;
        self.ci_pruned += other.ci_pruned;
        self.ds_skipped += other.ds_skipped;
        self.insert_case_ii += other.insert_case_ii;
        self.insert_case_iiia += other.insert_case_iiia;
        self.insert_case_iiib += other.insert_case_iiib;
        self.insert_case_iv += other.insert_case_iv;
    }

    /// Total structural insertions recorded.
    pub fn insertions(&self) -> u64 {
        self.insert_case_ii + self.insert_case_iiia + self.insert_case_iiib + self.insert_case_iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_counters() {
        let mut a = SelectionMetrics {
            probes: 2,
            memo_hits: 1,
            ..Default::default()
        };
        let b = SelectionMetrics {
            probes: 3,
            samples_drawn: 10,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.probes, 5);
        assert_eq!(a.memo_hits, 1);
        assert_eq!(a.samples_drawn, 10);
    }

    #[test]
    fn insertions_sums_cases() {
        let m = SelectionMetrics {
            insert_case_ii: 1,
            insert_case_iiia: 2,
            insert_case_iiib: 3,
            insert_case_iv: 4,
            ..Default::default()
        };
        assert_eq!(m.insertions(), 10);
    }
}
