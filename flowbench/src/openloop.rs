//! Open-loop schedules and their accounting.
//!
//! An open loop sends each request at its *due* time whatever the state of
//! earlier ones, like independent users. Every latency is therefore timed
//! from the due time, not the send time: a stall that delays later sends
//! is charged to those requests. How late the generator itself ran (send
//! minus due) is reported on its own so a slow client shows.

use crate::stats;
use crate::Rng;

/// Due times, in seconds from the start of the phase, of `count` requests
/// arriving as a Poisson process of `rate` requests per second.
pub fn poisson_due_times(rate: f64, count: usize, rng: &mut Rng) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)`:
/// a few hot keys and a long tail.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A Zipf(1) law over `n ≥ 1` ranks.
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n.max(1))
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_at(rng.next_f64())
    }

    /// The rank at quantile `q` of the law (`0 ≤ q < 1`).
    pub fn rank_at(&self, q: f64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|&c| c <= q * total)
            .min(self.cumulative.len() - 1)
    }
}

/// What happened to one scheduled request. Times are seconds from the
/// start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the client actually sent it.
    pub sent: f64,
    /// When its terminal reply arrived; `None` if none ever did.
    pub done: Option<f64>,
    /// Whether the reply was a correct `OK` answer. An `ERR` line (an
    /// overload refusal included) or an answer that failed a correctness
    /// check is not.
    pub ok: bool,
}

/// The accounting of one open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Requests sent.
    pub attempted: usize,
    /// Requests answered correctly with `OK`.
    pub succeeded: usize,
    /// Requests refused, failed, unanswered or answered wrongly.
    pub failed: usize,
    /// Due-to-reply latency of every answered request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Send-minus-due lateness of the generator, in milliseconds.
    pub gen_lag_ms: Vec<f64>,
    /// Correct answers whose due-to-reply latency met the limit; a failed
    /// or refused request never counts.
    pub within_limit: usize,
}

/// Accounts an open-loop phase against a latency limit in milliseconds.
pub fn summarize(records: &[Record], limit_ms: f64) -> Summary {
    let mut latencies_ms = Vec::with_capacity(records.len());
    let mut within_limit = 0;
    let mut succeeded = 0;
    for r in records {
        if let Some(done) = r.done {
            let ms = (done - r.due) * 1e3;
            latencies_ms.push(ms);
            if r.ok {
                succeeded += 1;
                if ms <= limit_ms {
                    within_limit += 1;
                }
            }
        }
    }
    Summary {
        attempted: records.len(),
        succeeded,
        failed: records.len() - succeeded,
        latencies_ms,
        gen_lag_ms: records.iter().map(|r| (r.sent - r.due) * 1e3).collect(),
        within_limit,
    }
}

/// The largest number of requests that were due and not yet answered at
/// the same instant. A reply at the instant another request falls due is
/// counted first.
pub fn backlog_max(records: &[Record]) -> usize {
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(2 * records.len());
    for r in records {
        events.push((r.due, 1));
        if let Some(done) = r.done {
            events.push((done, -1));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut open = 0i64;
    let mut max = 0i64;
    for (_, delta) in events {
        open += delta;
        max = max.max(open);
    }
    max as usize
}

/// The generator's lateness tail in milliseconds (the tail percentile, or
/// the maximum with too few samples); 0 with no requests.
pub fn gen_lag_tail_ms(summary: &Summary) -> f64 {
    stats::tail_or_max(&summary.gen_lag_ms).map_or(0.0, |(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due: f64, sent: f64, done: Option<f64>, ok: bool) -> Record {
        Record {
            due,
            sent,
            done,
            ok,
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_increasing_and_near_its_rate() {
        let a = poisson_due_times(100.0, 5000, &mut Rng::new(1, 0));
        let b = poisson_due_times(100.0, 5000, &mut Rng::new(1, 0));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let span = a[a.len() - 1];
        assert!(
            (45.0..55.0).contains(&span),
            "5000 arrivals at 100/s took {span} s"
        );
    }

    #[test]
    fn latency_is_timed_from_the_due_time_not_the_send_time() {
        // The client sent 30 ms late; the server answered 10 ms after the
        // send. The request waited 40 ms from when it was due.
        let s = summarize(&[rec(1.0, 1.030, Some(1.040), true)], 100.0);
        assert!((s.latencies_ms[0] - 40.0).abs() < 1e-9);
        assert!((s.gen_lag_ms[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn failures_and_refusals_miss_the_limit_and_count_as_failed() {
        let records = [
            rec(0.0, 0.0, Some(0.010), true),  // fast, correct
            rec(0.0, 0.0, Some(0.500), true),  // correct but late
            rec(0.0, 0.0, Some(0.001), false), // ERR OVERLOADED: fast, refused
            rec(0.0, 0.0, None, false),        // never answered
        ];
        let s = summarize(&records, 100.0);
        assert_eq!(s.attempted, 4);
        assert_eq!(s.succeeded, 2);
        assert_eq!(s.failed, 2);
        assert_eq!(s.within_limit, 1);
        assert_eq!(s.latencies_ms.len(), 3);
    }

    #[test]
    fn backlog_counts_due_but_unanswered_requests() {
        let records = [
            rec(0.0, 0.0, Some(0.3), true),
            rec(0.1, 0.1, Some(0.4), true),
            rec(0.2, 0.2, Some(0.25), true),
            rec(0.5, 0.5, Some(0.6), true),
        ];
        assert_eq!(backlog_max(&records), 3);
        // A reply at the same instant as the next due time frees its slot.
        assert_eq!(
            backlog_max(&[
                rec(0.0, 0.0, Some(1.0), true),
                rec(1.0, 1.0, Some(2.0), true)
            ]),
            1
        );
        // An unanswered request stays in the backlog.
        assert_eq!(
            backlog_max(&[rec(0.0, 0.0, None, false), rec(1.0, 1.0, Some(2.0), true)]),
            2
        );
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_the_range() {
        let zipf = Zipf::new(96);
        let mut rng = Rng::new(5, 0);
        let mut counts = [0usize; 96];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts.iter().filter(|&&c| c > 0).count() > 90);
    }

    #[test]
    fn zipf_quantiles_map_to_ranks_in_order() {
        let zipf = Zipf::new(96);
        // Rank 0 holds 1/H(96) ≈ 19 % of the mass.
        assert_eq!(zipf.rank_at(0.0), 0);
        assert_eq!(zipf.rank_at(0.18), 0);
        assert_eq!(zipf.rank_at(0.2), 1);
        assert_eq!(zipf.rank_at(0.999_999), 95);
        let ranks: Vec<usize> = (0..100).map(|k| zipf.rank_at(k as f64 / 100.0)).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
    }
}
