//! Summary statistics the benchmark reports: nearest-rank percentiles with
//! the "ten samples beyond" tail rule, the geometric mean of α, and
//! closed-loop request accounting.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of all samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A reported percentile: its level, value and the sample counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// Percentile level actually reported, in percent.
    pub level: f64,
    /// The sample at that level.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly after the reported rank.
    pub beyond: usize,
}

/// The median of ascending `sorted`, by nearest rank.
pub fn median(sorted: &[f64]) -> Option<Percentile> {
    let n = sorted.len();
    nearest_rank(sorted, 50.0).map(|value| Percentile {
        level: 50.0,
        value,
        samples: n,
        beyond: n - rank(n, 50.0),
    })
}

/// The tail percentile of ascending `sorted`: p99 when at least
/// [`TAIL_BEYOND`] samples lie beyond it, otherwise the highest nearest
/// rank that still has [`TAIL_BEYOND`] samples beyond it. When that rank
/// falls below the median, the median stands in.
pub fn tail(sorted: &[f64]) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r99 = rank(n, 99.0);
    let r = if n - r99 >= TAIL_BEYOND {
        r99
    } else {
        n.saturating_sub(TAIL_BEYOND).max(rank(n, 50.0))
    };
    let level = if r == r99 {
        99.0
    } else {
        100.0 * r as f64 / n as f64
    };
    Some(Percentile {
        level,
        value: sorted[r - 1],
        samples: n,
        beyond: n - r,
    })
}

/// Sorts a sample vector ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Geometric mean of α values (each ≥ 1, finite). `None` when empty or when
/// any value is not a finite positive number.
pub fn geomean(alphas: &[f64]) -> Option<f64> {
    if alphas.is_empty() || alphas.iter().any(|a| !a.is_finite() || *a <= 0.0) {
        return None;
    }
    let log_sum: f64 = alphas.iter().map(|a| a.ln()).sum();
    Some((log_sum / alphas.len() as f64).exp())
}

/// Per-request timings and quality of one run.
#[derive(Debug, Default)]
pub struct RequestSamples {
    /// Time to the first frontier.
    pub ttff_ms: Vec<f64>,
    /// Time to done.
    pub latency_ms: Vec<f64>,
    /// Time until α reached the target (the latency when never).
    pub tt_alpha_ms: Vec<f64>,
    /// Requests whose α reached the target.
    pub reached: u64,
    /// α at the end of the budget.
    pub alpha_final: Vec<f64>,
}

impl RequestSamples {
    /// Records one completed request.
    pub fn record(&mut self, ttff_ms: f64, latency_ms: f64, tt_alpha_ms: Option<f64>, alpha: f64) {
        self.ttff_ms.push(ttff_ms);
        self.latency_ms.push(latency_ms);
        self.reached += u64::from(tt_alpha_ms.is_some());
        self.tt_alpha_ms.push(tt_alpha_ms.unwrap_or(latency_ms));
        self.alpha_final.push(alpha);
    }

    /// Adds another run's samples to these.
    pub fn absorb(&mut self, o: RequestSamples) {
        self.ttff_ms.extend(o.ttff_ms);
        self.latency_ms.extend(o.latency_ms);
        self.tt_alpha_ms.extend(o.tt_alpha_ms);
        self.reached += o.reached;
        self.alpha_final.extend(o.alpha_final);
    }
}

/// Why a request counts as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Shed at the front door (quota or saturated shard).
    Shed,
    /// Did not finish within the benchmark's timeout.
    TimedOut,
    /// Finished for another reason than an exhausted budget.
    NotCompleted,
    /// Its frontier failed a correctness check.
    Incorrect,
}

/// Closed-loop request accounting: every attempted request ends as exactly
/// one completion or one failure.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    attempted: u64,
    completed: u64,
    failures: Vec<Failure>,
}

impl Accounting {
    /// Records a request being sent.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a request that completed with a correct frontier.
    pub fn complete(&mut self) {
        self.completed += 1;
    }

    /// Records a failed request.
    pub fn fail(&mut self, why: Failure) {
        self.failures.push(why);
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, o: &Accounting) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failures.extend_from_slice(&o.failures);
    }

    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Requests completed correctly.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The failures, in the order they were recorded.
    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// Whether every attempted request is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.completed + self.failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond — p99 proper.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.level, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 would leave nine beyond; fall back to rank 989.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!(t.level < 99.0);
        // 36 samples: rank 26 (p72.2).
        let t = tail(&ramp(36)).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (26.0, 10, 36));
        assert!((t.level - 72.22).abs() < 0.01);
    }

    #[test]
    fn tail_never_falls_below_the_median() {
        let t = tail(&ramp(10)).unwrap();
        assert_eq!((t.level, t.value), (50.0, 5.0));
        let t = tail(&ramp(12)).unwrap();
        assert_eq!((t.level, t.value, t.beyond), (50.0, 6.0, 6));
        let t = tail(&ramp(30)).unwrap();
        assert_eq!((t.value, t.beyond), (20.0, 10));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_reports_its_counts() {
        let m = median(&ramp(7)).unwrap();
        assert_eq!((m.value, m.samples, m.beyond), (4.0, 7, 3));
    }

    #[test]
    fn geomean_of_alpha() {
        assert_eq!(geomean(&[4.0]), Some(4.0));
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn closed_loop_accounting_balances() {
        let mut a = Accounting::default();
        assert!(a.balanced());
        for _ in 0..4 {
            a.attempt();
        }
        a.complete();
        a.complete();
        a.fail(Failure::Shed);
        assert!(!a.balanced(), "one request still outstanding");
        a.fail(Failure::Incorrect);
        assert!(a.balanced());
        assert_eq!((a.attempted(), a.completed(), a.failed()), (4, 2, 2));
        assert_eq!(a.failures(), &[Failure::Shed, Failure::Incorrect]);
        // Tallies kept on two threads merge into one balanced tally.
        let (mut sent, mut seen) = (Accounting::default(), Accounting::default());
        sent.attempt();
        sent.attempt();
        seen.complete();
        seen.fail(Failure::TimedOut);
        assert!(!sent.balanced() && !seen.balanced());
        sent.absorb(&seen);
        assert!(sent.balanced());
    }
}
