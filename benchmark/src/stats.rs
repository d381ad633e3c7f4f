//! The benchmark's arithmetic: medians, quartiles, the tail percentile a
//! sample can support, and wall-clock rates.
//!
//! Rates and gaps are computed from a client's `started_at` /
//! `finished_at`, never from the sum of its op latencies: the time a
//! client spends *between* ops (loop sleeps, timer hops) is part of what
//! a user waits for.

/// Sorted copy of `values` (NaNs, which no measurement here produces,
/// sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. 0 for an empty one.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    if ascending.is_empty() {
        return 0.0;
    }
    let rank = (p * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so `--repeat` judges spreads exactly as the PR driver will. `None`
/// below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the repeatability figure every bound is compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it in a sample of `n`; `None` when even p90 does not
/// (n < 100), in which case only the median is worth reporting.
pub fn supported_tail(n: usize) -> Option<f64> {
    // In permille, so that 100 samples × 10% is exactly ten.
    [999u64, 990, 950, 900]
        .into_iter()
        .find(|permille| n as u64 * (1000 - permille) >= 10_000)
        .map(|permille| permille as f64 / 1000.0)
}

/// One client's view of one measured phase, straight from `ClientStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientPhase {
    /// Ops that completed successfully.
    pub completed: u64,
    /// `finished_at - started_at` in nanoseconds on the client's clock.
    pub span_ns: u64,
    /// Sum of the completed ops' latencies in nanoseconds.
    pub latency_sum_ns: u64,
}

/// Client ops completed per wall second, summed over the clients that
/// ran the phase concurrently. Each client's rate is taken over its own
/// span, so the clients' clocks need no common epoch.
pub fn ops_per_s(clients: &[ClientPhase]) -> f64 {
    clients
        .iter()
        .filter(|c| c.span_ns > 0)
        .map(|c| c.completed as f64 / (c.span_ns as f64 / 1e9))
        .sum()
}

/// Microseconds per op the clients spent *not* waiting for an op:
/// (span − Σ latency) ÷ ops. This is the client runtime's own overhead —
/// loop sleeps and the timer hop between ops.
pub fn gap_us_per_op(clients: &[ClientPhase]) -> f64 {
    let ops: u64 = clients.iter().map(|c| c.completed).sum();
    if ops == 0 {
        return 0.0;
    }
    let idle_ns: u64 = clients
        .iter()
        .map(|c| c.span_ns.saturating_sub(c.latency_sum_ns))
        .sum();
    idle_ns as f64 / 1e3 / ops as f64
}

/// How many sessions to script so a phase lasts `target_s`, given that a
/// probe of `probe_n` sessions took `probe_span_s`. Clamped so that a
/// mis-measured probe can neither produce an empty phase nor an
/// unbounded one.
pub fn sized_count(
    probe_n: usize,
    probe_span_s: f64,
    target_s: f64,
    min: usize,
    max: usize,
) -> usize {
    if probe_span_s <= 0.0 || probe_n == 0 {
        return min;
    }
    let per_session = probe_span_s / probe_n as f64;
    ((target_s / per_session).round() as usize).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some([10.0, 20.0, 30.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1_400), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    /// 100 ops of 1 ms each: back to back, then with a 5 ms idle gap
    /// after every op. Σ latency is identical; only the span grows.
    fn synthetic(gap_ms: u64) -> ClientPhase {
        ClientPhase {
            completed: 100,
            span_ns: 100 * (1 + gap_ms) * 1_000_000,
            latency_sum_ns: 100 * 1_000_000,
        }
    }

    #[test]
    fn an_inter_op_gap_lowers_the_rate_and_shows_as_gap() {
        let tight = [synthetic(0)];
        let gappy = [synthetic(5)];
        assert_eq!(ops_per_s(&tight), 1000.0);
        assert!((ops_per_s(&gappy) - 1000.0 / 6.0).abs() < 1e-9);
        assert_eq!(gap_us_per_op(&tight), 0.0);
        assert_eq!(gap_us_per_op(&gappy), 5000.0);
    }

    #[test]
    fn concurrent_clients_add_their_rates() {
        let two = [synthetic(0), synthetic(0)];
        assert_eq!(ops_per_s(&two), 2000.0);
        assert_eq!(gap_us_per_op(&two), 0.0);
        assert_eq!(ops_per_s(&[ClientPhase::default()]), 0.0);
        assert_eq!(gap_us_per_op(&[]), 0.0);
    }

    #[test]
    fn phase_sizing_hits_the_target_and_clamps() {
        // 8 sessions in 0.16 s → 20 ms each → 250 fill 5 s.
        assert_eq!(sized_count(8, 0.16, 5.0, 4, 100_000), 250);
        // A 25× faster system gets 25× the sessions for the same time.
        assert_eq!(sized_count(8, 0.16 / 25.0, 5.0, 4, 100_000), 6250);
        assert_eq!(sized_count(8, 0.16, 5.0, 4, 100), 100);
        assert_eq!(sized_count(1, 9.0, 5.0, 2, 100), 2);
        assert_eq!(sized_count(0, 1.0, 5.0, 2, 100), 2);
    }
}
