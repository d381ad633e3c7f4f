//! Run-wide metrics registry: counters (string- and static-labeled),
//! gauges, log-bucketed latency histograms and named time series — all
//! recorded in virtual time. The experiment harness reads these after a
//! run to print the paper's tables and figures, and exports them as
//! JSON through [`Metrics::to_json`].

use std::collections::BTreeMap;

use sorrento_json::Json;

use crate::time::SimTime;

/// Metrics sink shared by all nodes in a simulation.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    labeled: BTreeMap<(&'static str, &'static str), u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<(SimTime, f64)>>,
}

impl Metrics {
    /// Create an empty sink.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `by` to counter `name`, creating it at zero if absent.
    pub fn count(&mut self, name: &str, by: u64) {
        // `entry` wants an owned key; probe first so the hot path (an
        // existing counter) allocates nothing.
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            *self.counters.entry(name.to_owned()).or_insert(0) += by;
        }
    }

    /// Read counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Add `by` to the statically-labeled counter `(name, label)`.
    /// Allocation-free: both parts are `&'static str`, so hot paths
    /// (per-op stale/timeout accounting) never build key strings.
    pub fn count_labeled(&mut self, name: &'static str, label: &'static str, by: u64) {
        *self.labeled.entry((name, label)).or_insert(0) += by;
    }

    /// Read labeled counter `(name, label)` (zero if never written).
    pub fn counter_labeled(&self, name: &'static str, label: &'static str) -> u64 {
        self.labeled.get(&(name, label)).copied().unwrap_or(0)
    }

    /// Sum of every label under `name`.
    pub fn counter_labeled_total(&self, name: &'static str) -> u64 {
        self.labeled
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Iterate over all labeled counters in `(name, label)` order.
    pub fn labeled_counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.labeled.iter().map(|(&(n, l), &v)| (n, l, v))
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_owned(), value);
        }
    }

    /// Read gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one observation (e.g. a latency in nanoseconds) into
    /// histogram `name`, creating it if absent.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            self.histograms
                .entry(name.to_owned())
                .or_default()
                .observe(value);
        }
    }

    /// Read histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Append a `(time, value)` point to series `name`.
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.push((at, value));
        } else {
            self.series
                .entry(name.to_owned())
                .or_default()
                .push((at, value));
        }
    }

    /// Read series `name` (empty slice if never written).
    pub fn series(&self, name: &str) -> &[(SimTime, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Export the registry as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters":   { "<name>": 3, ... },
    ///   "labeled":    { "<name>": { "<label>": 2, ... }, ... },
    ///   "gauges":     { "<name>": 8.0, ... },
    ///   "histograms": { "<name>": { "count": 2, "min": 1, "max": 9,
    ///                               "mean": 5.0, "p50": 5,
    ///                               "p95": 9, "p99": 9 }, ... },
    ///   "series":     { "<name>": 120, ... }
    /// }
    /// ```
    ///
    /// Series export only point counts (raw points can be huge); figure
    /// binaries that need them read [`Metrics::series`] directly.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters.set(k, *v);
        }
        // `labeled` is ordered by (name, label): emit one nested object
        // per run of equal names.
        let mut labeled = Json::obj();
        let mut iter = self.labeled.iter().peekable();
        while let Some((&(name, label), &v)) = iter.next() {
            let mut inner = Json::obj();
            inner.set(label, v);
            while let Some(&(&(n2, l2), &v2)) = iter.peek() {
                if n2 != name {
                    break;
                }
                inner.set(l2, v2);
                iter.next();
            }
            labeled.set(name, inner);
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.gauges {
            gauges.set(k, *v);
        }
        let mut histograms = Json::obj();
        for (k, h) in &self.histograms {
            histograms.set(k, h.to_json());
        }
        let mut series = Json::obj();
        for (k, pts) in &self.series {
            series.set(k, pts.len() as u64);
        }
        Json::obj()
            .with("counters", counters)
            .with("labeled", labeled)
            .with("gauges", gauges)
            .with("histograms", histograms)
            .with("series", series)
    }
}

/// Values below this are given exact one-per-value buckets.
const LINEAR_CUTOVER: u64 = 16;
/// Sub-buckets per power of two above the cutover (3 mantissa bits →
/// ≤ 12.5 % relative quantile error) with a fixed 496-slot table.
const SUBBUCKETS: usize = 8;
const NUM_BUCKETS: usize = LINEAR_CUTOVER as usize + (64 - 4) * SUBBUCKETS;

fn bucket_of(v: u64) -> usize {
    if v < LINEAR_CUTOVER {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // ≥ 4
        let mant = ((v >> (exp - 3)) & 0x7) as usize;
        LINEAR_CUTOVER as usize + (exp - 4) * SUBBUCKETS + mant
    }
}

/// Inclusive-lo / exclusive-hi value range covered by bucket `i` (the
/// last bucket's `hi` wraps to 0 — it is never used as a bound).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < LINEAR_CUTOVER as usize {
        (i as u64, i as u64 + 1)
    } else {
        let exp = (i - LINEAR_CUTOVER as usize) / SUBBUCKETS + 4;
        let mant = ((i - LINEAR_CUTOVER as usize) % SUBBUCKETS) as u64;
        let lo = (SUBBUCKETS as u64 + mant) << (exp - 3);
        let hi = lo.wrapping_add(1u64 << (exp - 3));
        (lo, hi)
    }
}

/// A log-bucketed histogram of `u64` observations (latencies in ns).
///
/// Buckets are exact below 16 and log-spaced with 8 sub-buckets per
/// octave above, so quantile estimates carry at most ~12.5 % relative
/// error while the whole structure is one fixed-size array — cheap
/// enough to keep one histogram per operation kind.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`): the midpoint of the
    /// bucket holding the rank-`⌈q·count⌉` observation, clamped into
    /// `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = if hi > lo { lo + (hi - lo) / 2 } else { lo };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Summary object used inside [`Metrics::to_json`].
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", self.count)
            .with("min", self.min().unwrap_or(0))
            .with("max", self.max().unwrap_or(0))
            .with("mean", self.mean().unwrap_or(0.0))
            .with("p50", self.p50().unwrap_or(0))
            .with("p95", self.p95().unwrap_or(0))
            .with("p99", self.p99().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count("reads", 1);
        m.count("reads", 2);
        assert_eq!(m.counter("reads"), 3);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn labeled_counters_accumulate_without_key_strings() {
        let mut m = Metrics::new();
        m.count_labeled("client.stale", "read", 1);
        m.count_labeled("client.stale", "read", 1);
        m.count_labeled("client.stale", "write", 5);
        assert_eq!(m.counter_labeled("client.stale", "read"), 2);
        assert_eq!(m.counter_labeled("client.stale", "write"), 5);
        assert_eq!(m.counter_labeled("client.stale", "sync"), 0);
        assert_eq!(m.counter_labeled_total("client.stale"), 7);
        let all: Vec<_> = m.labeled_counters().collect();
        assert_eq!(
            all,
            vec![("client.stale", "read", 2), ("client.stale", "write", 5)]
        );
    }

    #[test]
    fn gauges_take_last_write() {
        let mut m = Metrics::new();
        assert_eq!(m.gauge("q"), None);
        m.gauge_set("q", 3.0);
        m.gauge_set("q", 7.5);
        assert_eq!(m.gauge("q"), Some(7.5));
    }

    #[test]
    fn series_preserve_order() {
        let mut m = Metrics::new();
        m.record("rate", SimTime::ZERO, 1.0);
        m.record("rate", SimTime::from_nanos(5), 2.0);
        let s = m.series("rate");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].1, 1.0);
        assert_eq!(s[1].1, 2.0);
        assert!(m.series("absent").is_empty());
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.count("b", 1);
        m.count("a", 1);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn histogram_buckets_are_exhaustive_and_monotonic() {
        // Every bucket's bounds tile the u64 line in order.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert!(hi > lo || i == NUM_BUCKETS - 1);
            expect_lo = hi;
        }
        // And bucket_of agrees with the bounds.
        for v in [0, 1, 15, 16, 17, 100, 1_000, 1 << 20, u64::MAX / 3, u64::MAX] {
            let i = bucket_of(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v, "v={v} lo={lo}");
            assert!(v < hi || hi <= lo, "v={v} hi={hi}");
        }
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.observe(v * 1_000);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), Some(1_000));
        assert_eq!(h.max(), Some(10_000_000));
        let p50 = h.p50().unwrap() as f64;
        let p95 = h.p95().unwrap() as f64;
        let p99 = h.p99().unwrap() as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.13, "p50={p50}");
        assert!((p95 - 9_500_000.0).abs() / 9_500_000.0 < 0.13, "p95={p95}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.13, "p99={p99}");
        let mean = h.mean().unwrap();
        assert!((mean - 5_000_500.0).abs() < 1.0);
    }

    #[test]
    fn histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        let mut h = Histogram::new();
        h.observe(42);
        assert_eq!(h.p50(), Some(42));
        assert_eq!(h.p99(), Some(42));
        h.observe(u64::MAX);
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn json_export_shape() {
        let mut m = Metrics::new();
        m.count("ops", 3);
        m.count_labeled("client.stale", "read", 2);
        m.gauge_set("providers.live", 8.0);
        m.observe("op.read.latency_ns", 1_000);
        m.observe("op.read.latency_ns", 2_000);
        m.record("load", SimTime::ZERO, 0.5);
        let j = Json::parse(&m.to_json().encode()).unwrap();
        assert_eq!(j.get("counters").unwrap().get("ops").unwrap().as_u64(), Some(3));
        assert_eq!(
            j.get("labeled")
                .unwrap()
                .get("client.stale")
                .unwrap()
                .get("read")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            j.get("gauges").unwrap().get("providers.live").unwrap().as_f64(),
            Some(8.0)
        );
        let h = j.get("histograms").unwrap().get("op.read.latency_ns").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert!(h.get("p99").unwrap().as_u64().unwrap() >= 1_000);
        assert_eq!(j.get("series").unwrap().get("load").unwrap().as_u64(), Some(1));
    }
}
