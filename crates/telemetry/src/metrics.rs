//! The metrics registry: named counters, gauges, and latency histograms.
//!
//! Instruments are lock-free atomics; the registry itself is only locked on
//! instrument creation and on [`MetricsRegistry::snapshot`]. Hot paths should
//! obtain an instrument handle once and keep the [`Arc`] around — recording
//! is then a single atomic RMW.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    // tidy:atomic(value: relaxed): metrics cell — scrapes tolerate torn cross-metric views, and no other data is ordered by it
    value: AtomicU64,
}

impl Counter {
    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observed value (signed).
#[derive(Debug, Default)]
pub struct Gauge {
    // tidy:atomic(value: relaxed): metrics cell — scrapes tolerate torn cross-metric views, and no other data is ordered by it
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bucket boundaries in nanoseconds: a 1–2–5 progression from 1 µs to
/// 100 s, plus a catch-all overflow bucket. Fixed buckets keep recording a
/// single array index + atomic increment with no allocation. Public so
/// exposition layers (OpenMetrics `le` labels, trace exporters) can render
/// the buckets loss-free from a [`HistogramSnapshot`].
pub const BUCKET_BOUNDS_NS: [u64; 25] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
    100_000_000_000,
];

/// Number of histogram buckets: one per bound in [`BUCKET_BOUNDS_NS`]
/// plus the overflow (`+Inf`) bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_NS.len() + 1;

/// A fixed-bucket latency histogram (nanosecond resolution).
#[derive(Debug)]
pub struct Histogram {
    // tidy:atomic(buckets: relaxed): metrics cells — a scrape may see a bucket bump before the count; consumers only ever aggregate
    buckets: [AtomicU64; BUCKET_COUNT],
    // tidy:atomic(count: relaxed): metrics cells — a scrape may see a bucket bump before the count; consumers only ever aggregate
    count: AtomicU64,
    // tidy:atomic(sum_ns: relaxed): metrics cells — a scrape may see a bucket bump before the count; consumers only ever aggregate
    sum_ns: AtomicU64,
    // tidy:atomic(max_ns: relaxed): metrics cells — a scrape may see a bucket bump before the count; consumers only ever aggregate
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration observation.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.record_ns(ns);
    }

    /// Records one observation given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&b| b < ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Captures a consistent-enough view of the histogram for reporting.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count: u64 = buckets.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_ns,
            max_ns,
            p50_ns: percentile(&buckets, count, 0.50).min(max_ns),
            p95_ns: percentile(&buckets, count, 0.95).min(max_ns),
            p99_ns: percentile(&buckets, count, 0.99).min(max_ns),
            buckets,
        }
    }
}

/// Returns the upper bound of the bucket containing quantile `q`
/// (`u64::MAX` for the overflow bucket). Callers clamp it to the observed
/// max: a bucket's bound can lie far above every value in it.
fn percentile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
        }
    }
    u64::MAX
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, in nanoseconds.
    pub max_ns: u64,
    /// Median, in nanoseconds: the upper bound of the containing bucket,
    /// clamped to [`max_ns`](Self::max_ns).
    pub p50_ns: u64,
    /// 95th percentile, in nanoseconds (bucket bound clamped to the max).
    pub p95_ns: u64,
    /// 99th percentile, in nanoseconds (bucket bound clamped to the max).
    pub p99_ns: u64,
    /// Per-bucket observation counts. Index `i < BUCKET_BOUNDS_NS.len()`
    /// counts observations `<= BUCKET_BOUNDS_NS[i]`; the final slot is the
    /// overflow (`+Inf`) bucket. Carried so exposition formats can render
    /// cumulative buckets loss-free.
    pub buckets: [u64; BUCKET_COUNT],
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry of named instruments.
///
/// Cheaply cloneable; all clones share instruments. Instrument lookup by
/// name takes a write lock only on first creation — hold onto the returned
/// handles on hot paths.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RwLock<Instruments>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.read().counters.get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.inner
                .write()
                .counters
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Gets or creates the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.inner.read().gauges.get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.inner
                .write()
                .gauges
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Gets or creates the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.read().histograms.get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.inner
                .write()
                .histograms
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Captures all instruments into a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Point-in-time view of every instrument in a registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if the instrument exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as a JSON object (no external dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", crate::json_string(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", crate::json_string(k), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                crate::json_string(k),
                h.count,
                h.sum_ns,
                h.mean_ns(),
                h.max_ns,
                h.p50_ns,
                h.p95_ns,
                h.p99_ns,
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        // Same name returns the same instrument.
        assert_eq!(reg.counter("hits").get(), 5);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(1)); // 1_000 ns bucket
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1)); // 1_000_000 ns bucket
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 1_000);
        assert_eq!(s.p95_ns, 1_000_000);
        assert_eq!(s.p99_ns, 1_000_000);
        assert!(s.mean_ns() >= 1_000);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::default();
        h.record(Duration::from_secs(1000));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[BUCKET_COUNT - 1], 1);
        // The overflow bucket has no upper bound; the quantile reports the
        // observed max instead.
        assert_eq!(s.p50_ns, 1_000_000_000_000);
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        // Seeded log-uniform durations from 1 ns to ~3 h, so samples land
        // mid-bucket and in the overflow bucket.
        for seed in 1..=50_u64 {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let h = Histogram::default();
            let samples = 1 + next() % 200;
            for _ in 0..samples {
                let exponent = (next() % 1_300) as f64 / 100.0;
                h.record_ns(10_f64.powf(exponent) as u64);
            }
            let s = h.snapshot();
            for (name, p) in [("p50", s.p50_ns), ("p95", s.p95_ns), ("p99", s.p99_ns)] {
                assert!(p <= s.max_ns, "seed {seed}: {name} {p} > max {}", s.max_ns);
            }
            assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns, "seed {seed}");
        }
    }

    #[test]
    fn snapshot_buckets_round_trip_observations() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(1)); // bucket index 0 (<= 1_000 ns)
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1)); // bucket for 1_000_000 ns
        }
        h.record(Duration::from_secs(1000)); // overflow bucket
        let s = h.snapshot();
        let ms_idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| b == 1_000_000)
            .unwrap();
        assert_eq!(s.buckets[0], 90);
        assert_eq!(s.buckets[ms_idx], 10);
        assert_eq!(s.buckets[BUCKET_COUNT - 1], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn snapshot_aggregates_all_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("a").incr();
        reg.gauge("b").set(3);
        reg.histogram("c").record(Duration::from_micros(5));
        let s = reg.snapshot();
        assert_eq!(s.counter("a"), 1);
        assert_eq!(s.gauges.get("b"), Some(&3));
        assert_eq!(s.histogram("c").unwrap().count, 1);
        assert_eq!(s.counter("missing"), 0);
        let json = s.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"p99_ns\""));
    }

    #[test]
    fn registry_is_shared_across_clones() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        reg.counter("x").add(2);
        assert_eq!(reg2.snapshot().counter("x"), 2);
    }
}
