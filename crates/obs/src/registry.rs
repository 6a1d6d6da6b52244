//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, all lock-free on the hot path.
//!
//! A metric is identified by its name plus a sorted label set; the
//! registry hands out `Arc` handles so instrumentation sites can cache
//! them and update with a single atomic operation. Registration itself
//! takes a lock, but only on the first touch of each `(name, labels)`
//! pair. Maps are ordered ([`std::collections::BTreeMap`]) so every
//! export walks metrics in a deterministic order — golden-file tests
//! and diffs depend on that.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A metric identity: name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// The metric name (Prometheus conventions: `snake_case`, unit
    /// suffix, `_total` for counters).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonically increasing `f64` accumulator built on `AtomicU64`
/// bit transmutation — used for energy (pJ) and other fractional
/// totals that Prometheus still models as counters.
#[derive(Debug, Default)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// A new accumulator at zero.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Adds `v` with a compare-and-swap loop.
    pub fn add(&self, v: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Bucket `i` counts observations `<= bounds[i]` and `> bounds[i-1]`;
/// one implicit overflow bucket (`+Inf`) catches the rest. Bounds are
/// fixed at registration — the Prometheus exposition format requires
/// stable, cumulative `le` buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing — a
    /// mis-registered histogram is a programming error at the
    /// instrumentation site, not a runtime condition.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, including the final overflow bucket
    /// (`counts().len() == bounds().len() + 1`).
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// The registry of every live metric.
///
/// Cheap to create, intended to be shared behind an `Arc` (see
/// [`Recorder`](crate::recorder::Recorder)).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<MetricId, Arc<AtomicU64>>>,
    fcounters: RwLock<BTreeMap<MetricId, Arc<AtomicF64>>>,
    gauges: RwLock<BTreeMap<MetricId, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<MetricId, Arc<Histogram>>>,
}

/// Get-or-register boilerplate shared by the four metric maps.
fn intern<T, F: FnOnce() -> T>(
    map: &RwLock<BTreeMap<MetricId, Arc<T>>>,
    id: MetricId,
    make: F,
) -> Arc<T> {
    if let Some(found) = map.read().expect("metrics lock").get(&id) {
        return Arc::clone(found);
    }
    let mut map = map.write().expect("metrics lock");
    Arc::clone(map.entry(id).or_insert_with(|| Arc::new(make())))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter handle for `(name, labels)`, registering on first
    /// use. Cache the handle in hot loops.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        intern(&self.counters, MetricId::new(name, labels), || {
            AtomicU64::new(0)
        })
    }

    /// Adds `v` to a counter.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.counter(name, labels).fetch_add(v, Ordering::Relaxed);
    }

    /// The float-counter handle for `(name, labels)`.
    pub fn fcounter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicF64> {
        intern(&self.fcounters, MetricId::new(name, labels), || {
            AtomicF64::new(0.0)
        })
    }

    /// Adds `v` to a float counter.
    pub fn fcounter_add(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.fcounter(name, labels).add(v);
    }

    /// The gauge handle for `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicI64> {
        intern(&self.gauges, MetricId::new(name, labels), || {
            AtomicI64::new(0)
        })
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.gauge(name, labels).store(v, Ordering::Relaxed);
    }

    /// Adds `v` (possibly negative) to a gauge.
    pub fn gauge_add(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.gauge(name, labels).fetch_add(v, Ordering::Relaxed);
    }

    /// The histogram handle for `(name, labels)`. The first
    /// registration fixes the bounds; later calls ignore `bounds`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        intern(&self.histograms, MetricId::new(name, labels), || {
            Histogram::new(bounds)
        })
    }

    /// Observes `v` into a histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64], v: u64) {
        self.histogram(name, labels, bounds).observe(v);
    }

    /// A point-in-time copy of every metric (see
    /// [`Snapshot`](crate::export::Snapshot)).
    pub fn snapshot(&self) -> crate::export::Snapshot {
        crate::export::Snapshot::of(self)
    }

    pub(crate) fn counters_snapshot(&self) -> Vec<(MetricId, u64)> {
        self.counters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, v)| (id.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn fcounters_snapshot(&self) -> Vec<(MetricId, f64)> {
        self.fcounters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, v)| (id.clone(), v.get()))
            .collect()
    }

    pub(crate) fn gauges_snapshot(&self) -> Vec<(MetricId, i64)> {
        self.gauges
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, v)| (id.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn histograms_snapshot(&self) -> Vec<(MetricId, Vec<u64>, Vec<u64>, u64)> {
        self.histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(id, h)| (id.clone(), h.bounds().to_vec(), h.counts(), h.sum()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter_add("jobs_total", &[("kind", "simulate")], 2);
        reg.counter_add("jobs_total", &[("kind", "simulate")], 3);
        reg.counter_add("jobs_total", &[("kind", "select")], 1);
        let snap = reg.counters_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap.iter()
                .find(|(id, _)| id.labels[0].1 == "simulate")
                .unwrap()
                .1,
            5
        );
    }

    #[test]
    fn label_order_does_not_split_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter_add("m", &[("a", "1"), ("b", "2")], 1);
        reg.counter_add("m", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(reg.counters_snapshot().len(), 1);
        assert_eq!(reg.counters_snapshot()[0].1, 2);
    }

    #[test]
    fn gauges_set_and_add() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("depth", &[], 10);
        reg.gauge_add("depth", &[], -3);
        assert_eq!(reg.gauges_snapshot()[0].1, 7);
    }

    #[test]
    fn float_counters_accumulate() {
        let f = AtomicF64::new(0.0);
        f.add(1.5);
        f.add(2.25);
        assert!((f.get() - 3.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 5]);
    }
}
