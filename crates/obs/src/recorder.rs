//! The [`Recorder`] handle.
//!
//! Every instrumented crate takes a `Recorder` — a cheap, cloneable
//! handle that is either **enabled** (wrapping an
//! [`Arc<MetricsRegistry>`]) or **disabled** (a `None`, the default).
//! Disabled recorders make every operation an early-returning no-op:
//! no clock reads, no atomics, no allocation, which is what keeps
//! single-run simulation results bit-identical whether or not
//! observability is compiled in the call path. Stage timings go
//! through [`Stage`](crate::stage::Stage), which observes into the
//! recorder and writes trace spans from one pair of clock readings.

use crate::registry::MetricsRegistry;
use std::sync::Arc;

/// A cloneable on/off handle to a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<MetricsRegistry>>);

impl Recorder {
    /// The no-op recorder: every operation returns immediately.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A recorder over a fresh registry.
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(MetricsRegistry::new())))
    }

    /// A recorder over an existing (possibly shared) registry.
    pub fn from_registry(registry: Arc<MetricsRegistry>) -> Self {
        Recorder(Some(registry))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.0.as_ref()
    }

    /// Adds `v` to a counter (no-op when disabled).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        if let Some(reg) = &self.0 {
            reg.counter_add(name, labels, v);
        }
    }

    /// Adds `v` to a float counter (no-op when disabled).
    pub fn fcounter_add(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(reg) = &self.0 {
            reg.fcounter_add(name, labels, v);
        }
    }

    /// Sets a gauge (no-op when disabled).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        if let Some(reg) = &self.0 {
            reg.gauge_set(name, labels, v);
        }
    }

    /// Adds `v` (possibly negative) to a gauge (no-op when disabled).
    pub fn gauge_add(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        if let Some(reg) = &self.0 {
            reg.gauge_add(name, labels, v);
        }
    }

    /// Observes `v` into a fixed-bucket histogram (no-op when
    /// disabled). The first observation of `(name, labels)` fixes the
    /// bounds.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64], v: u64) {
        if let Some(reg) = &self.0 {
            reg.observe(name, labels, bounds, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter_add("c", &[], 1);
        rec.gauge_set("g", &[], 1);
        rec.observe("h", &[], &[1, 2], 1);
        // An untraced stage on a disabled recorder never reads the
        // clock, and ending it records nothing.
        let stage = Stage::new("core", "solve", &rec).open();
        assert!(!stage.is_active());
        stage.end("ok", &[]);
        assert!(rec.registry().is_none());
    }
}
