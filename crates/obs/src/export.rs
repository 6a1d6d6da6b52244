//! Snapshots and the three exporters: Prometheus text, JSON, and the
//! human `drift report` table.
//!
//! A [`Snapshot`] is a plain-data copy of a registry at one instant.
//! All exporters render snapshots, never live registries, so a scrape
//! is internally consistent and the formats can be golden-file tested
//! from hand-built snapshots.

use crate::contract::{spec_for, MetricKind};
use crate::registry::{MetricId, MetricsRegistry};

/// One counter or gauge sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<T> {
    /// Metric name + labels.
    pub id: MetricId,
    /// The sampled value.
    pub value: T,
}

/// One histogram sample: bounds, per-bucket counts (with the trailing
/// overflow bucket), and the observation sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name + labels.
    pub id: MetricId,
    /// Upper bounds, strictly increasing, excluding `+Inf`.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
}

impl HistogramSample {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank quantile, reported as the upper bound of the bucket
    /// holding that rank. `None` when empty or when the rank lands in
    /// the overflow bucket (the true value exceeds every bound).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied();
            }
        }
        None
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

/// A point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Integer counters.
    pub counters: Vec<Sample<u64>>,
    /// Float counters (energy totals).
    pub fcounters: Vec<Sample<f64>>,
    /// Gauges.
    pub gauges: Vec<Sample<i64>>,
    /// Histograms.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Copies `registry` into a snapshot.
    pub fn of(registry: &MetricsRegistry) -> Self {
        Snapshot {
            counters: registry
                .counters_snapshot()
                .into_iter()
                .map(|(id, value)| Sample { id, value })
                .collect(),
            fcounters: registry
                .fcounters_snapshot()
                .into_iter()
                .map(|(id, value)| Sample { id, value })
                .collect(),
            gauges: registry
                .gauges_snapshot()
                .into_iter()
                .map(|(id, value)| Sample { id, value })
                .collect(),
            histograms: registry
                .histograms_snapshot()
                .into_iter()
                .map(|(id, bounds, counts, sum)| HistogramSample {
                    id,
                    bounds,
                    counts,
                    sum,
                })
                .collect(),
        }
    }

    /// The first counter sample matching `name` (any labels).
    pub fn counter(&self, name: &str) -> Option<&Sample<u64>> {
        self.counters.iter().find(|s| s.id.name == name)
    }

    /// Sum of every sample of counter `name` across label sets.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.id.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The first histogram sample matching `name` (any labels).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.id.name == name)
    }

    /// Merges every histogram named `name` (e.g. the series of every
    /// tier and stage) into one combined sample, or `None` when absent.
    pub fn histogram_merged(&self, name: &str) -> Option<HistogramSample> {
        self.histogram_merged_where(name, &[])
    }

    /// [`Snapshot::histogram_merged`] over only the series whose labels
    /// include every pair of `labels`, e.g. one tier's stage.
    pub fn histogram_merged_where(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSample> {
        let matches = |h: &&HistogramSample| {
            h.id.name == name
                && labels
                    .iter()
                    .all(|&(k, v)| h.id.labels.iter().any(|(hk, hv)| hk == k && hv == v))
        };
        let mut merged: Option<HistogramSample> = None;
        for h in self.histograms.iter().filter(matches) {
            match &mut merged {
                None => {
                    let mut m = h.clone();
                    m.id = MetricId::new(name, &[]);
                    merged = Some(m);
                }
                Some(m) if m.bounds == h.bounds => {
                    for (a, b) in m.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    m.sum += h.sum;
                }
                Some(_) => {}
            }
        }
        merged
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers from the
    /// [contract](crate::contract), escaped labels, cumulative
    /// histogram buckets with `+Inf`, `_sum`, and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_header: Option<String> = None;
        let mut header = |out: &mut String, name: &str, fallback: MetricKind| {
            if last_header.as_deref() == Some(name) {
                return;
            }
            let (kind, help) = match spec_for(name) {
                Some(spec) => (spec.kind, spec.help),
                None => (fallback, "(undocumented metric)"),
            };
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                escape_help(help),
                kind.prometheus_type()
            ));
            last_header = Some(name.to_string());
        };

        for s in &self.counters {
            header(&mut out, &s.id.name, MetricKind::Counter);
            out.push_str(&format!(
                "{}{} {}\n",
                s.id.name,
                render_labels(&s.id.labels, None),
                s.value
            ));
        }
        for s in &self.fcounters {
            header(&mut out, &s.id.name, MetricKind::Counter);
            out.push_str(&format!(
                "{}{} {}\n",
                s.id.name,
                render_labels(&s.id.labels, None),
                s.value
            ));
        }
        for s in &self.gauges {
            header(&mut out, &s.id.name, MetricKind::Gauge);
            out.push_str(&format!(
                "{}{} {}\n",
                s.id.name,
                render_labels(&s.id.labels, None),
                s.value
            ));
        }
        for h in &self.histograms {
            header(&mut out, &h.id.name, MetricKind::Histogram);
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = match h.bounds.get(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.id.name,
                    render_labels(&h.id.labels, Some(&le)),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n{}_count{} {}\n",
                h.id.name,
                render_labels(&h.id.labels, None),
                h.sum,
                h.id.name,
                render_labels(&h.id.labels, None),
                h.count()
            ));
        }
        out
    }

    /// Renders the snapshot as a single JSON object (hand-rolled — this
    /// crate is dependency-free). The schema is stable and documented
    /// in `docs/OBSERVABILITY.md`; `drift report` consumes it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        push_json_samples(&mut out, &self.counters, |v| v.to_string());
        out.push_str("],\n  \"fcounters\": [");
        push_json_samples(&mut out, &self.fcounters, |v| json_f64(*v));
        out.push_str("],\n  \"gauges\": [");
        push_json_samples(&mut out, &self.gauges, |v| v.to_string());
        out.push_str("],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"labels\": {}, \"bounds\": {:?}, \"counts\": {:?}, \"sum\": {}}}",
                json_str(&h.id.name),
                json_labels(&h.id.labels),
                h.bounds,
                h.counts,
                h.sum
            ));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the human `drift report` table: counters and gauges with
    /// their contract units, and histogram quantiles.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let unit = |name: &str| spec_for(name).map_or("", |s| s.unit);

        if !(self.counters.is_empty() && self.fcounters.is_empty() && self.gauges.is_empty()) {
            out.push_str(&format!("{:<58} {:>16} {}\n", "metric", "value", "unit"));
            for s in &self.counters {
                out.push_str(&format!(
                    "{:<58} {:>16} {}\n",
                    display_id(&s.id),
                    s.value,
                    unit(&s.id.name)
                ));
            }
            for s in &self.fcounters {
                out.push_str(&format!(
                    "{:<58} {:>16.1} {}\n",
                    display_id(&s.id),
                    s.value,
                    unit(&s.id.name)
                ));
            }
            for s in &self.gauges {
                out.push_str(&format!(
                    "{:<58} {:>16} {}\n",
                    display_id(&s.id),
                    s.value,
                    unit(&s.id.name)
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "\n{:<58} {:>9} {:>12} {:>9} {:>9}\n",
                "histogram", "count", "mean", "p50", "p99"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<58} {:>9} {:>12.1} {:>9} {:>9}\n",
                    display_id(&h.id),
                    h.count(),
                    h.mean(),
                    display_quantile(h, 0.50),
                    display_quantile(h, 0.99),
                ));
            }
        }
        out
    }
}

fn display_id(id: &MetricId) -> String {
    if id.labels.is_empty() {
        id.name.clone()
    } else {
        format!(
            "{}{{{}}}",
            id.name,
            id.labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

fn display_quantile(h: &HistogramSample, q: f64) -> String {
    match (h.count(), h.quantile(q)) {
        (0, _) => "-".to_string(),
        (_, Some(v)) => format!("<={v}"),
        (_, None) => match h.bounds.last() {
            Some(b) => format!(">{b}"),
            None => "-".to_string(),
        },
    }
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline.
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes help text: backslash and newline (quotes are legal there).
pub fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's Display for f64 is shortest-round-trip, which JSON
        // parsers read back exactly.
        let s = v.to_string();
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; clamp to null-ish zero (never produced
        // by our instrumentation, but the exporter must stay valid).
        "0.0".to_string()
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    format!(
        "{{{}}}",
        labels
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn push_json_samples<T, F: Fn(&T) -> String>(out: &mut String, samples: &[Sample<T>], fmt: F) {
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": {}, \"labels\": {}, \"value\": {}}}",
            json_str(&s.id.name),
            json_labels(&s.id.labels),
            fmt(&s.value)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![Sample {
                id: MetricId::new(
                    "drift_serve_jobs_total",
                    &[("kind", "simulate"), ("outcome", "ok")],
                ),
                value: 7,
            }],
            fcounters: vec![Sample {
                id: MetricId::new("drift_energy_picojoules_total", &[("stage", "dram")]),
                value: 1234.5,
            }],
            gauges: vec![Sample {
                id: MetricId::new("drift_serve_queue_depth", &[]),
                value: 3,
            }],
            histograms: vec![HistogramSample {
                id: MetricId::new("drift_stage_microseconds", JOB_STAGE),
                bounds: vec![50, 100, 250],
                counts: vec![1, 2, 0, 1],
                sum: 460,
            }],
        }
    }

    const JOB_STAGE: &[(&str, &str)] = &[("tier", "serve"), ("stage", "job"), ("outcome", "ok")];

    #[test]
    fn prometheus_format_is_well_formed() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE drift_serve_jobs_total counter"));
        assert!(text.contains("drift_serve_jobs_total{kind=\"simulate\",outcome=\"ok\"} 7"));
        assert!(text.contains("drift_energy_picojoules_total{stage=\"dram\"} 1234.5"));
        assert!(text.contains("# TYPE drift_serve_queue_depth gauge"));
        // Cumulative buckets: 1, 3, 3, +Inf=4.
        let labels = "outcome=\"ok\",stage=\"job\",tier=\"serve\"";
        assert!(text.contains(&format!("_bucket{{{labels},le=\"50\"}} 1")));
        assert!(text.contains(&format!("_bucket{{{labels},le=\"100\"}} 3")));
        assert!(text.contains(&format!("_bucket{{{labels},le=\"+Inf\"}} 4")));
        assert!(text.contains(&format!("drift_stage_microseconds_sum{{{labels}}} 460")));
        assert!(text.contains(&format!("drift_stage_microseconds_count{{{labels}}} 4")));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let mut snap = sample_snapshot();
        snap.counters[0].id.labels[0].1 = "we\"ird\\profile\n".to_string();
        let text = snap.to_prometheus();
        assert!(text.contains("kind=\"we\\\"ird\\\\profile\\n\""));
    }

    #[test]
    fn quantiles_use_bucket_upper_bounds() {
        let h = &sample_snapshot().histograms[0];
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), Some(50));
        assert_eq!(h.quantile(0.50), Some(100));
        // p99 rank lands in the overflow bucket.
        assert_eq!(h.quantile(0.99), None);
        assert!((h.mean() - 115.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"name\": \"drift_serve_jobs_total\""));
        assert!(json.contains("\"bounds\": [50, 100, 250]"));
        assert!(json.contains("\"counts\": [1, 2, 0, 1]"));
        assert!(json.contains("\"value\": 1234.5"));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn merged_histograms_sum_counts() {
        let mut snap = sample_snapshot();
        let mut second = snap.histograms[0].clone();
        second.id = MetricId::new(
            "drift_stage_microseconds",
            &[("tier", "gateway"), ("stage", "request"), ("outcome", "ok")],
        );
        snap.histograms.push(second);
        let merged = snap.histogram_merged("drift_stage_microseconds").unwrap();
        assert_eq!(merged.counts, vec![2, 4, 0, 2]);
        assert_eq!(merged.sum, 920);
        let gateway = snap
            .histogram_merged_where("drift_stage_microseconds", &[("tier", "gateway")])
            .unwrap();
        assert_eq!(gateway.counts, vec![1, 2, 0, 1]);
        assert!(snap
            .histogram_merged_where("drift_stage_microseconds", &[("tier", "router")])
            .is_none());
    }
}
