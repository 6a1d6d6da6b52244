//! `drift trace` — merge per-tier JSONL span files and reconstruct
//! request timelines.
//!
//! Each serving process writes its own spans (`--trace-out FILE`, see
//! docs/OBSERVABILITY.md); this command joins them by trace id and
//! reports:
//!
//! * per-stage duration percentiles (`svc.stage` keyed),
//! * a critical-path breakdown (exclusive time — each span's duration
//!   minus its children's — aggregated across traces),
//! * the top-K slowest traces as hop-by-hop waterfalls,
//! * orphaned spans (a recorded parent id missing from the trace),
//!   which indicate broken or partial instrumentation and fail the
//!   command unless `--allow-orphans` is passed.
//!
//! The `--check-*` flags turn the report into an assertion suite for
//! smoke tests: `--check-services` and `--check-hops` must hold for
//! *every* trace, `--expect-traces` pins the distinct-trace count.

use drift_serve::stats::percentile_ns;
use serde_json::Value;
use std::collections::{HashMap, HashSet};

/// One parsed span line from a `--trace-out` file.
#[derive(Debug, Clone)]
struct Span {
    span: String,
    parent: Option<String>,
    svc: String,
    stage: String,
    start_us: u64,
    dur_us: u64,
    job: Option<u64>,
    attrs: Vec<(String, String)>,
}

impl Span {
    /// The `svc.stage` key the report aggregates on.
    fn hop(&self) -> String {
        format!("{}.{}", self.svc, self.stage)
    }
}

/// Parsed command line for `drift trace`.
struct TraceArgs {
    files: Vec<String>,
    top: usize,
    check_services: Vec<String>,
    check_hops: Vec<String>,
    expect_traces: Option<usize>,
    allow_orphans: bool,
}

fn parse_args(args: &[String]) -> Result<TraceArgs, String> {
    let mut parsed = TraceArgs {
        files: Vec::new(),
        top: 3,
        check_services: Vec::new(),
        check_hops: Vec::new(),
        expect_traces: None,
        allow_orphans: false,
    };
    let mut iter = args.iter();
    let list = |raw: &str| -> Vec<String> {
        raw.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    };
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--top" => {
                parsed.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top: expected a count".to_string())?;
            }
            "--check-services" => parsed.check_services = list(&value("--check-services")?),
            "--check-hops" => parsed.check_hops = list(&value("--check-hops")?),
            "--expect-traces" => {
                parsed.expect_traces = Some(
                    value("--expect-traces")?
                        .parse()
                        .map_err(|_| "--expect-traces: expected a count".to_string())?,
                );
            }
            "--allow-orphans" => parsed.allow_orphans = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option '{other}' for drift trace"));
            }
            file => parsed.files.push(file.to_string()),
        }
    }
    if parsed.files.is_empty() {
        return Err(
            "usage: drift trace FILE... [--top K] [--check-services S1,S2] \
             [--check-hops svc.stage,...] [--expect-traces N] [--allow-orphans]"
                .to_string(),
        );
    }
    Ok(parsed)
}

/// The string a JSON value holds, if it is one.
pub(crate) fn v_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// The unsigned integer a JSON value holds, if it is one.
pub(crate) fn v_u64(value: &Value) -> Option<u64> {
    match value {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Parses one JSONL span line (the `render_span` schema in
/// `drift-obs`). Returns the owning trace id with the span.
fn parse_span(line: &str) -> Result<(String, Span), String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid span: {e}"))?;
    let field = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(v_str)
            .map(str::to_string)
            .ok_or_else(|| format!("span missing \"{key}\""))
    };
    let trace = field("trace")?;
    let span = Span {
        span: field("span")?,
        parent: value.get("parent").and_then(v_str).map(str::to_string),
        svc: field("svc")?,
        stage: field("stage")?,
        start_us: value
            .get("start_us")
            .and_then(v_u64)
            .ok_or("span missing \"start_us\"")?,
        dur_us: value
            .get("dur_us")
            .and_then(v_u64)
            .ok_or("span missing \"dur_us\"")?,
        job: value.get("job").and_then(v_u64),
        attrs: value
            .get("attrs")
            .and_then(Value::as_map)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v_str(v).map(|v| (k.clone(), v.to_string())))
                    .collect()
            })
            .unwrap_or_default(),
    };
    Ok((trace, span))
}

/// Renders one trace as an indented hop-by-hop waterfall, spans sorted
/// by start time within each parent.
fn waterfall(out: &mut String, spans: &[Span], base_us: u64) {
    let mut children: HashMap<Option<&str>, Vec<&Span>> = HashMap::new();
    let ids: HashSet<&str> = spans.iter().map(|s| s.span.as_str()).collect();
    for span in spans {
        // Orphans (recorded parent absent) render as roots so they
        // still show up in the picture they broke.
        let parent = span.parent.as_deref().filter(|p| ids.contains(p)).map(|p| {
            // Borrow the canonical &str owned by `spans`.
            spans
                .iter()
                .find(|s| s.span == p)
                .map(|s| s.span.as_str())
                .expect("id in set")
        });
        children.entry(parent).or_default().push(span);
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| (s.start_us, s.span.clone()));
    }
    fn walk(
        out: &mut String,
        children: &HashMap<Option<&str>, Vec<&Span>>,
        parent: Option<&str>,
        depth: usize,
        base_us: u64,
    ) {
        let Some(list) = children.get(&parent) else {
            return;
        };
        for span in list {
            let attrs = if span.attrs.is_empty() {
                String::new()
            } else {
                let joined: Vec<String> =
                    span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("  ({})", joined.join(", "))
            };
            out.push_str(&format!(
                "  {:>9} µs  {}{:<28} {:>9} µs{}\n",
                span.start_us.saturating_sub(base_us),
                "  ".repeat(depth),
                span.hop(),
                span.dur_us,
                attrs,
            ));
            walk(out, children, Some(span.span.as_str()), depth + 1, base_us);
        }
    }
    walk(out, &children, None, 0, base_us);
}

/// `drift trace FILE...` — see the module docs.
pub fn trace(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let mut traces: HashMap<String, Vec<Span>> = HashMap::new();
    let mut total_spans = 0usize;
    for path in &args.files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (trace_id, span) =
                parse_span(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
            traces.entry(trace_id).or_default().push(span);
            total_spans += 1;
        }
    }
    println!(
        "trace: {} trace(s), {} span(s) across {} file(s)",
        traces.len(),
        total_spans,
        args.files.len()
    );

    // Orphans: a span whose recorded parent id is not in its trace.
    let mut orphans = 0usize;
    for spans in traces.values() {
        let ids: HashSet<&str> = spans.iter().map(|s| s.span.as_str()).collect();
        orphans += spans
            .iter()
            .filter(|s| s.parent.as_deref().is_some_and(|p| !ids.contains(p)))
            .count();
    }
    println!("orphaned spans: {orphans}");

    // Per-stage percentiles over every span of that svc.stage.
    let mut by_hop: HashMap<String, Vec<u64>> = HashMap::new();
    for spans in traces.values() {
        for span in spans {
            by_hop.entry(span.hop()).or_default().push(span.dur_us);
        }
    }
    let mut hops: Vec<(&String, &mut Vec<u64>)> = by_hop.iter_mut().collect();
    hops.sort_by(|a, b| a.0.cmp(b.0));
    println!();
    println!(
        "{:<28} {:>7} {:>10} {:>10}",
        "stage", "count", "p50(µs)", "p99(µs)"
    );
    for (hop, durations) in &mut hops {
        durations.sort_unstable();
        println!(
            "{:<28} {:>7} {:>10} {:>10}",
            hop,
            durations.len(),
            percentile_ns(durations, 50.0),
            percentile_ns(durations, 99.0),
        );
    }

    // Critical-path breakdown: each span's exclusive time (duration
    // minus the time covered by its children) aggregated per hop —
    // where the end-to-end latency is actually spent.
    let mut exclusive: HashMap<String, u64> = HashMap::new();
    for spans in traces.values() {
        for span in spans {
            let child_us: u64 = spans
                .iter()
                .filter(|c| c.parent.as_deref() == Some(span.span.as_str()))
                .map(|c| c.dur_us)
                .sum();
            *exclusive.entry(span.hop()).or_default() += span.dur_us.saturating_sub(child_us);
        }
    }
    let grand: u64 = exclusive.values().sum();
    let mut shares: Vec<(&String, &u64)> = exclusive.iter().collect();
    shares.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    println!();
    println!("critical path (exclusive time):");
    for (hop, us) in shares {
        println!(
            "  {:<28} {:>9} µs  {:>5.1}%",
            hop,
            us,
            if grand > 0 {
                *us as f64 * 100.0 / grand as f64
            } else {
                0.0
            }
        );
    }

    // Top-K slowest traces, by whole-trace wall span.
    let mut ordered: Vec<(&String, &Vec<Span>, u64, u64)> = traces
        .iter()
        .map(|(id, spans)| {
            let base = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end = spans
                .iter()
                .map(|s| s.start_us + s.dur_us)
                .max()
                .unwrap_or(0);
            (id, spans, base, end.saturating_sub(base))
        })
        .collect();
    ordered.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    for (id, spans, base, wall) in ordered.iter().take(args.top) {
        let job = spans
            .iter()
            .find_map(|s| s.job)
            .map(|j| format!(", job {j}"))
            .unwrap_or_default();
        println!();
        println!("trace {id} ({wall} µs{job}):");
        let mut out = String::new();
        waterfall(&mut out, spans, *base);
        print!("{out}");
    }

    // Assertions for smoke tests.
    let mut failures: Vec<String> = Vec::new();
    if let Some(expected) = args.expect_traces {
        if traces.len() != expected {
            failures.push(format!(
                "expected {expected} trace(s), found {}",
                traces.len()
            ));
        }
    }
    for (id, spans) in &traces {
        let services: HashSet<&str> = spans.iter().map(|s| s.svc.as_str()).collect();
        for service in &args.check_services {
            if !services.contains(service.as_str()) {
                failures.push(format!("trace {id} has no span from service '{service}'"));
            }
        }
        let present: HashSet<String> = spans.iter().map(Span::hop).collect();
        for hop in &args.check_hops {
            if !present.contains(hop) {
                failures.push(format!("trace {id} is missing hop '{hop}'"));
            }
        }
    }
    if orphans > 0 && !args.allow_orphans {
        failures.push(format!(
            "{orphans} orphaned span(s); pass --allow-orphans when analysing partial files"
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_span_schema() {
        let (trace, span) = parse_span(
            "{\"trace\":\"00000000000000000000000000000001\",\"span\":\"00000000000000aa\",\
             \"parent\":\"00000000000000bb\",\"svc\":\"gateway\",\"stage\":\"queue_wait\",\
             \"start_us\":100,\"dur_us\":40,\"job\":7,\"attrs\":{\"outcome\":\"ok\"}}",
        )
        .unwrap();
        assert_eq!(trace, "00000000000000000000000000000001");
        assert_eq!(span.hop(), "gateway.queue_wait");
        assert_eq!(span.parent.as_deref(), Some("00000000000000bb"));
        assert_eq!((span.start_us, span.dur_us, span.job), (100, 40, Some(7)));
        assert_eq!(span.attrs, vec![("outcome".to_string(), "ok".to_string())]);
    }

    #[test]
    fn rejects_spans_missing_required_fields() {
        assert!(parse_span("{\"span\":\"00000000000000aa\"}").is_err());
        assert!(parse_span("not json").is_err());
    }

    #[test]
    fn waterfall_orders_children_under_parents() {
        let spans = vec![
            Span {
                span: "b".into(),
                parent: Some("a".into()),
                svc: "gateway".into(),
                stage: "queue_wait".into(),
                start_us: 110,
                dur_us: 10,
                job: None,
                attrs: Vec::new(),
            },
            Span {
                span: "a".into(),
                parent: None,
                svc: "gateway".into(),
                stage: "request".into(),
                start_us: 100,
                dur_us: 50,
                job: Some(1),
                attrs: Vec::new(),
            },
        ];
        let mut out = String::new();
        waterfall(&mut out, &spans, 100);
        let request = out.find("gateway.request").expect("root rendered");
        let wait = out.find("gateway.queue_wait").expect("child rendered");
        assert!(request < wait, "parent must precede child:\n{out}");
    }
}
