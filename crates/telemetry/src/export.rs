//! Exporters over a [`TelemetrySnapshot`]: JSONL, Chrome `trace_event`,
//! and Prometheus-style text exposition.
//!
//! All three are hand-rolled (the workspace has no serde); every emitter
//! iterates the snapshot's pre-sorted collections so output order — and
//! with `include_wall = false`, content — is deterministic for a given
//! seed.

use crate::sketch::HistogramSketch;
use crate::TelemetrySnapshot;
use std::fmt::Write;

/// Quantiles summarised per histogram in JSONL and Prometheus output:
/// `(quantile, prometheus label, jsonl field)`.
const SUMMARY_QUANTILES: [(f64, &str, &str); 3] = [
    (0.5, "0.5", "p50"),
    (0.95, "0.95", "p95"),
    (0.99, "0.99", "p99"),
];

/// Escapes a string for inclusion inside JSON double quotes.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON number (`null` if non-finite).
fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Emits `"key":"value"` with escaping.
fn json_str_field(key: &str, value: &str, out: &mut String) {
    out.push('"');
    escape_json(key, out);
    out.push_str("\":\"");
    escape_json(value, out);
    out.push('"');
}

/// Emits a span's args as a JSON object, e.g. `{"cycle":3}`.
fn json_args(args: &[(&'static str, u64)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(k, out);
        let _ = write!(out, "\":{v}");
    }
    out.push('}');
}

fn jsonl_hist(domain: &str, name: &str, h: &HistogramSketch, out: &mut String) {
    out.push_str("{\"type\":\"hist\",");
    json_str_field("domain", domain, out);
    out.push(',');
    json_str_field("name", name, out);
    let _ = write!(out, ",\"count\":{},\"sum\":", h.count());
    json_f64(h.sum(), out);
    out.push_str(",\"min\":");
    json_f64(h.min(), out);
    out.push_str(",\"max\":");
    json_f64(h.max(), out);
    out.push_str(",\"mean\":");
    json_f64(h.mean(), out);
    for (q, _, field) in SUMMARY_QUANTILES {
        let _ = write!(out, ",\"{field}\":");
        json_f64(h.quantile(q), out);
    }
    // The full bucket CDF, `[value, cumulative_fraction]` pairs in value
    // order — enough to plot a Fig. 12-style latency CDF directly.
    out.push_str(",\"cdf\":[");
    for (i, (v, f)) in h.cdf().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json_f64(*v, out);
        out.push(',');
        json_f64(*f, out);
        out.push(']');
    }
    out.push_str("]}\n");
}

/// JSONL export: a `meta` line, then spans in id order, then counters and
/// histogram summaries in name order.
pub fn jsonl(snap: &TelemetrySnapshot, include_wall: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"spans\":{},\"spans_dropped\":{}}}",
        snap.spans.len(),
        snap.spans_dropped
    );
    for s in &snap.spans {
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{},\"parent\":", s.id);
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push(',');
        json_str_field("cat", s.cat, &mut out);
        out.push(',');
        json_str_field("name", s.name, &mut out);
        let _ = write!(
            out,
            ",\"start_us\":{},\"end_us\":{},\"args\":",
            s.start_us, s.end_us
        );
        json_args(&s.args, &mut out);
        out.push_str("}\n");
    }
    for (name, v) in &snap.counters {
        out.push_str("{\"type\":\"counter\",");
        json_str_field("name", name, &mut out);
        let _ = write!(out, ",\"value\":{v}}}");
        out.push('\n');
    }
    for (name, h) in &snap.sim_hists {
        jsonl_hist("sim", name, h, &mut out);
    }
    if include_wall {
        for (name, h) in &snap.wall_hists {
            jsonl_hist("wall", name, h, &mut out);
        }
    }
    out
}

/// Chrome `trace_event` export: complete (`"ph":"X"`) events on the
/// micro-tick clock, one process/one thread, nested by timestamp
/// containment exactly as the spans nested at record time.
pub fn chrome(snap: &TelemetrySnapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"tetrisched\"}}",
    );
    for s in &snap.spans {
        out.push_str(",\n{");
        json_str_field("name", s.name, &mut out);
        out.push(',');
        json_str_field("cat", s.cat, &mut out);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":",
            s.start_us,
            s.end_us.saturating_sub(s.start_us)
        );
        json_args(&s.args, &mut out);
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Maps a dotted metric name to a Prometheus metric name.
fn prom_name(name: &str, out: &mut String) {
    out.push_str("tetrisched_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

fn prom_hist(name: &str, h: &HistogramSketch, out: &mut String) {
    let mut metric = String::new();
    prom_name(name, &mut metric);
    let _ = writeln!(out, "# TYPE {metric} summary");
    for (q, label, _) in SUMMARY_QUANTILES {
        let _ = writeln!(
            out,
            "{metric}{{quantile=\"{label}\"}} {}",
            prom_f64(h.quantile(q))
        );
    }
    let _ = writeln!(out, "{metric}_sum {}", prom_f64(h.sum()));
    let _ = writeln!(out, "{metric}_count {}", h.count());
}

/// Prometheus text exposition snapshot: counters and span totals as
/// `counter`, histograms as `summary` with `quantile` labels.
pub fn prometheus(snap: &TelemetrySnapshot, include_wall: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE tetrisched_spans_recorded counter");
    let _ = writeln!(out, "tetrisched_spans_recorded {}", snap.spans.len());
    let _ = writeln!(out, "# TYPE tetrisched_spans_dropped counter");
    let _ = writeln!(out, "tetrisched_spans_dropped {}", snap.spans_dropped);
    for (name, v) in &snap.counters {
        let mut metric = String::new();
        prom_name(name, &mut metric);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {v}");
    }
    for (name, h) in &snap.sim_hists {
        prom_hist(name, h, &mut out);
    }
    if include_wall {
        for (name, h) in &snap.wall_hists {
            prom_hist(name, h, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{Telemetry, TelemetryConfig};

    fn sample_registry() -> Telemetry {
        let t = Telemetry::new(TelemetryConfig::on());
        t.advance(0);
        {
            let cycle = t.span("sim", "cycle");
            cycle.arg("cycle", 0);
            let _solve = t.span("sched", "solve");
        }
        t.counter_add("sim.submits", 3);
        t.observe_sim("sched.batch_size", 2.0);
        t.observe_wall("cycle.wall_us", 1234.5);
        t
    }

    #[test]
    fn jsonl_lines_are_json_shaped() {
        let t = sample_registry();
        let text = t.to_jsonl(true);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"domain\":\"wall\""));
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let t = sample_registry();
        let text = t.to_chrome_trace();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"cycle\""));
        assert!(text.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        let t = sample_registry();
        let text = t.to_prometheus(false);
        assert!(text.contains("tetrisched_sim_submits 3"));
        assert!(text.contains("# TYPE tetrisched_sched_batch_size summary"));
        assert!(!text.contains("cycle.wall"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = sample_registry();
        let b = sample_registry();
        assert_eq!(a.to_jsonl(false), b.to_jsonl(false));
        assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
        assert_eq!(a.to_prometheus(false), b.to_prometheus(false));
    }
}
