//! Exporters: render a [`MetricsSnapshot`] as a JSON line or in Prometheus
//! text exposition format.

use crate::json::Json;
use crate::registry::MetricsSnapshot;
use std::fmt::Write;

/// Builds a snapshot's JSON value; `to_string()` renders it as one
/// compact JSON line.
pub fn json_value(snap: &MetricsSnapshot) -> Json {
    let phases = Json::Obj(
        snap.phases.iter().map(|(p, secs)| (format!("{}_s", p.name()), Json::num(secs))).collect(),
    );
    let counters =
        Json::Obj(snap.counters.iter().map(|(n, v)| (n.clone(), Json::num(*v as f64))).collect());
    let gauges = Json::Obj(snap.gauges.iter().map(|(n, v)| (n.clone(), Json::num(*v))).collect());
    let histograms = Json::Arr(
        snap.histograms
            .iter()
            .map(|h| {
                Json::Obj(vec![
                    ("name".to_string(), Json::str(h.name.clone())),
                    (
                        "bounds".to_string(),
                        Json::Arr(h.bounds.iter().map(|&b| Json::num(b)).collect()),
                    ),
                    (
                        "counts".to_string(),
                        Json::Arr(h.counts.iter().map(|&c| Json::num(c as f64)).collect()),
                    ),
                    ("count".to_string(), Json::num(h.count as f64)),
                    ("sum".to_string(), Json::num(h.sum)),
                ])
            })
            .collect(),
    );
    let mut fields = Vec::with_capacity(5);
    if let Some(label) = &snap.label {
        fields.push(("job".to_string(), Json::str(label.clone())));
    }
    fields.extend([
        ("phases".to_string(), phases),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("histograms".to_string(), histograms),
    ]);
    Json::Obj(fields)
}

/// Renders a snapshot in Prometheus text exposition format. Metric names
/// are sanitized (non-alphanumeric characters become `_`); every family
/// gets `# HELP` and `# TYPE` lines per the exposition format.
pub fn prometheus(snap: &MetricsSnapshot) -> String {
    prometheus_with_labels(snap, &[])
}

/// Like [`prometheus`], but attaches `labels` to every sample (e.g.
/// `[("rank", "3")]` for a per-rank scrape). Label values are escaped per
/// the exposition format: backslash, double quote, and newline become
/// `\\`, `\"`, and `\n`.
pub fn prometheus_with_labels(snap: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let base: String = snap
        .label
        .iter()
        .map(|v| ("job", v.as_str()))
        .chain(labels.iter().copied())
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    // Renders `{extra,base}` (or `{base}`, `{extra}`, ``) around a sample.
    let label_set = |extra: &str| -> String {
        let joined = match (extra.is_empty(), base.is_empty()) {
            (true, true) => return String::new(),
            (false, true) => extra.to_string(),
            (true, false) => base.clone(),
            (false, false) => format!("{extra},{base}"),
        };
        format!("{{{joined}}}")
    };
    let mut out = String::new();
    out.push_str("# HELP sc_phase_seconds_total Wall seconds accumulated per step phase.\n");
    out.push_str("# TYPE sc_phase_seconds_total counter\n");
    for (phase, secs) in snap.phases.iter() {
        let ls = label_set(&format!("phase=\"{}\"", phase.name()));
        let _ = writeln!(out, "sc_phase_seconds_total{ls} {secs}");
    }
    for (name, value) in &snap.counters {
        let help = escape_help(name);
        let name = sanitize(name);
        let _ = writeln!(out, "# HELP {name} Counter '{help}' recorded by sc-obs.");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}{} {value}", label_set(""));
    }
    for (name, value) in &snap.gauges {
        let help = escape_help(name);
        let name = sanitize(name);
        let _ = writeln!(out, "# HELP {name} Gauge '{help}' recorded by sc-obs.");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{} {value}", label_set(""));
    }
    for h in &snap.histograms {
        let help = escape_help(&h.name);
        let name = sanitize(&h.name);
        let _ = writeln!(out, "# HELP {name} Histogram '{help}' recorded by sc-obs.");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &count) in h.counts.iter().enumerate() {
            cumulative += count;
            let edge = match h.bounds.get(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            let ls = label_set(&format!("le=\"{edge}\""));
            let _ = writeln!(out, "{name}_bucket{ls} {cumulative}");
        }
        let ls = label_set("");
        let _ = writeln!(out, "{name}_sum{ls} {}\n{name}_count{ls} {}", h.sum, h.count);
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Escapes a label value per the exposition format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text per the exposition format: `\` → `\\`, newline →
/// `\n` (quotes are legal in help text).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::registry::Registry;

    /// A registry with deterministic contents for golden-output tests.
    fn golden_registry() -> Registry {
        let reg = Registry::new();
        reg.record_phase(Phase::Bin, 0.5);
        reg.record_phase(Phase::Eval, 1.25);
        reg.counter("comm.bytes").add(4096);
        reg.counter("sim.steps").add(10);
        reg.gauge("sim.temperature").set(1.5);
        let h = reg.histogram("comm.step_bytes", &[100.0, 1000.0]);
        h.observe(50.0);
        h.observe(500.0);
        h.observe(5000.0);
        reg
    }

    #[test]
    fn json_line_golden_and_parses_back() {
        let line = json_value(&golden_registry().snapshot()).to_string();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("phases").unwrap().get("bin_s").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("phases").unwrap().get("exchange_s").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("counters").unwrap().get("comm.bytes").unwrap().as_f64(), Some(4096.0));
        let h = &v.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(h.get("name").unwrap().as_str(), Some("comm.step_bytes"));
        assert_eq!(h.get("counts").unwrap().as_array().unwrap().len(), 3);
        // Counters come out sorted, so the line itself is deterministic.
        assert!(line.starts_with(r#"{"phases":{"bin_s":0.5,"#), "{line}");
    }

    #[test]
    fn prometheus_golden() {
        let text = prometheus(&golden_registry().snapshot());
        let expected = "\
# HELP sc_phase_seconds_total Wall seconds accumulated per step phase.
# TYPE sc_phase_seconds_total counter
sc_phase_seconds_total{phase=\"bin\"} 0.5
sc_phase_seconds_total{phase=\"exchange\"} 0
sc_phase_seconds_total{phase=\"enumerate\"} 0
sc_phase_seconds_total{phase=\"eval\"} 1.25
sc_phase_seconds_total{phase=\"reduce\"} 0
sc_phase_seconds_total{phase=\"migrate\"} 0
sc_phase_seconds_total{phase=\"integrate\"} 0
sc_phase_seconds_total{phase=\"compute\"} 0
# HELP comm_bytes Counter 'comm.bytes' recorded by sc-obs.
# TYPE comm_bytes counter
comm_bytes 4096
# HELP sim_steps Counter 'sim.steps' recorded by sc-obs.
# TYPE sim_steps counter
sim_steps 10
# HELP sim_temperature Gauge 'sim.temperature' recorded by sc-obs.
# TYPE sim_temperature gauge
sim_temperature 1.5
# HELP comm_step_bytes Histogram 'comm.step_bytes' recorded by sc-obs.
# TYPE comm_step_bytes histogram
comm_step_bytes_bucket{le=\"100\"} 1
comm_step_bytes_bucket{le=\"1000\"} 2
comm_step_bytes_bucket{le=\"+Inf\"} 3
comm_step_bytes_sum 5550
comm_step_bytes_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn labeled_snapshot_flows_through_every_exporter() {
        let reg = Registry::labeled("job-3");
        reg.counter("sim.steps").add(2);
        let snap = reg.snapshot();
        let line = json_value(&snap).to_string();
        assert!(line.starts_with(r#"{"job":"job-3","phases":"#), "{line}");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("job").unwrap().as_str(), Some("job-3"));
        let text = prometheus(&snap);
        assert!(text.contains("sim_steps{job=\"job-3\"} 2"), "{text}");
        // Extra labels compose after the job label.
        let text = prometheus_with_labels(&snap, &[("rank", "1")]);
        assert!(text.contains("sim_steps{job=\"job-3\",rank=\"1\"} 2"), "{text}");
    }

    #[test]
    fn prometheus_escapes_label_values_golden() {
        let reg = Registry::new();
        reg.counter("sim.steps").add(3);
        let h = reg.histogram("lat", &[1.0]);
        h.observe(0.5);
        // A hostile label value: backslash, double quote, and a newline.
        let text = prometheus_with_labels(&reg.snapshot(), &[("run id", "a\\b\"quoted\"\nline2")]);
        let expected = "\
# HELP sc_phase_seconds_total Wall seconds accumulated per step phase.
# TYPE sc_phase_seconds_total counter
sc_phase_seconds_total{phase=\"bin\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"exchange\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"enumerate\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"eval\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"reduce\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"migrate\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"integrate\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
sc_phase_seconds_total{phase=\"compute\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0
# HELP sim_steps Counter 'sim.steps' recorded by sc-obs.
# TYPE sim_steps counter
sim_steps{run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 3
# HELP lat Histogram 'lat' recorded by sc-obs.
# TYPE lat histogram
lat_bucket{le=\"1\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 1
lat_bucket{le=\"+Inf\",run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 1
lat_sum{run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 0.5
lat_count{run_id=\"a\\\\b\\\"quoted\\\"\\nline2\"} 1
";
        assert_eq!(text, expected);
        // No raw newline may survive inside a sample line: every output
        // line must be a comment, a sample, or empty.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "malformed exposition line: {line:?}"
            );
        }
    }
}
