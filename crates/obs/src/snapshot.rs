//! Metrics snapshots: the counter/histogram side of a [`crate::Recorder`],
//! exported as deterministic hand-rolled JSON (sorted keys, integer-only
//! values) so a benchmark report can embed it verbatim without pulling a
//! JSON dependency into this crate.

use crate::hist::HistSummary;

/// Counters and histogram summaries at one point in time. All vectors are
/// sorted by name (the recorder stores them in `BTreeMap`s).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub hists: Vec<(String, HistSummary)>,
    /// Labeled series — e.g. per-tenant frontend counters or
    /// per-(tenant, template) quality gauges.
    pub labeled: Vec<LabeledSeries>,
}

/// One labeled series: `(name, sorted label pairs, value)`.
pub type LabeledSeries = (String, Vec<(String, String)>, u64);

/// Escape a string for a JSON string literal: the one escape every emitter
/// in this crate writes names through.
pub(crate) fn escape_into(out: &mut String, s: &str) {
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
}

impl MetricsSnapshot {
    /// Value of a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Summary of a histogram, if recorded.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Value of a labeled series, 0 when absent. `labels` must be sorted by
    /// key (the recorder sorts on write).
    pub fn labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.labeled
            .iter()
            .find(|(n, l, _)| {
                n == name
                    && l.len() == labels.len()
                    && l.iter()
                        .zip(labels)
                        .all(|((k, v), (ek, ev))| k == ek && v == ev)
            })
            .map(|&(_, _, v)| v)
            .unwrap_or(0)
    }

    /// Deterministic JSON object:
    /// `{"counters":{...},"histograms_us":{name:{count,sum,min,max,p50,p90,p95,p99}}}`,
    /// plus a `"labeled"` array (`[name, {labels}, value]` triples) only when
    /// any labeled series exist — the empty shape is pinned by tests and
    /// merged verbatim into BENCH artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms_us\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":{\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push_str(",\"min\":");
            out.push_str(&h.min.to_string());
            out.push_str(",\"max\":");
            out.push_str(&h.max.to_string());
            out.push_str(",\"p50\":");
            out.push_str(&h.p50.to_string());
            out.push_str(",\"p90\":");
            out.push_str(&h.p90.to_string());
            out.push_str(",\"p95\":");
            out.push_str(&h.p95.to_string());
            out.push_str(",\"p99\":");
            out.push_str(&h.p99.to_string());
            out.push('}');
        }
        out.push('}');
        if !self.labeled.is_empty() {
            out.push_str(",\"labeled\":[");
            for (i, (name, labels, v)) in self.labeled.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("[\"");
                escape_into(&mut out, name);
                out.push_str("\",{");
                for (j, (lk, lv)) in labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(&mut out, lk);
                    out.push_str("\":\"");
                    escape_into(&mut out, lv);
                    out.push('"');
                }
                out.push_str("},");
                out.push_str(&v.to_string());
                out.push(']');
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// The snapshot in Prometheus text exposition format (version 0.0.4):
    /// counters become `counter` metrics, histogram summaries become
    /// `summary` metrics with `quantile` labels plus `_sum`/`_count` series.
    /// Metric names are prefixed `pythia_` and sanitized (`.` → `_`), so
    /// `reads.hit` scrapes as `pythia_reads_hit`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prom_name(k);
            out.push_str("# TYPE ");
            out.push_str(&name);
            out.push_str(" counter\n");
            out.push_str(&name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (k, h) in &self.hists {
            let name = prom_name(k);
            out.push_str("# TYPE ");
            out.push_str(&name);
            out.push_str(" summary\n");
            for (q, v) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.95", h.p95),
                ("0.99", h.p99),
            ] {
                out.push_str(&name);
                out.push_str("{quantile=\"");
                out.push_str(q);
                out.push_str("\"} ");
                out.push_str(&v.to_string());
                out.push('\n');
            }
            out.push_str(&name);
            out.push_str("_sum ");
            out.push_str(&h.sum.to_string());
            out.push('\n');
            out.push_str(&name);
            out.push_str("_count ");
            out.push_str(&h.count.to_string());
            out.push('\n');
        }
        let mut last_labeled = "";
        for (k, labels, v) in &self.labeled {
            let name = prom_name(k);
            if k != last_labeled {
                out.push_str("# TYPE ");
                out.push_str(&name);
                out.push_str(" gauge\n");
                last_labeled = k;
            }
            out.push_str(&name);
            out.push('{');
            for (i, (lk, lv)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&prom_label_key(lk));
                out.push_str("=\"");
                escape_prom_label_value(&mut out, lv);
                out.push('"');
            }
            out.push_str("} ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// Sanitize a label key into `[a-zA-Z0-9_]` (Prometheus label names take no
/// colons, unlike metric names).
fn prom_label_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label *value* per the Prometheus text exposition rules:
/// backslash, double-quote and line-feed are the only escapes.
fn escape_prom_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Sanitize a recorder metric name into a Prometheus metric name:
/// `pythia_` prefix, and every character outside `[a-zA-Z0-9_:]` → `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("pythia_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_json() {
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            "{\"counters\":{},\"histograms_us\":{}}"
        );
    }

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("a".into(), 1), ("b".into(), 2)],
            hists: vec![(
                "lat".into(),
                HistSummary {
                    count: 3,
                    sum: 30,
                    min: 5,
                    max: 20,
                    p50: 7,
                    p90: 15,
                    p95: 16,
                    p99: 20,
                },
            )],
            labeled: vec![],
        }
    }

    #[test]
    fn json_shape_and_lookups() {
        let snap = sample();
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.hist("lat").unwrap().count, 3);
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{\"a\":1,\"b\":2},\"histograms_us\":{\"lat\":{\"count\":3,\"sum\":30,\"min\":5,\"max\":20,\"p50\":7,\"p90\":15,\"p95\":16,\"p99\":20}}}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut snap = sample();
        snap.counters.push(("reads.hit".into(), 9));
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE pythia_a counter\npythia_a 1\n"));
        assert!(text.contains("# TYPE pythia_reads_hit counter\npythia_reads_hit 9\n"));
        assert!(text.contains("# TYPE pythia_lat summary\n"));
        assert!(text.contains("pythia_lat{quantile=\"0.5\"} 7\n"));
        assert!(text.contains("pythia_lat{quantile=\"0.95\"} 16\n"));
        assert!(text.contains("pythia_lat{quantile=\"0.99\"} 20\n"));
        assert!(text.contains("pythia_lat_sum 30\n"));
        assert!(text.contains("pythia_lat_count 3\n"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE pythia_")
                    || (line.starts_with("pythia_")
                        && line.rsplit(' ').next().unwrap().parse::<u64>().is_ok()),
                "malformed exposition line: {line}"
            );
        }
    }

    fn labeled_sample() -> MetricsSnapshot {
        let mut snap = sample();
        snap.labeled = vec![
            (
                "frontend.accepted".into(),
                vec![("tenant".into(), "0".into())],
                7,
            ),
            (
                "frontend.accepted".into(),
                vec![("tenant".into(), "1".into())],
                3,
            ),
            (
                "quality.hit_rate_e6".into(),
                vec![
                    ("template".into(), "query.replay.T18".into()),
                    ("tenant".into(), "0".into()),
                ],
                912_000,
            ),
        ];
        snap
    }

    #[test]
    fn labeled_series_json_and_lookup() {
        let snap = labeled_sample();
        assert_eq!(snap.labeled("frontend.accepted", &[("tenant", "1")]), 3);
        assert_eq!(snap.labeled("frontend.accepted", &[("tenant", "9")]), 0);
        assert_eq!(
            snap.labeled(
                "quality.hit_rate_e6",
                &[("template", "query.replay.T18"), ("tenant", "0")]
            ),
            912_000
        );
        let json = snap.to_json();
        assert!(json.contains(
            "\"labeled\":[[\"frontend.accepted\",{\"tenant\":\"0\"},7],[\"frontend.accepted\",{\"tenant\":\"1\"},3]"
        ));
        assert!(json.ends_with("]}"));
        // The empty shape stays byte-identical to the pre-labeled pin.
        assert!(!MetricsSnapshot::default().to_json().contains("labeled"));
    }

    #[test]
    fn prometheus_labeled_series_shape() {
        let text = labeled_sample().to_prometheus();
        assert!(text.contains("# TYPE pythia_frontend_accepted gauge\n"));
        assert!(text.contains("pythia_frontend_accepted{tenant=\"0\"} 7\n"));
        assert!(text.contains("pythia_frontend_accepted{tenant=\"1\"} 3\n"));
        assert!(text.contains(
            "pythia_quality_hit_rate_e6{template=\"query.replay.T18\",tenant=\"0\"} 912000\n"
        ));
        // One TYPE line per metric name even with many label sets.
        assert_eq!(text.matches("# TYPE pythia_frontend_accepted").count(), 1);
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE pythia_")
                    || (line.starts_with("pythia_")
                        && line.rsplit(' ').next().unwrap().parse::<u64>().is_ok()),
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_label_value_escaping() {
        let snap = MetricsSnapshot {
            counters: vec![],
            hists: vec![],
            labeled: vec![(
                "frontend.accepted".into(),
                vec![("tenant".into(), "acme \"prod\"\\eu\nwest".into())],
                4,
            )],
        };
        let text = snap.to_prometheus();
        assert!(text
            .contains("pythia_frontend_accepted{tenant=\"acme \\\"prod\\\"\\\\eu\\nwest\"} 4\n"));
        // No raw newline may survive inside a sample line.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prom_name("reads.hit"), "pythia_reads_hit");
        assert_eq!(
            prom_name("server.admission_wait_us"),
            "pythia_server_admission_wait_us"
        );
        assert_eq!(prom_name("weird-name/x"), "pythia_weird_name_x");
    }
}
