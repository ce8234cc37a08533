//! The unified snapshot type and its exporters.
//!
//! A [`MetricsSnapshot`] is plain owned data — counters, gauges,
//! histograms, operator stats and span totals copied out at one instant —
//! so engine, serving and training registries can each snapshot and then
//! [`MetricsSnapshot::merge`] into one view. Three exporters:
//!
//! * [`render`](MetricsSnapshot::render) — stable fixed-width plain text,
//!   the golden-test format (deterministic input → byte-identical output);
//! * [`render_prometheus`](MetricsSnapshot::render_prometheus) — text
//!   exposition format 0.0.4 (cumulative `_bucket{le=...}` histograms,
//!   `# TYPE` headers), scrape-ready;
//! * [`to_jsonl`](MetricsSnapshot::to_jsonl) — one JSON object per line
//!   for append-only machine-readable logs across runs.

use crate::ops;

/// One counter's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    pub name: String,
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    pub name: String,
    pub value: u64,
}

/// One histogram at snapshot time: fixed upper edges, non-cumulative
/// per-bucket counts with the overflow bucket last, plus count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    pub name: String,
    pub edges: Vec<u64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSample {
    /// Upper-edge quantile estimate: the edge of the first bucket whose
    /// cumulative count reaches `q * count` (the overflow bucket reports
    /// `u64::MAX`). Coarse by design — fixed buckets trade precision for
    /// mergeability — but monotone in `q` and deterministic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.edges.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Mean of observed values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One operator class's accumulated profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSample {
    pub class: &'static str,
    pub calls: u64,
    pub flops: u64,
    pub bytes: u64,
    pub nanos: u64,
}

/// One span name's loss-free aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanSample {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// Everything the observability layer knows, as plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSample>,
    pub gauges: Vec<GaugeSample>,
    pub histograms: Vec<HistogramSample>,
    pub ops: Vec<OpSample>,
    pub spans: Vec<SpanSample>,
}

impl MetricsSnapshot {
    /// Capture the global operator-profiling cells into a snapshot (only
    /// non-empty classes; shape is stable because class order is).
    pub fn with_ops(mut self) -> MetricsSnapshot {
        self.ops = ops::all_stats()
            .into_iter()
            .filter(|(_, s)| s.calls > 0)
            .map(|(c, s)| OpSample {
                class: c.name(),
                calls: s.calls,
                flops: s.flops,
                bytes: s.bytes,
                nanos: s.nanos,
            })
            .collect();
        self
    }

    /// Attach span totals from a tracer.
    pub fn with_spans(mut self, spans: Vec<SpanSample>) -> MetricsSnapshot {
        self.spans = spans;
        self
    }

    /// Fold `other` into `self`, preserving order: same-named entries add
    /// (histograms must agree on edges), new names append. This is how
    /// engine + serve + train registries become one exposition.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|m| m.name == g.name) {
                Some(m) => m.value = m.value.max(g.value),
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|m| m.name == h.name && m.edges == h.edges)
            {
                Some(m) => {
                    for (a, b) in m.buckets.iter_mut().zip(h.buckets.iter()) {
                        *a += b;
                    }
                    m.count += h.count;
                    m.sum += h.sum;
                }
                None => self.histograms.push(h.clone()),
            }
        }
        for o in &other.ops {
            match self.ops.iter_mut().find(|m| m.class == o.class) {
                Some(m) => {
                    m.calls += o.calls;
                    m.flops += o.flops;
                    m.bytes += o.bytes;
                    m.nanos += o.nanos;
                }
                None => self.ops.push(*o),
            }
        }
        for s in &other.spans {
            match self.spans.iter_mut().find(|m| m.name == s.name) {
                Some(m) => {
                    m.count += s.count;
                    m.total_ns += s.total_ns;
                }
                None => self.spans.push(*s),
            }
        }
    }

    fn op_total_nanos(&self) -> u64 {
        self.ops.iter().map(|o| o.nanos).sum()
    }

    /// Stable fixed-width plain text, one entry per line — the golden
    /// format. Bucket lines use `name<=edge` / `name_overflow` labels,
    /// matching the serving metrics render style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| out.push_str(&format!("{k:<36} {v}\n"));
        for c in &self.counters {
            line(&c.name, c.value.to_string());
        }
        for g in &self.gauges {
            line(&g.name, g.value.to_string());
        }
        for h in &self.histograms {
            line(&format!("{}_count", h.name), h.count.to_string());
            line(&format!("{}_sum", h.name), h.sum.to_string());
            for (i, &count) in h.buckets.iter().enumerate() {
                let label = match h.edges.get(i) {
                    Some(e) => format!("{}<={e}", h.name),
                    None => format!("{}_overflow", h.name),
                };
                line(&label, count.to_string());
            }
        }
        let total = self.op_total_nanos();
        for o in &self.ops {
            let share = if total == 0 {
                0.0
            } else {
                o.nanos as f64 / total as f64
            };
            line(
                &format!("op_{}", o.class),
                format!(
                    "calls={} flops={} bytes={} nanos={} share={:.3}",
                    o.calls, o.flops, o.bytes, o.nanos, share
                ),
            );
        }
        for s in &self.spans {
            line(
                &format!("span_{}", s.name),
                format!("count={} total_ns={}", s.count, s.total_ns),
            );
        }
        out
    }

    /// Prometheus text exposition (format 0.0.4). Metric names get an
    /// `rpf_` prefix; histograms emit cumulative `_bucket{le="..."}`
    /// series ending in `+Inf`, plus `_count`/`_sum`; operator profiles
    /// become `rpf_op_*_total{class="..."}` plus the derived
    /// `rpf_op_time_share` gauge — the paper's operator-breakdown table
    /// as scrape output.
    ///
    /// A sample name may embed a label set as `base{key="value"}` (the
    /// sharded serving layer emits `serve_submitted{shard="0"}` and
    /// friends): labels stay inside the braces — suffixes like `_total`
    /// and `_bucket` attach to the *base* name, a histogram's `le` label
    /// merges into the existing set, and the `# TYPE` header is emitted
    /// once per base name across all of its label variants.
    pub fn render_prometheus(&self) -> String {
        use std::collections::HashSet;
        let mut out = String::new();
        let mut typed: HashSet<String> = HashSet::new();
        for c in &self.counters {
            let (base, labels) = split_labels(&c.name);
            let name = format!("rpf_{base}_total");
            if typed.insert(name.clone()) {
                out.push_str(&format!("# TYPE {name} counter\n"));
            }
            out.push_str(&format!("{name}{} {}\n", brace(labels), c.value));
        }
        for g in &self.gauges {
            let (base, labels) = split_labels(&g.name);
            let name = format!("rpf_{base}");
            if typed.insert(name.clone()) {
                out.push_str(&format!("# TYPE {name} gauge\n"));
            }
            out.push_str(&format!("{name}{} {}\n", brace(labels), g.value));
        }
        for h in &self.histograms {
            let (base, labels) = split_labels(&h.name);
            let name = format!("rpf_{base}");
            if typed.insert(name.clone()) {
                out.push_str(&format!("# TYPE {name} histogram\n"));
            }
            let mut cumulative = 0u64;
            for (i, &count) in h.buckets.iter().enumerate() {
                cumulative += count;
                let le = match h.edges.get(i) {
                    Some(e) => e.to_string(),
                    None => "+Inf".to_string(),
                };
                let le_labels = match labels {
                    Some(l) => format!("{{{l},le=\"{le}\"}}"),
                    None => format!("{{le=\"{le}\"}}"),
                };
                out.push_str(&format!("{name}_bucket{le_labels} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_count{} {}\n", brace(labels), h.count));
            out.push_str(&format!("{name}_sum{} {}\n", brace(labels), h.sum));
        }
        if !self.ops.is_empty() {
            let total = self.op_total_nanos();
            for (metric, kind) in [
                ("rpf_op_calls_total", "counter"),
                ("rpf_op_flops_total", "counter"),
                ("rpf_op_bytes_total", "counter"),
                ("rpf_op_nanos_total", "counter"),
                ("rpf_op_time_share", "gauge"),
            ] {
                out.push_str(&format!("# TYPE {metric} {kind}\n"));
                for o in &self.ops {
                    let value = match metric {
                        "rpf_op_calls_total" => o.calls.to_string(),
                        "rpf_op_flops_total" => o.flops.to_string(),
                        "rpf_op_bytes_total" => o.bytes.to_string(),
                        "rpf_op_nanos_total" => o.nanos.to_string(),
                        _ => {
                            let share = if total == 0 {
                                0.0
                            } else {
                                o.nanos as f64 / total as f64
                            };
                            format!("{share:.6}")
                        }
                    };
                    out.push_str(&format!("{metric}{{class=\"{}\"}} {value}\n", o.class));
                }
            }
        }
        if !self.spans.is_empty() {
            for (metric, field) in [
                ("rpf_span_count_total", 0usize),
                ("rpf_span_nanos_total", 1),
            ] {
                out.push_str(&format!("# TYPE {metric} counter\n"));
                for s in &self.spans {
                    let value = if field == 0 { s.count } else { s.total_ns };
                    out.push_str(&format!("{metric}{{name=\"{}\"}} {value}\n", s.name));
                }
            }
        }
        out
    }

    /// One JSON object per line (kind-tagged), hand-serialized so the
    /// exporter carries no dependency. Append-only friendly: each line is
    /// independently parseable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{}}}\n",
                json_str(&c.name),
                c.value
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json_str(&g.name),
                g.value
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"name\":{},\"edges\":{},\"buckets\":{},\"count\":{},\"sum\":{}}}\n",
                json_str(&h.name),
                json_u64s(&h.edges),
                json_u64s(&h.buckets),
                h.count,
                h.sum
            ));
        }
        for o in &self.ops {
            out.push_str(&format!(
                "{{\"kind\":\"op\",\"class\":{},\"calls\":{},\"flops\":{},\"bytes\":{},\"nanos\":{}}}\n",
                json_str(o.class),
                o.calls,
                o.flops,
                o.bytes,
                o.nanos
            ));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"kind\":\"span\",\"name\":{},\"count\":{},\"total_ns\":{}}}\n",
                json_str(s.name),
                s.count,
                s.total_ns
            ));
        }
        out
    }
}

/// Split a sample name into `(base, labels)` at the first `{`: a name
/// like `serve_submitted{shard="0"}` carries its label set inline so
/// merged snapshots can hold the same metric under many label variants.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Re-brace a label set for exposition (empty string when unlabelled).
fn brace(labels: Option<&str>) -> String {
    match labels {
        Some(l) => format!("{{{l}}}"),
        None => String::new(),
    }
}

/// Append `s` as a quoted JSON string, escaping the quote, the backslash
/// and every control character (`\n`, `\r` and `\t` by name, the rest as
/// `\u00XX`). The one JSON string writer of the exporters and the
/// gateway's wire bodies.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`write_json_str`] into a fresh string, for the `format!` lines above
/// (metric names are ASCII identifiers, but escape defensively).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

fn json_u64s(values: &[u64]) -> String {
    let inner: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> HistogramSample {
        HistogramSample {
            name: "lat".into(),
            edges: vec![10, 100, 1000],
            buckets: vec![5, 3, 1, 1],
            count: 10,
            sum: 500,
        }
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let h = hist();
        assert_eq!(h.quantile(0.0), 10); // rank clamps to 1
        assert_eq!(h.quantile(0.5), 10); // 5 of 10 in first bucket
        assert_eq!(h.quantile(0.8), 100); // 8th lands in second bucket
        assert_eq!(h.quantile(0.9), 1000);
        assert_eq!(h.quantile(1.0), u64::MAX); // overflow bucket
        assert!((h.mean() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = HistogramSample {
            name: "empty".into(),
            edges: vec![1],
            buckets: vec![0, 0],
            count: 0,
            sum: 0,
        };
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_adds_matching_and_appends_new() {
        let mut a = MetricsSnapshot {
            counters: vec![CounterSample {
                name: "x".into(),
                value: 2,
            }],
            gauges: vec![GaugeSample {
                name: "depth".into(),
                value: 3,
            }],
            histograms: vec![hist()],
            ops: vec![],
            spans: vec![],
        };
        let b = MetricsSnapshot {
            counters: vec![
                CounterSample {
                    name: "x".into(),
                    value: 5,
                },
                CounterSample {
                    name: "y".into(),
                    value: 1,
                },
            ],
            gauges: vec![GaugeSample {
                name: "depth".into(),
                value: 7,
            }],
            histograms: vec![hist()],
            ops: vec![OpSample {
                class: "matmul_into",
                calls: 1,
                flops: 10,
                bytes: 4,
                nanos: 2,
            }],
            spans: vec![SpanSample {
                name: "decode",
                count: 4,
                total_ns: 40,
            }],
        };
        a.merge(&b);
        assert_eq!(a.counters[0].value, 7);
        assert_eq!(a.counters[1].name, "y");
        assert_eq!(a.gauges[0].value, 7, "gauges merge by max");
        assert_eq!(a.histograms[0].count, 20);
        assert_eq!(a.histograms[0].buckets, vec![10, 6, 2, 2]);
        assert_eq!(a.ops.len(), 1);
        assert_eq!(a.spans[0].count, 4);
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_in_inf() {
        let snap = MetricsSnapshot {
            histograms: vec![hist()],
            ..Default::default()
        };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE rpf_lat histogram"));
        assert!(text.contains("rpf_lat_bucket{le=\"10\"} 5"));
        assert!(text.contains("rpf_lat_bucket{le=\"100\"} 8"));
        assert!(text.contains("rpf_lat_bucket{le=\"1000\"} 9"));
        assert!(text.contains("rpf_lat_bucket{le=\"+Inf\"} 10"));
        assert!(text.contains("rpf_lat_count 10"));
        assert!(text.contains("rpf_lat_sum 500"));
    }

    #[test]
    fn prometheus_renders_inline_labels_with_one_type_header() {
        let snap = MetricsSnapshot {
            counters: vec![
                CounterSample {
                    name: "serve_submitted".to_string(),
                    value: 9,
                },
                CounterSample {
                    name: "serve_submitted{shard=\"0\"}".to_string(),
                    value: 4,
                },
                CounterSample {
                    name: "serve_submitted{shard=\"1\"}".to_string(),
                    value: 5,
                },
            ],
            gauges: vec![GaugeSample {
                name: "queue_depth{shard=\"1\"}".to_string(),
                value: 3,
            }],
            histograms: vec![HistogramSample {
                name: "lat{shard=\"0\"}".to_string(),
                edges: vec![10, 100],
                buckets: vec![1, 2, 3],
                count: 6,
                sum: 60,
            }],
            ..Default::default()
        };
        let text = snap.render_prometheus();
        // Suffixes attach to the base name, labels stay braced.
        assert!(text.contains("rpf_serve_submitted_total 9"));
        assert!(text.contains("rpf_serve_submitted_total{shard=\"0\"} 4"));
        assert!(text.contains("rpf_serve_submitted_total{shard=\"1\"} 5"));
        assert!(text.contains("rpf_queue_depth{shard=\"1\"} 3"));
        // `le` merges into the existing label set.
        assert!(text.contains("rpf_lat_bucket{shard=\"0\",le=\"10\"} 1"));
        assert!(text.contains("rpf_lat_bucket{shard=\"0\",le=\"+Inf\"} 6"));
        assert!(text.contains("rpf_lat_count{shard=\"0\"} 6"));
        // One TYPE header per base name across every label variant.
        assert_eq!(text.matches("# TYPE rpf_serve_submitted_total").count(), 1);
    }

    #[test]
    fn op_time_share_sums_to_one() {
        let snap = MetricsSnapshot {
            ops: vec![
                OpSample {
                    class: "matmul_into",
                    calls: 1,
                    flops: 0,
                    bytes: 0,
                    nanos: 750,
                },
                OpSample {
                    class: "scalar",
                    calls: 1,
                    flops: 0,
                    bytes: 0,
                    nanos: 250,
                },
            ],
            ..Default::default()
        };
        let text = snap.render_prometheus();
        assert!(text.contains("rpf_op_time_share{class=\"matmul_into\"} 0.750000"));
        assert!(text.contains("rpf_op_time_share{class=\"scalar\"} 0.250000"));
    }

    #[test]
    fn jsonl_lines_are_independent_objects() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSample {
                name: "x".into(),
                value: 1,
            }],
            histograms: vec![hist()],
            ..Default::default()
        };
        let text = snap.to_jsonl();
        for l in text.lines() {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        assert!(text.contains("\"kind\":\"histogram\""));
        assert!(text.contains("\"edges\":[10,100,1000]"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn render_is_stable_plain_text() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSample {
                name: "engine_calls".into(),
                value: 3,
            }],
            histograms: vec![hist()],
            ..Default::default()
        };
        let text = snap.render();
        assert!(text.contains("engine_calls"));
        assert!(text.contains("lat<=10"));
        assert!(text.contains("lat_overflow"));
    }
}
