//! Rendering a [`Registry`] for external tools.
//!
//! Three formats:
//!
//! * [`prometheus_text`] — the Prometheus text exposition format
//!   (`# TYPE` headers, `name{label="v"} value` samples, histogram
//!   `_bucket`/`_sum`/`_count` expansion);
//! * [`timeseries_json`] — the full sampled rings as JSON, one series
//!   per metric with its `(sim_ns, value)` samples and drop counter;
//! * [`collapsed`] / [`speedscope_json`] — flamegraph folded-stack and
//!   speedscope renderings of caller-provided weighted stacks (the
//!   bench harness folds the 13-component latency taxonomy into these
//!   frames; this module stays agnostic of where the stacks come from
//!   so the crate sits below the kernel in the dependency graph).

use std::fmt::Write;

use ksa_json::{put_str, put_u64, Value};
use ksa_stats::Log2Histogram;

use crate::registry::{Metric, MetricKind, Registry};

/// A weighted stack: outermost frame first, weight in nanoseconds.
pub type Frame = (Vec<String>, u64);

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn prom_histogram(out: &mut String, m: &Metric) {
    let hist = m
        .hist
        .as_deref()
        .expect("a histogram metric has a distribution");
    let mut cumulative = 0u64;
    for (i, &c) in hist.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let (_, hi) = Log2Histogram::bucket_range(i);
        let mut labels = m.labels.clone();
        labels.push(("le".into(), hi.to_string()));
        let _ = writeln!(
            out,
            "{}_bucket{} {cumulative}",
            m.name,
            label_block(&labels)
        );
    }
    let mut labels = m.labels.clone();
    labels.push(("le".into(), "+Inf".into()));
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        m.name,
        label_block(&labels),
        hist.count()
    );
    let _ = writeln!(out, "{}_sum{} {}", m.name, label_block(&m.labels), m.value);
    let _ = writeln!(
        out,
        "{}_count{} {}",
        m.name,
        label_block(&m.labels),
        hist.count()
    );
}

/// Renders the registry in Prometheus text exposition format. Metrics
/// sharing a name emit one `# TYPE` header; histograms expand into
/// cumulative `_bucket` samples with log2 `le` edges plus `_sum` and
/// `_count`.
pub fn prometheus_text(reg: &Registry) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for m in reg.metrics() {
        if m.name != last_name {
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.prom());
            last_name = &m.name;
        }
        match m.kind {
            MetricKind::Counter | MetricKind::Gauge => {
                let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels), m.value);
            }
            MetricKind::Histogram => prom_histogram(&mut out, m),
        }
    }
    out
}

/// Renders every metric's sampled time series as JSON:
/// `{"samples_taken": n, "series": [{name, kind, labels, value,
/// dropped, samples: [[sim_ns, value], …]}]}`.
///
/// A merged full-scale sweep holds ~380k samples, so the document is
/// written straight into one pre-sized buffer through `ksa-json`'s byte
/// writers, as the Chrome trace exporter does, with no `Value` and no
/// `fmt` per sample. Keys go in the order a rendered `ksa-json` object
/// sorts them, and a series' labels are sorted by key with the last of
/// a duplicated key winning, as the object's map would keep it; the
/// bytes equal the tree renderer's, which the tests keep as the
/// reference.
pub fn timeseries_json(reg: &Registry) -> String {
    // The merged sweep registry renders 6.2 MB for 378k samples in
    // 3,030 series (~15 bytes per `[sim_ns,value]` pair, ~190 per
    // series header); reserving a little more up front spares the
    // doubling copies.
    let samples: usize = reg.metrics().iter().map(|m| m.ring.len()).sum();
    let mut out = Vec::with_capacity(18 * samples + 256 * (reg.metrics().len() + 1));
    write_timeseries(&mut out, reg);
    String::from_utf8(out).expect("the writer emits UTF-8")
}

fn write_timeseries(out: &mut Vec<u8>, reg: &Registry) {
    out.extend_from_slice(br#"{"samples_taken":"#);
    put_u64(out, reg.samples_taken);
    out.extend_from_slice(br#","series":["#);
    let mut labels: Vec<(&str, &str)> = Vec::new();
    for (i, m) in reg.metrics().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(br#"{"dropped":"#);
        put_u64(out, m.ring.dropped());
        out.extend_from_slice(br#","kind":"#);
        put_str(out, m.kind.prom());
        out.extend_from_slice(br#","labels":{"#);
        labels.clear();
        labels.extend(m.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        // Stable: equal keys keep their order, so the last one is the
        // map's survivor.
        labels.sort_by_key(|&(k, _)| k);
        let mut first = true;
        for (j, &(k, v)) in labels.iter().enumerate() {
            if labels.get(j + 1).is_some_and(|&(next, _)| next == k) {
                continue;
            }
            if !first {
                out.push(b',');
            }
            first = false;
            put_str(out, k);
            out.push(b':');
            put_str(out, v);
        }
        out.extend_from_slice(br#"},"name":"#);
        put_str(out, &m.name);
        out.extend_from_slice(br#","samples":["#);
        for (j, (t, v)) in m.ring.samples().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            out.push(b'[');
            put_u64(out, t);
            out.push(b',');
            put_u64(out, v);
            out.push(b']');
        }
        out.extend_from_slice(br#"],"value":"#);
        put_u64(out, m.value);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// Renders weighted stacks in the flamegraph "collapsed" format
/// (`frame;frame;frame weight` per line — loadable by `flamegraph.pl`
/// and by speedscope directly). Zero-weight stacks are omitted.
pub fn collapsed(frames: &[Frame]) -> String {
    let mut out = String::new();
    for (stack, weight) in frames {
        if *weight == 0 || stack.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{} {weight}", stack.join(";"));
    }
    out
}

/// Renders weighted stacks as a speedscope JSON document (one
/// `sampled` profile in nanoseconds; each stack becomes one sample
/// with its weight).
pub fn speedscope_json(name: &str, frames: &[Frame]) -> String {
    let mut frame_names: Vec<String> = Vec::new();
    let mut frame_idx = std::collections::BTreeMap::new();
    let mut samples = Vec::new();
    let mut weights = Vec::new();
    let mut total = 0u64;
    for (stack, weight) in frames {
        if *weight == 0 || stack.is_empty() {
            continue;
        }
        let sample: Vec<Value> = stack
            .iter()
            .map(|f| {
                let i = *frame_idx.entry(f.clone()).or_insert_with(|| {
                    frame_names.push(f.clone());
                    frame_names.len() - 1
                });
                Value::from(i as u64)
            })
            .collect();
        samples.push(Value::Array(sample));
        weights.push(Value::from(*weight));
        total += weight;
    }
    Value::object([
        (
            "$schema",
            Value::str("https://www.speedscope.app/file-format-schema.json"),
        ),
        (
            "shared",
            Value::object([(
                "frames",
                Value::array(
                    frame_names
                        .into_iter()
                        .map(|n| Value::object([("name", Value::str(n))])),
                ),
            )]),
        ),
        (
            "profiles",
            Value::array([Value::object([
                ("type", Value::str("sampled")),
                ("name", Value::str(name)),
                ("unit", Value::str("nanoseconds")),
                ("startValue", Value::from(0u64)),
                ("endValue", Value::from(total)),
                ("samples", Value::Array(samples)),
                ("weights", Value::Array(weights)),
            ])]),
        ),
        ("exporter", Value::str("ksa-telemetry")),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    fn sample_registry() -> Registry {
        let mut r = Registry::new(TelemetryConfig::with(1_000, 8));
        let c = r.counter("engine_events", &[("core", "0".into())]);
        let g = r.gauge("queue_depth", &[]);
        let h = r.histogram("syscall_latency_ns", &[]);
        r.add(c, 42);
        r.set(g, 7);
        r.observe(h, 300);
        r.observe(h, 90_000);
        r.sample_tick(0);
        r.sample_tick(5_000);
        r
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let text = prometheus_text(&sample_registry());
        assert!(text.contains("# TYPE engine_events counter"), "{text}");
        assert!(text.contains("engine_events{core=\"0\"} 42"), "{text}");
        assert!(text.contains("queue_depth 7"), "{text}");
        assert!(
            text.contains("syscall_latency_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("syscall_latency_ns_sum 90300"), "{text}");
        // Every non-comment line: <name or name{labels}> <numeric value>.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (head, val) = line.rsplit_once(' ').expect("name value");
            assert!(!head.is_empty());
            assert!(val.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    /// The `Value`-tree renderer the streaming writer replaced: the
    /// byte-for-byte reference for [`timeseries_json`].
    fn reference_timeseries_json(reg: &Registry) -> String {
        let series = reg.metrics().iter().map(|m| {
            Value::object([
                ("name", Value::str(m.name.clone())),
                ("kind", Value::str(m.kind.prom())),
                (
                    "labels",
                    Value::object(
                        m.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
                    ),
                ),
                ("value", Value::from(m.value)),
                ("dropped", Value::from(m.ring.dropped())),
                (
                    "samples",
                    Value::array(
                        m.ring
                            .samples()
                            .map(|(t, v)| Value::array([Value::from(t), Value::from(v)])),
                    ),
                ),
            ])
        });
        Value::object([
            ("samples_taken", Value::from(reg.samples_taken)),
            ("series", Value::array(series)),
        ])
        .render()
    }

    #[test]
    fn streamed_timeseries_matches_the_value_tree_renderer() {
        // Ring capacity 2 under 4 ticks: every sampled series overflows.
        let mut r = Registry::new(TelemetryConfig::with(1_000, 2));
        let c = r.counter("engine_events", &[("core", "0".into())]);
        let g = r.gauge("queue_depth", &[]);
        let h = r.histogram("syscall_latency_ns", &[("cat", "fs".into())]);
        // Escapes in the name, a label key and a label value.
        let esc = r.counter(
            "odd\"name\\",
            &[
                ("k\"ey", "v\\al\"\n\t\u{1}\u{1f}é".into()),
                ("plain", "x".into()),
            ],
        );
        // A duplicated label key: the map keeps the last of the sorted
        // pair ("b").
        let dup = r.counter(
            "dup",
            &[("k", "b".into()), ("k", "a".into()), ("a", "z".into())],
        );
        for t in 0..4u64 {
            r.add(c, 1 + t);
            r.set(g, u64::MAX - t);
            r.observe(h, 300 << t);
            r.add(esc, 1);
            r.add(dup, 2);
            r.sample_tick(t * 1_000);
        }
        assert!(r.metrics().iter().all(|m| m.ring.dropped() > 0));
        // Registered after the last tick: an empty ring.
        r.gauge("late", &[("z", String::new())]);
        assert!(r.metrics().last().unwrap().ring.is_empty());

        let mut other = Registry::new(TelemetryConfig::with(500, 8));
        let oc = other.counter("engine_events", &[("core", "1".into())]);
        other.add(oc, 9);
        other.sample_tick(0);
        other.sample_tick(700);

        let mut merged = Registry::default();
        merged.absorb(&r, &[("env", "native")]);
        merged.absorb(&other, &[("env", "vm\"2\"")]);
        // An extra label that collides with a metric's own key.
        merged.absorb(&other, &[("core", "9")]);

        for reg in [
            &r,
            &other,
            &merged,
            &Registry::default(),
            &Registry::new(TelemetryConfig::enabled()),
        ] {
            let streamed = timeseries_json(reg);
            assert_eq!(streamed, reference_timeseries_json(reg));
            ksa_json::parse(&streamed).expect("valid JSON");
        }
        let doc = timeseries_json(&r);
        assert!(
            doc.contains(r#""labels":{"a":"z","k":"b"},"name":"dup""#),
            "{doc}"
        );
        assert!(doc.contains(r#"\u0001\u001f"#), "{doc}");
    }

    #[test]
    fn timeseries_json_round_trips() {
        let doc = timeseries_json(&sample_registry());
        let v = ksa_json::parse(&doc).expect("valid JSON");
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 3);
        let ev = &series[0];
        assert_eq!(ev.get("name").unwrap().as_str().unwrap(), "engine_events");
        let samples = ev.get("samples").unwrap().as_array().unwrap();
        assert_eq!(samples.len(), 2, "two ticks sampled");
    }

    #[test]
    fn collapsed_and_speedscope_agree() {
        let frames: Vec<Frame> = vec![
            (vec!["Network".into(), "lock_wait".into()], 120),
            (vec!["Network".into(), "on_cpu".into()], 500),
            (vec!["Memory".into(), "on_cpu".into()], 0), // dropped
        ];
        let folded = collapsed(&frames);
        assert_eq!(folded, "Network;lock_wait 120\nNetwork;on_cpu 500\n");

        let doc = speedscope_json("taxonomy", &frames);
        let v = ksa_json::parse(&doc).expect("valid JSON");
        let prof = &v.get("profiles").unwrap().as_array().unwrap()[0];
        assert_eq!(prof.get("type").unwrap().as_str().unwrap(), "sampled");
        assert_eq!(prof.get("endValue").unwrap().as_u64().unwrap(), 620);
        let n_frames = v
            .get("shared")
            .unwrap()
            .get("frames")
            .unwrap()
            .as_array()
            .unwrap()
            .len();
        assert_eq!(n_frames, 3, "Network, lock_wait, on_cpu");
        for s in prof.get("samples").unwrap().as_array().unwrap() {
            for idx in s.as_array().unwrap() {
                assert!((idx.as_u64().unwrap() as usize) < n_frames);
            }
        }
    }
}
