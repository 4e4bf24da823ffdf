//! Trace and attribution exporters.
//!
//! Two machine-readable views of a traced run:
//!
//! * [`write_chrome_trace`] streams a [`TraceLog`] to any `io::Write`
//!   in the Chrome trace-event format (the `chrome://tracing` /
//!   Perfetto JSON schema): one instant event per trace record, with
//!   the core as the `pid` lane, the simulated process as the `tid`,
//!   microsecond `ts` as the format requires, and the exact nanosecond
//!   payloads preserved losslessly in `args` (ksa-json keeps `u64`
//!   integers intact). The `--trace-out` writers hand it a
//!   `BufWriter<File>`; [`chrome_trace_json`] returns the same bytes as
//!   a `String`.
//! * [`attribution_json`] renders an [`AttributionTable`] as a summary
//!   object — grand total, per-syscall and per-category decompositions
//!   and per-label lock waits — for scripted comparison across
//!   environments, as a `String`.

use std::io::{self, Write};

use ksa_desim::{TraceArg, TraceEvent, TraceLog};
use ksa_json::{put_str, put_u64, Value};
use ksa_kernel::{Attribution, AttributionTable};

/// Appends `t` ns as the microseconds `format!("{:?}", t as f64 / 1000.0)`
/// prints (`Value::Float` renders floats that way). Below 2^43 ns the
/// quotient has at most 13 significant digits, so it is the shortest
/// decimal that round-trips and comes straight from the integer: whole
/// µs, a point, then the ns remainder without trailing zeros (`.0` when
/// there is none).
fn put_ts(out: &mut Vec<u8>, t: u64) {
    if t >= 1 << 43 {
        write!(out, "{:?}", t as f64 / 1000.0).expect("writing to a Vec cannot fail");
        return;
    }
    put_u64(out, t / 1000);
    out.push(b'.');
    let frac = t % 1000;
    let digits = [
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ];
    let len = if frac.is_multiple_of(100) {
        1
    } else if frac.is_multiple_of(10) {
        2
    } else {
        3
    };
    out.extend_from_slice(&digits[..len]);
}

/// Appends one event: its `args` object (exact ns values as JSON
/// integers), name, phase, lanes and `ts`. Keys go in sorted order, so
/// the bytes equal a rendered `Value::Object`, whose `BTreeMap` sorts
/// keys: the event's own arguments arrive sorted from
/// [`TraceLog::for_each_arg`], and `ts_ns` is slotted in at its place
/// among them. Keys and kind names are plain identifiers, written
/// without escaping.
fn put_event(out: &mut Vec<u8>, trace: &TraceLog, ev: &TraceEvent) {
    const TS: &str = "ts_ns";
    out.extend_from_slice(br#"{"args":"#);
    let mut sep = b'{';
    let mut ts_pending = true;
    let mut field = |out: &mut Vec<u8>, key: &str, val: TraceArg<'_>| {
        out.push(sep);
        sep = b',';
        out.push(b'"');
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(b"\":");
        match val {
            TraceArg::U(u) => put_u64(out, u),
            TraceArg::B(b) => out.extend_from_slice(if b { b"true" } else { b"false" }),
            TraceArg::S(s) => put_str(out, s),
        }
    };
    trace.for_each_arg(&ev.kind, |key, val| {
        if ts_pending && key > TS {
            field(out, TS, TraceArg::U(ev.t));
            ts_pending = false;
        }
        field(out, key, val);
    });
    if ts_pending {
        field(out, TS, TraceArg::U(ev.t));
    }
    out.extend_from_slice(br#"},"name":""#);
    out.extend_from_slice(ev.kind.name().as_bytes());
    out.extend_from_slice(br#"","ph":"i","pid":"#);
    put_u64(out, ev.core.index() as u64);
    out.extend_from_slice(br#","s":"t","tid":"#);
    put_u64(out, ev.pid.index() as u64);
    // Chrome's ts unit is µs; sub-µs precision rides in the fractional
    // part.
    out.extend_from_slice(br#","ts":"#);
    put_ts(out, ev.t);
    out.push(b'}');
}

/// Streams a trace to `w` as Chrome trace-event JSON (loadable in
/// Perfetto / `chrome://tracing`). Events are instants on a
/// `(core, process)` lane in [`TraceLog::for_each_merged`] order; `ts`
/// is microseconds as the format demands, while `args.ts_ns` keeps the
/// exact virtual nanosecond.
///
/// A full-scale run holds ~500k events, so nothing is held but the
/// rings: each event is written into one reused buffer with no `Value`,
/// no `fmt` and no heap allocation, and handed to `w` (wrap a file in a
/// `BufWriter`). Keys go in the order a rendered `Value` tree sorts
/// them, so the bytes equal the tree renderer's, which the tests keep
/// as the reference.
pub fn write_chrome_trace(w: &mut impl Write, trace: &TraceLog) -> io::Result<()> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(br#"{"displayTimeUnit":"ns","otherData":{"dropped_events":"#);
    put_u64(&mut buf, trace.total_dropped());
    buf.extend_from_slice(br#","retained_events":"#);
    put_u64(&mut buf, trace.total_events() as u64);
    buf.extend_from_slice(br#"},"traceEvents":["#);
    let mut res = w.write_all(&buf);
    let mut first = true;
    trace.for_each_merged(|ev| {
        if res.is_err() {
            return;
        }
        buf.clear();
        if !first {
            buf.push(b',');
        }
        first = false;
        put_event(&mut buf, trace, ev);
        res = w.write_all(&buf);
    });
    res?;
    w.write_all(b"]}")
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace_json(trace: &TraceLog) -> String {
    // ~115 bytes per event on the default corpus; reserving up front
    // spares the doubling copies of a 50 MB document.
    let mut out = Vec::with_capacity(128 * (trace.total_events() + 1));
    write_chrome_trace(&mut out, trace).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// One attribution as a JSON object (`total_ns` plus every component).
fn attribution_value(calls: u64, a: &Attribution) -> Value {
    let mut fields: Vec<(&'static str, Value)> = vec![
        ("calls", Value::from(calls)),
        ("total_ns", Value::from(a.total)),
    ];
    for (name, v) in Attribution::COMPONENTS.iter().zip(a.values()) {
        fields.push((name, Value::from(v)));
    }
    Value::object(fields)
}

/// Renders an attribution table as a machine-readable summary.
pub fn attribution_json(table: &AttributionTable) -> String {
    let grand = table.grand_total();
    Value::object([
        ("calls", Value::from(table.calls())),
        ("grand_total", attribution_value(table.calls(), &grand)),
        (
            "by_sysno",
            Value::object(
                table
                    .by_sysno()
                    .map(|(no, (calls, a))| (no.name(), attribution_value(*calls, a))),
            ),
        ),
        (
            "by_category",
            Value::object(
                table
                    .by_category()
                    .map(|(cat, (calls, a))| (cat.name(), attribution_value(*calls, a))),
            ),
        ),
        (
            "lock_wait_ns_by_label",
            Value::object(
                table
                    .lock_wait_by_label
                    .iter()
                    .map(|(label, ns)| (*label, Value::from(*ns))),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_desim::{
        CoreId, FaultInjectedArgs, LabelId, LockId, Ns, Pid, TraceEventKind, TraceRing, WakeReason,
    };

    /// One event's `args` as the reference renderer builds them.
    fn reference_event_args(trace: &TraceLog, ev: &TraceEvent) -> Value {
        let mut args: Vec<(&'static str, Value)> = vec![("ts_ns", Value::from(ev.t))];
        match &ev.kind {
            TraceEventKind::Wake { reason } => args.push(("reason", Value::from(reason.tag()))),
            TraceEventKind::Block { comp } => args.push(("comp", Value::from(comp.name()))),
            TraceEventKind::LockContend { lock } => {
                args.push(("lock", Value::from(lock.index())));
                args.push(("label", Value::from(trace.lock_label(*lock))));
            }
            TraceEventKind::LockAcquired {
                lock,
                wait_ns,
                contended,
            } => {
                args.push(("lock", Value::from(lock.index())));
                args.push(("label", Value::from(trace.lock_label(*lock))));
                args.push(("wait_ns", Value::from(*wait_ns)));
                args.push(("contended", Value::from(*contended)));
            }
            TraceEventKind::LockReleased { lock, held_ns } => {
                args.push(("lock", Value::from(lock.index())));
                args.push(("label", Value::from(trace.lock_label(*lock))));
                args.push(("held_ns", Value::from(*held_ns)));
            }
            TraceEventKind::RcuSync { dur_ns } => args.push(("dur_ns", Value::from(*dur_ns))),
            TraceEventKind::IpiBroadcast {
                targets,
                handler_ns,
            } => {
                args.push(("targets", Value::from(*targets)));
                args.push(("handler_ns", Value::from(*handler_ns)));
            }
            TraceEventKind::IoSubmit { bytes, dur_ns } => {
                args.push(("bytes", Value::from(*bytes)));
                args.push(("dur_ns", Value::from(*dur_ns)));
            }
            TraceEventKind::TimerTicks { n, cost_ns } => {
                args.push(("ticks", Value::from(*n)));
                args.push(("cost_ns", Value::from(*cost_ns)));
            }
            TraceEventKind::FaultInjected(fault) => {
                args.push(("fault", Value::from(fault.kind.name())));
                args.push(("site", Value::str(fault.site)));
            }
            TraceEventKind::Syscall { no, enter } => {
                args.push(("no", Value::from(u64::from(*no))));
                args.push(("enter", Value::from(*enter)));
            }
            TraceEventKind::VmExit { kind, cost_ns } => {
                args.push(("kind", Value::from(trace.label(*kind))));
                args.push(("cost_ns", Value::from(*cost_ns)));
            }
            TraceEventKind::Mark(m) => {
                args.push(("label", Value::from(m.label)));
                args.push(("a", Value::from(m.a)));
                args.push(("b", Value::from(m.b)));
            }
        }
        Value::object(args)
    }

    /// The `Value`-tree renderer the streaming writer replaced: the
    /// byte-for-byte reference for [`chrome_trace_json`].
    fn reference_chrome_trace_json(trace: &TraceLog) -> String {
        let events = trace.merged().into_iter().map(|ev| {
            Value::object([
                ("name", Value::from(ev.kind.name())),
                ("ph", Value::from("i")),
                ("s", Value::from("t")),
                ("pid", Value::from(ev.core.index())),
                ("tid", Value::from(ev.pid.index())),
                // Chrome's ts unit is µs; sub-µs precision rides in the
                // fractional part.
                ("ts", Value::from(ev.t as f64 / 1000.0)),
                ("args", reference_event_args(trace, &ev)),
            ])
        });
        Value::object([
            ("displayTimeUnit", Value::from("ns")),
            ("traceEvents", Value::array(events)),
            (
                "otherData",
                Value::object([
                    ("dropped_events", Value::from(trace.total_dropped())),
                    ("retained_events", Value::from(trace.total_events())),
                ]),
            ),
        ])
        .render()
    }

    /// Lock labels by `LockId`, as `Engine::take_trace` copies them.
    const LOCK_LABELS: [&str; 4] = ["journal", "mmap_sem", "zone", "journal"];

    fn log_with(events: Vec<(Ns, TraceEventKind)>) -> TraceLog {
        let mut ring = TraceRing::new(events.len().max(1));
        for (i, (t, kind)) in events.into_iter().enumerate() {
            ring.push(TraceEvent {
                t,
                pid: Pid(i as u32),
                core: CoreId(0),
                kind,
            });
        }
        TraceLog {
            enabled: true,
            rings: vec![ring],
            lock_labels: LOCK_LABELS.to_vec(),
            labels: Vec::new(),
        }
    }

    /// One event of every kind, with `u64::MAX` payloads where the kind
    /// carries any, a lock outside the label table, a fault site that
    /// needs every escape, and times covering whole, fractional and
    /// beyond-2^53 microseconds. `io_kick` is the log's `LabelId(0)`.
    fn every_kind(t: Ns) -> Vec<TraceEventKind> {
        let max = u64::MAX;
        vec![
            TraceEventKind::Wake {
                reason: WakeReason::LockGranted(LockId(3)),
            },
            TraceEventKind::Block {
                comp: ksa_desim::LatComp::IoWait,
            },
            TraceEventKind::LockContend {
                lock: LockId(u32::MAX),
            },
            TraceEventKind::LockContend { lock: LockId(1) },
            TraceEventKind::LockAcquired {
                lock: LockId(3),
                wait_ns: max,
                contended: true,
            },
            TraceEventKind::LockReleased {
                lock: LockId(0),
                held_ns: max,
            },
            TraceEventKind::RcuSync { dur_ns: max },
            TraceEventKind::IpiBroadcast {
                targets: u32::MAX,
                handler_ns: max,
            },
            TraceEventKind::IoSubmit {
                bytes: max,
                dur_ns: t,
            },
            TraceEventKind::TimerTicks { n: max, cost_ns: 0 },
            TraceEventKind::FaultInjected(Box::new(FaultInjectedArgs {
                kind: ksa_desim::FaultKind::IoError,
                site: "io:\"q\\d\"\n\t\u{1}é😀",
            })),
            TraceEventKind::Syscall {
                no: u16::MAX,
                enter: false,
            },
            TraceEventKind::VmExit {
                kind: LabelId(0),
                cost_ns: max,
            },
            TraceEventKind::mark("m", max, t),
        ]
    }

    #[test]
    fn streamed_trace_matches_the_value_tree_renderer() {
        // Fractional, whole (`2.0`, not `2`) and exponent-form (`1.8e16`)
        // microseconds: `ts` must render as `{:?}` does.
        let times: [Ns; 6] = [(1 << 60) + 12_345, 1, 1_500, 1_500, 2_000, u64::MAX];
        let mut rings = vec![
            TraceRing::new(10),
            TraceRing::new(1_000),
            TraceRing::new(1_000),
        ];
        for (core, ring) in rings.iter_mut().enumerate() {
            for (i, &t) in times.iter().enumerate() {
                for (k, kind) in every_kind(t).into_iter().enumerate() {
                    // Several cores and pids share each timestamp.
                    ring.push(TraceEvent {
                        t,
                        pid: Pid(if k % 2 == 0 {
                            u32::MAX
                        } else {
                            (core + i) as u32
                        }),
                        core: CoreId(core as u32),
                        kind,
                    });
                }
            }
        }
        let mut log = TraceLog {
            enabled: true,
            rings,
            lock_labels: LOCK_LABELS.to_vec(),
            labels: Vec::new(),
        };
        assert_eq!(log.intern("io_kick"), LabelId(0));
        assert!(log.total_dropped() > 0, "core 0's ring must overflow");
        let kinds: std::collections::BTreeSet<_> =
            log.merged().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds.len(), 13, "every kind survives into the export");

        let streamed = chrome_trace_json(&log);
        assert_eq!(streamed, reference_chrome_trace_json(&log));
        for ts in ["0.001", "1.5", "2.0", "1.844674407370955e16"] {
            assert!(streamed.contains(&format!(r#""ts":{ts}}}"#)), "ts {ts}");
        }
        // Labels resolve through the log's tables; an id outside them
        // renders as "?".
        for args in [
            r#"{"label":"?","lock":4294967295,"#,
            r#"{"label":"mmap_sem","lock":1,"#,
            r#"{"contended":true,"label":"journal","lock":3,"#,
            r#"{"cost_ns":18446744073709551615,"kind":"io_kick","#,
            r#"{"reason":"lock","#,
        ] {
            assert!(streamed.contains(args), "{args}");
        }
        for log in [
            TraceLog::default(),
            TraceLog {
                enabled: true,
                rings: vec![TraceRing::new(4), TraceRing::new(0)],
                ..TraceLog::default()
            },
        ] {
            assert_eq!(chrome_trace_json(&log), reference_chrome_trace_json(&log));
        }
    }

    #[test]
    fn integer_ts_matches_the_float_debug_format() {
        let fixed = [
            0,
            1,
            999,
            1000,
            1001,
            (1 << 43) - 1,
            1 << 43,
            1 << 53,
            u64::MAX,
        ];
        // A seeded splitmix64 sample below 2^43: uniform, small, and
        // whole or round microseconds (the `.0`, `.01` and `.1` forms).
        let mut state = 43u64;
        let sampled = (0..100_000u64).map(|i| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            match i % 3 {
                0 => z % (1 << 43),
                1 => z % 1_000_000,
                _ => z % (1 << 30) * 1000 + [0, 10, 100, 120][(i / 3 % 4) as usize],
            }
        });
        for t in fixed.into_iter().chain(sampled) {
            let mut out = Vec::new();
            put_ts(&mut out, t);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("{:?}", t as f64 / 1000.0),
                "t = {t}"
            );
        }
    }

    #[test]
    fn streamed_writer_equals_the_string_wrapper() {
        let mut log = log_with(
            [1, 1_500, 2_000, 1 << 50]
                .into_iter()
                .flat_map(|t| every_kind(t).into_iter().map(move |k| (t, k)))
                .collect(),
        );
        log.intern("io_kick");
        let mut streamed = Vec::new();
        write_chrome_trace(&mut streamed, &log).unwrap();
        assert_eq!(streamed, chrome_trace_json(&log).into_bytes());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_event_array() {
        let log = log_with(vec![
            (
                1_500,
                TraceEventKind::LockAcquired {
                    lock: LockId(3),
                    wait_ns: 250,
                    contended: true,
                },
            ),
            (
                2_000,
                TraceEventKind::Wake {
                    reason: WakeReason::LockGranted(LockId(3)),
                },
            ),
        ]);
        let v = ksa_json::parse(&chrome_trace_json(&log)).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0].get("name").unwrap().as_str().unwrap(),
            "lock_acquired"
        );
        assert_eq!(evs[0].get("ph").unwrap().as_str().unwrap(), "i");
        // 1500 ns = 1.5 µs.
        assert!((evs[0].get("ts").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-12);
        let args = evs[0].get("args").unwrap();
        assert_eq!(args.get("label").unwrap().as_str().unwrap(), "journal");
        assert_eq!(args.get("wait_ns").unwrap().as_u64().unwrap(), 250);
        assert!(args.get("contended").unwrap().as_bool().unwrap());
    }

    #[test]
    fn large_u64_timestamps_roundtrip_exactly() {
        // Beyond 2^53: lost by f64, preserved by ksa-json's UInt path.
        let t: Ns = (1u64 << 60) + 12345;
        let log = log_with(vec![(t, TraceEventKind::mark("m", u64::MAX, 7))]);
        let v = ksa_json::parse(&chrome_trace_json(&log)).unwrap();
        let args = v.get("traceEvents").unwrap().as_array().unwrap()[0]
            .get("args")
            .unwrap()
            .clone();
        assert_eq!(args.get("ts_ns").unwrap().as_u64().unwrap(), t);
        assert_eq!(args.get("a").unwrap().as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn fault_sites_with_special_characters_are_escaped() {
        let log = log_with(vec![(
            10,
            TraceEventKind::FaultInjected(Box::new(FaultInjectedArgs {
                kind: ksa_desim::FaultKind::AllocFail,
                site: "mmap:\"zone\\lru\"\n",
            })),
        )]);
        let rendered = chrome_trace_json(&log);
        let v = ksa_json::parse(&rendered).unwrap();
        let args = v.get("traceEvents").unwrap().as_array().unwrap()[0]
            .get("args")
            .unwrap()
            .clone();
        assert_eq!(
            args.get("site").unwrap().as_str().unwrap(),
            "mmap:\"zone\\lru\"\n",
            "quotes, backslashes and newlines must survive the roundtrip"
        );
    }

    #[test]
    fn attribution_json_nests_components_by_sysno_and_category() {
        use ksa_desim::{LatBreakdown, LatComp, LatSnapshot};
        use ksa_kernel::SysNo;
        let mut table = AttributionTable::default();
        let before = LatSnapshot::default();
        let mut comps = LatBreakdown::default();
        comps.add(LatComp::OnCpu, 700);
        comps.add(LatComp::LockWait, 300);
        let after = LatSnapshot {
            comps,
            lock_waits: vec![("journal", 300)],
        };
        table.record(SysNo::Fsync, &before, &after, 100);
        let v = ksa_json::parse(&attribution_json(&table)).unwrap();
        assert_eq!(v.get("calls").unwrap().as_u64().unwrap(), 1);
        let fsync = v.get("by_sysno").unwrap().get("fsync").unwrap().clone();
        assert_eq!(fsync.get("total_ns").unwrap().as_u64().unwrap(), 1000);
        assert_eq!(fsync.get("on_cpu").unwrap().as_u64().unwrap(), 600);
        assert_eq!(fsync.get("vm_exit").unwrap().as_u64().unwrap(), 100);
        assert_eq!(fsync.get("lock_wait").unwrap().as_u64().unwrap(), 300);
        let labels = v.get("lock_wait_ns_by_label").unwrap();
        assert_eq!(labels.get("journal").unwrap().as_u64().unwrap(), 300);
        assert!(v.get("by_category").unwrap().get("file I/O").is_ok());
    }
}
