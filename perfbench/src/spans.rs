//! In-memory span recorder for the traced pass.
//!
//! A span brackets one call from the benchmark into a simulator layer:
//! name, start, end, parent span and trial id (plus an optional numeric
//! tag, e.g. a churn density). Spans stay in memory and are written out
//! once at exit. A layer's self time is its span's duration minus the
//! time its child spans cover.
//!
//! A disabled recorder ignores every call after one branch, so the
//! untraced pass runs the same benchmark code without recording.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trial: u64,
    pub tag: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u64,
}

/// Records spans when enabled; `&self` methods so a span can be closed
/// from inside a callback the simulator invokes (the `run_hooked` hook).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new trial: later spans carry `trial`.
    pub fn begin_trial(&self, trial: u64) {
        if self.on {
            self.inner.borrow_mut().trial = trial;
        }
    }

    /// Ends a trial, closing every span it left open (a panicking
    /// trial unwinds past its `exit` calls).
    pub fn end_trial(&self) {
        while self.on && !self.inner.borrow().open.is_empty() {
            self.exit();
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str, tag: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let trial = inner.trial;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trial,
            tag,
        });
        let idx = inner.spans.len() - 1;
        inner.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let mut inner = self.inner.borrow_mut();
        if let Some(idx) = inner.open.pop() {
            inner.spans[idx].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_tagged(name, 0, f)
    }

    /// Runs `f` inside a span carrying `tag`.
    pub fn span_tagged<R>(&self, name: &'static str, tag: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, tag);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans (closed ones only; call after the last trial).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name into total and self time.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(*child);
    }
    out
}

/// Total duration of spans named `name` with tag `tag`.
pub fn tagged_ns(spans: &[Span], name: &str, tag: u64) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.tag == tag)
        .map(Span::dur_ns)
        .sum()
}

/// Share of the root spans' (`root`) time covered by their direct
/// children — how much of a trial the layer spans account for.
pub fn child_coverage(spans: &[Span], root: &str) -> f64 {
    let mut root_ns = 0u64;
    let mut covered = 0u64;
    for s in spans {
        match s.parent {
            None if s.name == root => root_ns += s.dur_ns(),
            Some(p) if spans[p].name == root && spans[p].parent.is_none() => covered += s.dur_ns(),
            _ => {}
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        covered as f64 / root_ns as f64
    }
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trial\":{},\"tag\":{}}}\n",
            s.name, s.start_ns, s.end_ns, parent, s.trial, s.tag
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trial: 0,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("trial", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["trial"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 40);
        assert_eq!(t["b"].self_ns, 10);
        assert!((child_coverage(&spans, "trial") - 0.7).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.begin_trial(3);
        t.span("x", || t.span("y", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trial, 3);
    }
}
