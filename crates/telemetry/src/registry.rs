//! The metric registry: typed metrics, bounded time-series rings, and
//! coalesced sim-tick sampling.

use std::collections::BTreeMap;
use std::fmt;

use ksa_stats::Log2Histogram;

use crate::config::TelemetryConfig;
use crate::varint;

/// Simulated nanoseconds (kept local so the crate stays below
/// `ksa-desim` in the dependency graph).
pub type Ns = u64;

/// Handle to a registered metric. [`MetricId::NONE`] (returned by every
/// registration on a disabled registry) makes all updates no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

impl MetricId {
    /// The dangling id: updates through it are dropped.
    pub const NONE: MetricId = MetricId(u32::MAX);

    /// True for the dangling id.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count (events, nanoseconds, bytes).
    Counter,
    /// Instantaneous level (queue depth, free pages).
    Gauge,
    /// Log2-bucketed distribution; `value` carries the running sum.
    Histogram,
}

impl MetricKind {
    /// Prometheus exposition type name.
    pub fn prom(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A bounded `(sim_time, value)` ring with oldest-first eviction — the
/// same discipline as the trace rings: a full ring drops its oldest
/// sample and counts the eviction, and zero capacity drops everything.
///
/// Like `ksa_desim::TraceRing`, it holds its samples as bytes: each is
/// a zigzagged `(Δt, Δvalue)` pair of LEB128 varints (see [`varint`]),
/// relative to the sample before it and to `(0, 0)` for the first.
/// The deltas are signed because a gauge falls and an absorbed series
/// can start before the one it follows ends. A series steps by the
/// sample period and its value moves little, so a sample takes a few
/// bytes against 16 for a pair, and nothing is allocated until the
/// first push. Eviction skips the front sample, moves the decoding base
/// past it and compacts the buffer once the skipped prefix is more than
/// half of it. Equality compares capacity, drop count and the retained
/// samples, not the byte layout.
#[derive(Clone, Default)]
pub struct SeriesRing {
    cap: usize,
    len: usize,
    /// Encoded samples; the oldest retained one starts at `head`.
    bytes: Vec<u8>,
    head: usize,
    /// The sample before the one at `head`: the decoding base of the
    /// oldest retained sample.
    head_base: (Ns, u64),
    /// The newest sample: the encoding base of the next push.
    last: (Ns, u64),
    dropped: u64,
}

impl SeriesRing {
    /// An empty ring of capacity `cap`.
    pub fn new(cap: usize) -> Self {
        SeriesRing {
            cap,
            ..Self::default()
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, t: Ns, v: u64) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.len == self.cap {
            self.pop_front();
            self.dropped += 1;
        }
        let (t0, v0) = self.last;
        varint::put(&mut self.bytes, varint::zigzag(t.wrapping_sub(t0)));
        varint::put(&mut self.bytes, varint::zigzag(v.wrapping_sub(v0)));
        self.last = (t, v);
        self.len += 1;
    }

    /// Evicts the oldest retained sample, carrying the decoding base
    /// past it.
    fn pop_front(&mut self) {
        let mut d = self.decoder();
        d.next();
        (self.head, self.head_base) = (d.pos, d.base);
        self.len -= 1;
        if self.head > self.bytes.len() / 2 {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
    }

    /// A decoder positioned at the oldest retained sample.
    fn decoder(&self) -> SeriesDecoder<'_> {
        SeriesDecoder {
            bytes: &self.bytes,
            pos: self.head,
            base: self.head_base,
        }
    }

    /// Samples currently held, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = (Ns, u64)> + '_ {
        self.decoder()
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Samples evicted (ring was full) or discarded (zero capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Reads a ring's samples in order; `base` is the last sample read (or
/// the one before the start).
struct SeriesDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: (Ns, u64),
}

impl Iterator for SeriesDecoder<'_> {
    type Item = (Ns, u64);

    fn next(&mut self) -> Option<(Ns, u64)> {
        if self.pos == self.bytes.len() {
            return None;
        }
        let dt = varint::unzigzag(varint::get(self.bytes, &mut self.pos));
        let dv = varint::unzigzag(varint::get(self.bytes, &mut self.pos));
        self.base = (self.base.0.wrapping_add(dt), self.base.1.wrapping_add(dv));
        Some(self.base)
    }
}

impl PartialEq for SeriesRing {
    fn eq(&self, other: &Self) -> bool {
        self.cap == other.cap
            && self.dropped == other.dropped
            && self.len == other.len
            && self.samples().eq(other.samples())
    }
}

impl Eq for SeriesRing {}

impl fmt::Debug for SeriesRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeriesRing")
            .field("cap", &self.cap)
            .field("dropped", &self.dropped)
            .field("samples", &self.samples().collect::<Vec<_>>())
            .finish()
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`snake_case`, already namespaced: `engine_events`).
    pub name: String,
    /// Label set, sorted at registration for deterministic identity.
    pub labels: Vec<(String, String)>,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Current value (counter count, gauge level, histogram sum).
    pub value: u64,
    /// Distribution: `Some` exactly for histograms. Boxed, so a counter
    /// or gauge does not carry an unused 512-byte bucket array.
    pub hist: Option<Box<Log2Histogram>>,
    /// The sampled time series.
    pub ring: SeriesRing,
}

/// The metric registry. All operations are no-ops on a disabled
/// registry; the hot-path update methods are one branch in that case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    cfg: TelemetryConfig,
    metrics: Vec<Metric>,
    /// `(name, labels) -> index` — registration-time dedup so lazy
    /// registration and cross-registry absorption stay idempotent.
    index: BTreeMap<(String, Vec<(String, String)>), u32>,
    /// Next sim-time at which a ring sample is due.
    next_tick: Ns,
    /// Ring samples taken (coalesced ticks that actually fired).
    pub samples_taken: u64,
}

impl Registry {
    /// A registry under `cfg` (disabled configs yield the inert
    /// registry).
    pub fn new(cfg: TelemetryConfig) -> Self {
        Registry {
            cfg,
            ..Default::default()
        }
    }

    /// A permanently inert registry.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether updates are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    fn register(&mut self, name: &str, labels: &[(&str, String)], kind: MetricKind) -> MetricId {
        if !self.cfg.enabled {
            return MetricId::NONE;
        }
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        labels.sort();
        let key = (name.to_string(), labels.clone());
        if let Some(&i) = self.index.get(&key) {
            debug_assert_eq!(
                self.metrics[i as usize].kind, kind,
                "kind change for {name}"
            );
            return MetricId(i);
        }
        let i = u32::try_from(self.metrics.len()).expect("metric count fits u32");
        self.metrics.push(Metric {
            name: name.to_string(),
            labels,
            kind,
            value: 0,
            hist: (kind == MetricKind::Histogram).then(Box::default),
            ring: SeriesRing::new(self.cfg.ring_capacity),
        });
        self.index.insert(key, i);
        MetricId(i)
    }

    /// Registers (or finds) a counter.
    pub fn counter(&mut self, name: &str, labels: &[(&str, String)]) -> MetricId {
        self.register(name, labels, MetricKind::Counter)
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, String)]) -> MetricId {
        self.register(name, labels, MetricKind::Gauge)
    }

    /// Registers (or finds) a histogram.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, String)]) -> MetricId {
        self.register(name, labels, MetricKind::Histogram)
    }

    /// Increments a counter (no-op on [`MetricId::NONE`]).
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        if id.is_none() {
            return;
        }
        self.metrics[id.0 as usize].value += delta;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: MetricId, v: u64) {
        if id.is_none() {
            return;
        }
        self.metrics[id.0 as usize].value = v;
    }

    /// Raises a gauge to `v` if `v` exceeds it (peak tracking).
    #[inline]
    pub fn set_max(&mut self, id: MetricId, v: u64) {
        if id.is_none() {
            return;
        }
        let m = &mut self.metrics[id.0 as usize];
        if v > m.value {
            m.value = v;
        }
    }

    /// Records a histogram observation (sum accumulates in `value`).
    #[inline]
    pub fn observe(&mut self, id: MetricId, sample: u64) {
        if id.is_none() {
            return;
        }
        let m = &mut self.metrics[id.0 as usize];
        if let Some(hist) = &mut m.hist {
            hist.record(sample);
        }
        m.value += sample;
    }

    /// Whether a coalesced tick is due at sim-time `now`. Callers use
    /// this to skip expensive gauge reads entirely between ticks.
    #[inline]
    pub fn due(&self, now: Ns) -> bool {
        self.cfg.enabled && now >= self.next_tick
    }

    /// Takes one ring sample if a tick is due, then re-arms at the next
    /// period boundary after `now` (missed periods coalesce into this
    /// single sample).
    #[inline]
    pub fn sample_tick(&mut self, now: Ns) {
        if !self.due(now) {
            return;
        }
        self.force_sample(now);
        let period = self.cfg.sample_period.max(1);
        self.next_tick = (now / period + 1) * period;
    }

    /// Takes one ring sample unconditionally (end-of-run flush).
    pub fn force_sample(&mut self, now: Ns) {
        if !self.cfg.enabled {
            return;
        }
        for m in &mut self.metrics {
            m.ring.push(now, m.value);
        }
        self.samples_taken += 1;
    }

    /// All registered metrics, in registration order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Current value of the metric with exactly these labels.
    pub fn value_of(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.index
            .get(&(name.to_string(), want))
            .map(|&i| self.metrics[i as usize].value)
    }

    /// Sum of `value` across every label set of `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .sum()
    }

    /// FNV-1a digest over every metric's identity, value, distribution
    /// and sampled series — the replay/`--jobs` identity gate compares
    /// these.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let fold_bytes = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        let fold = |h: &mut u64, v: u64| {
            let bytes = v.to_le_bytes();
            for &b in &bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        for m in &self.metrics {
            fold_bytes(&mut h, m.name.as_bytes());
            for (k, v) in &m.labels {
                fold_bytes(&mut h, k.as_bytes());
                fold_bytes(&mut h, v.as_bytes());
            }
            fold(&mut h, m.value);
            if let Some(hist) = &m.hist {
                for &c in &hist.buckets {
                    fold(&mut h, c);
                }
            }
            for (t, v) in m.ring.samples() {
                fold(&mut h, t);
                fold(&mut h, v);
            }
            fold(&mut h, m.ring.dropped());
        }
        fold(&mut h, self.samples_taken);
        h
    }

    /// Merges `other`'s metrics into this registry, appending
    /// `extra` labels to each (e.g. `node="3"` when folding per-node
    /// registries into one cluster view). Colliding metrics combine by
    /// kind: counters and histogram sums add, gauges keep the max.
    /// Absorbing an enabled registry into a disabled one adopts the
    /// source configuration, so a fresh `Registry::default()` works as
    /// a merge accumulator.
    pub fn absorb(&mut self, other: &Registry, extra: &[(&str, &str)]) {
        if !other.cfg.enabled {
            return;
        }
        if !self.cfg.enabled {
            self.cfg = other.cfg;
        }
        self.samples_taken += other.samples_taken;
        for m in &other.metrics {
            let labels: Vec<(&str, String)> = m
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .chain(extra.iter().map(|&(k, v)| (k, v.to_string())))
                .collect();
            let id = self.register(&m.name, &labels, m.kind);
            let dst = &mut self.metrics[id.0 as usize];
            match m.kind {
                MetricKind::Counter | MetricKind::Histogram => dst.value += m.value,
                MetricKind::Gauge => dst.value = dst.value.max(m.value),
            }
            if let (Some(into), Some(from)) = (&mut dst.hist, &m.hist) {
                into.merge(from);
            }
            for (t, v) in m.ring.samples() {
                dst.ring.push(t, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let mut r = Registry::disabled();
        let c = r.counter("x", &[]);
        assert!(c.is_none());
        r.add(c, 5);
        r.set(c, 9);
        r.observe(c, 3);
        r.sample_tick(1_000_000);
        r.force_sample(2_000_000);
        assert!(r.metrics().is_empty());
        assert_eq!(r.samples_taken, 0);
        assert_eq!(r.digest(), Registry::disabled().digest());
    }

    #[test]
    fn counters_gauges_histograms() {
        let mut r = Registry::new(TelemetryConfig::enabled());
        let c = r.counter("events", &[("core", "0".into())]);
        let g = r.gauge("depth", &[]);
        let h = r.histogram("lat", &[]);
        r.add(c, 3);
        r.add(c, 4);
        r.set(g, 9);
        r.set_max(g, 5); // below: no change
        r.set_max(g, 12);
        r.observe(h, 100);
        r.observe(h, 200);
        assert_eq!(r.value_of("events", &[("core", "0")]), Some(7));
        assert_eq!(r.value_of("depth", &[]), Some(12));
        assert_eq!(r.value_of("lat", &[]), Some(300));
        assert_eq!(r.metrics()[2].hist.as_ref().map(|h| h.count()), Some(2));
        assert!(r.metrics()[..2].iter().all(|m| m.hist.is_none()));
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new(TelemetryConfig::enabled());
        let a = r.counter("x", &[("k", "v".into())]);
        let b = r.counter("x", &[("k", "v".into())]);
        assert_eq!(a, b);
        assert_eq!(r.metrics().len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = SeriesRing::new(2);
        ring.push(1, 10);
        ring.push(2, 20);
        ring.push(3, 30);
        assert_eq!(ring.samples().collect::<Vec<_>>(), vec![(2, 20), (3, 30)]);
        assert_eq!(ring.dropped(), 1);
        let mut zero = SeriesRing::new(0);
        zero.push(1, 1);
        assert!(zero.is_empty());
        assert_eq!(zero.dropped(), 1);
    }

    #[test]
    fn ticks_coalesce() {
        let mut r = Registry::new(TelemetryConfig::with(1_000, 16));
        let c = r.counter("n", &[]);
        r.add(c, 1);
        r.sample_tick(0); // due immediately (next_tick starts at 0)
        assert_eq!(r.samples_taken, 1);
        r.sample_tick(500); // within the period: no sample
        assert_eq!(r.samples_taken, 1);
        r.add(c, 1);
        r.sample_tick(10_500); // 10 periods skipped -> ONE coalesced sample
        assert_eq!(r.samples_taken, 2);
        let samples: Vec<_> = r.metrics()[0].ring.samples().collect();
        assert_eq!(samples, vec![(0, 1), (10_500, 2)]);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = Registry::new(TelemetryConfig::enabled());
        let c = a.counter("n", &[]);
        a.add(c, 1);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        let cb = b.counter("n", &[]);
        b.add(cb, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn absorb_merges_with_extra_labels() {
        let mut node0 = Registry::new(TelemetryConfig::enabled());
        let c0 = node0.counter("reqs", &[]);
        node0.add(c0, 5);
        let mut node1 = Registry::new(TelemetryConfig::enabled());
        let c1 = node1.counter("reqs", &[]);
        node1.add(c1, 7);

        let mut merged = Registry::default();
        merged.absorb(&node0, &[("node", "0")]);
        merged.absorb(&node1, &[("node", "1")]);
        assert!(merged.enabled());
        assert_eq!(merged.value_of("reqs", &[("node", "0")]), Some(5));
        assert_eq!(merged.value_of("reqs", &[("node", "1")]), Some(7));
        assert_eq!(merged.total("reqs"), 12);

        // Same-label absorption folds counters.
        let mut again = Registry::default();
        again.absorb(&node0, &[]);
        again.absorb(&node1, &[]);
        assert_eq!(again.value_of("reqs", &[]), Some(12));
    }
}
