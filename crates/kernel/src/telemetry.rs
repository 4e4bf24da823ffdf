//! Kernel-level telemetry: per-category syscall counters that mirror
//! [`AttributionTable`](crate::latency::AttributionTable) exactly, plus
//! subsystem gauges sampled on coalesced sim-time ticks.
//!
//! The counters use the same primary-category rule as the attribution
//! table (`no.categories().first()`, defaulting to process/sched), so a
//! run's `syscall_ns{category=…}` totals must equal the table's
//! per-category sums to the nanosecond — `ablate obs` gates on it.
//! Gauges (run-queue depth, NIC ring and softirq backlog, socket buffer
//! bytes, free/dirty/LRU pages, journal backlog, dentry count, spec-gated
//! footprint) are read from [`SubsysState`](crate::state::SubsysState) on
//! the registry's coalesced ticks; like everything in `ksa-telemetry`
//! they are purely observational and leave simulated results
//! bit-identical.

use ksa_desim::Ns;
use ksa_telemetry::{MetricId, Registry, TelemetryConfig};

use crate::category::Category;
use crate::instance::KernelInstance;
use crate::latency::{Attribution, AttributionTable};
use crate::syscalls::SysNo;

/// Folds an attribution table into flamegraph frames: one
/// `category;component` stack per non-zero cell of the per-category
/// 13-component latency taxonomy, weighted in nanoseconds. Feed the
/// result to [`ksa_telemetry::export::collapsed`] or
/// [`ksa_telemetry::export::speedscope_json`].
pub fn attribution_frames(table: &AttributionTable) -> Vec<ksa_telemetry::export::Frame> {
    let mut frames = Vec::new();
    for (cat, &(_calls, agg)) in table.by_category() {
        for (comp, ns) in Attribution::COMPONENTS.iter().zip(agg.values()) {
            if ns > 0 {
                frames.push((vec![cat.name().to_string(), comp.to_string()], ns));
            }
        }
    }
    frames
}

const N_CAT: usize = Category::ALL.len();

/// Cached ids for one syscall category's counters.
#[derive(Debug, Clone, Copy)]
struct CatIds {
    calls: MetricId,
    total_ns: MetricId,
    latency: MetricId,
}

impl CatIds {
    const NONE: CatIds = CatIds {
        calls: MetricId::NONE,
        total_ns: MetricId::NONE,
        latency: MetricId::NONE,
    };
}

/// Cached ids for one instance's subsystem gauges.
#[derive(Debug, Clone, Copy)]
struct InstIds {
    run_queue: MetricId,
    nic_ring: MetricId,
    nic_dropped: MetricId,
    sock_buffer_bytes: MetricId,
    free_pages: MetricId,
    dirty_pages: MetricId,
    lru_pages: MetricId,
    journal_dirty: MetricId,
    dentries: MetricId,
    syscalls: MetricId,
    locks_allocated: MetricId,
    daemons_spawned: MetricId,
}

/// Cached ids for one tenant's request-level series (tailbench).
#[derive(Debug, Clone, Copy)]
struct TenantIds {
    requests: MetricId,
    sojourn_ns: MetricId,
    queue_ns: MetricId,
    sojourn_hist: MetricId,
}

/// The kernel world's metrics facade: a [`Registry`] plus cached metric
/// ids so the syscall hot path never does a name lookup.
#[derive(Debug, Clone, Default)]
pub struct KernelTelemetry {
    reg: Registry,
    cats: [CatIds; N_CAT],
    insts: Vec<InstIds>,
    tenants: Vec<TenantIds>,
}

impl Default for CatIds {
    fn default() -> Self {
        CatIds::NONE
    }
}

impl KernelTelemetry {
    /// Creates the facade; with `cfg` disabled every call is a
    /// single-branch no-op.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let mut reg = Registry::new(cfg);
        let mut cats = [CatIds::NONE; N_CAT];
        if cfg.enabled {
            for cat in Category::ALL {
                let label = [("category", cat.name().to_string())];
                cats[cat.index()] = CatIds {
                    calls: reg.counter("syscall_calls", &label),
                    total_ns: reg.counter("syscall_ns", &label),
                    latency: reg.histogram("syscall_latency_ns", &label),
                };
            }
        }
        KernelTelemetry {
            reg,
            cats,
            insts: Vec::new(),
            tenants: Vec::new(),
        }
    }

    /// A disabled (inert) facade.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether updates are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.reg.enabled()
    }

    /// The underlying registry (for export).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Refreshes every gauge, flushes a final ring sample at `now`, and
    /// takes the registry, leaving the facade disabled.
    pub fn finish(&mut self, now: Ns, instances: &[KernelInstance]) -> Registry {
        if self.reg.enabled() {
            self.sample(now, instances);
        }
        self.insts.clear();
        self.tenants.clear();
        self.cats = [CatIds::NONE; N_CAT];
        std::mem::take(&mut self.reg)
    }

    /// The primary category of a syscall — the exact rule
    /// [`AttributionTable::record`](crate::latency::AttributionTable::record)
    /// uses, so telemetry sums match the table.
    pub fn primary_category(no: SysNo) -> Category {
        no.categories()
            .first()
            .copied()
            .unwrap_or(Category::ProcessSched)
    }

    /// Records one completed syscall's attribution under its primary
    /// category.
    #[inline]
    pub fn observe_call(&mut self, no: SysNo, attrib: &Attribution) {
        if !self.reg.enabled() {
            return;
        }
        let ids = self.cats[Self::primary_category(no).index()];
        self.reg.add(ids.calls, 1);
        self.reg.add(ids.total_ns, attrib.total);
        self.reg.observe(ids.latency, attrib.total);
    }

    /// Records one completed request for `tenant` (tailbench server
    /// loops). Tenant ids index a lazily-grown label set.
    pub fn observe_request(&mut self, tenant: usize, sojourn: Ns, queue_ns: Ns) {
        if !self.reg.enabled() {
            return;
        }
        while self.tenants.len() <= tenant {
            let label = [("tenant", self.tenants.len().to_string())];
            let ids = TenantIds {
                requests: self.reg.counter("tenant_requests", &label),
                sojourn_ns: self.reg.counter("tenant_sojourn_ns", &label),
                queue_ns: self.reg.counter("tenant_queue_ns", &label),
                sojourn_hist: self.reg.histogram("tenant_sojourn_hist_ns", &label),
            };
            self.tenants.push(ids);
        }
        let ids = self.tenants[tenant];
        self.reg.add(ids.requests, 1);
        self.reg.add(ids.sojourn_ns, sojourn);
        self.reg.add(ids.queue_ns, queue_ns);
        self.reg.observe(ids.sojourn_hist, sojourn);
    }

    /// Whether the coalesced sample tick is due at `now`.
    #[inline]
    pub fn due(&self, now: Ns) -> bool {
        self.reg.due(now)
    }

    /// Reads every instance's subsystem gauges and takes a ring sample.
    /// Call when [`due`](Self::due) says so — gauge reads between ticks
    /// would be wasted work (their values are only persisted at ticks).
    pub fn sample(&mut self, now: Ns, instances: &[KernelInstance]) {
        if !self.reg.enabled() {
            return;
        }
        while self.insts.len() < instances.len() {
            let label = [("instance", self.insts.len().to_string())];
            let reg = &mut self.reg;
            let ids = InstIds {
                run_queue: reg.gauge("kernel_run_queue_depth", &label),
                nic_ring: reg.gauge("kernel_nic_ring_occupancy", &label),
                nic_dropped: reg.gauge("kernel_nic_dropped", &label),
                sock_buffer_bytes: reg.gauge("kernel_sock_buffer_bytes", &label),
                free_pages: reg.gauge("kernel_free_pages", &label),
                dirty_pages: reg.gauge("kernel_dirty_pages", &label),
                lru_pages: reg.gauge("kernel_lru_pages", &label),
                journal_dirty: reg.gauge("kernel_journal_dirty_blocks", &label),
                dentries: reg.gauge("kernel_dentries", &label),
                syscalls: reg.gauge("kernel_syscalls_dispatched", &label),
                locks_allocated: reg.gauge("kernel_locks_allocated", &label),
                daemons_spawned: reg.gauge("kernel_daemons_spawned", &label),
            };
            self.insts.push(ids);
        }
        for (inst, ids) in instances.iter().zip(self.insts.iter()) {
            let s = &inst.state;
            let rq: u64 = s.sched.rq_len.iter().map(|&n| n as u64).sum();
            self.reg.set(ids.run_queue, rq);
            self.reg.set(ids.nic_ring, s.net.nic.pending_total());
            self.reg.set(ids.nic_dropped, s.net.nic.dropped);
            self.reg.set(ids.sock_buffer_bytes, s.net.buffered_bytes());
            self.reg.set(ids.free_pages, s.mm.free_pages);
            self.reg.set(ids.dirty_pages, s.mm.dirty_pages);
            self.reg.set(ids.lru_pages, s.mm.lru_pages);
            self.reg.set(ids.journal_dirty, s.fs.journal_dirty);
            self.reg.set(ids.dentries, s.fs.dentries);
            self.reg.set(ids.syscalls, inst.syscalls);
            self.reg
                .set(ids.locks_allocated, inst.locks_allocated as u64);
            self.reg
                .set(ids.daemons_spawned, inst.daemons_spawned as u64);
        }
        self.reg.sample_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_facade_is_inert() {
        let mut t = KernelTelemetry::disabled();
        assert!(!t.enabled());
        t.observe_call(SysNo::Getpid, &Attribution::default());
        t.observe_request(3, 100, 10);
        t.sample(1_000, &[]);
        assert_eq!(t.registry().metrics().len(), 0);
        assert_eq!(t.registry().digest(), Registry::disabled().digest());
    }

    #[test]
    fn category_counters_mirror_the_attribution_rule() {
        let mut t = KernelTelemetry::new(TelemetryConfig::enabled());
        let a = Attribution {
            total: 700,
            on_cpu: 700,
            ..Default::default()
        };
        t.observe_call(SysNo::Getpid, &a);
        t.observe_call(SysNo::Getpid, &a);
        let cat = KernelTelemetry::primary_category(SysNo::Getpid).name();
        let label = [("category", cat)];
        assert_eq!(t.registry().value_of("syscall_calls", &label), Some(2));
        assert_eq!(t.registry().value_of("syscall_ns", &label), Some(1_400));
        assert_eq!(t.registry().total("syscall_ns"), 1_400);
    }

    #[test]
    fn tenant_series_grow_on_demand() {
        let mut t = KernelTelemetry::new(TelemetryConfig::enabled());
        t.observe_request(2, 900, 100);
        t.observe_request(0, 400, 0);
        let l2 = [("tenant", "2")];
        assert_eq!(t.registry().value_of("tenant_requests", &l2), Some(1));
        assert_eq!(t.registry().value_of("tenant_sojourn_ns", &l2), Some(900));
        assert_eq!(t.registry().total("tenant_requests"), 2);
    }

    #[test]
    fn finish_flushes_and_resets() {
        let mut t = KernelTelemetry::new(TelemetryConfig::enabled());
        t.observe_call(SysNo::Getpid, &Attribution::default());
        let reg = t.finish(5_000, &[]);
        assert!(reg.samples_taken >= 1);
        assert!(!t.enabled(), "facade is inert after finish");
    }
}
