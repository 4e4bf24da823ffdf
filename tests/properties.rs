//! Cross-crate property-based tests: invariants of the generator, the
//! engine and the statistics layer under random inputs.
//!
//! Cases are driven by a seeded [`SmallRng`] loop rather than a property
//! testing framework (the build environment is offline), so every failure
//! is reproducible from the printed case seed.

use ksa_core::desim::{CoreConfig, Effect, Engine, EngineParams, Process, SimCtx, WakeReason};
use ksa_core::kernel::coverage::CoverageSet;
use ksa_core::kernel::dispatch::dispatch_simple;
use ksa_core::kernel::instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
use ksa_core::kernel::params::CostModel;
use ksa_core::kernel::spec::SpecMask;
use ksa_core::kernel::SysNo;
use ksa_core::stats::{quantile_sorted, BucketRow, Samples};
use ksa_core::syzgen::{mutate, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Stable per-test base seed from the test name (FNV-1a).
fn base_seed(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Runs `f` once per case with a distinct, stable seed.
fn for_each_case(test: &str, f: impl Fn(u64, &mut SmallRng)) {
    for case in 0..CASES {
        let seed = base_seed(test) ^ case.wrapping_mul(0x9e3779b97f4a7c15);
        let mut rng = SmallRng::seed_from_u64(seed);
        f(seed, &mut rng);
    }
}

/// Any argument vector to any syscall compiles to a lock-balanced op
/// sequence (the fuzzer feeds the kernel arbitrary input).
#[test]
fn dispatch_never_unbalances_locks() {
    for_each_case("dispatch_never_unbalances_locks", |seed, rng| {
        let call_idx = rng.gen_range(0..SysNo::ALL.len());
        let n_args = rng.gen_range(0usize..5);
        let args: Vec<u64> = (0..n_args).map(|_| rng.gen::<u64>()).collect();

        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(ksa_core::desim::DeviceModel::nvme_ssd());
        let cores = vec![eng.add_core(CoreConfig::default())];
        let mut inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores,
                mem_mib: 128,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        let mut call_rng = SmallRng::seed_from_u64(seed);
        let seq = dispatch_simple(&mut inst, 0, SysNo::ALL[call_idx], &args, &mut call_rng);
        assert!(seq.locks_balanced(), "seed {seed:#x} unbalanced locks");
    });
}

/// Generator output and all mutants keep resource references valid.
#[test]
fn generated_programs_and_mutants_stay_valid() {
    for_each_case("generated_programs_and_mutants_stay_valid", |seed, rng| {
        let steps = rng.gen_range(1usize..20);
        let mut gen = ProgramGenerator::new(seed);
        let corpus: Vec<_> = (0..4).map(|_| gen.random_program()).collect();
        let mut p = gen.random_program();
        for _ in 0..steps {
            p = mutate::mutate(&mut gen, &p, &corpus);
            assert!(p.refs_valid(), "seed {seed:#x} broke refs");
            assert!(!p.is_empty(), "seed {seed:#x} emptied the program");
        }
    });
}

/// Quantiles of sorted data are monotone in q and bounded by the extremes.
#[test]
fn quantiles_are_monotone() {
    for_each_case("quantiles_are_monotone", |seed, rng| {
        let n = rng.gen_range(1usize..200);
        let mut values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..10_000_000)).collect();
        values.sort_unstable();
        let mut last = 0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = quantile_sorted(&values, q).unwrap();
            assert!(v >= last, "seed {seed:#x}: quantile not monotone");
            assert!(v >= values[0] && v <= *values.last().unwrap());
            last = v;
        }
    });
}

/// Bucket rows always account for exactly 100% of the values.
#[test]
fn bucket_rows_account_for_everything() {
    for_each_case("bucket_rows_account_for_everything", |seed, rng| {
        let n = rng.gen_range(1usize..100);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100_000_000)).collect();
        let row = BucketRow::from_values("x", &values);
        assert!(
            (row.below[4] + row.above_last - 100.0).abs() < 1e-6,
            "seed {seed:#x}: buckets lost mass"
        );
        for w in row.below.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
    });
}

/// Samples summaries are internally ordered.
#[test]
fn summaries_are_ordered() {
    for_each_case("summaries_are_ordered", |seed, rng| {
        let n = rng.gen_range(2usize..300);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..1_000_000_000)).collect();
        let mut s = Samples::from_values(values);
        let sum = s.summary().unwrap();
        assert!(sum.min <= sum.median, "seed {seed:#x}");
        assert!(sum.median <= sum.p95);
        assert!(sum.p95 <= sum.p99);
        assert!(sum.p99 <= sum.max);
        assert!(sum.mean >= sum.min as f64 && sum.mean <= sum.max as f64);
    });
}

/// The engine clock never runs backwards, whatever mix of delays, sleeps
/// and lock traffic a process issues.
#[test]
fn engine_clock_is_monotone() {
    struct P {
        script: Vec<u32>,
        at: usize,
        lock: ksa_core::desim::LockId,
        held: bool,
        last: u64,
    }
    impl Process<()> for P {
        fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
            assert!(ctx.now() >= self.last, "clock went backwards");
            self.last = ctx.now();
            if self.held {
                ctx.release(self.lock);
                self.held = false;
            }
            let Some(&op) = self.script.get(self.at) else {
                return Effect::Done;
            };
            self.at += 1;
            match op {
                0 => Effect::Delay(100),
                1 => Effect::Sleep(50),
                2 => {
                    self.held = true;
                    Effect::Acquire(self.lock, ksa_core::desim::LockMode::Exclusive)
                }
                _ => Effect::Delay(1),
            }
        }
    }
    for_each_case("engine_clock_is_monotone", |seed, rng| {
        let len = rng.gen_range(1usize..30);
        let script: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..4)).collect();
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), seed);
        let core = eng.add_core(CoreConfig::default());
        let lock = eng.add_lock(ksa_core::desim::LockKind::Spin, "prop");
        eng.spawn(
            core,
            Box::new(P {
                script,
                at: 0,
                lock,
                held: false,
                last: 0,
            }),
            0,
        );
        let res = eng.run().unwrap();
        assert!(res.clock < 1_000_000, "seed {seed:#x}: run too long");
    });
}

/// A net-heavy trial replays bit-identically under the same seed: same
/// sites, same sample vectors, same simulated clock. Softirq/NAPI
/// deferral and NIC queue hashing must not introduce nondeterminism.
#[test]
fn net_trial_replays_bit_identically() {
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{net_corpus, Scale};
    use ksa_core::varbench::{run_hooked, RunConfig};
    let corpus = net_corpus(Scale::Tiny);
    for seed in [3u64, 0x77, 0xdead_beef] {
        let cfg = RunConfig::new(
            EnvSpec::new(
                Machine {
                    cores: 4,
                    mem_mib: 2 * 1024,
                },
                EnvKind::Vm(2),
            ),
            3,
            seed,
        );
        let a = run_hooked(&cfg, &corpus, |_| {}).expect("net trial failed");
        let b = run_hooked(&cfg, &corpus, |_| {}).expect("net replay failed");
        assert_eq!(a.sim_ns, b.sim_ns, "seed {seed:#x}: clocks differ");
        assert_eq!(a.sites.len(), b.sites.len());
        for (sa, sb) in a.sites.iter().zip(b.sites.iter()) {
            assert_eq!(sa.sysno, sb.sysno);
            assert_eq!(
                sa.samples.raw(),
                sb.samples.raw(),
                "seed {seed:#x}: {} samples differ",
                sa.sysno.name()
            );
        }
    }
}

/// Bounded socket buffers push back with EAGAIN and never lose or
/// duplicate payload bytes: at every step,
/// `sent == received + buffered + flushed`.
#[test]
fn socket_buffers_bound_and_conserve_bytes() {
    use ksa_core::desim::DeviceModel;
    use ksa_core::kernel::Errno;
    for_each_case("socket_buffers_bound_and_conserve_bytes", |seed, rng| {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let cores = vec![eng.add_core(CoreConfig::default())];
        let mut inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores,
                mem_mib: 256,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        let mut call_rng = SmallRng::seed_from_u64(seed);
        let invariant = |inst: &KernelInstance, at: &str| {
            let net = &inst.state.net;
            assert_eq!(
                net.sent_bytes,
                net.recv_bytes + net.buffered_bytes() + net.flushed_bytes,
                "seed {seed:#x}: bytes lost or duplicated ({at})"
            );
        };
        // fd0: receiver socket bound to port 3; fd1: sender socket.
        let port = rng.gen_range(0u64..8);
        for (no, args) in [
            (SysNo::Socket, vec![1u64]),
            (SysNo::Bind, vec![0, port]),
            (SysNo::Socket, vec![1]),
        ] {
            let seq = dispatch_simple(&mut inst, 0, no, &args, &mut call_rng);
            assert!(seq.error.is_none(), "seed {seed:#x}: setup {no:?} failed");
        }
        // Send until backpressure. The ring has 256 descriptors and the
        // receive buffer 256 KiB, and nothing drains either, so EAGAIN
        // must arrive within a bounded number of sends.
        let mut saw_eagain = false;
        for i in 0..300 {
            let len = rng.gen_range(4_096u64..65_536);
            let seq = dispatch_simple(&mut inst, 0, SysNo::Sendto, &[1, len, port], &mut call_rng);
            invariant(&inst, "after send");
            match seq.error {
                None => {}
                Some(Errno::EAGAIN) => {
                    saw_eagain = true;
                    break;
                }
                Some(e) => panic!("seed {seed:#x}: unexpected send error {e:?} at {i}"),
            }
        }
        assert!(saw_eagain, "seed {seed:#x}: full buffers never pushed back");
        assert!(
            inst.state.net.buffered_bytes() <= inst.cost.sock_buf_bytes,
            "seed {seed:#x}: receive buffer exceeded its bound"
        );
        // Drain the receiver; every buffered byte comes back exactly once.
        for _ in 0..300 {
            let seq = dispatch_simple(&mut inst, 0, SysNo::Recvfrom, &[0, 60_000], &mut call_rng);
            invariant(&inst, "after recv");
            if seq.error == Some(Errno::EAGAIN) {
                break;
            }
            assert!(seq.error.is_none(), "seed {seed:#x}: recv failed");
        }
        assert_eq!(
            inst.state.net.buffered_bytes(),
            0,
            "seed {seed:#x}: drain left bytes behind"
        );
        // Shutdown flushes any remainder and keeps the ledger balanced.
        for sel in [0u64, 1] {
            dispatch_simple(&mut inst, 0, SysNo::ShutdownSock, &[sel], &mut call_rng);
        }
        invariant(&inst, "after shutdown");
        assert_eq!(
            inst.state.net.sent_bytes,
            inst.state.net.recv_bytes + inst.state.net.flushed_bytes,
            "seed {seed:#x}: final ledger unbalanced"
        );
    });
}

/// Turning the tracer on is strictly observational: for the same seed,
/// a traced run and an untraced run produce the same clock, the same
/// latency samples, the same contention profile, and the same
/// attribution — across environment kinds.
#[test]
fn tracing_has_zero_observer_effect() {
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{net_corpus, Scale};
    use ksa_core::varbench::{run_hooked, RunConfig};
    let corpus = net_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 4,
        mem_mib: 2 * 1024,
    };
    for (seed, kind) in [
        (11u64, EnvKind::Native),
        (12, EnvKind::Vm(2)),
        (13, EnvKind::Container(2)),
    ] {
        let cfg = |trace| RunConfig {
            trace,
            ..RunConfig::new(EnvSpec::new(machine, kind), 2, seed)
        };
        let off = run_hooked(&cfg(false), &corpus, |_| {}).expect("untraced run failed");
        let on = run_hooked(&cfg(true), &corpus, |_| {}).expect("traced run failed");
        assert_eq!(off.sim_ns, on.sim_ns, "{kind:?}: tracing moved the clock");
        for (a, b) in off.sites.iter().zip(on.sites.iter()) {
            assert_eq!(a.samples.raw(), b.samples.raw(), "{kind:?}: samples differ");
        }
        assert_eq!(
            off.contention.total_wait_ns(),
            on.contention.total_wait_ns(),
            "{kind:?}: contention differs"
        );
        assert_eq!(off.attrib.calls(), on.attrib.calls());
        assert_eq!(
            off.attrib.grand_total().values(),
            on.attrib.grand_total().values(),
            "{kind:?}: attribution differs"
        );
        assert_eq!(off.trace.total_events(), 0, "untraced run recorded events");
        assert!(on.trace.total_events() > 0, "traced run recorded nothing");
    }
}

/// Two traced runs under the same seed replay the trace bit-identically:
/// the merged event streams (and drop counters) are equal element by
/// element.
#[test]
fn traced_runs_replay_bit_identically() {
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{net_corpus, Scale};
    use ksa_core::varbench::{run_hooked, RunConfig};
    let corpus = net_corpus(Scale::Tiny);
    for seed in [5u64, 0xfeed] {
        let cfg = RunConfig {
            trace: true,
            ..RunConfig::new(
                EnvSpec::new(
                    Machine {
                        cores: 4,
                        mem_mib: 2 * 1024,
                    },
                    EnvKind::Vm(2),
                ),
                2,
                seed,
            )
        };
        let a = run_hooked(&cfg, &corpus, |_| {}).expect("traced run failed");
        let b = run_hooked(&cfg, &corpus, |_| {}).expect("traced replay failed");
        assert_eq!(a.trace.total_dropped(), b.trace.total_dropped());
        let ea = a.trace.merged();
        let eb = b.trace.merged();
        assert_eq!(ea.len(), eb.len(), "seed {seed:#x}: event counts differ");
        for (x, y) in ea.iter().zip(eb.iter()) {
            assert_eq!(x, y, "seed {seed:#x}: trace diverged");
        }
        assert_eq!(
            a.trace.labels, b.trace.labels,
            "seed {seed:#x}: tags differ"
        );
        assert_eq!(a.trace.lock_labels, b.trace.lock_labels);
    }
}

/// Attribution is exact at every level: each per-syscall row's components
/// sum to its total, the rows sum to the grand total, and the primary-
/// category view re-partitions the same mass.
#[test]
fn attribution_components_sum_exactly() {
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{net_corpus, Scale};
    use ksa_core::varbench::{run_hooked, RunConfig};
    let corpus = net_corpus(Scale::Tiny);
    for (seed, kind) in [(21u64, EnvKind::Native), (22, EnvKind::Vm(4))] {
        let res = run_hooked(
            &RunConfig::new(
                EnvSpec::new(
                    Machine {
                        cores: 4,
                        mem_mib: 2 * 1024,
                    },
                    kind,
                ),
                2,
                seed,
            ),
            &corpus,
            |_| {},
        )
        .expect("attribution run failed");
        let grand = res.attrib.grand_total();
        assert!(grand.is_exact(), "{kind:?}: grand total not exact");
        assert!(grand.total > 0, "{kind:?}: nothing attributed");
        let mut sysno_sum = 0u64;
        for (no, (calls, a)) in res.attrib.by_sysno() {
            assert!(a.is_exact(), "{kind:?}: {} row not exact", no.name());
            assert!(*calls > 0);
            sysno_sum += a.total;
        }
        assert_eq!(sysno_sum, grand.total, "{kind:?}: rows lost mass");
        let cat_sum: u64 = res.attrib.by_category().map(|(_, (_, a))| a.total).sum();
        assert_eq!(cat_sum, grand.total, "{kind:?}: categories lost mass");
    }
}

/// A trace ring under arbitrary pressure keeps the *newest* `cap` events
/// in order, counts every eviction, and never panics — including the
/// zero-capacity ring, which drops everything.
#[test]
fn trace_ring_overflow_drops_oldest() {
    use ksa_core::desim::{CoreId, Pid, TraceEvent, TraceEventKind, TraceRing};
    for_each_case("trace_ring_overflow_drops_oldest", |seed, rng| {
        let cap = rng.gen_range(0usize..50);
        let n = rng.gen_range(0usize..200);
        let mut ring = TraceRing::new(cap);
        for i in 0..n {
            ring.push(TraceEvent {
                t: i as u64,
                pid: Pid(0),
                core: CoreId(0),
                kind: TraceEventKind::Wake {
                    reason: WakeReason::Start,
                },
            });
        }
        let kept = n.min(cap);
        assert_eq!(ring.len(), kept, "seed {seed:#x}: wrong retained count");
        assert_eq!(
            ring.dropped,
            (n - kept) as u64,
            "seed {seed:#x}: evictions miscounted"
        );
        // The survivors are exactly the newest `kept` events, oldest first.
        for (offset, ev) in ring.events().enumerate() {
            assert_eq!(
                ev.t,
                (n - kept + offset) as u64,
                "seed {seed:#x}: ring did not drop oldest-first"
            );
        }
    });
}

/// Coverage merging is idempotent and commutative on random sets.
#[test]
fn coverage_merge_laws() {
    use ksa_core::kernel::coverage::block_bucketed;
    let mk = |ids: &[u32]| {
        let mut s = CoverageSet::new();
        for &i in ids {
            s.insert(block_bucketed("prop.cov", i));
        }
        s
    };
    let a = mk(&[1, 5, 9, 200]);
    let b = mk(&[5, 9, 77]);
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.len(), ba.len());
    let mut aa = a.clone();
    assert_eq!(aa.merge(&a), 0, "self-merge adds nothing");
}

/// The parallel trial runner is an implementation detail: for every
/// environment kind, with tracing on and off, and with fault injection
/// enabled, a campaign run on the worker pool produces results
/// bit-identical to the sequential runner — same simulated clocks, same
/// samples, same attribution, same contention, same trace streams.
#[test]
fn parallel_runner_matches_sequential_bit_identically() {
    use ksa_core::desim::{FaultKind, FaultPlan, FaultSchedule};
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{net_corpus, Scale};
    use ksa_core::varbench::{run_configs, RunConfig};
    let corpus = net_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 4,
        mem_mib: 2 * 1024,
    };

    // The full grid: env kind x trace x faulted, two seeds each. One
    // flat batch so the pool actually interleaves heterogeneous trials.
    let mut configs = Vec::new();
    let mut faulted = Vec::new();
    for seed in [31u64, 0xbeef] {
        for kind in [EnvKind::Native, EnvKind::Vm(2), EnvKind::Container(4)] {
            for trace in [false, true] {
                for fault in [false, true] {
                    configs.push(RunConfig {
                        trace,
                        ..RunConfig::new(
                            EnvSpec::new(machine, kind),
                            2,
                            seed ^ (configs.len() as u64) << 8,
                        )
                    });
                    faulted.push(fault);
                }
            }
        }
    }
    let hook =
        |i: usize, engine: &mut ksa_core::desim::Engine<ksa_core::kernel::world::KernelWorld>| {
            if faulted[i] {
                engine.set_fault_plan(
                    FaultPlan::new(0xfa17 ^ i as u64)
                        .site(
                            FaultKind::IoError,
                            "io.submit".to_string(),
                            FaultSchedule::EveryNth(3),
                        )
                        .site(
                            FaultKind::AllocFail,
                            "mm.alloc".to_string(),
                            FaultSchedule::ProbMilli(150),
                        ),
                );
            }
        };

    let seq = run_configs(&configs, &corpus, 1, &hook);
    for jobs in [4usize, 0] {
        let par = run_configs(&configs, &corpus, jobs, &hook);
        assert_eq!(seq.len(), par.len());
        for (i, (s, p)) in seq.iter().zip(par.iter()).enumerate() {
            let (s, p) = match (s, p) {
                (Ok(s), Ok(p)) => (s, p),
                other => panic!("slot {i} (jobs {jobs}): outcome mismatch {other:?}"),
            };
            let tag = format!("slot {i} ({:?}, jobs {jobs})", configs[i].env.kind);
            assert_eq!(s.sim_ns, p.sim_ns, "{tag}: clocks differ");
            assert_eq!(s.events, p.events, "{tag}: event counts differ");
            assert_eq!(s.sites.len(), p.sites.len(), "{tag}: site counts differ");
            for (a, b) in s.sites.iter().zip(p.sites.iter()) {
                assert_eq!(a.samples.raw(), b.samples.raw(), "{tag}: samples differ");
            }
            assert_eq!(
                s.attrib.grand_total().values(),
                p.attrib.grand_total().values(),
                "{tag}: attribution differs"
            );
            assert_eq!(
                s.contention.total_wait_ns(),
                p.contention.total_wait_ns(),
                "{tag}: contention differs"
            );
            assert_eq!(
                s.trace.total_events(),
                p.trace.total_events(),
                "{tag}: trace volume differs"
            );
            assert_eq!(s.trace, p.trace, "{tag}: trace diverged");
        }
    }
}

/// Specialization with a full-coverage profile is the identity: for
/// every environment kind and pool width, a campaign run with
/// `spec: Some(SpecMask::full())` digests bit-identically to the
/// unspecialized (`spec: None`) campaign — the full mask gates nothing,
/// so lock allocation order, daemon spawns and every dispatch must be
/// untouched.
#[test]
fn full_allowlist_specialization_is_bit_identical() {
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{net_corpus, Scale};
    use ksa_core::varbench::{run_configs, RunConfig, RunResult};
    let corpus = net_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 4,
        mem_mib: 2 * 1024,
    };

    // FNV-1a over everything the runner reports as simulated outcome.
    let digest = |results: &[Result<RunResult, ksa_core::varbench::RunError>]| -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x100000001b3);
        for r in results {
            let r = r.as_ref().expect("trial failed");
            fold(r.sim_ns);
            fold(r.events);
            for site in &r.sites {
                fold(site.sysno as u64);
                for &s in site.samples.raw() {
                    fold(s);
                }
            }
            fold(r.attrib.grand_total().total);
            fold(r.contention.total_wait_ns());
        }
        h
    };

    let mk = |spec| -> Vec<RunConfig> {
        let mut configs = Vec::new();
        for seed in [41u64, 0xcafe] {
            for kind in [EnvKind::Native, EnvKind::Vm(2), EnvKind::Container(4)] {
                configs.push(RunConfig {
                    spec,
                    ..RunConfig::new(EnvSpec::new(machine, kind), 2, seed)
                });
            }
        }
        configs
    };
    let plain = mk(None);
    let full = mk(Some(SpecMask::full()));
    let baseline = digest(&run_configs(&plain, &corpus, 1, &|_, _| {}));
    for jobs in [1usize, 4, 0] {
        assert_eq!(
            digest(&run_configs(&plain, &corpus, jobs, &|_, _| {})),
            baseline,
            "jobs {jobs}: unspecialized campaign not replayable"
        );
        assert_eq!(
            digest(&run_configs(&full, &corpus, jobs, &|_, _| {})),
            baseline,
            "jobs {jobs}: full allowlist must gate nothing"
        );
    }
}

/// Backoff schedules are pure functions of their inputs: for random
/// policies, the delay for any (attempt, jitter word) is replayable and
/// never exceeds the cap, whatever the shift or jitter.
#[test]
fn backoff_schedules_are_deterministic_and_capped() {
    use ksa_desim::Backoff;
    for_each_case(
        "backoff_schedules_are_deterministic_and_capped",
        |seed, rng| {
            let base = rng.gen_range(1u64..1_000_000);
            let cap = rng.gen_range(base..base.saturating_mul(1000).max(base + 1));
            let jitter = rng.gen_range(0u32..2000); // clamped at 1000 inside
            let b = Backoff::new(base, cap, jitter);
            for attempt in [0u32, 1, 2, 3, 7, 17, 40, 63, 64, 1000, u32::MAX] {
                let word = rng.gen::<u64>();
                let d = b.delay(attempt, word);
                assert!(
                    d <= cap,
                    "seed {seed:#x}: attempt {attempt} delay {d} exceeds cap {cap}"
                );
                assert_eq!(
                    d,
                    b.delay(attempt, word),
                    "seed {seed:#x}: schedule not replayable"
                );
            }
            // Jitter-free schedules are monotone until the cap.
            let nj = Backoff::new(base, cap, 0);
            let mut last = 0;
            for attempt in 1..=40 {
                let d = nj.delay(attempt, 0);
                assert!(d >= last, "seed {seed:#x}: jitter-free schedule shrank");
                last = d;
            }
            assert_eq!(
                nj.delay(64, 0),
                cap,
                "seed {seed:#x}: deep attempts pin at cap"
            );
        },
    );
}

/// Node-fault cluster trials are bit-identical under replay and across
/// pool widths — the node/link fault domain must not leak scheduling
/// into the simulated results (fabric counters included).
#[test]
fn node_fault_trials_replay_identically_across_pool_widths() {
    use ksa_cluster::{run_cluster_faulted, ClusterConfig, FabricConfig};
    use ksa_desim::NodeFaultPlan;
    use ksa_tailbench::suite;
    let app = &suite()[1];
    let corpus = ksa_core::experiments::noise_corpus(ksa_core::experiments::Scale::Tiny);
    for case in 0..3u64 {
        let seed = base_seed("node_fault_trials") ^ case.wrapping_mul(0x9e3779b97f4a7c15);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cfg = ClusterConfig::quick(false, false, seed);
        let total_guess = 4_000_000u64; // ~quick-cluster runtime
        let mut plan = NodeFaultPlan::new(seed).drop_prob_milli(rng.gen_range(0u32..200));
        for _ in 0..rng.gen_range(1usize..3) {
            let node = rng.gen_range(0..cfg.nodes);
            let at = rng.gen_range(0..total_guess);
            let down = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(100_000..2_000_000)
            };
            plan = plan.crash(node, at, down);
        }
        if rng.gen_bool(0.7) {
            let a = rng.gen_range(0..total_guess / 2);
            let b = a + rng.gen_range(100_000u64..2_000_000);
            let island: Vec<usize> = (0..rng.gen_range(1..cfg.nodes / 2)).collect();
            plan = plan.partition(a, b, island);
        }
        let fab = FabricConfig::quick();
        cfg.threads = 1;
        let seq = run_cluster_faulted(app, &cfg, &corpus, &plan, &fab);
        let replay = run_cluster_faulted(app, &cfg, &corpus, &plan, &fab);
        assert_eq!(
            seq.iteration_ns, replay.iteration_ns,
            "seed {seed:#x}: replay"
        );
        assert_eq!(seq.fabric, replay.fabric, "seed {seed:#x}: replay counters");
        for jobs in [4usize, 0] {
            cfg.threads = jobs;
            let par = run_cluster_faulted(app, &cfg, &corpus, &plan, &fab);
            assert_eq!(
                seq.iteration_ns, par.iteration_ns,
                "seed {seed:#x}: jobs {jobs} diverged"
            );
            assert_eq!(seq.total_ns, par.total_ns, "seed {seed:#x}: jobs {jobs}");
            assert_eq!(
                seq.fabric, par.fabric,
                "seed {seed:#x}: jobs {jobs} counters"
            );
            assert_eq!(
                seq.coverage.len(),
                par.coverage.len(),
                "seed {seed:#x}: jobs {jobs} coverage"
            );
        }
        cfg.threads = 1;
    }
}

/// Any partition that heals conserves barrier completions exactly: the
/// retransmit + dedup path delivers every expected completion exactly
/// once — none lost, no duplicate counted.
#[test]
fn healed_partitions_conserve_barrier_completions() {
    use ksa_cluster::{run_cluster_faulted, ClusterConfig, FabricConfig};
    use ksa_desim::NodeFaultPlan;
    use ksa_tailbench::suite;
    let app = &suite()[1];
    let corpus = ksa_core::experiments::noise_corpus(ksa_core::experiments::Scale::Tiny);
    for case in 0..4u64 {
        let seed = base_seed("healed_partitions_conserve") ^ case.wrapping_mul(0x9e3779b97f4a7c15);
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = ClusterConfig::quick(false, false, seed);
        // Every window heals (end > start, never 0 = forever), so no
        // completion may be lost whatever the cut.
        let start = rng.gen_range(0u64..2_000_000);
        let end = start + rng.gen_range(100_000u64..2_500_000);
        let island: Vec<usize> = (0..cfg.nodes).filter(|_| rng.gen_bool(0.4)).collect();
        let plan = NodeFaultPlan::new(seed)
            .partition(start, end, island)
            .drop_prob_milli(rng.gen_range(0u32..300));
        let res = run_cluster_faulted(app, &cfg, &corpus, &plan, &FabricConfig::quick());
        let rep = res.fabric.expect("faulted run reports fabric");
        assert!(
            rep.conserved(),
            "seed {seed:#x}: {}/{} completions, {} lost, {} dups dropped",
            rep.completions,
            rep.expected_completions,
            rep.lost_completions,
            rep.dup_completions_dropped
        );
        assert_eq!(
            rep.expected_completions,
            cfg.nodes as u64 * cfg.iterations,
            "seed {seed:#x}: nobody crashed, every node owes every barrier"
        );
    }
}

/// A panicking task on the worker pool never takes siblings down with
/// it: for random task counts, worker counts and panic subsets, every
/// non-panicking slot returns its value and every panicking slot
/// surfaces its own payload, all in input order.
#[test]
fn pool_panics_stay_isolated() {
    use ksa_core::desim::pool::run_tasks;
    for_each_case("pool_panics_stay_isolated", |seed, rng| {
        let n = rng.gen_range(1usize..24);
        let jobs = rng.gen_range(1usize..6);
        let doomed: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                let dies = doomed[i];
                move || {
                    if dies {
                        panic!("task {i} down");
                    }
                    i * i
                }
            })
            .collect();
        let results = run_tasks(jobs, tasks);
        assert_eq!(results.len(), n, "seed {seed:#x}: slot count");
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => {
                    assert!(!doomed[i], "seed {seed:#x}: slot {i} should have panicked");
                    assert_eq!(v, i * i, "seed {seed:#x}: slot {i} wrong value");
                }
                Err(payload) => {
                    assert!(doomed[i], "seed {seed:#x}: slot {i} panicked unexpectedly");
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert_eq!(
                        msg,
                        format!("task {i} down"),
                        "seed {seed:#x}: wrong payload"
                    );
                }
            }
        }
    });
}

/// The slab event queue's free-list reuse is invisible to simulation
/// outputs. Two layers:
///
/// 1. **Model check.** Under arbitrary random churn — pushes, pops and
///    cancellations interleaved, so freed slots are constantly recycled
///    and lazily-reclaimed cancelled entries linger in the heap — the
///    queue pops exactly the `(t, seq)` order of a reference model, a
///    second queue driven by the same script pops byte-identically, and
///    the slab never materializes more slots than the peak number of
///    outstanding heap entries (reuse actually happens).
/// 2. **Campaign check.** A full varbench campaign — the workload whose
///    sleep timers, lock queues and IPI fan-outs recycle slab slots
///    millions of times — produces identical FNV digests across pool
///    widths 1/4/auto and across a replay at every width.
#[test]
fn engine_slab_reuse_is_bit_identical() {
    use ksa_core::desim::{EventId, EventQueue};

    for_each_case("engine_slab_reuse_is_bit_identical", |seed, rng| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut twin: EventQueue<u32> = EventQueue::new();
        // Reference model: the live key set. `seq` assignment is the
        // queue's own, mirrored here by counting pushes.
        let mut model: std::collections::BTreeSet<(u64, u64, u32)> = Default::default();
        let mut live: Vec<(EventId, EventId, (u64, u64, u32))> = Vec::new();
        let mut pushes = 0u64;
        let mut pops = 0u64;
        let mut peak_outstanding = 0usize;
        let mut payload = 0u32;
        for _ in 0..400 {
            match rng.gen_range(0u32..10) {
                // Push (~half the steps, so the queue stays populated).
                0..=4 => {
                    let t = rng.gen_range(0u64..50);
                    payload += 1;
                    let key = (t, pushes, payload);
                    let id = q.push(t, payload);
                    let tid = twin.push(t, payload);
                    pushes += 1;
                    model.insert(key);
                    live.push((id, tid, key));
                }
                // Pop: both queues must yield the model minimum.
                5..=7 => {
                    let got = q.pop();
                    assert_eq!(got, twin.pop(), "seed {seed:#x}: twin diverged");
                    match model.pop_first() {
                        Some((t, s, p)) => {
                            assert_eq!(got, Some((t, s, p)), "seed {seed:#x}: wrong pop");
                            pops += 1;
                            live.retain(|(_, _, key)| *key != (t, s, p));
                        }
                        None => assert_eq!(got, None, "seed {seed:#x}: pop from empty"),
                    }
                }
                // Cancel a random live event (stale ids exercised too:
                // popped entries stay in `live` until the retain above).
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = rng.gen_range(0..live.len());
                    let (id, tid, key) = live.swap_remove(i);
                    assert_eq!(
                        q.cancel(id),
                        twin.cancel(tid),
                        "seed {seed:#x}: cancel outcome diverged"
                    );
                    model.remove(&key);
                }
            }
            // Heap entries never exceed pushes - successful pops (cancels
            // leave their entry in place until it surfaces), so this is
            // an upper bound on the slab the queue may materialize.
            peak_outstanding = peak_outstanding.max((pushes - pops) as usize);
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), twin.pop(), "seed {seed:#x}: drain diverged");
            assert_eq!(
                Some(got),
                model.pop_first(),
                "seed {seed:#x}: drain order wrong"
            );
        }
        assert!(
            model.is_empty(),
            "seed {seed:#x}: model has leftover events"
        );
        assert!(
            q.slab_len() <= peak_outstanding,
            "seed {seed:#x}: slab grew to {} with peak {} outstanding — free list not reused",
            q.slab_len(),
            peak_outstanding
        );
    });

    // Campaign layer: slab recycling at scale must be invisible to the
    // simulated outputs for every pool width, twice.
    use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
    use ksa_core::experiments::{default_corpus, Scale};
    use ksa_core::varbench::{run_configs, RunConfig, RunResult};
    let corpus = default_corpus(Scale::Tiny).corpus;
    let machine = Machine {
        cores: 4,
        mem_mib: 2 * 1024,
    };
    let digest = |results: &[Result<RunResult, ksa_core::varbench::RunError>]| -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x100000001b3);
        for r in results {
            let r = r.as_ref().expect("trial failed");
            fold(r.sim_ns);
            fold(r.events);
            for site in &r.sites {
                fold(site.sysno as u64);
                for &s in site.samples.raw() {
                    fold(s);
                }
            }
            fold(r.attrib.grand_total().total);
            fold(r.contention.total_wait_ns());
        }
        h
    };
    let configs: Vec<RunConfig> = [53u64, 0xd00d]
        .into_iter()
        .flat_map(|seed| {
            [EnvKind::Native, EnvKind::Vm(2), EnvKind::Container(4)]
                .into_iter()
                .map(move |kind| RunConfig::new(EnvSpec::new(machine, kind), 2, seed))
        })
        .collect();
    let baseline = digest(&run_configs(&configs, &corpus, 1, &|_, _| {}));
    for jobs in [1usize, 4, 0] {
        assert_eq!(
            digest(&run_configs(&configs, &corpus, jobs, &|_, _| {})),
            baseline,
            "jobs {jobs}: slab-backed campaign not bit-identical on replay"
        );
    }
}

/// The fd/socket slot-reuse allocator is invisible to determinism: a
/// churn campaign's record-stream digest is bit-identical across pool
/// widths 1/4/auto and under replay.
#[test]
fn churn_campaign_is_bit_identical_across_jobs() {
    use ksa_core::envsim::EnvKind;
    use ksa_core::tailbench::churn::{run_churn_points, ChurnConfig};

    let configs: Vec<ChurnConfig> = [
        (EnvKind::Container(8), 31u64),
        (EnvKind::Vm(2), 32),
        (EnvKind::Vm(4), 33),
    ]
    .into_iter()
    .map(|(kind, seed)| ChurnConfig::quick(kind, 48, seed))
    .collect();

    let baseline = run_churn_points(&configs, 1);
    for jobs in [1usize, 4, 0] {
        let got = run_churn_points(&configs, jobs);
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(
                a.digest, b.digest,
                "point {i} (jobs {jobs}) digest diverged"
            );
            assert_eq!(a.sim_ns, b.sim_ns, "point {i} (jobs {jobs}) clock diverged");
            assert_eq!(
                a.events, b.events,
                "point {i} (jobs {jobs}) events diverged"
            );
        }
    }
}

/// Churn conservation: over random densities and deployment kinds,
/// every admitted tenant exits (arrived == exited + live, live == 0 at
/// the end) and the fd/socket tables end bounded by peak concurrency
/// with nothing still open — the slot-reuse invariant the pre-fix
/// push-only allocator violates on the first close.
#[test]
fn churn_conserves_tenants_and_descriptor_tables() {
    use ksa_core::envsim::EnvKind;
    use ksa_core::tailbench::churn::{run_churn, ChurnConfig};

    let mut rng =
        SmallRng::seed_from_u64(base_seed("churn_conserves_tenants_and_descriptor_tables"));
    for case in 0..6u64 {
        let density = rng.gen_range(8usize..96);
        let kind = match rng.gen_range(0u32..3) {
            0 => EnvKind::Container(rng.gen_range(2usize..9)),
            1 => EnvKind::Vm(2),
            _ => EnvKind::Vm(4),
        };
        let cfg = ChurnConfig::quick(kind, density, 0x5eed ^ case);
        let res = run_churn(&cfg);
        let ctx = format!("case {case} ({kind:?}, density {density})");
        assert_eq!(
            res.arrived, cfg.params.tenants as u64,
            "{ctx}: admissions lost"
        );
        assert_eq!(
            res.arrived, res.exited,
            "{ctx}: tenants leaked past the run"
        );
        assert!(res.requests_completed > 0, "{ctx}: no requests served");
        assert_eq!(res.fd_open_after, 0, "{ctx}: descriptors left open");
        assert_eq!(res.sock_live_after, 0, "{ctx}: sockets left live");
        assert!(
            res.tables_bounded,
            "{ctx}: table exceeded peak concurrency (fds {}/{}, socks {}/{})",
            res.fd_table_len, res.fd_peak, res.sock_table_len, res.sock_peak
        );
    }
}

/// The kernel's indexed lookups answer exactly what the linear scans
/// they replace would: the lowest `Closed` fd (the free-fd heap), the
/// lowest free socket slot (the free-socket heap), which sockets sit on
/// accept backlogs (the per-socket backlog count that gates the release
/// purge) and how many VMAs are mapped (the count `clone` copies). Two
/// slots share one socket table; every case opens with one socket
/// connected to two listeners, once to one of them twice, so it sits in
/// two backlogs at once.
#[test]
fn indexed_kernel_tables_match_linear_scans() {
    use ksa_core::desim::{DeviceModel, FaultState};
    use ksa_core::kernel::dispatch::dispatch_exit;
    use ksa_core::kernel::state::{FdKind, SlotState};
    use ksa_core::kernel::OpSeq;
    use std::cmp::Reverse;

    fn lowest_closed_fd(slot: &SlotState) -> Option<usize> {
        slot.fds
            .iter()
            .position(|f| matches!(f.kind, FdKind::Closed))
    }
    /// Socket slots some open descriptor holds: every live socket is
    /// installed behind exactly one fd, so the rest are free.
    fn held_socks(inst: &KernelInstance) -> Vec<bool> {
        let mut held = vec![false; inst.state.net.socks.len()];
        for slot in &inst.state.slots {
            for fd in &slot.fds {
                if let FdKind::Socket { idx } = fd.kind {
                    held[idx] = true;
                }
            }
        }
        held
    }
    fn check(inst: &KernelInstance, ctx: &str) {
        for (si, slot) in inst.state.slots.iter().enumerate() {
            assert_eq!(
                slot.free_fds.peek().map(|&Reverse(i)| i),
                lowest_closed_fd(slot),
                "{ctx}: slot {si} lowest closed fd"
            );
            let closed = slot
                .fds
                .iter()
                .filter(|f| matches!(f.kind, FdKind::Closed))
                .count();
            assert_eq!(slot.free_fds.len(), closed, "{ctx}: slot {si} free fds");
            let mapped = slot.vmas.iter().filter(|v| v.mapped).count() as u64;
            assert_eq!(slot.mapped_vmas, mapped, "{ctx}: slot {si} mapped vmas");
        }
        let net = &inst.state.net;
        let held = held_socks(inst);
        assert_eq!(
            net.free_socks.peek().map(|&Reverse(i)| i),
            held.iter().position(|&h| !h),
            "{ctx}: lowest free socket slot"
        );
        let free = held.iter().filter(|&&h| !h).count();
        assert_eq!(net.free_socks.len(), free, "{ctx}: free socket slots");
        for (i, sk) in net.socks.iter().enumerate() {
            let named = net
                .socks
                .iter()
                .map(|o| o.backlog.iter().filter(|&&c| c == i).count())
                .sum::<usize>();
            assert_eq!(
                sk.backlog_refs as usize, named,
                "{ctx}: sock {i} backlog count"
            );
            if named > 0 {
                assert!(sk.open && held[i], "{ctx}: sock {i} queued after release");
            }
            if !sk.open {
                assert!(
                    sk.backlog.is_empty(),
                    "{ctx}: released sock {i} kept a backlog"
                );
            }
        }
    }

    for_each_case("indexed_kernel_tables_match_linear_scans", |seed, rng| {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let cores = vec![
            eng.add_core(CoreConfig::default()),
            eng.add_core(CoreConfig::default()),
        ];
        let mut inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores,
                mem_mib: 256,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        let mut call_rng = SmallRng::seed_from_u64(seed);
        // Dispatches one call, checking that a descriptor-installing call
        // lands on the lowest closed fd and, for sockets, the lowest free
        // socket slot, then checks every index.
        let mut run = |inst: &mut KernelInstance, slot: usize, no: SysNo, args: &[u64]| {
            let want_fd = {
                let s = &inst.state.slots[slot];
                lowest_closed_fd(s).unwrap_or(s.fds.len())
            };
            let want_sock = {
                let held = held_socks(inst);
                held.iter().position(|&h| !h).unwrap_or(held.len())
            };
            let seq = dispatch_simple(inst, slot, no, args, &mut call_rng);
            let ctx = format!("seed {seed:#x}: slot {slot} {no:?} {args:?}");
            if seq.error.is_none() && matches!(no, SysNo::Socket | SysNo::Accept | SysNo::Open) {
                assert_eq!(seq.result, want_fd as u64, "{ctx}: fd number");
                if no != SysNo::Open {
                    assert_eq!(
                        inst.state.slots[slot].fds[want_fd].kind,
                        FdKind::Socket { idx: want_sock },
                        "{ctx}: socket slot"
                    );
                }
            }
            check(inst, &ctx);
            seq.error
        };

        // Slot 0 listens on ports 1 and 2; slot 1's socket connects to
        // port 1, port 2 and port 1 again.
        for (slot, no, args) in [
            (0, SysNo::Socket, [0u64, 0]),
            (0, SysNo::Bind, [0, 1]),
            (0, SysNo::Listen, [0, 8]),
            (0, SysNo::Socket, [0, 0]),
            (0, SysNo::Bind, [1, 2]),
            (0, SysNo::Listen, [1, 8]),
            (1, SysNo::Socket, [0, 0]),
            (1, SysNo::Connect, [0, 1]),
            (1, SysNo::Connect, [0, 2]),
            (1, SysNo::Connect, [0, 1]),
        ] {
            let err = run(&mut inst, slot, no, &args);
            assert_eq!(err, None, "seed {seed:#x}: prelude {no:?} failed");
        }
        assert_eq!(inst.state.net.socks[2].backlog_refs, 3);

        let exit = |inst: &mut KernelInstance, slot: usize| {
            dispatch_exit(
                inst,
                slot,
                &mut SmallRng::seed_from_u64(seed),
                &mut CoverageSet::new(),
                &mut FaultState::default(),
                &mut OpSeq::new(),
            );
        };
        for _ in 0..80 {
            let slot = rng.gen_range(0..2usize);
            let sel = rng.gen_range(0u64..12);
            let port = rng.gen_range(0u64..4);
            let (no, args) = match rng.gen_range(0u32..24) {
                0..=3 => (SysNo::Socket, [0, 0]),
                4 => (SysNo::Bind, [sel, port]),
                5 => (SysNo::Listen, [sel, 8]),
                6..=8 => (SysNo::Connect, [sel, port]),
                9..=10 => (SysNo::Accept, [sel, 0]),
                11..=13 => (SysNo::Close, [sel, 0]),
                14..=15 => (SysNo::ShutdownSock, [sel, 0]),
                16 => (SysNo::Open, [sel, 1]),
                17..=18 => (SysNo::Mmap, [sel + 1, sel & 1]),
                19..=20 => (SysNo::Munmap, [sel, 0]),
                21..=22 => (SysNo::Clone, [0, 0]),
                _ => {
                    exit(&mut inst, slot);
                    check(&inst, &format!("seed {seed:#x}: exit slot {slot}"));
                    continue;
                }
            };
            run(&mut inst, slot, no, &args);
        }

        // Both processes exit: every fd and socket slot is free again.
        for slot in 0..2 {
            exit(&mut inst, slot);
        }
        check(&inst, &format!("seed {seed:#x}: final exit"));
        let net = &inst.state.net;
        assert_eq!(net.live_socks, 0, "seed {seed:#x}: sockets outlived exit");
        assert_eq!(net.free_socks.len(), net.socks.len());
    });
}
