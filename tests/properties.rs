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
use ksa_core::stats::{quantile_sorted, BucketRow};
use ksa_core::syzgen::{mutate, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

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

/// A process whose own next wake would be the queue minimum continues in
/// place instead of queueing it; that must be invisible. Random scripts
/// of delays, sleeps, I/O, RCU syncs and spin-lock sections around one
/// barrier run alone, where continuations fire freely, and again beside
/// a daemon doing `Delay(1)` forever on a spare core. The daemon always
/// has a wake queued at or below `now + 1`, and every scripted wait is
/// at least 1 ns, so there no user wake can continue in place. Records
/// (with their times, in order) and the final clock must match.
#[test]
fn inline_continuation_is_unobservable() {
    use ksa_core::desim::{BarrierId, DevId, DeviceModel, LockId, LockKind, LockMode, RcuId};

    #[derive(Clone, Copy)]
    enum Op {
        Delay(u64),
        Sleep(u64),
        Io(u64),
        Rcu,
        /// Spin-lock section: acquire, compute this long, release.
        Locked(u64),
        Barrier,
    }
    struct Script {
        ops: Vec<(Op, bool)>,
        at: usize,
        /// Record key for the op that just completed.
        pending: Option<u64>,
        acquiring: bool,
        held: bool,
        key: u64,
        ids: (LockId, BarrierId, DevId, RcuId),
    }
    impl Process<()> for Script {
        fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
            let (lock, barrier, dev, rcu) = self.ids;
            if let Some(key) = self.pending.take() {
                let now = ctx.now();
                ctx.record(key, now);
            }
            if self.held {
                ctx.release(lock);
                self.held = false;
            }
            let Some(&(op, record)) = self.ops.get(self.at) else {
                return Effect::Done;
            };
            if let Op::Locked(n) = op {
                if !self.acquiring {
                    self.acquiring = true;
                    return Effect::Acquire(lock, LockMode::Exclusive);
                }
                self.acquiring = false;
                self.held = true;
                self.at += 1;
                self.pending = record.then_some(self.key + self.at as u64);
                return Effect::Delay(n);
            }
            self.at += 1;
            self.pending = record.then_some(self.key + self.at as u64);
            match op {
                Op::Delay(n) => Effect::Delay(n),
                Op::Sleep(n) => Effect::Sleep(n),
                Op::Io(bytes) => Effect::Io { dev, bytes },
                Op::Rcu => Effect::RcuSync(rcu),
                Op::Barrier => Effect::Barrier(barrier),
                Op::Locked(_) => unreachable!(),
            }
        }
    }
    struct Ticker;
    impl Process<()> for Ticker {
        fn resume(&mut self, _ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
            Effect::Delay(1)
        }
        fn is_daemon(&self) -> bool {
            true
        }
    }

    // Most waits, starts and engine latencies are multiples of one
    // quantum, so wakes often tie on time and the strict `<` against
    // the queue minimum is exercised.
    let quantum = 50;
    for_each_case("inline_continuation_is_unobservable", |seed, rng| {
        let n_cores = rng.gen_range(2usize..5);
        let n_procs = rng.gen_range(2usize..6);
        let scripts: Vec<(usize, Vec<(Op, bool)>)> = (0..n_procs)
            .map(|_| {
                let len = rng.gen_range(2usize..10);
                let barrier_at = rng.gen_range(0..len);
                let ops = (0..len)
                    .map(|i| {
                        let op = if i == barrier_at {
                            Op::Barrier
                        } else {
                            match rng.gen_range(0u32..6) {
                                0 | 1 => Op::Delay(quantum * rng.gen_range(1u64..8)),
                                2 => Op::Sleep(quantum * rng.gen_range(1u64..8)),
                                3 => Op::Io(rng.gen_range(1u64..8_192)),
                                4 => Op::Rcu,
                                _ => Op::Locked(quantum * rng.gen_range(1u64..4)),
                            }
                        };
                        (op, rng.gen_bool(0.6))
                    })
                    .collect();
                (rng.gen_range(0..n_cores), ops)
            })
            .collect();
        let params = EngineParams {
            rcu_base: 4 * quantum,
            rcu_per_core: quantum,
            rcu_jitter: 0,
            ..EngineParams::default()
        };
        let run = |ticker: bool| {
            let mut eng: Engine<()> = Engine::new((), params, seed);
            let cores: Vec<_> = (0..=n_cores)
                .map(|_| {
                    eng.add_core(CoreConfig {
                        tick_period: 4 * quantum,
                        tick_cost: quantum,
                    })
                })
                .collect();
            let ids = (
                eng.add_lock(LockKind::Spin, "prop"),
                eng.add_barrier(n_procs as u32),
                eng.add_device(DeviceModel {
                    base: 150,
                    fs_per_byte: 50_000,
                    jitter: 90,
                    channels: 2,
                }),
                eng.add_rcu_domain(n_cores as u32),
            );
            for (i, (core, ops)) in scripts.iter().enumerate() {
                let script = Script {
                    ops: ops.clone(),
                    at: 0,
                    pending: None,
                    acquiring: false,
                    held: false,
                    key: (i as u64) << 32,
                    ids,
                };
                // Staggered starts, so the processes interleave.
                eng.spawn(cores[*core], Box::new(script), quantum * (i as u64 % 3));
            }
            if ticker {
                eng.spawn(cores[n_cores], Box::new(Ticker), 0);
            }
            let res = eng.run().unwrap();
            let records: Vec<(u64, u64, u64)> = res
                .records
                .iter()
                .map(|r| (r.pid.0 as u64, r.key, r.t))
                .collect();
            (records, res.clock)
        };
        let (alone, clock) = run(false);
        let (ticked, ticked_clock) = run(true);
        assert!(!alone.is_empty(), "seed {seed:#x}: no records");
        assert_eq!(alone, ticked, "seed {seed:#x}: records differ");
        assert_eq!(clock, ticked_clock, "seed {seed:#x}: clock differs");
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

/// A trace word that is 0 (a third of the time: the rings store no zero
/// second word), the type's maximum, or anything between (`max` is an
/// all-ones mask: a type's `MAX`).
fn trace_word(rng: &mut SmallRng, max: u64) -> u64 {
    match rng.gen_range(0..6) {
        0 | 1 => 0,
        2 => max,
        _ => rng.gen::<u64>() & max,
    }
}

/// A random trace event kind, any of the 13; every kind with a second
/// payload word gets a zero one often (see [`trace_word`]).
fn trace_kind(rng: &mut SmallRng) -> ksa_core::desim::TraceEventKind {
    use ksa_core::desim::{
        FaultInjectedArgs, FaultKind, LabelId, LatComp, LockId, QueueId, TraceEventKind,
    };
    let u32w = |rng: &mut SmallRng| trace_word(rng, u64::from(u32::MAX)) as u32;
    match rng.gen_range(0..13) {
        0 => TraceEventKind::Wake {
            reason: match rng.gen_range(0..8) {
                0 => WakeReason::Start,
                1 => WakeReason::Timer,
                2 => WakeReason::LockGranted(LockId(u32w(rng))),
                3 => WakeReason::IpiDone,
                4 => WakeReason::IoDone,
                5 => WakeReason::BarrierReleased,
                6 => WakeReason::Signaled(QueueId(u32w(rng))),
                _ => WakeReason::RcuDone,
            },
        },
        1 => TraceEventKind::Block {
            comp: LatComp::ALL[rng.gen_range(0..LatComp::COUNT)],
        },
        2 => TraceEventKind::LockContend {
            lock: LockId(u32w(rng)),
        },
        3 => TraceEventKind::LockAcquired {
            lock: LockId(u32w(rng)),
            wait_ns: trace_word(rng, u64::MAX),
            contended: rng.gen(),
        },
        4 => TraceEventKind::LockReleased {
            lock: LockId(u32w(rng)),
            held_ns: trace_word(rng, u64::MAX),
        },
        5 => TraceEventKind::RcuSync {
            dur_ns: trace_word(rng, u64::MAX),
        },
        6 => TraceEventKind::IpiBroadcast {
            targets: u32w(rng),
            handler_ns: trace_word(rng, u64::MAX),
        },
        7 => TraceEventKind::IoSubmit {
            bytes: trace_word(rng, u64::MAX),
            dur_ns: trace_word(rng, u64::MAX),
        },
        8 => TraceEventKind::TimerTicks {
            n: trace_word(rng, u64::MAX),
            cost_ns: trace_word(rng, u64::MAX),
        },
        9 => TraceEventKind::FaultInjected(Box::new(FaultInjectedArgs {
            kind: [
                FaultKind::AllocFail,
                FaultKind::IoError,
                FaultKind::LockTimeout,
            ][rng.gen_range(0usize..3)],
            site: ["mm:alloc", "io:submit", "lock:\"q\""][rng.gen_range(0usize..3)],
        })),
        10 => TraceEventKind::Syscall {
            no: trace_word(rng, u64::from(u16::MAX)) as u16,
            enter: rng.gen(),
        },
        11 => TraceEventKind::VmExit {
            kind: LabelId(u32w(rng)),
            cost_ns: trace_word(rng, u64::MAX),
        },
        _ => TraceEventKind::mark(
            ["m", "fabric.retry"][rng.gen_range(0usize..2)],
            trace_word(rng, u64::MAX),
            trace_word(rng, u64::MAX),
        ),
    }
}

/// A trace ring under arbitrary pressure keeps the *newest* `cap` events
/// in order, counts every eviction, and never panics — including the
/// zero-capacity ring, which drops everything. Events are random over
/// all 13 kinds, with times that repeat and step backwards as well as
/// forwards and payloads, pids and cores at their extremes, so the byte
/// encoding must round-trip every field, not just the time.
#[test]
fn trace_ring_overflow_drops_oldest() {
    use ksa_core::desim::{CoreId, Pid, TraceEvent, TraceRing};
    for_each_case("trace_ring_overflow_drops_oldest", |seed, rng| {
        let cap = rng.gen_range(0usize..50);
        let n = rng.gen_range(0usize..200);
        let mut ring = TraceRing::new(cap);
        let mut pushed = Vec::with_capacity(n);
        let mut t = trace_word(rng, u64::MAX);
        for _ in 0..n {
            // Mostly small steps either way or none, sometimes a jump
            // anywhere.
            t = match rng.gen_range(0..5) {
                0 => t.wrapping_sub(rng.gen_range(0..1_000)),
                1 => trace_word(rng, u64::MAX),
                2 => t,
                _ => t.wrapping_add(rng.gen_range(0..1_000)),
            };
            let ev = TraceEvent {
                t,
                pid: Pid(trace_word(rng, u64::from(u32::MAX)) as u32),
                core: CoreId(trace_word(rng, u64::from(u32::MAX)) as u32),
                kind: trace_kind(rng),
            };
            pushed.push(ev.clone());
            ring.push(ev);
        }
        let kept = n.min(cap);
        assert_eq!(ring.len(), kept, "seed {seed:#x}: wrong retained count");
        assert_eq!(
            ring.dropped,
            (n - kept) as u64,
            "seed {seed:#x}: evictions miscounted"
        );
        // The survivors are exactly the newest `kept` events, oldest
        // first, every field intact.
        let events: Vec<TraceEvent> = ring.events().collect();
        assert_eq!(
            events,
            pushed[n - kept..],
            "seed {seed:#x}: ring did not keep the newest events intact"
        );
    });
}

/// The merged trace is the stable sort of the rings' concatenation by
/// `(t, core, pid)`, whatever the rings hold: equal-time runs whose pids
/// step back, time that steps back, several cores in one ring, the
/// side-queue kinds, and rings that overflowed with the pid and core
/// changing across the eviction point.
#[test]
fn trace_merge_equals_a_stable_sort() {
    use ksa_core::desim::{CoreId, Pid, TraceEvent, TraceLog, TraceRing};
    for_each_case("trace_merge_equals_a_stable_sort", |seed, rng| {
        let n_rings = rng.gen_range(0usize..6);
        // How often a ring steps back in time, and how often it records
        // an event for a core other than its own (per mille).
        let back = [0, 0, 20, 300][rng.gen_range(0usize..4)];
        let foreign = [0, 0, 50, 500][rng.gen_range(0usize..4)];
        let mut rings = Vec::with_capacity(n_rings);
        let mut retained: Vec<Vec<TraceEvent>> = Vec::with_capacity(n_rings);
        for core in 0..n_rings as u32 {
            let cap = rng.gen_range(0usize..40);
            let n = rng.gen_range(0usize..80);
            let mut ring = TraceRing::new(cap);
            let mut pushed = Vec::with_capacity(n);
            let mut t = rng.gen_range(0u64..50);
            for _ in 0..n {
                t = if rng.gen_range(0..1000) < back {
                    t.saturating_sub(rng.gen_range(1u64..20))
                } else {
                    // Equal times are common: cores and pids then break
                    // the tie.
                    t + rng.gen_range(0u64..3)
                };
                let ev = TraceEvent {
                    t,
                    pid: Pid(rng.gen_range(0..4)),
                    core: CoreId(if rng.gen_range(0..1000) < foreign {
                        rng.gen_range(0..n_rings as u32)
                    } else {
                        core
                    }),
                    kind: trace_kind(rng),
                };
                pushed.push(ev.clone());
                ring.push(ev);
            }
            retained.push(pushed.split_off(n - n.min(cap)));
            rings.push(ring);
        }
        let mut oracle: Vec<TraceEvent> = retained.into_iter().flatten().collect();
        oracle.sort_by_key(|e| (e.t, e.core, e.pid));
        let log = TraceLog {
            enabled: true,
            rings,
            ..TraceLog::default()
        };
        let mut visited = Vec::new();
        log.for_each_merged(|e| visited.push(e.clone()));
        assert_eq!(visited, oracle, "seed {seed:#x}: for_each_merged");
        assert_eq!(log.merged(), oracle, "seed {seed:#x}: merged");
    });
}

/// A telemetry series ring holds exactly what a `VecDeque` of
/// `(t, value)` pairs capped at the same capacity holds, and counts the
/// same drops, whatever it is fed: capacities 0 and 1, time that steps
/// back, values that fall, words at `0` and `u64::MAX`, and enough
/// pushes to evict and compact many times over. Equality is by the
/// retained samples, whatever the pushes before them were.
#[test]
fn series_ring_matches_a_deque_model() {
    use ksa_core::telemetry::SeriesRing;
    use std::collections::VecDeque;
    for_each_case("series_ring_matches_a_deque_model", |seed, rng| {
        let cap = match rng.gen_range(0..4) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2usize..40),
        };
        let n = rng.gen_range(0usize..300);
        let mut ring = SeriesRing::new(cap);
        let mut model: VecDeque<(u64, u64)> = VecDeque::new();
        let mut dropped = 0u64;
        let (mut t, mut v) = (trace_word(rng, u64::MAX), trace_word(rng, u64::MAX));
        for _ in 0..n {
            t = match rng.gen_range(0..5) {
                0 => t.wrapping_sub(rng.gen_range(0..1_000)),
                1 => trace_word(rng, u64::MAX),
                2 => t,
                _ => t.wrapping_add(rng.gen_range(0..200_000)),
            };
            v = match rng.gen_range(0..5) {
                0 => v.wrapping_sub(rng.gen_range(0..100)),
                1 => trace_word(rng, u64::MAX),
                2 => v,
                _ => v.wrapping_add(rng.gen_range(0..100)),
            };
            ring.push(t, v);
            if model.len() == cap {
                model.pop_front();
                dropped += 1;
            }
            if cap > 0 {
                model.push_back((t, v));
            }
            assert!(
                ring.samples().eq(model.iter().copied()),
                "seed {seed:#x}: samples diverged from the model"
            );
        }
        assert_eq!(ring.len(), model.len(), "seed {seed:#x}: len");
        assert_eq!(ring.is_empty(), model.is_empty(), "seed {seed:#x}");
        assert_eq!(ring.dropped(), dropped, "seed {seed:#x}: dropped");
        // The same retained samples and drop count behind other evicted
        // samples: equal.
        let mut rebuilt = SeriesRing::new(cap);
        for i in 0..dropped {
            rebuilt.push(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), u64::MAX - i);
        }
        for &(t, v) in &model {
            rebuilt.push(t, v);
        }
        assert_eq!(rebuilt, ring, "seed {seed:#x}: equality is by samples");
        if let Some(&(t, v)) = model.back() {
            let mut other = rebuilt.clone();
            other.push(t, v.wrapping_add(1));
            let mut same = ring.clone();
            same.push(t, v);
            assert_ne!(other, same, "seed {seed:#x}: one value differs");
        }
    });
}

/// Coverage merging is idempotent and commutative on random sets.
#[test]
fn coverage_merge_laws() {
    use ksa_core::kernel::coverage::BlockId;
    let mk = |ids: &[u32]| {
        let mut s = CoverageSet::new();
        for &i in ids {
            s.insert(BlockId(i));
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
    // Every third I/O and 15% of allocations fail, at whatever site.
    let hook =
        |i: usize, engine: &mut ksa_core::desim::Engine<ksa_core::kernel::world::KernelWorld>| {
            if faulted[i] {
                engine.set_fault_plan(
                    FaultPlan::new(0xfa17 ^ i as u64)
                        .kind_default(FaultKind::IoError, FaultSchedule::EveryNth(3))
                        .kind_default(FaultKind::AllocFail, FaultSchedule::ProbMilli(150)),
                );
            }
        };

    let seq = run_configs(&configs, &corpus, 1, &hook);
    // The plan must reach the handlers: per env kind, some faulted slot
    // differs from the same config run without a plan.
    let clean = run_configs(&configs, &corpus, 1, &|_, _| {});
    for kind in [EnvKind::Native, EnvKind::Vm(2), EnvKind::Container(4)] {
        let injected = (0..configs.len())
            .filter(|&i| faulted[i] && configs[i].env.kind == kind)
            .any(|i| {
                let (f, c) = (seq[i].as_ref().unwrap(), clean[i].as_ref().unwrap());
                f.sim_ns != c.sim_ns
                    || f.sites
                        .iter()
                        .zip(&c.sites)
                        .any(|(a, b)| a.samples.raw() != b.samples.raw())
            });
        assert!(injected, "{kind:?}: the fault plan injected nothing");
    }
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

/// The event queue is invisible to simulation outputs. Two layers:
///
/// 1. **Model check.** Under random push/pop churn with half the times
///    drawn from a narrow window above the last popped time — so pushes
///    that become the new minimum and equal-`t` ties both occur, and the
///    check asserts they did — the queue pops exactly the `(t, seq)`
///    order of a `BTreeSet` model and its `len` tracks the model's.
/// 2. **Campaign check.** A full varbench campaign — the workload whose
///    sleep timers, lock queues and IPI fan-outs push and pop millions
///    of events — produces identical FNV digests across pool widths
///    1/4/auto and across a replay at every width.
#[test]
fn event_queue_pops_in_model_order() {
    use ksa_core::desim::EventQueue;

    for_each_case("event_queue_pops_in_model_order", |seed, rng| {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Reference model: the queued key set. `seq` assignment is the
        // queue's own, mirrored here by counting pushes.
        let mut model: BTreeSet<(u64, u64, u32)> = BTreeSet::new();
        let (mut pushes, mut now) = (0u64, 0u64);
        // Pushes below the model minimum, and pushes tying an
        // already-queued time.
        let (mut new_min, mut ties) = (0u32, 0u32);
        for _ in 0..400 {
            if rng.gen_range(0u32..8) < 4 {
                // Half the pushes land just after `now`, the rest far
                // out, so near pushes often beat everything queued.
                let window = if rng.gen_bool(0.5) { 4 } else { 200 };
                let t = now + rng.gen_range(0u64..window);
                let key = (t, pushes, pushes as u32);
                new_min += u32::from(model.first().is_none_or(|&first| key < first));
                ties += u32::from(model.iter().any(|&(mt, _, _)| mt == t));
                q.push(t, key.2);
                pushes += 1;
                model.insert(key);
            } else {
                let got = q.pop();
                assert_eq!(got, model.pop_first(), "seed {seed:#x}: wrong pop");
                if let Some((t, _, _)) = got {
                    now = t;
                }
            }
            assert_eq!(q.len(), model.len(), "seed {seed:#x}: len diverged");
        }
        while let Some(got) = q.pop() {
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
            new_min > 0 && ties > 0,
            "seed {seed:#x}: churn missed a path (new minimum {new_min}, \
             equal-t ties {ties})"
        );
    });

    // Campaign layer: queue churn at scale must be invisible to the
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
            "jobs {jobs}: campaign not bit-identical on replay"
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
            let mapped: BTreeSet<usize> = (0..slot.vmas.len())
                .filter(|&i| slot.vmas[i].mapped)
                .collect();
            assert_eq!(slot.mapped_idx, mapped, "{ctx}: slot {si} mapped vmas");
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

/// A one-site plan failing the n-th hit of a random site among `reached`
/// (`(site, hits)` pairs of an earlier run), so the fault lands on the
/// program's path; `None` when nothing was reached.
fn reached_site_plan(
    seed: u64,
    rng: &mut SmallRng,
    reached: impl Iterator<Item = (ksa_core::desim::FaultSite, u64)>,
) -> Option<ksa_core::desim::FaultPlan> {
    use ksa_core::desim::{FaultPlan, FaultSchedule};
    let reached: Vec<_> = reached.collect();
    if reached.is_empty() {
        return None;
    }
    let (site, hits) = reached[rng.gen_range(0..reached.len())];
    let nth = FaultSchedule::Nth(rng.gen_range(1..hits + 1));
    Some(FaultPlan::new(seed).site(site, nth))
}

/// An in-place `SubsysState::reset` after random programs ran on random
/// slots leaves the state rendering exactly like a freshly booted one of
/// the same shape. Half the cases then replay the programs with one fault
/// point on their path failed and check the reset again.
#[test]
fn subsys_reset_equals_init() {
    use ksa_core::desim::{DeviceModel, FaultState};
    use ksa_core::kernel::dispatch::dispatch_into;
    use ksa_core::kernel::fault_sites;
    use ksa_core::kernel::state::SubsysState;
    use ksa_core::kernel::OpSeq;

    for_each_case("subsys_reset_equals_init", |seed, rng| {
        let n = [1usize, 4, 64][rng.gen_range(0..3usize)];
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let cores = (0..n)
            .map(|_| eng.add_core(CoreConfig::default()))
            .collect();
        let mut inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores,
                mem_mib: 64,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        let pages = inst.mem_pages;
        let boot = format!("{:?}", SubsysState::init(n, pages));
        let mut gen = ProgramGenerator::new(seed);
        let progs: Vec<_> = (0..4)
            .map(|_| (rng.gen_range(0..n), gen.random_program()))
            .collect();
        let mut faults = FaultState::default();
        let (mut call_rng, mut cover, mut seq) = (
            SmallRng::seed_from_u64(seed),
            CoverageSet::new(),
            OpSeq::new(),
        );
        let mut run_and_reset = |inst: &mut KernelInstance,
                                 faults: &mut FaultState,
                                 rng: &mut SmallRng| {
            for (slot, prog) in &progs {
                let mut results = Vec::new();
                for call in &prog.calls {
                    let args: Vec<u64> = call.args.iter().map(|a| a.resolve(&results)).collect();
                    dispatch_into(
                        inst,
                        *slot,
                        call.no,
                        &args,
                        &mut call_rng,
                        &mut cover,
                        faults,
                        &mut seq,
                    );
                    results.push(seq.result);
                }
            }
            // Environment construction sets this one; no syscall does.
            inst.state.net.stack_extra_ns = rng.gen();
            inst.state.reset(n, pages);
            assert_eq!(
                format!("{:?}", inst.state),
                boot,
                "seed {seed:#x}: reset of a {n}-slot state differs from init ({} injected)",
                faults.injected().len()
            );
        };
        run_and_reset(&mut inst, &mut faults, rng);
        if rng.gen_bool(0.5) {
            let reached = fault_sites::all()
                .map(|site| (site, faults.hits(site)))
                .filter(|&(_, hits)| hits > 0);
            if let Some(plan) = reached_site_plan(seed, rng, reached) {
                faults.reset(plan);
                run_and_reset(&mut inst, &mut faults, rng);
            }
        }
    });
}

/// Whole generated programs with a third of their constants replaced by
/// boundary values run through the generation sandbox without a panic;
/// half of them run again with one fault point on their path failed. The
/// sandbox checks every compiled call for lock balance in debug builds.
#[test]
fn sandbox_survives_boundary_arguments() {
    use ksa_core::desim::FaultPlan;
    use ksa_core::kernel::Arg;
    use ksa_core::syzgen::Sandbox;

    for_each_case("sandbox_survives_boundary_arguments", |seed, rng| {
        let mut gen = ProgramGenerator::new(seed);
        let mut sb = Sandbox::new(seed);
        for _ in 0..32 {
            let mut prog = gen.random_program();
            for arg in prog.calls.iter_mut().flat_map(|c| &mut c.args) {
                if matches!(arg, Arg::Const(_)) && rng.gen_range(0u32..3) == 0 {
                    *arg = Arg::Const(match rng.gen_range(0u32..5) {
                        0 => 0,
                        1 => 1 << 63,
                        2 => u64::MAX - 1,
                        3 => u64::MAX,
                        _ => rng.gen(),
                    });
                }
            }
            sb.set_fault_plan(FaultPlan::none());
            sb.run_fresh(&prog);
            if rng.gen_bool(0.5) {
                if let Some(plan) = reached_site_plan(seed, rng, sb.fault_hits()) {
                    sb.set_fault_plan(plan);
                    sb.run_fresh(&prog);
                    assert_eq!(
                        sb.injected().len(),
                        1,
                        "seed {seed:#x}: the fault fires once"
                    );
                }
            }
        }
    });
}
