//! Per-layer replays: single layer operations timed in isolation on
//! the workload's own inputs (its syscall programs, sample vectors,
//! attribution deltas and measured event-queue peak). Each replay
//! repeats whole passes until it has run for [`MIN_REPLAY`] and reports
//! nanoseconds per operation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ksa_desim::{Engine, EngineParams, EventQueue, FaultState, LatBreakdown, LatComp, LatSnapshot};
use ksa_envsim::build_env_with;
use ksa_kernel::coverage::{BlockId, CoverageSet};
use ksa_kernel::dispatch::dispatch_into;
use ksa_kernel::world::KernelWorld;
use ksa_kernel::{Attribution, AttributionTable, OpRunner, OpSeq};
use ksa_stats::Samples;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::workloads::Material;

const MIN_REPLAY: Duration = Duration::from_millis(150);

/// Repeats `pass` (which returns its own timed span and op count) until
/// [`MIN_REPLAY`] of timed work has accumulated.
fn repeat(mut pass: impl FnMut() -> (Duration, u64)) -> f64 {
    let (mut spent, mut ops) = (Duration::ZERO, 0u64);
    while spent < MIN_REPLAY {
        let (d, n) = pass();
        if n == 0 {
            return 0.0;
        }
        spent += d;
        ops += n;
    }
    spent.as_nanos() as f64 / ops as f64
}

/// `dispatch_into` + `OpRunner::relower` over the workload's programs
/// on the first core of an instance built by `build_env_with`, with a
/// standalone `FaultState`; instance state is restored between passes.
/// Also returns the blocks each call covered, for the coverage replay.
pub fn dispatch(m: &Material, seed: u64) -> (f64, Vec<Vec<BlockId>>) {
    let mut engine: Engine<KernelWorld> =
        Engine::new(KernelWorld::new(), EngineParams::default(), seed);
    let built = build_env_with(&mut engine, &m.env, seed, None);
    let (core, idx) = (built.cores[0], built.instance_of[0]);
    let inst = &mut engine.world_mut().instances[idx];
    let fresh = inst.state.clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut faults = FaultState::default();
    let mut cover = CoverageSet::new();
    let mut seq = OpSeq::new();
    let mut runner = OpRunner::empty();
    let (mut results, mut args) = (Vec::new(), Vec::new());

    let mut hits: Vec<Vec<BlockId>> = Vec::new();
    for p in &m.programs {
        results.clear();
        for call in &p.calls {
            args.clear();
            args.extend(call.args.iter().map(|a| a.resolve(&results)));
            cover.clear();
            dispatch_into(
                inst,
                0,
                call.no,
                &args,
                &mut rng,
                &mut cover,
                &mut faults,
                &mut seq,
            );
            hits.push(cover.iter().collect());
            results.push(seq.result);
        }
    }

    let ns = repeat(|| {
        inst.state = fresh.clone();
        let mut n = 0u64;
        let t0 = Instant::now();
        for p in &m.programs {
            results.clear();
            for call in &p.calls {
                args.clear();
                args.extend(call.args.iter().map(|a| a.resolve(&results)));
                dispatch_into(
                    inst,
                    0,
                    call.no,
                    &args,
                    &mut rng,
                    &mut cover,
                    &mut faults,
                    &mut seq,
                );
                runner.relower(&seq, inst, core);
                results.push(seq.result);
                n += 1;
            }
        }
        black_box(runner.len());
        (t0.elapsed(), n)
    });
    (ns, hits)
}

/// `CoverageSet::insert` over each call's covered blocks, one fresh set
/// per call as the executors keep it.
pub fn coverage(hits: &[Vec<BlockId>]) -> f64 {
    let mut set = CoverageSet::new();
    repeat(|| {
        let mut n = 0u64;
        let t0 = Instant::now();
        for call in hits {
            set.clear();
            for &id in call {
                black_box(set.insert(id));
            }
            n += call.len() as u64;
        }
        (t0.elapsed(), n)
    })
}

fn breakdown(a: &Attribution) -> LatBreakdown {
    let mut b = LatBreakdown::default();
    for (comp, ns) in [
        (LatComp::OnCpu, a.on_cpu + a.vm_exit),
        (LatComp::TickIrq, a.tick_irq),
        (LatComp::LockWait, a.lock_wait),
        (LatComp::RunqWait, a.runq_wait),
        (LatComp::SoftirqWait, a.softirq_wait),
        (LatComp::DaemonWait, a.daemon_wait),
        (LatComp::IrqWait, a.irq_wait),
        (LatComp::IoWait, a.io_wait),
        (LatComp::IpiWait, a.ipi_wait),
        (LatComp::RcuWait, a.rcu_wait),
        (LatComp::Sleep, a.sleep),
        (LatComp::BarrierWait, a.other_wait),
    ] {
        b.add(comp, ns);
    }
    b
}

/// `AttributionTable::record` over the workload's per-call attribution
/// deltas, as bracketing snapshots; lock wait is charged round-robin to
/// the workload's contended lock labels.
pub fn attrib_record(m: &Material) -> f64 {
    let mut snaps = vec![LatSnapshot::default()];
    for (i, (_, a)) in m.attrib.iter().enumerate() {
        let mut next = snaps[snaps.len() - 1].clone();
        for (comp, ns) in breakdown(a).iter() {
            next.comps.add(comp, ns);
        }
        if a.lock_wait > 0 && !m.lock_labels.is_empty() {
            let label = m.lock_labels[i % m.lock_labels.len()];
            match next.lock_waits.iter_mut().find(|(l, _)| *l == label) {
                Some((_, ns)) => *ns += a.lock_wait,
                None => next.lock_waits.push((label, a.lock_wait)),
            }
        }
        snaps.push(next);
    }
    repeat(|| {
        let mut table = AttributionTable::default();
        let t0 = Instant::now();
        for (i, (no, a)) in m.attrib.iter().enumerate() {
            black_box(table.record(*no, &snaps[i], &snaps[i + 1], a.vm_exit));
        }
        (t0.elapsed(), m.attrib.len() as u64)
    })
}

/// `EventQueue` hold model at the workload's measured queue peak: the
/// queue holds `peak` events and each op pops the earliest and pushes
/// one later event.
pub fn equeue(peak: usize, seed: u64) -> f64 {
    let peak = peak.max(1);
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 20_000
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..peak as u64 {
        q.push(next(), i);
    }
    let ops = 100_000u64;
    repeat(|| {
        let t0 = Instant::now();
        for _ in 0..ops {
            let (t, _, p) = q.pop().expect("queue holds its peak");
            q.push(t + 1 + next(), p);
        }
        (t0.elapsed(), ops)
    })
}

/// `Samples::quantile` (median and p99) over the workload's own sample
/// vectors, unsorted bags rebuilt outside the timed span each pass.
pub fn quantile(m: &Material) -> f64 {
    repeat(|| {
        let mut bags: Vec<Samples> = m
            .samples
            .iter()
            .map(|v| Samples::from_values(v.clone()))
            .collect();
        let t0 = Instant::now();
        for b in &mut bags {
            black_box(b.quantile(0.5));
            black_box(b.quantile(0.99));
        }
        (t0.elapsed(), 2 * bags.len() as u64)
    })
}
