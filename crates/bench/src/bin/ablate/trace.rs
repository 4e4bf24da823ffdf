//! Latency *attribution* across the surface-area sweep.
//!
//! A networking-heavy corpus runs under barrier sync on one 8-core
//! machine divided into 1, 2, 4 and 8 VMs. With per-call attribution
//! retained (`keep_raw`), the tail of the Network-category calls can be
//! *decomposed*: on a shared kernel the p99 is dominated by lock wait
//! (softirq, NIC rings, socket buckets, conntrack); splitting the kernel
//! shrinks each instance's lock population, so the **lock-wait share of
//! the tail must decline monotonically** from shared to per-core — while
//! the VM-exit share rises (virtio doorbells replace queueing). This is
//! the paper's surface-area mechanism, read off the attribution rather
//! than inferred from totals.

use crate::{net_trial, Gates};
use ksa_bench::Cli;
use ksa_core::experiments::{net_corpus, Scale};
use ksa_envsim::EnvKind;
use ksa_kernel::{Attribution, Category, RawCall};

/// Aggregated decomposition of the Network-category tail: every raw
/// call in the slowest decile (at or above the p90 total latency — the
/// mass that determines where the p99 lands; the p99 slice alone is a
/// handful of calls and too grainy to decompose). Also returns the p99
/// cut itself for reporting; `None` when no Network call was recorded.
fn tail_decomposition(raw: &[RawCall]) -> Option<(u64, Attribution)> {
    let mut net: Vec<&RawCall> = raw
        .iter()
        .filter(|c| c.no.categories().contains(&Category::Network))
        .collect();
    if net.is_empty() {
        return None;
    }
    net.sort_by_key(|c| c.attrib.total);
    let p99 = net[(net.len() - 1) * 99 / 100].attrib.total;
    let p90 = net[(net.len() - 1) * 90 / 100].attrib.total;
    let mut agg = Attribution::default();
    for c in net.iter().filter(|c| c.attrib.total >= p90) {
        agg.add(&c.attrib);
    }
    Some((p99, agg))
}

fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

pub fn run(_: &Cli, gates: &mut Gates) {
    let corpus = net_corpus(Scale::Tiny);
    let (mut all_raw, mut all_net, mut all_exact) = (true, true, true);
    let (mut lock, mut exit) = (Vec::new(), Vec::new());
    for count in [1usize, 2, 4, 8] {
        let res = net_trial(&corpus, EnvKind::Vm(count), 23, true);
        all_raw &= res.attrib.raw.len() as u64 == res.attrib.calls();
        let decomposed = tail_decomposition(&res.attrib.raw);
        all_net &= decomposed.is_some();
        let (p99, tail) = decomposed.unwrap_or_default();
        all_exact &= tail.is_exact();
        let pct = |part| 100.0 * share(part, tail.total);
        eprintln!(
            "Vm({count}): net p99={p99}ns tail lock-wait {:.1}% vm-exit {:.1}% \
             (softirq {:.1}%, runq {:.1}%)",
            pct(tail.lock_wait),
            pct(tail.vm_exit),
            pct(tail.softirq_wait),
            pct(tail.runq_wait),
        );
        lock.push((count, share(tail.lock_wait, tail.total)));
        exit.push(share(tail.vm_exit, tail.total));
    }
    let every = "at every split";
    gates.check(
        "attribution/keep-raw",
        all_raw,
        format!("keep_raw retains each call {every}"),
    );
    gates.check(
        "attribution/network-calls",
        all_net,
        format!("Network calls recorded {every}"),
    );
    gates.check(
        "attribution/tail-exact",
        all_exact,
        format!("tail aggregates exact {every}"),
    );

    let steps: Vec<String> = lock
        .iter()
        .map(|(n, s)| format!("Vm({n}) {s:.3}"))
        .collect();
    gates.check(
        "lock-wait/declines-with-split",
        lock.windows(2).all(|w| w[1].1 <= w[0].1),
        format!("Network tail lock-wait share {}", steps.join(" >= ")),
    );
    let (shared, split) = (lock[0].1, lock[3].1);
    gates.check(
        "lock-wait/shared-above-per-core",
        shared > split,
        format!("shared {shared:.3} > per-core {split:.3}"),
    );
    let (shared, split) = (exit[0], exit[3]);
    gates.check(
        "vm-exit/per-core-pays-in-exits",
        split >= shared,
        format!("per-core VM-exit share {split:.3} >= shared {shared:.3}"),
    );

    // The attribution table renders the paste-ready category view.
    let res = net_trial(&corpus, EnvKind::Vm(1), 23, true);
    let table = res.attrib.render_by_category();
    eprintln!("shared-kernel attribution:\n{table}");
}
