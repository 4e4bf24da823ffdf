//! Process management and scheduling handlers (category a).
//!
//! The shared structures here are the **tasklist rwlock** (writers on
//! clone/exit serialize against readers on wait/kill/priority changes),
//! the **global PID map lock**, and the **per-core runqueue spinlocks**
//! that the load-balancer daemon also grabs — the paper found this
//! category among the two with the largest extreme-outlier reduction
//! from smaller surface areas.

use ksa_desim::{Ns, US};

use crate::coverage::{cov, cov_bucket, fail};
use crate::dispatch::HCtx;
use crate::errno::Errno;
use crate::fault_site;
use crate::ops::{KOp, VmExitKind};

/// getpid: pure fast path, no shared state.
pub fn sys_getpid(h: &mut HCtx) {
    cov!(h, "sched.getpid");
    h.cpu(40);
}

/// sched_yield: own runqueue lock, requeue, pick next.
pub fn sys_sched_yield(h: &mut HCtx) {
    cov!(h, "sched.yield");
    let rq = h.k.locks.runqueue[h.slot];
    let cost = h.cost();
    h.lock(rq);
    h.cpu(cost.rq_op);
    h.unlock(rq);
    // Context-switch path costs an MSR write (swapgs/cr3) which exits on
    // older virtualization hardware.
    h.push(KOp::VmExit(VmExitKind::Msr));
    h.cpu(300);
}

/// clone: tasklist write lock, PID allocation, mm copy proportional to
/// the parent's VMA count, runqueue insert. The child exits immediately
/// and waits to be reaped (wait4).
pub fn sys_clone(h: &mut HCtx, _flags: u64) {
    cov!(h, "sched.clone");
    let cost = h.cost();
    let tasklist = h.k.locks.tasklist;
    let pidmap = h.k.locks.pidmap;
    let rq = h.k.locks.runqueue[h.slot];

    // Task struct + cred + stack allocations.
    if !h.try_slab_alloc(4, fault_site!("sched.clone.task")) {
        // Fork fails before any shared structure is touched.
        fail!(h, Errno::ENOMEM, "sched.clone.enomem");
        return;
    }
    if !h.try_alloc_pages(4, fault_site!("sched.clone.stack")) {
        // Free the task/cred objects; no pid was allocated.
        h.cpu(cost.slab_fast * 4);
        fail!(h, Errno::ENOMEM, "sched.clone.stack_enomem");
        return;
    }

    // Copy mm: cost scales with the address-space size built up so far.
    let vmas = h.k.state.slots[h.slot].mapped_idx.len() as Ns;
    if vmas > 8 {
        cov!(h, "sched.clone.large_mm");
    }
    h.mem(cost.task_create_base / 2 + cost.task_create_per_vma * vmas);

    h.lock(pidmap);
    h.cpu(cost.pid_alloc);
    h.unlock(pidmap);

    h.lock(tasklist);
    h.cpu(cost.task_create_base / 2);
    h.unlock(tasklist);

    h.lock(rq);
    h.cpu(cost.rq_op);
    h.unlock(rq);

    let st = &mut h.k.state;
    st.sched.nr_tasks += 1;
    st.sched.rq_len[h.slot] += 1;
    st.slots[h.slot].children_pending += 1;
    h.seq.result = 10_000 + st.sched.nr_tasks; // synthetic child pid
}

/// wait4 (WNOHANG): tasklist read lock; reaps one exited child if any.
pub fn sys_wait4(h: &mut HCtx, _pid: u64) {
    let cost = h.cost();
    let tasklist = h.k.locks.tasklist;
    h.rlock(tasklist);
    h.cpu(400);
    h.unlock(tasklist);
    if h.k.state.slots[h.slot].children_pending > 0 {
        cov!(h, "sched.wait4.reap");
        // Release the pid and task struct; runqueue dequeue.
        let pidmap = h.k.locks.pidmap;
        let rq = h.k.locks.runqueue[h.slot];
        h.cpu(cost.task_reap);
        h.lock(pidmap);
        h.cpu(cost.pid_alloc / 2);
        h.unlock(pidmap);
        h.lock(rq);
        h.cpu(cost.rq_op);
        h.unlock(rq);
        let st = &mut h.k.state;
        st.slots[h.slot].children_pending -= 1;
        st.sched.nr_tasks -= 1;
        st.sched.rq_len[h.slot] = st.sched.rq_len[h.slot].saturating_sub(1);
    } else {
        cov!(h, "sched.wait4.nochild");
    }
}

/// kill: tasklist read lock for the target lookup, then signal delivery.
pub fn sys_kill(h: &mut HCtx, _pid: u64, sig: u64) {
    let cost = h.cost();
    let tasklist = h.k.locks.tasklist;
    h.rlock(tasklist);
    h.cpu(350 + 15 * (h.k.state.sched.nr_tasks / 16).min(64));
    h.unlock(tasklist);
    if sig == 0 {
        cov!(h, "sched.kill.probe");
    } else {
        cov!(h, "sched.kill.deliver");
        h.cpu(cost.signal_send);
        // Cross-core delivery would IPI; we model signal-to-self (the
        // corpus kills its own synthetic children), so no broadcast.
    }
}

/// sched_setaffinity: both source and destination runqueues are locked
/// for the migration.
pub fn sys_sched_setaffinity(h: &mut HCtx, mask: u64) {
    cov!(h, "sched.setaffinity");
    let cost = h.cost();
    let n = h.k.n_cores();
    let target = (mask as usize) % n;
    let (a, b) = if h.slot <= target {
        (h.slot, target)
    } else {
        (target, h.slot)
    };
    let (la, lb) = (h.k.locks.runqueue[a], h.k.locks.runqueue[b]);
    h.lock(la);
    if a != b {
        cov!(h, "sched.setaffinity.migrate");
        h.lock(lb);
        h.cpu(cost.rq_op * 2);
        h.unlock(lb);
    } else {
        h.cpu(cost.rq_op);
    }
    h.unlock(la);
}

/// sched_getparam: own runqueue lock for a consistent snapshot.
pub fn sys_sched_getparam(h: &mut HCtx) {
    cov!(h, "sched.getparam");
    let rq = h.k.locks.runqueue[h.slot];
    h.lock(rq);
    h.cpu(150);
    h.unlock(rq);
}

/// setpriority: tasklist read lock + runqueue reweight.
pub fn sys_setpriority(h: &mut HCtx, _nice: u64) {
    cov!(h, "sched.setpriority");
    let cost = h.cost();
    let tasklist = h.k.locks.tasklist;
    let rq = h.k.locks.runqueue[h.slot];
    h.rlock(tasklist);
    h.cpu(250);
    h.unlock(tasklist);
    h.lock(rq);
    h.cpu(cost.rq_op);
    h.unlock(rq);
}

/// nanosleep: bounded sleep (the generator caps durations); dequeue,
/// timer programming (APIC exit under virt), sleep, wakeup (halt exit).
pub fn sys_nanosleep(h: &mut HCtx, ns: u64) {
    cov!(h, "sched.nanosleep");
    let cost = h.cost();
    let rq = h.k.locks.runqueue[h.slot];
    let dur = (ns % (50 * US)).max(1_000); // 1us ..= 50us
    cov_bucket!(
        h,
        "sched.nanosleep.dur",
        crate::dispatch::HCtx::size_class(dur / 1_000)
    );
    h.lock(rq);
    h.cpu(cost.rq_op);
    h.unlock(rq);
    h.push(KOp::VmExit(VmExitKind::Apic)); // program the timer
    h.push(KOp::SleepNs(dur));
    h.push(KOp::VmExit(VmExitKind::Halt)); // wakeup path
    h.lock(rq);
    h.cpu(cost.rq_op);
    h.unlock(rq);
}

/// getrusage: accumulates accounting over the thread group.
pub fn sys_getrusage(h: &mut HCtx) {
    cov!(h, "sched.getrusage");
    let tasklist = h.k.locks.tasklist;
    h.rlock(tasklist);
    h.cpu(500);
    h.unlock(tasklist);
}
