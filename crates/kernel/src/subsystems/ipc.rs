//! Inter-process-communication handlers (category e).
//!
//! Contention here is *partial*: futex hash buckets collide across cores
//! (the corpus uses the same uaddr selectors on every core, like threads
//! of one application sharing a futex), and the SysV `ipc_ids` rwlock is
//! global; but pipes and the objects themselves are per-slot. The paper
//! accordingly sees "modest but inconsistent" benefits from smaller
//! surface areas.

use crate::coverage::{cov, cov_bucket, fail};
use crate::dispatch::HCtx;
use crate::errno::Errno;
use crate::instance::FUTEX_BUCKETS;
use crate::ops::KOp;
use crate::state::{FdKind, MsgQueue, ShmSeg, Vma};

/// pipe2: allocate the pipe buffer and two descriptors (read end is the
/// result; the write end is the next fd).
pub fn sys_pipe2(h: &mut HCtx) {
    cov!(h, "ipc.pipe2");
    let cost = h.cost();
    if !h.try_slab_alloc(2, "ipc.pipe2.inode") {
        fail!(h, Errno::ENOMEM, "ipc.pipe2.enomem");
        return;
    }
    if !h.try_alloc_pages(4, "ipc.pipe2.buffer") {
        // Free the two inode objects; no fd was installed.
        h.cpu(cost.slab_fast * 2);
        fail!(h, Errno::ENOMEM, "ipc.pipe2.buffer_enomem");
        return;
    }
    h.cpu(cost.pipe_op);
    let r = h.install_fd(FdKind::Pipe { read_end: true });
    let _w = h.install_fd(FdKind::Pipe { read_end: false });
    h.k.state.ipc.pipes += 1;
    h.seq.result = r;
}

/// futex WAIT with an immediate value mismatch (the generator always
/// produces non-blocking waits, as corpus programs must terminate):
/// bucket lock, user-value load, EAGAIN.
pub fn sys_futex_wait(h: &mut HCtx, uaddr: u64, _val: u64) {
    cov!(h, "ipc.futex.wait_eagain");
    let cost = h.cost();
    // Same uaddr on every core hashes to the same bucket: cross-core
    // bucket-lock contention without any true sharing.
    let bucket = (uaddr as usize) % FUTEX_BUCKETS;
    let lock = h.k.locks.futex[bucket];
    h.lock(lock);
    h.cpu(cost.futex_op);
    h.unlock(lock);
    h.mem(60); // user-memory load
}

/// futex WAKE: bucket lock, empty wait-queue scan.
pub fn sys_futex_wake(h: &mut HCtx, uaddr: u64, nwake: u64) {
    cov!(h, "ipc.futex.wake");
    let cost = h.cost();
    let bucket = (uaddr as usize) % FUTEX_BUCKETS;
    let lock = h.k.locks.futex[bucket];
    h.lock(lock);
    h.cpu(cost.futex_op + 40 * (nwake % 8));
    h.unlock(lock);
}

/// msgget: allocate a queue id under the global ipc_ids write lock.
pub fn sys_msgget(h: &mut HCtx) {
    cov!(h, "ipc.msgget");
    let cost = h.cost();
    if !h.try_slab_alloc(1, "ipc.msgget.queue") {
        fail!(h, Errno::ENOMEM, "ipc.msgget.enomem");
        return;
    }
    let ids = h.k.locks.ipc_ids;
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Exclusive));
    h.cpu(cost.ipc_lookup + 500);
    h.push(KOp::Unlock(ids));
    let qs = &mut h.k.state.ipc.msgqs;
    qs.push(MsgQueue::default());
    h.seq.result = (qs.len() - 1) as u64;
}

/// msgsnd: ids read lock for the lookup, per-slot object lock for the
/// copy-in.
pub fn sys_msgsnd(h: &mut HCtx, qid: u64, bytes: u64) {
    let cost = h.cost();
    let nq = h.k.state.ipc.msgqs.len();
    if nq == 0 {
        cov!(h, "ipc.msgsnd.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    }
    let bytes = (bytes % 8192).max(64);
    cov!(h, "ipc.msgsnd");
    cov_bucket!(
        h,
        "ipc.msgsnd.size",
        crate::dispatch::HCtx::size_class(bytes)
    );
    let ids = h.k.locks.ipc_ids;
    let obj = h.k.locks.ipc_obj[h.slot];
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Shared));
    h.cpu(cost.ipc_lookup);
    h.push(KOp::Unlock(ids));
    if !h.try_slab_alloc(1, "ipc.msgsnd.msg") {
        // No msg_msg buffer: the queue is untouched.
        fail!(h, Errno::ENOMEM, "ipc.msgsnd.enomem");
        return;
    }
    h.lock(obj);
    h.cpu(cost.ipc_msg_base);
    h.mem(cost.copy(bytes));
    h.unlock(obj);
    let q = &mut h.k.state.ipc.msgqs[qid as usize % nq];
    q.msgs += 1;
    q.bytes += bytes;
}

/// msgrcv (IPC_NOWAIT): returns a queued message or EAGAIN.
pub fn sys_msgrcv(h: &mut HCtx, qid: u64, _bytes: u64) {
    let cost = h.cost();
    let nq = h.k.state.ipc.msgqs.len();
    if nq == 0 {
        cov!(h, "ipc.msgrcv.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    }
    let ids = h.k.locks.ipc_ids;
    let obj = h.k.locks.ipc_obj[h.slot];
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Shared));
    h.cpu(cost.ipc_lookup);
    h.push(KOp::Unlock(ids));
    let qi = qid as usize % nq;
    let (msgs, qbytes) = {
        let q = &h.k.state.ipc.msgqs[qi];
        (q.msgs, q.bytes)
    };
    if msgs == 0 {
        cov!(h, "ipc.msgrcv.eagain");
        h.lock(obj);
        h.cpu(cost.ipc_msg_base / 2);
        h.unlock(obj);
        h.seq.error = Some(Errno::EAGAIN);
        return;
    }
    cov!(h, "ipc.msgrcv.dequeue");
    let avg = qbytes / msgs;
    h.lock(obj);
    h.cpu(cost.ipc_msg_base);
    h.mem(cost.copy(avg));
    h.unlock(obj);
    let q = &mut h.k.state.ipc.msgqs[qi];
    q.msgs -= 1;
    q.bytes -= avg;
    h.seq.result = avg;
}

/// semget: allocate a semaphore set under ipc_ids write.
pub fn sys_semget(h: &mut HCtx, nsems: u64) {
    cov!(h, "ipc.semget");
    let cost = h.cost();
    let n = (nsems % 16).max(1) as u32;
    if !h.try_slab_alloc(1, "ipc.semget.set") {
        fail!(h, Errno::ENOMEM, "ipc.semget.enomem");
        return;
    }
    let ids = h.k.locks.ipc_ids;
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Exclusive));
    h.cpu(cost.ipc_lookup + 90 * n as u64 + 400);
    h.push(KOp::Unlock(ids));
    let sems = &mut h.k.state.ipc.sems;
    sems.push(n);
    h.seq.result = (sems.len() - 1) as u64;
}

/// semop (IPC_NOWAIT): ids read lock + per-slot object lock.
pub fn sys_semop(h: &mut HCtx, sid: u64, nops: u64) {
    let cost = h.cost();
    let ns = h.k.state.ipc.sems.len();
    if ns == 0 {
        cov!(h, "ipc.semop.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    }
    cov!(h, "ipc.semop");
    let ids = h.k.locks.ipc_ids;
    let obj = h.k.locks.ipc_obj[h.slot];
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Shared));
    h.cpu(cost.ipc_lookup);
    h.push(KOp::Unlock(ids));
    let sems = h.k.state.ipc.sems[sid as usize % ns] as u64;
    h.lock(obj);
    h.cpu(250 + 100 * (nops % 8).max(1) + 20 * sems);
    h.unlock(obj);
}

/// shmget: segment creation under ipc_ids write.
pub fn sys_shmget(h: &mut HCtx, pages: u64) {
    cov!(h, "ipc.shmget");
    let cost = h.cost();
    let pages = (pages % 128).max(1);
    if !h.try_slab_alloc(2, "ipc.shmget.seg") {
        fail!(h, Errno::ENOMEM, "ipc.shmget.enomem");
        return;
    }
    let ids = h.k.locks.ipc_ids;
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Exclusive));
    h.cpu(cost.ipc_lookup + 700);
    h.push(KOp::Unlock(ids));
    let shms = &mut h.k.state.ipc.shms;
    shms.push(ShmSeg { pages, attaches: 0 });
    h.seq.result = (shms.len() - 1) as u64;
}

/// shmat: attach maps the segment — VMA insert plus page mapping.
pub fn sys_shmat(h: &mut HCtx, shmid: u64) {
    let cost = h.cost();
    let ns = h.k.state.ipc.shms.len();
    if ns == 0 {
        cov!(h, "ipc.shmat.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    }
    cov!(h, "ipc.shmat");
    let si = shmid as usize % ns;
    let pages = h.k.state.ipc.shms[si].pages;
    let ids = h.k.locks.ipc_ids;
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    h.push(KOp::Lock(ids, ksa_desim::LockMode::Shared));
    h.cpu(cost.ipc_lookup);
    h.push(KOp::Unlock(ids));
    h.lock(mmap_sem);
    h.cpu(cost.vma_alloc);
    h.unlock(mmap_sem);
    if !h.try_alloc_pages(pages.min(32), "ipc.shmat.pages") {
        // The segment exists but could not be mapped; no VMA inserted.
        fail!(h, Errno::ENOMEM, "ipc.shmat.enomem");
        return;
    }
    h.mem(cost.pte_per_page * pages);
    h.k.state.ipc.shms[si].attaches += 1;
    let slot = &mut h.k.state.slots[h.slot];
    slot.vmas.push(Vma {
        pages,
        populated: pages.min(32),
        mapped: true,
        locked: false,
        shm: Some(si),
    });
    slot.mapped_vmas += 1;
    h.seq.result = slot.vmas.len() as u64;
}

/// shmdt: detach unmaps — teardown plus a TLB shootdown.
pub fn sys_shmdt(h: &mut HCtx, vma_sel: u64) {
    let cost = h.cost();
    // Find a shm-backed mapped vma.
    let vmas = &h.k.state.slots[h.slot].vmas;
    let pick = (0..vmas.len())
        .map(|i| (vma_sel as usize + i) % vmas.len().max(1))
        .find(|&i| vmas[i].mapped && vmas[i].shm.is_some());
    let Some(vi) = pick else {
        cov!(h, "ipc.shmdt.einval");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    };
    cov!(h, "ipc.shmdt");
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    let si = h.k.state.slots[h.slot].vmas[vi].shm.unwrap();
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    let ptl = h.k.locks.page_table[h.slot];
    h.lock(mmap_sem);
    h.lock(ptl);
    h.cpu(cost.pte_per_page * pages);
    h.unlock(ptl);
    h.push(KOp::Tlb { pages });
    h.unlock(mmap_sem);
    let populated = h.k.state.slots[h.slot].vmas[vi].populated;
    h.free_pages(populated);
    let slot = &mut h.k.state.slots[h.slot];
    slot.vmas[vi].mapped = false;
    slot.vmas[vi].populated = 0;
    slot.mapped_vmas -= 1;
    h.k.state.ipc.shms[si].attaches = h.k.state.ipc.shms[si].attaches.saturating_sub(1);
}

/// eventfd2: lightweight counter fd.
pub fn sys_eventfd(h: &mut HCtx) {
    cov!(h, "ipc.eventfd");
    if !h.try_slab_alloc(1, "ipc.eventfd.ctx") {
        fail!(h, Errno::ENOMEM, "ipc.eventfd.enomem");
        return;
    }
    h.seq.result = h.install_fd(FdKind::EventFd);
}
