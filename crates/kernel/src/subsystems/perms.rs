//! Permission / capability handlers (category f).
//!
//! Every mutating call funnels through two instance-global structures:
//! the **credential lock** and the **audit log lock**; privilege
//! transitions additionally wait for an **RCU grace period** (credential
//! publication), whose length scales with the instance's core count.
//! Together these give the paper's "modest but consistent" improvement as
//! surface area shrinks — the whole latency mass slides down.

use crate::cov_block;
use crate::coverage::{cov, BlockId};
use crate::dispatch::HCtx;
use crate::ops::KOp;

use super::fs::sys_stat;

/// Emits the audit-trail record every security-relevant call pays.
fn audit(h: &mut HCtx, blk: BlockId) {
    h.cover_id(blk);
    let cost = h.cost();
    let lock = h.k.locks.audit;
    h.slab_alloc(1); // audit buffer
    h.lock(lock);
    h.cpu(cost.audit_emit);
    h.unlock(lock);
}

/// chmod(path, mode): walk + inode mode update + journal + audit.
pub fn sys_chmod(h: &mut HCtx, path_sel: u64, _mode: u64) {
    let cost = h.cost();
    // Reuse the fs walk by doing a stat-like resolution first.
    sys_stat(h, path_sel);
    cov!(h, "perm.chmod");
    let sb = h.k.locks.inode_sb;
    h.lock(sb);
    h.cpu(350);
    h.unlock(sb);
    let journal = h.k.locks.journal;
    h.lock(journal);
    h.cpu(cost.dirent_update / 2);
    h.unlock(journal);
    h.k.state.fs.journal_dirty += 1;
    audit(h, cov_block!("perm.chmod.audit"));
}

/// fchmod(fd, mode): no walk.
pub fn sys_fchmod(h: &mut HCtx, fd_sel: u64, _mode: u64) {
    if h.pick_fd(fd_sel).is_none() {
        cov!(h, "perm.fchmod.ebadf");
        h.cpu(90);
        return;
    }
    cov!(h, "perm.fchmod");
    let cost = h.cost();
    let sb = h.k.locks.inode_sb;
    h.lock(sb);
    h.cpu(300);
    h.unlock(sb);
    h.k.state.fs.journal_dirty += 1;
    let journal = h.k.locks.journal;
    h.lock(journal);
    h.cpu(cost.dirent_update / 2);
    h.unlock(journal);
    audit(h, cov_block!("perm.fchmod.audit"));
}

/// chown(path, uid): like chmod plus quota transfer bookkeeping.
pub fn sys_chown(h: &mut HCtx, path_sel: u64, _uid: u64) {
    let cost = h.cost();
    sys_stat(h, path_sel);
    cov!(h, "perm.chown");
    let sb = h.k.locks.inode_sb;
    h.lock(sb);
    h.cpu(500);
    h.unlock(sb);
    let journal = h.k.locks.journal;
    h.lock(journal);
    h.cpu(cost.dirent_update / 2 + 300);
    h.unlock(journal);
    h.k.state.fs.journal_dirty += 1;
    audit(h, cov_block!("perm.chown.audit"));
}

/// setuid(uid): prepare/commit creds under the cred lock; dropping or
/// changing identity publishes new credentials and waits for readers
/// (RCU grace period ∝ instance cores).
pub fn sys_setuid(h: &mut HCtx, uid: u64) {
    let cost = h.cost();
    let new_uid = uid % 4;
    h.slab_alloc(1); // new cred struct
    let cred = h.k.locks.cred;
    h.lock(cred);
    h.cpu(cost.cred_update);
    h.unlock(cred);
    if new_uid != h.k.state.slots[h.slot].uid {
        cov!(h, "perm.setuid.change");
        h.push(KOp::RcuSync);
        h.k.state.slots[h.slot].uid = new_uid;
    } else {
        cov!(h, "perm.setuid.same");
    }
    audit(h, cov_block!("perm.setuid.audit"));
}

/// getuid: pure fast path.
pub fn sys_getuid(h: &mut HCtx) {
    cov!(h, "perm.getuid");
    h.cpu(40);
    h.seq.result = h.k.state.slots[h.slot].uid;
}

/// capget: capability snapshot of a task (tasklist read).
pub fn sys_capget(h: &mut HCtx) {
    cov!(h, "perm.capget");
    let cost = h.cost();
    let tasklist = h.k.locks.tasklist;
    h.rlock(tasklist);
    h.cpu(cost.cap_compute);
    h.unlock(tasklist);
}

/// capset: recompute + publish capability sets.
pub fn sys_capset(h: &mut HCtx, _caps: u64) {
    cov!(h, "perm.capset");
    let cost = h.cost();
    h.slab_alloc(1);
    let cred = h.k.locks.cred;
    h.lock(cred);
    h.cpu(cost.cred_update + cost.cap_compute);
    h.unlock(cred);
    h.push(KOp::RcuSync);
    audit(h, cov_block!("perm.capset.audit"));
}

/// umask: per-process, trivial.
pub fn sys_umask(h: &mut HCtx, mask: u64) {
    cov!(h, "perm.umask");
    h.cpu(60);
    let old = h.k.state.slots[h.slot].umask;
    h.k.state.slots[h.slot].umask = mask & 0o777;
    h.seq.result = old;
}

/// setgroups: allocate and publish a group_info vector.
pub fn sys_setgroups(h: &mut HCtx, ngroups: u64) {
    cov!(h, "perm.setgroups");
    let cost = h.cost();
    let n = (ngroups % 32).max(1);
    h.slab_alloc(1);
    h.mem(cost.copy(8 * n));
    let cred = h.k.locks.cred;
    h.lock(cred);
    h.cpu(cost.cred_update + 30 * n);
    h.unlock(cred);
    audit(h, cov_block!("perm.setgroups.audit"));
}

/// prctl: mixed bag — some subcommands touch creds, some the task.
pub fn sys_prctl(h: &mut HCtx, option: u64) {
    let cost = h.cost();
    match option % 3 {
        0 => {
            cov!(h, "perm.prctl.name");
            let tasklist = h.k.locks.tasklist;
            h.rlock(tasklist);
            h.cpu(300);
            h.unlock(tasklist);
        }
        1 => {
            cov!(h, "perm.prctl.seccomp");
            h.slab_alloc(1);
            let cred = h.k.locks.cred;
            h.lock(cred);
            h.cpu(cost.cred_update / 2);
            h.unlock(cred);
            audit(h, cov_block!("perm.prctl.audit"));
        }
        _ => {
            cov!(h, "perm.prctl.simple");
            h.cpu(200);
        }
    }
}
