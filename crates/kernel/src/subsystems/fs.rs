//! Filesystem-management handlers (category d).
//!
//! Metadata operations share the **dcache** and **superblock inode**
//! spinlocks, the filesystem-wide **rename mutex** and the **journal** —
//! all instance-global. The paper finds this category (with process
//! management) shows the greatest extreme-outlier reduction from smaller
//! surface areas: fewer cores per kernel means fewer concurrent
//! journal/dcache writers and smaller hash-chain pressure.

use crate::cov_block;
use crate::coverage::{cov, cov_bucket, fail, BlockId};
use crate::dispatch::HCtx;
use crate::errno::Errno;
use crate::fault_site;
use crate::state::{FdKind, FileMeta};

/// Gets or creates the file behind a path selector in this slot's
/// namespace; returns `(file index, created)`.
fn lookup_or_create(h: &mut HCtx, sel: u64, create: bool) -> Option<(usize, bool)> {
    let name = h.name_index(sel);
    let depth = 2 + (sel % 4) as u32;
    cov_bucket!(h, "fs.lookup.depth", depth);
    if let Some(idx) = h.k.state.slots[h.slot].names[name] {
        let cached = h.k.state.fs.files[idx].dentry_cached;
        if !h.path_walk(depth, cached) {
            return None; // walk failed; error already recorded
        }
        h.k.state.fs.files[idx].dentry_cached = true;
        return Some((idx, false));
    }
    if !create {
        cov!(h, "fs.lookup.enoent");
        // Parent components resolve, final misses.
        if !h.path_walk(depth, true) {
            return None;
        }
        h.cpu(200);
        return None;
    }
    // Create: parent walk, dentry insert, journal the new inode.
    cov!(h, "fs.create");
    if !h.path_walk(depth - 1, true) {
        return None;
    }
    if !h.try_slab_alloc(2, fault_site!("fs.create.inode")) {
        // No memory for the dentry + inode pair; nothing inserted yet.
        fail!(h, Errno::ENOMEM, "fs.create.enomem");
        return None;
    }
    let cost = h.cost();
    let dcache = h.k.locks.dcache;
    h.lock(dcache);
    h.cpu(cost.dentry_insert);
    h.unlock(dcache);
    let sb = h.k.locks.inode_sb;
    h.lock(sb);
    h.cpu(400);
    h.unlock(sb);
    let journal = h.k.locks.journal;
    if !h.try_lock(journal, fault_site!("fs.create.journal")) {
        // Could not journal the create: free the speculative dentry and
        // inode and leave the namespace unchanged.
        h.cpu(cost.slab_fast * 2);
        fail!(h, Errno::EAGAIN, "fs.create.journal_timeout");
        return None;
    }
    h.cpu(cost.dirent_update);
    h.unlock(journal);
    h.k.state.fs.journal_dirty += 2;
    h.k.state.fs.dentries += 1;
    let idx = h.k.state.fs.files.len();
    h.k.state.fs.files.push(FileMeta {
        size_pages: 4 + sel % 60,
        cached_pages: 0,
        dirty_pages: 0,
        path_depth: depth,
        dentry_cached: true,
    });
    h.k.state.slots[h.slot].names[name] = Some(idx);
    Some((idx, true))
}

/// open(path, flags): bit 0 of flags = O_CREAT.
pub fn sys_open(h: &mut HCtx, path_sel: u64, flags: u64) {
    let create = flags & 1 != 0;
    let Some((idx, created)) = lookup_or_create(h, path_sel, create) else {
        return;
    };
    if created {
        cov!(h, "fs.open.creat");
    } else {
        cov!(h, "fs.open.existing");
    }
    h.seq.result = h.install_fd(FdKind::File { idx });
}

/// close(fd): fd-table update plus final-reference object release — a
/// socket's table slot is released (if not already shut down) and
/// reclaimed for reuse here, when its last descriptor dies.
pub fn sys_close(h: &mut HCtx, fd_sel: u64) {
    let cost = h.cost();
    let Some(fd) = h.pick_fd(fd_sel) else {
        cov!(h, "fs.close.ebadf");
        h.cpu(90);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    cov!(h, "fs.close");
    let fdt = h.k.locks.fdtable[h.slot];
    h.lock(fdt);
    h.cpu(200);
    h.unlock(fdt);
    h.cpu(cost.slab_fast);
    let kind = h.k.state.slots[h.slot].fds[fd].kind;
    h.retire_fd(fd);
    if let FdKind::Socket { idx } = kind {
        crate::subsystems::net::drop_sock_ref(h, idx);
    }
}

/// stat(path): path walk + attribute copy.
pub fn sys_stat(h: &mut HCtx, path_sel: u64) {
    if let Some((_idx, _)) = lookup_or_create(h, path_sel, false) {
        cov!(h, "fs.stat");
        h.cpu(300);
    }
}

/// fstat(fd): no walk, inode attribute copy.
pub fn sys_fstat(h: &mut HCtx, fd_sel: u64) {
    if h.pick_fd(fd_sel).is_none() {
        cov!(h, "fs.fstat.ebadf");
        h.cpu(90);
        h.seq.error = Some(Errno::EBADF);
        return;
    }
    cov!(h, "fs.fstat");
    h.cpu(250);
}

/// access(path): walk + permission check against credentials.
pub fn sys_access(h: &mut HCtx, path_sel: u64) {
    if lookup_or_create(h, path_sel, false).is_some() {
        cov!(h, "fs.access");
        h.cpu(350);
    }
}

/// getdents64: directory scan, cost per resident dentry of this slot.
pub fn sys_getdents(h: &mut HCtx, _fd_sel: u64) {
    cov!(h, "fs.getdents");
    let cost = h.cost();
    let entries = h.k.state.slots[h.slot]
        .names
        .iter()
        .filter(|n| n.is_some())
        .count() as u64
        + 2;
    h.cpu(180 * entries);
    h.mem(cost.copy(64 * entries));
}

/// mkdir: create path (directory inode).
pub fn sys_mkdir(h: &mut HCtx, path_sel: u64) {
    cov!(h, "fs.mkdir");
    let _ = lookup_or_create(h, path_sel | 0x8000_0000, true);
}

/// rmdir: remove a directory entry.
pub fn sys_rmdir(h: &mut HCtx, path_sel: u64) {
    unlink_common(h, path_sel | 0x8000_0000, cov_block!("fs.rmdir"));
}

/// unlink: remove a file entry.
pub fn sys_unlink(h: &mut HCtx, path_sel: u64) {
    unlink_common(h, path_sel, cov_block!("fs.unlink"));
}

fn unlink_common(h: &mut HCtx, path_sel: u64, blk: BlockId) {
    let cost = h.cost();
    let name = h.name_index(path_sel);
    let Some(idx) = h.k.state.slots[h.slot].names[name] else {
        cov!(h, "fs.unlink.enoent");
        let _ = h.path_walk(2, true); // cached walk: cannot fail
        return;
    };
    h.cover_id(blk);
    let cached = h.k.state.fs.files[idx].dentry_cached;
    if !h.path_walk(2 + (path_sel % 4) as u32, cached) {
        return;
    }
    let dcache = h.k.locks.dcache;
    h.lock(dcache);
    h.cpu(cost.dentry_insert / 2);
    h.unlock(dcache);
    let journal = h.k.locks.journal;
    if !h.try_lock(journal, fault_site!("fs.unlink.journal")) {
        // The entry survives: nothing was journaled or removed.
        fail!(h, Errno::EAGAIN, "fs.unlink.journal_timeout");
        return;
    }
    h.cpu(cost.dirent_update);
    h.unlock(journal);
    h.k.state.fs.journal_dirty += 1;
    h.k.state.fs.dentries = h.k.state.fs.dentries.saturating_sub(1);
    h.k.state.slots[h.slot].names[name] = None;
    // Invalidate cached pages of the victim under the LRU lock.
    let pages = h.k.state.fs.files[idx].cached_pages;
    if pages > 0 {
        cov!(h, "fs.unlink.invalidate");
        let lru = h.k.locks.lru;
        h.lock(lru);
        h.cpu(50 * pages.min(256));
        h.unlock(lru);
        h.k.state.fs.files[idx].cached_pages = 0;
        h.k.state.mm.lru_pages = h.k.state.mm.lru_pages.saturating_sub(pages);
    }
}

/// rename: the filesystem-wide rename mutex serializes all renames in
/// the instance — the heaviest metadata convoy in this category.
pub fn sys_rename(h: &mut HCtx, from_sel: u64, to_sel: u64) {
    let cost = h.cost();
    let from = h.name_index(from_sel);
    let Some(idx) = h.k.state.slots[h.slot].names[from] else {
        cov!(h, "fs.rename.enoent");
        let _ = h.path_walk(2, true); // cached walk: cannot fail
        return;
    };
    cov!(h, "fs.rename");
    let rename = h.k.locks.rename;
    let dcache = h.k.locks.dcache;
    let journal = h.k.locks.journal;
    if !h.try_lock(rename, fault_site!("fs.rename.mutex")) {
        // Lost the race for the instance-wide rename mutex.
        fail!(h, Errno::EAGAIN, "fs.rename.timeout");
        return;
    }
    let _ = h.path_walk(2 + (from_sel % 3) as u32, true); // cached: cannot fail
    let _ = h.path_walk(2 + (to_sel % 3) as u32, true);
    h.lock(dcache);
    h.cpu(cost.dentry_insert);
    h.unlock(dcache);
    if !h.try_lock(journal, fault_site!("fs.rename.journal")) {
        // Back out: release the rename mutex, leave both names as-is.
        h.unlock(rename);
        fail!(h, Errno::EAGAIN, "fs.rename.journal_timeout");
        return;
    }
    h.cpu(cost.dirent_update * 2);
    h.unlock(journal);
    h.unlock(rename);
    h.k.state.fs.journal_dirty += 2;
    let to = h.name_index(to_sel);
    h.k.state.slots[h.slot].names[from] = None;
    h.k.state.slots[h.slot].names[to] = Some(idx);
}

/// symlink: create a symlink inode.
pub fn sys_symlink(h: &mut HCtx, _target_sel: u64, link_sel: u64) {
    cov!(h, "fs.symlink");
    let _ = lookup_or_create(h, link_sel ^ 0x55, true);
}

/// readlink: walk + copy the target.
pub fn sys_readlink(h: &mut HCtx, path_sel: u64) {
    if lookup_or_create(h, path_sel, false).is_some() {
        cov!(h, "fs.readlink");
        let cost = h.cost();
        h.mem(cost.copy(64));
        h.cpu(250);
    }
}

/// truncate(path, pages): journal the size change and invalidate the
/// tail of the page cache.
pub fn sys_truncate(h: &mut HCtx, path_sel: u64, new_pages: u64) {
    let cost = h.cost();
    let Some((idx, _)) = lookup_or_create(h, path_sel, false) else {
        return;
    };
    cov!(h, "fs.truncate");
    let new_pages = new_pages % 64;
    let journal = h.k.locks.journal;
    if !h.try_lock(journal, fault_site!("fs.truncate.journal")) {
        // Size change not journaled: the file keeps its old length.
        fail!(h, Errno::EAGAIN, "fs.truncate.journal_timeout");
        return;
    }
    h.cpu(cost.dirent_update + cost.journal_per_block * 2);
    h.unlock(journal);
    h.k.state.fs.journal_dirty += 1;
    let f = &mut h.k.state.fs.files[idx];
    let dropped = f.cached_pages.saturating_sub(new_pages);
    f.size_pages = new_pages.max(1);
    f.cached_pages = f.cached_pages.min(new_pages);
    let fdirty = f.dirty_pages;
    f.dirty_pages = f.dirty_pages.min(new_pages);
    let ddelta = fdirty - f.dirty_pages;
    if dropped > 0 {
        cov!(h, "fs.truncate.invalidate");
        let lru = h.k.locks.lru;
        h.lock(lru);
        h.cpu(50 * dropped.min(256));
        h.unlock(lru);
        h.k.state.mm.lru_pages = h.k.state.mm.lru_pages.saturating_sub(dropped);
    }
    h.k.state.mm.dirty_pages = h.k.state.mm.dirty_pages.saturating_sub(ddelta);
}
