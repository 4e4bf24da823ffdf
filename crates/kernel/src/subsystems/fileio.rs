//! File I/O handlers (category c).
//!
//! The data path is mostly *private* — per-file page caches, per-slot fd
//! tables — which is why the paper finds no clear surface-area trend for
//! this category. The exceptions are the shared **journal** (fsync,
//! metadata-heavy ops) and **foreground write throttling**: once the
//! instance-wide dirty-page count crosses a threshold proportional to
//! the instance's memory, writers synchronously flush — a stall whose
//! size scales with the surface area.

use ksa_desim::Ns;

use crate::coverage::{cov, cov_bucket, fail};
use crate::dispatch::HCtx;
use crate::errno::Errno;
use crate::fault_site;
use crate::ops::{KOp, VmExitKind};
use crate::state::FdKind;

/// Maximum bytes per read/write the generator produces.
pub const MAX_IO_BYTES: u64 = 65_536;

fn io_bytes(raw: u64) -> u64 {
    (raw % MAX_IO_BYTES).max(512)
}

/// Shared read path for read/pread.
pub fn sys_read(h: &mut HCtx, fd_sel: u64, len: u64, positional: bool) {
    let cost = h.cost();
    let bytes = io_bytes(len);
    let Some(fd) = h.pick_fd(fd_sel) else {
        cov!(h, "io.read.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    match h.k.state.slots[h.slot].fds[fd].kind {
        FdKind::Pipe { .. } => {
            // Nonblocking pipe read; usually empty.
            cov!(h, "io.read.pipe");
            let obj = h.k.locks.ipc_obj[h.slot];
            h.lock(obj);
            h.cpu(cost.pipe_op);
            h.unlock(obj);
        }
        FdKind::EventFd => {
            cov!(h, "io.read.eventfd");
            h.cpu(cost.pipe_op / 2);
        }
        FdKind::Socket { idx } => {
            // read(2) on a socket goes down the same receive path as
            // recvfrom (sock_read_iter → recvmsg in Linux).
            cov!(h, "io.read.socket");
            crate::subsystems::net::sock_recv(h, idx, bytes);
        }
        FdKind::Epoll => {
            cov!(h, "io.read.epoll");
            h.cpu(120);
            h.seq.error = Some(Errno::EINVAL);
        }
        FdKind::Closed => {
            cov!(h, "io.read.ebadf");
            h.cpu(120);
            h.seq.error = Some(Errno::EBADF);
        }
        FdKind::File { idx } => {
            cov_bucket!(h, "io.read.size", crate::dispatch::HCtx::size_class(bytes));
            let pages = bytes.div_ceil(4096);
            let offset = if positional {
                fd_sel % 16
            } else {
                h.k.state.slots[h.slot].fds[fd].offset_pages
            };
            let file = &h.k.state.fs.files[idx];
            let end = (offset + pages).min(file.size_pages.max(1));
            let cached = file.cached_pages;
            h.cpu(cost.pagecache_lookup * pages);
            if end <= cached {
                // Full page-cache hit: lookup + copy.
                cov!(h, "io.read.hit");
                h.mem(cost.copy(bytes));
            } else {
                // Miss: readahead from disk, insert into cache + LRU.
                cov!(h, "io.read.miss");
                let miss_pages = end.saturating_sub(cached.min(end)) + 8; // readahead
                if !h.try_alloc_pages(miss_pages, fault_site!("io.read.pages")) {
                    // No pages for the readahead window.
                    fail!(h, Errno::ENOMEM, "io.read.enomem");
                    return;
                }
                h.push(KOp::VmExit(VmExitKind::IoKick));
                let ok = h.try_io(miss_pages * 4096, false, fault_site!("io.read.disk"));
                h.push(KOp::VmExit(VmExitKind::IoIrq));
                if !ok {
                    // The device errored: drop the speculative pages and
                    // leave the cache and file offset untouched.
                    h.free_pages(miss_pages);
                    fail!(h, Errno::EIO, "io.read.eio");
                    return;
                }
                h.mem(cost.copy(bytes));
                let f = &mut h.k.state.fs.files[idx];
                f.cached_pages = (f.cached_pages + miss_pages).min(f.size_pages);
                h.k.state.mm.lru_pages += miss_pages;
            }
            if !positional {
                let e = &mut h.k.state.slots[h.slot].fds[fd];
                e.offset_pages = end % h.k.state.fs.files[idx].size_pages.max(1);
            }
            h.seq.result = bytes;
        }
    }
}

/// Shared write path for write/pwrite. Dirties pages; crossing the
/// instance dirty threshold triggers foreground writeback under the
/// journal lock (`balance_dirty_pages`).
pub fn sys_write(h: &mut HCtx, fd_sel: u64, len: u64, positional: bool) {
    let cost = h.cost();
    let bytes = io_bytes(len);
    let Some(fd) = h.pick_fd(fd_sel) else {
        cov!(h, "io.write.ebadf");
        h.cpu(120);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    match h.k.state.slots[h.slot].fds[fd].kind {
        FdKind::Pipe { .. } => {
            cov!(h, "io.write.pipe");
            let obj = h.k.locks.ipc_obj[h.slot];
            h.lock(obj);
            h.cpu(cost.pipe_op);
            h.mem(cost.copy(bytes.min(16 * 4096)));
            h.unlock(obj);
        }
        FdKind::EventFd => {
            cov!(h, "io.write.eventfd");
            h.cpu(cost.pipe_op / 2);
        }
        FdKind::Socket { idx } => {
            // write(2) on a connected socket is the send path without an
            // explicit destination (peer routing only).
            cov!(h, "io.write.socket");
            crate::subsystems::net::sock_send(h, idx, bytes, None);
        }
        FdKind::Epoll => {
            cov!(h, "io.write.epoll");
            h.cpu(120);
            h.seq.error = Some(Errno::EINVAL);
        }
        FdKind::Closed => {
            cov!(h, "io.write.ebadf");
            h.cpu(120);
            h.seq.error = Some(Errno::EBADF);
        }
        FdKind::File { idx } => {
            cov!(h, "io.write.file");
            cov_bucket!(h, "io.write.size", crate::dispatch::HCtx::size_class(bytes));
            let pages = bytes.div_ceil(4096);
            if !h.try_alloc_pages(pages, fault_site!("io.write.pages")) {
                // No pages for the cache-side copy: nothing dirtied yet.
                fail!(h, Errno::ENOMEM, "io.write.enomem");
                return;
            }
            h.mem(cost.copy(bytes));
            {
                let f = &mut h.k.state.fs.files[idx];
                f.dirty_pages += pages;
                f.cached_pages = (f.cached_pages + pages).min(f.size_pages + pages);
                f.size_pages = f.size_pages.max(f.cached_pages);
            }
            h.k.state.mm.dirty_pages += pages;
            // Appends dirty metadata (block allocation) every few pages.
            h.k.state.fs.journal_dirty += pages / 4 + 1;
            if !positional {
                h.k.state.slots[h.slot].fds[fd].offset_pages += pages;
            }

            // Foreground throttling: the instance-wide dirty backlog is
            // everyone's problem in a shared kernel.
            let thresh = h.k.state.mm.dirty_threshold(cost.dirty_throttle_pct);
            if h.k.state.mm.dirty_pages > thresh {
                cov!(h, "io.write.throttled");
                let flush = (h.k.state.mm.dirty_pages / 2).min(4096);
                let journal = h.k.locks.journal;
                if !h.try_lock(journal, fault_site!("io.write.journal")) {
                    // Could not join the flush transaction; the data is in
                    // the cache but the caller must back off and retry.
                    fail!(h, Errno::EAGAIN, "io.write.journal_timeout");
                    return;
                }
                h.cpu(cost.writeback_base + cost.writeback_per_page * flush);
                h.push(KOp::VmExit(VmExitKind::IoKick));
                let ok = h.try_io(flush * 4096, true, fault_site!("io.write.writeback"));
                h.push(KOp::VmExit(VmExitKind::IoIrq));
                h.unlock(journal);
                if !ok {
                    // Writeback failed: pages stay dirty for a later retry.
                    fail!(h, Errno::EIO, "io.write.eio");
                    return;
                }
                h.k.state.mm.dirty_pages -= flush;
            }
            h.seq.result = bytes;
        }
    }
}

/// lseek: fd-table fast path.
pub fn sys_lseek(h: &mut HCtx, fd_sel: u64, off: u64) {
    let Some(fd) = h.pick_fd(fd_sel) else {
        cov!(h, "io.lseek.ebadf");
        h.cpu(100);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    cov!(h, "io.lseek");
    h.cpu(130);
    if let FdKind::File { idx } = h.k.state.slots[h.slot].fds[fd].kind {
        let size = h.k.state.fs.files[idx].size_pages.max(1);
        h.k.state.slots[h.slot].fds[fd].offset_pages = off % size;
    }
}

/// fsync / fdatasync: journal commit sized by the *shared* dirty
/// metadata backlog, plus the file's own dirty data.
pub fn sys_fsync(h: &mut HCtx, fd_sel: u64, data_only: bool) {
    let cost = h.cost();
    let Some(fd) = h.pick_fd(fd_sel) else {
        cov!(h, "io.fsync.ebadf");
        h.cpu(100);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    let FdKind::File { idx } = h.k.state.slots[h.slot].fds[fd].kind else {
        cov!(h, "io.fsync.nonfile");
        h.cpu(150);
        h.seq.error = Some(Errno::EINVAL);
        return;
    };
    let file_dirty = h.k.state.fs.files[idx].dirty_pages;
    if file_dirty == 0 && h.k.state.fs.journal_dirty == 0 {
        cov!(h, "io.fsync.clean");
        h.cpu(400);
        return;
    }
    if data_only {
        cov!(h, "io.fdatasync");
    } else {
        cov!(h, "io.fsync.commit");
    }
    // Write back the file's data pages.
    if file_dirty > 0 {
        h.cpu(cost.writeback_base / 2 + cost.writeback_per_page * file_dirty.min(1024));
        h.push(KOp::VmExit(VmExitKind::IoKick));
        let ok = h.try_io(
            file_dirty.min(1024) * 4096,
            true,
            fault_site!("io.fsync.data"),
        );
        h.push(KOp::VmExit(VmExitKind::IoIrq));
        if !ok {
            // Data writeback failed; pages stay dirty, durability not
            // achieved — report it rather than pretending.
            fail!(h, Errno::EIO, "io.fsync.data_eio");
            return;
        }
    }
    // Metadata commit: serialize on the journal with everyone else's
    // metadata. Group commit (jbd2): the first waiter commits the whole
    // running transaction; callers arriving after it find a clean
    // journal and skip the commit entirely.
    if !data_only && h.k.state.fs.journal_dirty > 0 {
        let journal = h.k.locks.journal;
        let blocks = h.k.state.fs.journal_dirty.min(8_192);
        if !h.try_lock(journal, fault_site!("io.fsync.journal")) {
            // Timed out waiting on the running transaction.
            fail!(h, Errno::EAGAIN, "io.fsync.journal_timeout");
            return;
        }
        h.cpu(cost.journal_commit_base + cost.journal_per_block * blocks);
        h.push(KOp::VmExit(VmExitKind::IoKick));
        let ok = h.try_io(
            (blocks + 1) * 4096,
            true,
            fault_site!("io.fsync.journal_io"),
        );
        h.push(KOp::VmExit(VmExitKind::IoIrq));
        h.unlock(journal);
        if !ok {
            // Commit record never hit the disk: the transaction stays
            // dirty and will be retried by the next committer.
            fail!(h, Errno::EIO, "io.fsync.eio");
            return;
        }
        h.k.state.fs.journal_dirty = 0;
        h.k.state.fs.commits += 1;
    }
    let delta = {
        let f = &mut h.k.state.fs.files[idx];
        let d = f.dirty_pages;
        f.dirty_pages = 0;
        d
    };
    h.k.state.mm.dirty_pages = h.k.state.mm.dirty_pages.saturating_sub(delta);
}

/// readv: scatter-gather read — per-segment setup plus the read path.
pub fn sys_readv(h: &mut HCtx, fd_sel: u64, len: u64, segs: u64) {
    let segs = (segs % 8).max(1);
    cov!(h, "io.readv");
    h.cpu(90 * segs as Ns);
    sys_read(h, fd_sel, len, false);
}

/// writev: scatter-gather write.
pub fn sys_writev(h: &mut HCtx, fd_sel: u64, len: u64, segs: u64) {
    let segs = (segs % 8).max(1);
    cov!(h, "io.writev");
    h.cpu(90 * segs as Ns);
    sys_write(h, fd_sel, len, false);
}

/// fallocate: block allocation under the journal.
pub fn sys_fallocate(h: &mut HCtx, fd_sel: u64, len: u64) {
    let cost = h.cost();
    let Some(fd) = h.pick_fd(fd_sel) else {
        cov!(h, "io.fallocate.ebadf");
        h.cpu(100);
        h.seq.error = Some(Errno::EBADF);
        return;
    };
    let FdKind::File { idx } = h.k.state.slots[h.slot].fds[fd].kind else {
        cov!(h, "io.fallocate.nonfile");
        h.cpu(120);
        h.seq.error = Some(Errno::EINVAL);
        return;
    };
    cov!(h, "io.fallocate");
    let blocks = (len % 64).max(1);
    let journal = h.k.locks.journal;
    if !h.try_lock(journal, fault_site!("io.fallocate.journal")) {
        // Block allocation needs the journal; no metadata was touched.
        fail!(h, Errno::EAGAIN, "io.fallocate.journal_timeout");
        return;
    }
    h.cpu(cost.journal_per_block * blocks + 2_000);
    h.unlock(journal);
    h.k.state.fs.journal_dirty += blocks / 2 + 1;
    h.k.state.fs.files[idx].size_pages += blocks;
}
