//! Memory-management handlers (category b).
//!
//! The dominant cross-core mechanism is the **TLB shootdown**: any
//! operation that removes or narrows mappings must IPI every other core
//! of the kernel instance. In a 64-core instance, 64 concurrent munmaps
//! create interrupt storms (each core absorbs 63 handlers per round); in
//! a 1-core instance the broadcast disappears entirely — the paper's
//! "drastic reduction in the 64-VM case ... obviated in a uniprocessor
//! system". Allocation-side variability comes from zone-lock refills and
//! direct reclaim whose scan length scales with the instance's LRU size.

use ksa_desim::Ns;

use crate::coverage::{cov, cov_bucket, fail};
use crate::dispatch::HCtx;
use crate::errno::Errno;
use crate::ops::KOp;
use crate::state::Vma;

/// Caps mmap request sizes (pages).
const MAX_MAP_PAGES: u64 = 256;

/// mmap(len_pages, flags): VMA insert under `mmap_sem` write; bit 0 of
/// `flags` requests MAP_POPULATE (prefault).
pub fn sys_mmap(h: &mut HCtx, len_pages: u64, flags: u64) {
    let cost = h.cost();
    let pages = (len_pages % MAX_MAP_PAGES).max(1);
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    cov!(h, "mm.mmap");
    cov_bucket!(h, "mm.mmap.pages", crate::dispatch::HCtx::size_class(pages));
    if !h.try_slab_alloc(1, "mm.mmap.vma") {
        // No vma struct: nothing to unwind.
        fail!(h, Errno::ENOMEM, "mm.mmap.enomem");
        return;
    }
    if !h.try_lock(mmap_sem, "mm.mmap.mmap_sem") {
        // Return the vma struct to the slab on the way out.
        h.cpu(cost.slab_fast);
        fail!(h, Errno::EAGAIN, "mm.mmap.eagain");
        return;
    }
    h.cpu(cost.vma_alloc);
    h.unlock(mmap_sem);
    let mut populated = 0;
    if flags & 1 != 0 {
        cov!(h, "mm.mmap.populate");
        if !h.try_alloc_pages(pages, "mm.mmap.populate") {
            // Tear the fresh vma back down before reporting ENOMEM.
            h.cpu(cost.slab_fast);
            fail!(h, Errno::ENOMEM, "mm.mmap.populate_enomem");
            return;
        }
        h.mem(cost.page_touch * pages.min(64));
        populated = pages;
    }
    let slot = &mut h.k.state.slots[h.slot];
    slot.vmas.push(Vma {
        pages,
        populated,
        mapped: true,
        locked: false,
        shm: None,
    });
    slot.mapped_vmas += 1;
    h.seq.result = slot.vmas.len() as u64; // address handle
}

/// munmap(vma): page-table teardown under the PT lock, then the TLB
/// shootdown broadcast *outside* the spinlock section (as Linux must —
/// waiting for acks with interrupts off deadlocks).
pub fn sys_munmap(h: &mut HCtx, vma_sel: u64) {
    let cost = h.cost();
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.munmap.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(150);
        return;
    };
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    cov!(h, "mm.munmap");
    cov_bucket!(
        h,
        "mm.munmap.pages",
        crate::dispatch::HCtx::size_class(pages)
    );
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
}

/// mprotect(vma): PTE rewrite plus shootdown for permission narrowing.
pub fn sys_mprotect(h: &mut HCtx, vma_sel: u64) {
    let cost = h.cost();
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.mprotect.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(150);
        return;
    };
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    cov!(h, "mm.mprotect");
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    let ptl = h.k.locks.page_table[h.slot];
    h.lock(mmap_sem);
    h.cpu(cost.vma_alloc / 2); // possible vma split
    h.lock(ptl);
    h.cpu(cost.pte_per_page * pages);
    h.unlock(ptl);
    h.push(KOp::Tlb { pages });
    h.unlock(mmap_sem);
}

/// madvise(vma, advice): DONTNEED zaps + flushes; WILLNEED prefaults;
/// everything else is advisory bookkeeping.
pub fn sys_madvise(h: &mut HCtx, vma_sel: u64, advice: u64) {
    let cost = h.cost();
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.madvise.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(120);
        return;
    };
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    match advice % 3 {
        0 => {
            // MADV_DONTNEED
            cov!(h, "mm.madvise.dontneed");
            let ptl = h.k.locks.page_table[h.slot];
            h.lock(mmap_sem);
            h.lock(ptl);
            h.cpu(cost.pte_per_page * pages);
            h.unlock(ptl);
            h.push(KOp::Tlb { pages });
            h.unlock(mmap_sem);
            let populated = h.k.state.slots[h.slot].vmas[vi].populated;
            h.free_pages(populated);
            h.k.state.slots[h.slot].vmas[vi].populated = 0;
        }
        1 => {
            // MADV_WILLNEED
            cov!(h, "mm.madvise.willneed");
            let v = h.k.state.slots[h.slot].vmas[vi];
            let want = (v.pages - v.populated).min(v.pages / 2 + 1);
            if !h.try_alloc_pages(want, "mm.madvise.willneed") {
                // Prefault failed; the mapping itself is untouched.
                fail!(h, Errno::ENOMEM, "mm.madvise.enomem");
                return;
            }
            h.mem(cost.page_touch * want.min(32));
            h.k.state.slots[h.slot].vmas[vi].populated += want;
        }
        _ => {
            cov!(h, "mm.madvise.advisory");
            h.lock(mmap_sem);
            h.cpu(300);
            h.unlock(mmap_sem);
        }
    }
}

/// brk(delta): grow or shrink the heap.
pub fn sys_brk(h: &mut HCtx, delta: u64) {
    let cost = h.cost();
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    let grow = delta % 64;
    if delta.is_multiple_of(2) {
        cov!(h, "mm.brk.grow");
        h.lock(mmap_sem);
        h.cpu(cost.vma_alloc / 2);
        h.unlock(mmap_sem);
        if !h.try_alloc_pages(grow.max(1), "mm.brk.grow") {
            // The break stays where it was.
            fail!(h, Errno::ENOMEM, "mm.brk.enomem");
            h.seq.result = h.k.state.slots[h.slot].brk_pages;
            return;
        }
        h.k.state.slots[h.slot].brk_pages += grow.max(1);
    } else {
        let shrink = grow.min(h.k.state.slots[h.slot].brk_pages / 2);
        if shrink > 0 {
            cov!(h, "mm.brk.shrink");
            let ptl = h.k.locks.page_table[h.slot];
            h.lock(mmap_sem);
            h.lock(ptl);
            h.cpu(cost.pte_per_page * shrink);
            h.unlock(ptl);
            h.push(KOp::Tlb { pages: shrink });
            h.unlock(mmap_sem);
            h.free_pages(shrink);
            h.k.state.slots[h.slot].brk_pages -= shrink;
        } else {
            cov!(h, "mm.brk.query");
            h.cpu(100);
        }
    }
    h.seq.result = h.k.state.slots[h.slot].brk_pages;
}

/// mremap(vma, new_len): move the mapping — PTE copy plus a shootdown of
/// the old range.
pub fn sys_mremap(h: &mut HCtx, vma_sel: u64, new_len: u64) {
    let cost = h.cost();
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.mremap.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(150);
        return;
    };
    let old_pages = h.k.state.slots[h.slot].vmas[vi].pages;
    let new_pages = (new_len % MAX_MAP_PAGES).max(1);
    cov!(h, "mm.mremap");
    cov_bucket!(
        h,
        "mm.mremap.pages",
        crate::dispatch::HCtx::size_class(new_pages)
    );
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    let ptl = h.k.locks.page_table[h.slot];
    h.lock(mmap_sem);
    h.cpu(cost.vma_alloc);
    h.lock(ptl);
    h.cpu(cost.pte_per_page * (old_pages + new_pages));
    h.unlock(ptl);
    h.push(KOp::Tlb { pages: old_pages });
    h.unlock(mmap_sem);
    if new_pages > old_pages {
        if !h.try_alloc_pages(new_pages - old_pages, "mm.mremap.grow") {
            // Growth failed: the mapping keeps its old size.
            fail!(h, Errno::ENOMEM, "mm.mremap.enomem");
            return;
        }
        h.k.state.slots[h.slot].vmas[vi].populated += new_pages - old_pages;
    }
    let v = &mut h.k.state.slots[h.slot].vmas[vi];
    v.pages = new_pages;
    v.populated = v.populated.min(new_pages);
    h.seq.result = vi as u64 + 1;
}

/// mlock(vma): populate + move pages to the unevictable list under the
/// LRU lock.
pub fn sys_mlock(h: &mut HCtx, vma_sel: u64) {
    let cost = h.cost();
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.mlock.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(120);
        return;
    };
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    cov!(h, "mm.mlock");
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    let lru = h.k.locks.lru;
    h.lock(mmap_sem);
    h.cpu(cost.vma_alloc / 2);
    h.unlock(mmap_sem);
    let need = pages - h.k.state.slots[h.slot].vmas[vi].populated;
    if !h.try_alloc_pages(need, "mm.mlock.populate") {
        // Nothing pinned; the vma stays unlocked.
        fail!(h, Errno::ENOMEM, "mm.mlock.enomem");
        return;
    }
    h.lock(lru);
    h.cpu(80 * pages.min(128));
    h.unlock(lru);
    let v = &mut h.k.state.slots[h.slot].vmas[vi];
    v.locked = true;
    v.populated = pages;
}

/// munlock(vma): return pages to the evictable lists.
pub fn sys_munlock(h: &mut HCtx, vma_sel: u64) {
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.munlock.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(120);
        return;
    };
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    cov!(h, "mm.munlock");
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    let lru = h.k.locks.lru;
    h.lock(mmap_sem);
    h.cpu(200);
    h.unlock(mmap_sem);
    h.lock(lru);
    h.cpu(60 * pages.min(128));
    h.unlock(lru);
    h.k.state.slots[h.slot].vmas[vi].locked = false;
    h.k.state.mm.lru_pages += pages / 2;
}

/// msync: flush this slot's share of dirty pages (shared-memory and
/// file-backed mappings).
pub fn sys_msync(h: &mut HCtx, vma_sel: u64) {
    let cost = h.cost();
    let dirty = h.k.state.mm.dirty_pages / (h.k.n_cores() as u64 * 4).max(1);
    if h.pick_vma(vma_sel).is_none() || dirty == 0 {
        cov!(h, "mm.msync.clean");
        h.cpu(250);
        return;
    }
    cov!(h, "mm.msync.flush");
    let pages = dirty.min(64);
    h.cpu(cost.writeback_base / 2 + cost.writeback_per_page * pages);
    h.push(KOp::Io {
        bytes: pages * 4096,
        write: true,
    });
    h.k.state.mm.dirty_pages = h.k.state.mm.dirty_pages.saturating_sub(pages);
}

/// mincore: page-table walk under `mmap_sem` read — a reader that rwsem
/// writers convoy behind.
pub fn sys_mincore(h: &mut HCtx, vma_sel: u64) {
    let Some(vi) = h.pick_vma(vma_sel) else {
        cov!(h, "mm.mincore.efault");
        h.seq.error = Some(Errno::EFAULT);
        h.cpu(120);
        return;
    };
    let pages = h.k.state.slots[h.slot].vmas[vi].pages;
    cov!(h, "mm.mincore");
    let mmap_sem = h.k.locks.mmap_sem[h.slot];
    h.push(KOp::Lock(mmap_sem, ksa_desim::LockMode::Shared));
    h.cpu(30 * pages as Ns + 200);
    h.push(KOp::Unlock(mmap_sem));
}
