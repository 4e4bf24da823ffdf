//! The fault-site table: every failable point of the simulated kernel.
//!
//! Handlers name a site with [`fault_site!`](crate::fault_site), which
//! resolves the literal with a `const fn` lookup, so each site's
//! [`FaultSite`] is a constant and a name missing from the table fails the
//! build at the call. A site's id is its position here.
//!
//! The table is sorted by `(kind, name)`, which a build-time check
//! enforces, so [`all`] walks sites in the order the fault phase probes
//! them. Fault verdicts hash a site's kind and name, never its id, so
//! reordering the table cannot move a verdict.

use ksa_desim::FaultKind::{self, AllocFail, IoError, LockTimeout};
pub use ksa_desim::FaultSite;

use crate::coverage::bytes_eq;

/// Every failable point, sorted by `(kind, name)`; the id of `SITES[i]`
/// is `i`.
const SITES: &[(FaultKind, &str)] = &[
    (AllocFail, "fs.create.inode"),
    (AllocFail, "fs.path_walk.dentry"),
    (AllocFail, "io.read.pages"),
    (AllocFail, "io.write.pages"),
    (AllocFail, "ipc.eventfd.ctx"),
    (AllocFail, "ipc.msgget.queue"),
    (AllocFail, "ipc.msgsnd.msg"),
    (AllocFail, "ipc.pipe2.buffer"),
    (AllocFail, "ipc.pipe2.inode"),
    (AllocFail, "ipc.semget.set"),
    (AllocFail, "ipc.shmat.pages"),
    (AllocFail, "ipc.shmget.seg"),
    (AllocFail, "mm.brk.grow"),
    (AllocFail, "mm.madvise.willneed"),
    (AllocFail, "mm.mlock.populate"),
    (AllocFail, "mm.mmap.populate"),
    (AllocFail, "mm.mmap.vma"),
    (AllocFail, "mm.mremap.grow"),
    (AllocFail, "net.accept.sock"),
    (AllocFail, "net.connect.skb"),
    (AllocFail, "net.epoll.ctx"),
    (AllocFail, "net.listen.backlog"),
    (AllocFail, "net.sendto.skb"),
    (AllocFail, "net.socket.sock"),
    (AllocFail, "sched.clone.stack"),
    (AllocFail, "sched.clone.task"),
    (IoError, "fs.inode_read"),
    (IoError, "io.fsync.data"),
    (IoError, "io.fsync.journal_io"),
    (IoError, "io.read.disk"),
    (IoError, "io.write.writeback"),
    (IoError, "net.sendto.nic"),
    (LockTimeout, "fs.create.journal"),
    (LockTimeout, "fs.rename.journal"),
    (LockTimeout, "fs.rename.mutex"),
    (LockTimeout, "fs.truncate.journal"),
    (LockTimeout, "fs.unlink.journal"),
    (LockTimeout, "io.fallocate.journal"),
    (LockTimeout, "io.fsync.journal"),
    (LockTimeout, "io.write.journal"),
    (LockTimeout, "mm.mmap.mmap_sem"),
    (LockTimeout, "net.bind.bucket"),
    (LockTimeout, "net.connect.bucket"),
    (LockTimeout, "net.recvfrom.bucket"),
    (LockTimeout, "net.sendto.bucket"),
    (LockTimeout, "net.shutdown.bucket"),
];

/// Byte-wise `a < b`: the order `str`'s `Ord` gives.
const fn bytes_lt(a: &[u8], b: &[u8]) -> bool {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

const fn position(name: &str) -> Option<usize> {
    let mut i = 0;
    while i < SITES.len() {
        if bytes_eq(SITES[i].1.as_bytes(), name.as_bytes()) {
            return Some(i);
        }
        i += 1;
    }
    None
}

// Checked at build time: strictly increasing `(kind, name)` order, and
// no name under two kinds, so `site(name)` is unambiguous and every id
// names one site.
const _: () = {
    let mut i = 0;
    while i < SITES.len() {
        if i > 0 {
            let ((ka, a), (kb, b)) = (SITES[i - 1], SITES[i]);
            assert!(
                (ka as u8) < (kb as u8)
                    || ((ka as u8) == (kb as u8) && bytes_lt(a.as_bytes(), b.as_bytes())),
                "fault sites must be sorted by (kind, name), each listed once"
            );
        }
        assert!(
            matches!(position(SITES[i].1), Some(j) if j == i),
            "a fault-site name is listed under two kinds"
        );
        i += 1;
    }
    assert!(SITES.len() <= u16::MAX as usize);
};

const fn at(i: usize) -> FaultSite {
    FaultSite {
        id: i as u16,
        kind: SITES[i].0,
        name: SITES[i].1,
    }
}

/// The site named `name`. [`fault_site!`](crate::fault_site) evaluates it
/// at compile time.
///
/// # Panics
///
/// When `name` is not in the table (a build error at a macro site).
pub const fn site(name: &str) -> FaultSite {
    match position(name) {
        Some(i) => at(i),
        None => panic!("not a fault site: add the name to the table in fault_sites.rs"),
    }
}

/// Every site, in table (`(kind, name)`) order.
pub fn all() -> impl Iterator<Item = FaultSite> {
    (0..SITES.len()).map(at)
}

/// The [`FaultSite`] of a table entry, as a constant:
/// `fault_site!("mm.mmap.vma")`.
///
/// ```
/// let site = ksa_kernel::fault_site!("mm.mmap.vma");
/// assert_eq!(site.name, "mm.mmap.vma");
/// assert_eq!(site.kind, ksa_desim::FaultKind::AllocFail);
/// ```
///
/// A name missing from the table is a build error at the call:
///
/// ```compile_fail
/// let site = ksa_kernel::fault_site!("mm.alloc");
/// ```
#[macro_export]
macro_rules! fault_site {
    ($name:literal) => {{
        const SITE: $crate::fault_sites::FaultSite = $crate::fault_sites::site($name);
        SITE
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_site_round_trips_its_name() {
        let sites: Vec<FaultSite> = all().collect();
        assert_eq!(sites.len(), 46);
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id as usize, i, "id is the table position");
            assert_eq!(site(s.name), *s);
        }
    }
}
