//! Syscall error codes.
//!
//! A compiled call either succeeds (`error == None`) or terminates on an
//! error path with one of these codes. Error paths are first-class
//! coverage targets: each is tagged with its own `err.`-prefixed basic
//! block (see [`crate::coverage`]) so the coverage-guided generator can
//! chase them the way Syzkaller chases fault-injection coverage.

/// The subset of errno values the simulated handlers produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Errno {
    /// Out of memory (buddy or slab allocation failure).
    ENOMEM,
    /// Block-device or journal I/O error.
    EIO,
    /// Resource temporarily unavailable (lock timeout, retryable).
    EAGAIN,
    /// Bad file descriptor.
    EBADF,
    /// Bad address / unmapped region selector.
    EFAULT,
    /// Invalid argument.
    EINVAL,
    /// Function not implemented — the syscall is outside a specialized
    /// instance's allowlist (the kernel does not carry its code).
    ENOSYS,
}

impl Errno {
    /// All codes, in a stable order.
    pub const ALL: [Errno; 7] = [
        Errno::ENOMEM,
        Errno::EIO,
        Errno::EAGAIN,
        Errno::EBADF,
        Errno::EFAULT,
        Errno::EINVAL,
        Errno::ENOSYS,
    ];

    /// The conventional Linux numeric code.
    pub fn code(self) -> i32 {
        match self {
            Errno::ENOMEM => 12,
            Errno::EIO => 5,
            Errno::EAGAIN => 11,
            Errno::EBADF => 9,
            Errno::EFAULT => 14,
            Errno::EINVAL => 22,
            Errno::ENOSYS => 38,
        }
    }

    /// Symbolic name.
    pub fn name(self) -> &'static str {
        match self {
            Errno::ENOMEM => "ENOMEM",
            Errno::EIO => "EIO",
            Errno::EAGAIN => "EAGAIN",
            Errno::EBADF => "EBADF",
            Errno::EFAULT => "EFAULT",
            Errno::EINVAL => "EINVAL",
            Errno::ENOSYS => "ENOSYS",
        }
    }
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_linux() {
        assert_eq!(Errno::ENOMEM.code(), 12);
        assert_eq!(Errno::EIO.code(), 5);
        assert_eq!(Errno::EAGAIN.code(), 11);
    }

    #[test]
    fn names_roundtrip_display() {
        for e in Errno::ALL {
            assert_eq!(format!("{e}"), e.name());
        }
    }
}
