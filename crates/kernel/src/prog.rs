//! Program representation: sequences of system calls with resource
//! dependencies.
//!
//! This is the exchange format between the coverage-guided generator
//! (`ksa-syzgen`), the measurement harness (`ksa-varbench`) and the kernel
//! dispatcher: a [`Program`] is a list of [`Call`]s whose arguments are
//! either constants or references to the *results* of earlier calls in the
//! same program (file descriptors, mapping addresses, IPC ids) — exactly
//! how Syzkaller programs thread resources.

use crate::syscalls::SysNo;

/// One argument of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A literal value.
    Const(u64),
    /// The result of the `usize`-th call in the same program.
    Ref(usize),
}

impl Arg {
    /// Resolves the argument against the per-execution result table.
    pub fn resolve(self, results: &[u64]) -> u64 {
        match self {
            Arg::Const(v) => v,
            Arg::Ref(i) => results.get(i).copied().unwrap_or(0),
        }
    }
}

/// One system call with its arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Which call.
    pub no: SysNo,
    /// Arguments; meaning is per-syscall (see `dispatch`).
    pub args: Vec<Arg>,
}

impl Call {
    /// Convenience constructor.
    pub fn new(no: SysNo, args: Vec<Arg>) -> Self {
        Self { no, args }
    }

    /// The indices of earlier calls this call depends on.
    pub fn deps(&self) -> impl Iterator<Item = usize> + '_ {
        self.args.iter().filter_map(|a| match a {
            Arg::Ref(i) => Some(*i),
            Arg::Const(_) => None,
        })
    }
}

/// A program: an ordered list of calls, executed back to back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The calls, in execution order.
    pub calls: Vec<Call>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True when the program has no calls.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Validates resource references: every `Ref(i)` must point to an
    /// earlier call.
    pub fn refs_valid(&self) -> bool {
        self.calls
            .iter()
            .enumerate()
            .all(|(idx, c)| c.deps().all(|d| d < idx))
    }

    /// Removes the call at `idx`, dropping or rewiring later references:
    /// references to `idx` become `Const(0)`; references beyond shift
    /// down. Used by the corpus minimizer.
    pub fn remove_call(&self, idx: usize) -> Program {
        let mut out = Program::new();
        self.remove_call_into(idx, &mut out);
        out
    }

    /// [`Program::remove_call`] written over `out`, reusing its call and
    /// argument vectors instead of allocating new ones.
    pub fn remove_call_into(&self, idx: usize, out: &mut Program) {
        let kept = self.calls.iter().enumerate().filter(|&(i, _)| i != idx);
        let mut len = 0;
        for (_, call) in kept {
            if len == out.calls.len() {
                out.calls.push(Call::new(call.no, Vec::new()));
            }
            let dst = &mut out.calls[len];
            dst.no = call.no;
            dst.args.clear();
            dst.args.extend(call.args.iter().map(|a| match *a {
                Arg::Ref(r) if r == idx => Arg::Const(0),
                Arg::Ref(r) if r > idx => Arg::Ref(r - 1),
                other => other,
            }));
            len += 1;
        }
        out.calls.truncate(len);
    }

    /// A short human-readable rendering (one call per line).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, c) in self.calls.iter().enumerate() {
            s.push_str(&format!("r{i} = {}(", c.no.name()));
            for (j, a) in c.args.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                match a {
                    Arg::Const(v) => s.push_str(&format!("{v:#x}")),
                    Arg::Ref(r) => s.push_str(&format!("r{r}")),
                }
            }
            s.push_str(")\n");
        }
        s
    }
}

impl SysNo {
    /// Stable index of the call in [`SysNo::ALL`]. `ALL` lists the
    /// variants in declaration order, so the index is the discriminant —
    /// pinned by `sysno_all_is_declaration_order`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A corpus: programs plus bookkeeping produced by the generator.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// The programs, in generation order.
    pub programs: Vec<Program>,
}

impl Corpus {
    /// Total number of calls across all programs (the paper reports
    /// 27,408 for its Syzkaller corpus).
    pub fn total_calls(&self) -> usize {
        self.programs.iter().map(|p| p.len()).sum()
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when the corpus has no programs.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        Program {
            calls: vec![
                Call::new(SysNo::Open, vec![Arg::Const(3), Arg::Const(0)]),
                Call::new(SysNo::Read, vec![Arg::Ref(0), Arg::Const(4096)]),
                Call::new(SysNo::Close, vec![Arg::Ref(0)]),
            ],
        }
    }

    /// `SysNo::index` casts the discriminant, which is only correct while
    /// `SysNo::ALL` lists the variants in declaration order. Pin that.
    #[test]
    fn sysno_all_is_declaration_order() {
        for (i, &no) in SysNo::ALL.iter().enumerate() {
            assert_eq!(no as usize, i, "SysNo::ALL[{i}] = {no:?} out of order");
            assert_eq!(no.index(), i);
        }
    }

    #[test]
    fn resolve_consts_and_refs() {
        let results = [7u64, 8, 9];
        assert_eq!(Arg::Const(42).resolve(&results), 42);
        assert_eq!(Arg::Ref(1).resolve(&results), 8);
        assert_eq!(
            Arg::Ref(10).resolve(&results),
            0,
            "missing ref defaults to 0"
        );
    }

    #[test]
    fn refs_valid_accepts_forward_only() {
        assert!(sample_program().refs_valid());
        let bad = Program {
            calls: vec![Call::new(SysNo::Read, vec![Arg::Ref(0)])],
        };
        assert!(!bad.refs_valid(), "self-reference must be rejected");
    }

    #[test]
    fn remove_call_rewires_refs() {
        let p = sample_program();
        // Remove the open; reads/closes of its fd fall back to Const(0).
        let q = p.remove_call(0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.calls[0].args[0], Arg::Const(0));
        assert!(q.refs_valid());

        // Remove the middle call; the close's ref shifts from 0 to 0.
        let r = p.remove_call(1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.calls[1].args[0], Arg::Ref(0));
        assert!(r.refs_valid());
    }

    #[test]
    fn remove_call_into_overwrites_any_scratch() {
        let p = sample_program();
        // A longer, unrelated scratch is overwritten and truncated.
        let mut scratch = Program {
            calls: vec![Call::new(SysNo::Getpid, vec![Arg::Const(7); 4]); 6],
        };
        for idx in [2, 0, 1] {
            p.remove_call_into(idx, &mut scratch);
            assert_eq!(scratch, p.remove_call(idx));
        }
    }

    #[test]
    fn corpus_counts_calls() {
        let c = Corpus {
            programs: vec![sample_program(), sample_program()],
        };
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_calls(), 6);
    }

    #[test]
    fn render_shows_resources() {
        let s = sample_program().render();
        assert!(s.contains("r0 = open("));
        assert!(s.contains("read(r0"));
    }
}
