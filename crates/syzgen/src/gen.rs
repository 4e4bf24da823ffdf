//! Random program generation with resource threading.

use ksa_kernel::{Arg, Call, Program, SysNo};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::argspec::{arg_spec, constructor, produces, ArgSpec, Resource};

/// Generates random, resource-correct programs.
pub struct ProgramGenerator {
    rng: SmallRng,
    /// Inclusive min and exclusive max program length (before implicit
    /// constructor insertion).
    pub len_range: (usize, usize),
}

impl ProgramGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            len_range: (2, 10),
        }
    }

    /// Direct RNG access (shared with the mutator).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Generates one value for an argument spec, given the indices of
    /// earlier calls producing each resource.
    fn gen_arg(
        &mut self,
        spec: &ArgSpec,
        providers: &dyn Fn(Resource) -> Option<usize>,
    ) -> Option<Arg> {
        Some(match spec {
            ArgSpec::Any => Arg::Const(self.rng.gen()),
            ArgSpec::Range(lo, hi) => Arg::Const(self.rng.gen_range(*lo..*hi)),
            ArgSpec::Flags(set) => Arg::Const(*set.choose(&mut self.rng).unwrap()),
            ArgSpec::Len(max) => Arg::Const(self.rng.gen_range(1..*max)),
            ArgSpec::Pages(max) => Arg::Const(self.rng.gen_range(1..*max)),
            ArgSpec::Path => Arg::Const(self.rng.gen_range(0..32)),
            ArgSpec::Res(r) => Arg::Ref(providers(*r)?),
        })
    }

    /// Appends `no` to `prog`, inserting constructor calls for missing
    /// resources first (recursively).
    pub fn push_call(&mut self, prog: &mut Program, no: SysNo) {
        // Ensure every consumed resource has a provider.
        let needed: Vec<Resource> = arg_spec(no)
            .iter()
            .filter_map(|s| match s {
                ArgSpec::Res(r) => Some(*r),
                _ => None,
            })
            .collect();
        for res in needed {
            if find_provider(prog, res, &mut self.rng).is_none() {
                let ctor = constructor(res);
                self.push_call(prog, ctor);
            }
        }
        let mut args = Vec::new();
        // Borrow dance: capture provider lookups eagerly per spec.
        for spec in arg_spec(no) {
            let arg = match spec {
                ArgSpec::Res(r) => {
                    let p = find_provider(prog, *r, &mut self.rng)
                        .expect("constructor insertion guarantees a provider");
                    Arg::Ref(p)
                }
                other => self
                    .gen_arg(other, &|_| None)
                    .expect("non-resource args always generate"),
            };
            args.push(arg);
        }
        prog.calls.push(Call::new(no, args));
    }

    /// Generates a fresh random program.
    pub fn random_program(&mut self) -> Program {
        let len = self.rng.gen_range(self.len_range.0..self.len_range.1);
        let mut prog = Program::new();
        for _ in 0..len {
            let no = *SysNo::ALL.choose(&mut self.rng).unwrap();
            self.push_call(&mut prog, no);
        }
        debug_assert!(prog.refs_valid());
        prog
    }

    /// Generates a program biased toward one syscall category (used to
    /// build focused corpora such as the noise and networking corpora).
    pub fn random_program_in(&mut self, pool: &[SysNo]) -> Program {
        assert!(!pool.is_empty());
        let len = self.rng.gen_range(self.len_range.0..self.len_range.1);
        let mut prog = Program::new();
        for _ in 0..len {
            let no = *pool.choose(&mut self.rng).unwrap();
            self.push_call(&mut prog, no);
        }
        debug_assert!(prog.refs_valid());
        prog
    }
}

/// Finds a random earlier call in `prog` producing `res`.
pub fn find_provider(prog: &Program, res: Resource, rng: &mut SmallRng) -> Option<usize> {
    let candidates: Vec<usize> = prog
        .calls
        .iter()
        .enumerate()
        .filter(|(_, c)| produces(c.no) == Some(res))
        .map(|(i, _)| i)
        .collect();
    candidates.choose(rng).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_programs_are_resource_valid() {
        let mut g = ProgramGenerator::new(1);
        for _ in 0..200 {
            let p = g.random_program();
            assert!(p.refs_valid(), "invalid refs in:\n{}", p.render());
            assert!(!p.is_empty());
            // Every Res arg must point at a producer of the right kind.
            for call in &p.calls {
                for (spec, arg) in arg_spec(call.no).iter().zip(&call.args) {
                    if let (ArgSpec::Res(r), Arg::Ref(i)) = (spec, arg) {
                        assert_eq!(produces(p.calls[*i].no), Some(*r));
                    }
                }
            }
        }
    }

    #[test]
    fn consumers_get_constructors_inserted() {
        let mut g = ProgramGenerator::new(2);
        let mut p = Program::new();
        g.push_call(&mut p, SysNo::Read);
        // The read needs an fd: program must contain a producer first.
        assert!(p.calls.len() >= 2);
        assert!(p.calls.iter().any(|c| produces(c.no) == Some(Resource::Fd)));
        assert_eq!(p.calls.last().unwrap().no, SysNo::Read);
        assert!(p.refs_valid());
    }

    #[test]
    fn category_pools_stay_in_pool_or_constructors() {
        let mut g = ProgramGenerator::new(3);
        let pool = [SysNo::Read, SysNo::Write, SysNo::Fsync];
        let p = g.random_program_in(&pool);
        for c in &p.calls {
            assert!(
                pool.contains(&c.no) || produces(c.no).is_some(),
                "{} is neither pool nor constructor",
                c.no.name()
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_programs() {
        let mut a = ProgramGenerator::new(9);
        let mut b = ProgramGenerator::new(9);
        for _ in 0..20 {
            assert_eq!(a.random_program(), b.random_program());
        }
    }
}
