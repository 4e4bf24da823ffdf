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

    /// Appends `no` to `prog`, inserting constructor calls for missing
    /// resources first (recursively).
    pub fn push_call(&mut self, prog: &mut Program, no: SysNo) {
        let specs = arg_spec(no);
        // Ensure every consumed resource has a provider.
        for spec in specs {
            if let ArgSpec::Res(r) = *spec {
                if find_provider(&prog.calls, r, &mut self.rng).is_none() {
                    self.push_call(prog, constructor(r));
                }
            }
        }
        let mut args = Vec::with_capacity(specs.len());
        for spec in specs {
            let arg = match *spec {
                ArgSpec::Res(r) => Arg::Ref(
                    find_provider(&prog.calls, r, &mut self.rng)
                        .expect("constructor insertion guarantees a provider"),
                ),
                _ => Arg::Const(gen_const(spec, &mut self.rng)),
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

/// Draws a constant for a non-resource argument spec. An
/// [`ArgSpec::Res`] takes a reference, not a constant: callers resolve it
/// with [`find_provider`] instead.
pub(crate) fn gen_const(spec: &ArgSpec, rng: &mut SmallRng) -> u64 {
    match *spec {
        ArgSpec::Any => rng.gen(),
        ArgSpec::Range(lo, hi) => rng.gen_range(lo..hi),
        ArgSpec::Flags(set) => *set.choose(rng).unwrap(),
        ArgSpec::Len(max) | ArgSpec::Pages(max) => rng.gen_range(1..max),
        ArgSpec::Path => rng.gen_range(0..32),
        ArgSpec::Res(r) => panic!("{r:?} is a resource, not a constant"),
    }
}

/// Picks a random call among `calls` producing `res` and returns its
/// index. Draws exactly what `SliceRandom::choose` draws over the
/// producers' indices (one `gen_range(0..n)`, nothing when there are
/// none) without collecting them.
pub fn find_provider(calls: &[Call], res: Resource, rng: &mut SmallRng) -> Option<usize> {
    let producers = || {
        calls
            .iter()
            .enumerate()
            .filter(move |(_, c)| produces(c.no) == Some(res))
            .map(|(i, _)| i)
    };
    match producers().count() {
        0 => None,
        n => producers().nth(rng.gen_range(0..n)),
    }
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
