//! Program mutation operators.

use ksa_kernel::{Arg, Program, SysNo};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::argspec::{arg_spec, ArgSpec};
use crate::gen::{find_provider, gen_const, ProgramGenerator};

/// Applies one random mutation to `prog`, returning the mutant.
pub fn mutate(gen: &mut ProgramGenerator, prog: &Program, corpus: &[Program]) -> Program {
    let choice = gen.rng().gen_range(0..4u32);
    match choice {
        0 => insert_call(gen, prog),
        1 => remove_call(gen, prog),
        2 => mutate_arg(gen, prog),
        _ => splice(gen, prog, corpus),
    }
}

/// Inserts a random call at the end (constructors added as needed).
fn insert_call(gen: &mut ProgramGenerator, prog: &Program) -> Program {
    let mut p = prog.clone();
    let no = *SysNo::ALL.choose(gen.rng()).unwrap();
    gen.push_call(&mut p, no);
    p
}

/// Removes one random call, rewiring references.
fn remove_call(gen: &mut ProgramGenerator, prog: &Program) -> Program {
    if prog.is_empty() {
        return gen.random_program();
    }
    let idx = gen.rng().gen_range(0..prog.len());
    let p = prog.remove_call(idx);
    if p.is_empty() {
        gen.random_program()
    } else {
        p
    }
}

/// Re-generates one argument of one call.
fn mutate_arg(gen: &mut ProgramGenerator, prog: &Program) -> Program {
    if prog.is_empty() {
        return gen.random_program();
    }
    let mut p = prog.clone();
    let ci = gen.rng().gen_range(0..p.len());
    let no = p.calls[ci].no;
    let specs = arg_spec(no);
    if specs.is_empty() {
        return p;
    }
    let ai = gen.rng().gen_range(0..specs.len());
    let new = match specs[ai] {
        // Re-point at a different provider among calls before ci.
        ArgSpec::Res(r) => match find_provider(&p.calls[..ci], r, gen.rng()) {
            Some(i) => Arg::Ref(i),
            None => return p, // keep as is
        },
        ref spec => Arg::Const(gen_const(spec, gen.rng())),
    };
    if ai < p.calls[ci].args.len() {
        p.calls[ci].args[ai] = new;
    }
    p
}

/// Concatenates a random corpus program after this one, shifting its
/// references.
fn splice(gen: &mut ProgramGenerator, prog: &Program, corpus: &[Program]) -> Program {
    let Some(other) = corpus.choose(gen.rng()) else {
        return insert_call(gen, prog);
    };
    let mut p = prog.clone();
    let offset = p.len();
    for call in &other.calls {
        let args = call
            .args
            .iter()
            .map(|a| match a {
                Arg::Ref(i) => Arg::Ref(i + offset),
                c => *c,
            })
            .collect();
        p.calls.push(ksa_kernel::Call::new(call.no, args));
    }
    // Cap program length so splices don't balloon.
    if p.len() > 24 {
        p.calls.truncate(24);
        sanitize(&mut p);
    }
    p
}

/// Drops dangling references after truncation.
fn sanitize(p: &mut Program) {
    let n = p.len();
    for (idx, call) in p.calls.iter_mut().enumerate() {
        for a in &mut call.args {
            if let Arg::Ref(i) = a {
                if *i >= idx || *i >= n {
                    *a = Arg::Const(0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutants_stay_reference_valid() {
        let mut g = ProgramGenerator::new(4);
        let corpus: Vec<Program> = (0..10).map(|_| g.random_program()).collect();
        for seed_prog in &corpus {
            let mut p = seed_prog.clone();
            for _ in 0..50 {
                p = mutate(&mut g, &p, &corpus);
                assert!(p.refs_valid(), "invalid mutant:\n{}", p.render());
                assert!(!p.is_empty());
                assert!(p.len() <= 24 + 8, "runaway growth: {}", p.len());
            }
        }
    }

    #[test]
    fn sanitize_kills_dangling_refs() {
        let mut p = Program {
            calls: vec![
                ksa_kernel::Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                ksa_kernel::Call::new(SysNo::Read, vec![Arg::Ref(5), Arg::Const(100)]),
            ],
        };
        sanitize(&mut p);
        assert!(p.refs_valid());
        assert_eq!(p.calls[1].args[0], Arg::Const(0));
    }
}
