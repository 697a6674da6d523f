//! An explicit-state DTMC model checker over translated automata — the
//! in-repo stand-in for the external PRISM tool.
//!
//! Builds the reachable state space `(pc, packet)` from an initial packet,
//! then computes the probability of reaching the accepting exit state,
//! either exactly (rational elimination — "PRISM exact") or approximately
//! (float Gauss–Seidel — "PRISM approx").

use crate::Automaton;
use mcnetkat_core::{Packet, Pred};
use mcnetkat_linalg::AbsorbingChain;
use mcnetkat_num::Ratio;
use std::collections::HashMap;

/// Which engine computes the reachability probability.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McMode {
    /// Exact rational arithmetic (PRISM's `-exact`).
    Exact,
    /// 64-bit floats with an iterative solver (PRISM's default).
    Approx,
}

/// The result of a reachability query.
#[derive(Clone, Debug)]
pub struct McResult {
    /// Probability of reaching the exit state with the accept predicate.
    pub probability: f64,
    /// Exact value, when run in [`McMode::Exact`].
    pub exact: Option<Ratio>,
    /// Number of explicit states explored.
    pub states: usize,
}

/// Computes `P [ F (pc = exit ∧ accept) ]` from `(entry, input)`.
///
/// # Errors
///
/// Returns an error string if the automaton is ill-formed (outgoing
/// probabilities that do not sum to one) or the solver fails.
pub fn check_reachability(
    auto: &Automaton,
    input: &Packet,
    accept: &Pred,
    mode: McMode,
) -> Result<McResult, String> {
    // 1. Enumerate reachable (pc, packet) states.
    let mut index: HashMap<(usize, Packet), usize> = HashMap::new();
    let mut states: Vec<(usize, Packet)> = Vec::new();
    let mut worklist: Vec<usize> = Vec::new();
    let mut intern = |st: (usize, Packet),
                      states: &mut Vec<(usize, Packet)>,
                      worklist: &mut Vec<usize>|
     -> usize {
        if let Some(&ix) = index.get(&st) {
            return ix;
        }
        let ix = states.len();
        index.insert(st.clone(), ix);
        states.push(st);
        worklist.push(ix);
        ix
    };
    intern((auto.entry, input.clone()), &mut states, &mut worklist);
    let mut rows: Vec<Vec<(usize, Ratio)>> = Vec::new();
    while let Some(ix) = worklist.pop() {
        let (pc, pk) = states[ix].clone();
        let mut row = Vec::new();
        if pc != auto.exit && pc != auto.sink {
            let mut total = Ratio::zero();
            for e in auto.outgoing(pc) {
                if !e.guard.eval(&pk) {
                    continue;
                }
                let mut next = pk.clone();
                for &(f, v) in &e.updates {
                    next.set(f, v);
                }
                let target = intern((e.dst, next), &mut states, &mut worklist);
                total += &e.prob;
                row.push((target, e.prob.clone()));
            }
            if !row.is_empty() && total != Ratio::one() {
                return Err(format!("state {pc} outgoing probability {total}"));
            }
        }
        if rows.len() <= ix {
            rows.resize(ix + 1, Vec::new());
        }
        rows[ix] = row;
    }
    let n = states.len();

    // 2. Absorbing chain: exit/sink states and dead ends absorb; states
    //    that cannot reach an absorbing state correspond to divergence
    //    (probability-0 delivery) and are redirected to a virtual sink.
    let virtual_sink = n;
    let mut chain = AbsorbingChain::new(n + 1);
    chain.set_absorbing(virtual_sink);
    let mut absorbing = vec![false; n + 1];
    absorbing[virtual_sink] = true;
    for (ix, row) in rows.iter().enumerate() {
        if row.is_empty() {
            chain.set_absorbing(ix);
            absorbing[ix] = true;
        }
    }
    // Backward reachability from absorbing states.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (s, row) in rows.iter().enumerate() {
        for (t, _) in row {
            rev[*t].push(s);
        }
    }
    let mut reaches = absorbing.clone();
    let mut stack: Vec<usize> = (0..=n).filter(|&s| absorbing[s]).collect();
    while let Some(s) = stack.pop() {
        for &p in &rev[s] {
            if !reaches[p] {
                reaches[p] = true;
                stack.push(p);
            }
        }
    }
    for (ix, row) in rows.iter().enumerate() {
        if absorbing[ix] {
            continue;
        }
        if !reaches[ix] {
            chain.add(ix, virtual_sink, Ratio::one());
            continue;
        }
        for (t, p) in row {
            let target = if reaches[*t] { *t } else { virtual_sink };
            chain.add(ix, target, p.clone());
        }
    }

    // 3. Sum absorption probabilities over accepting exit states.
    let accepting: Vec<usize> = (0..n)
        .filter(|&ix| {
            let (pc, pk) = &states[ix];
            absorbing[ix] && *pc == auto.exit && accept.eval(pk)
        })
        .collect();
    let start = index[&(auto.entry, input.clone())];
    if absorbing[start] {
        let hit = accepting.contains(&start);
        return Ok(McResult {
            probability: if hit { 1.0 } else { 0.0 },
            exact: Some(if hit { Ratio::one() } else { Ratio::zero() }),
            states: n,
        });
    }
    match mode {
        McMode::Exact => {
            let sol = chain.solve_exact().map_err(|e| e.to_string())?;
            // Compact transient rank of `start`.
            let rank = (0..start).filter(|&s| !absorbing[s]).count();
            let a_ranks: Vec<usize> = (0..=n).filter(|&s| absorbing[s]).collect();
            let mut total = Ratio::zero();
            for (col, &a) in a_ranks.iter().enumerate() {
                if accepting.contains(&a) {
                    total += &sol[rank][col];
                }
            }
            Ok(McResult {
                probability: total.to_f64(),
                exact: Some(total),
                states: n,
            })
        }
        McMode::Approx => {
            let sol = chain.solve_gauss_seidel().map_err(|e| e.to_string())?;
            let total: f64 = accepting.iter().map(|&a| sol.prob(start, a)).sum();
            Ok(McResult {
                probability: total,
                exact: None,
                states: n,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use mcnetkat_core::{Field, Prog};

    fn field(n: &str) -> Field {
        Field::named(n)
    }

    #[test]
    fn deterministic_program_reaches_exit() {
        let f = field("mc_f");
        let prog = Prog::assign(f, 1).seq(Prog::assign(f, 2));
        let auto = translate(&prog).unwrap();
        let r =
            check_reachability(&auto, &Packet::new(), &Pred::test(f, 2), McMode::Exact).unwrap();
        assert_eq!(r.exact, Some(Ratio::one()));
    }

    #[test]
    fn filter_sends_mass_to_sink() {
        let f = field("mc_f2");
        let prog = Prog::test(f, 1);
        let auto = translate(&prog).unwrap();
        let r = check_reachability(&auto, &Packet::new(), &Pred::t(), McMode::Exact).unwrap();
        assert_eq!(r.exact, Some(Ratio::zero()));
        let r2 = check_reachability(&auto, &Packet::new().with(f, 1), &Pred::t(), McMode::Exact)
            .unwrap();
        assert_eq!(r2.exact, Some(Ratio::one()));
    }

    #[test]
    fn probabilistic_choice_splits() {
        let f = field("mc_f3");
        let prog = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 4), Prog::assign(f, 2));
        let auto = translate(&prog).unwrap();
        let r =
            check_reachability(&auto, &Packet::new(), &Pred::test(f, 1), McMode::Exact).unwrap();
        assert_eq!(r.exact, Some(Ratio::new(1, 4)));
    }

    #[test]
    fn geometric_loop_exact_and_approx_agree() {
        let f = field("mc_f4");
        let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 3), Prog::skip());
        let prog = Prog::while_(Pred::test(f, 0), body);
        let auto = translate(&prog).unwrap();
        let exact =
            check_reachability(&auto, &Packet::new(), &Pred::test(f, 1), McMode::Exact).unwrap();
        let approx =
            check_reachability(&auto, &Packet::new(), &Pred::test(f, 1), McMode::Approx).unwrap();
        assert_eq!(exact.exact, Some(Ratio::one()));
        assert!((approx.probability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn divergent_loop_has_probability_zero() {
        let f = field("mc_f5");
        let prog = Prog::while_(Pred::test(f, 0), Prog::skip());
        let auto = translate(&prog).unwrap();
        let r = check_reachability(&auto, &Packet::new(), &Pred::t(), McMode::Exact).unwrap();
        assert_eq!(r.exact, Some(Ratio::zero()));
    }

    #[test]
    fn matches_fdd_backend_on_random_walk() {
        let f = field("mc_f6");
        let body = Prog::ite(
            Pred::test(f, 1),
            Prog::choice2(Prog::assign(f, 0), Ratio::new(1, 2), Prog::assign(f, 2)),
            Prog::drop(),
        );
        let prog = Prog::while_(Pred::test(f, 1), body);
        let auto = translate(&prog).unwrap();
        let r = check_reachability(
            &auto,
            &Packet::new().with(f, 1),
            &Pred::test(f, 2),
            McMode::Exact,
        )
        .unwrap();
        assert_eq!(r.exact, Some(Ratio::new(1, 2)));
        // Cross-check against the native backend.
        let mgr = mcnetkat_fdd::Manager::new();
        let fdd = mgr.compile(&prog).unwrap();
        let p = mgr.prob_matching(fdd, &Packet::new().with(f, 1), &Pred::test(f, 2));
        assert_eq!(p, Ratio::new(1, 2));
    }
}
