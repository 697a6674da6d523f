//! Table-driven solver parity: every loop solver must produce the same
//! absorption probabilities over a set of named fixtures chosen to
//! exercise the structural corners — self-loops, disconnected transient
//! islands with separate absorbing classes, and explicitly-added
//! zero-probability edges. The exact dense solve is the reference: the
//! sparse SCC solve (lumping off and on) must equal it exactly, the
//! Gauss–Seidel approximation must agree within 1e-9, and every solver
//! must report the same absorbing-state set.

use mcnetkat_linalg::AbsorbingChain;
use mcnetkat_num::Ratio;

#[derive(Clone, Copy, Debug)]
enum Solver {
    SparseScc { lumping: bool },
    GaussSeidel,
}

const SOLVERS: [Solver; 3] = [
    Solver::SparseScc { lumping: false },
    Solver::SparseScc { lumping: true },
    Solver::GaussSeidel,
];

/// A solver's answer: its absorbing states, in rank order, and
/// `probs[s][k]`, the probability that state `s` (original id) absorbs in
/// the `k`-th of them.
struct Answer {
    absorbing: Vec<usize>,
    probs: Vec<Vec<f64>>,
}

fn solve(name: &str, chain: &AbsorbingChain, solver: Solver) -> Answer {
    let n = chain.len();
    let (absorbing, probs): (Vec<usize>, Vec<Vec<f64>>) = match solver {
        Solver::SparseScc { lumping } => {
            let sol = chain
                .solve_sparse_scc(lumping)
                .unwrap_or_else(|e| panic!("fixture {name}: {solver:?} failed: {e:?}"));
            let exact = chain.solve_exact().unwrap();
            assert_eq!(
                sol.to_dense(),
                exact,
                "fixture {name}: {solver:?} not exact"
            );
            let abs = sol.absorbing_states().to_vec();
            let probs = (0..n)
                .map(|s| abs.iter().map(|&a| sol.prob(s, a).to_f64()).collect())
                .collect();
            (abs, probs)
        }
        Solver::GaussSeidel => {
            let sol = chain
                .solve_gauss_seidel()
                .unwrap_or_else(|e| panic!("fixture {name}: {solver:?} failed: {e:?}"));
            let abs = sol.absorbing_states().to_vec();
            let probs = (0..n)
                .map(|s| abs.iter().map(|&a| sol.prob(s, a)).collect())
                .collect();
            (abs, probs)
        }
    };
    Answer { absorbing, probs }
}

/// A lazy gambler's ruin: every transient state self-loops with ½ and
/// otherwise moves one step towards ruin (3) or fortune (4).
fn self_loops() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(5);
    chain.set_absorbing(3);
    chain.set_absorbing(4);
    chain.add(0, 0, Ratio::new(1, 2));
    chain.add(0, 3, Ratio::new(1, 4));
    chain.add(0, 1, Ratio::new(1, 4));
    chain.add(1, 1, Ratio::new(1, 2));
    chain.add(1, 0, Ratio::new(1, 4));
    chain.add(1, 2, Ratio::new(1, 4));
    chain.add(2, 2, Ratio::new(1, 2));
    chain.add(2, 1, Ratio::new(1, 4));
    chain.add(2, 4, Ratio::new(1, 4));
    chain
}

/// Two disjoint transient islands absorbing into disjoint classes — the
/// transient graph is disconnected and the (I−Q) system is block
/// diagonal. States 0,1 reach only {4,5}; states 2,3 reach only {6}.
fn disconnected_islands() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(7);
    for a in 4..7 {
        chain.set_absorbing(a);
    }
    chain.add(0, 1, Ratio::new(2, 3));
    chain.add(0, 4, Ratio::new(1, 3));
    chain.add(1, 0, Ratio::new(1, 2));
    chain.add(1, 5, Ratio::new(1, 2));
    chain.add(2, 3, Ratio::new(3, 4));
    chain.add(2, 6, Ratio::new(1, 4));
    chain.add(3, 2, Ratio::new(1, 5));
    chain.add(3, 6, Ratio::new(4, 5));
    chain
}

/// Explicit zero-probability edges interleaved with real ones: the zeros
/// must be treated as absent by every backend (no spurious structure, no
/// division hazards), including a zero self-loop and a zero edge into an
/// otherwise-unreachable absorbing state.
fn zero_probability_edge() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(5);
    chain.set_absorbing(3);
    chain.set_absorbing(4);
    chain.add(0, 0, Ratio::zero());
    chain.add(0, 1, Ratio::new(1, 2));
    chain.add(0, 3, Ratio::new(1, 2));
    chain.add(1, 4, Ratio::zero());
    chain.add(1, 0, Ratio::new(1, 3));
    chain.add(1, 3, Ratio::new(2, 3));
    chain.add(2, 2, Ratio::zero());
    chain.add(2, 3, Ratio::one());
    chain
}

/// A two-state cycle whose only exit is through its second state — the
/// smallest genuinely cyclic fixture (non-trivial SCC).
fn cycle_with_exit() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(3);
    chain.set_absorbing(2);
    chain.add(0, 1, Ratio::one());
    chain.add(1, 0, Ratio::new(2, 3));
    chain.add(1, 2, Ratio::new(1, 3));
    chain
}

fn fixtures() -> Vec<(&'static str, AbsorbingChain)> {
    vec![
        ("self_loops", self_loops()),
        ("disconnected_islands", disconnected_islands()),
        ("zero_probability_edge", zero_probability_edge()),
        ("cycle_with_exit", cycle_with_exit()),
    ]
}

#[test]
fn every_backend_agrees_on_every_fixture() {
    for (name, chain) in fixtures() {
        let exact = chain.solve_exact().unwrap_or_else(|e| {
            panic!("fixture {name}: exact solve failed: {e:?}");
        });
        let n = chain.len();
        let nt = exact.len();
        for solver in SOLVERS {
            let answer = solve(name, &chain, solver);
            // Identical absorbing-state sets, in the same compact order.
            let absorbing: Vec<usize> = (nt..n).collect();
            assert_eq!(
                answer.absorbing, absorbing,
                "fixture {name}: {solver:?} absorbing set"
            );
            // Identical probabilities, for transient *and* absorbing rows
            // (state ids, not row positions — absorbing rows have no
            // `exact` entry and must read back as point masses).
            for s in 0..n {
                for (k, &a) in absorbing.iter().enumerate() {
                    let want = match exact.get(s) {
                        Some(row) => row[a - nt].to_f64(),
                        None if s == a => 1.0,
                        None => 0.0,
                    };
                    let got = answer.probs[s][k];
                    assert!(
                        (want - got).abs() < 1e-9,
                        "fixture {name}: {solver:?} prob({s}, {a}) = {got}, want {want}"
                    );
                }
            }
        }
    }
}

/// Absorption is total on every fixture: each transient row of every
/// solver sums to 1 (nothing is trapped, nothing leaks) — exactly, for
/// the exact solves.
#[test]
fn every_backend_conserves_mass() {
    for (name, chain) in fixtures() {
        for lumping in [false, true] {
            let sol = chain.solve_sparse_scc(lumping).unwrap();
            for t in 0..sol.num_transient() {
                let mass: Ratio = sol.sparse_row(t).iter().map(|(_, p)| p.clone()).sum();
                assert_eq!(
                    mass,
                    Ratio::one(),
                    "fixture {name}: lumping={lumping} rank {t}"
                );
            }
        }
        for solver in SOLVERS {
            let answer = solve(name, &chain, solver);
            let nt = chain.len() - answer.absorbing.len();
            for s in 0..nt {
                let mass: f64 = answer.probs[s].iter().sum();
                assert!(
                    (mass - 1.0).abs() < 1e-9,
                    "fixture {name}: {solver:?} row {s} mass {mass}"
                );
            }
        }
    }
}
