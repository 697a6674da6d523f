//! Exact linear algebra for McNetKAT's `while`-loop solve.
//!
//! The paper's native backend solves `(I − Q)X = R` for the absorption
//! probabilities of the small-step Markov chain (§4, equation 2) using the
//! UMFPACK sparse LU library, in floats. This crate is the from-scratch
//! substitute, and it is exact:
//!
//! * the sparse SCC solve ([`AbsorbingChain::solve_sparse_scc`]): an
//!   optional symmetry quotient ([`lump`]), SCC condensation ([`scc`]),
//!   then per-component exact elimination over [`mcnetkat_num::Ratio`],
//! * dense exact Gaussian elimination ([`DenseMatrix`]), used for cyclic
//!   components and as the reference ([`AbsorbingChain::solve_exact`]),
//! * CSR sparse matrices and a Gauss–Seidel float solve, which only the
//!   PRISM-style approximate model checker uses
//!   ([`AbsorbingChain::solve_gauss_seidel`]).

#![forbid(unsafe_code)]

pub mod absorbing;
mod dense;
mod iterative;
pub mod lump;
pub mod scc;
mod sparse;

pub use absorbing::{AbsorbingChain, AbsorptionResult, SparseAbsorption};
pub use dense::DenseMatrix;
pub use iterative::{gauss_seidel, IterativeOptions};
pub use lump::{is_lumpable, refine, Partition};
pub use scc::{condense, Condensation};
pub use sparse::{CsrMatrix, Triplets};

/// Errors produced by solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically singular) at the given pivot.
    Singular(usize),
    /// An iterative method failed to converge within its budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch,
    /// The caller's interruption check asked the solver to stop early
    /// (cooperative cancellation / deadline budgets — see
    /// [`AbsorbingChain::solve_sparse_scc_interruptible`]). The partial
    /// solve is discarded; the caller maps this back onto its own typed
    /// abort error.
    Interrupted,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular(k) => write!(f, "singular matrix at pivot {k}"),
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
            LinalgError::Interrupted => write!(f, "solve interrupted by caller"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Cases of the direct solve of `(I − Q) X = R`, run against the exact
/// direct solvers: the sparse SCC solve and dense Gaussian elimination
/// (an LU factorisation, kept in place).
#[cfg(test)]
mod lu {
    mod tests {
        use crate::{AbsorbingChain, DenseMatrix, LinalgError};
        use mcnetkat_num::Ratio;

        fn r(n: i64, d: i64) -> Ratio {
            Ratio::new(n, d)
        }

        #[test]
        fn factors_identity() {
            // Q = 0: every transient state absorbs in one step, so
            // I − Q = I and the solution is R itself.
            let mut chain = AbsorbingChain::new(5);
            chain.set_absorbing(3);
            chain.set_absorbing(4);
            chain.add(0, 3, Ratio::one());
            chain.add(1, 3, r(1, 4));
            chain.add(1, 4, r(3, 4));
            chain.add(2, 4, Ratio::one());
            let sol = chain.solve_sparse_scc(false).unwrap();
            assert_eq!(
                sol.to_dense(),
                vec![
                    vec![Ratio::one(), Ratio::zero()],
                    vec![r(1, 4), r(3, 4)],
                    vec![Ratio::zero(), Ratio::one()],
                ]
            );
            assert_eq!(sol.scc_count(), 3);
        }

        #[test]
        fn solves_dense_system() {
            // A two-state cycle makes I − Q fully dense:
            //   a0 = ½ a1 + ½,  a1 = ⅓ a0 + ⅓  ⇒  a0 = 4/5, a1 = 3/5.
            let mut chain = AbsorbingChain::new(4);
            chain.set_absorbing(2);
            chain.set_absorbing(3);
            chain.add(0, 1, r(1, 2));
            chain.add(0, 2, r(1, 2));
            chain.add(1, 0, r(1, 3));
            chain.add(1, 2, r(1, 3));
            chain.add(1, 3, r(1, 3));
            let want = vec![vec![r(4, 5), r(1, 5)], vec![r(3, 5), r(2, 5)]];
            assert_eq!(chain.solve_exact().unwrap(), want);
            for lumping in [false, true] {
                let sol = chain.solve_sparse_scc(lumping).unwrap();
                assert_eq!(sol.to_dense(), want, "lumping={lumping}");
                assert_eq!(sol.scc_count(), 1);
            }
        }

        #[test]
        fn needs_pivoting() {
            // Zero on the diagonal forces a row swap.
            let a = DenseMatrix::from_rows(vec![
                vec![Ratio::zero(), Ratio::one()],
                vec![Ratio::from_integer(2), Ratio::zero()],
            ]);
            let x = a
                .solve(&[Ratio::from_integer(3), Ratio::from_integer(4)])
                .unwrap();
            assert_eq!(x, vec![Ratio::from_integer(2), Ratio::from_integer(3)]);
        }

        #[test]
        fn reports_singularity() {
            let a = DenseMatrix::from_rows(vec![
                vec![Ratio::one(), Ratio::zero()],
                vec![Ratio::from_integer(2), Ratio::zero()],
            ]);
            assert!(matches!(
                a.solve(&[Ratio::one(), Ratio::one()]),
                Err(LinalgError::Singular(_))
            ));
        }

        #[test]
        fn random_systems_match_dense_solver() {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            for trial in 0..20 {
                let nt = 2 + (trial % 8);
                let n = nt + 2;
                let mut chain = AbsorbingChain::new(n);
                chain.set_absorbing(nt);
                chain.set_absorbing(nt + 1);
                for s in 0..nt {
                    let mut weights: Vec<i64> = (0..n)
                        .map(|_| {
                            if rng.gen_bool(0.4) {
                                rng.gen_range(1..5)
                            } else {
                                0
                            }
                        })
                        .collect();
                    weights[nt + trial % 2] += 1;
                    let total: i64 = weights.iter().sum();
                    for (t, &w) in weights.iter().enumerate() {
                        chain.add(s, t, r(w, total));
                    }
                }
                let exact = chain.solve_exact().unwrap();
                for lumping in [false, true] {
                    let sol = chain.solve_sparse_scc(lumping).unwrap();
                    assert_eq!(sol.to_dense(), exact, "trial {trial}, lumping={lumping}");
                }
            }
        }

        #[test]
        fn residual_is_tiny_on_absorbing_style_system() {
            // The shape the loop solver produces: each state self-loops,
            // steps forward, and leaks to one of two absorbing states. The
            // residual of (I − Q) X = R is exactly zero.
            let nt = 50;
            let mut chain = AbsorbingChain::new(nt + 2);
            chain.set_absorbing(nt);
            chain.set_absorbing(nt + 1);
            let mut iq = DenseMatrix::identity(nt);
            let mut rhs = DenseMatrix::zeros(nt, 2);
            for s in 0..nt {
                let stay = r(3 + (s % 3) as i64, 30);
                let fwd = r(3, 10);
                let leak = &(&Ratio::one() - &stay) - &fwd;
                chain.add(s, s, stay.clone());
                iq.set(s, s, &Ratio::one() - &stay);
                if s + 1 < nt {
                    chain.add(s, s + 1, fwd.clone());
                    iq.set(s, s + 1, -fwd);
                } else {
                    chain.add(s, nt + 1, fwd.clone());
                    rhs.set(s, 1, fwd);
                }
                chain.add(s, nt, leak.clone());
                rhs.set(s, 0, leak);
            }
            let x = DenseMatrix::from_rows(chain.solve_sparse_scc(false).unwrap().to_dense());
            assert_eq!(iq.matmul(&x), rhs);
        }
    }
}
