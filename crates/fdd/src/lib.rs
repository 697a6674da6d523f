//! Probabilistic forwarding decision diagrams: McNetKAT's native backend.
//!
//! This crate implements §5.1 of the paper: compilation of guarded
//! ProbNetKAT programs to hash-consed probabilistic FDDs, with `while`
//! loops solved in closed form via absorbing Markov chains (§4) over a
//! dynamically reduced symbolic-packet domain.
//!
//! # Pipeline (Figure 5)
//!
//! ```text
//! Prog ──compile──▶ probabilistic FDD ──(loops)──▶ sparse (I−Q)X=R solve
//!                        ▲                                   │
//!                        └──────────── rebuild ◀─────────────┘
//! ```
//!
//! # Examples
//!
//! ```
//! use mcnetkat_core::{Field, Packet, Pred, Prog};
//! use mcnetkat_fdd::Manager;
//! use mcnetkat_num::Ratio;
//!
//! let mgr = Manager::new();
//! let f = Field::named("doc_fdd_f");
//! // A loop that exits with probability 1: closed form, not approximation.
//! let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::skip());
//! let prog = Prog::while_(Pred::test(f, 0), body);
//! let fdd = mgr.compile(&prog)?;
//! assert_eq!(mgr.prob_delivery(fdd, &Packet::new()), Ratio::one());
//! # Ok::<(), mcnetkat_fdd::CompileError>(())
//! ```

#![forbid(unsafe_code)]

mod action;
mod budget;
mod compile;
mod export;
#[cfg(feature = "failpoints")]
pub mod failpoints;
mod loops;
mod manager;
mod query;
mod sympkt;

pub use action::{Action, ActionDist};
pub use budget::{Budget, CancelToken};
pub use compile::{CompileError, CompileOptions};
pub use export::FddExport;
pub(crate) use manager::Node;
#[cfg(feature = "audit")]
pub use manager::{AuditReport, AuditViolation};
pub use manager::{
    Fdd, GovernorGuard, LoopSolveStats, Manager, OpCacheEntry, OpCacheStats, ScratchField,
    WhileCacheStats,
};
// Re-exported because `CompileError::Solver` carries it: downstream
// crates can match on solver failures without a direct linalg dependency.
pub use mcnetkat_linalg::LinalgError;
pub use query::{OutputDist, SymOutputDist};
pub use sympkt::{step, Domain, SymPkt};

/// Whether this build was compiled with the `audit` feature (and thus
/// pays for `Manager::audit`'s machinery — the method only exists under
/// the feature, so no intra-doc link — plus any downstream self-auditing
/// compile hooks). Release benches assert this is `false` so the auditor
/// can never silently tax a measured hot path.
pub const AUDIT_ENABLED: bool = cfg!(feature = "audit");

/// Whether this build was compiled with the `failpoints` feature (and thus
/// carries the deterministic fault-injection registry in the `failpoints`
/// module — which only exists under the feature, so no intra-doc link).
/// Release benches assert this is `false`, exactly like
/// [`AUDIT_ENABLED`], so injected faults and their bookkeeping can never
/// leak into a measured hot path.
pub const FAILPOINTS_ENABLED: bool = cfg!(feature = "failpoints");

/// Big-step checks of the "Convert" arrow of Figure 5: one exact
/// distribution row per input class of the diagram's dynamic domain
/// (§5.1), read straight from [`Manager::sym_output_dist`].
#[cfg(test)]
mod matrix {
    mod tests {
        use crate::{Manager, SymOutputDist, SymPkt};
        use mcnetkat_core::{Field, Pred, Prog};
        use mcnetkat_num::Ratio;

        /// The input classes of `prog`'s diagram with their output rows.
        fn rows(mgr: &Manager, prog: &Prog) -> Vec<(SymPkt, SymOutputDist)> {
            let fdd = mgr.compile(prog).unwrap();
            let rows: Vec<_> = mgr
                .domain(fdd)
                .input_classes()
                .into_iter()
                .map(|c| {
                    let row = mgr.sym_output_dist(fdd, &c);
                    (c, row)
                })
                .collect();
            for (class, row) in &rows {
                let mass: Ratio = row.values().cloned().sum();
                assert_eq!(mass, Ratio::one(), "row {class} is not stochastic");
            }
            rows
        }

        #[test]
        fn figure_5_example_matrix() {
            // The program of Figure 5: a port-cycling switch.
            let pt = Field::named("mx_pt");
            let mgr = Manager::new();
            let prog = Prog::case(
                vec![
                    (
                        Pred::test(pt, 1),
                        Prog::choice2(Prog::assign(pt, 2), Ratio::new(1, 2), Prog::assign(pt, 3)),
                    ),
                    (Pred::test(pt, 2), Prog::assign(pt, 1)),
                    (Pred::test(pt, 3), Prog::assign(pt, 1)),
                ],
                Prog::drop(),
            );
            let rows = rows(&mgr, &prog);
            // Four input classes: pt ∈ {1, 2, 3, *}.
            assert_eq!(rows.len(), 4);
            // The pt=1 row splits ½/½; the wildcard row drops.
            let row = |v| &rows.iter().find(|(c, _)| c.get(pt) == v).unwrap().1;
            assert_eq!(row(Some(1)).len(), 2);
            assert_eq!(row(None).get(&None), Some(&Ratio::one()));
            // Sparse: 5 non-zeros, matching Figure 5.
            assert_eq!(rows.iter().map(|(_, r)| r.len()).sum::<usize>(), 5);
        }

        #[test]
        fn identity_matrix_for_skip() {
            let mgr = Manager::new();
            let rows = rows(&mgr, &Prog::skip());
            // skip tests nothing: one wildcard class mapping to itself.
            assert_eq!(rows.len(), 1);
            let (class, row) = &rows[0];
            assert_eq!(row.get(&Some(class.clone())), Some(&Ratio::one()));
        }

        #[test]
        fn loop_solutions_are_exact_through_the_matrix_view() {
            // while f=0 do (f←1 ⊕⅓ f←2 ⊕⅙ skip): absorption probabilities
            // are 2/3 and 1/3 — not representable in binary floats. The
            // loop solve must surface them *exactly*.
            let f = Field::named("mx_lp");
            let mgr = Manager::new();
            let body = Prog::choice(vec![
                (Prog::assign(f, 1), Ratio::new(1, 3)),
                (Prog::assign(f, 2), Ratio::new(1, 6)),
                (Prog::skip(), Ratio::new(1, 2)),
            ]);
            let rows = rows(&mgr, &Prog::while_(Pred::test(f, 0), body));
            let (_, row0) = rows
                .iter()
                .find(|(c, _)| c.get(f) == Some(0))
                .expect("f=0 input class");
            let mut probs: Vec<Ratio> = row0.values().cloned().collect();
            probs.sort();
            assert_eq!(probs, vec![Ratio::new(1, 3), Ratio::new(2, 3)]);
        }
    }
}
