//! McNetKAT: scalable verification of probabilistic networks, in Rust.
//!
//! This facade crate re-exports the workspace members. Two documents at
//! the repository root go with it: `README.md` is the crate-by-crate
//! architecture overview (with the paper cross-reference and the
//! per-figure benchmark index), and `DESIGN.md` is the system inventory —
//! per-module responsibilities, the solver-backend matrix, and the
//! invariants the implementation maintains.
//!
//! # Quickstart
//!
//! A doctested mirror of `examples/quickstart.rs`
//! (`cargo run --example quickstart` — same flow, assertions instead of
//! printing): build
//! a probabilistic loop, compile it to a probabilistic FDD — the loop is
//! solved in *closed form* via an absorbing Markov chain, no unrolling —
//! and ask for delivery probability, equivalence, and refinement.
//!
//! ```
//! use mcnetkat::core::{Field, Packet, Pred, Prog};
//! use mcnetkat::fdd::Manager;
//! use mcnetkat::num::Ratio;
//!
//! // A coin-flipping loop: while f = 0, set f to 1 with probability ½.
//! let f = Field::named("readme_f");
//! let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::skip());
//! let lossy_loop = Prog::while_(Pred::test(f, 0), body);
//!
//! let mgr = Manager::new();
//! let fdd = mgr.compile(&lossy_loop)?;
//!
//! // The loop exits with probability exactly 1 (closed form).
//! let input = Packet::new(); // f = 0
//! assert_eq!(mgr.prob_delivery(fdd, &input), Ratio::one());
//!
//! // Program equivalence is decidable (Corollary 3.2): the loop is
//! // equivalent to the straight-line program `if f=0 then f<-1`.
//! let spec = Prog::ite(Pred::test(f, 0), Prog::assign(f, 1), Prog::skip());
//! let spec_fdd = mgr.compile(&spec)?;
//! assert!(mgr.equiv(fdd, spec_fdd));
//!
//! // Refinement: a program that sometimes drops is strictly below one
//! // that always delivers.
//! let flaky = Prog::ite(
//!     Pred::test(f, 0),
//!     Prog::choice2(Prog::assign(f, 1), Ratio::new(9, 10), Prog::drop()),
//!     Prog::skip(),
//! );
//! let flaky_fdd = mgr.compile(&flaky)?;
//! assert!(mgr.less(flaky_fdd, fdd));
//! # Ok::<(), mcnetkat::fdd::CompileError>(())
//! ```
#![forbid(unsafe_code)]

pub use mcnetkat_analysis as analysis;
pub use mcnetkat_baseline as baseline;
pub use mcnetkat_core as core;
pub use mcnetkat_fdd as fdd;
pub use mcnetkat_linalg as linalg;
pub use mcnetkat_net as net;
pub use mcnetkat_num as num;
pub use mcnetkat_prism as prism;
pub use mcnetkat_serve as serve;
pub use mcnetkat_topo as topo;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // One symbol per subsystem, so a broken re-export fails to build.
        let _ = crate::num::Ratio::new(1, 2);
        let _ = crate::core::Prog::skip();
        let _ = crate::linalg::AbsorbingChain::new(1);
        let _ = crate::fdd::Manager::new();
        let _ = crate::topo::chain(1);
        let _ = crate::prism::McMode::Exact;
        let _ = crate::baseline::ExactInference::default();
        let _ = crate::net::FailureModel::none();
        let _ = crate::serve::Engine::default();
    }
}
