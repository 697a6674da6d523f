//! Arbitrary-precision integers and exact rationals.
//!
//! McNetKAT's frontend and FDD backend use *exact* rational arithmetic to
//! preempt numerical-precision concerns (§5 of the paper); here the
//! `while`-loop linear solve is exact too, where the paper's ran on
//! 64-bit floats. The OCaml implementation
//! leaned on Zarith/GMP; this crate is the equivalent substrate, built from
//! scratch: a sign-magnitude [`BigInt`] over `u32` limbs and a normalised
//! rational [`Ratio`].
//!
//! # Examples
//!
//! ```
//! use mcnetkat_num::Ratio;
//! let half = Ratio::new(1, 2);
//! let third = Ratio::new(1, 3);
//! assert_eq!((half + third).to_string(), "5/6");
//! ```

#![forbid(unsafe_code)]

mod bigint;
mod ratio;

pub use bigint::BigInt;
pub use ratio::{ParseRatioError, Ratio};
