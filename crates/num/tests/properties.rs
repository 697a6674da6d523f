//! Property-based tests for the exact-arithmetic substrate.

use mcnetkat_num::{BigInt, Ratio};
use proptest::prelude::*;

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    // Mix of small values and multi-limb values built from parts.
    prop_oneof![
        any::<i64>().prop_map(BigInt::from),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(a, b, neg)| {
            let v = BigInt::from(a) * BigInt::from(u64::MAX) + BigInt::from(b);
            if neg {
                -v
            } else {
                v
            }
        }),
    ]
}

fn arb_ratio() -> impl Strategy<Value = Ratio> {
    (any::<i32>(), 1..=10_000i64).prop_map(|(n, d)| Ratio::new(n as i64, d))
}

proptest! {
    #[test]
    fn add_commutes(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_distributes(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn divmod_identity(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divmod(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder has the sign of the dividend (or is zero).
        prop_assert!(r.is_zero() || r.is_negative() == a.is_negative());
    }

    #[test]
    fn gcd_divides_both(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn display_parse_round_trip(a in arb_bigint()) {
        let s = a.to_string();
        prop_assert_eq!(BigInt::parse(&s).unwrap(), a);
    }

    #[test]
    fn ratio_field_axioms(a in arb_ratio(), b in arb_ratio(), c in arb_ratio()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&(&a + &b) - &b, a.clone());
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a);
        }
    }

    #[test]
    fn ratio_normalised(n in any::<i32>(), d in 1..=10_000i64) {
        let r = Ratio::new(n as i64, d);
        prop_assert!(!r.denom().is_negative());
        prop_assert!(!r.denom().is_zero());
        let g = r.numer().gcd(&r.denom());
        prop_assert!(g.is_one() || r.is_zero());
    }

    #[test]
    fn ratio_matches_f64(a in arb_ratio(), b in arb_ratio()) {
        let exact = (&a + &b).to_f64();
        let approx = a.to_f64() + b.to_f64();
        // Relative tolerance: the operands may be large.
        let scale = 1.0f64.max(exact.abs());
        prop_assert!((exact - approx).abs() < 1e-9 * scale);
    }

    #[test]
    fn ratio_ordering_matches_f64(a in arb_ratio(), b in arb_ratio()) {
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64());
        }
    }

    #[test]
    fn ratio_string_round_trip(a in arb_ratio()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ratio>().unwrap(), a);
    }
}

// ---------------------------------------------------------------------------
// Small/big fast-path agreement.
//
// `Ratio` stores machine-word-sized values inline and computes on them with
// `i128` intermediates; only overflowing results promote to heap `BigInt`
// pairs. These properties drive operands across the promotion boundary
// (i64::MAX-adjacent numerators and denominators) and pin every operator
// against a reference computed entirely in `BigInt` arithmetic, which both
// paths must agree with.
// ---------------------------------------------------------------------------

/// Operands clustered at the `Small` representation's edges: huge positive,
/// huge negative, and ordinary magnitudes.
fn arb_boundary_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0..1000i64).prop_map(|k| i64::MAX - k),
        (0..1000i64).prop_map(|k| -(i64::MAX - k)),
        -1000..1000i64,
        any::<i64>(),
    ]
}

fn arb_boundary_den() -> impl Strategy<Value = i64> {
    prop_oneof![1..1000i64, (0..1000i64).prop_map(|k| i64::MAX - k)]
}

fn arb_boundary_ratio() -> impl Strategy<Value = Ratio> {
    (arb_boundary_i64(), arb_boundary_den()).prop_map(|(n, d)| Ratio::new(n, d))
}

/// Reference addition computed wholly in `BigInt` arithmetic.
fn ref_add(a: &Ratio, b: &Ratio) -> Ratio {
    Ratio::from_bigints(
        a.numer() * b.denom() + b.numer() * a.denom(),
        a.denom() * b.denom(),
    )
}

fn ref_sub(a: &Ratio, b: &Ratio) -> Ratio {
    Ratio::from_bigints(
        a.numer() * b.denom() - b.numer() * a.denom(),
        a.denom() * b.denom(),
    )
}

fn ref_mul(a: &Ratio, b: &Ratio) -> Ratio {
    Ratio::from_bigints(a.numer() * b.numer(), a.denom() * b.denom())
}

fn ref_div(a: &Ratio, b: &Ratio) -> Ratio {
    Ratio::from_bigints(a.numer() * b.denom(), a.denom() * b.numer())
}

fn std_hash(r: &Ratio) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn boundary_add_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        prop_assert_eq!(&a + &b, ref_add(&a, &b));
    }

    #[test]
    fn boundary_sub_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        prop_assert_eq!(&a - &b, ref_sub(&a, &b));
    }

    #[test]
    fn boundary_mul_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        prop_assert_eq!(&a * &b, ref_mul(&a, &b));
    }

    #[test]
    fn boundary_div_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(&a / &b, ref_div(&a, &b));
    }

    #[test]
    fn boundary_cmp_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        let reference = (a.numer() * b.denom()).cmp(&(b.numer() * a.denom()));
        prop_assert_eq!(a.cmp(&b), reference);
    }

    #[test]
    fn boundary_results_stay_in_lowest_terms(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        for r in [&a + &b, &a - &b, &a * &b] {
            prop_assert!(!r.denom().is_negative() && !r.denom().is_zero());
            let g = r.numer().gcd(&r.denom());
            prop_assert!(g.is_one() || r.is_zero(), "not in lowest terms: {:?}", r);
        }
    }

    #[test]
    fn boundary_hash_is_representation_independent(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        // The same value rebuilt through the all-BigInt constructor (which
        // may enter via the promoted path) must hash identically — the
        // canonical-representation invariant Eq/Hash rely on.
        let sum = &a + &b;
        let rebuilt = Ratio::from_bigints(sum.numer(), sum.denom());
        prop_assert_eq!(&sum, &rebuilt);
        prop_assert_eq!(std_hash(&sum), std_hash(&rebuilt));
    }

    #[test]
    fn boundary_add_round_trips_through_sub(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        // Exercises promote-then-demote: (a + b) - b must land back on a
        // exactly, whatever representations the intermediates took.
        prop_assert_eq!(&(&a + &b) - &b, a);
    }
}
