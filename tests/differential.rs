//! Differential testing: the production FDD compiler against the
//! reference denotational interpreter (Theorem 3.1 says they must agree),
//! and against the PRISM-translation backend, on randomly generated
//! guarded programs.

use mcnetkat::core::{Field, Interp, Packet, Pred, Prog};
use mcnetkat::fdd::{CompileOptions, Manager};
use mcnetkat::num::Ratio;
use proptest::prelude::*;

fn fields() -> Vec<Field> {
    vec![
        Field::named("dt_a"),
        Field::named("dt_b"),
        Field::named("dt_c"),
    ]
}

fn arb_pred(depth: u32) -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        Just(Pred::t()),
        Just(Pred::f()),
        (0..3usize, 0..4u32).prop_map(|(f, v)| Pred::test(fields()[f], v)),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            inner.prop_map(Pred::not),
        ]
    })
    .boxed()
}

/// Loop-free guarded programs.
fn arb_prog(depth: u32) -> BoxedStrategy<Prog> {
    let leaf = prop_oneof![
        Just(Prog::skip()),
        Just(Prog::drop()),
        (0..3usize, 0..4u32).prop_map(|(f, v)| Prog::assign(fields()[f], v)),
        arb_pred(1).prop_map(Prog::filter),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            (inner.clone(), 1..8i64, inner.clone()).prop_map(|(p, n, q)| Prog::choice2(
                p,
                Ratio::new(n, 8),
                q
            )),
            (arb_pred(1), inner.clone(), inner.clone()).prop_map(|(t, p, q)| Prog::ite(t, p, q)),
            (0..3usize, 0..4u32, inner.clone()).prop_map(|(f, v, p)| Prog::local(
                fields()[f],
                v,
                p
            )),
        ]
    })
    .boxed()
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    proptest::collection::vec(0..4u32, 3)
        .prop_map(|vs| Packet::from_pairs(fields().into_iter().zip(vs)))
}

/// The interpreter's output distribution as a sorted, exact map.
fn interp_dist(prog: &Prog, pk: &Packet) -> Vec<(Option<Packet>, Ratio)> {
    Interp::new()
        .eval_packet(prog, pk)
        .iter()
        .map(|(o, r)| (o.clone(), r.clone()))
        .filter(|(_, r)| !r.is_zero())
        .collect()
}

/// The FDD backend's output distribution in the same shape.
fn fdd_dist(mgr: &Manager, prog: &Prog, pk: &Packet) -> Vec<(Option<Packet>, Ratio)> {
    let fdd = mgr.compile(prog).expect("guarded program compiles");
    mgr.output_dist(fdd, pk)
        .into_iter()
        .filter(|(_, r)| !r.is_zero())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 3.1 on singleton inputs: B⟦p⟧ agrees with ⟦p⟧ exactly.
    #[test]
    fn fdd_matches_reference_interpreter(prog in arb_prog(4), pk in arb_packet()) {
        let mgr = Manager::new();
        prop_assert_eq!(fdd_dist(&mgr, &prog, &pk), interp_dist(&prog, &pk));
    }

    /// The PRISM route computes the same query probabilities.
    #[test]
    fn prism_matches_fdd(prog in arb_prog(3), pk in arb_packet(), t in arb_pred(2)) {
        let mgr = Manager::new();
        let fdd = mgr.compile(&prog).expect("compiles");
        let p_fdd = mgr.prob_matching(fdd, &pk, &t);
        let auto = mcnetkat::prism::translate(&prog).expect("translates");
        let r = mcnetkat::prism::check_reachability(
            &auto, &pk, &t, mcnetkat::prism::McMode::Exact,
        ).expect("model checks");
        prop_assert_eq!(r.exact, Some(p_fdd));
    }

    /// The baseline exact-inference engine agrees on loop-free programs.
    #[test]
    fn baseline_matches_fdd(prog in arb_prog(3), pk in arb_packet()) {
        let mgr = Manager::new();
        let fdd = mgr.compile(&prog).expect("compiles");
        let base = mcnetkat::baseline::ExactInference::default().delivery(&prog, &pk);
        prop_assert!(base.is_exact());
        prop_assert_eq!(base.probability, mgr.prob_delivery(fdd, &pk));
    }

    /// Equivalence is a congruence for sequencing: p ≡ q implies
    /// p;r ≡ q;r (spot-checked with r = a random assignment).
    #[test]
    fn equiv_respects_seq(prog in arb_prog(3), f in 0..3usize, v in 0..4u32) {
        let mgr = Manager::new();
        let a = mgr.compile(&prog).expect("compiles");
        // A syntactic re-association of prog must stay equivalent.
        let reassoc = Prog::skip().seq(prog.clone().seq(Prog::skip()));
        let b = mgr.compile(&reassoc).expect("compiles");
        prop_assert!(mgr.equiv(a, b));
        let pa = mgr.compile(&prog.clone().seq(Prog::assign(fields()[f], v))).unwrap();
        let pb = mgr.compile(&reassoc.seq(Prog::assign(fields()[f], v))).unwrap();
        prop_assert!(mgr.equiv(pa, pb));
    }

    /// Output distributions are genuine probability distributions.
    #[test]
    fn fdd_outputs_are_distributions(prog in arb_prog(4), pk in arb_packet()) {
        let mgr = Manager::new();
        let total: Ratio = fdd_dist(&mgr, &prog, &pk).into_iter().map(|(_, r)| r).sum();
        prop_assert_eq!(total, Ratio::one());
    }

    /// `drop ≤ p ≤ skip-like upper bounds`: refinement sanity.
    #[test]
    fn refinement_bounds(prog in arb_prog(3)) {
        let mgr = Manager::new();
        let p = mgr.compile(&prog).expect("compiles");
        prop_assert!(mgr.less_eq(mgr.fail(), p));
        prop_assert!(mgr.less_eq(p, p));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3.1 for loops: on random `while t do p` (diverging bodies
    /// included) the closed form always solves, does not depend on
    /// lumping, and dominates the interpreter's 16-iteration unrolling on
    /// every output.
    #[test]
    fn while_closed_form_dominates_unrolling(
        t in arb_pred(2),
        body in arb_prog(3),
        pk in arb_packet(),
    ) {
        let prog = Prog::while_(t, body);
        let mgr = Manager::new();
        // (a) The compiler sends every state that cannot reach absorption
        // to drop before it solves, so no chain it hands the solver is
        // singular and the default compile never fails.
        let fdd = mgr.compile(&prog);
        prop_assert!(fdd.is_ok(), "compile failed: {:?}", fdd.err());
        let fdd = fdd.unwrap();
        // (b) Lumping is exact: the unquotiented solve (a separate
        // while-cache entry) lands on the same hash-consed diagram.
        let unlumped = CompileOptions { lumping: false, ..CompileOptions::default() };
        prop_assert_eq!(mgr.compile_with(&prog, &unlumped).unwrap(), fdd);
        // (c) Every finite unrolling is a lower bound, output by output,
        // and the closed form is a full distribution (divergence is drop).
        let closed = mgr.output_dist(fdd, &pk);
        let total: Ratio = closed.values().cloned().sum();
        prop_assert_eq!(total, Ratio::one());
        for (out, r) in Interp::with_budget(16).eval_packet(&prog, &pk).iter() {
            let exact = closed.get(out).cloned().unwrap_or_else(Ratio::zero);
            prop_assert!(&exact >= r, "output {:?}: closed form {} < unrolling {}", out, exact, r);
        }
    }
}

/// Loops with deterministically decreasing counters terminate within the
/// interpreter budget, so the two semantics can be compared exactly.
#[test]
fn fdd_matches_interpreter_on_counting_loops() {
    let f = Field::named("dt_loop");
    for start in 0..5u32 {
        let body = Prog::case(
            (1..=4)
                .map(|v| (Pred::test(f, v), Prog::assign(f, v - 1)))
                .collect(),
            Prog::drop(),
        );
        let prog = Prog::while_(Pred::test(f, 0).not(), body);
        let pk = Packet::new().with(f, start);
        let mgr = Manager::new();
        assert_eq!(
            fdd_dist(&mgr, &prog, &pk),
            interp_dist(&prog, &pk),
            "start = {start}"
        );
    }
}

/// A probabilistic loop where the interpreter's residual vanishes only in
/// the limit: the FDD closed form must dominate every finite unrolling.
#[test]
fn fdd_closed_form_dominates_unrollings() {
    let f = Field::named("dt_geo");
    let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 3), Prog::skip());
    let prog = Prog::while_(Pred::test(f, 0), body);
    let mgr = Manager::new();
    let fdd = mgr.compile(&prog).unwrap();
    let exact = mgr.prob_delivery(fdd, &Packet::new());
    assert_eq!(exact, Ratio::one());
    for budget in [1usize, 4, 16] {
        let approx = Interp::with_budget(budget)
            .eval_packet(&prog, &Packet::new())
            .mass();
        assert!(approx < exact, "budget {budget}");
    }
}
