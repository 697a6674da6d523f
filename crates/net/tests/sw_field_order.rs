//! `assemble_chain` must not assume `sw` is the smallest field.
//!
//! Field order is process-wide interning order, so a process that interns
//! `pt`, `dt`, `fl` and `cnt` before building its first model puts those
//! fields *above* `sw`. A hop that tests one of them at its root cannot
//! hang under an `sw = v` branch; the chain builder must notice and fall
//! back to `ite`. This lives in its own test binary because interning is
//! global to the process: every test here sees the same skewed order.

use mcnetkat_core::Field;
use mcnetkat_fdd::{CompileOptions, Fdd, Manager};
use mcnetkat_net::fused::{assemble_chain, compile_hop_import, hop_inputs, FusedStats};
use mcnetkat_net::{compile_model_parallel, FailureModel, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, ShortestPaths};

/// An F10₃,₅ fattree(4) model with a failure budget and a hop counter,
/// built after `pt`, `dt`, `fl` and `cnt` were interned ahead of `sw`.
fn skewed_model() -> NetworkModel {
    let early: Vec<Field> = ["pt", "dt", "fl", "cnt"]
        .into_iter()
        .map(Field::named)
        .collect();
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::F10_3_5,
        FailureModel::bounded(Ratio::new(1, 10), 1),
    )
    .with_hop_cap(8);
    assert!(early.iter().all(|&f| f < m.fields.sw), "order is skewed");
    m
}

#[test]
fn chain_is_the_ite_fold_when_sw_is_not_the_smallest_field() {
    let m = skewed_model();
    let mgr = Manager::new();
    let sp = ShortestPaths::towards(&m.topo, m.dst);
    let opts = CompileOptions::default();
    let mut stats = FusedStats::default();
    let switches = m.topo.switches();
    let hops: Vec<Fdd> = switches
        .iter()
        .map(|&s| compile_hop_import(&mgr, &hop_inputs(&m, s, &sp), &opts, &mut stats).unwrap())
        .collect();

    let chain = assemble_chain(&mgr, &m, |s| {
        Ok(hops[switches.iter().position(|&t| t == s).unwrap()])
    })
    .unwrap();

    let mut ite_fold = mgr.fail();
    for (&s, &hop) in switches.iter().zip(&hops).rev() {
        let test = mgr.branch(m.fields.sw, m.topo.sw_value(s), mgr.pass(), mgr.fail());
        ite_fold = mgr.ite(test, hop, ite_fold);
    }
    assert_eq!(chain, ite_fold);
}

#[test]
fn skewed_order_compiles_match_legacy_and_parallel() {
    let m = skewed_model();
    let mgr = Manager::new();
    let seq = m.compile(&mgr).unwrap();
    assert!(mgr.equiv(seq, m.compile_legacy(&mgr).unwrap()));
    for w in [1, 3] {
        let par = compile_model_parallel(&mgr, &m, w, &Default::default()).unwrap();
        assert_eq!(par, seq, "workers = {w}");
    }
}
