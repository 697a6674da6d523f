//! The batch-verification workload `cold_compile` (the Fig. 7 scale), and
//! the traced recomposition of a compile.
//!
//! Untraced, a verdict runs the library's own pipeline:
//! `NetworkModel::compile` in a fresh `Manager`, then `Queries`. Traced, it
//! runs the public functions that pipeline is built from, one span per
//! stage, and each traced diagram is checked `equiv` to the library's.

use crate::layers::{EndToEnd, FddCounters, Layers};
use crate::metrics::Report;
use crate::stats::{Rng, P90_SAMPLES};
use crate::trace::Trace;
use crate::{timed, Args, Deadline, SETUPS, TRACED_UNITS_MAX};
use mcnetkat_fdd::{CompileError, CompileOptions, Fdd, FddExport, Manager};
use mcnetkat_net::fused::{assemble_chain, assemble_model, hop_inputs, HopInputs};
use mcnetkat_net::{FailureModel, NetworkModel, Queries, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{fattree, ShortestPaths};
use std::time::{Duration, Instant};

/// Answers of one verdict.
#[derive(Clone, Debug, PartialEq)]
struct Answers {
    min_delivery: Ratio,
    teleport: bool,
}

/// Stage timings of one untraced verdict.
struct VerdictTimes {
    patch: Duration,
    query: Duration,
    batch: Duration,
    verdict: Duration,
}

impl EndToEnd {
    fn push(&mut self, t: &VerdictTimes) {
        self.patch.push_ms(t.patch);
        self.query.push_us(t.query);
        self.batch.push_us(t.batch);
        self.verdict.push_ms(t.verdict);
    }
}

/// A compiled model, with the manager that owns its diagram.
struct Compiled {
    mgr: Manager,
    fdd: Fdd,
    answers: Answers,
}

/// One verdict through the library's pipeline. The manager is returned,
/// so its drop falls outside the verdict.
fn verdict(model: &NetworkModel) -> Result<(Compiled, VerdictTimes), CompileError> {
    let t0 = Instant::now();
    let mgr = Manager::new();
    let fdd = model.compile(&mgr)?;
    let t1 = Instant::now();
    let q = Queries::from_fdd(&mgr, model, fdd);
    let min_delivery = q.min_delivery();
    let t2 = Instant::now();
    let teleport = q.equiv_teleport()?;
    let t3 = Instant::now();
    let times = VerdictTimes {
        patch: t1 - t0,
        query: t2 - t1,
        batch: t3 - t1,
        verdict: t3 - t0,
    };
    let answers = Answers {
        min_delivery,
        teleport,
    };
    Ok((Compiled { mgr, fdd, answers }, times))
}

/// `compile_hop_import`, one span per stage: scratch compile, scratch
/// elimination, and the move into `target`.
pub fn compile_hop_traced(
    tr: &mut Trace,
    target: &Manager,
    inputs: &HopInputs,
    opts: &CompileOptions,
    counters: &mut FddCounters,
) -> Result<Fdd, CompileError> {
    let (scratch, hop) = tr.span("fdd.hop_compile", |_| {
        let scratch = Manager::new();
        let hop = scratch.compile_with(&inputs.prog, opts);
        (scratch, hop)
    });
    let hop = tr.span("fdd.eliminate", |_| {
        hop.map(|h| scratch.eliminate(h, &inputs.scratch))
    })?;
    counters.add_scratch(&scratch);
    Ok(tr.span("fdd.export_import", |_| {
        let fdd = target.import(&scratch.export(hop));
        drop(scratch);
        fdd
    }))
}

/// `NetworkModel::compile_with`'s fused pipeline recomposed from the public
/// functions it is built from, one span per stage. The loop is solved
/// before `assemble_model`, whose own solve then hits the while cache, so
/// `net.tail` is the tail alone.
fn compile_traced(
    tr: &mut Trace,
    mgr: &Manager,
    model: &NetworkModel,
    counters: &mut FddCounters,
) -> Result<Fdd, CompileError> {
    let opts = CompileOptions::default();
    let sp = tr.span("topo.shortest_paths", |_| {
        ShortestPaths::towards(&model.topo, model.dst)
    });
    let body = tr.span("net.chain_fold", |tr| {
        assemble_chain(mgr, model, |s| {
            let inputs = tr.span("net.hop_inputs", |_| hop_inputs(model, s, &sp));
            compile_hop_traced(tr, mgr, &inputs, &opts, counters)
        })
    })?;
    tr.span("fdd.loop_solve", |_| {
        let guard = mgr.compile_pred(&model.guard());
        mgr.while_loop(guard, body, &opts)
    })?;
    tr.span("net.tail", |_| assemble_model(mgr, model, body, &opts))
}

/// One traced verdict; the manager is returned for the caller's checks.
fn verdict_traced(
    tr: &mut Trace,
    model: &NetworkModel,
    counters: &mut FddCounters,
) -> Result<Compiled, CompileError> {
    let mgr = tr.span("fdd.manager_new", |_| Manager::new());
    let fdd = compile_traced(tr, &mgr, model, counters)?;
    let q = Queries::from_fdd(&mgr, model, fdd);
    let min_delivery = tr.span("net.min_delivery", |_| q.min_delivery());
    let teleport = tr.span("net.equiv_teleport", |_| q.equiv_teleport())?;
    let answers = Answers {
        min_delivery,
        teleport,
    };
    Ok(Compiled { mgr, fdd, answers })
}

/// `model`'s diagram from the library's pipeline, exported.
fn reference(model: &NetworkModel) -> Result<FddExport, String> {
    let mgr = Manager::new();
    let fdd = model
        .compile(&mgr)
        .map_err(|e| format!("reference compile: {e}"))?;
    Ok(mgr.export(fdd))
}

/// Counts a traced diagram correct when it is `equiv` to the library's.
fn check_equiv(r: &mut Report, c: &Compiled, reference: &FddExport, what: &str) {
    let lib = c.mgr.import(reference);
    r.check(c.mgr.equiv(c.fdd, lib), || {
        format!("{what}: traced compile is not equiv to NetworkModel::compile")
    });
}

fn check_fallbacks(r: &mut Report, mgr: &Manager, what: &str) {
    let ls = mgr.loop_solve_stats();
    let fallbacks = ls.fallback_retries + ls.dense_fallbacks;
    r.check(fallbacks == 0, || {
        format!("{what}: {fallbacks} loop solves fell back past the sparse solver")
    });
}

const COLD_ARITY: usize = 16;

fn cold_model(dst_name: &str) -> Result<(NetworkModel, Duration), String> {
    let (topo, build) = timed(|| fattree(COLD_ARITY));
    let dst = topo
        .find(dst_name)
        .ok_or_else(|| format!("no switch {dst_name}"))?;
    let model = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureModel::independent(Ratio::new(1, 1000)),
    );
    Ok((model, build))
}

/// `cold_compile`: one unit is a fresh `Manager`, `NetworkModel::compile`
/// of fattree(16) under ECMP with f = 1/1000, then `min_delivery` and
/// `equiv_teleport`. The seed picks the destination edge switch.
pub fn cold_compile(args: &Args, r: &mut Report) -> Result<(), String> {
    let mut rng = Rng::new(args.seed);
    let dst_name = format!(
        "edge{}_{}",
        rng.below(COLD_ARITY),
        rng.below(COLD_ARITY / 2)
    );
    r.note(format!(
        "fattree({COLD_ARITY}), ECMP, f = 1/1000, destination {dst_name}"
    ));
    // The same known answers hold for every edge destination.
    let expected = Answers {
        min_delivery: Ratio::new(999 * 999, 1000 * 1000),
        teleport: false,
    };
    let check = |r: &mut Report, c: &Compiled| {
        r.check(c.answers == expected, || {
            format!("{dst_name}: got {:?}, expected {expected:?}", c.answers)
        });
        check_fallbacks(r, &c.mgr, &dst_name);
    };

    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let mut model = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (m, build) = cold_model(&dst_name)?;
        // Warm-up: one verdict.
        let warm = verdict(&m).map_err(|e| format!("warm-up verdict: {e}"))?;
        e2e.setup.push(start.elapsed().as_secs_f64());
        layers.topo_build_ms.push_ms(build);
        check(r, &warm.0);
        model = Some(m);
    }
    let model = model.expect("at least one set-up");

    let untraced = |r: &mut Report, seconds: f64, floor: usize, e2e: &mut EndToEnd| {
        let deadline = Deadline::new(seconds, floor);
        while deadline.more(e2e.verdict.len()) {
            match verdict(&model) {
                Ok((c, t)) => {
                    check(r, &c);
                    let ((), drop_time) = timed(|| drop(c));
                    e2e.busy_s += (t.verdict + drop_time).as_secs_f64();
                    e2e.verdicts += 1;
                    e2e.push(&t);
                }
                Err(e) => r.check(false, || format!("verdict: {e}")),
            }
        }
    };
    if !args.trace {
        untraced(r, args.seconds as f64, P90_SAMPLES, &mut e2e);
        return e2e.report(r);
    }

    let half = args.seconds as f64 / 2.0;
    let mut plain = EndToEnd::default();
    untraced(r, half, 1, &mut plain);
    layers.untraced_unit_ms = plain.verdict;
    let lib = reference(&model)?;
    let mut tr = Trace::new();
    let deadline = Deadline::new(half, 1);
    while deadline.more(tr.units() as usize) && tr.units() < TRACED_UNITS_MAX {
        match tr.unit(|tr| verdict_traced(tr, &model, &mut layers.fdd)) {
            Ok(c) => {
                check(r, &c);
                check_equiv(r, &c, &lib, &dst_name);
                layers.fdd.add(&FddCounters::of(&c.mgr));
            }
            Err(e) => r.check(false, || format!("traced verdict: {e}")),
        }
    }
    layers.finish(&tr, args, r)
}
