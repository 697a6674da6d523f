//! The serving workloads: `serve_churn` (in-memory `Engine` under a delta
//! and query loop) and `recovery` (the same loop journaled, then a crash
//! and `Engine::recover`).
//!
//! The seed picks a flap set on a fat-tree — F10₃ scheme flaps on single
//! core and aggregation switches plus one link-probability flap — and the
//! query sources. The deltas cycle through the flaps, switching each on
//! and then each off again, so the loop revisits the same 2n states; the
//! cold answers of each state are computed before anything is timed.

use crate::compile::compile_hop_traced;
use crate::layers::{EndToEnd, FddCounters, Layers};
use crate::metrics::Report;
use crate::stats::{Rng, Samples, P90_SAMPLES};
use crate::trace::Trace;
use crate::{timed, work_dir, Args, Deadline, SETUPS, TRACED_UNITS_MAX};
use mcnetkat_fdd::{CompileOptions, Fdd, Manager};
use mcnetkat_net::fused::{assemble_chain, assemble_model, hop_inputs, HopInputs};
use mcnetkat_net::{FailureModel, NetworkModel, Queries, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_serve::{
    Answer, Delta, Engine, EngineConfig, EngineError, ModelId, Query, QueryRequest,
};
use mcnetkat_topo::{fattree, NodeId, ShortestPaths};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// `DeliveryProb` queries in a step's batch. The step's point query is a
/// `MinDelivery`: a single query heavy enough (one walk per ingress) for
/// its time to repeat from run to run, which a lone `DeliveryProb` of a
/// microsecond or two does not.
const BATCH: usize = 6;

/// Timed journaled deltas per recovery round, after the warm-up cycle.
const ROUND_STEPS: usize = 20;

#[derive(Clone, Copy, Debug)]
enum Flap {
    /// The switch runs F10₃ instead of the model's ECMP.
    Scheme(NodeId),
    /// The port's links fail with probability 1/10 instead of 1/1000.
    Link(u32),
}

impl Flap {
    fn on(self) -> Delta {
        match self {
            Flap::Scheme(s) => Delta::SetSwitchScheme(s, RoutingScheme::F10_3),
            Flap::Link(p) => Delta::SetLinkPr(p, Ratio::new(1, 10)),
        }
    }

    fn off(self) -> Delta {
        match self {
            Flap::Scheme(s) => Delta::ClearSwitchScheme(s),
            Flap::Link(p) => Delta::ClearLinkPr(p),
        }
    }

    /// The flap's "on" state, built directly on the model rather than
    /// through `Delta::apply_to`, so the expected answers share no code
    /// with the engine's patch path.
    fn set(self, m: NetworkModel) -> NetworkModel {
        match self {
            Flap::Scheme(s) => m.with_switch_scheme(s, RoutingScheme::F10_3),
            Flap::Link(p) => {
                let failure = m.failure.clone().with_link_pr(p, Ratio::new(1, 10));
                NetworkModel { failure, ..m }
            }
        }
    }
}

fn base_model(p: usize, dst_name: &str) -> Result<(NetworkModel, Duration), String> {
    let (topo, build) = timed(|| fattree(p));
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

/// The seeded delta cycle and everything needed to check it.
struct Churn {
    arity: usize,
    dst_name: String,
    /// One full cycle: every flap on, in order, then every flap off.
    deltas: Vec<Delta>,
    /// The batch's sources.
    srcs: Vec<NodeId>,
    /// Cold answers after each delta of the cycle: the batch's, then the
    /// minimum delivery probability.
    expected: Vec<Vec<Ratio>>,
}

impl Churn {
    /// The seed picks the switches, but always in the same pattern
    /// relative to the destination edge(P, i): F10₃ on an aggregation
    /// switch of pod P and on a core switch above it; port i + 1 (the
    /// links from every aggregation switch down to edge index i, and from
    /// every core switch down to pod i ≠ P) at 1/10; F10₃ on an
    /// aggregation switch of a third pod and on a core switch above it. The
    /// flaps switch in that order. So every seed poses the same problem up
    /// to the fat-tree's symmetry, and two seeds differ in cost only by
    /// noise. The batch asks from one edge switch of pod P and five of
    /// other pods.
    fn new(arity: usize, seed: u64) -> Result<Churn, String> {
        let mut rng = Rng::new(seed);
        let half = arity / 2;
        let i = rng.below(half);
        let pod = (i + 1 + rng.below(arity - 1)) % arity;
        let dst_name = format!("edge{pod}_{i}");
        let (base, _) = base_model(arity, &dst_name)?;
        let third = rng.pick(
            &(0..arity)
                .filter(|&q| q != pod && q != i)
                .collect::<Vec<_>>(),
            1,
        )[0];
        let a = rng.below(half);
        let b = (a + 1 + rng.below(half - 1)) % half;
        let switch = |name: String| base.topo.find(&name).ok_or(format!("no switch {name}"));
        let flaps = [
            Flap::Scheme(switch(format!("agg{pod}_{a}"))?),
            Flap::Scheme(switch(format!("core{}", a * half + rng.below(half)))?),
            Flap::Link(i as u32 + 1),
            Flap::Scheme(switch(format!("agg{third}_{b}"))?),
            Flap::Scheme(switch(format!("core{}", b * half + rng.below(half)))?),
        ];
        let (home, away): (Vec<NodeId>, Vec<NodeId>) = base
            .ingresses()
            .into_iter()
            .partition(|&s| base.topo.info(s).pod == Some(pod));
        let mut srcs = rng.pick(&home, 1);
        srcs.extend(rng.pick(&away, BATCH - 1));

        let n = flaps.len();
        let deltas: Vec<Delta> = flaps
            .iter()
            .map(|f| f.on())
            .chain(flaps.iter().map(|f| f.off()))
            .collect();
        let mut expected = Vec::with_capacity(2 * n);
        for j in 0..2 * n {
            let on = if j < n { 0..j + 1 } else { j - n + 1..n };
            let model = flaps[on].iter().fold(base.clone(), |m, f| f.set(m));
            let mgr = Manager::new();
            let fdd = model
                .compile(&mgr)
                .map_err(|e| format!("cold compile of state {j}: {e}"))?;
            let q = Queries::from_fdd(&mgr, &model, fdd);
            let mut answers: Vec<Ratio> = srcs.iter().map(|&s| q.delivery_prob(s)).collect();
            answers.push(q.min_delivery());
            expected.push(answers);
        }
        Ok(Churn {
            arity,
            dst_name,
            deltas,
            srcs,
            expected,
        })
    }

    fn describe(&self, base: &NetworkModel) -> String {
        let name = |s: NodeId| base.topo.info(s).name.clone();
        let deltas: Vec<String> = self.deltas[..self.deltas.len() / 2]
            .iter()
            .map(|d| match d {
                Delta::SetSwitchScheme(s, _) => format!("F10_3@{}", name(*s)),
                Delta::SetLinkPr(p, _) => format!("port{p}@1/10"),
                other => format!("{other:?}"),
            })
            .collect();
        let srcs: Vec<String> = self.srcs.iter().map(|&s| name(s)).collect();
        format!(
            "fattree({}), ECMP, f = 1/1000, destination {}, flaps [{}], sources [{}]",
            self.arity,
            self.dst_name,
            deltas.join(", "),
            srcs.join(", ")
        )
    }

    fn delta(&self, step: usize) -> Delta {
        self.deltas[step % self.deltas.len()].clone()
    }

    fn expected(&self, step: usize) -> &[Ratio] {
        &self.expected[step % self.expected.len()]
    }

    /// The flap cycle's length: one warm-up pass visits every state.
    fn cycle(&self) -> usize {
        self.deltas.len()
    }
}

/// The requests of one client of one loaded model.
struct Client {
    id: ModelId,
    batch: Vec<QueryRequest>,
    point: QueryRequest,
}

impl Client {
    fn new(churn: &Churn, id: ModelId) -> Client {
        let req = |src| QueryRequest::from(Query::DeliveryProb { model: id, src });
        Client {
            id,
            batch: churn.srcs.iter().map(|&s| req(s)).collect(),
            point: Query::MinDelivery { model: id }.into(),
        }
    }
}

/// What one untraced step produced.
struct Step {
    answers: Vec<Result<Answer, EngineError>>,
    patch: Duration,
    batch: Duration,
    query: Duration,
}

impl Step {
    fn verdict(&self) -> Duration {
        self.patch + self.batch + self.query
    }

    fn record(&self, e2e: &mut EndToEnd) {
        e2e.patch.push_ms(self.patch);
        e2e.batch.push_us(self.batch);
        e2e.query.push_us(self.query);
    }
}

/// One closed-loop step: apply a delta, then the batch, then the point
/// query.
fn step(engine: &mut Engine, c: &Client, delta: Delta) -> Result<Step, EngineError> {
    let t0 = Instant::now();
    engine.apply(c.id, delta)?;
    let t1 = Instant::now();
    let mut answers = engine.query_batch(&c.batch);
    let t2 = Instant::now();
    answers.push(engine.query(&c.point));
    let t3 = Instant::now();
    Ok(Step {
        answers,
        patch: t1 - t0,
        batch: t2 - t1,
        query: t3 - t2,
    })
}

/// Counts one step's answers against the cold answers of its state and
/// returns them.
fn check_answers(
    r: &mut Report,
    churn: &Churn,
    i: usize,
    answers: &[Result<Answer, EngineError>],
) -> Vec<Option<Ratio>> {
    let got: Vec<Option<Ratio>> = answers
        .iter()
        .map(|a| a.as_ref().ok().and_then(|a| a.prob().cloned()))
        .collect();
    let want = churn.expected(i);
    r.check(
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.as_ref() == Some(w)),
        || format!("step {i}: answers {got:?}, cold compile says {want:?}"),
    );
    got
}

/// Creates an engine (journaled into `dir` when given), loads the base
/// model, and runs one warm-up pass over the flap cycle, so both sides of
/// every flap have warm hop diagrams and loop solutions.
fn open_warm(
    model: &NetworkModel,
    churn: &Churn,
    dir: Option<&Path>,
) -> Result<(Engine, Client), String> {
    let mut engine = match dir {
        Some(dir) => Engine::with_journal(EngineConfig::default(), dir)
            .map_err(|e| format!("journal: {e}"))?,
        None => Engine::default(),
    };
    let id = engine
        .load(model.clone())
        .map_err(|e| format!("load: {e}"))?;
    for i in 0..churn.cycle() {
        engine
            .apply(id, churn.delta(i))
            .map_err(|e| format!("warm-up delta {i}: {e}"))?;
    }
    Ok((engine, Client::new(churn, id)))
}

/// Set-up, [`SETUPS`] times: topology, model, engine, load, warm-up.
/// Returns the last set-up's model and engine.
fn setups(
    churn: &Churn,
    dir: Option<&Path>,
    e2e: &mut EndToEnd,
    layers: &mut Layers,
) -> Result<(NetworkModel, Engine, Client), String> {
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // the previous engine holds the journal directory
        let start = Instant::now();
        let (model, build) = base_model(churn.arity, &churn.dst_name)?;
        let (engine, client) = open_warm(&model, churn, dir)?;
        e2e.setup.push(start.elapsed().as_secs_f64());
        layers.topo_build_ms.push_ms(build);
        last = Some((model, engine, client));
    }
    Ok(last.expect("at least one set-up"))
}

/// The benchmark-owned shadow of `Engine::apply`: its own manager and
/// `HopInputs`-keyed map, patched by the same public functions the engine
/// composes, one span per stage.
struct Shadow {
    mgr: Manager,
    hops: HashMap<HopInputs, Fdd>,
    model: NetworkModel,
    fdd: Fdd,
}

impl Shadow {
    /// Patches the shadow model by `delta` inside a `serve.shadow_patch`
    /// span.
    fn patch(&mut self, tr: &mut Trace, layers: &mut Layers, delta: &Delta) -> Result<(), String> {
        let opts = CompileOptions::default();
        let Shadow {
            mgr,
            hops,
            model,
            fdd,
        } = self;
        tr.span("serve.shadow_patch", |tr| {
            let next = tr
                .span("serve.apply_to", |_| delta.apply_to(model))
                .map_err(|e| e.to_string())?;
            let sp = tr.span("topo.shortest_paths", |_| {
                ShortestPaths::towards(&next.topo, next.dst)
            });
            let body = tr
                .span("net.chain_fold", |tr| {
                    assemble_chain(mgr, &next, |s| {
                        let inputs = tr.span("net.hop_inputs", |_| hop_inputs(&next, s, &sp));
                        if let Some(&f) = tr.span("serve.hop_map", |_| hops.get(&inputs)) {
                            return Ok(f);
                        }
                        let f = compile_hop_traced(tr, mgr, &inputs, &opts, &mut layers.fdd)?;
                        tr.span("serve.hop_map", |_| hops.insert(inputs, f));
                        Ok(f)
                    })
                })
                .map_err(|e| e.to_string())?;
            tr.span("fdd.loop_solve", |_| {
                let guard = mgr.compile_pred(&next.guard());
                mgr.while_loop(guard, body, &opts)
            })
            .map_err(|e| e.to_string())?;
            *fdd = tr
                .span("net.tail", |_| assemble_model(mgr, &next, body, &opts))
                .map_err(|e| e.to_string())?;
            *model = next;
            Ok(())
        })
    }

    /// Whether the shadow's diagram is `equiv` to the engine's.
    fn agrees(&self, engine: &Engine, id: ModelId) -> bool {
        engine.fdd(id).is_ok_and(|f| {
            let theirs = self.mgr.import(&engine.manager().export(f));
            self.mgr.equiv(self.fdd, theirs)
        })
    }
}

/// `serve_churn`: an in-memory `Engine` on fattree(12). Each step applies
/// one delta, then answers a `query_batch` of 6 delivery queries, then one
/// `query`.
pub fn serve_churn(args: &Args, r: &mut Report) -> Result<(), String> {
    let churn = Churn::new(12, args.seed)?;
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let (model, mut engine, client) = setups(&churn, None, &mut e2e, &mut layers)?;
    r.note(churn.describe(&model));
    let switches = model.topo.switches().len() as u64;
    let mut next = churn.cycle();

    let run = |engine: &mut Engine,
               r: &mut Report,
               next: &mut usize,
               seconds: f64,
               floor: usize,
               e2e: &mut EndToEnd| {
        let deadline = Deadline::new(seconds, floor);
        while deadline.more(e2e.verdict.len()) {
            let i = *next;
            *next += 1;
            match step(engine, &client, churn.delta(i)) {
                Ok(s) => {
                    check_answers(r, &churn, i, &s.answers);
                    s.record(e2e);
                    e2e.verdict.push_ms(s.verdict());
                    e2e.busy_s += s.verdict().as_secs_f64();
                    e2e.verdicts += 1;
                }
                Err(e) => r.check(false, || format!("step {i}: {e}")),
            }
        }
    };
    let verify = |engine: &Engine, r: &mut Report| {
        let ok = engine.verify_against_cold(client.id);
        r.check(matches!(ok, Ok(true)), || {
            format!("engine vs cold compile after the run: {ok:?}")
        });
    };
    if !args.trace {
        run(
            &mut engine,
            r,
            &mut next,
            args.seconds as f64,
            P90_SAMPLES,
            &mut e2e,
        );
        verify(&engine, r);
        return e2e.report(r);
    }

    let half = args.seconds as f64 / 2.0;
    let mut plain = EndToEnd::default();
    run(&mut engine, r, &mut next, half, 1, &mut plain);
    layers.untraced_unit_ms = plain.verdict;

    // The shadow starts from the engine's current state; one pass of the
    // cycle, applied to both outside the traced units, warms its map.
    let fdd = engine.fdd(client.id).map_err(|e| e.to_string())?;
    let mgr = Manager::new();
    let mut shadow = Shadow {
        fdd: mgr.import(&engine.manager().export(fdd)),
        mgr,
        hops: HashMap::new(),
        model: engine.model(client.id).map_err(|e| e.to_string())?.clone(),
    };
    let mut warm = Trace::new();
    for i in next..next + churn.cycle() {
        warm.unit(|tr| shadow.patch(tr, &mut Layers::default(), &churn.delta(i)))?;
        engine
            .apply(client.id, churn.delta(i))
            .map_err(|e| e.to_string())?;
    }
    next += churn.cycle();

    let fdd_before = FddCounters::of(engine.manager());
    let stats_before = engine.stats();
    // One batch query on its own, to split the batch into its queries and
    // the batch's own overhead.
    let single = client.batch[0].clone();
    let (mut batches, mut singles) = (Samples::default(), Samples::default());
    let mut tr = Trace::new();
    let deadline = Deadline::new(half, 1);
    while deadline.more(tr.units() as usize) && tr.units() < TRACED_UNITS_MAX {
        let i = next;
        next += 1;
        let delta = churn.delta(i);
        let out = tr.unit(|tr| {
            let (report, apply) = tr.span("serve.apply", |_| {
                timed(|| engine.apply(client.id, delta.clone()))
            });
            let report = report.map_err(|e| e.to_string())?;
            let ((), shadow_t) = {
                let (res, t) = timed(|| shadow.patch(tr, &mut layers, &delta));
                (res?, t)
            };
            let (mut answers, batch_t) = tr.span("serve.batch", |_| {
                timed(|| engine.query_batch(&client.batch))
            });
            answers.push(tr.span("serve.query", |_| engine.query(&client.point)));
            let (one, single_t) =
                tr.span("serve.single_query", |_| timed(|| engine.query(&single)));
            batches.push_us(batch_t);
            singles.push_us(single_t);
            Ok::<_, String>((report, answers, one, apply, shadow_t))
        });
        match out {
            Ok((report, answers, one, apply, shadow_t)) => {
                check_answers(r, &churn, i, &answers);
                r.check(one.as_ref().ok() == answers[0].as_ref().ok(), || {
                    format!(
                        "step {i}: a lone query answered {one:?}, the batch {:?}",
                        answers[0]
                    )
                });
                r.check(shadow.agrees(&engine, client.id), || {
                    format!("step {i}: shadow patch is not equiv to the engine's diagram")
                });
                let s = &mut layers.serve;
                s.deltas += 1;
                s.touched += report.touched_upper_bound as u64;
                s.changed += report.switches_changed as u64;
                s.recompiled += report.switches_recompiled as u64;
                s.rebuilt += switches;
                s.shadow_ms.push_ms(shadow_t);
                s.engine_overhead_ms
                    .push((apply.as_secs_f64() - shadow_t.as_secs_f64()) * 1e3);
            }
            Err(e) => r.check(false, || format!("traced step {i}: {e}")),
        }
    }
    verify(&engine, r);
    layers.serve.batch_overhead_us = match (batches.quantile(0.5), singles.quantile(0.5)) {
        (Some(b), Some(q)) => b - BATCH as f64 * q,
        _ => return Err("too few traced steps for batch and query medians".into()),
    };
    let stats = engine.stats();
    let s = &mut layers.serve;
    s.hop_hits = stats.hop_cache_hits - stats_before.hop_cache_hits;
    s.hop_lookups = s.hop_hits + stats.hop_cache_misses - stats_before.hop_cache_misses;
    s.queries_shed = stats.queries_shed;
    s.degraded_answers = stats.degraded_answers;
    layers
        .fdd
        .add(&FddCounters::of(engine.manager()).since(&fdd_before));
    layers.finish(&tr, args, r)
}

/// A recovery round's survivor-side results, for the checks that follow.
struct Round {
    recovered: Engine,
    client_id: ModelId,
    last: Vec<Option<Ratio>>,
    records: u64,
    first: Result<Answer, EngineError>,
}

impl Round {
    /// The recovered engine must replay every record, pass its cold check
    /// and answer as the survivor last did.
    fn check(&self, r: &mut Report, churn: &Churn, layers: &mut Layers) {
        let want_records = 1 + (churn.cycle() + ROUND_STEPS) as u64;
        r.check(self.records == want_records, || {
            format!(
                "replayed {} records, journaled {want_records}",
                self.records
            )
        });
        let (ok, t) = timed(|| self.recovered.verify_against_cold(self.client_id));
        layers.serve.verify_cold_ms.push_ms(t);
        r.check(matches!(ok, Ok(true)), || {
            format!("recovered engine vs cold compile: {ok:?}")
        });
        let client = Client::new(churn, self.client_id);
        let mut again = self.recovered.query_batch(&client.batch);
        again.push(self.recovered.query(&client.point));
        let again: Vec<Option<Ratio>> = again
            .iter()
            .map(|a| a.as_ref().ok().and_then(|a| a.prob().cloned()))
            .collect();
        let first = self.first.as_ref().ok().and_then(|a| a.prob().cloned());
        r.check(again == self.last && first == self.last[BATCH], || {
            format!(
                "recovered answers {again:?} (first {first:?}), survivor's {:?}",
                self.last
            )
        });
    }
}

/// `recovery`: `Engine::with_journal` on fattree(8). A round opens a fresh
/// journal, loads the model, warms the cycle, runs [`ROUND_STEPS`]
/// journaled steps, drops the engine, and times `Engine::recover` plus the
/// first answer — the round's verdict.
pub fn recovery(args: &Args, r: &mut Report) -> Result<(), String> {
    let churn = Churn::new(8, args.seed)?;
    let dir = work_dir()?.join(format!("journal-{}", std::process::id()));
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let (model, engine, _) = setups(&churn, Some(&dir), &mut e2e, &mut layers)?;
    drop(engine);
    r.note(churn.describe(&model));
    let result = recovery_rounds(args, r, &churn, &model, &dir, e2e, layers);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn recovery_rounds(
    args: &Args,
    r: &mut Report,
    churn: &Churn,
    model: &NetworkModel,
    dir: &Path,
    mut e2e: EndToEnd,
    mut layers: Layers,
) -> Result<(), String> {
    let cycle = churn.cycle();
    let round = |r: &mut Report, e2e: &mut EndToEnd| -> Result<(Round, Duration), String> {
        let (opened, mut busy) = timed(|| open_warm(model, churn, Some(dir)));
        let (mut engine, client) = opened?;
        let mut last = Vec::new();
        for i in cycle..cycle + ROUND_STEPS {
            let s = step(&mut engine, &client, churn.delta(i))
                .map_err(|e| format!("journaled step {i}: {e}"))?;
            last = check_answers(r, churn, i, &s.answers);
            s.record(e2e);
            busy += s.verdict();
        }
        let ((), crash) = timed(|| drop(engine));
        let t = Instant::now();
        let (recovered, report) =
            Engine::recover(EngineConfig::default(), dir).map_err(|e| format!("recover: {e}"))?;
        let first = recovered.query(&client.point);
        let verdict = t.elapsed();
        e2e.verdict.push_ms(verdict);
        e2e.verdicts += 1;
        busy += crash + verdict;
        let round = Round {
            recovered,
            client_id: client.id,
            last,
            records: report.records_replayed,
            first,
        };
        Ok((round, busy))
    };

    if !args.trace {
        let deadline = Deadline::new(args.seconds as f64, P90_SAMPLES);
        while deadline.more(e2e.verdict.len()) {
            let (done, busy) = round(r, &mut e2e)?;
            e2e.busy_s += busy.as_secs_f64();
            done.check(r, churn, &mut layers);
        }
        return e2e.report(r);
    }

    let half = args.seconds as f64 / 2.0;
    let deadline = Deadline::new(half, 1);
    let mut plain = EndToEnd::default();
    while deadline.more(plain.verdict.len()) {
        let (done, busy) = round(r, &mut plain)?;
        layers.untraced_unit_ms.push_ms(busy);
        done.check(r, churn, &mut layers);
    }

    let switches = model.topo.switches().len() as u64;
    let (mut journaled, mut in_memory) = (Samples::default(), Samples::default());
    let mut tr = Trace::new();
    let deadline = Deadline::new(half, 1);
    while deadline.more(tr.units() as usize) && tr.units() < TRACED_UNITS_MAX {
        let out = tr.unit(|tr| {
            let (engine, client) =
                tr.span("serve.open_warm", |_| open_warm(model, churn, Some(dir)))?;
            let (twin, twin_client) =
                tr.span("serve.open_warm_memory", |_| open_warm(model, churn, None))?;
            let (mut engine, mut twin) = (engine, twin);
            let bytes_before = engine.stats().journal_bytes;
            let stats_before = engine.stats();
            let mut steps = Vec::new();
            for i in cycle..cycle + ROUND_STEPS {
                let (report, t) = tr.span("serve.apply", |_| {
                    timed(|| engine.apply(client.id, churn.delta(i)))
                });
                let report = report.map_err(|e| format!("journaled step {i}: {e}"))?;
                journaled.push_ms(t);
                let (twin_report, t) = tr.span("serve.apply_memory", |_| {
                    timed(|| twin.apply(twin_client.id, churn.delta(i)))
                });
                twin_report.map_err(|e| format!("in-memory step {i}: {e}"))?;
                in_memory.push_ms(t);
                let mut answers = tr.span("serve.batch", |_| engine.query_batch(&client.batch));
                answers.push(tr.span("serve.query", |_| engine.query(&client.point)));
                steps.push((i, answers));
                let s = &mut layers.serve;
                s.deltas += 1;
                s.touched += report.touched_upper_bound as u64;
                s.changed += report.switches_changed as u64;
                s.recompiled += report.switches_recompiled as u64;
                s.rebuilt += switches;
            }
            let stats = engine.stats();
            let s = &mut layers.serve;
            s.journal_bytes += stats.journal_bytes - bytes_before;
            s.journaled_deltas += ROUND_STEPS as u64;
            s.hop_hits += stats.hop_cache_hits - stats_before.hop_cache_hits;
            s.hop_lookups += stats.hop_cache_hits - stats_before.hop_cache_hits
                + stats.hop_cache_misses
                - stats_before.hop_cache_misses;
            s.queries_shed += stats.queries_shed;
            s.degraded_answers += stats.degraded_answers;
            layers.fdd.add(&FddCounters::of(engine.manager()));
            tr.span("serve.crash", |_| drop((engine, twin)));
            let ((recovered, report), t) = tr
                .span("serve.recover", |_| {
                    let (out, t) = timed(|| Engine::recover(EngineConfig::default(), dir));
                    out.map(|o| (o, t))
                })
                .map_err(|e| format!("recover: {e}"))?;
            layers.serve.replay_records += report.records_replayed;
            layers.serve.replay_s += t.as_secs_f64();
            let first = tr.span("serve.query", |_| recovered.query(&client.point));
            Ok::<_, String>((recovered, client.id, steps, report.records_replayed, first))
        });
        let (recovered, client_id, steps, records, first) = out?;
        let mut last = Vec::new();
        for (i, answers) in &steps {
            last = check_answers(r, churn, *i, answers);
        }
        let round = Round {
            recovered,
            client_id,
            last,
            records,
            first,
        };
        round.check(r, churn, &mut layers);
    }
    layers.serve.journal_overhead_ms = match (journaled.quantile(0.5), in_memory.quantile(0.5)) {
        (Some(j), Some(m)) => j - m,
        _ => return Err("too few traced deltas for the journal overhead".into()),
    };
    layers.finish(&tr, args, r)
}
