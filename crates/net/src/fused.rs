//! Fused per-switch compilation with eager scratch-field elimination.
//!
//! The legacy pipeline compiled the *whole* loop body — every switch's
//! failure draw, routing scheme, topology step and flag erasure — into one
//! FDD before solving the loop, so every switch's `up_i` (and `grp_j`)
//! scratch fields were alive in the same manager simultaneously. Peak
//! diagram size therefore scaled with the cross-product of the entire
//! topology's per-hop randomness (~165 k live nodes and ~1.8 M leaf
//! distribution entries on fattree(8)), even though each scratch field is
//! born and dies within a single switch-hop.
//!
//! This module restructures compilation the way the paper does
//! (conf_pldi_SmolkaKKFHK019 compiles switch-local programs first and only
//! then assembles the global model):
//!
//! ```text
//!   per switch s (scratch manager):
//!     draw_s ; scheme_s ; topo-step_s ; bump?      — compile
//!     eliminate up_i / grp_j                        — Manager::eliminate
//!     export → import                               — scratch-free, tiny
//!   main manager:
//!     case sw=s₁ … sw=sₙ chain of imported hops     — assemble
//!     while-solve ; ingress ; pt<-0 ; local wrappers
//! ```
//!
//! Peak live nodes now scale with the *largest single switch*, not the
//! topology. Two elimination modes:
//!
//! * **Factored** (`FailureSpec::is_factorable`, i.e. no failure budget):
//!   the draw program is never compiled at all. The routing diagram tests
//!   `up_i`/`grp_j` directly, and [`Manager::eliminate`] convex-sums each
//!   test with the corresponding Bernoulli weight — the factored
//!   failure-draw representation the ROADMAP called for.
//! * **Budget-coupled** (`k = Some(_)`): the budget guard sequences the
//!   draws, so the draw program is compiled into the hop first; the
//!   scratch fields are then write-only and stripped by elimination.
//!
//! Both modes produce per-switch diagrams that mention no scratch field,
//! so the global body, the loop solve, and the final diagram never see
//! them — no per-hop erasure, no final [`Manager::forget`] projection.
//!
//! The parallelising backend of §6 ([`compile_model_parallel`]) is this
//! same pipeline with the per-switch compile/eliminate/export step fanned
//! out over scoped worker threads; the import, the chain and the tail are
//! shared, so both return the same handle.

use crate::model::bump_hop_counter;
use crate::scheme::switch_program;
use crate::NetworkModel;
use mcnetkat_core::{Pred, Prog};
use mcnetkat_fdd::{
    CancelToken, CompileError, CompileOptions, Fdd, FddExport, Manager, ScratchField,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{NodeId, ShortestPaths};
use std::any::Any;
use std::collections::BTreeSet;

/// Size gauges from one fused compile: how big the per-switch scratch
/// compilations got before elimination. Together with the main manager's
/// [`Manager::peak_live_nodes`] / [`Manager::peak_dist_entries`] this
/// bounds the pipeline's true peak memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct FusedStats {
    /// Switches compiled.
    pub switches: usize,
    /// Largest scratch-manager node count over all switches.
    pub max_scratch_nodes: usize,
    /// Largest scratch-manager distribution-entry total over all switches.
    pub max_scratch_dist_entries: usize,
}

impl FusedStats {
    fn absorb_scratch(&mut self, scratch: &Manager) {
        self.switches += 1;
        self.max_scratch_nodes = self.max_scratch_nodes.max(scratch.peak_live_nodes());
        self.max_scratch_dist_entries = self
            .max_scratch_dist_entries
            .max(scratch.peak_dist_entries());
    }

    /// Folds another gauge set in (sums switch counts, maxes the peaks) —
    /// used to merge per-worker gauges in the parallel backend.
    pub fn merge(&mut self, other: &FusedStats) {
        self.switches += other.switches;
        self.max_scratch_nodes = self.max_scratch_nodes.max(other.max_scratch_nodes);
        self.max_scratch_dist_entries = self
            .max_scratch_dist_entries
            .max(other.max_scratch_dist_entries);
    }
}

/// The complete, self-contained inputs of one switch's fused hop compile:
/// the program to compile (draw prefix + route + topology step + hop
/// bump) and the scratch-field specification to eliminate afterwards.
///
/// Everything the compiled hop diagram depends on is in here — the
/// routing scheme (via the expanded program), the topology slice, the
/// hop cap, and the failure-spec slice relevant to this switch (group
/// membership, Bernoulli weights, budget coupling). `Eq`/`Hash` are
/// structural, so two switches — or the same switch before and after a
/// model delta — compile to identical diagrams **iff** their `HopInputs`
/// compare equal. That makes [`HopInputs::cache_key`] a sound
/// invalidation key for incremental recompilation (`mcnetkat-serve`
/// builds its per-switch diagram cache on exactly this).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HopInputs {
    /// The hop program compiled in the scratch manager.
    pub prog: Prog,
    /// Scratch fields eliminated from the compiled hop, in order.
    pub scratch: Vec<ScratchField>,
}

impl HopInputs {
    /// A 64-bit structural fingerprint of the inputs (a [`std::hash::Hash`]
    /// digest). Stable within a process — which is all an in-memory
    /// diagram cache needs — but not across processes or builds.
    pub fn cache_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Assembles switch `s`'s fused hop-compile inputs: `failure draw ;
/// scheme ; topology step ; hop bump` plus the scratch fields to
/// eliminate. Pure AST/spec work — no manager involved.
pub fn hop_inputs(model: &NetworkModel, s: NodeId, sp: &ShortestPaths) -> HopInputs {
    let fields = &model.fields;
    let spec = &model.failure;
    let prone = model.prone_ports(s);
    let sw_val = model.topo.sw_value(s);

    // The deterministic part of the hop: route, cross the link, count.
    let mut route = switch_program(model.scheme_for(s), fields, &model.topo, sp, s, model.dst)
        .seq(model.topology_step(s));
    if let Some(cap) = model.hop_cap {
        route = route.seq(bump_hop_counter(fields, cap));
    }

    let mut scratch: Vec<ScratchField> = Vec::new();
    let prog = if spec.is_factorable() {
        // Factored mode: never compile the draw. Group flags and ungrouped
        // `up` flags become entry draws summed out by `eliminate`; grouped
        // `up` flags are *derived* from their group flag by a compiled
        // prefix, which resolves every downstream test, leaving them
        // write-only.
        let mut prefix = Vec::new();
        let mut grouped: BTreeSet<u32> = BTreeSet::new();
        for (j, group) in spec.groups.iter().enumerate() {
            let members = group.ports_on(sw_val, &prone);
            if members.is_empty() {
                continue;
            }
            let grp = fields.grp(j as u32 + 1);
            scratch.push(ScratchField::bernoulli(
                grp,
                Ratio::one() - group.pr.clone(),
            ));
            for &p in &members {
                grouped.insert(p);
                prefix.push(Prog::ite(
                    Pred::test(grp, 1),
                    Prog::assign(fields.up(p), 1),
                    Prog::assign(fields.up(p), 0),
                ));
            }
        }
        for &p in &prone {
            if grouped.contains(&p) {
                scratch.push(ScratchField::write_only(fields.up(p)));
            } else {
                scratch.push(ScratchField::bernoulli(
                    fields.up(p),
                    Ratio::one() - spec.port_pr(p).clone(),
                ));
            }
        }
        Prog::seq_all(prefix).seq(route)
    } else {
        // Budget-coupled mode: the `fl` guard sequences the draws, so they
        // must be compiled into the hop. Every health test downstream is
        // then resolved by the draw's assignments, leaving the scratch
        // fields write-only.
        let draw = spec.hop_program(fields, sw_val, &prone);
        for &p in &prone {
            scratch.push(ScratchField::write_only(fields.up(p)));
        }
        // Mirror `FailureSpec::hop_program`: only groups with members on
        // this switch are drawn here, so only their flags exist to
        // eliminate. Listing the rest would couple every switch's
        // `HopInputs` to every group, making a group edit invalidate
        // switches the group never touches.
        for (j, group) in spec.groups.iter().enumerate() {
            if !group.ports_on(sw_val, &prone).is_empty() {
                scratch.push(ScratchField::write_only(fields.grp(j as u32 + 1)));
            }
        }
        draw.seq(route)
    };
    HopInputs { prog, scratch }
}

/// Compiles one hop's [`HopInputs`] in a fresh scratch manager, eliminates
/// the scratch fields, and exports the (tiny, scratch-free) result.
/// Touches no shared manager, so it runs on any thread. `stats` records
/// the scratch manager's peak size.
///
/// # Errors
///
/// Propagates [`CompileError`] from the scratch compile.
pub fn compile_hop_export(
    inputs: &HopInputs,
    opts: &CompileOptions,
    stats: &mut FusedStats,
) -> Result<FddExport, CompileError> {
    let scratch = Manager::new();
    let hop = scratch.compile_with(&inputs.prog, opts)?;
    let fdd = scratch.eliminate(hop, &inputs.scratch);
    stats.absorb_scratch(&scratch);
    Ok(scratch.export(fdd))
}

/// [`compile_hop_export`] followed by the import into `target`.
///
/// # Errors
///
/// Propagates [`CompileError`] from the scratch compile.
pub fn compile_hop_import(
    target: &Manager,
    inputs: &HopInputs,
    opts: &CompileOptions,
    stats: &mut FusedStats,
) -> Result<Fdd, CompileError> {
    Ok(target.import(&compile_hop_export(inputs, opts, stats)?))
}

/// Builds the global `sw`-case chain from per-switch hop diagrams, in
/// reverse switch order so the chain tests switches in declaration order
/// (mirroring the legacy `Prog::case`). `hop` supplies each switch's
/// scratch-free diagram — a fresh compile in the sequential pipeline, an
/// import of a worker's export in the parallel one, a cache lookup in an
/// incremental engine.
///
/// Each link is one hash-consed `sw = v` branch over the hop restricted to
/// `sw = v`, whenever that branch is well-ordered: the restricted hop's
/// root tests a field above `sw` and the rest of the chain's root lies
/// above `(sw, v)`. `sw` values ascend in
/// [`mcnetkat_topo::Topology::switches`] order, so this holds whenever
/// `sw` was interned before every field a hop tests (as
/// [`crate::NetworkModel::new`] does in a fresh process), and then (FDDs
/// being canonical) the branch is the very handle an `ite` over an
/// `sw = v` test would produce. Field order is process-wide interning
/// order, though, so a link that fails the O(1) root check falls back to
/// that `ite`.
///
/// # Errors
///
/// Propagates the first error `hop` returns.
pub fn assemble_chain(
    mgr: &Manager,
    model: &NetworkModel,
    mut hop: impl FnMut(NodeId) -> Result<Fdd, CompileError>,
) -> Result<Fdd, CompileError> {
    let sw = model.fields.sw;
    let mut body = mgr.fail();
    for &s in model.topo.switches().iter().rev() {
        let v = model.topo.sw_value(s);
        let hi = mgr.restrict_eq(hop(s)?, sw, v);
        let ordered = mgr.root_test(hi).is_none_or(|(f, _)| f > sw)
            && mgr.root_test(body).is_none_or(|t| t > (sw, v));
        body = if ordered {
            mgr.branch(sw, v, hi, body)
        } else {
            let test = mgr.branch(sw, v, mgr.pass(), mgr.fail());
            mgr.ite(test, hi, body)
        };
    }
    Ok(body)
}

/// Compiles the whole model through the fused pipeline, returning the
/// diagram in `mgr` together with the scratch-size gauges.
pub(crate) fn compile_model_fused(
    mgr: &Manager,
    model: &NetworkModel,
    opts: &CompileOptions,
) -> Result<(Fdd, FusedStats), CompileError> {
    let sp = ShortestPaths::towards(&model.topo, model.dst);
    let mut stats = FusedStats::default();
    let body = assemble_chain(mgr, model, |s| {
        // Per-switch budget checkpoint: deadline/cancellation aborts land
        // at switch granularity even before the per-op governor notices.
        opts.budget.check_external()?;
        compile_hop_import(mgr, &hop_inputs(model, s, &sp), opts, &mut stats)
    })?;
    let fdd = assemble_model(mgr, model, body, opts)?;
    #[cfg(feature = "audit")]
    audit_compiled_model(mgr, model, fdd);
    Ok((fdd, stats))
}

/// Compiles `model` using `workers` threads for the per-switch hops.
///
/// The sequential pipeline with its hop compiles fanned out: the switch
/// set is split into contiguous chunks, one per
/// [`std::thread::scope`] worker, and each worker runs [`hop_inputs`] →
/// [`compile_hop_export`] for its switches. The exports are then imported
/// in switch order through the same [`assemble_chain`] and finished by the
/// same [`assemble_model`], so the result is the very handle
/// [`NetworkModel::compile`] returns for any `workers` (1 included). `opts`
/// governs every compile, on worker threads and in `mgr` alike.
///
/// # Errors
///
/// Propagates the first real [`CompileError`] raised by any worker (a
/// panicking worker surfaces as [`CompileError::WorkerPanicked`]), or by
/// the shared tail.
pub fn compile_model_parallel(
    mgr: &Manager,
    model: &NetworkModel,
    workers: usize,
    opts: &CompileOptions,
) -> Result<Fdd, CompileError> {
    Ok(compile_model_parallel_with_stats(mgr, model, workers, opts)?.0)
}

/// [`compile_model_parallel`] plus the fused pipeline's scratch-size
/// gauges, merged over every worker (`switches` sums, peaks max).
///
/// # Errors
///
/// As [`compile_model_parallel`].
pub fn compile_model_parallel_with_stats(
    mgr: &Manager,
    model: &NetworkModel,
    workers: usize,
    opts: &CompileOptions,
) -> Result<(Fdd, FusedStats), CompileError> {
    let sp = ShortestPaths::towards(&model.topo, model.dst);
    let switches = model.topo.switches();

    // Fan-out cancellation: workers run under a *child* of the caller's
    // token (or a fresh one), so the first failure can cancel its
    // siblings promptly without firing the caller's own token.
    let abort = opts
        .budget
        .cancel
        .as_ref()
        .map_or_else(CancelToken::new, CancelToken::child);
    let worker_opts = CompileOptions {
        budget: opts.budget.clone().with_cancel(abort.clone()),
        ..opts.clone()
    };

    // Map: every join is collected — a worker panic is converted into
    // `WorkerPanicked` and cancels the remaining workers; it never
    // propagates as a panic and never leaks a running thread.
    let chunk = switches.len().div_ceil(workers.max(1)).max(1);
    let mut exports: Vec<FddExport> = Vec::with_capacity(switches.len());
    let mut stats = FusedStats::default();
    let mut first_err: Option<CompileError> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = switches
            .chunks(chunk)
            .map(|work| {
                let (sp, abort, opts) = (&sp, &abort, &worker_opts);
                scope.spawn(move || {
                    let result = contain_panics(|| compile_chunk(model, work, sp, opts));
                    if result.is_err() {
                        // Fail fast: siblings see the cancellation at their
                        // next checkpoint, not after finishing their chunk.
                        abort.cancel();
                    }
                    result
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(Ok((part, worker_stats))) => {
                    exports.extend(part);
                    stats.merge(&worker_stats);
                }
                Ok(Err(e)) => note_error(&mut first_err, e),
                // Unreachable in practice (`contain_panics` already caught
                // inside the worker), kept so a join failure can never
                // poison the scope.
                Err(payload) => note_error(
                    &mut first_err,
                    CompileError::WorkerPanicked {
                        payload: payload_string(payload.as_ref()),
                    },
                ),
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    opts.budget.check_external()?;

    // Ordered import: chunks were joined in order, so `exports[i]` is
    // `switches[i]`'s hop.
    let body = assemble_chain(mgr, model, |s| {
        let i = switches
            .iter()
            .position(|&t| t == s)
            .expect("a model switch");
        Ok(mgr.import(&exports[i]))
    })?;
    let fdd = assemble_model(mgr, model, body, opts)?;
    #[cfg(feature = "audit")]
    audit_compiled_model(mgr, model, fdd);
    Ok((fdd, stats))
}

/// One worker's share of [`compile_model_parallel`]: the exported fused
/// hop of every switch in `work`, in order, plus the worker's gauges.
fn compile_chunk(
    model: &NetworkModel,
    work: &[NodeId],
    sp: &ShortestPaths,
    opts: &CompileOptions,
) -> Result<(Vec<FddExport>, FusedStats), CompileError> {
    let mut stats = FusedStats::default();
    let exports = work
        .iter()
        .map(|&s| {
            // Per-switch checkpoint: a cancelled sibling token or expired
            // deadline stops this worker at the next switch boundary.
            worker_failpoint()?;
            opts.budget.check_external()?;
            compile_hop_export(&hop_inputs(model, s, sp), opts, &mut stats)
        })
        .collect::<Result<_, _>>()?;
    Ok((exports, stats))
}

/// Renders a caught panic payload for [`CompileError::WorkerPanicked`].
fn payload_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Error-precedence accumulator for the fan-in join: the first *real*
/// error wins; [`CompileError::Cancelled`] only sticks when nothing better
/// arrives, because sibling workers are cancelled *as a consequence* of
/// the first failure and their cancellation must not mask its cause.
fn note_error(slot: &mut Option<CompileError>, e: CompileError) {
    match slot {
        None => *slot = Some(e),
        Some(CompileError::Cancelled) if !matches!(e, CompileError::Cancelled) => *slot = Some(e),
        Some(_) => {}
    }
}

/// Runs `f`, converting any panic into [`CompileError::WorkerPanicked`]
/// so the fan-out degrades into a typed error instead of tearing the
/// process down. The default panic hook still reports the panic site to
/// stderr, which is exactly what a postmortem wants.
fn contain_panics<T>(f: impl FnOnce() -> Result<T, CompileError>) -> Result<T, CompileError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(CompileError::WorkerPanicked {
            payload: payload_string(payload.as_ref()),
        }),
    }
}

/// Polls the `net::parallel::worker` failpoint. Compiles away without the
/// `failpoints` feature.
fn worker_failpoint() -> Result<(), CompileError> {
    #[cfg(feature = "failpoints")]
    {
        use mcnetkat_fdd::failpoints::{check, InjectedFault};
        match check("net::parallel::worker") {
            None => Ok(()),
            Some(InjectedFault::Cancelled) => Err(CompileError::Cancelled),
            Some(InjectedFault::Singular) => {
                Err(CompileError::Solver(mcnetkat_fdd::LinalgError::Singular(0)))
            }
        }
    }
    #[cfg(not(feature = "failpoints"))]
    Ok(())
}

/// The `audit` feature's post-compile verification, run on every diagram
/// the fused and parallel backends return: the manager's node and
/// interning tables pass [`Manager::audit`], and the compiled model
/// mentions no scratch field — `up_i`/`grp_j` must not survive
/// elimination, whatever the failure spec.
///
/// # Panics
///
/// Panics on any audit violation or surviving scratch-field test.
#[cfg(feature = "audit")]
pub(crate) fn audit_compiled_model(mgr: &Manager, model: &NetworkModel, fdd: Fdd) {
    mgr.audit().assert_clean();
    let dom = mgr.domain(fdd);
    for &f in model.fields.ups().iter().chain(model.fields.grps()) {
        assert!(
            !dom.tested.contains_key(&f),
            "compiled model diagram tests scratch field {f} — elimination failed to strip it"
        );
    }
}

/// The shared sequential tail of both backends: loop solve, ingress
/// filter, arrival-port normalisation and the local-variable wrappers,
/// given an already-assembled loop-body diagram.
///
/// This is the patch seam of the incremental engine: after a model delta
/// recompiles only the invalidated switches and rebuilds the `sw`-case
/// chain ([`assemble_chain`]), this tail finishes the model. An unchanged
/// chain body hits the manager's `while`-loop solution cache, so the loop
/// solve itself is also incremental.
///
/// # Errors
///
/// Propagates [`CompileError`] from the loop solve and the tail compiles.
pub fn assemble_model(
    mgr: &Manager,
    model: &NetworkModel,
    body: Fdd,
    opts: &CompileOptions,
) -> Result<Fdd, CompileError> {
    let guard = mgr.compile_pred(&model.guard());
    let loop_fdd = mgr.while_loop(guard, body, opts)?;
    let do_while = mgr.seq(body, loop_fdd);

    let ingress = mgr.compile_with(&Prog::filter(model.ingress_pred()), opts)?;
    let with_in = mgr.seq(ingress, do_while);
    let normalise = mgr.compile_with(&Prog::assign(model.fields.pt, 0), opts)?;
    let core = mgr.seq(with_in, normalise);

    let (pre, post) = local_wrappers(model);
    let pre_fdd = mgr.compile_with(&pre, opts)?;
    let post_fdd = mgr.compile_with(&post, opts)?;
    let tmp = mgr.seq(core, post_fdd);
    Ok(mgr.seq(pre_fdd, tmp))
}

/// The local-variable wrappers of [`NetworkModel::program`] as explicit
/// pre/post assignment sequences (enter assignments before, erasures
/// after).
pub(crate) fn local_wrappers(model: &NetworkModel) -> (Prog, Prog) {
    let mut pre = Vec::new();
    let mut post = Vec::new();
    for i in 1..=model.topo.max_degree() as u32 {
        pre.push(Prog::assign(model.fields.up(i), 1));
        post.push(Prog::assign(model.fields.up(i), 0));
    }
    if model.failure.k.is_some() && !model.failure.is_failure_free() {
        pre.push(Prog::assign(model.fields.fl, 0));
        post.push(Prog::assign(model.fields.fl, 0));
    }
    pre.push(Prog::assign(model.fields.dt, 0));
    post.push(Prog::assign(model.fields.dt, 0));
    (Prog::seq_all(pre), Prog::seq_all(post))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureModel, FailureSpec, RoutingScheme, Srlg};
    use mcnetkat_topo::ab_fattree;

    fn mk(scheme: RoutingScheme, failure: impl Into<FailureSpec>) -> NetworkModel {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(topo, dst, scheme, failure)
    }

    #[test]
    fn fused_matches_legacy_unbounded() {
        let m = mk(
            RoutingScheme::F10_3,
            FailureModel::independent(Ratio::new(1, 10)),
        );
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn fused_matches_legacy_bounded() {
        let m = mk(
            RoutingScheme::F10_3_5,
            FailureModel::bounded(Ratio::new(1, 10), 2),
        );
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn fused_matches_legacy_failure_free() {
        let m = mk(RoutingScheme::Ecmp, FailureModel::none());
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn fused_matches_legacy_srlg_unbounded() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let pr = Ratio::new(1, 50);
        let spec = FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr));
        let m = NetworkModel::new(topo, dst, RoutingScheme::F10_3, spec);
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    /// The `sw`-case chain as an `ite` fold over `sw = v` tests — the
    /// construction [`assemble_chain`] replaced.
    fn ite_chain(mgr: &Manager, model: &NetworkModel, hops: &[Fdd]) -> Fdd {
        let mut body = mgr.fail();
        for (&s, &fdd) in model.topo.switches().iter().zip(hops).rev() {
            let v = model.topo.sw_value(s);
            let test = mgr.branch(model.fields.sw, v, mgr.pass(), mgr.fail());
            body = mgr.ite(test, fdd, body);
        }
        body
    }

    #[test]
    fn direct_chain_is_the_ite_fold_handle() {
        let topo = ab_fattree(4);
        let pr = Ratio::new(1, 10);
        let srlg = FailureSpec::independent(pr.clone())
            .with_groups(Srlg::linecards(&topo, &Ratio::new(1, 50)));
        let models = [
            mk(RoutingScheme::Ecmp, FailureModel::independent(pr.clone())),
            mk(RoutingScheme::F10_3, FailureModel::independent(pr.clone())),
            mk(RoutingScheme::F10_3, srlg),
            mk(RoutingScheme::Ecmp, FailureModel::independent(pr.clone())).with_hop_cap(8),
            mk(RoutingScheme::F10_3, FailureModel::bounded(pr, 1)),
        ];
        for m in &models {
            let mgr = Manager::new();
            let sp = ShortestPaths::towards(&m.topo, m.dst);
            let opts = CompileOptions::default();
            let mut stats = FusedStats::default();
            let hops: Vec<Fdd> = m
                .topo
                .switches()
                .iter()
                .map(|&s| {
                    compile_hop_import(&mgr, &hop_inputs(m, s, &sp), &opts, &mut stats).unwrap()
                })
                .collect();
            let switches = m.topo.switches();
            let hop = |s| Ok(hops[switches.iter().position(|&t| t == s).unwrap()]);
            let direct = assemble_chain(&mgr, m, hop).unwrap();
            assert_eq!(direct, ite_chain(&mgr, m, &hops));
        }
    }

    #[test]
    fn fused_scratch_stats_are_per_switch_sized() {
        let m = mk(
            RoutingScheme::Ecmp,
            FailureModel::independent(Ratio::new(1, 1000)),
        );
        let mgr = Manager::new();
        let (fdd, stats) = m
            .compile_with_stats(&mgr, &CompileOptions::default())
            .unwrap();
        assert_eq!(stats.switches, m.topo.switches().len());
        assert!(stats.max_scratch_nodes > 0);
        // The compiled diagram mentions no scratch field.
        let dom = mgr.domain(fdd);
        for up in m.fields.ups() {
            assert!(!dom.tested.contains_key(up));
        }
    }
}
