//! What a run measured, and how it becomes the printed metrics: the
//! end-to-end sample sets of an untraced run, and the spans and counters
//! of a traced one.

use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace::{self, Trace};
use crate::Args;
use mcnetkat_fdd::Manager;

/// The end-to-end sample sets of an untraced run.
#[derive(Default)]
pub struct EndToEnd {
    /// Seconds per set-up.
    pub setup: Samples,
    /// Milliseconds per verdict.
    pub verdict: Samples,
    /// Milliseconds per model update.
    pub patch: Samples,
    /// Microseconds per query batch.
    pub batch: Samples,
    /// Microseconds per point query.
    pub query: Samples,
    /// Verdicts the throughput counts, and the loop's busy seconds.
    pub verdicts: usize,
    pub busy_s: f64,
}

fn quantile(r: &mut Report, name: &'static str, s: &Samples, q: f64) -> Result<(), String> {
    let v = s.quantile(q).ok_or_else(|| {
        format!(
            "{name}: {} samples leave fewer than 10 beyond the percentile",
            s.len()
        )
    })?;
    r.set(name, v, s.len());
    Ok(())
}

impl EndToEnd {
    /// Sets every end-to-end metric except `peak_rss_mb`, and notes the
    /// percentiles that are printed but not gated.
    pub fn report(&self, r: &mut Report) -> Result<(), String> {
        quantile(r, "setup_s", &self.setup, 0.5)?;
        quantile(r, "verdict_ms_p50", &self.verdict, 0.5)?;
        quantile(r, "verdict_ms_p90", &self.verdict, 0.9)?;
        quantile(r, "patch_ms_p50", &self.patch, 0.5)?;
        quantile(r, "query_us_p50", &self.query, 0.5)?;
        quantile(r, "query_us_p90", &self.query, 0.9)?;
        if self.verdicts == 0 || self.busy_s <= 0.0 {
            return Err("no verdict was timed".into());
        }
        r.set(
            "verdicts_per_s",
            self.verdicts as f64 / self.busy_s,
            self.verdicts,
        );
        // Informative only: across ten runs of the same code, the batch's
        // thread wake-ups, the journal's fsync tail and every p99 moved by
        // more than the largest bound a gated metric may have.
        for (name, s, q) in [
            ("verdict_ms_p99", &self.verdict, 0.99),
            ("patch_ms_p90", &self.patch, 0.9),
            ("patch_ms_p99", &self.patch, 0.99),
            ("batch_us_p50", &self.batch, 0.5),
            ("batch_us_p90", &self.batch, 0.9),
            ("batch_us_p99", &self.batch, 0.99),
            ("query_us_p99", &self.query, 0.99),
        ] {
            let line = match s.quantile(q) {
                Some(v) => format!("{name} = {v:.4} (n={}, not a gated metric)", s.len()),
                None => format!(
                    "{name} not reported: {} samples leave fewer than 10 beyond it",
                    s.len()
                ),
            };
            r.note(line);
        }
        Ok(())
    }
}

/// Cumulative `fdd` and `linalg` counters of one or more managers.
#[derive(Clone, Copy, Debug, Default)]
pub struct FddCounters {
    pub op_hits: u64,
    pub op_lookups: u64,
    pub while_hits: u64,
    pub while_lookups: u64,
    pub transient: u64,
    pub blocks: u64,
    pub sccs: u64,
    pub fallbacks: u64,
    pub peak_live: usize,
    pub scratch_peak: usize,
}

impl FddCounters {
    /// Everything `mgr` has counted since it was created.
    pub fn of(mgr: &Manager) -> FddCounters {
        let op = mgr.op_cache_stats();
        let wc = mgr.while_cache_stats();
        let ls = mgr.loop_solve_stats();
        FddCounters {
            op_hits: op.total_hits(),
            op_lookups: op.total_hits() + op.total_misses(),
            while_hits: wc.hits,
            while_lookups: wc.hits + wc.misses,
            transient: ls.transient_states,
            blocks: ls.lumped_blocks,
            sccs: ls.sccs,
            fallbacks: ls.fallback_retries + ls.dense_fallbacks,
            peak_live: mgr.peak_live_nodes(),
            scratch_peak: 0,
        }
    }

    /// Adds a main manager's counts; peaks take the maximum.
    pub fn add(&mut self, o: &FddCounters) {
        self.op_hits += o.op_hits;
        self.op_lookups += o.op_lookups;
        self.while_hits += o.while_hits;
        self.while_lookups += o.while_lookups;
        self.transient += o.transient;
        self.blocks += o.blocks;
        self.sccs += o.sccs;
        self.fallbacks += o.fallbacks;
        self.peak_live = self.peak_live.max(o.peak_live);
        self.scratch_peak = self.scratch_peak.max(o.scratch_peak);
    }

    /// Adds a per-switch scratch manager: its op-cache work counts, its
    /// peak is a scratch peak.
    pub fn add_scratch(&mut self, scratch: &Manager) {
        let mut c = FddCounters::of(scratch);
        c.scratch_peak = c.peak_live;
        c.peak_live = 0;
        self.add(&c);
    }

    /// The counts of a long-lived manager between `before` and `self`.
    pub fn since(&self, before: &FddCounters) -> FddCounters {
        FddCounters {
            op_hits: self.op_hits - before.op_hits,
            op_lookups: self.op_lookups - before.op_lookups,
            while_hits: self.while_hits - before.while_hits,
            while_lookups: self.while_lookups - before.while_lookups,
            transient: self.transient - before.transient,
            blocks: self.blocks - before.blocks,
            sccs: self.sccs - before.sccs,
            fallbacks: self.fallbacks - before.fallbacks,
            peak_live: self.peak_live,
            scratch_peak: self.scratch_peak,
        }
    }
}

/// Counters of the `serve` layer over a traced run.
#[derive(Default)]
pub struct ServeCounters {
    pub deltas: u64,
    pub touched: u64,
    pub changed: u64,
    pub recompiled: u64,
    /// Switches whose hop inputs were rebuilt (every switch, per delta).
    pub rebuilt: u64,
    pub hop_hits: u64,
    pub hop_lookups: u64,
    /// Per delta: the whole shadow patch, and `Engine::apply` minus it.
    pub shadow_ms: Samples,
    pub engine_overhead_ms: Samples,
    pub batch_overhead_us: f64,
    pub queries_shed: u64,
    pub degraded_answers: u64,
    pub journal_bytes: u64,
    pub journaled_deltas: u64,
    pub journal_overhead_ms: f64,
    pub replay_records: u64,
    pub replay_s: f64,
    pub verify_cold_ms: Samples,
}

/// Everything a traced run reports besides its spans.
#[derive(Default)]
pub struct Layers {
    pub fdd: FddCounters,
    pub serve: ServeCounters,
    /// Milliseconds per topology build, one per set-up.
    pub topo_build_ms: Samples,
    /// Milliseconds per unit in the untraced half of the traced run.
    pub untraced_unit_ms: Samples,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    /// Writes the spans out and sets every per-layer metric.
    pub fn finish(&self, tr: &Trace, args: &Args, r: &mut Report) -> Result<(), String> {
        let path = crate::work_dir()?.join(format!("trace-{}.tsv", args.workload));
        tr.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.note(format!(
            "{} spans of {} traced units written to {}",
            tr.spans().len(),
            tr.units(),
            path.display()
        ));
        self.report(tr, r)
    }

    /// Sets every per-layer metric from the traced units in `tr`.
    fn report(&self, tr: &Trace, r: &mut Report) -> Result<(), String> {
        let units = tr.units();
        if units == 0 {
            return Err("no traced unit completed".into());
        }
        let checked = trace::check_unit_sums(tr.spans())?;
        r.check(checked == units as usize, || {
            format!("{checked} of {units} traced units sum to their root")
        });
        let n = units as usize;
        let per_unit = |v: f64| v / units as f64;
        let names = trace::self_time_by_name(tr.spans());
        let span_ms = |name: &str| per_unit(names.get(name).copied().unwrap_or(0) as f64 / 1e6);
        let layers = trace::self_time_by_layer(tr.spans());
        let layer_ms = |name: &str| per_unit(layers.get(name).copied().unwrap_or(0) as f64 / 1e6);

        r.set(
            "topo.build_ms",
            self.topo_build_ms.mean().unwrap_or(0.0),
            self.topo_build_ms.len(),
        );
        r.set(
            "topo.shortest_paths_us",
            span_ms("topo.shortest_paths") * 1e3,
            n,
        );
        for (metric, span) in [
            ("net.hop_inputs_ms", "net.hop_inputs"),
            ("net.chain_fold_ms", "net.chain_fold"),
            ("net.tail_ms", "net.tail"),
            ("net.min_delivery_ms", "net.min_delivery"),
            ("net.equiv_teleport_ms", "net.equiv_teleport"),
            ("fdd.hop_compile_ms", "fdd.hop_compile"),
            ("fdd.eliminate_ms", "fdd.eliminate"),
            ("fdd.export_import_ms", "fdd.export_import"),
            ("fdd.loop_solve_ms", "fdd.loop_solve"),
        ] {
            r.set(metric, span_ms(span), n);
        }
        r.set("serve.apply_to_us", span_ms("serve.apply_to") * 1e3, n);
        r.set("serve.hop_map_us", span_ms("serve.hop_map") * 1e3, n);

        let f = &self.fdd;
        r.set("fdd.peak_live_nodes", f.peak_live as f64, n);
        r.set("fdd.scratch_peak_nodes", f.scratch_peak as f64, n);
        r.set("fdd.op_cache_hit_ratio", ratio(f.op_hits, f.op_lookups), n);
        r.set("fdd.op_cache_hits", per_unit(f.op_hits as f64), n);
        r.set("fdd.op_cache_lookups", per_unit(f.op_lookups as f64), n);
        r.set(
            "fdd.while_cache_hit_ratio",
            ratio(f.while_hits, f.while_lookups),
            n,
        );
        r.set("linalg.transient_states", per_unit(f.transient as f64), n);
        r.set("linalg.lumped_blocks", per_unit(f.blocks as f64), n);
        r.set("linalg.sccs", per_unit(f.sccs as f64), n);
        r.set("linalg.fallbacks", f.fallbacks as f64, n);
        r.check(f.fallbacks == 0, || {
            format!(
                "{} loop solves fell back past the sparse solver",
                f.fallbacks
            )
        });

        let s = &self.serve;
        let d = s.deltas as usize;
        let per_delta = |v: u64| ratio(v, s.deltas);
        r.set("serve.touched_per_delta", per_delta(s.touched), d);
        r.set("serve.switches_changed_per_delta", per_delta(s.changed), d);
        r.set(
            "serve.switches_recompiled_per_delta",
            per_delta(s.recompiled),
            d,
        );
        r.set(
            "serve.hop_cache_hit_ratio",
            ratio(s.hop_hits, s.hop_lookups),
            d,
        );
        r.set("serve.useful_input_ratio", ratio(s.changed, s.rebuilt), d);
        r.set(
            "serve.shadow_patch_ms",
            s.shadow_ms.mean().unwrap_or(0.0),
            s.shadow_ms.len(),
        );
        r.set(
            "serve.engine_overhead_ms",
            s.engine_overhead_ms.mean().unwrap_or(0.0),
            s.engine_overhead_ms.len(),
        );
        r.set("serve.batch_overhead_us", s.batch_overhead_us, d);
        r.set("serve.queries_shed", s.queries_shed as f64, d);
        r.set("serve.degraded_answers", s.degraded_answers as f64, d);
        r.set(
            "serve.journal_bytes_per_delta",
            ratio(s.journal_bytes, s.journaled_deltas),
            s.journaled_deltas as usize,
        );
        r.set(
            "serve.journal_overhead_ms",
            s.journal_overhead_ms,
            s.journaled_deltas as usize,
        );
        let replay_rate = if s.replay_s > 0.0 {
            s.replay_records as f64 / s.replay_s
        } else {
            0.0
        };
        r.set(
            "serve.replay_records_per_s",
            replay_rate,
            s.replay_records as usize,
        );
        r.set(
            "serve.verify_cold_ms",
            s.verify_cold_ms.mean().unwrap_or(0.0),
            s.verify_cold_ms.len(),
        );

        for (metric, layer) in [
            ("topo.self_ms", "topo"),
            ("net.self_ms", "net"),
            ("fdd.self_ms", "fdd"),
            ("serve.self_ms", "serve"),
            ("bench.self_ms", "bench"),
        ] {
            r.set(metric, layer_ms(layer), n);
        }
        let known = ["topo", "net", "fdd", "serve", "bench"];
        if let Some(stray) = layers.keys().find(|l| !known.contains(l)) {
            return Err(format!("span layer {stray} is not reported"));
        }
        let traced = layer_ms("topo")
            + layer_ms("net")
            + layer_ms("fdd")
            + layer_ms("serve")
            + layer_ms("bench");
        let untraced = self
            .untraced_unit_ms
            .mean()
            .ok_or("the untraced half of the traced run timed no unit")?;
        r.set(
            "trace.untraced_unit_ms",
            untraced,
            self.untraced_unit_ms.len(),
        );
        r.set("trace.traced_unit_ms", traced, n);
        r.set("trace.overhead_ms", traced - untraced, n);
        Ok(())
    }
}
