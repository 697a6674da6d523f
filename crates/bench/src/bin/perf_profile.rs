//! Perf profile of the FDD compile path: fused-vs-legacy stage timings,
//! peak-size gauges, and per-cache hit rates for fattree(6) and fattree(8)
//! with the paper's f = 1/1000 independent failure model.
//!
//! This is the harness behind the ROADMAP's "profile the FDD compile
//! path" item, rebuilt around the fused per-switch pipeline: it times the
//! legacy whole-body compile (the old frontier) next to a cold fused
//! compile, and reports the gauges that prove the restructure — the main
//! manager's peak live nodes / distribution entries and the largest
//! per-switch scratch manager ([`mcnetkat_net::FusedStats`]).
//!
//! Output: human tables on stdout, plus a flat JSON dump of per-cache hit
//! rates (percent) to `crates/bench/BENCH_opcache.json` (the CWD when
//! not run from the workspace root) — `bench_compare` appends this to
//! its report when present. Override the path with
//! `MCNETKAT_OPCACHE_PATH`; set it to the empty string to disable.
//!
//! `MCNETKAT_SCALE=paper` adds fattree(10) and fattree(12) — scales the
//! legacy pipeline could not touch; the default profile finishes in ~1 s
//! (legacy comparison runs at p ≤ 8 only).

use mcnetkat_bench::{scale, secs, timed, Scale, Table};
use mcnetkat_fdd::{CompileOptions, Manager};
use mcnetkat_net::{FailureModel, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::fattree;

fn model_for(p: usize) -> NetworkModel {
    let topo = fattree(p);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureModel::independent(Ratio::new(1, 1000)),
    )
}

// The audit guard is a runtime (not const) assert on purpose: `cargo
// test --features audit` builds this binary without running it, and must
// keep compiling.
#[allow(clippy::assertions_on_constants)]
fn main() {
    assert!(
        !mcnetkat_fdd::AUDIT_ENABLED,
        "the `audit` feature is enabled in a profiling build — timings \
         would include invariant audits; rebuild without it"
    );
    // Same for the fault-injection registry: armed-site checks sit on the
    // compile hot path and would skew every stage timing.
    assert!(
        !mcnetkat_fdd::FAILPOINTS_ENABLED,
        "the `failpoints` feature is enabled in a profiling build — \
         timings would include fault-injection checks; rebuild without it"
    );
    let ps: &[usize] = match scale() {
        Scale::Small => &[6, 8],
        Scale::Paper => &[6, 8, 10, 12],
    };
    println!("FDD compile-path profile (ECMP, f = 1/1000)\n");
    let mut stages = Table::new(&[
        "topology",
        "legacy body",
        "legacy total",
        "fused total",
        "speedup",
        "nodes",
        "dist entries",
        "scratch nodes",
    ]);
    let mut rates: Vec<(String, f64)> = Vec::new();
    let mut cache_rows: Vec<(String, Vec<String>)> = Vec::new();
    let mut solve_rows: Vec<Vec<String>> = Vec::new();
    for &p in ps {
        let model = model_for(p);
        let opts = CompileOptions::default();

        // The legacy whole-body path — the pre-fused frontier. Only at
        // p ≤ 8: beyond that it is exactly the blowup the fused pipeline
        // removes, and running it would dominate the profile.
        let (legacy_body, legacy_total) = if p <= 8 {
            let (ast, _) = timed(|| (model.body(), model.guard()));
            let (body_prog, _guard) = ast;
            let stage_mgr = Manager::new();
            let (res, t_body) = timed(|| stage_mgr.compile_with(&body_prog, &opts));
            res.expect("legacy body compile");
            drop(stage_mgr);
            let legacy_mgr = Manager::new();
            let (res, t_total) = timed(|| model.compile_legacy_with(&legacy_mgr, &opts));
            res.expect("legacy compile");
            (Some(t_body), Some(t_total))
        } else {
            (None, None)
        };

        // The fused pipeline: a cold full-model compile plus its gauges.
        let mgr = Manager::new();
        let (res, t_fused) = timed(|| model.compile_with_stats(&mgr, &opts));
        let (_fdd, fstats) = res.expect("fused compile");
        let speedup = legacy_total.map_or("—".to_string(), |t| format!("{:.1}×", t / t_fused));
        stages.row(vec![
            format!("fattree({p})"),
            legacy_body.map_or("—".into(), secs),
            legacy_total.map_or("—".into(), secs),
            secs(t_fused),
            speedup,
            mgr.peak_live_nodes().to_string(),
            mgr.peak_dist_entries().to_string(),
            fstats.max_scratch_nodes.to_string(),
        ]);

        // Loop-solver gauges: how much of the while-loop chains the
        // symmetry quotient and SCC condensation actually removed.
        let ls = mgr.loop_solve_stats();
        solve_rows.push(vec![
            format!("fattree({p})"),
            ls.solves.to_string(),
            ls.transient_states.to_string(),
            ls.lumped_blocks.to_string(),
            ls.sccs.to_string(),
            ls.max_transient.to_string(),
            if ls.transient_states > 0 {
                format!(
                    "{:.1}×",
                    ls.transient_states as f64 / (ls.lumped_blocks.max(1)) as f64
                )
            } else {
                "—".into()
            },
        ]);

        for c in mgr.op_cache_stats().caches {
            if c.lookups() == 0 {
                continue;
            }
            rates.push((format!("fattree{p}/{}", c.name), 100.0 * c.hit_rate()));
            cache_rows.push((
                format!("fattree({p})"),
                vec![
                    c.name.to_string(),
                    c.hits.to_string(),
                    c.misses.to_string(),
                    c.entries.to_string(),
                    format!("{:.1}%", 100.0 * c.hit_rate()),
                ],
            ));
        }
    }
    stages.print();

    println!("\nloop-solver gauges (sparse SCC solve with symmetry lumping)");
    let mut solves = Table::new(&[
        "topology",
        "solves",
        "transient",
        "lumped blocks",
        "SCCs",
        "max transient",
        "collapse",
    ]);
    for row in solve_rows {
        solves.row(row);
    }
    solves.print();

    println!("\nop-cache hit rates (cold fused full-model compile)");
    let mut caches = Table::new(&["topology", "cache", "hits", "misses", "entries", "hit rate"]);
    for (topo, row) in cache_rows {
        let mut cells = vec![topo];
        cells.extend(row);
        caches.row(cells);
    }
    caches.print();

    dump_rates(&rates);
}

/// Writes the hit rates (percent) as flat JSON (`{"label": number, …}`),
/// the same shape as the criterion shim's `BENCH_results.json`, so
/// `bench_compare` can parse it with the machinery it already has.
fn dump_rates(rates: &[(String, f64)]) {
    // Keep every benchmark artifact under `crates/bench/` when running
    // from the workspace root; fall back to the CWD elsewhere.
    let path = std::env::var("MCNETKAT_OPCACHE_PATH").unwrap_or_else(|_| {
        if std::path::Path::new("crates/bench").is_dir() {
            "crates/bench/BENCH_opcache.json".to_string()
        } else {
            "BENCH_opcache.json".to_string()
        }
    });
    if path.is_empty() {
        return;
    }
    let mut json = String::from("{\n");
    for (i, (label, rate)) in rates.iter().enumerate() {
        let sep = if i + 1 == rates.len() { "" } else { "," };
        json.push_str(&format!("  \"{label}\": {rate:.2}{sep}\n"));
    }
    json.push_str("}\n");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {} op-cache hit rates to {path}", rates.len()),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
