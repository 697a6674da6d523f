//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here, once, with its unit
//! and direction; `BENCHMARK.json` at the repository root declares the same
//! list (a test keeps the two in step). Each run prints every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`) for every
//! workload: a layer a workload never reaches reports 0.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `target` names the end-to-end metric (and the
/// workload) a change to this metric should move; for an end-to-end metric
/// it says what is measured on each workload.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub target: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    target: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        target,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    target: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        target,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the library waits for. The timing
/// bounds are the largest allowed. On a 2-vCPU VM the host's speed drifts
/// by up to a third between runs: one set of ten runs held every timing
/// within 0.09 of its median (interquartile range), and an earlier set of
/// shorter runs reached 0.24. Peak RSS repeats within 4 %.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, "median of repeated set-ups: topology build, model, engine load and cache warm-up"),
    e2e("verdict_ms_p50", "ms", Lower, 0.25, "input to exact verdict: a cold_compile unit; a serve_churn delta to its 7 answers; a recovery crash to the recovered engine's first answer"),
    e2e("verdict_ms_p90", "ms", Lower, 0.25, "as verdict_ms_p50"),
    e2e("verdicts_per_s", "1/s", Higher, 0.25, "closed-loop verdicts per busy second, checks excluded (recovery: restarts)"),
    e2e("patch_ms_p50", "ms", Lower, 0.25, "the model update a verdict waits on: Engine::apply (journaled on recovery); NetworkModel::compile on cold_compile"),
    e2e("query_us_p50", "us", Lower, 0.25, "one min_delivery query: Queries::min_delivery on cold_compile; Engine::query of MinDelivery on serve_churn and recovery"),
    e2e("query_us_p90", "us", Lower, 0.25, "as query_us_p50"),
    e2e("peak_rss_mb", "MB", Lower, 0.1, "VmHWM at exit, set-up included"),
];

/// Per-layer metrics from the traced run. Times are self times per traced
/// unit (a cold_compile verdict, a serve_churn step, a recovery round)
/// unless the name says otherwise.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    layer("topo.build_ms", "ms", Lower, "setup_s on all workloads"),
    layer("topo.shortest_paths_us", "us", Lower, "patch_ms_p50 on serve_churn (recomputed per delta)"),
    layer("net.hop_inputs_ms", "ms", Lower, "patch_ms_p50 on serve_churn; verdict_ms_p50 on cold_compile"),
    layer("net.chain_fold_ms", "ms", Lower, "patch_ms_p50 on serve_churn; verdict_ms_p50 on cold_compile"),
    layer("net.tail_ms", "ms", Lower, "verdict_ms_p50 on cold_compile"),
    layer("net.min_delivery_ms", "ms", Lower, "query_us_* and verdict_ms_* on cold_compile"),
    layer("net.equiv_teleport_ms", "ms", Lower, "verdict_ms_* on cold_compile (it is most of the query batch)"),
    layer("fdd.hop_compile_ms", "ms", Lower, "verdict_ms_* on cold_compile; no change on serve_churn"),
    layer("fdd.eliminate_ms", "ms", Lower, "verdict_ms_* on cold_compile; no change on serve_churn"),
    layer("fdd.export_import_ms", "ms", Lower, "verdict_ms_* on cold_compile; no change on serve_churn"),
    layer("fdd.loop_solve_ms", "ms", Lower, "verdict_ms_* on cold_compile"),
    layer("fdd.peak_live_nodes", "count", Lower, "peak_rss_mb"),
    layer("fdd.scratch_peak_nodes", "count", Lower, "peak_rss_mb"),
    layer("fdd.op_cache_hit_ratio", "ratio", Higher, "verdict_ms_*"),
    layer("fdd.op_cache_hits", "count", Higher, "verdict_ms_* (per unit)"),
    layer("fdd.op_cache_lookups", "count", Lower, "verdict_ms_* (per unit)"),
    layer("fdd.while_cache_hit_ratio", "ratio", Higher, "patch_ms_* on serve_churn"),
    layer("linalg.transient_states", "count", Lower, "fdd.loop_solve_ms, then verdict_ms_* on cold_compile"),
    layer("linalg.lumped_blocks", "count", Lower, "fdd.loop_solve_ms, then verdict_ms_* on cold_compile"),
    layer("linalg.sccs", "count", Lower, "fdd.loop_solve_ms, then verdict_ms_* on cold_compile"),
    layer("linalg.fallbacks", "count", Lower, "fdd.loop_solve_ms (must stay 0)"),
    layer("serve.touched_per_delta", "count", Lower, "patch_ms_* on serve_churn"),
    layer("serve.switches_changed_per_delta", "count", Lower, "patch_ms_* on serve_churn"),
    layer("serve.switches_recompiled_per_delta", "count", Lower, "patch_ms_* on serve_churn"),
    layer("serve.hop_cache_hit_ratio", "ratio", Higher, "patch_ms_* on serve_churn"),
    layer("serve.useful_input_ratio", "ratio", Higher, "patch_ms_* on serve_churn (switches whose inputs changed over switches whose inputs were rebuilt)"),
    layer("serve.apply_to_us", "us", Lower, "patch_ms_* on serve_churn (shadow Delta::apply_to)"),
    layer("serve.hop_map_us", "us", Lower, "patch_ms_* on serve_churn (shadow HopInputs-keyed map)"),
    layer("serve.shadow_patch_ms", "ms", Lower, "patch_ms_* on serve_churn (whole shadow patch, per delta)"),
    layer("serve.engine_overhead_ms", "ms", Lower, "patch_ms_* on serve_churn (Engine::apply minus the shadow stages, per delta)"),
    layer("serve.batch_overhead_us", "us", Lower, "verdict_ms_* on serve_churn (traced query_batch p50 minus 6 x the p50 of one DeliveryProb query)"),
    layer("serve.queries_shed", "count", Lower, "correct and failed"),
    layer("serve.degraded_answers", "count", Lower, "correct and failed"),
    layer("serve.journal_bytes_per_delta", "bytes", Lower, "patch_ms_p50 on recovery"),
    layer("serve.journal_overhead_ms", "ms", Lower, "patch_ms_p50 on recovery (journaled minus in-memory patch p50, same deltas)"),
    layer("serve.replay_records_per_s", "1/s", Higher, "verdict_ms_* on recovery"),
    layer("serve.verify_cold_ms", "ms", Lower, "verdict_ms_* on recovery (the cold check recovery runs)"),
    layer("topo.self_ms", "ms", Lower, "layer total of the topo spans"),
    layer("net.self_ms", "ms", Lower, "layer total of the net spans"),
    layer("fdd.self_ms", "ms", Lower, "layer total of the fdd spans (linalg runs inside fdd.loop_solve)"),
    layer("serve.self_ms", "ms", Lower, "layer total of the serve spans"),
    layer("bench.self_ms", "ms", Lower, "harness time inside traced units"),
    layer("trace.untraced_unit_ms", "ms", Lower, "mean unit time with tracing off, same process"),
    layer("trace.traced_unit_ms", "ms", Lower, "mean traced unit time: the sum of the five layer totals"),
    layer("trace.overhead_ms", "ms", Lower, "traced minus untraced mean unit time"),
];

/// The metrics of one run, plus the correctness tally.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, (f64, usize)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a metric value measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
        assert!(known, "metric {name} is not in the catalogue");
        assert!(
            self.values.insert(name, (value, samples)).is_none(),
            "metric {name} set twice"
        );
    }

    /// A line printed with the results that is not a metric.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the human-readable table and, last, the JSON result line.
    /// Fails when a metric of the catalogue is missing or not finite.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for line in &self.notes {
            println!("{line}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let mut json = String::new();
        for (i, m) in catalogue.iter().enumerate() {
            let (value, n) = *self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", m.name));
            }
            let rule = match m.bound {
                Some(b) => format!("bound {b}"),
                None => format!("moves {}", m.target),
            };
            println!(
                "{:<36} {value:>16.4} {:<6} n={n:<7} {} is better; {rule}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String");
        }
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_rate = {fail_rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("expected a string, got {other:?}"),
            }
        }
    }

    fn parse(src: &str) -> Json {
        let mut p = Parser {
            s: src.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.i;
            while self.s[self.i] != b'"' {
                assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                self.i += 1;
            }
            self.i += 1;
            String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'"' => Json::Str(self.string()),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return Json::Arr(items);
                        }
                        if !items.is_empty() {
                            self.eat(b',');
                        }
                        items.push(self.value());
                    }
                }
                b'{' => {
                    self.i += 1;
                    let mut kv = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Json::Obj(kv);
                        }
                        if !kv.is_empty() {
                            self.eat(b',');
                        }
                        let k = self.string();
                        self.eat(b':');
                        kv.push((k, self.value()));
                    }
                }
                _ => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                    Json::Num(
                        text.parse()
                            .unwrap_or_else(|_| panic!("bad number {text:?}")),
                    )
                }
            }
        }
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    fn assert_same(section: &Json, catalogue: &[MetricDef]) {
        let Json::Arr(entries) = section else {
            panic!("metric section is not a list")
        };
        assert_eq!(entries.len(), catalogue.len(), "metric count");
        for (entry, def) in entries.iter().zip(catalogue) {
            assert_eq!(entry.get("name").map(Json::str), Some(def.name));
            assert_eq!(
                entry.get("unit").map(Json::str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").map(Json::str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound"),
                def.bound.map(Json::Num).as_ref(),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let m = manifest();
        assert_same(m.get("end_to_end").expect("end_to_end"), END_TO_END);
        assert_same(m.get("per_layer").expect("per_layer"), PER_LAYER);
        let Some(Json::Arr(workloads)) = m.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").expect("name").str())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        for m in END_TO_END {
            assert!(
                m.bound <= setup.bound,
                "{} has a larger bound than setup_s",
                m.name
            );
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16, "{}", m.unit);
        }
    }

    #[test]
    fn the_result_line_needs_every_metric() {
        let mut r = Report::default();
        r.check(true, String::new);
        for m in END_TO_END.iter().skip(1) {
            r.set(m.name, 1.5, 20);
        }
        assert!(r.print(false).unwrap_err().contains("setup_s"));
        r.set("setup_s", 0.25, 21);
        assert!(r.print(false).is_ok());
        assert!(r.print(true).is_err(), "no per-layer metric was set");
    }
}
