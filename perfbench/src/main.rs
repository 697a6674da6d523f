//! The McNetKAT benchmark: one command per workload that generates its
//! inputs from a seed, runs a single-threaded closed loop with one client
//! against the library crates' public API, checks every answer, and prints
//! every metric with its unit and sample count. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod compile;
mod layers;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["cold_compile", "serve_churn", "recovery"];

/// Set-ups per run; `setup_s` is their median, which needs 21 samples to
/// have ten beyond it.
pub const SETUPS: usize = 21;

/// Traced units a run records at most: enough for stable per-layer means,
/// and it bounds the spans kept in memory and written out.
pub const TRACED_UNITS_MAX: u32 = 500;

/// A timed loop that has not reached its sample floor when its seconds
/// are up keeps going, but stops for good at this multiple of them.
const OVERRUN: f64 = 3.0;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: mcnetkat-perfbench --workload <cold_compile|serve_churn|recovery> \
--seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".into()),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            "--trace" => return Err("--trace takes 0 or 1".into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// When a timed loop stops: after its seconds, once it has `floor`
/// samples (or at [`OVERRUN`] times its seconds, whichever comes first).
pub struct Deadline {
    start: Instant,
    seconds: f64,
    floor: usize,
}

impl Deadline {
    pub fn new(seconds: f64, floor: usize) -> Deadline {
        Deadline {
            start: Instant::now(),
            seconds,
            floor,
        }
    }

    pub fn more(&self, samples: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed < self.seconds || (samples < self.floor && elapsed < self.seconds * OVERRUN)
    }
}

/// Runs `f` and returns its result with the time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Scratch directory for journals and trace files, inside the directory
/// the benchmark runs from.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match args.workload.as_str() {
        "cold_compile" => compile::cold_compile(args, &mut report)?,
        "serve_churn" => serve::serve_churn(args, &mut report)?,
        "recovery" => serve::recovery(args, &mut report)?,
        other => unreachable!("parse_args admitted workload {other}"),
    }
    if !args.trace {
        report.set("peak_rss_mb", peak_rss_mb()?, 1);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if mcnetkat_fdd::AUDIT_ENABLED || mcnetkat_fdd::FAILPOINTS_ENABLED {
        eprintln!(
            "refusing to run: the library was built with the audit or failpoints feature, \
             whose checks would be timed with everything else"
        );
        return ExitCode::from(2);
    }
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = report.print(args.trace) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if report.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload recovery --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("recovery", 7, 3, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("").is_err());
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload recovery --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload recovery --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload recovery --seed 1 --seconds 1").is_err());
        assert!(args("--workload recovery --seed").is_err());
    }

    #[test]
    fn a_deadline_waits_for_its_sample_floor() {
        let started = |ago: u64| Deadline {
            start: Instant::now() - Duration::from_secs(ago),
            seconds: 1.0,
            floor: 5,
        };
        assert!(started(0).more(5), "within its seconds");
        assert!(started(2).more(4), "past its seconds, short of the floor");
        assert!(!started(2).more(5), "past its seconds, floor reached");
        assert!(!started(4).more(4), "past the overrun limit");
    }
}
