//! The traced run's span recorder.
//!
//! Spans are recorded in memory around the benchmark's own calls into the
//! library crates — never inside them — and written out once at exit. A
//! span is named `layer.stage`; every span of one unit of work shares the
//! unit's id, and the unit's root span is [`UNIT`]. A span's *self time*
//! is its duration minus the durations of its direct children, so the self
//! times of a unit's spans add up to the root span's duration exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of a unit's root span. Its self time is the benchmark harness's
/// own share of the unit (loop bookkeeping, argument set-up, drops).
pub const UNIT: &str = "bench.unit";

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// The unit of work this span belongs to (1-based).
    pub unit: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only, single-threaded span recorder.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` as a new unit of work under a fresh root span.
    pub fn unit<R>(&mut self, f: impl FnOnce(&mut Trace) -> R) -> R {
        assert!(self.open.is_empty(), "units do not nest");
        self.unit += 1;
        self.span(UNIT, f)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        assert!(
            !self.open.is_empty() || name == UNIT,
            "span {name} outside a unit"
        );
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit: self.unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Units recorded so far.
    pub fn units(&self) -> u32 {
        self.unit
    }

    /// Writes every span as one tab-separated line (with its self time).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "unit\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.unit, s.name, s.start_ns, s.end_ns, own[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children run inside their parent's interval and one after another (the
/// recorder is single-threaded), so the subtraction cannot underflow.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

/// Total self time per span name, summed over every unit.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Total self time per layer (the span name up to its first `.`).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (name, ns) in self_time_by_name(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_insert(0) += ns;
    }
    by_layer
}

/// Checks that each unit's self times add up to its root span's duration.
/// Returns the units checked, or a description of the first mismatch.
pub fn check_unit_sums(spans: &[Span]) -> Result<usize, String> {
    let own = self_times(spans);
    let mut roots: BTreeMap<u32, u64> = BTreeMap::new();
    let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() && roots.insert(s.unit, s.duration_ns()).is_some() {
            return Err(format!("unit {} has two root spans", s.unit));
        }
        *sums.entry(s.unit).or_insert(0) += own;
    }
    for (unit, sum) in &sums {
        match roots.get(unit) {
            Some(total) if total == sum => {}
            Some(total) => {
                return Err(format!(
                    "unit {unit}: self times sum to {sum} ns, root span lasts {total} ns"
                ))
            }
            None => return Err(format!("unit {unit} has no root span")),
        }
    }
    Ok(roots.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, unit: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // unit [0,100): a [10,60) holding b [20,30) and c [30,50); d [70,90).
        let spans = vec![
            span(UNIT, 0, 100, None, 1),
            span("net.a", 10, 60, Some(0), 1),
            span("fdd.b", 20, 30, Some(1), 1),
            span("fdd.c", 30, 50, Some(1), 1),
            span("net.d", 70, 90, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["net.a"], 20);
        assert_eq!(by_name["fdd.b"], 10);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["net"], 40);
        assert_eq!(by_layer["fdd"], 30);
        assert_eq!(by_layer["bench"], 30);
        assert_eq!(check_unit_sums(&spans), Ok(1));
    }

    #[test]
    fn recorded_units_sum_to_their_root() {
        let mut tr = Trace::new();
        for _ in 0..3 {
            tr.unit(|tr| {
                tr.span("net.outer", |tr| {
                    tr.span("fdd.inner", |_| {
                        std::hint::black_box((0..1000).sum::<u64>())
                    });
                    tr.span("fdd.inner", |_| ());
                });
                tr.span("serve.after", |_| ());
            });
        }
        assert_eq!(tr.units(), 3);
        assert_eq!(tr.spans().len(), 15);
        assert_eq!(check_unit_sums(tr.spans()), Ok(3));
        let total: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(self_time_by_layer(tr.spans()).values().sum::<u64>(), total);
    }

    #[test]
    fn a_mismatched_unit_is_reported() {
        // A span filed under a unit that has no root span cannot be
        // accounted for (the recorder itself never produces one).
        let spans = vec![
            span(UNIT, 0, 100, None, 1),
            span("net.a", 0, 40, Some(0), 1),
        ];
        let mut broken = spans.clone();
        broken[1].unit = 2;
        assert_eq!(check_unit_sums(&spans), Ok(1));
        assert!(check_unit_sums(&broken).is_err());
    }
}
