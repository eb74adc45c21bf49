//! Measurement helpers shared by the workloads: sample statistics, the
//! process's peak memory, the in-memory span log, and the timing wrapper
//! around the model learner that the traced runs attribute layers with.

use amle_automaton::Nfa;
use amle_core::{extract_conditions, RunReport};
use amle_expr::{Expr, VarId, VarSet};
use amle_learner::{LearnError, ModelLearner, WordStats};
use amle_system::{TraceSet, TraceStore};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The instant every span timestamp is measured from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn nanos_since_epoch(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// The median of `values` (the mean of the middle two for an even count).
/// Used for medians over passes and replays; latency percentiles use
/// [`percentile`].
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The Harrell–Davis estimate of the `p`-quantile of `values`
/// (`0 < p < 1`): a weighted mean of the order statistics, the i-th weighted
/// by the mass of Beta(p(n+1), (1-p)(n+1)) on [(i-1)/n, i/n]. Unlike a single
/// order statistic it does not jump when the quantile falls where the
/// samples change scale, as the refine latencies do between the two heavy
/// Table I systems and the rest.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    // Each interval's mass by Simpson's rule on the unnormalised density,
    // scaled by the density's peak; the weights are normalised at the end.
    let mode = ((a - 1.0).max(0.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9);
    let peak = log_density(mode);
    let density = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            (log_density(x) - peak).exp()
        }
    };
    const STEPS: usize = 8;
    let (mut total, mut weighted) = (0.0, 0.0);
    for (i, value) in sorted.iter().enumerate() {
        let (lo, hi) = (i as f64 / n as f64, (i + 1) as f64 / n as f64);
        let h = (hi - lo) / STEPS as f64;
        let mut mass = density(lo) + density(hi);
        for k in 1..STEPS {
            mass += density(lo + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        mass *= h / 3.0;
        total += mass;
        weighted += mass * value;
    }
    weighted / total
}

/// The highest whole percentile that leaves at least ten samples above it,
/// or `None` when there are too few samples for any.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    (1..=99)
        .rev()
        .find(|&p| samples.saturating_sub((p as usize * samples).div_ceil(100)) >= 10)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs `setup` `times` times and returns the median duration together
/// with the last result.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        let value = setup();
        durations.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&durations), last.expect("setup ran at least once"))
}

/// One recorded interval. `kind` is `measured` for an interval timed around
/// a call, `derived` for one computed from the gaps between measured spans
/// and the program's own reports, and `posthoc` for work repeated after the
/// run to time it (condition extraction).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: u64,
    pub name: &'static str,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory while the benchmark runs and written out at the end.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        run: u64,
        name: &'static str,
        kind: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            run,
            name,
            kind,
            start_ns: nanos_since_epoch(start),
            end_ns: nanos_since_epoch(end),
        });
        id
    }

    /// Appends another log's spans, renumbering their ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.run, s.name, s.kind, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One `learn_from_store` call seen by [`TimedLearner`].
#[derive(Debug, Clone)]
pub struct LearnCall {
    pub enter: Instant,
    /// When the wrapped learner returned.
    pub learned: Instant,
    /// When the wrapper returned (after keeping a copy of the candidate).
    pub exit: Instant,
    pub candidate: Nfa,
}

/// The calls a [`TimedLearner`] recorded, shared with the benchmark because
/// the learning loop owns the learner itself.
#[derive(Debug, Clone, Default)]
pub struct CallLog(Rc<RefCell<Vec<LearnCall>>>);

impl CallLog {
    /// The calls recorded since the last `take`.
    pub fn take(&self) -> Vec<LearnCall> {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

/// A model learner that timestamps every `learn_from_store` call into the
/// wrapped learner and keeps each candidate, so that condition extraction can
/// be timed on it after the run without adding work inside the loop.
#[derive(Debug)]
pub struct TimedLearner<L> {
    inner: L,
    calls: CallLog,
}

impl<L: ModelLearner> TimedLearner<L> {
    pub fn new(inner: L) -> (Self, CallLog) {
        let calls = CallLog::default();
        (
            TimedLearner {
                inner,
                calls: calls.clone(),
            },
            calls,
        )
    }
}

impl<L: ModelLearner> ModelLearner for TimedLearner<L> {
    fn learn(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
    ) -> Result<Nfa, LearnError> {
        self.inner.learn(vars, observables, traces)
    }

    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        let enter = Instant::now();
        let result = self.inner.learn_from_store(vars, observables, store);
        let learned = Instant::now();
        if let Ok(candidate) = &result {
            let candidate = candidate.clone();
            self.calls.0.borrow_mut().push(LearnCall {
                enter,
                learned,
                exit: Instant::now(),
                candidate,
            });
        }
        result
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solver_stats(&self) -> amle_core::SolverStats {
        self.inner.solver_stats()
    }

    fn word_stats(&self) -> WordStats {
        self.inner.word_stats()
    }
}

/// Where one refinement call's `RunReport::total_time` went, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Inside the wrapped learner.
    pub learn: Duration,
    /// Condition extraction, timed on the same candidates after the run.
    pub conditions: Duration,
    /// `IterationStats::check_time` summed (extraction included).
    pub check: Duration,
    /// Splicing plus loop bookkeeping, from the gaps between learn calls.
    pub splice: Duration,
    pub total: Duration,
    pub learn_calls: usize,
    pub extracted: usize,
}

impl Attribution {
    /// Learn + conditions + engine + splice as a share of `total_time`.
    pub fn coverage(&self) -> f64 {
        let engine = self.check.saturating_sub(self.conditions);
        let covered = self.learn + self.conditions + engine + self.splice;
        ratio(covered.as_secs_f64(), self.total.as_secs_f64())
    }

    pub fn add(&mut self, other: &Attribution) {
        self.learn += other.learn;
        self.conditions += other.conditions;
        self.check += other.check;
        self.splice += other.splice;
        self.total += other.total;
        self.learn_calls += other.learn_calls;
        self.extracted += other.extracted;
    }
}

/// Attributes one refinement run by the gap method: the interval between the
/// end of learn call `i` and the start of call `i + 1`, minus
/// `iteration_stats[i].check_time`, is the splice of iteration `i` plus loop
/// bookkeeping; for the last iteration, `total_time` minus everything else
/// is its splice tail. Spans go to `log` under `parent`.
pub fn attribute(
    report: &RunReport,
    calls: &[LearnCall],
    init: &Expr,
    log: Option<(&mut SpanLog, usize, u64)>,
) -> Attribution {
    assert_eq!(
        calls.len(),
        report.iteration_stats.len(),
        "one learn call per iteration"
    );
    let mut at = Attribution {
        total: report.total_time,
        learn_calls: calls.len(),
        ..Attribution::default()
    };
    let mut accounted = Duration::ZERO;
    let mut derived = Vec::new();
    for (i, (call, stats)) in calls.iter().zip(&report.iteration_stats).enumerate() {
        at.learn += call.learned - call.enter;
        at.check += stats.check_time;
        accounted += call.exit - call.enter;
        let check_end = call.exit + stats.check_time;
        derived.push(("learn", "measured", call.enter, call.learned));
        derived.push(("check", "derived", call.exit, check_end));
        let splice = match calls.get(i + 1) {
            Some(next) => {
                let gap = next.enter.saturating_duration_since(call.exit);
                accounted += gap;
                gap.saturating_sub(stats.check_time)
            }
            None => report
                .total_time
                .saturating_sub(accounted + stats.check_time),
        };
        at.splice += splice;
        derived.push(("splice", "derived", check_end, check_end + splice));
    }
    let mut extraction_spans = Vec::with_capacity(calls.len());
    for call in calls {
        let start = Instant::now();
        let extracted = extract_conditions(&call.candidate, init);
        let end = Instant::now();
        at.conditions += end - start;
        at.extracted += extracted.len();
        extraction_spans.push((start, end));
    }
    if let Some((log, parent, run)) = log {
        for (name, kind, start, end) in derived {
            log.push(Some(parent), run, name, kind, start, end);
        }
        for (start, end) in extraction_spans {
            log.push(Some(parent), run, "conditions", "posthoc", start, end);
        }
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_known_quantiles() {
        let uniform: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert!((percentile(&uniform, 0.5) - 501.0).abs() < 0.5);
        assert!((percentile(&uniform, 0.9) - 901.0).abs() < 1.5);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!((percentile(&[1.0, 3.0], 0.5) - 2.0).abs() < 1e-6);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_above() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(228), Some(95));
    }
}
