//! Per-layer counters read from `RunReport`, combined with the gap-method
//! attribution of the traced runs, and their rendering as named metrics.

use crate::measure::{median, ratio, Attribution};
use amle_core::RunReport;
use std::time::Duration;

/// One named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Layer counters summed over the refinement calls of one pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub at: Attribution,
    pub min_coverage: Option<f64>,
    pub traces: u64,
    pub segments: u64,
    pub new_traces: u64,
    pub sat_time: Duration,
    pub solve_calls: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub kinduction_queries: u64,
    pub explicit_queries: u64,
    pub ledger_reused: u64,
    pub ledger_attempted: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub conditions_solved: u64,
    pub spurious: u64,
    pub words_encoded: u64,
    pub words_reused: u64,
}

impl Layers {
    /// Adds one refinement call. `final_store` is false for a session's
    /// intermediate refines, whose store sizes a later refine supersedes.
    pub fn add_run(&mut self, report: &RunReport, at: &Attribution, final_store: bool) {
        self.at.add(at);
        let coverage = at.coverage();
        self.min_coverage = Some(self.min_coverage.map_or(coverage, |c| c.min(coverage)));
        if final_store {
            self.traces += report.trace_store.traces as u64;
            self.segments += report.trace_store.segments as u64;
        }
        let solver = report.solver_stats();
        let checker = &report.checker_stats;
        self.sat_time += solver.solve_time;
        self.solve_calls += solver.solve_calls;
        self.conflicts += solver.conflicts;
        self.propagations += solver.propagations;
        self.kinduction_queries += checker.kinduction_queries;
        self.explicit_queries += checker.explicit_queries;
        self.ledger_reused += checker.disj_reused + checker.frames_reused;
        self.ledger_attempted += checker.disj_reused
            + checker.frames_reused
            + checker.disj_encoded
            + checker.frames_encoded;
        self.cache_hits += report.verdict_cache.hits;
        self.cache_misses += report.verdict_cache.misses;
        self.words_encoded += report.word_stats.words_encoded;
        self.words_reused += report.word_stats.words_reused;
        for stats in &report.iteration_stats {
            self.new_traces += stats.new_traces as u64;
            self.conditions_solved += stats.conditions_solved as u64;
            self.spurious += stats.spurious_counterexamples as u64;
        }
    }

    /// The per-layer metrics these counters define (everything but the
    /// expression, session, serve and overhead metrics, which other code
    /// measures).
    pub fn metrics(&self) -> Vec<Metric> {
        let at = &self.at;
        let total = at.total.as_secs_f64();
        let engine = at.check.saturating_sub(at.conditions).as_secs_f64();
        vec![
            ("store.splice_time_s", at.splice.as_secs_f64(), "s"),
            (
                "store.splice_share",
                ratio(at.splice.as_secs_f64(), total),
                "share",
            ),
            ("store.traces", self.traces as f64, "count"),
            ("store.segments", self.segments as f64, "count"),
            ("store.new_traces", self.new_traces as f64, "count"),
            ("sat.time_s", self.sat_time.as_secs_f64(), "s"),
            ("sat.solve_calls", self.solve_calls as f64, "count"),
            (
                "sat.calls_per_query",
                ratio(self.solve_calls as f64, self.kinduction_queries as f64),
                "ratio",
            ),
            ("sat.conflicts", self.conflicts as f64, "count"),
            (
                "sat.props_per_conflict",
                ratio(self.propagations as f64, self.conflicts as f64),
                "ratio",
            ),
            (
                "checker.kinduction_queries",
                self.kinduction_queries as f64,
                "count",
            ),
            (
                "checker.explicit_queries",
                self.explicit_queries as f64,
                "count",
            ),
            (
                "checker.ledger_reuse_ratio",
                ratio(self.ledger_reused as f64, self.ledger_attempted as f64),
                "share",
            ),
            ("engine.check_time_s", engine, "s"),
            (
                "engine.cache_hit_ratio",
                ratio(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                ),
                "share",
            ),
            (
                "engine.conditions_solved",
                self.conditions_solved as f64,
                "count",
            ),
            ("engine.spurious", self.spurious as f64, "count"),
            ("conditions.time_s", at.conditions.as_secs_f64(), "s"),
            ("conditions.extracted", at.extracted as f64, "count"),
            ("learner.time_s", at.learn.as_secs_f64(), "s"),
            ("learner.calls", at.learn_calls as f64, "count"),
            (
                "learner.word_reuse_ratio",
                ratio(
                    self.words_reused as f64,
                    (self.words_encoded + self.words_reused) as f64,
                ),
                "share",
            ),
            (
                "trace.coverage",
                self.min_coverage.unwrap_or(f64::NAN),
                "share",
            ),
        ]
    }
}

/// The median of each metric over passes; for `trace.coverage`, the
/// smallest value, since it must hold on every run.
pub fn median_metrics(per_pass: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = per_pass.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            let value = if name == "trace.coverage" {
                values.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                median(&values)
            };
            (name, value, unit)
        })
        .collect()
}

/// The expression interner's process-wide counters as metrics. The interner
/// is global and only grows, so these cover the whole process.
pub fn interner_metrics() -> Vec<Metric> {
    let stats = amle_core::InternerStats::snapshot();
    vec![
        (
            "expr.intern_hit_rate",
            ratio(
                stats.hits as f64,
                (stats.hits + stats.nodes_interned) as f64,
            ),
            "share",
        ),
        ("expr.nodes_interned", stats.nodes_interned as f64, "count"),
    ]
}
