//! The active model-learning loop (Fig. 1 of the paper).

use crate::conditions::{extract_conditions, AssumptionMemo, Condition, ConditionKind};
use crate::engine::{ConditionChecker, OracleConfig, ParallelConfig, VerdictCacheStats};
use crate::report::{Invariant, IterationStats, RunReport};
use amle_expr::{Valuation, VarId};
use amle_learner::{LearnError, ModelLearner};
use amle_system::{Simulator, System, Trace, TraceSet, TraceStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Configuration of an active-learning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveLearnerConfig {
    /// The observable variables `X` the abstraction ranges over. `None` means
    /// all system variables.
    pub observables: Option<Vec<VarId>>,
    /// Number of random traces in the initial trace set (the paper uses 50).
    pub initial_traces: usize,
    /// Length of each random trace (the paper uses 50).
    pub trace_length: usize,
    /// k-induction bound for the spurious-counterexample check (the paper
    /// assumes a benchmark-specific `k` is supplied).
    pub k: usize,
    /// Safety bound on the number of learning iterations (plays the role of
    /// the paper's wall-clock timeout).
    pub max_iterations: usize,
    /// Bound on consecutive spurious counterexamples blocked for a single
    /// condition before the condition is given up for this iteration.
    pub max_spurious_rounds: usize,
    /// Seed for the random trace generator.
    pub seed: u64,
    /// Parallelism of the condition-checking engine. The default honours the
    /// `AMLE_WORKERS` environment variable (1 = sequential); reports are
    /// byte-identical across worker counts.
    pub parallel: ParallelConfig,
    /// The condition-oracle stack and planner behaviour: which engine
    /// answers queries (`AMLE_ENGINE`), whether the cross-iteration verdict
    /// cache is on (`AMLE_VERDICT_CACHE`), the explicit engine's per-query
    /// budget and the portfolio's cross-validation switch. Semantic
    /// fingerprints are byte-identical across engines and cache settings.
    pub oracle: OracleConfig,
}

impl Default for ActiveLearnerConfig {
    fn default() -> Self {
        ActiveLearnerConfig {
            observables: None,
            initial_traces: 50,
            trace_length: 50,
            k: 10,
            max_iterations: 25,
            max_spurious_rounds: 10,
            seed: 0xA1,
            parallel: ParallelConfig::from_env(),
            oracle: OracleConfig::from_env(),
        }
    }
}

/// Errors raised by the active-learning loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActiveLearnError {
    /// The model-learning component failed.
    Learner(LearnError),
    /// The configuration is unusable (e.g. no traces requested).
    BadConfig {
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for ActiveLearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActiveLearnError::Learner(e) => write!(f, "model learning failed: {e}"),
            ActiveLearnError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
        }
    }
}

impl Error for ActiveLearnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ActiveLearnError::Learner(e) => Some(e),
            ActiveLearnError::BadConfig { .. } => None,
        }
    }
}

impl From<LearnError> for ActiveLearnError {
    fn from(e: LearnError) -> Self {
        ActiveLearnError::Learner(e)
    }
}

/// Converts a valid counterexample into new traces by splicing it onto the
/// shortest prefix of every existing trace that ends in a state satisfying
/// the violated condition's assumption (Section III-B).
///
/// This is the **retained reference implementation** over flat traces: the
/// loop itself runs [`splice_counterexample`] on the interned
/// [`TraceStore`], which must insert exactly the distinct traces this
/// function produces, in the same first-occurrence order — the differential
/// tests below drive both with identical counterexample sequences and
/// compare the resulting sets observation for observation.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn counterexample_traces(
    condition: &Condition,
    from: &Valuation,
    to: &Valuation,
    traces: &TraceSet,
) -> Vec<Trace> {
    if condition.kind == ConditionKind::Initial {
        return vec![Trace::new(vec![to.clone()])];
    }
    let mut new_traces = Vec::new();
    for trace in traces.iter() {
        if let Some(j) = trace
            .observations()
            .iter()
            .position(|v| condition.assumption.eval_bool(v))
        {
            let mut observations = trace.observations()[..j].to_vec();
            observations.push(from.clone());
            observations.push(to.clone());
            new_traces.push(Trace::new(observations));
        }
    }
    if new_traces.is_empty() {
        new_traces.push(Trace::new(vec![from.clone(), to.clone()]));
    }
    new_traces
}

/// The store-backed splicing step (Section III-B): splices the valid
/// counterexample `from → to` onto the shortest qualifying prefix of every
/// trace stored before the call, returning the number of *new* traces this
/// inserted.
///
/// The prefixes come from one pruned walk of the segment trie
/// ([`TraceStore::first_match_prefixes`]): it stops at the first
/// observation satisfying the assumption on each path, so the cost is the
/// segments that precede a first match plus a sort of the distinct
/// prefixes, not the summed length of every stored trace. The assumption
/// is evaluated at most once per distinct observation. Parent traces that
/// share a qualifying prefix *segment* would all produce the same spliced
/// trace, so each distinct segment is spliced once, in the order of the
/// first trace that yields it — exactly the order in which the reference
/// [`counterexample_traces`] path first produces each trace, so the traces
/// inserted, their ids and everything downstream are identical.
pub(crate) fn splice_counterexample(
    store: &mut TraceStore,
    condition: &Condition,
    from: &Valuation,
    to: &Valuation,
) -> usize {
    if condition.kind == ConditionKind::Initial {
        return usize::from(store.insert(std::slice::from_ref(to)).is_some());
    }
    // Traces spliced in by earlier counterexamples of the same iteration are
    // visible; the ones this call adds are not.
    let mut memo = AssumptionMemo::new(&condition.assumption, store.num_observations());
    let prefixes =
        store.first_match_prefixes(store.len(), |obs| memo.eval(obs, store.valuation(obs)));
    if prefixes.is_empty() {
        // No trace reaches the assumption: record the bare transition.
        return usize::from(store.insert(&[from.clone(), to.clone()]).is_some());
    }
    prefixes
        .into_iter()
        .filter(|prefix| store.splice(*prefix, from, to).is_some())
        .count()
}

/// The active model-learning algorithm.
///
/// See the [crate documentation](crate) for the algorithm outline and an
/// end-to-end example.
#[derive(Debug)]
pub struct ActiveLearner<'a, L: ModelLearner> {
    system: &'a System,
    learner: L,
    config: ActiveLearnerConfig,
}

impl<'a, L: ModelLearner> ActiveLearner<'a, L> {
    /// Creates an active learner for `system` using the given pluggable
    /// model-learning component.
    pub fn new(system: &'a System, learner: L, config: ActiveLearnerConfig) -> Self {
        ActiveLearner {
            system,
            learner,
            config,
        }
    }

    /// The observable variables of this run.
    pub fn observables(&self) -> Vec<VarId> {
        observables_of(self.system, &self.config)
    }

    /// Runs the loop starting from randomly generated traces.
    ///
    /// # Example
    ///
    /// Learning the Fig. 2 home climate-control cooler to completeness
    /// (`α = 1`, Theorem 1: the abstraction admits every system trace):
    ///
    /// ```
    /// use amle_core::{ActiveLearner, ActiveLearnerConfig};
    /// use amle_expr::{Expr, Sort, Value};
    /// use amle_learner::HistoryLearner;
    /// use amle_system::SystemBuilder;
    ///
    /// let mut b = SystemBuilder::new();
    /// let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120)?;
    /// let on = b.state("s_on", Sort::Bool, Value::Bool(false))?;
    /// let update = b.var(temp).gt(&Expr::int_val(75, 8));
    /// b.update(on, update)?;
    /// let system = b.build()?;
    ///
    /// let config = ActiveLearnerConfig {
    ///     initial_traces: 10,
    ///     trace_length: 10,
    ///     k: 4,
    ///     ..ActiveLearnerConfig::default()
    /// };
    /// let mut learner = ActiveLearner::new(&system, HistoryLearner::default(), config);
    /// let report = learner.run()?;
    /// assert!(report.converged);
    /// // The run's traces lived in an interned store; the report carries its
    /// // sharing statistics alongside the paper's columns.
    /// assert!(report.trace_store.unique_observations > 0);
    /// assert_eq!(report.trace_count, report.trace_store.traces);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ActiveLearnError::BadConfig`] for unusable configurations and
    /// [`ActiveLearnError::Learner`] when the model-learning component fails.
    pub fn run(&mut self) -> Result<RunReport, ActiveLearnError> {
        if self.config.initial_traces == 0 || self.config.trace_length == 0 {
            return Err(ActiveLearnError::BadConfig {
                reason: "initial_traces and trace_length must be positive".to_string(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let simulator = Simulator::new(self.system);
        let traces = simulator.random_traces(
            self.config.initial_traces,
            self.config.trace_length,
            &mut rng,
        );
        self.run_with_traces(traces)
    }

    /// Runs the loop starting from a user-supplied initial trace set.
    ///
    /// The run builds one condition-checking engine whose per-worker oracle
    /// stacks keep their incremental solver sessions for the whole run. With
    /// `config.parallel.workers > 1` each iteration's condition checks are
    /// fanned out over that many scoped threads, one per oracle; results are
    /// merged in condition order and the report is byte-identical to a
    /// sequential run (see [`crate::ParallelConfig`]).
    ///
    /// # Errors
    ///
    /// As for [`ActiveLearner::run`].
    pub fn run_with_traces(&mut self, traces: TraceSet) -> Result<RunReport, ActiveLearnError> {
        let mut store = TraceStore::from_trace_set(&traces);
        drop(traces);
        // A batch run builds a fresh engine and drops it with the report; a
        // resident `Session` keeps its engine warm.
        refine_store(
            &mut self.learner,
            self.config.max_iterations,
            &mut store,
            &mut ConditionChecker::new(self.system, &self.config),
        )
    }
}

/// The observables `config` names, or every variable of `system`.
pub(crate) fn observables_of(system: &System, config: &ActiveLearnerConfig) -> Vec<VarId> {
    config
        .observables
        .clone()
        .unwrap_or_else(|| system.all_vars())
}

/// The iteration loop of Fig. 1 over an **externally owned** trace store
/// and condition-checking engine.
///
/// Both front doors run through this function: the batch [`ActiveLearner`]
/// passes a fresh store and engine, a resident [`crate::Session`] its warm
/// ones. The engine accumulates across calls, so the report's checker and
/// verdict-cache statistics are before-and-after deltas covering exactly
/// this call.
///
/// The trace set lives in an interned [`TraceStore`]: the learner consumes
/// it through [`ModelLearner::learn_from_store`] (incremental word
/// conversion and encoding), and counterexamples are spliced in via
/// [`splice_counterexample`]: one pruned walk of the segment trie per
/// counterexample finds the splice prefixes, and each splice is O(1) on a
/// shared prefix. Both paths are pinned byte-identical to the flat-trace
/// reference semantics. The report times each of the three steps (learn,
/// check, splice) per iteration and in total.
pub(crate) fn refine_store<L: ModelLearner>(
    learner: &mut L,
    max_iterations: usize,
    store: &mut TraceStore,
    engine: &mut ConditionChecker<'_>,
) -> Result<RunReport, ActiveLearnError> {
    let system = engine.system();
    let start = Instant::now();
    let mut learn_time = Duration::ZERO;
    let mut check_time = Duration::ZERO;
    let mut splice_time = Duration::ZERO;
    let mut iteration_stats = Vec::new();
    // The engine and the learner accumulate statistics across their
    // lifetime; snapshot them so the report attributes only this run's
    // work. The expression interner's counters are process-global, so a
    // delta snapshot bounds them to this run the same way.
    let checker_start = engine.checker_stats();
    let cache_start = engine.cache_stats();
    let learner_stats_start = learner.solver_stats();
    let word_stats_start = learner.word_stats();
    let interner_start = amle_expr::InternerStats::snapshot();

    let mut abstraction = None;
    let mut conditions: Vec<Condition> = Vec::new();
    let mut alpha = 0.0;
    let mut converged = false;
    let mut iterations = 0;

    for iteration in 1..=max_iterations {
        iterations = iteration;

        // 1. Learn a candidate model from the current trace store.
        let learn_start = Instant::now();
        let words_before = learner.word_stats();
        let candidate = learner.learn_from_store(system.vars(), engine.observables(), store)?;
        let iteration_words = learner.word_stats().since(&words_before);
        let iteration_learn_time = learn_start.elapsed();
        learn_time += iteration_learn_time;

        // 2. Extract and check the completeness conditions.
        let check_start = Instant::now();
        let extracted = extract_conditions(&candidate, &system.init_expr());
        let evaluation = engine.evaluate(&extracted);
        let iteration_check_time = check_start.elapsed();
        check_time += iteration_check_time;

        alpha = evaluation.alpha();

        // 3. Splice valid counterexamples into new traces.
        let splice_start = Instant::now();
        let mut new_traces = 0;
        for (condition, from, to) in &evaluation.counterexamples {
            new_traces += splice_counterexample(store, condition, from, to);
        }
        let iteration_splice_time = splice_start.elapsed();
        splice_time += iteration_splice_time;

        iteration_stats.push(IterationStats {
            iteration,
            conditions: evaluation.total,
            conditions_holding: evaluation.held,
            alpha,
            new_traces,
            spurious_counterexamples: evaluation.spurious,
            inconclusive_counterexamples: evaluation.inconclusive,
            model_states: candidate.num_states(),
            model_transitions: candidate.num_transitions(),
            learn_time: iteration_learn_time,
            check_time: iteration_check_time,
            splice_time: iteration_splice_time,
            words_encoded: iteration_words.words_encoded,
            words_reused: iteration_words.words_reused,
            cache_hits: evaluation.cache_hits,
            conditions_solved: evaluation.solved,
        });

        conditions = extracted;
        abstraction = Some(candidate);

        if alpha >= 1.0 {
            converged = true;
            break;
        }
        if new_traces == 0 {
            // No progress is possible: every violated condition produced
            // only already-known traces (or none at all).
            break;
        }
    }

    let abstraction = abstraction.expect("at least one iteration ran");
    let invariants = conditions
        .iter()
        .map(|c| Invariant {
            assumption: c.assumption.clone(),
            conclusion: c.conclusion(),
        })
        .collect();

    let cache = engine.cache_stats();
    Ok(RunReport {
        abstraction,
        alpha,
        iterations,
        converged,
        invariants,
        iteration_stats,
        trace_count: store.len(),
        total_time: start.elapsed(),
        learn_time,
        check_time,
        splice_time,
        checker_stats: engine.checker_stats().since(&checker_start),
        // `entries` is a gauge and passes through.
        verdict_cache: VerdictCacheStats {
            hits: cache.hits - cache_start.hits,
            misses: cache.misses - cache_start.misses,
            entries: cache.entries,
        },
        learner_solver_stats: learner.solver_stats().since(&learner_stats_start),
        word_stats: learner.word_stats().since(&word_stats_start),
        trace_store: store.stats(),
        interner: amle_expr::InternerStats::snapshot().since(&interner_start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Expr, Sort, Value};
    #[allow(unused_imports)]
    use amle_learner::ModelLearner as _;
    use amle_learner::{HistoryLearner, LstarLearner};
    use amle_system::SystemBuilder;

    /// The Fig. 2 home climate-control cooler.
    fn cooler() -> System {
        let mut b = SystemBuilder::new();
        b.name("HomeClimateControl");
        let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120).unwrap();
        let on = b.state("s_on", Sort::Bool, Value::Bool(false)).unwrap();
        let update = b.var(temp).gt(&Expr::int_val(75, 8));
        b.update(on, update).unwrap();
        b.build().unwrap()
    }

    /// A two-bit saturating counter with a mode flag — needs several
    /// iterations because random traces rarely reach saturation quickly.
    fn counter_with_flag() -> System {
        let mut b = SystemBuilder::new();
        b.name("CountEvents");
        let tick = b.input("tick", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(4), Value::Int(0)).unwrap();
        let full = b.state("full", Sort::Bool, Value::Bool(false)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(9, 4))
            .ite(&ce.add(&Expr::int_val(1, 4)), &ce);
        let next = b.var(tick).ite(&bumped, &ce);
        b.update(c, next.clone()).unwrap();
        b.update(full, next.ge(&Expr::int_val(9, 4))).unwrap();
        b.build().unwrap()
    }

    fn quick_config() -> ActiveLearnerConfig {
        ActiveLearnerConfig {
            initial_traces: 15,
            trace_length: 15,
            k: 6,
            max_iterations: 15,
            ..Default::default()
        }
    }

    #[test]
    fn cooler_converges_to_a_complete_model() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        assert!(
            report.converged,
            "expected convergence, got α = {}",
            report.alpha
        );
        assert_eq!(report.alpha, 1.0);
        assert!(report.num_states() >= 1);
        assert!(!report.invariants.is_empty());
        assert!(report.iterations >= 1);
        assert_eq!(report.iteration_stats.len(), report.iterations);
    }

    #[test]
    fn final_model_admits_fresh_random_traces() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        assert!(report.converged);
        // Theorem 1: the final abstraction admits every system trace. Sample
        // fresh traces with a different seed and verify.
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..20 {
            let t = sim.random_trace(30, &mut rng);
            assert!(report.abstraction.accepts_trace(&t), "fresh trace rejected");
        }
    }

    #[test]
    fn counter_system_requires_iterations_and_converges() {
        let sys = counter_with_flag();
        let config = ActiveLearnerConfig {
            initial_traces: 10,
            trace_length: 6,
            k: 20,
            max_iterations: 30,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::new(1), config);
        let report = learner.run().unwrap();
        assert!(
            report.converged,
            "α = {} after {} iterations",
            report.alpha, report.iterations
        );
        // Short random traces rarely witness the saturation behaviour, so at
        // least one refinement iteration is expected.
        assert!(report.iterations >= 1);
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..10 {
            let t = sim.random_trace(40, &mut rng);
            assert!(report.abstraction.accepts_trace(&t));
        }
    }

    #[test]
    fn lstar_is_a_valid_pluggable_component() {
        let sys = cooler();
        let config = ActiveLearnerConfig {
            initial_traces: 5,
            trace_length: 6,
            k: 4,
            max_iterations: 10,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&sys, LstarLearner::default(), config);
        let report = learner.run().unwrap();
        assert!(report.alpha > 0.0);
    }

    #[test]
    fn alpha_is_monotone_in_practice_for_the_cooler() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        // α of the final iteration must be the maximum seen (the loop stops
        // at 1.0 and otherwise keeps adding behaviours).
        let max_alpha = report
            .iteration_stats
            .iter()
            .map(|s| s.alpha)
            .fold(0.0f64, f64::max);
        assert!(report.alpha >= max_alpha - 1e-9);
    }

    #[test]
    fn solver_stats_flow_into_the_report() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        // The checking phase issues SAT queries through the incremental
        // backend, so aggregated solve calls must be visible in the report.
        assert!(report.checker_stats.solver.solve_calls > 0);
        assert!(report.checker_stats.sat_queries > 0);
        assert_eq!(
            report.checker_stats.solver.solve_calls,
            report.checker_stats.sat_queries
        );
        assert!(report.solver_stats().solve_calls >= report.checker_stats.solver.solve_calls);
        // The history learner does not use SAT.
        assert_eq!(report.learner_solver_stats.solve_calls, 0);
    }

    #[test]
    fn sat_learner_solver_stats_flow_into_the_report() {
        let sys = cooler();
        // Restrict the abstraction to the boolean mode variable: over the full
        // valuation space the 8-bit input yields a large abstract alphabet and
        // exact DFA identification is not tractable in a unit test.
        let on = sys.vars().lookup("s_on").unwrap();
        let config = ActiveLearnerConfig {
            observables: Some(vec![on]),
            initial_traces: 5,
            trace_length: 6,
            k: 4,
            max_iterations: 4,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&sys, amle_learner::SatDfaLearner::default(), config);
        let report = learner.run().unwrap();
        assert!(report.learner_solver_stats.solve_calls > 0);
        assert!(report.solver_stats().solve_calls > report.checker_stats.solver.solve_calls);

        // The learner accumulates stats across its lifetime, but each report
        // must attribute only its own run: an identical second run (same
        // seed, same traces) reports the same per-run solve count, not the
        // cumulative total.
        let second = learner.run().unwrap();
        assert_eq!(
            second.learner_solver_stats.solve_calls,
            report.learner_solver_stats.solve_calls
        );
    }

    #[test]
    fn parallel_engine_reports_match_sequential_byte_for_byte() {
        for system in [cooler(), counter_with_flag()] {
            let mut config = quick_config();
            config.parallel = ParallelConfig::with_workers(1);
            let sequential = ActiveLearner::new(&system, HistoryLearner::default(), config.clone())
                .run()
                .unwrap();
            config.parallel = ParallelConfig::with_workers(4);
            let parallel = ActiveLearner::new(&system, HistoryLearner::default(), config)
                .run()
                .unwrap();
            assert_eq!(sequential.abstraction, parallel.abstraction);
            assert_eq!(
                sequential.semantic_fingerprint(system.vars()),
                parallel.semantic_fingerprint(system.vars()),
                "worker count leaked into the report for {}",
                system.name()
            );
        }
    }

    #[test]
    fn observables_default_to_all_variables() {
        let sys = cooler();
        let learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        assert_eq!(learner.observables().len(), 2);
    }

    #[test]
    fn bad_config_is_rejected() {
        let sys = cooler();
        let config = ActiveLearnerConfig {
            initial_traces: 0,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), config);
        assert!(matches!(
            learner.run(),
            Err(ActiveLearnError::BadConfig { .. })
        ));
    }

    /// A batch run over no traces fails in the learner on either engine,
    /// unlike `Session::refine`, which rejects an empty store up front.
    #[test]
    fn batch_run_without_traces_is_a_learner_error() {
        let sys = cooler();
        for workers in [1, 2] {
            let config = ActiveLearnerConfig {
                parallel: ParallelConfig::with_workers(workers),
                ..quick_config()
            };
            let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), config);
            assert_eq!(
                learner.run_with_traces(TraceSet::new()).unwrap_err(),
                ActiveLearnError::Learner(LearnError::NoTraces),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn run_with_explicit_traces() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(5);
        let traces = sim.random_traces(10, 10, &mut rng);
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run_with_traces(traces).unwrap();
        assert!(report.trace_count >= 1);
        assert!(report.total_time >= report.learn_time);
    }

    /// Drives the reference flat-trace splicing and the store-backed
    /// splicing with the same counterexample sequence and asserts the
    /// resulting trace sets are observation-for-observation identical
    /// (content *and* insertion order), and that both report the same
    /// new-trace counts.
    fn assert_splicing_differential(
        system: &System,
        initial: &TraceSet,
        counterexamples: &[(Condition, Valuation, Valuation)],
    ) {
        let _ = system;
        let mut reference = initial.clone();
        let mut store = TraceStore::from_trace_set(initial);
        for (condition, from, to) in counterexamples {
            let mut reference_new = 0;
            for trace in counterexample_traces(condition, from, to, &reference) {
                if reference.insert(trace) {
                    reference_new += 1;
                }
            }
            let store_new = splice_counterexample(&mut store, condition, from, to);
            assert_eq!(store_new, reference_new, "new-trace counts diverged");
        }
        let materialized = store.to_trace_set();
        assert_eq!(
            materialized.len(),
            reference.len(),
            "trace counts diverged after splicing"
        );
        for (got, want) in materialized.iter().zip(reference.iter()) {
            assert_eq!(
                got.observations(),
                want.observations(),
                "spliced traces diverged observation-for-observation"
            );
        }
    }

    /// Conditions extracted from a model learned on the system's own random
    /// traces, plus concrete counterexample transitions sampled from fresh
    /// simulations — a realistic splicing workload without running the
    /// checker.
    fn splicing_workload(
        system: &System,
        seed: u64,
    ) -> (TraceSet, Vec<(Condition, Valuation, Valuation)>) {
        let sim = Simulator::new(system);
        let mut rng = StdRng::seed_from_u64(seed);
        let traces = sim.random_traces(10, 8, &mut rng);
        let model = HistoryLearner::default()
            .learn(system.vars(), &system.all_vars(), &traces)
            .unwrap();
        let conditions = extract_conditions(&model, &system.init_expr());
        let mut counterexamples = Vec::new();
        for (i, condition) in conditions.iter().enumerate() {
            let probe = sim.random_trace(6, &mut rng);
            let step = probe.steps().nth(i % 5);
            if let Some((from, to)) = step {
                counterexamples.push((condition.clone(), from.clone(), to.clone()));
            }
        }
        assert!(
            counterexamples.len() >= 3,
            "workload should exercise several conditions"
        );
        (traces, counterexamples)
    }

    #[test]
    fn store_splicing_matches_reference_on_the_cooler() {
        let system = cooler();
        let (traces, counterexamples) = splicing_workload(&system, 0xC0);
        assert_splicing_differential(&system, &traces, &counterexamples);
    }

    #[test]
    fn store_splicing_matches_reference_on_a_synthetic_family() {
        let benchmark = amle_benchmarks::benchmark_by_name("SynthModularArithM5")
            .or_else(|| {
                amle_benchmarks::full_suite()
                    .into_iter()
                    .find(|b| b.name.starts_with("Synth"))
            })
            .expect("a synthetic benchmark exists");
        let (traces, counterexamples) = splicing_workload(&benchmark.system, 0x5E);
        assert_splicing_differential(&benchmark.system, &traces, &counterexamples);
    }

    #[test]
    fn duplicate_prefix_splices_are_emitted_once() {
        // Two traces with the same qualifying prefix: the reference path
        // builds both candidates and dedupes on insert; the store path must
        // emit the splice once and report one new trace — and a third trace
        // with a *different* qualifying prefix still yields its own splice.
        let sys = cooler();
        let temp = sys.vars().lookup("inp_temp").unwrap();
        let on = sys.vars().lookup("s_on").unwrap();
        let mk = |t: i64, o: bool| {
            let mut v = sys.initial_valuation();
            v.set(temp, Value::Int(t));
            v.set(on, Value::Bool(o));
            v
        };
        let mut traces = TraceSet::new();
        // Shared prefix [10, 80*] before the first `s_on` observation.
        traces.insert(Trace::new(vec![mk(10, false), mk(80, true), mk(90, true)]));
        traces.insert(Trace::new(vec![mk(10, false), mk(80, true), mk(20, false)]));
        // Different prefix [30] before its first `s_on` observation.
        traces.insert(Trace::new(vec![mk(30, false), mk(95, true)]));

        let condition = Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption: sys.var(on),
            outgoing: vec![Expr::true_()],
        };
        let from = mk(85, true);
        let to = mk(20, true);

        let mut store = TraceStore::from_trace_set(&traces);
        let inserted = splice_counterexample(&mut store, &condition, &from, &to);
        assert_eq!(inserted, 2, "one splice per distinct qualifying prefix");
        assert_eq!(store.len(), traces.len() + 2);

        // And the result matches the reference path exactly.
        assert_splicing_differential(&sys, &traces, &[(condition, from, to)]);
    }

    /// Many rounds of interleaved counterexamples on one growing store, over
    /// a store shaped to trip every shortcut of the first-match walk: the
    /// store path must reproduce the reference's traces, ids and per-call
    /// counts throughout.
    #[test]
    fn store_splicing_matches_reference_over_interleaved_rounds() {
        let sys = cooler();
        let temp = sys.vars().lookup("inp_temp").unwrap();
        let on = sys.vars().lookup("s_on").unwrap();
        let mk = |t: i64, o: bool| {
            let mut v = sys.initial_valuation();
            v.set(temp, Value::Int(t));
            v.set(on, Value::Bool(o));
            v
        };
        let state = |assumption: Expr| Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption,
            outgoing: vec![Expr::true_()],
        };
        let hot = state(sys.var(temp).ge(&Expr::int_val(100, 8)));
        let switched_on = state(sys.var(on));
        let unreachable = state(Expr::false_());
        let initial = Condition {
            kind: ConditionKind::Initial,
            assumption: sys.init_expr(),
            outgoing: vec![],
        };

        // Observations are interned in first-use order: q1 < b < a < q2 < c
        // < d, and `hot` holds exactly on q1 and q2.
        let (q1, q2) = (mk(100, false), mk(110, false));
        let (a, b, c, d) = (mk(10, false), mk(20, false), mk(30, false), mk(40, true));
        let mut traces = TraceSet::new();
        // t0: the first observation qualifies, so the prefix is the root.
        traces.insert(Trace::new(vec![q1.clone(), b.clone()]));
        // t1 and t3 both leave prefix [a] through a qualifying child, and the
        // children's ObsId order (q1 before q2) is the opposite of their
        // first-trace order (t1 through q2, t3 through q1). Prefix [a] must
        // take key t1, before [c, d] from t2.
        traces.insert(Trace::new(vec![a.clone(), q2.clone(), b.clone()]));
        traces.insert(Trace::new(vec![c.clone(), d.clone(), q2.clone()]));
        traces.insert(Trace::new(vec![a.clone(), q1.clone(), c.clone()]));
        // t4: prefix [b] sorts before [a] and [c, d] by ObsId path but
        // comes last by first trace, so neither DFS order is the id order.
        traces.insert(Trace::new(vec![b.clone(), q1.clone()]));
        // t5, t6: strict prefixes of t1 and t2 (marked internal segments).
        traces.insert(Trace::new(vec![a.clone(), q2.clone()]));
        traces.insert(Trace::new(vec![c.clone()]));
        // t7: never qualifies for `hot`.
        traces.insert(Trace::new(vec![a.clone(), b.clone(), c.clone()]));

        let mut counterexamples = Vec::new();
        for round in 0..5i64 {
            let hot_step = (mk(101 + round, round % 2 == 0), mk(5 + round, false));
            counterexamples.push((hot.clone(), hot_step.0.clone(), hot_step.1.clone()));
            counterexamples.push((switched_on.clone(), mk(50 + round, true), mk(60, false)));
            counterexamples.push((unreachable.clone(), mk(70 + round, false), mk(71, true)));
            counterexamples.push((initial.clone(), mk(0, false), mk(round, false)));
            // The same counterexample again: only duplicates, on both paths.
            counterexamples.push((hot.clone(), hot_step.0, hot_step.1));
        }
        assert_splicing_differential(&sys, &traces, &counterexamples);

        // The first `hot` splice lands on root, [a], [c, d], [b], in that
        // order, as trace ids 8..=11.
        let mut store = TraceStore::from_trace_set(&traces);
        let (from, to) = (mk(101, true), mk(5, false));
        assert_eq!(splice_counterexample(&mut store, &hot, &from, &to), 4);
        let heads: Vec<Vec<Valuation>> = store
            .to_trace_set()
            .iter()
            .skip(traces.len())
            .map(|trace| trace.observations()[..trace.len() - 2].to_vec())
            .collect();
        assert_eq!(heads, vec![vec![], vec![a], vec![c, d], vec![b]]);
    }

    #[test]
    fn splice_time_is_reported_and_within_the_total() {
        let sys = counter_with_flag();
        let config = ActiveLearnerConfig {
            initial_traces: 10,
            trace_length: 6,
            k: 20,
            max_iterations: 30,
            ..Default::default()
        };
        let report = ActiveLearner::new(&sys, HistoryLearner::new(1), config)
            .run()
            .unwrap();
        assert!(
            report.iteration_stats.iter().any(|s| s.new_traces > 0),
            "the run must splice counterexamples"
        );
        assert!(report.splice_time > Duration::ZERO);
        assert!(report.learn_time + report.check_time + report.splice_time <= report.total_time);
        let per_iteration: Duration = report.iteration_stats.iter().map(|s| s.splice_time).sum();
        assert_eq!(per_iteration, report.splice_time);
    }

    #[test]
    fn counterexample_trace_splicing() {
        let sys = cooler();
        let temp = sys.vars().lookup("inp_temp").unwrap();
        let on = sys.vars().lookup("s_on").unwrap();
        let mk = |t: i64, o: bool| {
            let mut v = sys.initial_valuation();
            v.set(temp, Value::Int(t));
            v.set(on, Value::Bool(o));
            v
        };
        let mut traces = TraceSet::new();
        traces.insert(Trace::new(vec![mk(10, false), mk(80, false), mk(90, true)]));

        let condition = Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption: sys.var(on),
            outgoing: vec![Expr::true_()],
        };
        let from = mk(85, true);
        let to = mk(20, true);
        let spliced = counterexample_traces(&condition, &from, &to, &traces);
        assert_eq!(spliced.len(), 1);
        // The prefix before the first observation satisfying `s_on` has
        // length 2, so the new trace is v1, v2, from, to.
        assert_eq!(spliced[0].len(), 4);
        assert_eq!(spliced[0].observations()[2], from);
        assert_eq!(spliced[0].observations()[3], to);

        // Initial-condition counterexamples become single-observation traces.
        let initial_condition = Condition {
            kind: ConditionKind::Initial,
            assumption: Expr::true_(),
            outgoing: vec![],
        };
        let spliced = counterexample_traces(&initial_condition, &from, &to, &traces);
        assert_eq!(spliced.len(), 1);
        assert_eq!(spliced[0].len(), 1);

        // With no matching prefix the counterexample still becomes a trace.
        let unmatched = Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption: Expr::false_(),
            outgoing: vec![],
        };
        let spliced = counterexample_traces(&unmatched, &from, &to, &traces);
        assert_eq!(spliced.len(), 1);
        assert_eq!(spliced[0].len(), 2);
    }
}
