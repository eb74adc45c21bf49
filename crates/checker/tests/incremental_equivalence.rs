//! Differential tests of the incremental checker sessions.
//!
//! The persistent, assumption-activated sessions must produce exactly the
//! results of the original from-scratch re-encoding
//! ([`CheckerMode::FreshPerQuery`]) on every benchmark of the suite —
//! verdicts, canonical counterexamples and SAT query counts — including the
//! query sequences the session ledgers are built for: a growing outgoing
//! disjunct set (delta-encoded conclusions) and growing-then-shrinking
//! spurious-check bounds (the chained base session). The aggregated backend
//! statistics must grow monotonically as queries are issued at increasing
//! k-induction bounds.

use amle_benchmarks::all_benchmarks;
use amle_checker::{CheckResult, CheckerMode, KInductionChecker, SpuriousResult};
use amle_expr::{Expr, Valuation, VarId};
use amle_system::System;

/// `var = value` for every observable at its value in `state`.
fn observable_equalities(system: &System, observables: &[VarId], state: &Valuation) -> Vec<Expr> {
    observables
        .iter()
        .map(|id| {
            let sort = system.vars().sort(*id).clone();
            let value = Expr::constant(&sort, state.value(*id)).unwrap();
            Expr::var(*id, sort).eq(&value)
        })
        .collect()
}

/// State formulas to probe reachability with: the initial valuation plus
/// valuations observed along the benchmark's witness traces (all genuinely
/// reachable).
fn probe_formulas(
    checker: &KInductionChecker<'_>,
    observables: &[VarId],
    witnesses: &[amle_system::Trace],
    initial: &Valuation,
) -> Vec<Expr> {
    let mut formulas = vec![checker.state_formula(initial, observables)];
    for trace in witnesses.iter().take(3) {
        for obs in trace.observations().iter().take(3) {
            formulas.push(checker.state_formula(obs, observables));
        }
    }
    formulas.truncate(6);
    formulas
}

#[test]
fn incremental_and_fresh_sessions_agree_on_every_benchmark() {
    for benchmark in all_benchmarks() {
        let system = &benchmark.system;
        let observables = &benchmark.observables;
        let mut incremental = KInductionChecker::new(system);
        let mut fresh = KInductionChecker::with_mode(system, CheckerMode::FreshPerQuery);
        assert_eq!(incremental.mode(), CheckerMode::Incremental);
        assert_eq!(fresh.mode(), CheckerMode::FreshPerQuery);

        let initial = system.initial_valuation();
        let k = benchmark.k.clamp(3, 8);

        // Condition checks: truth, a tautology and a contradiction-shaped
        // conclusion, plus per-observable constancy claims (usually violated,
        // exercising the counterexample path).
        let equalities = observable_equalities(system, observables, &initial);
        let mut conditions = vec![
            (Expr::true_(), Expr::true_()),
            (Expr::true_(), Expr::false_()),
        ];
        for eq in equalities.iter().take(2) {
            conditions.push((Expr::true_(), eq.clone()));
            conditions.push((eq.clone(), eq.clone()));
        }
        for (assumption, conclusion) in &conditions {
            let a = incremental.check_condition(assumption, &[], conclusion);
            let b = fresh.check_condition(assumption, &[], conclusion);
            assert_eq!(
                a, b,
                "condition result mismatch on {} for {:?} => {:?}",
                benchmark.name, assumption, conclusion
            );
            if let CheckResult::Violated { from, to } = &a {
                assert!(
                    system.is_transition(from, to),
                    "spurious counterexample transition on {}",
                    benchmark.name
                );
            }
        }

        // A growing outgoing set, as the learning loop produces it: each
        // query adds one witness state to the conclusion disjunction, so the
        // incremental condition session encodes only the new disjunct.
        let mut outgoing = Vec::new();
        for trace in benchmark.witnesses.iter().take(3) {
            for obs in trace.observations().iter().take(3) {
                outgoing.push(incremental.state_formula(obs, observables));
                for assumption in [Expr::true_(), system.init_expr()] {
                    assert_eq!(
                        incremental.check_condition_disjuncts(&assumption, &[], &outgoing),
                        fresh.check_condition_disjuncts(&assumption, &[], &outgoing),
                        "growing-disjunct result mismatch on {} at {} disjuncts",
                        benchmark.name,
                        outgoing.len()
                    );
                }
            }
        }

        // Spurious checks over reachable state formulas and one perturbed
        // state (the initial values with the first observable changed), each
        // at growing bounds 1..=k and then shrinking back to k - 2, which the
        // chained base session answers from already encoded frames.
        let mut formulas =
            probe_formulas(&incremental, observables, &benchmark.witnesses, &initial);
        let reachable = formulas.len();
        let mut perturbed = equalities.clone();
        perturbed[0] = perturbed[0].not();
        formulas.push(Expr::and_all(perturbed));
        for (index, formula) in formulas.iter().enumerate() {
            for bound in (1..=k).chain([k - 2]) {
                let a = incremental.check_spurious(formula, bound);
                let b = fresh.check_spurious(formula, bound);
                assert_eq!(
                    a, b,
                    "spurious verdict mismatch on {} (k = {})",
                    benchmark.name, bound
                );
                // Witness-trace states are genuinely reachable; k-induction
                // is a sound unreachability proof, so it must never call
                // them spurious.
                assert!(
                    index >= reachable || a != SpuriousResult::Spurious,
                    "reachable state proved spurious on {}",
                    benchmark.name
                );
            }
        }
        assert_eq!(
            incremental.stats().sat_queries,
            fresh.stats().sat_queries,
            "session reuse changed the SAT query count on {}",
            benchmark.name
        );
    }
}

#[test]
fn solver_stats_grow_monotonically_across_bounds() {
    let benchmark = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "HomeClimateControlCooler")
        .expect("suite includes the cooler");
    let system = &benchmark.system;
    let mut checker = KInductionChecker::new(system);
    let initial = system.initial_valuation();
    let formula = checker.state_formula(&initial, &benchmark.observables);

    let mut last = checker.stats();
    for k in 1..=6 {
        let _ = checker.check_spurious(&formula, k);
        let stats = checker.stats();
        assert!(stats.solver.solve_calls > last.solver.solve_calls);
        assert!(stats.solver.decisions >= last.solver.decisions);
        assert!(stats.solver.propagations >= last.solver.propagations);
        assert!(stats.solver.conflicts >= last.solver.conflicts);
        assert!(stats.solver.solve_time >= last.solver.solve_time);
        assert!(stats.sat_queries > last.sat_queries);
        last = stats;
    }
    assert_eq!(last.spurious_checks, 6);
}
