//! Property-based cross-validation of the SAT-based checker against the
//! explicit-state oracle and against trace semantics.

use crate::{CheckResult, ExplicitChecker, KInductionChecker, SpuriousResult};
use amle_expr::{Expr, Sort, Value};
use amle_system::{System, SystemBuilder};
use proptest::prelude::*;

/// A small parametric controller: mod-N counter with enable, plus a flag
/// tracking whether the counter passed a threshold.
fn parametric_system(n: i64, threshold: i64) -> System {
    let bits = 4;
    let mut b = SystemBuilder::new();
    let en = b.input("en", Sort::Bool).unwrap();
    let c = b.state("c", Sort::int(bits), Value::Int(0)).unwrap();
    let flag = b.state("flag", Sort::Bool, Value::Bool(false)).unwrap();
    let ce = b.var(c);
    let wrapped = ce
        .add(&Expr::int_val(1, bits))
        .ge(&Expr::int_val(n, bits))
        .ite(&Expr::int_val(0, bits), &ce.add(&Expr::int_val(1, bits)));
    let next_c = b.var(en).ite(&wrapped, &ce);
    b.update(c, next_c.clone()).unwrap();
    b.update(flag, next_c.ge(&Expr::int_val(threshold, bits)))
        .unwrap();
    b.build().unwrap()
}

/// A signed accumulator driven by a signed multi-bit input: `acc' = acc + d`
/// when `en`, else `acc` (3-bit two's complement, wrapping), and `neg`
/// records whether the new value is negative. Counterexamples of conditions
/// over it set sign bits in frame 0 and input bits in frame 1.
fn signed_accumulator() -> System {
    let mut b = SystemBuilder::new();
    let d = b.input_in_range("d", Sort::signed_int(3), -2, 2).unwrap();
    let en = b.input("en", Sort::Bool).unwrap();
    let acc = b.state("acc", Sort::signed_int(3), Value::Int(0)).unwrap();
    let neg = b.state("neg", Sort::Bool, Value::Bool(false)).unwrap();
    let next_acc = b.var(en).ite(&b.var(acc).add(&b.var(d)), &b.var(acc));
    b.update(acc, next_acc.clone()).unwrap();
    b.update(neg, next_acc.lt(&Expr::signed_int_val(0, 3)))
        .unwrap();
    b.build().unwrap()
}

/// The predicates the warm-session differential draws its assumptions and
/// outgoing disjuncts from: signed comparisons, equalities, conjunctions and
/// disjunctions over state and input variables.
fn accumulator_predicates(sys: &System) -> Vec<Expr> {
    let var = |name: &str| sys.var(sys.vars().lookup(name).unwrap());
    let (d, en, acc, neg) = (var("d"), var("en"), var("acc"), var("neg"));
    let int = |v: i64| Expr::signed_int_val(v, 3);
    vec![
        Expr::true_(),
        acc.lt(&int(0)),
        acc.eq(&int(1)),
        acc.ge(&int(-2)),
        d.eq(&int(-1)),
        d.gt(&int(0)),
        en.clone(),
        en.not(),
        neg.clone(),
        neg.not().and(&acc.le(&d)),
        acc.eq(&int(-4)).or(&en),
        acc.ne(&int(3)).and(&d.ne(&int(2))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // One warm `KInductionChecker` (persistent sessions, learnt clauses and
    // saved phases carried from query to query) against a fresh explicit
    // enumeration per query: at least 20 mixed condition queries whose
    // assumption, blocked states and outgoing disjuncts all vary. The
    // verdict and the canonical `(from, to)` pair must match every time.
    #[test]
    fn warm_kinduction_session_matches_explicit_engine(
        queries in proptest::collection::vec(
            (
                0..12usize,
                proptest::collection::vec((-4i64..4, any::<bool>()), 0..=2),
                proptest::collection::vec(0..12usize, 0..=4),
            ),
            20..=28,
        ),
    ) {
        let sys = signed_accumulator();
        let predicates = accumulator_predicates(&sys);
        let acc = sys.vars().lookup("acc").unwrap();
        let neg = sys.vars().lookup("neg").unwrap();
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys, 10_000);
        let mut violated = 0;
        for (assumption, blocked, outgoing) in &queries {
            let assumption = &predicates[*assumption];
            let blocked: Vec<Expr> = blocked
                .iter()
                .map(|&(a, n)| {
                    let mut state = sys.initial_valuation();
                    state.set(acc, Value::Int(a));
                    state.set(neg, Value::Bool(n));
                    sat_checker.state_formula(&state, &[acc, neg])
                })
                .collect();
            let outgoing: Vec<Expr> = outgoing.iter().map(|&i| predicates[i].clone()).collect();
            let sat = sat_checker.check_condition_disjuncts(assumption, &blocked, &outgoing);
            let mut budget = u64::MAX;
            let reference = explicit
                .check_condition_budgeted(assumption, &blocked, &outgoing, &mut budget)
                .unwrap();
            prop_assert_eq!(&sat, &reference);
            if let CheckResult::Violated { from, to } = &sat {
                prop_assert!(sys.is_transition(from, to));
                violated += 1;
            }
        }
        // Both verdicts occur, so the canonical counterexamples are
        // compared across a warm session, not only on its first query.
        prop_assert!(violated > 0 && violated < queries.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn violated_conditions_produce_real_transitions(n in 3i64..10, threshold in 1i64..8, bound in 0i64..9) {
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut checker = KInductionChecker::new(&sys);
        // "The counter is never `bound` after one step" — may or may not hold.
        let conclusion = ce.ne(&Expr::int_val(bound, 4));
        match checker.check_condition(&Expr::true_(), &[], &conclusion) {
            CheckResult::Valid => {}
            CheckResult::Violated { from, to } => {
                prop_assert!(sys.is_transition(&from, &to));
                prop_assert_eq!(to.value(c).to_i64(), bound);
            }
        }
    }

    #[test]
    fn valid_conditions_hold_on_all_reachable_transitions(n in 3i64..8, threshold in 1i64..6) {
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys, 10_000);
        // Check a family of candidate invariants; whenever the k-induction
        // checker says Valid, the explicit oracle must agree on reachable
        // transitions (the converse need not hold).
        for bound in 0..n + 2 {
            let conclusion = ce.lt(&Expr::int_val(bound.min(15), 4));
            let sat_valid = sat_checker
                .check_condition(&Expr::true_(), &[], &conclusion)
                .is_valid();
            if sat_valid {
                prop_assert_eq!(
                    explicit.condition_holds_on_reachable(&Expr::true_(), &conclusion),
                    Some(true)
                );
            }
        }
    }

    #[test]
    fn spurious_verdicts_agree_with_explicit_reachability(n in 3i64..8, threshold in 1i64..6, target in 0i64..10) {
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let flag = sys.vars().lookup("flag").unwrap();
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys, 10_000);

        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(target.min(15)));
        state.set(flag, Value::Bool(target >= threshold && target < n));
        let formula = sat_checker.state_formula(&state, &[c, flag]);
        // A bound of 2*n exceeds the diameter of this system.
        let verdict = sat_checker.check_spurious(&formula, (2 * n) as usize);
        let truly_reachable = explicit.is_reachable(&formula).unwrap();
        match verdict {
            SpuriousResult::Spurious => prop_assert!(!truly_reachable, "spurious verdict for a reachable state"),
            SpuriousResult::Reachable => prop_assert!(truly_reachable, "reachable verdict for an unreachable state"),
            SpuriousResult::Inconclusive => {}
        }
    }

    #[test]
    fn explicit_engine_matches_kinduction_exactly(n in 3i64..10, threshold in 1i64..8, bound in 0i64..9) {
        // The production explicit engine decides the same formulas as the
        // SAT engine — same verdicts AND the same canonical counterexample
        // transitions — for both query shapes.
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let flag = sys.vars().lookup("flag").unwrap();
        let ce = sys.var(c);
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys, 100_000);

        let conclusion = ce.ne(&Expr::int_val(bound, 4));
        let mut budget = u64::MAX;
        prop_assert_eq!(
            explicit
                .check_condition_budgeted(&Expr::true_(), &[], std::slice::from_ref(&conclusion), &mut budget)
                .unwrap(),
            sat_checker.check_condition(&Expr::true_(), &[], &conclusion)
        );

        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(bound.min(15)));
        state.set(flag, Value::Bool(bound >= threshold));
        let formula = sat_checker.state_formula(&state, &[c, flag]);
        for k in [1usize, 3, (2 * n) as usize] {
            let mut budget = u64::MAX;
            prop_assert_eq!(
                explicit.check_spurious_budgeted(&formula, k, &mut budget).unwrap(),
                sat_checker.check_spurious(&formula, k),
                "k = {}", k
            );
        }
    }
}
