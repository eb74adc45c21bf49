//! Clause sinks for persistent solver sessions.
//!
//! The active-learning pipeline issues long sequences of closely related SAT
//! queries: the k-induction checker re-solves the same transition-relation
//! unrolling under different state constraints, and the SAT-based DFA learner
//! re-solves the same folding skeleton at growing automaton sizes. Rebuilding
//! a solver from a CNF blob per query throws away learnt clauses, variable
//! activities and saved phases, so those consumers keep one [`Solver`] alive
//! and select per-query constraints with assumption literals
//! ([`Solver::solve_with_assumptions`]) instead.
//!
//! [`ClauseSink`] is the write-only half — "something clauses can be encoded
//! into" — implemented both by the plain [`CnfFormula`] container and by the
//! [`Solver`], so the bit-blaster can target either without caring which.

use crate::{CnfFormula, Lit, Solver, Var};

/// A consumer of freshly encoded CNF: allocates variables and accepts
/// clauses.
///
/// Implemented by [`CnfFormula`] (pure container) and by [`Solver`]; the
/// bit-blasting encoder is generic over this trait.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the receiver can already prove the formula
    /// unsatisfiable; containers that cannot reason always return `true`.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Number of allocated variables.
    fn num_vars(&self) -> usize;

    /// Number of clauses currently held.
    fn num_clauses(&self) -> usize;
}

impl ClauseSink for CnfFormula {
    fn new_var(&mut self) -> Var {
        CnfFormula::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        CnfFormula::add_clause(self, lits.iter().copied());
        true
    }

    fn num_vars(&self) -> usize {
        CnfFormula::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        CnfFormula::num_clauses(self)
    }
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        Solver::num_clauses(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    /// Drives one persistent session the way the checker does: clauses go in
    /// through [`ClauseSink`] (the encoder's view), queries run under
    /// assumptions.
    fn exercise(mut solver: Solver) {
        let a = ClauseSink::new_var(&mut solver);
        let b = ClauseSink::new_var(&mut solver);
        assert!(ClauseSink::add_clause(
            &mut solver,
            &[Lit::positive(a), Lit::positive(b)]
        ));

        // Activation-literal pattern: a clause that only bites under its
        // activation assumption.
        let act = ClauseSink::new_var(&mut solver);
        assert!(ClauseSink::add_clause(
            &mut solver,
            &[Lit::negative(act), Lit::negative(a)]
        ));

        assert_eq!(
            solver.solve_with_assumptions(&[Lit::positive(act)]),
            SolveResult::Sat
        );
        assert_eq!(solver.value(a), Some(false));
        assert_eq!(solver.value(b), Some(true));

        // Without the activation the solver is free again.
        assert_eq!(
            solver.solve_with_assumptions(&[Lit::positive(a), Lit::negative(b)]),
            SolveResult::Sat
        );
        assert!(solver.model()[a.index()]);

        // Conflicting assumptions are transient.
        assert_eq!(
            solver.solve_with_assumptions(&[Lit::positive(act), Lit::positive(a)]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve_with_assumptions(&[]), SolveResult::Sat);

        let stats = solver.stats();
        assert_eq!(stats.solve_calls, 4);
    }

    #[test]
    fn cdcl_solver_through_the_trait() {
        exercise(Solver::new());
    }

    #[test]
    fn clauses_can_be_added_after_solving() {
        let mut solver = Solver::new();
        let a = solver.new_var();
        let b = solver.new_var();
        assert!(ClauseSink::add_clause(
            &mut solver,
            &[Lit::positive(a), Lit::positive(b)]
        ));
        assert_eq!(solver.solve_with_assumptions(&[]), SolveResult::Sat);
        // Growing the formula after a solve must not trip level-0 invariants.
        assert!(ClauseSink::add_clause(&mut solver, &[Lit::negative(a)]));
        // ¬a forces b through (a ∨ b), so ¬b empties out under top-level
        // simplification and the solver reports unsatisfiability eagerly.
        assert!(!ClauseSink::add_clause(&mut solver, &[Lit::negative(b)]));
        assert_eq!(solver.solve_with_assumptions(&[]), SolveResult::Unsat);
    }

    #[test]
    fn cnf_formula_is_a_clause_sink() {
        let mut cnf = CnfFormula::new();
        let x = ClauseSink::new_var(&mut cnf);
        assert!(ClauseSink::add_clause(&mut cnf, &[Lit::positive(x)]));
        assert_eq!(ClauseSink::num_vars(&cnf), 1);
        assert_eq!(ClauseSink::num_clauses(&cnf), 1);
    }
}
