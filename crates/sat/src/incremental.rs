//! Persistent, assumption-based incremental SAT solving.
//!
//! The verification flow checks *families* of closely related formulas: one
//! obligation per case split of the decomposed correctness criterion, or one
//! refinement iteration per violated transitivity constraint.  A fresh
//! [`crate::cdcl::CdclSolver`] re-learns the same clauses for every member of
//! the family; the [`IncrementalSolver`] keeps one CDCL engine alive across
//! the whole family instead:
//!
//! * **Assumptions** — [`IncrementalSolver::solve_assuming`] treats the given
//!   literals as MiniSat-style pseudo-decisions at the bottom of the decision
//!   stack.  Learned clauses, variable activities and saved phases survive
//!   from one call to the next, so later queries start where earlier ones
//!   left off.
//! * **Clause addition between solves** — [`IncrementalSolver::add_clause`]
//!   installs new clauses directly into the live engine (arena, watches,
//!   heap), which is what a lazy-refinement loop needs: solve, inspect the
//!   model, assert the violated constraint, re-solve.
//! * **Activation-literal scopes** — [`IncrementalSolver::push`] opens a
//!   scope guarded by a fresh activation variable; clauses added inside the
//!   scope carry its negation and are enforced through an implicit
//!   assumption.  [`IncrementalSolver::pop`] retires the scope by asserting
//!   the negated activation literal at the root, which permanently satisfies
//!   the scope's clauses (and every learned clause derived from them).
//! * **UNSAT cores** — when `solve_assuming` returns `Unsat`, final-conflict
//!   analysis yields the subset of the assumptions that already forces the
//!   conflict, available from [`IncrementalSolver::unsat_core`].  An empty
//!   core means the formula is unsatisfiable regardless of the assumptions.
//!
//! Sessions can be recorded in the iCNF format (`p inccnf`) with
//! [`IncrementalSolver::enable_trace`] and re-executed with [`replay_icnf`].

use crate::cdcl::{CdclConfig, Engine};
use crate::cnf::{CnfFormula, Lit, Var};
use crate::dimacs::IcnfEvent;
use crate::proof::SharedProof;
use crate::solver::{Budget, SatResult, SolverStats};

/// A persistent CDCL solver with assumptions, incremental clause addition,
/// activation-literal scopes and UNSAT cores.
pub struct IncrementalSolver {
    engine: Engine,
    config_name: String,
    /// Activation variables of the open scopes, innermost last.
    scopes: Vec<Var>,
    /// One `incr.scope` trace span per open scope, innermost last; closed
    /// (dropped) when the scope pops, so nested push/pop sequences show up
    /// as nested spans in the trace.
    scope_spans: Vec<velv_obs::SpanGuard>,
    /// Core of the last failing `solve_assuming`, over the caller's literals.
    last_core: Vec<Lit>,
    /// Optional iCNF session log.
    trace: Option<Vec<IcnfEvent>>,
    /// Shared handle of the DRAT proof log, when proof logging is enabled.
    proof: Option<SharedProof>,
}

impl std::fmt::Debug for IncrementalSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("config", &self.config_name)
            .field("num_vars", &self.num_vars())
            .field("scopes", &self.scopes.len())
            .finish()
    }
}

impl IncrementalSolver {
    /// Creates an empty incremental solver with the given CDCL configuration.
    pub fn new(config: CdclConfig) -> Self {
        Self::with_formula(config, &CnfFormula::new(0))
    }

    /// Creates an incremental solver preloaded with `cnf`.
    pub fn with_formula(config: CdclConfig, cnf: &CnfFormula) -> Self {
        Self::build(config, cnf, None)
    }

    /// Creates an incremental solver preloaded with `cnf` that logs a proof
    /// from its first clause on, so every step carries hints: input clause
    /// `i` of the proof is clause `i` of `cnf`, followed by the clauses
    /// added later in the order they were added.  The handle is
    /// [`IncrementalSolver::proof`].
    pub fn with_formula_and_proof(config: CdclConfig, cnf: &CnfFormula) -> Self {
        Self::build(config, cnf, Some(SharedProof::new()))
    }

    fn build(config: CdclConfig, cnf: &CnfFormula, proof: Option<SharedProof>) -> Self {
        let config_name = config.name.clone();
        let writer = proof
            .clone()
            .map(|handle| Box::new(handle) as Box<dyn crate::proof::ProofWriter>);
        IncrementalSolver {
            engine: Engine::new(cnf, config, writer),
            config_name,
            scopes: Vec::new(),
            scope_spans: Vec::new(),
            last_core: Vec::new(),
            trace: None,
            proof,
        }
    }

    /// An incremental solver with the Chaff preset (the strongest default).
    pub fn chaff() -> Self {
        Self::new(CdclConfig::chaff())
    }

    /// The preset name of the underlying engine configuration.
    pub fn name(&self) -> &str {
        &self.config_name
    }

    /// Number of variables currently known to the solver (including
    /// activation variables of past and present scopes).
    pub fn num_vars(&self) -> usize {
        self.engine.num_vars()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.engine.num_vars() as u32);
        self.engine.ensure_vars(v.index() + 1);
        v
    }

    /// Starts recording the session as iCNF events (clauses and solve cues).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded iCNF session, if tracing was enabled.
    pub fn trace(&self) -> Option<&[IcnfEvent]> {
        self.trace.as_deref()
    }

    /// Enables DRAT proof logging and returns the shared proof handle.  The
    /// log is threaded through *every* later solve: learned clauses,
    /// deletions, and the terminal clause of each failing query (the empty
    /// clause, or the clause over the negated final-core assumptions —
    /// including activation literals of open scopes) accumulate in one proof,
    /// so assumption-based UNSAT answers and UNSAT cores are certifiable
    /// against the clauses added to the session.  Idempotent.
    ///
    /// On a solver that has not received a clause yet (one made by
    /// [`IncrementalSolver::new`]) the steps carry hints, numbering input
    /// clauses in the order they are added.  Enabled later — on a solver
    /// made by [`IncrementalSolver::with_formula`], say — the log is plain
    /// DRAT, checked by reverse unit propagation; use
    /// [`IncrementalSolver::with_formula_and_proof`] to get hints there.
    ///
    /// Enable proof logging **before the first solve**: inferences performed
    /// earlier (learned clauses of previous queries) are not on record, so
    /// later steps that resolve on them may fail the independent replay.
    /// Late enabling is fail-safe — the checker rejects, it never wrongly
    /// accepts — but leaves valid verdicts uncertifiable.
    pub fn enable_proof(&mut self) -> SharedProof {
        if let Some(handle) = &self.proof {
            return handle.clone();
        }
        let handle = SharedProof::new();
        self.engine.set_proof_writer(Box::new(handle.clone()));
        self.proof = Some(handle.clone());
        handle
    }

    /// The shared proof handle, when proof logging is enabled.
    pub fn proof(&self) -> Option<&SharedProof> {
        self.proof.as_ref()
    }

    /// Adds a clause.  Inside a scope the clause additionally carries the
    /// negated activation literal of the innermost scope, so a later
    /// [`IncrementalSolver::pop`] retires it.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let mut clause = lits.to_vec();
        if let Some(&act) = self.scopes.last() {
            clause.push(Lit::negative(act));
        }
        if let Some(trace) = &mut self.trace {
            trace.push(IcnfEvent::AddClause(clause.clone()));
        }
        self.engine.add_clause_dynamic(&clause);
    }

    /// Adds every clause of `cnf` (at the current scope).
    pub fn add_formula(&mut self, cnf: &CnfFormula) {
        self.engine.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            self.add_clause(clause);
        }
    }

    /// Opens a clause scope guarded by a fresh activation variable; returns
    /// the new scope depth.
    pub fn push(&mut self) -> usize {
        let act = self.new_var();
        self.scopes.push(act);
        self.scope_spans.push(velv_obs::span_fields(
            "incr.scope",
            &[("depth", self.scopes.len().into())],
        ));
        self.scopes.len()
    }

    /// Closes the innermost scope: its activation literal is asserted false
    /// at the root, permanently satisfying (hence retiring) every clause
    /// added inside the scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let act = self.scopes.pop().expect("pop without a matching push");
        let retire = [Lit::negative(act)];
        if let Some(trace) = &mut self.trace {
            trace.push(IcnfEvent::AddClause(retire.to_vec()));
        }
        self.engine.add_clause_dynamic(&retire);
        self.scope_spans.pop();
    }

    /// Current scope depth.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Solves the current formula (no extra assumptions) within `budget`.
    pub fn solve(&mut self, budget: Budget) -> SatResult {
        self.solve_assuming(&[], budget)
    }

    /// Solves the current formula under `assumptions` within `budget`.
    ///
    /// On `Unsat`, [`IncrementalSolver::unsat_core`] returns the subset of
    /// `assumptions` responsible; an empty core means the formula itself
    /// (including open scopes) is unsatisfiable.  Learned clauses and
    /// heuristic state are retained across calls.
    pub fn solve_assuming(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        // Activation literals of the open scopes are implicit assumptions,
        // placed before the caller's so cores blame the caller's literals
        // only when the scopes alone are consistent.
        let mut all: Vec<Lit> = self.scopes.iter().map(|&act| Lit::positive(act)).collect();
        all.extend_from_slice(assumptions);
        if let Some(trace) = &mut self.trace {
            // The trace records the *full* assumption vector (activation
            // literals included) so a scope-free replay enforces the same
            // clauses.
            trace.push(IcnfEvent::Solve(all.clone()));
        }
        let _span = velv_obs::span_fields(
            "incr.solve",
            &[
                ("assumptions", assumptions.len().into()),
                ("scope_depth", self.scopes.len().into()),
            ],
        );
        let result = self.engine.search(&all, budget);
        self.last_core.clear();
        if result.is_unsat() {
            // Keep only the caller's literals: the activation assumptions are
            // an implementation detail of the scope mechanism.
            self.last_core.extend(
                self.engine
                    .final_core()
                    .iter()
                    .copied()
                    .filter(|lit| assumptions.contains(lit)),
            );
        }
        result
    }

    /// The UNSAT core of the most recent failing [`IncrementalSolver::solve_assuming`]:
    /// a subset of its assumption literals that already forces
    /// unsatisfiability.  Empty when the formula is unsatisfiable outright
    /// (or when the last solve did not return `Unsat`).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Whether the formula has been proven unsatisfiable at the root
    /// (independently of any assumptions) — every later solve is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        self.engine.is_unsat()
    }

    /// Cumulative statistics of the engine across all solve calls.
    pub fn stats(&self) -> SolverStats {
        self.engine.stats
    }
}

/// Re-executes a recorded iCNF session with a fresh [`IncrementalSolver`] and
/// returns the result of each solve cue, in order.
pub fn replay_icnf(events: &[IcnfEvent], config: CdclConfig, budget: Budget) -> Vec<SatResult> {
    let mut solver = IncrementalSolver::new(config);
    let mut results = Vec::new();
    for event in events {
        match event {
            IcnfEvent::AddClause(lits) => solver.add_clause(lits),
            IcnfEvent::Solve(assumptions) => {
                results.push(solver.solve_assuming(assumptions, budget.clone()));
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::verify_model;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn clauses(solver: &mut IncrementalSolver, cs: &[&[i64]]) {
        for c in cs {
            let c: Vec<Lit> = c.iter().map(|&i| lit(i)).collect();
            solver.add_clause(&c);
        }
    }

    #[test]
    fn basic_sat_and_unsat_across_solves() {
        let mut solver = IncrementalSolver::chaff();
        clauses(&mut solver, &[&[1, 2], &[-1, 2]]);
        assert!(solver.solve(Budget::unlimited()).is_sat());
        solver.add_clause(&[lit(-2)]);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        assert!(solver.is_unsat());
        // Once root-UNSAT, every later query is UNSAT with an empty core.
        assert!(solver
            .solve_assuming(&[lit(1)], Budget::unlimited())
            .is_unsat());
        assert!(solver.unsat_core().is_empty());
    }

    #[test]
    fn assumptions_flip_the_verdict_without_touching_the_formula() {
        let mut solver = IncrementalSolver::chaff();
        // (a ∨ b) ∧ (¬a ∨ c): satisfiable; unsat under {¬b, a, ¬c}.
        clauses(&mut solver, &[&[1, 2], &[-1, 3]]);
        assert!(solver
            .solve_assuming(&[lit(-2)], Budget::unlimited())
            .is_sat());
        let result = solver.solve_assuming(&[lit(-2), lit(1), lit(-3)], Budget::unlimited());
        assert!(result.is_unsat());
        let core = solver.unsat_core().to_vec();
        assert!(!core.is_empty());
        // The formula itself is still satisfiable.
        assert!(solver.solve(Budget::unlimited()).is_sat());
    }

    #[test]
    fn unsat_core_is_a_subset_that_resolves_unsat() {
        let mut solver = IncrementalSolver::chaff();
        // x1 → x2 → x3, plus an irrelevant variable x4.
        clauses(&mut solver, &[&[-1, 2], &[-2, 3]]);
        let assumptions = [lit(4), lit(1), lit(-3)];
        assert!(solver
            .solve_assuming(&assumptions, Budget::unlimited())
            .is_unsat());
        let core = solver.unsat_core().to_vec();
        assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
        assert!(
            !core.contains(&lit(4)),
            "the irrelevant assumption is not blamed: {core:?}"
        );
        // The core alone must re-solve UNSAT.
        let mut fresh = IncrementalSolver::chaff();
        clauses(&mut fresh, &[&[-1, 2], &[-2, 3]]);
        assert!(fresh.solve_assuming(&core, Budget::unlimited()).is_unsat());
    }

    #[test]
    fn contradictory_assumptions_yield_both_in_the_core() {
        let mut solver = IncrementalSolver::chaff();
        clauses(&mut solver, &[&[1, 2]]);
        assert!(solver
            .solve_assuming(&[lit(3), lit(-3)], Budget::unlimited())
            .is_unsat());
        let core = solver.unsat_core();
        assert!(
            core.contains(&lit(3)) && core.contains(&lit(-3)),
            "{core:?}"
        );
    }

    #[test]
    fn models_under_assumptions_satisfy_them() {
        let mut solver = IncrementalSolver::chaff();
        let mut cnf = CnfFormula::new(0);
        clauses(&mut solver, &[&[1, 2, 3], &[-1, -2], &[-2, -3]]);
        for c in [&[1i64, 2, 3][..], &[-1, -2], &[-2, -3]] {
            cnf.add_clause(c.iter().map(|&i| lit(i)).collect());
        }
        for assumption in [lit(1), lit(2), lit(3), lit(-1)] {
            match solver.solve_assuming(&[assumption], Budget::unlimited()) {
                SatResult::Sat(model) => {
                    assert!(verify_model(&cnf, &model));
                    let value = model.value(assumption.var());
                    assert_eq!(value, assumption.is_positive(), "{assumption:?}");
                }
                other => panic!("expected SAT under {assumption:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn push_pop_retires_scope_clauses() {
        let mut solver = IncrementalSolver::chaff();
        clauses(&mut solver, &[&[1, 2]]);
        solver.push();
        clauses(&mut solver, &[&[-1], &[-2]]);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        assert!(!solver.is_unsat(), "scope conflict is not a root conflict");
        solver.pop();
        assert!(solver.solve(Budget::unlimited()).is_sat());
        // Nested scopes, popped in order.
        solver.push();
        solver.add_clause(&[lit(-1)]);
        solver.push();
        solver.add_clause(&[lit(-2)]);
        assert_eq!(solver.scope_depth(), 2);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        solver.pop();
        assert!(solver.solve(Budget::unlimited()).is_sat());
        solver.pop();
        assert!(solver.solve(Budget::unlimited()).is_sat());
    }

    #[test]
    fn learned_clauses_survive_across_calls() {
        // Solving the same UNSAT instance twice must be cheaper the second
        // time: the learned clauses from the first run persist.
        use crate::generators::pigeonhole;
        let mut solver = IncrementalSolver::chaff();
        solver.add_formula(&pigeonhole(5));
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        let after_first = solver.stats().conflicts;
        assert!(after_first > 0);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        let second = solver.stats().conflicts - after_first;
        assert_eq!(second, 0, "root-level UNSAT is remembered");
    }

    #[test]
    fn trace_replays_to_the_same_verdicts() {
        let mut solver = IncrementalSolver::chaff();
        solver.enable_trace();
        clauses(&mut solver, &[&[1, 2], &[-1, 3]]);
        let verdict_a = solver.solve_assuming(&[lit(-2)], Budget::unlimited());
        solver.add_clause(&[lit(-3)]);
        let verdict_b = solver.solve_assuming(&[lit(-2)], Budget::unlimited());
        let trace = solver.trace().unwrap().to_vec();
        let replayed = replay_icnf(&trace, CdclConfig::chaff(), Budget::unlimited());
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].is_sat(), verdict_a.is_sat());
        assert_eq!(replayed[1].is_unsat(), verdict_b.is_unsat());
    }
}
