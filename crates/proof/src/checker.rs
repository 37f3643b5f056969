//! The proof checker: [`check_proof`] verifies a proof that carries hints by
//! walking them (the hint format is in the crate documentation), and a plain DRAT proof with the
//! forward RUP checker below, with deletion handling and backward trimming.
//!
//! The RUP checker maintains its own clause database over DIMACS-coded `i32`
//! literals with a small two-watched-literal propagation core — written from
//! scratch, sharing nothing with the `velv_sat` solver whose proofs it audits.
//!
//! **Forward checking.**  The input clauses are installed and propagated to a
//! root fixpoint.  Each `Add` step is verified by *reverse unit propagation*:
//! the negations of the step's literals are asserted on top of the root trail
//! and unit propagation must derive a conflict; the clause is then installed
//! permanently (so later steps may use it) and any unit it contributes is
//! propagated at the root.  `Delete` steps remove the matching clause, except
//! when it is currently the reason of a root-level assignment (solvers may
//! delete clauses the checker still relies on; such deletions are counted and
//! ignored, the standard DRAT-checker behaviour).
//!
//! Every accepted addition is therefore a *logical consequence* of the input
//! clauses — this checker verifies pure RUP proofs and does not accept RAT
//! steps, which only preserve satisfiability.  A verified proof whose terminal
//! step is the empty clause certifies unsatisfiability; a terminal clause
//! `¬a₁ ∨ … ∨ ¬aₖ` certifies unsatisfiability under the assumptions
//! `a₁ … aₖ`.
//!
//! **Backward trimming.**  With [`CheckOptions::trim`] the RUP checker records,
//! for each verified step, the clauses participating in its conflict cone,
//! then walks the proof backwards from the terminal step marking what was
//! actually used.  The report lists the used input clauses (the core) and how
//! many proof steps survive the trim.

use crate::drat::{Proof, ProofStep};
use std::collections::HashMap;

/// Options of a [`check_proof`] run.
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// Backward-trim the verified proof: report which input clauses and which
    /// proof steps the terminal step(s) actually depend on.  For a hinted
    /// proof this is the backward closure over the hint lists and costs two
    /// bitmaps; the RUP path records one antecedent list per addition step.
    pub trim: bool,
    /// Step indices seeding the backward trim.  Empty means "the last
    /// addition step" (the usual single-refutation case); a multi-query
    /// session — one terminal clause per assumption-selected obligation —
    /// passes all its terminal steps so the reported core covers every
    /// refutation.  Ignored without [`CheckOptions::trim`].
    pub trim_seeds: Vec<usize>,
}

/// Result of a successful [`check_proof`] run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Number of verified addition steps.
    pub additions: usize,
    /// Number of processed deletion steps.
    pub deletions: usize,
    /// Deletions that were ignored because no matching live clause existed or
    /// the clause was the reason of a root-level assignment.
    pub ignored_deletions: usize,
    /// Whether the proof derives the empty clause (the formula is
    /// unsatisfiable outright).
    pub derived_empty: bool,
    /// Whether the proof was verified by walking its hints rather than by
    /// reverse unit propagation.
    pub hinted: bool,
    /// Indices of the input clauses used by the trimmed proof
    /// (only with [`CheckOptions::trim`]).
    pub input_core: Option<Vec<usize>>,
    /// Number of addition steps that survive backward trimming
    /// (only with [`CheckOptions::trim`]).
    pub trimmed_additions: Option<usize>,
}

/// Why a proof was rejected.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// The addition at `step` is not RUP: asserting the negation of its
    /// literals and propagating did not produce a conflict, or, in a hinted
    /// proof, its hint chain does not derive it.
    StepNotRup {
        /// Index of the offending step in the proof.
        step: usize,
        /// The clause that failed the check.
        clause: Vec<i32>,
    },
    /// A step mentions literal 0, which is not a literal.
    ZeroLiteral {
        /// Index of the offending step in the proof.
        step: usize,
    },
    /// An input clause mentions literal 0, which is not a literal.
    InputZeroLiteral {
        /// Index of the offending input clause.
        clause: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::StepNotRup { step, clause } => {
                write!(f, "proof step {step} is not RUP: {clause:?}")
            }
            CheckError::ZeroLiteral { step } => {
                write!(f, "proof step {step} contains literal 0")
            }
            CheckError::InputZeroLiteral { clause } => {
                write!(f, "input clause {clause} contains literal 0")
            }
        }
    }
}

impl std::error::Error for CheckError {}

const NO_REASON: usize = usize::MAX;
/// Reason marker for literals asserted during a RUP check.
const ASSUMED: usize = usize::MAX - 1;

/// Watch-list index of a literal: `2·(|lit| − 1) + (lit < 0)`.
fn code(lit: i32) -> usize {
    let var = lit.unsigned_abs() as usize - 1;
    2 * var + usize::from(lit < 0)
}

fn var_index(lit: i32) -> usize {
    lit.unsigned_abs() as usize - 1
}

struct ClauseEntry {
    lits: Vec<i32>,
    deleted: bool,
}

/// The checker state: clause database, watches, root-persistent assignment.
struct Checker {
    clauses: Vec<ClauseEntry>,
    watches: Vec<Vec<usize>>,
    /// Per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    /// Per variable: clause id that propagated it, [`ASSUMED`] or [`NO_REASON`].
    reason: Vec<usize>,
    trail: Vec<i32>,
    qhead: usize,
    /// The database is contradictory at the root: every further step is a
    /// trivial consequence.
    root_conflict: bool,
    /// Clause ids participating in the root conflict, for trimming.
    root_conflict_cone: Vec<usize>,
    /// Scratch stamps for conflict-cone collection, per variable.
    seen: Vec<bool>,
    /// Lookup from sorted literals to live clause ids, for deletions.
    by_lits: HashMap<Vec<i32>, Vec<usize>>,
    trim: bool,
}

impl Checker {
    fn new(trim: bool) -> Self {
        Checker {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            qhead: 0,
            root_conflict: false,
            root_conflict_cone: Vec::new(),
            seen: Vec::new(),
            by_lits: HashMap::new(),
            trim,
        }
    }

    fn ensure_var(&mut self, lit: i32) {
        let v = var_index(lit);
        if v >= self.assign.len() {
            self.assign.resize(v + 1, 0);
            self.reason.resize(v + 1, NO_REASON);
            self.seen.resize(v + 1, false);
            self.watches.resize_with(2 * (v + 1), Vec::new);
        }
    }

    fn value(&self, lit: i32) -> i8 {
        let a = self.assign[var_index(lit)];
        if lit < 0 {
            -a
        } else {
            a
        }
    }

    fn assign(&mut self, lit: i32, reason: usize) {
        let v = var_index(lit);
        debug_assert_eq!(self.assign[v], 0);
        self.assign[v] = if lit > 0 { 1 } else { -1 };
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause id, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = -p;
            let widx = code(false_lit);
            let mut i = 0;
            let mut keep = 0;
            let mut conflict = None;
            'watchers: while i < self.watches[widx].len() {
                let cid = self.watches[widx][i];
                i += 1;
                if self.clauses[cid].deleted {
                    continue;
                }
                // Establish the invariant: the falsified watch sits at index 1.
                if self.clauses[cid].lits[0] == false_lit {
                    self.clauses[cid].lits.swap(0, 1);
                }
                let first = self.clauses[cid].lits[0];
                if self.value(first) > 0 {
                    self.watches[widx][keep] = cid;
                    keep += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..self.clauses[cid].lits.len() {
                    let candidate = self.clauses[cid].lits[k];
                    if self.value(candidate) >= 0 {
                        self.clauses[cid].lits.swap(1, k);
                        self.watches[code(candidate)].push(cid);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                self.watches[widx][keep] = cid;
                keep += 1;
                if self.value(first) < 0 {
                    while i < self.watches[widx].len() {
                        self.watches[widx][keep] = self.watches[widx][i];
                        i += 1;
                        keep += 1;
                    }
                    conflict = Some(cid);
                    break;
                }
                self.assign(first, cid);
            }
            self.watches[widx].truncate(keep);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Collects the clause ids in the conflict cone: the conflicting clause
    /// (or root-true literal) plus, transitively, the reasons of every
    /// falsified literal involved.  Only runs when trimming is enabled.
    fn conflict_cone(&mut self, seed: ConeSeed) -> Vec<usize> {
        if !self.trim {
            return Vec::new();
        }
        let mut cone = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // variable indices to expand
        match seed {
            ConeSeed::Clause(cid) => {
                cone.push(cid);
                for k in 0..self.clauses[cid].lits.len() {
                    let v = var_index(self.clauses[cid].lits[k]);
                    if !self.seen[v] {
                        self.seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            ConeSeed::TrueLiteral(lit) => {
                let v = var_index(lit);
                self.seen[v] = true;
                stack.push(v);
            }
        }
        let mut cleanup = stack.clone();
        while let Some(v) = stack.pop() {
            let r = self.reason[v];
            if r == NO_REASON || r == ASSUMED {
                continue;
            }
            cone.push(r);
            for k in 0..self.clauses[r].lits.len() {
                let w = var_index(self.clauses[r].lits[k]);
                if !self.seen[w] {
                    self.seen[w] = true;
                    stack.push(w);
                    cleanup.push(w);
                }
            }
        }
        for v in cleanup {
            self.seen[v] = false;
        }
        cone.sort_unstable();
        cone.dedup();
        cone
    }

    /// RUP check of `lits`: asserting the negation of every literal and
    /// propagating must conflict.  Returns the conflict cone (empty when
    /// trimming is off) or `None` when the check fails.  The trail is
    /// restored to the root fixpoint afterwards.
    fn check_rup(&mut self, lits: &[i32]) -> Option<Vec<usize>> {
        if self.root_conflict {
            return Some(self.root_conflict_cone.clone());
        }
        for &lit in lits {
            self.ensure_var(lit);
        }
        let mark = self.trail.len();
        let mut outcome = None;
        for &lit in lits {
            match self.value(lit) {
                1 => {
                    // The literal is already true: ¬C contradicts the current
                    // trail immediately.
                    outcome = Some(self.conflict_cone(ConeSeed::TrueLiteral(lit)));
                    break;
                }
                -1 => {}
                _ => self.assign(-lit, ASSUMED),
            }
        }
        if outcome.is_none() {
            if let Some(conflict) = self.propagate() {
                outcome = Some(self.conflict_cone(ConeSeed::Clause(conflict)));
            }
        }
        // Undo the temporary assignments.
        for i in (mark..self.trail.len()).rev() {
            let v = var_index(self.trail[i]);
            self.assign[v] = 0;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        outcome
    }

    /// Installs a clause permanently: registers watches, propagates any unit
    /// it contributes at the root, and records it for deletion lookup.
    fn install(&mut self, lits: Vec<i32>) -> usize {
        for &lit in &lits {
            self.ensure_var(lit);
        }
        let cid = self.clauses.len();
        let mut sorted = lits.clone();
        sorted.sort_unstable();
        self.by_lits.entry(sorted).or_default().push(cid);
        self.clauses.push(ClauseEntry {
            lits,
            deleted: false,
        });
        if self.root_conflict {
            return cid;
        }
        let entry = &mut self.clauses[cid];
        if entry.lits.is_empty() {
            self.root_conflict = true;
            return cid;
        }
        // Move (up to) two non-false literals to the watch positions.
        let mut front = 0;
        for k in 0..entry.lits.len() {
            if front >= 2 {
                break;
            }
            let lit = entry.lits[k];
            let a = self.assign[var_index(lit)];
            let value = if lit < 0 { -a } else { a };
            if value >= 0 {
                entry.lits.swap(front, k);
                front += 1;
            }
        }
        let first = entry.lits[0];
        if entry.lits.len() >= 2 {
            let second = entry.lits[1];
            self.watches[code(first)].push(cid);
            self.watches[code(second)].push(cid);
        }
        match (front, self.value(first)) {
            (0, _) => {
                // Every literal is false at the root: the database is
                // contradictory from here on.
                self.root_conflict = true;
                self.root_conflict_cone = self.conflict_cone(ConeSeed::Clause(cid));
            }
            (1, 0) => {
                // Exactly one non-false literal, unassigned: a root unit.
                self.assign(first, cid);
                if let Some(conflict) = self.propagate() {
                    self.root_conflict = true;
                    self.root_conflict_cone = self.conflict_cone(ConeSeed::Clause(conflict));
                }
            }
            _ => {}
        }
        cid
    }

    /// Processes a deletion: the matching live clause is marked dead unless it
    /// is currently the reason of a root assignment.  Returns whether a clause
    /// was actually deleted.
    fn delete(&mut self, lits: &[i32]) -> bool {
        let mut sorted = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // Candidate ids under both the deduplicated and the verbatim key
        // (installation does not deduplicate).
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(ids) = self.by_lits.get(&sorted) {
            candidates.extend_from_slice(ids);
        }
        let mut verbatim = lits.to_vec();
        verbatim.sort_unstable();
        if verbatim != sorted {
            if let Some(ids) = self.by_lits.get(&verbatim) {
                candidates.extend_from_slice(ids);
            }
        }
        for cid in candidates {
            if self.clauses[cid].deleted {
                continue;
            }
            if self.is_reason(cid) {
                // Keep reasons of root assignments alive (the solver may
                // delete clauses the checker's root propagation relied on).
                continue;
            }
            self.clauses[cid].deleted = true;
            return true;
        }
        false
    }

    fn is_reason(&self, cid: usize) -> bool {
        self.clauses[cid]
            .lits
            .iter()
            .any(|&lit| self.value(lit) > 0 && self.reason[var_index(lit)] == cid)
    }
}

enum ConeSeed {
    Clause(usize),
    TrueLiteral(i32),
}

/// Checks `proof` against the clauses of `cnf` (DIMACS-coded literal lists).
///
/// Every `Add` step must be RUP with respect to the clause database at that
/// point of the proof; verified additions join the database, deletions leave
/// it.  A proof that carries hints ([`Proof::has_hints`]) is verified by
/// walking each addition's hint chain, where hint `Input(i)` names `cnf[i]`;
/// every addition must then have a chain that derives it.  A proof without
/// hints is verified by reverse unit propagation.  On success the report says whether the empty clause was derived and,
/// with [`CheckOptions::trim`], which input clauses the terminal step
/// transitively used.
///
/// # Errors
///
/// Returns [`CheckError::StepNotRup`] for the first addition that fails
/// reverse unit propagation, or [`CheckError::ZeroLiteral`] /
/// [`CheckError::InputZeroLiteral`] for a malformed step or input clause.
pub fn check_proof(
    cnf: &[Vec<i32>],
    proof: &Proof,
    options: &CheckOptions,
) -> Result<CheckReport, CheckError> {
    let _span = velv_obs::span_fields(
        "proof.check",
        &[
            ("clauses", cnf.len().into()),
            ("steps", proof.len().into()),
            ("hinted", proof.has_hints().into()),
        ],
    );
    velv_obs::global()
        .counter("velv_proof_checks_total", "Proof-checker runs started.")
        .inc();
    let report = if proof.has_hints() {
        crate::hinted::check_hinted(cnf, proof, options)?
    } else {
        check_rup(cnf, proof, options)?
    };
    velv_obs::global()
        .counter(
            "velv_proof_steps_total",
            "Proof steps verified (additions and deletions).",
        )
        .add((report.additions + report.deletions) as u64);
    Ok(report)
}

/// The RUP path of [`check_proof`].
fn check_rup(
    cnf: &[Vec<i32>],
    proof: &Proof,
    options: &CheckOptions,
) -> Result<CheckReport, CheckError> {
    let mut checker = Checker::new(options.trim);
    for (index, clause) in cnf.iter().enumerate() {
        if clause.contains(&0) {
            return Err(CheckError::InputZeroLiteral { clause: index });
        }
        checker.install(clause.clone());
    }
    // Propagate the input units to the root fixpoint.
    if !checker.root_conflict {
        if let Some(conflict) = checker.propagate() {
            checker.root_conflict = true;
            checker.root_conflict_cone = checker.conflict_cone(ConeSeed::Clause(conflict));
        }
    }
    let mut additions = 0usize;
    let mut deletions = 0usize;
    let mut ignored_deletions = 0usize;
    // Per addition step: (clause id, conflict cone), for trimming.
    let mut step_records: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for (index, step) in proof.steps().iter().enumerate() {
        if step.lits().contains(&0) {
            return Err(CheckError::ZeroLiteral { step: index });
        }
        match step {
            ProofStep::Add(lits) => {
                let cone = checker
                    .check_rup(lits)
                    .ok_or_else(|| CheckError::StepNotRup {
                        step: index,
                        clause: lits.clone(),
                    })?;
                let cid = checker.install(lits.clone());
                additions += 1;
                if options.trim {
                    step_records.push((index, cid, cone));
                }
            }
            ProofStep::Delete(lits) => {
                deletions += 1;
                if !checker.delete(lits) {
                    ignored_deletions += 1;
                }
            }
        }
    }
    let (input_core, trimmed_additions) = if options.trim {
        let num_inputs = cnf.len();
        // Seed the backward pass: every requested terminal step, or the last
        // addition step by default.
        let mut needed: Vec<bool> = vec![false; checker.clauses.len()];
        let mut trimmed = 0usize;
        if options.trim_seeds.is_empty() {
            if let Some(&(_, terminal_cid, _)) = step_records.last() {
                needed[terminal_cid] = true;
            }
        } else {
            let by_step: HashMap<usize, usize> = step_records
                .iter()
                .map(|&(step, cid, _)| (step, cid))
                .collect();
            for seed in &options.trim_seeds {
                if let Some(&cid) = by_step.get(seed) {
                    needed[cid] = true;
                }
            }
        }
        for &(_, cid, ref cone) in step_records.iter().rev() {
            if !needed[cid] {
                continue;
            }
            trimmed += 1;
            for &used in cone {
                needed[used] = true;
            }
        }
        let core: Vec<usize> = (0..num_inputs).filter(|&i| needed[i]).collect();
        (Some(core), Some(trimmed))
    } else {
        (None, None)
    };
    Ok(CheckReport {
        additions,
        deletions,
        ignored_deletions,
        derived_empty: checker.root_conflict,
        hinted: false,
        input_core,
        trimmed_additions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(cnf: &[Vec<i32>], proof: &Proof) -> Result<CheckReport, CheckError> {
        check_proof(cnf, proof, &CheckOptions::default())
    }

    #[test]
    fn empty_clause_is_rup_for_contradictory_units() {
        let cnf = vec![vec![1], vec![-1]];
        let mut proof = Proof::new();
        proof.add(vec![]);
        let report = check(&cnf, &proof).unwrap();
        assert!(report.derived_empty);
    }

    #[test]
    fn resolution_chain_checks() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b) — classic UNSAT square.
        let cnf = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        let mut proof = Proof::new();
        proof.add(vec![2]); // resolvent of the first two clauses: RUP
        proof.add(vec![]);
        let report = check(&cnf, &proof).unwrap();
        assert!(report.derived_empty);
        assert_eq!(report.additions, 2);
    }

    #[test]
    fn non_consequence_is_rejected() {
        let cnf = vec![vec![1, 2]];
        let mut proof = Proof::new();
        proof.add(vec![1]); // not RUP: {¬1} propagates nothing conflicting
        match check(&cnf, &proof) {
            Err(CheckError::StepNotRup { step: 0, .. }) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn premature_empty_clause_is_rejected() {
        let cnf = vec![vec![1, 2], vec![-1, 2]];
        let mut proof = Proof::new();
        proof.add(vec![]);
        assert!(check(&cnf, &proof).is_err());
    }

    #[test]
    fn deletions_are_applied_and_can_break_later_steps() {
        let cnf = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        // Valid with the full database...
        let mut proof = Proof::new();
        proof.add(vec![2]);
        proof.add(vec![]);
        assert!(check(&cnf, &proof).unwrap().derived_empty);
        // ...but deleting a needed clause first invalidates the derivation.
        let mut broken = Proof::new();
        broken.delete(vec![1, 2]);
        broken.add(vec![2]);
        assert!(check(&cnf, &broken).is_err());
    }

    #[test]
    fn deletion_of_unknown_clause_is_ignored() {
        let cnf = vec![vec![1, 2], vec![-1, 2]];
        let mut proof = Proof::new();
        proof.delete(vec![7, 8]);
        proof.add(vec![2]);
        let report = check(&cnf, &proof).unwrap();
        assert_eq!(report.ignored_deletions, 1);
        assert!(!report.derived_empty);
    }

    #[test]
    fn deletion_of_a_root_reason_is_ignored() {
        // Clause [1] forces x1 at the root; deleting it must not unassign x1,
        // or the following steps would wrongly fail.
        let cnf = vec![vec![1], vec![-1, 2], vec![-2]];
        let mut proof = Proof::new();
        proof.delete(vec![1]);
        proof.add(vec![]);
        let report = check(&cnf, &proof).unwrap();
        assert!(report.derived_empty);
        assert_eq!(report.ignored_deletions, 1);
    }

    #[test]
    fn tautological_addition_is_trivially_rup() {
        let cnf = vec![vec![1, 2]];
        let mut proof = Proof::new();
        proof.add(vec![3, -3]);
        assert!(check(&cnf, &proof).is_ok());
    }

    #[test]
    fn assumption_terminal_clause_checks() {
        // x1 → x2 → x3; under assumptions {x1, ¬x3} this is UNSAT, and the
        // clause ¬x1 ∨ x3 over the negated assumptions is RUP.
        let cnf = vec![vec![-1, 2], vec![-2, 3]];
        let mut proof = Proof::new();
        proof.add(vec![-1, 3]);
        let report = check(&cnf, &proof).unwrap();
        assert!(!report.derived_empty);
        assert_eq!(report.additions, 1);
    }

    #[test]
    fn trimming_reports_the_used_input_core() {
        // Clause 3 (x4 ∨ x5) is irrelevant to the contradiction.
        let cnf = vec![vec![1], vec![-1, 2], vec![-2], vec![4, 5]];
        let mut proof = Proof::new();
        proof.add(vec![]);
        let report = check_proof(
            &cnf,
            &proof,
            &CheckOptions {
                trim: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.derived_empty);
        let core = report.input_core.unwrap();
        assert!(
            core.contains(&0) && core.contains(&1) && core.contains(&2),
            "{core:?}"
        );
        assert!(
            !core.contains(&3),
            "irrelevant clause not in core: {core:?}"
        );
        assert_eq!(report.trimmed_additions, Some(1));
    }

    #[test]
    fn trimming_drops_unused_steps() {
        let cnf = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        let mut proof = Proof::new();
        proof.add(vec![2]); // needed
        proof.add(vec![2, 1]); // subsumed, never used
        proof.add(vec![]);
        let report = check_proof(
            &cnf,
            &proof,
            &CheckOptions {
                trim: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.additions, 3);
        assert_eq!(report.trimmed_additions, Some(2));
    }

    #[test]
    fn trim_seeds_cover_multiple_terminals() {
        // Two independent "obligations" over disjoint clause sets: terminal
        // clauses ¬1 (from clauses 0–1) and ¬4 (from clauses 2–3).  Seeding
        // both terminals must pull both halves into the core; the default
        // (last-step) seed only needs the second half.
        let cnf = vec![vec![-1, 2], vec![-2], vec![-4, 5], vec![-5]];
        let mut proof = Proof::new();
        proof.add(vec![-1]);
        proof.add(vec![-4]);
        let both = check_proof(
            &cnf,
            &proof,
            &CheckOptions {
                trim: true,
                trim_seeds: vec![0, 1],
            },
        )
        .unwrap();
        assert_eq!(both.input_core.unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(both.trimmed_additions, Some(2));
        let last_only = check_proof(
            &cnf,
            &proof,
            &CheckOptions {
                trim: true,
                trim_seeds: Vec::new(),
            },
        )
        .unwrap();
        assert_eq!(last_only.input_core.unwrap(), vec![2, 3]);
        assert_eq!(last_only.trimmed_additions, Some(1));
    }

    #[test]
    fn zero_literal_in_an_input_clause_is_rejected() {
        let cnf = vec![vec![1], vec![2, 0]];
        let proof = Proof::new();
        assert!(matches!(
            check(&cnf, &proof),
            Err(CheckError::InputZeroLiteral { clause: 1 })
        ));
    }

    #[test]
    fn zero_literal_is_rejected() {
        let cnf = vec![vec![1]];
        let mut proof = Proof::new();
        proof.add(vec![0]);
        assert!(matches!(
            check(&cnf, &proof),
            Err(CheckError::ZeroLiteral { step: 0 })
        ));
    }
}
