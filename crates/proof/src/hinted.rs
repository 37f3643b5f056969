//! The hinted checker: verifies each addition of a proof by walking the hint
//! chain recorded with it, without watches and without unit propagation.
//!
//! A step's hints name clauses ([`ClauseId`]s) in the order the producer
//! propagated them.  To verify an addition `C`, the checker assigns the
//! negation of every literal of `C`, then visits the hinted clauses in order.
//! Each one must be live (an input clause not yet deleted, or an earlier
//! verified addition not yet deleted) and, under the current assignment,
//! either *unit* — no true literal and exactly one unassigned literal, which
//! is then assigned — or *falsified*.  The falsified clause must be the last
//! hint.  Anything else rejects the step: a satisfied hint, a hint with two
//! open literals, a dangling, forward or deleted reference, or a chain that
//! ends without a conflict.  Nothing is retried by propagation: a chain that
//! fails is a rejected step.
//!
//! Because every hint is verified, hints are untrusted input: a wrong chain
//! can make the checker reject a valid lemma, never accept an invalid one.
//! Deletions name their clause by ID; a deletion that names no live clause
//! is ignored.  Clauses are read in place from the input list and from the
//! proof's own steps, so the checker keeps one assignment array and two
//! liveness bitmaps, and nothing per clause.

use crate::checker::{CheckError, CheckOptions, CheckReport};
use crate::drat::{ClauseId, Proof, ProofStep};

/// Assignment state of the chain walk.
struct Walk {
    /// Per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    /// Variables assigned while verifying the current step.
    trail: Vec<usize>,
}

impl Walk {
    fn value(&self, lit: i32) -> i8 {
        let a = self.assign[lit.unsigned_abs() as usize - 1];
        if lit < 0 {
            -a
        } else {
            a
        }
    }

    fn set_true(&mut self, lit: i32) {
        let v = lit.unsigned_abs() as usize - 1;
        self.assign[v] = if lit > 0 { 1 } else { -1 };
        self.trail.push(v);
    }

    /// Whether the chain `hints` derives `lits`; `clause` resolves a hint to
    /// the literals of a live clause.  The assignment is empty again
    /// afterwards.
    fn verifies<'a>(
        &mut self,
        lits: &[i32],
        hints: &[u32],
        clause: impl Fn(u32) -> Option<&'a [i32]>,
    ) -> bool {
        let verified = self.walk(lits, hints, clause);
        for &v in &self.trail {
            self.assign[v] = 0;
        }
        self.trail.clear();
        verified
    }

    fn walk<'a>(
        &mut self,
        lits: &[i32],
        hints: &[u32],
        clause: impl Fn(u32) -> Option<&'a [i32]>,
    ) -> bool {
        for &lit in lits {
            match self.value(lit) {
                // The clause holds a literal and its negation: a tautology,
                // verified by its empty chain alone.
                1 => return hints.is_empty(),
                0 => self.set_true(-lit),
                _ => {}
            }
        }
        for (k, &hint) in hints.iter().enumerate() {
            let Some(hinted) = clause(hint) else {
                return false;
            };
            let mut open = 0i32;
            for &lit in hinted {
                match self.value(lit) {
                    1 => return false, // satisfied: the hint proves nothing
                    0 if open == 0 || open == lit => open = lit,
                    0 => return false, // a second open literal: not unit
                    _ => {}
                }
            }
            if open == 0 {
                // Falsified: the conflict that ends the chain.
                return k + 1 == hints.len();
            }
            self.set_true(open);
        }
        false
    }
}

/// Checks a proof that carries hints; see the module documentation.
pub(crate) fn check_hinted(
    cnf: &[Vec<i32>],
    proof: &Proof,
    options: &CheckOptions,
) -> Result<CheckReport, CheckError> {
    let steps = proof.steps();
    let mut max_var = 0usize;
    for (index, clause) in cnf.iter().enumerate() {
        if clause.contains(&0) {
            return Err(CheckError::InputZeroLiteral { clause: index });
        }
        max_var = clause
            .iter()
            .fold(max_var, |m, l| m.max(l.unsigned_abs() as usize));
    }
    for (index, step) in steps.iter().enumerate() {
        if step.lits().contains(&0) {
            return Err(CheckError::ZeroLiteral { step: index });
        }
        max_var = step
            .lits()
            .iter()
            .fold(max_var, |m, l| m.max(l.unsigned_abs() as usize));
    }
    let mut walk = Walk {
        assign: vec![0; max_var],
        trail: Vec::new(),
    };
    let mut input_live = vec![true; cnf.len()];
    // Verified, not yet deleted additions.
    let mut step_live = vec![false; steps.len()];
    let mut additions = 0usize;
    let mut deletions = 0usize;
    let mut ignored_deletions = 0usize;
    let mut derived_empty = false;
    for (index, step) in steps.iter().enumerate() {
        match step {
            ProofStep::Add(lits) => {
                let live_clause = |hint: u32| match ClauseId::decode(hint) {
                    ClauseId::Input(i) if input_live.get(i) == Some(&true) => {
                        Some(cnf[i].as_slice())
                    }
                    ClauseId::Step(s) if s < index && step_live[s] => Some(steps[s].lits()),
                    _ => None,
                };
                if !walk.verifies(lits, proof.hints(index), live_clause) {
                    return Err(CheckError::StepNotRup {
                        step: index,
                        clause: lits.clone(),
                    });
                }
                step_live[index] = true;
                additions += 1;
                derived_empty |= lits.is_empty();
            }
            ProofStep::Delete(_) => {
                deletions += 1;
                let deleted = match *proof.hints(index) {
                    [hint] => match ClauseId::decode(hint) {
                        ClauseId::Input(i) => input_live
                            .get_mut(i)
                            .map(|live| std::mem::replace(live, false)),
                        ClauseId::Step(s) if s < index => {
                            Some(std::mem::replace(&mut step_live[s], false))
                        }
                        ClauseId::Step(_) => None,
                    },
                    _ => None,
                };
                if deleted != Some(true) {
                    ignored_deletions += 1;
                }
            }
        }
    }
    let (input_core, trimmed_additions) = if options.trim {
        let (core, trimmed) = trim(cnf.len(), proof, &options.trim_seeds);
        (Some(core), Some(trimmed))
    } else {
        (None, None)
    };
    Ok(CheckReport {
        additions,
        deletions,
        ignored_deletions,
        derived_empty,
        hinted: true,
        input_core,
        trimmed_additions,
    })
}

/// Backward closure over the hint lists of a verified proof: starting from
/// the seed steps (the last addition when `seeds` is empty), every clause a
/// needed step hints is needed.  Returns the needed input clauses and the
/// number of needed additions.
fn trim(num_inputs: usize, proof: &Proof, seeds: &[usize]) -> (Vec<usize>, usize) {
    let steps = proof.steps();
    let mut needed_input = vec![false; num_inputs];
    let mut needed_step = vec![false; steps.len()];
    if seeds.is_empty() {
        if let Some(last) = steps.iter().rposition(ProofStep::is_addition) {
            needed_step[last] = true;
        }
    }
    for &seed in seeds {
        if steps.get(seed).is_some_and(ProofStep::is_addition) {
            needed_step[seed] = true;
        }
    }
    let mut trimmed = 0usize;
    for index in (0..steps.len()).rev() {
        if !needed_step[index] {
            continue;
        }
        trimmed += 1;
        for &hint in proof.hints(index) {
            match ClauseId::decode(hint) {
                ClauseId::Input(i) => needed_input[i] = true,
                ClauseId::Step(s) => needed_step[s] = true,
            }
        }
    }
    let core = (0..num_inputs).filter(|&i| needed_input[i]).collect();
    (core, trimmed)
}
