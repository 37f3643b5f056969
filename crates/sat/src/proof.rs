//! Pluggable DRAT proof logging for the CDCL engine.
//!
//! When a [`ProofWriter`] is attached, the engine records every inference it
//! performs on the clause database — learned clauses, clause deletions
//! (database reduction, SATO oversize purge), the empty clause on a root
//! conflict, and the clause over the negated assumptions when a query fails —
//! so that an UNSAT answer comes with a replayable
//! [DRAT](https://satcompetition.github.io/2024/certificates.html) proof.
//! Checking is *not* done here: the independent checker lives in
//! [`velv_proof::checker`], which deliberately shares no code with this crate.
//!
//! An engine that has the writer from its first clause on also records
//! hints ([`velv_proof::ClauseId`]s): with every addition the clauses its
//! conflict analysis resolved, with every deletion the ID of the deleted
//! clause, plus a unit lemma for each literal fixed at the root.  Input
//! clauses are numbered in the order the engine received them (the initial
//! formula, then each clause added between solves), proof steps in the order
//! they were written, starting at zero.
//!
//! The writer is a trait so that sinks can be swapped: the default
//! [`SharedProof`] accumulates an in-memory [`velv_proof::Proof`] behind a
//! cheap shared handle (the caller keeps a clone and reads the proof after the
//! solve), while custom sinks can stream steps to a file for proofs too large
//! to hold.

use crate::cnf::Lit;
use std::sync::{Arc, Mutex};
use velv_proof::Proof;

/// A sink for DRAT proof steps emitted by the solver.
///
/// Implementations must be cheap: the engine calls [`ProofWriter::add_clause`]
/// once per learned clause (on the conflict path) and
/// [`ProofWriter::delete_clause`] once per clause deletion.
pub trait ProofWriter: Send {
    /// Records a derived (RUP) clause addition with its hint chain (encoded
    /// [`velv_proof::ClauseId`]s; empty when the engine records no hints).
    fn add_clause(&mut self, lits: &[Lit], hints: &[u32]);
    /// Records a clause deletion, with the encoded ID of the deleted clause
    /// when the engine records hints.
    fn delete_clause(&mut self, lits: &[Lit], id: Option<u32>);
    /// Whether the engine should record hints into this sink.  Hint IDs
    /// number the engine's own steps from zero, so a sink that already holds
    /// steps — a preprocessing log, checked against a different CNF — must
    /// decline them and receive plain DRAT.
    fn accepts_hints(&self) -> bool {
        true
    }
}

/// A shared, in-memory DRAT proof: clones refer to the same underlying
/// [`Proof`], so the caller can hand one clone to the solver as its
/// [`ProofWriter`] and keep another to read the recorded steps afterwards.
///
/// The per-step cost is one uncontended mutex lock — negligible next to the
/// conflict analysis that precedes every learned clause.
#[derive(Clone, Debug, Default)]
pub struct SharedProof {
    inner: Arc<Mutex<Proof>>,
}

impl SharedProof {
    /// Creates an empty shared proof.
    pub fn new() -> Self {
        SharedProof::default()
    }

    /// A snapshot of the steps recorded so far.
    pub fn snapshot(&self) -> Proof {
        self.inner
            .lock()
            .expect("proof lock is not poisoned")
            .clone()
    }

    /// Takes the recorded proof out, leaving an empty one behind.
    pub fn take(&self) -> Proof {
        std::mem::take(&mut *self.inner.lock().expect("proof lock is not poisoned"))
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("proof lock is not poisoned").len()
    }

    /// Whether no steps have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ProofWriter for SharedProof {
    fn add_clause(&mut self, lits: &[Lit], hints: &[u32]) {
        self.inner
            .lock()
            .expect("proof lock is not poisoned")
            .add_hinted(crate::dimacs::clause_to_dimacs_i32(lits), hints);
    }

    fn delete_clause(&mut self, lits: &[Lit], id: Option<u32>) {
        let lits = crate::dimacs::clause_to_dimacs_i32(lits);
        let mut proof = self.inner.lock().expect("proof lock is not poisoned");
        match id {
            Some(id) => proof.delete_hinted(lits, id),
            None => proof.delete(lits),
        }
    }

    fn accepts_hints(&self) -> bool {
        self.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;
    use velv_proof::ProofStep;

    #[test]
    fn shared_proof_clones_observe_each_other() {
        let shared = SharedProof::new();
        let mut writer = shared.clone();
        assert!(writer.accepts_hints(), "an empty sink takes hints");
        writer.add_clause(
            &[Lit::positive(Var::new(0)), Lit::negative(Var::new(1))],
            &[3],
        );
        writer.delete_clause(&[Lit::negative(Var::new(0))], None);
        assert_eq!(shared.len(), 2);
        assert!(!writer.accepts_hints(), "a sink with steps declines hints");
        let proof = shared.snapshot();
        assert_eq!(proof.steps()[0], ProofStep::Add(vec![1, -2]));
        assert_eq!(proof.hints(0), &[3]);
        assert_eq!(proof.steps()[1], ProofStep::Delete(vec![-1]));
        let taken = shared.take();
        assert_eq!(taken.len(), 2);
        assert!(shared.is_empty());
    }
}
