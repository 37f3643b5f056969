//! Certification of SAT verdicts: DRAT proofs and an independent checker.
//!
//! A CDCL refutation is only as trustworthy as the engine that produced it.
//! This crate closes that gap for the UNSAT pole of the verification flow:
//! the solver emits every learned clause and every clause deletion as a
//! [DRAT](https://satcompetition.github.io/2024/certificates.html) proof
//! ([`Proof`], with text and binary serializations in [`drat`]), and the
//! [`checker`] replays the proof against the original CNF.
//!
//! # Hinted proofs
//!
//! A proof may carry LRAT-style hints: each addition lists the clauses whose
//! unit propagation derives it, in order, ending with the clause that becomes
//! falsified, and each deletion names the clause it removes.  A hint is a
//! [`ClauseId`]: `Input(i)` is clause `i` of the list the proof is checked
//! against, `Step(s)` is the clause added by proof step `s`.  Both are
//! encoded in one `u32` and stored in one flat buffer per proof.  The CDCL
//! engine of `velv_sat` writes them from its conflict analysis: one unit
//! lemma the first time a literal is fixed at the root, then per learned
//! clause the units of the root literals it drops, the resolved reasons in
//! trail order and the conflicting clause last.
//!
//! The checker verifies a hinted proof by walking each chain: assign the
//! negated lemma, then every hinted clause must be unit (its open literal is
//! assigned) or, for the last hint only, falsified.  There are no watch
//! lists, no propagation and no clause copies, so checking costs about as
//! much as reading the hints.  The hints are *untrusted input*: every chain
//! is verified, and a chain that does not derive its lemma rejects that step
//! ([`CheckError::StepNotRup`]) without falling back to propagation, so a
//! wrong hint can only make a valid proof fail, never an invalid one pass.
//!
//! # Reverse unit propagation
//!
//! A proof without hints — the output of the CNF preprocessor, a DRAT file
//! read from disk, or a proof logged by an engine that was attached late —
//! is checked by *reverse unit propagation* (RUP): each added clause must
//! yield a conflict by unit propagation when its negation is asserted.
//!
//! Either way the checker is deliberately independent of the `velv_sat`
//! solver crate: it has its own chain walk and its own tiny watched-literal
//! propagation core, works on plain DIMACS-coded `i32` literals, and shares
//! no code with the engines whose answers it audits.  A bug in the solver's
//! propagation, conflict analysis or clause management therefore cannot
//! silently re-validate its own faulty proofs.
//!
//! Besides forward checking, the checker can backward-*trim* a verified proof:
//! starting from the terminal step it marks the clauses actually used — the
//! closure over the hint lists, or over each RUP derivation's conflict cone —
//! reporting the subset of the input clauses (the used-clause core) and the
//! number of proof steps that matter.
//!
//! # Example
//!
//! ```
//! use velv_proof::{check_proof, CheckOptions, ClauseId, Proof};
//!
//! // x ∧ (¬x ∨ y) ∧ ¬y is unsatisfiable; the empty clause is RUP.
//! let cnf = vec![vec![1], vec![-1, 2], vec![-2]];
//! let mut proof = Proof::new();
//! proof.add(vec![]);
//! let report = check_proof(&cnf, &proof, &CheckOptions::default()).unwrap();
//! assert!(report.derived_empty && !report.hinted);
//!
//! // The same refutation with its chain: x is unit, then y, then ¬y fails.
//! let chain: Vec<u32> = [0, 1, 2].map(|i| ClauseId::Input(i).encode()).to_vec();
//! let mut hinted = Proof::new();
//! hinted.add_hinted(vec![], &chain);
//! let report = check_proof(&cnf, &hinted, &CheckOptions::default()).unwrap();
//! assert!(report.derived_empty && report.hinted);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod drat;
mod hinted;

pub use checker::{check_proof, CheckError, CheckOptions, CheckReport};
pub use drat::{ClauseId, Proof, ProofStep};
