//! The exact counts of a pass repeat exactly on a second pass of the same
//! binary: conflicts, decisions, CNF clauses and DRAT proof steps.

use verifbench::inputs::{self, Workload};
use verifbench::{verify_pass, Counts, Prepared};

fn short_pass(workload: Workload, inputs: Vec<inputs::Input>) -> Counts {
    let prepared: Vec<Prepared> = inputs.into_iter().map(Prepared::new).collect();
    let pass = verify_pass(workload, &prepared, None);
    assert_eq!(pass.decided, prepared.len(), "{:?}", pass.failures);
    pass.counts
}

#[test]
fn solver_and_translation_counts_repeat() {
    let hunt = || {
        inputs::bug_hunt(inputs::DEFAULT_SEED)
            .into_iter()
            .step_by(20)
            .collect()
    };
    let first = short_pass(Workload::BugHunt, hunt());
    assert!(first.conflicts > 0 && first.decisions > 0 && first.cnf_clauses > 0);
    assert_eq!(first, short_pass(Workload::BugHunt, hunt()));
}

#[test]
fn proof_steps_repeat() {
    let certify = || {
        inputs::certify()
            .into_iter()
            .filter(|i| i.name.starts_with("1xDLX-C/") || i.name.starts_with("OOO-4/"))
            .collect()
    };
    let first = short_pass(Workload::Certify, certify());
    assert!(first.proof_steps > 0 && first.cnf_clauses > 0);
    assert_eq!(first, short_pass(Workload::Certify, certify()));
}
