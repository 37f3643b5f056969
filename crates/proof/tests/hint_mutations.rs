//! Hint-mutation suite for the hinted checker: a small hand-built proof is
//! accepted as written, and every corruption of one step's hints is
//! rejected as `StepNotRup` at exactly that step.

use velv_proof::{check_proof, CheckError, CheckOptions, ClauseId, Proof, ProofStep};

fn input(i: usize) -> u32 {
    ClauseId::Input(i).encode()
}

fn step(s: usize) -> u32 {
    ClauseId::Step(s).encode()
}

/// x1, x1 → x2, x2 → x3, ¬(x2 ∧ x3), an irrelevant clause and a copy of
/// clause 3.
fn cnf() -> Vec<Vec<i32>> {
    vec![
        vec![1],
        vec![-1, 2],
        vec![-2, 3],
        vec![-3, -2],
        vec![4, 5],
        vec![-3, -2],
    ]
}

/// The proof as an engine would write it, one step per entry.
fn steps() -> Vec<(ProofStep, Vec<u32>)> {
    vec![
        // ¬x3: x1, then x2, then x2 → x3 is falsified.
        (ProofStep::Add(vec![3]), vec![input(0), input(1), input(2)]),
        // Drop the copy of clause 3.
        (ProofStep::Delete(vec![-3, -2]), vec![input(5)]),
        // ¬x2 given x3 (step 0): clause 3 is falsified.
        (ProofStep::Add(vec![-2]), vec![step(0), input(3)]),
        // The empty clause: x1, then x2, then step 2 is falsified.
        (ProofStep::Add(vec![]), vec![input(0), input(1), step(2)]),
    ]
}

fn build(steps: &[(ProofStep, Vec<u32>)]) -> Proof {
    let mut proof = Proof::new();
    for (s, hints) in steps {
        match s {
            ProofStep::Add(lits) => proof.add_hinted(lits.clone(), hints),
            ProofStep::Delete(lits) => proof.delete_hinted(lits.clone(), hints[0]),
        }
    }
    proof
}

/// Applies `mutate` to the hints of step `target` and asserts the checker
/// rejects the proof at exactly that step.
fn assert_rejected_at(target: usize, mutate: impl FnOnce(&mut Vec<u32>)) {
    let mut mutated = steps();
    mutate(&mut mutated[target].1);
    match check_proof(&cnf(), &build(&mutated), &CheckOptions::default()) {
        Err(CheckError::StepNotRup { step, .. }) => assert_eq!(step, target),
        other => panic!("expected StepNotRup at {target}, got {other:?}"),
    }
}

#[test]
fn the_honest_proof_is_accepted_on_the_hinted_path() {
    let report = check_proof(&cnf(), &build(&steps()), &CheckOptions::default()).unwrap();
    assert!(report.hinted);
    assert!(report.derived_empty);
    assert_eq!(report.additions, 3);
    assert_eq!(report.deletions, 1);
    assert_eq!(report.ignored_deletions, 0);
}

#[test]
fn a_dropped_hint_is_rejected() {
    assert_rejected_at(3, |hints| {
        hints.remove(1);
    });
    // Dropping the falsified clause leaves a chain without a conflict.
    assert_rejected_at(0, |hints| {
        hints.pop();
    });
}

#[test]
fn swapped_hints_are_rejected() {
    // x1 → x2 is not unit before x1 is assigned.
    assert_rejected_at(0, |hints| hints.swap(0, 1));
    assert_rejected_at(3, |hints| hints.swap(0, 1));
}

#[test]
fn a_hint_naming_a_deleted_clause_is_rejected() {
    // Clause 5 has the literals of clause 3, but step 1 deleted it.
    assert_rejected_at(2, |hints| hints[1] = input(5));
}

#[test]
fn forward_and_self_references_are_rejected() {
    // Step 2 would falsify the negation of step 0's clause, were it there.
    assert_rejected_at(0, |hints| hints[2] = step(2));
    assert_rejected_at(2, |hints| hints[1] = step(2));
}

#[test]
fn out_of_range_ids_are_rejected() {
    assert_rejected_at(2, |hints| hints[1] = input(99));
    assert_rejected_at(3, |hints| hints[2] = step(99));
    // Step 1 is a deletion, not a clause.
    assert_rejected_at(3, |hints| hints[2] = step(1));
}

#[test]
fn a_satisfied_hint_is_rejected() {
    // After the first hint x1 is true, so clause 0 is satisfied.
    assert_rejected_at(3, |hints| hints.insert(1, input(0)));
    // Satisfied as the last hint: it has no open literal, but it is no
    // conflict either.
    assert_rejected_at(0, |hints| hints[2] = input(0));
}

#[test]
fn hints_after_the_conflict_are_rejected() {
    assert_rejected_at(2, |hints| hints.push(input(2)));
}

#[test]
fn an_addition_without_hints_is_rejected_in_a_hinted_proof() {
    assert_rejected_at(2, |hints| hints.clear());
}

#[test]
fn tautologies_need_no_hints() {
    let mut proof = Proof::new();
    proof.add_hinted(vec![7, -7], &[]);
    proof.add_hinted(vec![1], &[input(0)]);
    let report = check_proof(&cnf(), &proof, &CheckOptions::default()).unwrap();
    assert!(report.hinted);
    assert_eq!(report.additions, 2);
}

#[test]
fn deletions_of_unknown_ids_are_ignored() {
    let mut proof = build(&steps());
    proof.delete_hinted(vec![9], input(99));
    proof.delete_hinted(vec![9], step(1));
    let report = check_proof(&cnf(), &proof, &CheckOptions::default()).unwrap();
    assert_eq!(report.ignored_deletions, 2);
}

#[test]
fn the_plain_proof_checks_by_reverse_unit_propagation() {
    let report = check_proof(
        &cnf(),
        &build(&steps()).without_hints(),
        &CheckOptions::default(),
    )
    .unwrap();
    assert!(!report.hinted);
    assert!(report.derived_empty);
}

#[test]
fn trimming_is_the_closure_over_the_hints() {
    let options = CheckOptions {
        trim: true,
        ..Default::default()
    };
    let report = check_proof(&cnf(), &build(&steps()), &options).unwrap();
    assert_eq!(report.input_core, Some(vec![0, 1, 2, 3]));
    assert_eq!(report.trimmed_additions, Some(3));
    // Seeded with step 0 alone, only its chain is needed.
    let seeded = CheckOptions {
        trim: true,
        trim_seeds: vec![0],
    };
    let report = check_proof(&cnf(), &build(&steps()), &seeded).unwrap();
    assert_eq!(report.input_core, Some(vec![0, 1, 2]));
    assert_eq!(report.trimmed_additions, Some(1));
}
