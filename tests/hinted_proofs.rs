//! Differential suite for hinted proofs: every engine proof — all four CDCL
//! presets, pigeonhole and random 3-SAT refutations, an assumption query
//! with a final core, an incremental session with clauses added between
//! solves, and a shared decomposition — carries hints on every step, checks
//! on the hinted path as emitted and on the RUP path with its hints
//! stripped, and trims to an input core that refutes on its own.

use velv::prelude::*;
use velv_proof::{check_proof, CheckError, CheckOptions, ClauseId, Proof, ProofStep};
use velv_sat::cdcl::{CdclConfig, CdclSolver};
use velv_sat::dimacs::{clause_to_dimacs_i32, cnf_to_dimacs_i32};
use velv_sat::generators::{pigeonhole, random_3sat};
use velv_sat::{CnfFormula, IncrementalSolver, Lit, Var};

fn presets() -> [CdclConfig; 4] {
    [
        CdclConfig::chaff(),
        CdclConfig::berkmin(),
        CdclConfig::grasp(),
        CdclConfig::sato(),
    ]
}

/// Checks `proof` both ways and re-checks its trimmed core; `terminals` are
/// the steps that certify verdicts (the trim seeds).
fn assert_checks_both_ways(label: &str, clauses: &[Vec<i32>], proof: &Proof, terminals: &[usize]) {
    for (index, step) in proof.steps().iter().enumerate() {
        let hints = proof.hints(index).len();
        match step {
            ProofStep::Add(_) => assert!(hints > 0, "{label}: addition {index} has no hints"),
            ProofStep::Delete(_) => assert_eq!(hints, 1, "{label}: deletion {index} by ID"),
        }
    }
    let hinted = check_proof(clauses, proof, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{label}: hinted proof rejected: {e}"));
    assert!(hinted.hinted, "{label}");
    let plain = check_proof(clauses, &proof.without_hints(), &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{label}: stripped proof rejected: {e}"));
    assert!(!plain.hinted, "{label}");
    assert_eq!(hinted.additions, plain.additions, "{label}");
    assert_eq!(hinted.derived_empty, plain.derived_empty, "{label}");

    let trimmed = check_proof(
        clauses,
        proof,
        &CheckOptions {
            trim: true,
            trim_seeds: terminals.to_vec(),
        },
    )
    .unwrap_or_else(|e| panic!("{label}: trimming run rejected: {e}"));
    let core = trimmed.input_core.expect("trim reports a core");
    assert!(!core.is_empty() && core.len() <= clauses.len(), "{label}");
    assert_core_refutes_alone(label, clauses, proof, terminals, &core);
}

/// Keeps the core clauses and every addition whose hints resolve into them
/// (renumbered), and checks that this proof still derives every terminal.
fn assert_core_refutes_alone(
    label: &str,
    clauses: &[Vec<i32>],
    proof: &Proof,
    terminals: &[usize],
    core: &[usize],
) {
    let mut input_map = vec![None; clauses.len()];
    for (new, &old) in core.iter().enumerate() {
        input_map[old] = Some(new);
    }
    let core_cnf: Vec<Vec<i32>> = core.iter().map(|&i| clauses[i].clone()).collect();
    let mut step_map = vec![None; proof.len()];
    let mut kept = Proof::new();
    for (index, step) in proof.steps().iter().enumerate() {
        let ProofStep::Add(lits) = step else {
            continue;
        };
        let hints: Option<Vec<u32>> = proof
            .hints(index)
            .iter()
            .map(|&hint| match ClauseId::decode(hint) {
                ClauseId::Input(i) => input_map[i].map(|n| ClauseId::Input(n).encode()),
                ClauseId::Step(s) => step_map[s].map(|n| ClauseId::Step(n).encode()),
            })
            .collect();
        if let Some(hints) = hints {
            step_map[index] = Some(kept.len());
            kept.add_hinted(lits.clone(), &hints);
        }
    }
    for &terminal in terminals {
        assert!(
            step_map[terminal].is_some(),
            "{label}: terminal step {terminal} depends on clauses outside the core"
        );
    }
    check_proof(&core_cnf, &kept, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{label}: the core does not refute alone: {e}"));
}

fn last_step(proof: &Proof) -> Vec<usize> {
    vec![proof.len() - 1]
}

#[test]
fn pigeonhole_refutations_of_every_preset_check_both_ways() {
    let cnf = pigeonhole(5);
    let clauses = cnf_to_dimacs_i32(&cnf);
    for config in presets() {
        let name = config.name.clone();
        let (result, proof) =
            CdclSolver::new(config).solve_recording_proof(&cnf, &[], Budget::unlimited());
        assert!(result.is_unsat(), "{name}");
        assert_checks_both_ways(&name, &clauses, &proof, &last_step(&proof));
    }
}

#[test]
fn random_3sat_refutations_of_every_preset_check_both_ways() {
    let mut checked = 0;
    for seed in 1..=4u64 {
        let cnf = random_3sat(40, 180, seed);
        let clauses = cnf_to_dimacs_i32(&cnf);
        for config in presets() {
            let label = format!("{}-seed{seed}", config.name);
            let (result, proof) =
                CdclSolver::new(config).solve_recording_proof(&cnf, &[], Budget::unlimited());
            if result.is_unsat() {
                assert_checks_both_ways(&label, &clauses, &proof, &last_step(&proof));
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "expected UNSAT instances, got {checked}");
}

#[test]
fn assumption_queries_with_a_final_core_check_both_ways() {
    // Selector-guarded pigeonhole: UNSAT only under the selectors, so the
    // terminal step is the clause over the negated final core.
    let holes = 4;
    let pigeons = holes + 1;
    let base = pigeonhole(holes);
    let mut cnf = CnfFormula::new(base.num_vars() + pigeons);
    let selector = |p: usize| Var::new((base.num_vars() + p) as u32);
    for (i, clause) in base.clauses().iter().enumerate() {
        let mut clause = clause.clone();
        if i < pigeons {
            clause.push(Lit::negative(selector(i)));
        }
        cnf.add_clause(clause);
    }
    let clauses = cnf_to_dimacs_i32(&cnf);
    let assumptions: Vec<Lit> = (0..pigeons).map(|p| Lit::positive(selector(p))).collect();
    for config in presets() {
        let name = config.name.clone();
        let mut solver = IncrementalSolver::with_formula_and_proof(config, &cnf);
        assert!(solver
            .solve_assuming(&assumptions, Budget::unlimited())
            .is_unsat());
        assert!(!solver.unsat_core().is_empty(), "{name}");
        let proof = solver.proof().expect("logging").snapshot();
        let terminal = proof.last().expect("a terminal step");
        assert_eq!(terminal.lits().len(), solver.unsat_core().len(), "{name}");
        assert_checks_both_ways(&name, &clauses, &proof, &last_step(&proof));
    }
}

#[test]
fn incremental_sessions_with_added_clauses_check_both_ways() {
    // Pigeonhole with the hole constraints arriving as refinement clauses
    // between solves, after a unit that strengthens some of them.
    let holes = 4;
    let full = pigeonhole(holes);
    let pigeons = holes + 1;
    let (base_clauses, refinements) = full.clauses().split_at(pigeons);
    let mut base = CnfFormula::new(full.num_vars());
    for clause in base_clauses {
        base.add_clause(clause.clone());
    }
    let pin = base_clauses[0][0];
    for config in presets() {
        let name = config.name.clone();
        let mut solver = IncrementalSolver::with_formula_and_proof(config, &base);
        let mut added: Vec<Vec<Lit>> = Vec::new();
        assert!(solver.solve(Budget::unlimited()).is_sat(), "{name}");
        solver.add_clause(&[pin]);
        added.push(vec![pin]);
        for (i, clause) in refinements.iter().enumerate() {
            solver.add_clause(clause);
            added.push(clause.clone());
            if i % 7 == 0 {
                let _ = solver.solve(Budget::unlimited());
            }
        }
        assert!(solver.solve(Budget::unlimited()).is_unsat(), "{name}");
        let mut clauses = cnf_to_dimacs_i32(&base);
        clauses.extend(added.iter().map(|c| clause_to_dimacs_i32(c)));
        let proof = solver.proof().expect("logging").snapshot();
        assert_checks_both_ways(&name, &clauses, &proof, &last_step(&proof));
    }
}

#[test]
fn refutations_by_input_clauses_alone_check_both_ways() {
    let lit = Lit::from_dimacs;
    // Contradictory units, and an empty clause, in the initial formula.
    for clauses in [vec![vec![1], vec![2], vec![-1]], vec![vec![1, 2], vec![]]] {
        let mut cnf = CnfFormula::new(2);
        for clause in &clauses {
            cnf.add_clause(clause.iter().map(|&l| lit(l)).collect());
        }
        let (result, proof) =
            CdclSolver::chaff().solve_recording_proof(&cnf, &[], Budget::unlimited());
        assert!(result.is_unsat());
        assert_checks_both_ways("initial", &cnf_to_dimacs_i32(&cnf), &proof, &[0]);
    }
    // An empty clause, and a clause falsified at the root, added later.
    for added in [vec![], vec![-1, -2]] {
        let mut solver = IncrementalSolver::new(CdclConfig::chaff());
        let proof = solver.enable_proof();
        solver.add_clause(&[lit(1)]);
        solver.add_clause(&[lit(2)]);
        assert!(solver.solve(Budget::unlimited()).is_sat());
        let added: Vec<Lit> = added.into_iter().map(lit).collect();
        solver.add_clause(&added);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        let clauses = vec![vec![1], vec![2], clause_to_dimacs_i32(&added)];
        let proof = proof.snapshot();
        assert_checks_both_ways("added", &clauses, &proof, &last_step(&proof));
    }
}

#[test]
fn a_shared_decomposition_checks_both_ways() {
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    let verifier = Verifier::new(TranslationOptions::default());
    let problem = verifier.build_problem(&Dlx::correct(config), &spec);
    let shared = verifier.translate_obligations_shared(&problem, 8);
    let clauses = cnf_to_dimacs_i32(&shared.cnf);
    let mut solver = IncrementalSolver::with_formula_and_proof(CdclConfig::chaff(), &shared.cnf);
    let mut terminals = Vec::new();
    for obligation in &shared.obligations {
        let result = solver.solve_assuming(&obligation.assumptions, Budget::unlimited());
        assert!(result.is_unsat(), "{}: {result:?}", obligation.name);
        terminals.push(solver.proof().expect("logging").len() - 1);
    }
    let proof = solver.proof().expect("logging").snapshot();
    assert_checks_both_ways("shared 1xDLX-C", &clauses, &proof, &terminals);
}

#[test]
fn a_dropped_engine_hint_is_rejected_at_its_step() {
    let cnf = pigeonhole(4);
    let clauses = cnf_to_dimacs_i32(&cnf);
    let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, &[], Budget::unlimited());
    assert!(result.is_unsat());
    let target = (0..proof.len())
        .find(|&i| proof.steps()[i].is_addition() && proof.hints(i).len() >= 2)
        .expect("a refutation resolves");
    // Drop the falsified clause that ends the chain.
    let mut mutated = Proof::new();
    for (index, step) in proof.steps().iter().enumerate() {
        let hints = proof.hints(index);
        match step {
            ProofStep::Add(lits) if index == target => {
                mutated.add_hinted(lits.clone(), &hints[..hints.len() - 1])
            }
            ProofStep::Add(lits) => mutated.add_hinted(lits.clone(), hints),
            ProofStep::Delete(lits) => mutated.delete_hinted(lits.clone(), hints[0]),
        }
    }
    match check_proof(&clauses, &mutated, &CheckOptions::default()) {
        Err(CheckError::StepNotRup { step, .. }) => assert_eq!(step, target),
        other => panic!("expected StepNotRup at {target}, got {other:?}"),
    }
}
