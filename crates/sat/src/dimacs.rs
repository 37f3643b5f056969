//! Reading and writing CNF formulas in the DIMACS format, incremental
//! sessions in the iCNF format, and DRAT proofs in their text and binary
//! encodings.

use crate::cnf::{CnfFormula, Lit};
use std::fmt;
use std::io::{self, BufRead, Write};
use velv_proof::drat::{self, ParseDratError};
use velv_proof::Proof;

/// An error produced while parsing a DIMACS file.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// The problem line or a clause was malformed.
    Malformed(String),
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error while reading DIMACS: {e}"),
            ParseDimacsError::Malformed(msg) => write!(f, "malformed DIMACS input: {msg}"),
        }
    }
}

impl std::error::Error for ParseDimacsError {}

impl From<io::Error> for ParseDimacsError {
    fn from(e: io::Error) -> Self {
        ParseDimacsError::Io(e)
    }
}

/// Parses a DIMACS CNF problem from `reader`.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] if the input is not a well-formed DIMACS
/// problem or the reader fails.
pub fn read_dimacs<R: BufRead>(reader: R) -> Result<CnfFormula, ParseDimacsError> {
    let mut cnf = CnfFormula::new(0);
    let mut declared_vars = 0usize;
    let mut current: Vec<Lit> = Vec::new();
    let mut saw_problem_line = false;
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('%') {
            // SATLIB end-of-file marker ("%" followed by a stray "0" line):
            // everything after it is padding, not clauses.
            break;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut parts = rest.split_whitespace();
            let format = parts.next().unwrap_or("");
            if format != "cnf" {
                return Err(ParseDimacsError::Malformed(format!(
                    "unsupported problem format `{format}`"
                )));
            }
            declared_vars = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseDimacsError::Malformed("missing variable count".into()))?;
            saw_problem_line = true;
            continue;
        }
        for token in line.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| ParseDimacsError::Malformed(format!("invalid literal `{token}`")))?;
            if value == 0 {
                cnf.add_clause(std::mem::take(&mut current));
            } else {
                current.push(Lit::from_dimacs(value));
            }
        }
    }
    if !saw_problem_line {
        return Err(ParseDimacsError::Malformed("missing problem line".into()));
    }
    if !current.is_empty() {
        cnf.add_clause(current);
    }
    cnf.ensure_vars(declared_vars);
    Ok(cnf)
}

/// Parses a DIMACS CNF problem from a string.
///
/// # Errors
///
/// See [`read_dimacs`].
pub fn parse_dimacs(input: &str) -> Result<CnfFormula, ParseDimacsError> {
    read_dimacs(input.as_bytes())
}

/// Writes `cnf` in DIMACS format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_dimacs<W: Write>(mut writer: W, cnf: &CnfFormula) -> io::Result<()> {
    writeln!(writer, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses())?;
    for clause in cnf.clauses() {
        for lit in clause {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders `cnf` as a DIMACS string.
pub fn to_dimacs_string(cnf: &CnfFormula) -> String {
    let mut out = Vec::new();
    write_dimacs(&mut out, cnf).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DIMACS output is ASCII")
}

/// One event of an incremental solving session, in the order it happened.
///
/// The iCNF format (the `p inccnf` incremental-track format) interleaves
/// ordinary clause lines with *solve cues*: a line `a l1 l2 ... 0` asks for a
/// `solve_assuming(&[l1, l2, ...])` call under the clauses seen so far.
/// [`crate::incremental::IncrementalSolver`] can record its session as a list
/// of these events and [`crate::incremental::replay_icnf`] re-executes one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcnfEvent {
    /// A clause added to the formula.
    AddClause(Vec<Lit>),
    /// A `solve_assuming` call with the given assumption literals.
    Solve(Vec<Lit>),
}

/// Writes an incremental session in iCNF format: a `p inccnf` header, one
/// line per clause (terminated by `0`) and one `a <lits> 0` line per solve
/// cue, in event order.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_icnf<W: Write>(mut writer: W, events: &[IcnfEvent]) -> io::Result<()> {
    writeln!(writer, "p inccnf")?;
    for event in events {
        let lits = match event {
            IcnfEvent::AddClause(lits) => lits,
            IcnfEvent::Solve(lits) => {
                write!(writer, "a ")?;
                lits
            }
        };
        for lit in lits {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders an incremental session as an iCNF string.
pub fn to_icnf_string(events: &[IcnfEvent]) -> String {
    let mut out = Vec::new();
    write_icnf(&mut out, events).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("iCNF output is ASCII")
}

/// Parses an iCNF incremental session from `reader`.
///
/// Comments (`c`/`%`), blank lines and stray whitespace are tolerated, as in
/// [`read_dimacs`]; each clause or assumption line must be terminated by `0`
/// on the same line.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] if the input is not a well-formed iCNF
/// session or the reader fails.
pub fn read_icnf<R: BufRead>(reader: R) -> Result<Vec<IcnfEvent>, ParseDimacsError> {
    let mut events = Vec::new();
    let mut saw_problem_line = false;
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('%') {
            // SATLIB-style end marker: everything after it (typically a
            // stray "0" line) is padding, not an empty clause.
            break;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let format = rest.split_whitespace().next().unwrap_or("");
            if format != "inccnf" {
                return Err(ParseDimacsError::Malformed(format!(
                    "unsupported problem format `{format}` (expected inccnf)"
                )));
            }
            saw_problem_line = true;
            continue;
        }
        if !saw_problem_line {
            return Err(ParseDimacsError::Malformed(
                "missing `p inccnf` problem line".into(),
            ));
        }
        let (is_solve, body) = match line.strip_prefix('a') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for token in body.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| ParseDimacsError::Malformed(format!("invalid literal `{token}`")))?;
            if value == 0 {
                terminated = true;
                break;
            }
            lits.push(Lit::from_dimacs(value));
        }
        if !terminated {
            return Err(ParseDimacsError::Malformed(format!(
                "unterminated iCNF line `{line}`"
            )));
        }
        events.push(if is_solve {
            IcnfEvent::Solve(lits)
        } else {
            IcnfEvent::AddClause(lits)
        });
    }
    if !saw_problem_line {
        return Err(ParseDimacsError::Malformed(
            "missing `p inccnf` problem line".into(),
        ));
    }
    Ok(events)
}

/// Parses an iCNF incremental session from a string.
///
/// # Errors
///
/// See [`read_icnf`].
pub fn parse_icnf(input: &str) -> Result<Vec<IcnfEvent>, ParseDimacsError> {
    read_icnf(input.as_bytes())
}

/// DIMACS-codes one clause as the `i32` literals the `velv_proof` checker
/// consumes.
pub fn clause_to_dimacs_i32(clause: &[Lit]) -> Vec<i32> {
    clause.iter().map(|l| l.to_dimacs() as i32).collect()
}

/// DIMACS-codes every clause of `cnf` for the `velv_proof` checker.
pub fn cnf_to_dimacs_i32(cnf: &CnfFormula) -> Vec<Vec<i32>> {
    cnf.clauses()
        .iter()
        .map(|c| clause_to_dimacs_i32(c))
        .collect()
}

impl From<ParseDratError> for ParseDimacsError {
    fn from(e: ParseDratError) -> Self {
        match e {
            ParseDratError::Io(e) => ParseDimacsError::Io(e),
            ParseDratError::Malformed(msg) => ParseDimacsError::Malformed(msg),
        }
    }
}

/// Writes a DRAT proof in the text format (`1 -2 0`, deletions prefixed with
/// `d`), as produced by proof-logging solve calls (see [`crate::proof`]).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_drat_text<W: Write>(writer: W, proof: &Proof) -> io::Result<()> {
    drat::write_text(writer, proof)
}

/// Renders a DRAT proof as a text string.
pub fn to_drat_text_string(proof: &Proof) -> String {
    drat::to_text_string(proof)
}

/// Parses a text DRAT proof.
///
/// # Errors
///
/// Returns [`ParseDimacsError::Malformed`] on malformed input.
pub fn parse_drat_text(input: &str) -> Result<Proof, ParseDimacsError> {
    Ok(drat::parse_text(input)?)
}

/// Writes a DRAT proof in the binary format (step tags `a`/`d`, literals as
/// variable-length 7-bit integers `2·|lit| + (lit < 0)`).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_drat_binary<W: Write>(writer: W, proof: &Proof) -> io::Result<()> {
    drat::write_binary(writer, proof)
}

/// Serializes a DRAT proof in the binary format.
pub fn to_drat_binary(proof: &Proof) -> Vec<u8> {
    drat::to_binary(proof)
}

/// Parses a binary DRAT proof.
///
/// # Errors
///
/// Returns [`ParseDimacsError::Malformed`] on truncated or malformed input.
pub fn parse_drat_binary(input: &[u8]) -> Result<Proof, ParseDimacsError> {
    Ok(drat::parse_binary(input)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;

    #[test]
    fn parse_simple_problem() {
        let input = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse_dimacs(input).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses()[0].len(), 2);
    }

    #[test]
    fn roundtrip() {
        let mut cnf = CnfFormula::new(3);
        let a = Lit::positive(Var::new(0));
        let b = Lit::negative(Var::new(1));
        let c = Lit::positive(Var::new(2));
        cnf.add_clause(vec![a, b]);
        cnf.add_clause(vec![c]);
        let text = to_dimacs_string(&cnf);
        let parsed = parse_dimacs(&text).unwrap();
        assert_eq!(parsed.num_vars(), cnf.num_vars());
        assert_eq!(parsed.num_clauses(), cnf.num_clauses());
        assert_eq!(parsed.clauses(), cnf.clauses());
    }

    #[test]
    fn rejects_missing_problem_line() {
        assert!(parse_dimacs("1 2 0\n").is_err());
    }

    #[test]
    fn rejects_bad_format() {
        assert!(parse_dimacs("p sat 3 2\n1 0\n").is_err());
        assert!(parse_dimacs("p cnf x y\n").is_err());
        assert!(parse_dimacs("p cnf 2 1\n1 junk 0\n").is_err());
    }

    #[test]
    fn clause_spanning_lines_and_trailing_clause() {
        let input = "p cnf 3 2\n1 2\n3 0\n-1 -2 -3\n";
        let cnf = parse_dimacs(input).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses()[0].len(), 3);
        assert_eq!(cnf.clauses()[1].len(), 3);
    }

    #[test]
    fn tolerates_comments_blank_lines_and_trailing_whitespace() {
        // Comments before, between and after clauses; blank lines; trailing
        // spaces and tabs; CRLF endings; '%' end-of-file markers (SATLIB).
        let input = "c header comment\n\nc another\np cnf 3 2   \r\n  1 -2 0\t\n\n\
                     c between clauses\n   2 3 0   \n%\n0\n\n";
        let cnf = parse_dimacs(input).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        // The '%' marker ends the input: the stray "0" line after it must
        // not be parsed as an (unsatisfiable) empty clause.
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(
            cnf.clauses()[0],
            vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)]
        );
    }

    #[test]
    fn icnf_roundtrip() {
        let events = vec![
            IcnfEvent::AddClause(vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)]),
            IcnfEvent::Solve(vec![Lit::from_dimacs(2)]),
            IcnfEvent::AddClause(vec![Lit::from_dimacs(-1)]),
            IcnfEvent::Solve(vec![]),
            IcnfEvent::AddClause(vec![]),
        ];
        let text = to_icnf_string(&events);
        assert!(text.starts_with("p inccnf\n"));
        assert!(text.contains("a 2 0"));
        let parsed = parse_icnf(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn icnf_tolerates_comments_and_whitespace() {
        // The '%' end marker and its stray "0" line must not be parsed as an
        // (unsatisfiable) empty clause.
        let input = "c session dump\n\np inccnf   \r\n  1 -2 0  \nc solve now\n a 2 0\t\n%\n0\n";
        let parsed = parse_icnf(input).unwrap();
        assert_eq!(
            parsed,
            vec![
                IcnfEvent::AddClause(vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)]),
                IcnfEvent::Solve(vec![Lit::from_dimacs(2)]),
            ]
        );
    }

    #[test]
    fn icnf_rejects_malformed_input() {
        assert!(parse_icnf("1 2 0\n").is_err(), "missing problem line");
        assert!(parse_icnf("p cnf 2 1\n1 0\n").is_err(), "wrong format");
        assert!(parse_icnf("p inccnf\n1 2\n").is_err(), "unterminated line");
        assert!(parse_icnf("p inccnf\na 1 junk 0\n").is_err(), "bad literal");
    }

    fn sample_proof() -> Proof {
        let mut proof = Proof::new();
        proof.add(vec![3, -1]);
        proof.delete(vec![2, 3]);
        proof.add(vec![-2]);
        proof.add(vec![]);
        proof
    }

    #[test]
    fn drat_text_roundtrip() {
        let proof = sample_proof();
        let text = to_drat_text_string(&proof);
        assert!(text.contains("3 -1 0"));
        assert!(text.contains("d 2 3 0"));
        let parsed = parse_drat_text(&text).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn drat_binary_roundtrip() {
        let proof = sample_proof();
        let bytes = to_drat_binary(&proof);
        let parsed = parse_drat_binary(&bytes).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn drat_text_and_binary_agree() {
        let proof = sample_proof();
        let via_text = parse_drat_text(&to_drat_text_string(&proof)).unwrap();
        let via_binary = parse_drat_binary(&to_drat_binary(&proof)).unwrap();
        assert_eq!(via_text, via_binary);
    }

    #[test]
    fn drat_parse_errors_surface_as_dimacs_errors() {
        assert!(parse_drat_text("1 2\n").is_err(), "unterminated step");
        assert!(parse_drat_binary(&[b'q', 0]).is_err(), "bad step tag");
    }

    #[test]
    fn recorded_engine_proof_roundtrips_through_both_encodings() {
        use crate::cdcl::CdclSolver;
        use crate::generators::pigeonhole;
        use crate::solver::Budget;
        let cnf = pigeonhole(4);
        let (result, proof) =
            CdclSolver::chaff().solve_recording_proof(&cnf, &[], Budget::unlimited());
        assert!(result.is_unsat());
        assert!(!proof.is_empty(), "a real refutation has steps");
        // DRAT carries literals only: the engine's hints do not round-trip.
        let plain = proof.without_hints();
        let text = parse_drat_text(&to_drat_text_string(&proof)).unwrap();
        assert_eq!(text, plain);
        let binary = parse_drat_binary(&to_drat_binary(&proof)).unwrap();
        assert_eq!(binary, plain);
    }
}
