//! The DRAT proof format: clause additions and deletions, in the text and
//! binary encodings used by the SAT competition checkers.
//!
//! Literals are DIMACS-coded `i32` values (1-based, negative for negated
//! literals); a proof is the ordered list of steps the solver performed.  The
//! text format writes one step per line (`1 -2 0`, deletions prefixed with
//! `d`); the binary format prefixes each step with `a` (0x61) or `d` (0x64)
//! and encodes each literal as the variable-length 7-bit integer
//! `2·|lit| + (lit < 0)`, terminated by a zero byte.
//!
//! A proof may also carry LRAT-style *hints*: per step, a list of
//! [`ClauseId`]s.  An addition's hints name the clauses whose unit
//! propagation derives it, in order, ending with the clause that conflicts; a
//! deletion's single hint names the clause it removes.  The DRAT encodings
//! carry literals only, so hints do not survive a text or binary round trip.

use std::fmt;
use std::io::{self, Write};

/// One step of a DRAT proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause addition (a learned clause, a strengthened clause, the final
    /// clause over negated assumptions, or the empty clause).  Must be
    /// RUP-derivable from the clause database at this point of the proof.
    Add(Vec<i32>),
    /// A clause deletion (database reduction, oversize purge, subsumption).
    Delete(Vec<i32>),
}

impl ProofStep {
    /// The literals of the step, regardless of its kind.
    pub fn lits(&self) -> &[i32] {
        match self {
            ProofStep::Add(lits) | ProofStep::Delete(lits) => lits,
        }
    }

    /// Whether this step is an addition.
    pub fn is_addition(&self) -> bool {
        matches!(self, ProofStep::Add(_))
    }
}

/// The clause a hint names: an input clause, by its index in the clause list
/// the proof is checked against, or an earlier addition, by its proof-step
/// index.  Encoded in one `u32`; the top bit tells the two apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClauseId {
    /// The input clause at this index.
    Input(usize),
    /// The clause added by the proof step at this index.
    Step(usize),
}

/// Tag bit of an encoded [`ClauseId::Step`].
const STEP_TAG: u32 = 1 << 31;

impl ClauseId {
    /// The `u32` encoding stored in a proof's hint buffer.
    ///
    /// # Panics
    ///
    /// Panics if the index does not fit in 31 bits.
    pub fn encode(self) -> u32 {
        let (index, tag) = match self {
            ClauseId::Input(index) => (index, 0),
            ClauseId::Step(index) => (index, STEP_TAG),
        };
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i < STEP_TAG)
            .expect("clause index fits in 31 bits");
        index | tag
    }

    /// Decodes a hint.
    pub fn decode(raw: u32) -> Self {
        if raw & STEP_TAG == 0 {
            ClauseId::Input(raw as usize)
        } else {
            ClauseId::Step((raw & !STEP_TAG) as usize)
        }
    }
}

/// An ordered DRAT proof: the additions and deletions a solver performed, in
/// the order it performed them, optionally with the hints of each step.
///
/// Hints are stored flat: one `u32` buffer for the whole proof plus the end
/// offset of each step's slice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proof {
    steps: Vec<ProofStep>,
    /// Encoded [`ClauseId`]s of every step, concatenated.
    hints: Vec<u32>,
    /// Per step: the end of its slice of `hints`.
    hint_ends: Vec<u32>,
}

impl Proof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        Proof::default()
    }

    /// Appends a clause addition without hints.
    pub fn add(&mut self, lits: Vec<i32>) {
        self.push(ProofStep::Add(lits), &[]);
    }

    /// Appends a clause deletion without hints.
    pub fn delete(&mut self, lits: Vec<i32>) {
        self.push(ProofStep::Delete(lits), &[]);
    }

    /// Appends a clause addition with its hint chain (encoded [`ClauseId`]s).
    pub fn add_hinted(&mut self, lits: Vec<i32>, hints: &[u32]) {
        self.push(ProofStep::Add(lits), hints);
    }

    /// Appends the deletion of the clause with the encoded ID `id`.
    pub fn delete_hinted(&mut self, lits: Vec<i32>, id: u32) {
        self.push(ProofStep::Delete(lits), &[id]);
    }

    fn push(&mut self, step: ProofStep, hints: &[u32]) {
        self.steps.push(step);
        self.hints.extend_from_slice(hints);
        let end = u32::try_from(self.hints.len()).expect("hint buffer fits in u32 offsets");
        self.hint_ends.push(end);
    }

    /// The encoded hints of the step at `index` (empty when it has none or
    /// does not exist).
    pub fn hints(&self, index: usize) -> &[u32] {
        let Some(&end) = self.hint_ends.get(index) else {
            return &[];
        };
        let start = match index {
            0 => 0,
            _ => self.hint_ends[index - 1],
        };
        &self.hints[start as usize..end as usize]
    }

    /// Whether any step carries hints.  The checker verifies a proof with
    /// hints by walking them, and one without by reverse unit propagation.
    pub fn has_hints(&self) -> bool {
        !self.hints.is_empty()
    }

    /// The same steps with every hint dropped: a plain DRAT proof.
    pub fn without_hints(&self) -> Proof {
        let mut plain = Proof::new();
        for step in &self.steps {
            plain.push(step.clone(), &[]);
        }
        plain
    }

    /// The steps of the proof, in order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the proof has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The last step, if any.
    pub fn last(&self) -> Option<&ProofStep> {
        self.steps.last()
    }

    /// The step at `index`, if it exists.
    pub fn step(&self, index: usize) -> Option<&ProofStep> {
        self.steps.get(index)
    }

    /// Mutable access to a step (used by mutation tests that corrupt a proof
    /// on purpose to check that the checker rejects it).
    pub fn step_mut(&mut self, index: usize) -> Option<&mut ProofStep> {
        self.steps.get_mut(index)
    }

    /// Number of addition steps.
    pub fn num_additions(&self) -> usize {
        self.steps.iter().filter(|s| s.is_addition()).count()
    }
}

/// An error produced while parsing a DRAT proof.
#[derive(Debug)]
pub enum ParseDratError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// The input was not a well-formed DRAT proof.
    Malformed(String),
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDratError::Io(e) => write!(f, "i/o error while reading DRAT: {e}"),
            ParseDratError::Malformed(msg) => write!(f, "malformed DRAT input: {msg}"),
        }
    }
}

impl std::error::Error for ParseDratError {}

impl From<io::Error> for ParseDratError {
    fn from(e: io::Error) -> Self {
        ParseDratError::Io(e)
    }
}

/// Writes a proof in the text DRAT format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_text<W: Write>(mut writer: W, proof: &Proof) -> io::Result<()> {
    for step in proof.steps() {
        if let ProofStep::Delete(_) = step {
            write!(writer, "d ")?;
        }
        for lit in step.lits() {
            write!(writer, "{lit} ")?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders a proof as a text DRAT string.
pub fn to_text_string(proof: &Proof) -> String {
    let mut out = Vec::new();
    write_text(&mut out, proof).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DRAT text output is ASCII")
}

/// Parses a text DRAT proof.  Comment lines starting with `c` and blank lines
/// are tolerated; every step must be terminated by `0` on its own line.
///
/// # Errors
///
/// Returns [`ParseDratError`] on malformed input.
pub fn parse_text(input: &str) -> Result<Proof, ParseDratError> {
    let mut proof = Proof::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, body) = match line.strip_prefix('d') {
            // Distinguish the deletion prefix from a literal that merely
            // starts the line: `d` must be followed by whitespace.
            Some(rest) if rest.starts_with(char::is_whitespace) => (true, rest),
            _ => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for token in body.split_whitespace() {
            let value: i32 = token
                .parse()
                .map_err(|_| ParseDratError::Malformed(format!("invalid literal `{token}`")))?;
            if value == 0 {
                terminated = true;
                break;
            }
            lits.push(value);
        }
        if !terminated {
            return Err(ParseDratError::Malformed(format!(
                "unterminated DRAT line `{line}`"
            )));
        }
        if is_delete {
            proof.delete(lits);
        } else {
            proof.add(lits);
        }
    }
    Ok(proof)
}

/// The variable-length 7-bit encoding of one mapped literal value.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a DIMACS literal to its binary-DRAT unsigned code.
fn map_lit(lit: i32) -> u64 {
    if lit > 0 {
        2 * lit as u64
    } else {
        2 * (-(lit as i64)) as u64 + 1
    }
}

/// Unmaps a binary-DRAT code back to a DIMACS literal.
fn unmap_lit(code: u64) -> Result<i32, ParseDratError> {
    let var = i32::try_from(code >> 1)
        .map_err(|_| ParseDratError::Malformed(format!("literal code {code} out of range")))?;
    Ok(if code & 1 == 0 { var } else { -var })
}

/// Serializes a proof in the binary DRAT format.
pub fn to_binary(proof: &Proof) -> Vec<u8> {
    let mut out = Vec::new();
    for step in proof.steps() {
        out.push(match step {
            ProofStep::Add(_) => b'a',
            ProofStep::Delete(_) => b'd',
        });
        for &lit in step.lits() {
            push_varint(&mut out, map_lit(lit));
        }
        out.push(0);
    }
    out
}

/// Writes a proof in the binary DRAT format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_binary<W: Write>(mut writer: W, proof: &Proof) -> io::Result<()> {
    writer.write_all(&to_binary(proof))
}

/// Parses a binary DRAT proof.
///
/// # Errors
///
/// Returns [`ParseDratError`] on truncated or malformed input.
pub fn parse_binary(input: &[u8]) -> Result<Proof, ParseDratError> {
    let mut proof = Proof::new();
    let mut pos = 0usize;
    while pos < input.len() {
        let kind = input[pos];
        pos += 1;
        let is_delete = match kind {
            b'a' => false,
            b'd' => true,
            other => {
                return Err(ParseDratError::Malformed(format!(
                    "unexpected step tag byte 0x{other:02x} at offset {}",
                    pos - 1
                )))
            }
        };
        let mut lits = Vec::new();
        loop {
            // Read one varint.
            let mut value: u64 = 0;
            let mut shift = 0u32;
            loop {
                let byte = *input.get(pos).ok_or_else(|| {
                    ParseDratError::Malformed("truncated binary DRAT step".into())
                })?;
                pos += 1;
                if shift >= 63 {
                    return Err(ParseDratError::Malformed(
                        "binary DRAT literal overflows".into(),
                    ));
                }
                value |= u64::from(byte & 0x7f) << shift;
                shift += 7;
                if byte & 0x80 == 0 {
                    break;
                }
            }
            if value == 0 {
                break;
            }
            lits.push(unmap_lit(value)?);
        }
        if is_delete {
            proof.delete(lits);
        } else {
            proof.add(lits);
        }
    }
    Ok(proof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Proof {
        let mut proof = Proof::new();
        proof.add(vec![1, -2, 3]);
        proof.delete(vec![-1, 2]);
        proof.add(vec![-3]);
        proof.add(vec![]);
        proof
    }

    #[test]
    fn text_roundtrip() {
        let proof = sample();
        let text = to_text_string(&proof);
        assert!(text.contains("d -1 2 0"));
        assert!(text.ends_with("0\n"));
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn text_tolerates_comments_and_blank_lines() {
        let input = "c a comment\n\n1 -2 0\nd 1 -2 0\n  0  \n";
        let proof = parse_text(input).unwrap();
        assert_eq!(proof.len(), 3);
        assert_eq!(proof.steps()[0], ProofStep::Add(vec![1, -2]));
        assert_eq!(proof.steps()[1], ProofStep::Delete(vec![1, -2]));
        assert_eq!(proof.steps()[2], ProofStep::Add(vec![]));
    }

    #[test]
    fn text_rejects_malformed_lines() {
        assert!(parse_text("1 2\n").is_err(), "unterminated");
        assert!(parse_text("1 junk 0\n").is_err(), "bad literal");
    }

    #[test]
    fn binary_roundtrip() {
        let proof = sample();
        let bytes = to_binary(&proof);
        assert_eq!(bytes[0], b'a');
        let parsed = parse_binary(&bytes).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn binary_roundtrip_with_large_literals() {
        let mut proof = Proof::new();
        proof.add(vec![1_000_000, -2_000_000, 3]);
        proof.delete(vec![-1_000_000]);
        let parsed = parse_binary(&to_binary(&proof)).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(parse_binary(&[b'x', 0]).is_err(), "bad tag");
        assert!(parse_binary(&[b'a', 0x82]).is_err(), "truncated varint");
        assert!(parse_binary(&[b'a', 2]).is_err(), "missing terminator");
    }

    #[test]
    fn clause_ids_round_trip() {
        for id in [
            ClauseId::Input(0),
            ClauseId::Input(12_345),
            ClauseId::Step(0),
            ClauseId::Step((1 << 31) - 1),
        ] {
            assert_eq!(ClauseId::decode(id.encode()), id);
        }
        assert_ne!(ClauseId::Input(3).encode(), ClauseId::Step(3).encode());
    }

    #[test]
    fn hints_are_stored_per_step() {
        let mut proof = Proof::new();
        proof.add_hinted(vec![1], &[4, 5]);
        proof.add(vec![2]);
        proof.delete_hinted(vec![1], 7);
        proof.add_hinted(vec![], &[8]);
        assert!(proof.has_hints());
        assert_eq!(proof.hints(0), &[4, 5]);
        assert!(proof.hints(1).is_empty());
        assert_eq!(proof.hints(2), &[7]);
        assert_eq!(proof.hints(3), &[8]);
        assert!(proof.hints(9).is_empty());
        let plain = proof.without_hints();
        assert!(!plain.has_hints());
        assert_eq!(plain.steps(), proof.steps());
    }

    #[test]
    fn step_helpers() {
        let proof = sample();
        assert_eq!(proof.num_additions(), 3);
        assert!(proof.last().unwrap().lits().is_empty());
        assert!(!proof.is_empty());
    }
}
