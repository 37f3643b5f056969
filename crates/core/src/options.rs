//! Configuration of the EUFM → propositional translation.

/// How g-equations (equations between general terms) are encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GEncoding {
    /// One fresh Boolean variable per g-equation plus sparse transitivity
    /// constraints (Goel et al. 1998; Bryant & Velev 2002).
    Eij,
    /// Small-domain instantiation: each g-term ranges over a sufficient set of
    /// constants selected by indexing variables (Pnueli et al. 1999).
    SmallDomain,
}

/// How transitivity of the *e*ij equality variables is enforced (only
/// meaningful for [`GEncoding::Eij`]; the small-domain encoding is
/// transitive by construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransitivityMode {
    /// Triangulate the equality-comparison graph up front and assume the
    /// three transitivity clauses of every triangle as side constraints
    /// (Bryant & Velev's sparse method, Section 6 of the paper).  One solver
    /// call decides the obligation.
    Eager,
    /// Encode without any transitivity constraints and refine lazily: solve,
    /// look for violated transitivity in the returned model (an equality
    /// path between the endpoints of a false *e*ij edge), assert the violated
    /// constraint, re-solve — the refinement loop of Bryant & Velev's
    /// "Boolean Satisfiability with Transitivity Constraints", a natural fit
    /// for the incremental solver which keeps learned clauses across the
    /// iterations.  UNSAT answers need no refinement at all (fewer variables,
    /// no chord edges); SAT answers are validated before being reported.
    Lazy,
}

/// How uninterpreted predicates are eliminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpElimination {
    /// Nested-ITE scheme (same as for uninterpreted functions).
    NestedIte,
    /// Ackermann constraints.  The paper notes this is acceptable for
    /// predicates (the negated consistency equations are over Boolean values)
    /// but must not be used for functions whose results are p-terms.
    Ackermann,
}

/// All the translation toggles exercised by the paper's experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct TranslationOptions {
    /// Exploit positive equality (Section 8).  When disabled, every term
    /// variable is treated as a g-term, as in the original Goel et al. scheme.
    pub positive_equality: bool,
    /// Encoding of g-equations (Section 6).
    pub encoding: GEncoding,
    /// Transitivity enforcement for the *e*ij encoding: eager triangulated
    /// side constraints (the default) or lazy model-driven refinement.
    /// Lazy translations are checked by the refinement loop in
    /// [`crate::refine`]; [`crate::Verifier::check`] routes there
    /// automatically.
    pub transitivity: TransitivityMode,
    /// Elimination scheme for uninterpreted predicates (Section 5, "AC").
    pub up_elimination: UpElimination,
    /// Early reduction of p-equations during UF elimination (Section 5, "ER").
    pub early_reduction: bool,
    /// Conservative approximation: abstract these memories (by state-element
    /// name) with general uninterpreted functions that do not satisfy the
    /// forwarding property (Section 8).
    pub abstract_memories: Vec<String>,
    /// Conservative approximation: wrap these architectural state elements in
    /// dummy unary "translation box" UFs on both sides of the commutative
    /// diagram (Section 8).
    pub translation_boxes: Vec<String>,
}

impl Default for TranslationOptions {
    fn default() -> Self {
        TranslationOptions {
            positive_equality: true,
            encoding: GEncoding::Eij,
            transitivity: TransitivityMode::Eager,
            up_elimination: UpElimination::NestedIte,
            early_reduction: false,
            abstract_memories: Vec::new(),
            translation_boxes: Vec::new(),
        }
    }
}

impl TranslationOptions {
    /// The base configuration used throughout the experiments: positive
    /// equality, eij encoding, nested-ITE elimination, no structural
    /// variations, no conservative approximations.
    pub fn base() -> Self {
        Self::default()
    }

    /// Structural variation "ER": early reduction of p-equations.
    pub fn with_early_reduction(mut self) -> Self {
        self.early_reduction = true;
        self
    }

    /// Structural variation "AC": Ackermann constraints for predicates.
    pub fn with_ackermann_ups(mut self) -> Self {
        self.up_elimination = UpElimination::Ackermann;
        self
    }

    /// Switches to the small-domain encoding of g-equations.
    pub fn with_small_domain(mut self) -> Self {
        self.encoding = GEncoding::SmallDomain;
        self
    }

    /// Switches transitivity enforcement to lazy model-driven refinement
    /// (see [`TransitivityMode::Lazy`]).
    pub fn with_lazy_transitivity(mut self) -> Self {
        self.transitivity = TransitivityMode::Lazy;
        self
    }

    /// Disables positive equality (the "no positive equality" rows of Table 9).
    pub fn without_positive_equality(mut self) -> Self {
        self.positive_equality = false;
        self
    }

    /// A canonical, stable serialization of every translation toggle.
    ///
    /// Two option values produce the same token iff they are equal (list
    /// fields are sorted and deduplicated first, since their order does not
    /// affect the translation).  The token feeds the job
    /// [`fingerprint`](crate::fingerprint), so it must never depend on
    /// process state — only on the option values themselves.
    pub fn canonical_token(&self) -> String {
        let list = |items: &[String]| {
            let mut sorted: Vec<&str> = items.iter().map(String::as_str).collect();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.join(",")
        };
        format!(
            "pe={};enc={};trans={};up={};er={};am=[{}];tb=[{}]",
            u8::from(self.positive_equality),
            match self.encoding {
                GEncoding::Eij => "eij",
                GEncoding::SmallDomain => "sd",
            },
            match self.transitivity {
                TransitivityMode::Eager => "eager",
                TransitivityMode::Lazy => "lazy",
            },
            match self.up_elimination {
                UpElimination::NestedIte => "ite",
                UpElimination::Ackermann => "ack",
            },
            u8::from(self.early_reduction),
            list(&self.abstract_memories),
            list(&self.translation_boxes),
        )
    }

    /// The four structural variations of Table 2: base, ER, AC, ER + AC.
    pub fn structural_variations() -> Vec<(String, TranslationOptions)> {
        vec![
            ("base".to_owned(), Self::base()),
            ("ER".to_owned(), Self::base().with_early_reduction()),
            ("AC".to_owned(), Self::base().with_ackermann_ups()),
            (
                "ER+AC".to_owned(),
                Self::base().with_early_reduction().with_ackermann_ups(),
            ),
        ]
    }
}

/// Configuration of *certified* checking
/// ([`crate::Verifier::check_certified`] and
/// [`crate::Verifier::check_shared_certified`]).
///
/// A certified run turns both poles of a verdict into checkable artifacts
/// instead of articles of faith in the solver:
///
/// * **UNSAT** — the CDCL engine logs a DRAT proof (every learned clause,
///   every deletion, and the terminal clause: the empty clause, or the clause
///   over the negated assumptions for assumption-selected obligations).  The
///   proof is replayed by the *independent* forward RUP checker in
///   `velv_proof` against the exact CNF that was solved — the translation's
///   clauses plus every clause asserted during lazy transitivity refinement.
/// * **SAT** — the model is lifted through
///   [`crate::Counterexample::from_model`] into a `velv_eufm`
///   [`velv_eufm::Interpretation`] and the encoded correctness formula is
///   re-evaluated with `velv_eufm::eval`: it must come out *false* under
///   *true* side constraints, the *e*ij assignment must be
///   transitivity-consistent (so it lifts to a genuine equality
///   interpretation), and the model must satisfy every clause handed to the
///   solver.  Spurious models are rejected instead of reported as bugs.
///
/// The trusted base of a certified verdict is therefore reduced to: the
/// EUFM translation pipeline (model → CNF), the tiny RUP checker, and the
/// EUFM evaluator — the CDCL search, its heuristics, clause management and
/// the incremental session machinery are all *outside* it.  See the
/// "Certified verification" section of the README for the full threat model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifyOptions {
    /// Log DRAT proofs during solving and replay every UNSAT answer through
    /// the independent checker.  Disabling this removes the (small) logging
    /// overhead and leaves UNSAT verdicts uncertified.
    pub check_unsat_proofs: bool,
    /// Re-evaluate every SAT model against the encoded correctness formula
    /// and the transitivity semantics before reporting it as a
    /// counterexample.
    pub validate_counterexamples: bool,
    /// Backward-trim verified proofs and report the used-clause core (which
    /// input clauses the refutation actually depends on).  Certified runs
    /// log hinted proofs, so the trim is the backward closure over the hint
    /// lists from the terminal steps: two bitmaps and one pass over the
    /// hints.  A proof without hints is trimmed by the RUP checker, which
    /// keeps one antecedent list per addition.  Off by default.
    pub trim_proofs: bool,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            check_unsat_proofs: true,
            validate_counterexamples: true,
            trim_proofs: false,
        }
    }
}

impl CertifyOptions {
    /// Full certification on both poles (the default).
    pub fn full() -> Self {
        Self::default()
    }

    /// Additionally backward-trim proofs and report used-clause cores.
    pub fn with_trimming(mut self) -> Self {
        self.trim_proofs = true;
        self
    }

    /// A canonical, stable serialization (see
    /// [`TranslationOptions::canonical_token`]).
    pub fn canonical_token(&self) -> String {
        format!(
            "proofs={};models={};trim={}",
            u8::from(self.check_unsat_proofs),
            u8::from(self.validate_counterexamples),
            u8::from(self.trim_proofs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certify_defaults_check_both_poles() {
        let options = CertifyOptions::default();
        assert!(options.check_unsat_proofs);
        assert!(options.validate_counterexamples);
        assert!(!options.trim_proofs);
        assert!(CertifyOptions::full().with_trimming().trim_proofs);
    }

    #[test]
    fn default_matches_the_paper_base_configuration() {
        let options = TranslationOptions::default();
        assert!(options.positive_equality);
        assert_eq!(options.encoding, GEncoding::Eij);
        assert_eq!(options.transitivity, TransitivityMode::Eager);
        assert_eq!(options.up_elimination, UpElimination::NestedIte);
        assert!(!options.early_reduction);
        assert!(options.abstract_memories.is_empty());
        assert!(options.translation_boxes.is_empty());
    }

    #[test]
    fn builders_toggle_the_right_fields() {
        let options = TranslationOptions::base()
            .with_early_reduction()
            .with_ackermann_ups()
            .with_small_domain();
        assert!(options.early_reduction);
        assert_eq!(options.up_elimination, UpElimination::Ackermann);
        assert_eq!(options.encoding, GEncoding::SmallDomain);
        assert!(
            !TranslationOptions::base()
                .without_positive_equality()
                .positive_equality
        );
        assert_eq!(
            TranslationOptions::base()
                .with_lazy_transitivity()
                .transitivity,
            TransitivityMode::Lazy
        );
    }

    #[test]
    fn canonical_tokens_distinguish_every_toggle() {
        let base = TranslationOptions::base();
        let mut tokens = vec![
            base.canonical_token(),
            base.clone().with_early_reduction().canonical_token(),
            base.clone().with_ackermann_ups().canonical_token(),
            base.clone().with_small_domain().canonical_token(),
            base.clone().with_lazy_transitivity().canonical_token(),
            base.clone().without_positive_equality().canonical_token(),
        ];
        let mut boxed = base.clone();
        boxed.translation_boxes = vec!["pc".to_owned()];
        tokens.push(boxed.canonical_token());
        let mut abstracted = base.clone();
        abstracted.abstract_memories = vec!["dmem".to_owned()];
        tokens.push(abstracted.canonical_token());
        let n = tokens.len();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), n, "every variation has a distinct token");

        // List order does not change the token.
        let mut ab = base.clone();
        ab.abstract_memories = vec!["a".to_owned(), "b".to_owned()];
        let mut ba = base;
        ba.abstract_memories = vec!["b".to_owned(), "a".to_owned()];
        assert_eq!(ab.canonical_token(), ba.canonical_token());

        assert_ne!(
            CertifyOptions::full().canonical_token(),
            CertifyOptions::full().with_trimming().canonical_token()
        );
    }

    #[test]
    fn four_structural_variations() {
        let variations = TranslationOptions::structural_variations();
        assert_eq!(variations.len(), 4);
        assert_eq!(variations[0].0, "base");
        assert!(variations[3].1.early_reduction);
        assert_eq!(variations[3].1.up_elimination, UpElimination::Ackermann);
    }
}
