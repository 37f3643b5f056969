//! The inputs of each workload and their known answers.
//!
//! A known answer comes from the model, never from the verifier: a correct
//! design must be proved correct, a catalog bug that the model applies must
//! be found.  Catalog entries the model never applies are excluded from
//! every draw by [`vliw_bug_is_inert`], a rule read from the VLIW model's
//! code.

use std::mem::Discriminant;
use velv_hdl::Processor;
use velv_models::dlx::{self, Dlx, DlxBug, DlxConfig, DlxSpecification};
use velv_models::ooo::{Ooo, OooSpecification};
use velv_models::vliw::{self, SlotKind, Vliw, VliwBug, VliwConfig, VliwSpecification};
use velv_sat::presets::SolverKind;
use velv_sat::rng::SmallRng;
use velv_serve::{DlxVariant, JobSpec, ModelRef};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Shares of every bug class drawn for one bug-hunt pass, DLX and VLIW.
/// A DLX verdict takes a third to half of a VLIW one; with VLIW bugs the
/// majority, the median verdict lies inside the VLIW mode instead of in the
/// gap between the two modes, where it would jump with the seed.
const BUG_HUNT_DLX_FRACTION: f64 = 0.2;
const BUG_HUNT_VLIW_FRACTION: f64 = 0.4;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The correct flagship designs, proved with chaff and berkmin.
    Prove,
    /// A seeded draw of genuine catalog bugs, found with chaff.
    BugHunt,
    /// Correct designs through proof-logging solves and DRAT replay.
    Certify,
    /// Two closed-loop clients against an in-process verification service.
    ServeMix,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Prove,
        Workload::BugHunt,
        Workload::Certify,
        Workload::ServeMix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prove => "prove",
            Workload::BugHunt => "bug-hunt",
            Workload::Certify => "certify",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The verdict a design must receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The design satisfies the correctness criterion.
    Correct,
    /// The design carries a bug the model applies.
    Buggy,
}

impl Expected {
    /// The wire spelling of the verdict (`velv_serve::proto::verdict_label`).
    pub fn label(self) -> &'static str {
        match self {
            Expected::Correct => "correct",
            Expected::Buggy => "buggy",
        }
    }
}

/// A design of the model catalog.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Design {
    /// A DLX pipeline, correct or with a catalog bug.
    Dlx(DlxConfig, Option<DlxBug>),
    /// A VLIW design, correct or with a catalog bug.
    Vliw(VliwConfig, Option<VliwBug>),
    /// The correct out-of-order core of the given width.
    Ooo(usize),
}

impl Design {
    /// The known answer.  Draws take only bugs the model applies, so every
    /// design with a bug is buggy and every other design is correct.
    pub fn expected(&self) -> Expected {
        match self {
            Design::Dlx(_, Some(_)) | Design::Vliw(_, Some(_)) => Expected::Buggy,
            _ => Expected::Correct,
        }
    }

    /// The implementation and specification processors.
    pub fn processors(&self) -> (Box<dyn Processor>, Box<dyn Processor>) {
        match *self {
            Design::Dlx(config, bug) => (
                Box::new(match bug {
                    Some(bug) => Dlx::buggy(config, bug),
                    None => Dlx::correct(config),
                }),
                Box::new(DlxSpecification::new(config)),
            ),
            Design::Vliw(config, bug) => (
                Box::new(match bug {
                    Some(bug) => Vliw::buggy(config, bug),
                    None => Vliw::correct(config),
                }),
                Box::new(VliwSpecification::new(config)),
            ),
            Design::Ooo(width) => (Box::new(Ooo::new(width)), Box::new(OooSpecification::new())),
        }
    }
}

/// The design name of a VLIW configuration.  `VliwConfig::name` reports
/// "9VLIW" whatever the slot count, so reduced widths are named here.
fn vliw_name(config: VliwConfig) -> String {
    let ex = if config.exceptions { "-EX" } else { "" };
    format!("{}VLIW-MC-BP{ex}", config.slots)
}

/// One verification of an in-process workload.
#[derive(Clone, Debug)]
pub struct Input {
    /// Row name: design, bug index and solver.
    pub name: String,
    /// The design to verify.
    pub design: Design,
    /// The SAT preset deciding it.
    pub solver: SolverKind,
}

fn solver_token(solver: SolverKind) -> &'static str {
    match solver {
        SolverKind::BerkMin => "berkmin",
        _ => "chaff",
    }
}

fn correct(name: String, design: Design, solver: SolverKind) -> Input {
    Input {
        name: format!("{name}/{}", solver_token(solver)),
        design,
        solver,
    }
}

/// Whether a VLIW catalog entry leaves the design unchanged.
///
/// `RemapMissing`, `WrongDestinationField` and `ExceptionIgnoredByWrite` are
/// consulted only in the integer/memory/floating-point arm of the model's
/// slot loop; on a slot whose [`VliwConfig::slot_kind`] is
/// [`SlotKind::Branch`] the mutation is never applied, so the "buggy" design
/// is correct.
pub fn vliw_bug_is_inert(config: VliwConfig, bug: VliwBug) -> bool {
    match bug {
        VliwBug::RemapMissing { slot }
        | VliwBug::WrongDestinationField { slot }
        | VliwBug::ExceptionIgnoredByWrite { slot } => config.slot_kind(slot) == SlotKind::Branch,
        _ => false,
    }
}

/// A catalog the draws sample from: every design whose bug the model
/// applies, with its catalog index, grouped by bug class (enum variant) in
/// catalog order.
struct Catalog {
    name: String,
    classes: Vec<Entries>,
}

/// Catalog entries: catalog index and design.
type Entries = Vec<(usize, Design)>;

impl Catalog {
    fn new<B: Copy>(
        name: String,
        bugs: impl IntoIterator<Item = (usize, B)>,
        design: impl Fn(B) -> Design,
    ) -> Catalog {
        let mut classes: Vec<(Discriminant<B>, Entries)> = Vec::new();
        for (index, bug) in bugs {
            let class = std::mem::discriminant(&bug);
            let entry = (index, design(bug));
            match classes.iter_mut().find(|(c, _)| *c == class) {
                Some((_, members)) => members.push(entry),
                None => classes.push((class, vec![entry])),
            }
        }
        Catalog {
            name,
            classes: classes.into_iter().map(|(_, members)| members).collect(),
        }
    }

    /// The catalog without repeated bugs: the catalogs list some bugs at
    /// several indices, and only the first index of each is kept.
    fn distinct(&self) -> Catalog {
        let mut seen = Vec::new();
        let classes = self
            .classes
            .iter()
            .map(|members| {
                members
                    .iter()
                    .filter(|(_, design)| {
                        let new = !seen.contains(design);
                        seen.push(*design);
                        new
                    })
                    .copied()
                    .collect()
            })
            .collect();
        Catalog {
            name: self.name.clone(),
            classes,
        }
    }

    /// A seeded draw of `fraction` of every class (at least one entry), so
    /// every bug class is in every draw and only the class members vary
    /// with the seed.
    fn draw(&self, rng: &mut SmallRng, fraction: f64) -> Entries {
        self.classes
            .iter()
            .flat_map(|members| {
                let count = (members.len() as f64 * fraction).ceil() as usize;
                draw(rng, members, count)
            })
            .collect()
    }
}

fn dlx_catalog(config: DlxConfig) -> Catalog {
    Catalog::new(
        config.name().to_owned(),
        dlx::bug_catalog(config).into_iter().enumerate(),
        |bug| Design::Dlx(config, Some(bug)),
    )
}

fn vliw_catalog(config: VliwConfig) -> Catalog {
    Catalog::new(
        vliw_name(config),
        vliw::bug_catalog(config)
            .into_iter()
            .enumerate()
            .filter(|&(_, bug)| !vliw_bug_is_inert(config, bug)),
        |bug| Design::Vliw(config, Some(bug)),
    )
}

/// `count` distinct entries of `items`, in draw order (partial
/// Fisher–Yates).
fn draw<T: Clone>(rng: &mut SmallRng, items: &[T], count: usize) -> Vec<T> {
    let mut pool = items.to_vec();
    let count = count.min(pool.len());
    for k in 0..count {
        let pick = rng.gen_range(k..pool.len());
        pool.swap(k, pick);
    }
    pool.truncate(count);
    pool
}

/// The prove workload: 1xDLX-C and the out-of-order cores OOO-2 and OOO-3
/// with both CDCL presets, then the paper's flagship designs with both
/// presets.
///
/// The median of the ten verdict times averages the two 1xDLX-C proofs,
/// which are mostly solving; the OOO rows take a few milliseconds, mostly
/// the page faults of a fresh translation stack.  OOO-4, OOO-5 and OOO-6 are
/// left to [`known_defect_probe`]: the default translation gets them wrong.
pub fn prove() -> Vec<Input> {
    let dlx1 = DlxConfig::single_issue();
    let mut inputs = Vec::new();
    for solver in [SolverKind::Chaff, SolverKind::BerkMin] {
        inputs.push(correct(
            dlx1.name().to_owned(),
            Design::Dlx(dlx1, None),
            solver,
        ));
        for width in 2..=3 {
            inputs.push(correct(format!("OOO-{width}"), Design::Ooo(width), solver));
        }
    }
    for solver in [SolverKind::Chaff, SolverKind::BerkMin] {
        let config = DlxConfig::dual_issue_full();
        inputs.push(correct(
            config.name().to_owned(),
            Design::Dlx(config, None),
            solver,
        ));
        let config = VliwConfig::base();
        inputs.push(correct(
            vliw_name(config),
            Design::Vliw(config, None),
            solver,
        ));
    }
    inputs
}

/// The known-defect probe: the correct OOO-4, OOO-5 and OOO-6 with chaff.
///
/// `Verifier::check` on the default eager *e*ij translation reports a
/// counterexample on each of them, while the certified route proves them
/// correct: the eager triangulation is not transitivity-complete.  Every
/// run decides them once, untimed and outside the gated passes, and reports
/// each wrong verdict by name, so the defect shows until it is fixed.
pub fn known_defect_probe() -> Vec<Input> {
    (4..=6)
        .map(|width| {
            correct(
                format!("OOO-{width}"),
                Design::Ooo(width),
                SolverKind::Chaff,
            )
        })
        .collect()
}

/// The untimed verdict every set-up makes: 1xDLX-C with chaff.
pub fn warm_up() -> Input {
    let config = DlxConfig::single_issue();
    correct(
        config.name().to_owned(),
        Design::Dlx(config, None),
        SolverKind::Chaff,
    )
}

/// The certify workload: correct designs whose proofs the checker replays;
/// 1xDLX-C with both CDCL presets and the out-of-order cores first, then
/// 2xDLX-CC-MC-EX-BP with berkmin and a 5-slot VLIW with both presets.
///
/// The median of the eight verdict times averages the two 1xDLX-C proofs,
/// which damps the run-to-run noise of a single small proof.
pub fn certify() -> Vec<Input> {
    let dlx1 = DlxConfig::single_issue();
    let dlx2 = DlxConfig::dual_issue_full();
    let vliw5 = VliwConfig::with_slots(5);
    let mut inputs = Vec::new();
    for solver in [SolverKind::Chaff, SolverKind::BerkMin] {
        inputs.push(correct(
            dlx1.name().to_owned(),
            Design::Dlx(dlx1, None),
            solver,
        ));
    }
    for width in 4..=6 {
        inputs.push(correct(
            format!("OOO-{width}"),
            Design::Ooo(width),
            SolverKind::Chaff,
        ));
    }
    inputs.push(correct(
        dlx2.name().to_owned(),
        Design::Dlx(dlx2, None),
        SolverKind::BerkMin,
    ));
    for solver in [SolverKind::Chaff, SolverKind::BerkMin] {
        inputs.push(correct(vliw_name(vliw5), Design::Vliw(vliw5, None), solver));
    }
    inputs
}

/// The bug-hunt workload: a share of every bug class of the four
/// superscalar and VLIW catalogs, genuine bugs only, drawn with `seed`.
pub fn bug_hunt(seed: u64) -> Vec<Input> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let catalogs = [
        (dlx_catalog(DlxConfig::dual_issue()), BUG_HUNT_DLX_FRACTION),
        (
            dlx_catalog(DlxConfig::dual_issue_full()),
            BUG_HUNT_DLX_FRACTION,
        ),
        (vliw_catalog(VliwConfig::base()), BUG_HUNT_VLIW_FRACTION),
        (
            vliw_catalog(VliwConfig::with_exceptions()),
            BUG_HUNT_VLIW_FRACTION,
        ),
    ];
    let mut inputs = Vec::new();
    for (catalog, fraction) in &catalogs {
        for (index, design) in catalog.draw(&mut rng, *fraction) {
            inputs.push(Input {
                name: format!("{}/bug{index}/chaff", catalog.name),
                design,
                solver: SolverKind::Chaff,
            });
        }
    }
    inputs
}

/// One submission of the serve-mix workload.
#[derive(Clone, Debug)]
pub struct Submission {
    /// The job as sent over the wire.
    pub spec: JobSpec,
    /// The known answer.
    pub expected: Expected,
    /// Whether an earlier submission of the pass carried the same job.
    pub repeat: bool,
}

/// One step of the serve-mix loop.
#[derive(Clone, Debug)]
pub enum Step {
    /// One client submits, the other skips the step.
    Single {
        /// The submitting client (0 or 1).
        client: usize,
        /// What it submits.
        submission: Submission,
    },
    /// Both clients submit the same job at once.
    Both(Submission),
}

impl Step {
    /// Submissions the step makes.
    pub fn submissions(&self) -> usize {
        match self {
            Step::Single { .. } => 1,
            Step::Both(_) => 2,
        }
    }
}

/// Submissions of one serve-mix pass, at least.
const SERVE_SUBMISSIONS: usize = 240;
/// Share of steps that repeat an earlier job while fresh jobs remain; once
/// all are sent, the pass tops up to `SERVE_SUBMISSIONS` with repeats.  With
/// the jobs both clients send at once, about 40% of the submissions are then
/// cache reads or dedup joins, so the median latency lies inside the
/// fresh-job mode, whose solve times hold steady, rather than among the
/// millisecond cache reads, whose latency is scheduling noise.
const SERVE_REPEAT_SHARE: f64 = 0.2;
/// Share of fresh jobs both clients submit at once.
const SERVE_BOTH_SHARE: f64 = 0.1;

/// The wire reference of a catalog design.
fn model_ref(index: usize, design: Design) -> ModelRef {
    match design {
        Design::Dlx(config, _) => ModelRef::Dlx {
            config: if config == DlxConfig::dual_issue() {
                DlxVariant::Dual
            } else {
                DlxVariant::DualFull
            },
            bug: Some(index),
        },
        Design::Vliw(config, _) => ModelRef::Vliw {
            exceptions: config.exceptions,
            bug: Some(index),
        },
        Design::Ooo(width) => ModelRef::Ooo { width },
    }
}

/// The serve-mix workload: at least `SERVE_SUBMISSIONS` seeded submissions
/// for two clients.  The fresh jobs, in seeded order, are the distinct
/// genuine bugs of the four superscalar and VLIW catalogs plus the small
/// correct designs 1xDLX-C, OOO-2 and OOO-3; every one of them is sent.
/// Some steps repeat an earlier job, and some fresh jobs are sent by both
/// clients at once.  OOO-4 is left to [`known_defect_probe`].
pub fn serve_mix(seed: u64) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fresh: Vec<(ModelRef, Expected)> = Vec::new();
    for catalog in [
        dlx_catalog(DlxConfig::dual_issue()),
        dlx_catalog(DlxConfig::dual_issue_full()),
        vliw_catalog(VliwConfig::base()),
        vliw_catalog(VliwConfig::with_exceptions()),
    ] {
        for (index, design) in catalog.distinct().classes.into_iter().flatten() {
            fresh.push((model_ref(index, design), Expected::Buggy));
        }
    }
    fresh.push((ModelRef::dlx1_correct(), Expected::Correct));
    for width in 2..=3 {
        fresh.push((ModelRef::Ooo { width }, Expected::Correct));
    }
    let mut next = draw(&mut rng, &fresh, fresh.len()).into_iter().peekable();

    let mut steps = Vec::new();
    let mut sent: Vec<(ModelRef, Expected)> = Vec::new();
    let mut submissions = 0;
    while submissions < SERVE_SUBMISSIONS || next.peek().is_some() {
        let repeat = next.peek().is_none() || rng.gen_bool(SERVE_REPEAT_SHARE);
        let step = match next.next_if(|_| sent.is_empty() || !repeat) {
            Some((model, expected)) => {
                sent.push((model, expected));
                let submission = Submission {
                    spec: JobSpec::new(model),
                    expected,
                    repeat: false,
                };
                if rng.gen_bool(SERVE_BOTH_SHARE) {
                    Step::Both(submission)
                } else {
                    Step::Single {
                        client: rng.gen_range(0..2),
                        submission,
                    }
                }
            }
            None => {
                let (model, expected) = sent[rng.gen_range(0..sent.len())];
                Step::Single {
                    client: rng.gen_range(0..2),
                    submission: Submission {
                        spec: JobSpec::new(model),
                        expected,
                        repeat: true,
                    },
                }
            }
        };
        submissions += step.submissions();
        steps.push(step);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Catalog indices of the inert entries of a VLIW configuration.
    fn inert_vliw_indices(config: VliwConfig) -> Vec<usize> {
        vliw::bug_catalog(config)
            .into_iter()
            .enumerate()
            .filter(|&(_, bug)| vliw_bug_is_inert(config, bug))
            .map(|(index, _)| index)
            .collect()
    }

    #[test]
    fn design_json_records_the_inert_entries() {
        let design = include_str!("../design.json");
        for (config, count) in [
            (VliwConfig::base(), 20),
            (VliwConfig::with_exceptions(), 21),
        ] {
            let indices = inert_vliw_indices(config);
            assert_eq!(indices.len(), count);
            let entry = format!(
                "\"{}\": {{\"count\": {count}, \"indices\": {indices:?}}}",
                vliw_name(config)
            );
            assert!(design.contains(&entry), "design.json lacks {entry}");
        }
    }

    #[test]
    fn draws_repeat_with_the_seed_and_skip_inert_bugs() {
        let names = |seed| {
            bug_hunt(seed)
                .into_iter()
                .map(|i| i.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
        for input in bug_hunt(7) {
            assert_eq!(input.design.expected(), Expected::Buggy);
            if let Design::Vliw(config, Some(bug)) = input.design {
                assert!(!vliw_bug_is_inert(config, bug), "{}", input.name);
            }
        }
    }

    #[test]
    fn serve_mix_repeats_and_joins() {
        let steps = serve_mix(DEFAULT_SEED);
        let total: usize = steps.iter().map(Step::submissions).sum();
        let repeats = steps
            .iter()
            .filter(|s| matches!(s, Step::Single { submission, .. } if submission.repeat))
            .count();
        assert!((SERVE_SUBMISSIONS..SERVE_SUBMISSIONS * 5 / 4).contains(&total));
        assert!(
            repeats * 4 > total && repeats * 2 < total,
            "{repeats} of {total}"
        );
        assert!(steps.iter().any(|s| matches!(s, Step::Both(_))));
    }
}
