//! The paper ledger: every table and figure of the paper as data.
//!
//! A cell is one measured verification: a design (correct, or one bug of its
//! catalog) and a `Run` — the back end, the per-solve time limit, the
//! monolithic criterion or `N` weak criteria, and the translation options.
//! The runner measures each distinct cell once, so a cell several tables
//! share runs once.  Each experiment lists its rows of cells, its columns
//! and its claims.
//!
//! A claim is `exact` when it rests only on verdicts and formula sizes,
//! which repeat run to run; `satbench` fails when one of those is false.
//! `timing` claims compare wall-clock times, which vary about 10% between
//! runs on one host, so they are recorded but never gate.  Every time
//! column says whether it is translation plus solve (`t+s`) or the solve
//! alone.  Absolute times are not comparable to the paper's 336 MHz Sun4:
//! the designs here are scaled down and the machine is different.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use velv_core::{Backend, Translation, TranslationOptions as Options, Verdict, Verifier};
use velv_hdl::Processor;
use velv_models::dlx::{self, Dlx, DlxBug, DlxConfig, DlxSpecification};
use velv_models::ooo::{Ooo, OooSpecification};
use velv_models::vliw::{self, Vliw, VliwBug, VliwConfig, VliwSpecification};
use velv_obs::json::escape;
use velv_sat::presets::{chaff_parameter_variations, SolverKind};
use velv_sat::Budget;
use Kind::{Exact, Timing};
use SolverKind::{BerkMin, Chaff};

fn full() -> bool {
    std::env::var("VELV_FULL").is_ok_and(|v| v == "1")
}

/// Number of buggy variants to run per suite (scaled down unless `VELV_FULL=1`).
fn suite_size(full_size: usize) -> usize {
    if full() {
        full_size
    } else {
        full_size.min(12)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Design {
    Dlx(DlxConfig, Option<DlxBug>),
    Vliw(VliwConfig, Option<VliwBug>),
    /// The correct out-of-order core of this issue width.
    Ooo(usize),
}

impl Design {
    fn label(&self) -> String {
        let (name, bug) = match self {
            Design::Dlx(config, bug) => (config.name(), bug.map(|b| format!("{b:?}"))),
            Design::Vliw(config, bug) => (config.name(), bug.map(|b| format!("{b:?}"))),
            Design::Ooo(width) => return format!("OOO-{width}"),
        };
        format!("{name} {}", bug.as_deref().unwrap_or("correct"))
    }

    fn processors(&self) -> (Box<dyn Processor>, Box<dyn Processor>) {
        match *self {
            Design::Dlx(config, bug) => (
                Box::new(bug.map_or(Dlx::correct(config), |b| Dlx::buggy(config, b))),
                Box::new(DlxSpecification::new(config)),
            ),
            Design::Vliw(config, bug) => (
                Box::new(bug.map_or(Vliw::correct(config), |b| Vliw::buggy(config, b))),
                Box::new(VliwSpecification::new(config)),
            ),
            Design::Ooo(width) => (Box::new(Ooo::new(width)), Box::new(OooSpecification::new())),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Engine {
    Sat(SolverKind),
    /// Entry `i` of [`chaff_parameter_variations`]; entry 0 is plain Chaff,
    /// so it is `Sat(Chaff)` and shares that cell.
    ChaffVariant(usize),
    /// BDDs at a node limit.
    Bdd(usize),
    /// The race of [`PORTFOLIO`].
    Portfolio,
}

const PORTFOLIO: [Backend; 5] = [
    Backend::Sat(Chaff),
    Backend::Sat(BerkMin),
    Backend::Sat(SolverKind::Grasp),
    Backend::Sat(SolverKind::Sato),
    Backend::Bdd {
        node_limit: 200_000,
    },
];

/// How a design is verified: everything of a cell but the design.
#[derive(Clone, Debug)]
struct Run {
    engine: Engine,
    /// Per-solve time limit in seconds; `None` is unlimited.
    limit: Option<u64>,
    /// 1 for the monolithic criterion, else at most this many weak criteria
    /// (plus the coverage obligation), each solved on its own.
    split: usize,
    options: Options,
}

fn on(engine: Engine, limit: Option<u64>) -> Run {
    let (split, options) = (1, Options::base());
    Run {
        engine,
        limit,
        split,
        options,
    }
}

fn sat(kind: SolverKind, limit: Option<u64>) -> Run {
    on(Engine::Sat(kind), limit)
}

impl Run {
    fn split(self, split: usize) -> Run {
        Run { split, ..self }
    }

    fn options(self, options: Options) -> Run {
        Run { options, ..self }
    }

    fn solve(&self, translation: &Translation) -> (Verdict, Option<String>) {
        let verifier = Verifier::new(self.options.clone());
        let limit = self.limit.map(Duration::from_secs);
        let budget = limit.map_or(Budget::unlimited(), Budget::time_limit);
        let verdict = match self.engine {
            Engine::Sat(kind) => verifier.check(translation, kind.build().as_mut(), budget),
            Engine::ChaffVariant(i) => {
                let mut solver = chaff_parameter_variations().swap_remove(i);
                verifier.check(translation, solver.as_mut(), budget)
            }
            Engine::Bdd(node_limit) => {
                verifier.check_with_backend(translation, &Backend::Bdd { node_limit }, budget)
            }
            Engine::Portfolio => {
                let race = verifier.check_portfolio(translation, &PORTFOLIO, budget);
                return (race.verdict, race.winner);
            }
        };
        (verdict, None)
    }
}

type Cell = (Design, Run);

/// The memo key: cells with equal keys are one measurement.
fn key((design, run): &Cell) -> String {
    let (label, options) = (design.label(), run.options.canonical_token());
    let limit = run.limit.map_or("unlimited".into(), |s| format!("{s}s"));
    format!(
        "{label}|{options}|split={}|{:?}|{limit}",
        run.split, run.engine
    )
}

fn translate((design, run): &Cell) -> Vec<Translation> {
    let verifier = Verifier::new(run.options.clone());
    let (implementation, specification) = design.processors();
    let problem = verifier.build_problem(implementation.as_ref(), specification.as_ref());
    if run.split == 1 {
        vec![verifier.translate_problem(&problem)]
    } else {
        verifier.translate_obligations(&problem, run.split)
    }
}

/// What one cell measured.  Over weak criteria the verdict is `buggy` when
/// any obligation is falsified and `correct` when all are proven, and the
/// sizes are the largest obligation's.
#[derive(Clone, Debug, Default)]
struct Outcome {
    verdict: &'static str,
    translate_s: f64,
    /// Summed over the obligations.
    solve_s: f64,
    /// The fastest falsified obligation's solve time — the detection time
    /// of obligations run in parallel; when none is falsified, the time
    /// limit, or `solve_s` without one.
    detect_s: f64,
    longest_s: f64,
    obligations: usize,
    primary_vars: usize,
    cnf_vars: usize,
    cnf_clauses: usize,
    winner: Option<String>,
}

impl Outcome {
    fn total_s(&self) -> f64 {
        self.translate_s + self.solve_s
    }

    fn buggy(&self) -> bool {
        self.verdict == "buggy"
    }

    fn correct(&self) -> bool {
        self.verdict == "correct"
    }
}

/// Measures every distinct cell once, returning the outcomes by [`key`].
fn run_cells(cells: &[Cell]) -> BTreeMap<String, Outcome> {
    let mut outcomes = BTreeMap::new();
    for cell in cells {
        let k = key(cell);
        if outcomes.contains_key(&k) {
            continue;
        }
        let start = Instant::now();
        let translations = translate(cell);
        let mut o = Outcome {
            translate_s: start.elapsed().as_secs_f64(),
            obligations: translations.len(),
            ..Outcome::default()
        };
        let (mut all_correct, mut first_bug) = (true, None::<f64>);
        for translation in &translations {
            let stats = &translation.stats;
            o.primary_vars = o.primary_vars.max(stats.primary_bool_vars);
            o.cnf_vars = o.cnf_vars.max(stats.cnf_vars);
            o.cnf_clauses = o.cnf_clauses.max(stats.cnf_clauses);
            let start = Instant::now();
            let (verdict, winner) = cell.1.solve(translation);
            let solve_s = start.elapsed().as_secs_f64();
            o.solve_s += solve_s;
            o.longest_s = o.longest_s.max(solve_s);
            o.winner = winner;
            all_correct &= verdict.is_correct();
            if verdict.is_buggy() {
                first_bug = Some(first_bug.map_or(solve_s, |t| t.min(solve_s)));
            }
        }
        o.verdict = match (first_bug, all_correct) {
            (Some(_), _) => "buggy",
            (None, true) => "correct",
            (None, false) => "unknown",
        };
        let limit = cell.1.limit.map(|s| s as f64);
        o.detect_s = first_bug.or(limit).unwrap_or(o.solve_s);
        let (v, t, s) = (o.verdict, o.translate_s, o.solve_s);
        println!("  {k} {v} {t:.3}+{s:.3} s");
        outcomes.insert(k, o);
    }
    outcomes
}

/// A row: its label and the cells its values read, in order.
type Row = (String, Vec<Cell>);

/// One row per labelled group of runs, each run over every design in turn.
fn by_run(designs: &[Design], groups: Vec<(String, Vec<Run>)>) -> Vec<Row> {
    let cells = |runs: Vec<Run>| {
        let pair = |d: &Design| runs.iter().map(|r| (*d, r.clone())).collect::<Vec<_>>();
        designs.iter().flat_map(pair).collect()
    };
    let groups = groups.into_iter();
    groups.map(|(label, runs)| (label, cells(runs))).collect()
}

/// One row per design, one cell per run.
fn by_design(designs: Vec<Design>, runs: &[Run]) -> Vec<Row> {
    let row = |d: Design| (d.label(), runs.iter().map(|r| (d, r.clone())).collect());
    designs.into_iter().map(row).collect()
}

fn secs(t: f64) -> String {
    format!("{t:.3}")
}

/// The outcomes of each row's cells, by row.
type Outcomes<'a> = [Vec<&'a Outcome>];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Exact,
    Timing,
}

/// A claim of the paper, printed after `[PASS ]` or `[CHECK]`, and whether
/// it holds on the measured outcomes.
struct Claim(&'static str, Kind, fn(&Outcomes<'_>) -> bool);

struct Experiment {
    id: &'static str,
    title: &'static str,
    /// What the paper reports.
    paper: &'static str,
    /// Headers of the columns after the row label.
    columns: &'static [&'static str],
    /// The rows at the smoke or the default scale.
    rows: fn(smoke: bool) -> Vec<Row>,
    /// The values of row `i` from its cells' outcomes.
    values: fn(i: usize, cells: &[&Outcome]) -> Vec<String>,
    claims: &'static [Claim],
}

/// Min, max and mean of a suite's times; zeros for an empty suite.
fn summarize(secs: &[f64]) -> [f64; 3] {
    if secs.is_empty() {
        return [0.0; 3];
    }
    let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = secs.iter().cloned().fold(0.0, f64::max);
    [min, max, secs.iter().sum::<f64>() / secs.len() as f64]
}

/// A PASS/CHECK line on a qualitative expectation.
fn shape_check(description: &str, holds: bool) -> String {
    let status = if holds { "PASS " } else { "CHECK" };
    format!("[{status}] {description}")
}

/// The first catalog bugs, or in the smoke cells the two at `picks`.
fn suite<B: Copy>(catalog: Vec<B>, smoke: bool, picks: [usize; 2]) -> Vec<B> {
    if smoke {
        return picks.map(|i| catalog[i]).to_vec();
    }
    catalog.into_iter().take(suite_size(100)).collect()
}

/// The smoke picks are bugs that every CDCL preset decides well within the
/// time limit, so no smoke cell waits it out.
fn dlx2_suite(smoke: bool) -> Vec<Design> {
    let config = DlxConfig::dual_issue_full();
    let bugs = suite(dlx::bug_catalog(config), smoke, [2, 11]).into_iter();
    bugs.map(|b| Design::Dlx(config, Some(b))).collect()
}

fn vliw_suite(smoke: bool) -> Vec<Design> {
    let config = VliwConfig::base();
    let bugs = suite(vliw::bug_catalog(config), smoke, [0, 1]).into_iter();
    bugs.map(|b| Design::Vliw(config, Some(b))).collect()
}

fn encodings() -> [(&'static str, Options); 2] {
    let small_domain = Options::base().with_small_domain();
    [("eij", Options::base()), ("small-domain", small_domain)]
}

/// Chaff eij, Chaff small-domain, BerkMin eij, BerkMin small-domain.
fn ooo_rows(max_width: usize) -> Vec<Row> {
    let runs = [Chaff, BerkMin].map(|k| encodings().map(|(_, o)| sat(k, None).options(o)));
    let widths = (2..=max_width).map(Design::Ooo);
    by_design(widths.collect(), runs.as_flattened())
}

/// Min/max/mean over the suite, where a design's time is the smallest `read`
/// over its `group` consecutive cells (variations run in parallel).
fn suite_summary(cells: &[&Outcome], group: usize, read: fn(&Outcome) -> f64) -> [f64; 3] {
    let fastest = |g: &[&Outcome]| g.iter().map(|o| read(o)).fold(f64::INFINITY, f64::min);
    summarize(&cells.chunks(group).map(fastest).collect::<Vec<_>>())
}

fn mean(cells: &[&Outcome], group: usize, read: fn(&Outcome) -> f64) -> f64 {
    suite_summary(cells, group, read)[2]
}

fn each(cells: &[&Outcome], read: fn(&Outcome) -> f64) -> Vec<String> {
    cells.iter().map(|o| secs(read(o))).collect()
}

/// Rows whose cell `i` found a bug.
fn found(outcomes: &Outcomes<'_>, i: usize) -> usize {
    outcomes.iter().filter(|cells| cells[i].buggy()).count()
}

/// Cells that found a bug.
fn found_in(cells: &[&Outcome]) -> usize {
    cells.iter().filter(|o| o.buggy()).count()
}

fn all_correct(outcomes: &Outcomes<'_>) -> bool {
    outcomes.iter().flatten().all(|o| o.correct())
}

/// Best and median solve time of the single engines (every cell but the
/// last, the race) that found the bug.
fn best_and_median(cells: &[&Outcome]) -> [Option<f64>; 2] {
    let singles = cells[..cells.len() - 1].iter().filter(|o| o.buggy());
    let mut decided: Vec<f64> = singles.map(|o| o.solve_s).collect();
    decided.sort_by(f64::total_cmp);
    [decided.first(), decided.get(decided.len() / 2)].map(Option::<&f64>::copied)
}

/// Races decided, and races at most 50 ms slower than the median single
/// engine.
fn portfolio_totals(outcomes: &Outcomes<'_>) -> (usize, usize) {
    let decided = outcomes.iter().filter(|c| c[c.len() - 1].buggy());
    let beats_median = decided.clone().filter(|cells| {
        let race = cells[cells.len() - 1].solve_s;
        best_and_median(cells)[1].is_some_and(|m| race <= m + 0.05)
    });
    (decided.count(), beats_median.count())
}

/// Every experiment of the paper.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1 — SAT procedures on buggy 2xDLX-CC-MC-EX-BP",
        paper: "paper: Chaff 100%/100%/100%, BerkMin 97/100/100, DLM-3 51/82/98, GRASP 14/21/24, BDDs 2/2/3 (limits 24/240/2400 s); here each cell runs once at 25 s and its solve time is bucketed",
        columns: &["<0.25s solve", "<2.5s solve", "<25s solve"],
        rows: |smoke| {
            // DPLL and local search wait out the limit on every design.
            let (cdcl, slow) = SolverKind::all().split_at(4);
            let slow = if smoke { &[] } else { slow };
            let row = |&k: &SolverKind| (k.label().to_owned(), vec![sat(k, Some(25))]);
            let bdds = on(Engine::Bdd(200_000), Some(25));
            let bdds = ("BDDs (CUDD analogue, 200k nodes)".to_owned(), vec![bdds]);
            let rows = cdcl.iter().map(row).chain([bdds]).chain(slow.iter().map(row));
            by_run(&dlx2_suite(smoke), rows.collect())
        },
        values: |_, o| {
            let solved = |limit| o.iter().filter(|o| o.buggy() && o.solve_s < limit).count();
            let pct = |limit| format!("{:.0}%", 100.0 * solved(limit) as f64 / o.len().max(1) as f64);
            [0.25, 2.5, 25.0].map(pct).to_vec()
        },
        claims: &[
            Claim("Chaff-class CDCL solves the whole suite within the largest limit", Exact, |o| {
                found_in(&o[0]) == o[0].len()
            }),
            // Row 4 is BDDs, and row 5, which the smoke rows leave out, DPLL.
            Claim("non-learning DPLL and BDDs solve strictly fewer instances than CDCL", Exact, |o| {
                [o.get(4), o.get(5)].into_iter().flatten().all(|r| found_in(r) <= found_in(&o[0]))
            }),
        ],
    },
    Experiment {
        id: "table2",
        title: "Table 2 — structural and parameter variations on buggy 9VLIW-MC-BP",
        paper: "paper: base Chaff max 180.4s avg 32.5s; 4 structural runs max 74.9s avg 14.4s; 4 parameter runs max 176.8s avg 15.0s",
        columns: &["max (s)", "avg (s)"],
        rows: |smoke| {
            let chaff = sat(Chaff, Some(30));
            let variations = Options::structural_variations().into_iter();
            let structural = variations.map(|(_, o)| chaff.clone().options(o)).collect();
            let variants = (1..4).map(|i| on(Engine::ChaffVariant(i), Some(30)));
            let parameters = [chaff.clone()].into_iter().chain(variants).collect();
            let groups = vec![
                ("base (1 run, t+s)".to_owned(), vec![chaff]),
                ("base,ER,AC,ER+AC (4 runs, min, t+s)".to_owned(), structural),
                ("base + 3 parameter variations (min, solve)".to_owned(), parameters),
            ];
            by_run(&vliw_suite(smoke), groups)
        },
        values: |i, o| {
            let read: fn(&Outcome) -> f64 = if i == 2 { |o| o.solve_s } else { Outcome::total_s };
            suite_summary(o, if i == 0 { 1 } else { 4 }, read)[1..].iter().map(|&t| secs(t)).collect()
        },
        claims: &[
            Claim("parallel structural variations do not increase the average detection time", Timing, |o| {
                mean(&o[1], 4, Outcome::total_s) <= mean(&o[0], 1, Outcome::total_s) * 1.05
            }),
            Claim("parallel parameter variations do not increase the average detection time", Timing, |o| {
                mean(&o[2], 4, |o| o.solve_s) <= mean(&o[0], 1, Outcome::total_s) * 1.05
            }),
        ],
    },
    Experiment {
        id: "table3",
        title: "Table 3 — eij vs small-domain on buggy 9VLIW-MC-BP",
        paper: "paper (1 run): Chaff eij max 180.4 avg 32.5 | small-domain max 594.0 avg 100.4; BerkMin eij 151.4/43.6 | small-domain 245.0/85.0",
        columns: &["max t+s (s)", "avg t+s (s)"],
        rows: |smoke| {
            let group = |k, (name, o)| (format!("{k:?} {name}"), vec![sat(k, Some(30)).options(o)]);
            let groups = [Chaff, BerkMin].into_iter().flat_map(|k| encodings().map(|e| group(k, e)));
            by_run(&vliw_suite(smoke), groups.collect())
        },
        values: |_, o| suite_summary(o, 1, Outcome::total_s)[1..].iter().map(|&t| secs(t)).collect(),
        claims: &[Claim(
            "the eij encoding detects bugs at least as fast as the small-domain encoding (average, Chaff)",
            Timing,
            |o| mean(&o[0], 1, Outcome::total_s) <= mean(&o[1], 1, Outcome::total_s) * 1.1,
        )],
    },
    Experiment {
        id: "table4",
        title: "Table 4 — encoding statistics for out-of-order superscalar designs",
        paper: "paper: eij uses more primary Boolean variables but fewer CNF variables/clauses than small-domain; both grow steeply with issue width",
        columns: &["eij prim", "cnf vars", "clauses", "sd prim", "cnf vars", "clauses"],
        rows: |smoke| ooo_rows(if smoke { 3 } else { 6 }),
        values: |_, o| {
            let sizes = |o: &&Outcome| [o.primary_vars, o.cnf_vars, o.cnf_clauses].map(|n| n.to_string());
            o[..2].iter().flat_map(sizes).collect()
        },
        claims: &[Claim(
            "the eij encoding uses at least as many primary Boolean variables as small-domain",
            Exact,
            |o| o.iter().all(|c| c[0].primary_vars >= c[1].primary_vars),
        )],
    },
    Experiment {
        id: "table5",
        title: "Table 5 — proving the out-of-order designs unsatisfiable",
        paper: "paper: times grow steeply with width; eij beats small-domain; e.g. width 6: Chaff 68,896s vs 132,428s; the out-of-order model here is far smaller and proves in milliseconds",
        columns: &["Chaff eij solve (s)", "Chaff sd solve (s)", "BerkMin eij solve (s)", "BerkMin sd solve (s)"],
        rows: |smoke| ooo_rows(if smoke { 3 } else if full() { 6 } else { 5 }),
        values: |_, o| each(o, |o| o.solve_s),
        claims: &[
            Claim("every out-of-order design is proven correct (UNSAT)", Exact, all_correct),
            Claim("the eij encoding is not substantially slower than small-domain (Chaff)", Timing, |o| {
                o.iter().all(|c| c[0].solve_s <= c[1].solve_s * 1.5)
            }),
        ],
    },
    Experiment {
        id: "table6",
        title: "Table 6 — decomposition on buggy 9VLIW-MC-BP (Chaff)",
        paper: "paper: 1 run min 3.7 max 180.4 avg 32.5; 8 runs 0.3/31.3/4.1; 16 runs 0.2/17.5/2.8",
        columns: &["min (s)", "max (s)", "avg (s)"],
        rows: |smoke| {
            let label = |n| match n {
                1 => "1 weak criterion (t+s)".to_owned(),
                n => format!("{n} weak criteria (first bug, solve)"),
            };
            let groups = [1, 8, 16].map(|n| (label(n), vec![sat(Chaff, Some(30)).split(n)]));
            by_run(&vliw_suite(smoke), groups.to_vec())
        },
        values: |i, o| {
            let read = if i == 0 { Outcome::total_s } else { |o: &Outcome| o.detect_s };
            suite_summary(o, 1, read).map(secs).to_vec()
        },
        claims: &[Claim("decomposition reduces the average bug-detection time", Timing, |o| {
            mean(&o[2], 1, |o| o.detect_s) <= mean(&o[0], 1, Outcome::total_s) * 1.05
        })],
    },
    Experiment {
        id: "table7",
        title: "Table 7 — four design bugs of 9VLIW-MC-BP-EX, monolithic vs decomposed",
        paper: "paper: Chaff detects them in 12.2–108.4 s monolithically; ~20 weak criteria reduce the times roughly 2x",
        columns: &["monolithic solve (s)", "20 criteria first-bug solve (s)", "primary vars"],
        rows: |smoke| {
            let bugs = [
                VliwBug::EpcNotSaved,
                VliwBug::ExceptionIgnoredByWrite { slot: 0 },
                VliwBug::CfmUpdatedSpeculatively,
                VliwBug::NoSquashOnMispredict,
            ];
            let bugs = &bugs[if smoke { 2 } else { 0 }..];
            let designs = bugs.iter().map(|&b| Design::Vliw(VliwConfig::with_exceptions(), Some(b)));
            by_design(designs.collect(), &[sat(Chaff, Some(60)), sat(Chaff, Some(60)).split(20)])
        },
        values: |_, o| vec![secs(o[0].solve_s), secs(o[1].detect_s), o[0].primary_vars.to_string()],
        claims: &[Claim("all four design bugs are detected", Exact, |o| found(o, 0) == o.len())],
    },
    Experiment {
        id: "table8",
        title: "Table 8 — decomposition on the correct 9VLIW-MC-BP and 9VLIW-MC-BP-EX",
        paper: "paper: 9VLIW-MC-BP Chaff 759s -> 349s (8 runs) -> 264s (16); BerkMin 224 -> 134 -> 63; EX variant similar with 11/22 runs",
        columns: &["total t+s (s)", "longest solve (s)", "obligations", "max primary vars", "all proven"],
        rows: |smoke| {
            let proofs = |config: VliwConfig, splits: &[usize]| {
                let label = |n| format!("{}, {n} weak criteria", config.name());
                let groups = splits.iter().map(|&n| (label(n), vec![sat(Chaff, None).split(n)]));
                by_run(&[Design::Vliw(config, None)], groups.collect())
            };
            if smoke {
                return proofs(VliwConfig::base(), &[16]);
            }
            let mut rows = proofs(VliwConfig::base(), &[1, 8, 16]);
            rows.extend(proofs(VliwConfig::with_exceptions(), &[1, 11, 22]));
            rows
        },
        values: |_, o| {
            let o = o[0];
            let counts = [o.obligations, o.primary_vars].map(|n| n.to_string());
            [secs(o.total_s()), secs(o.longest_s)].into_iter().chain(counts).chain([o.correct().to_string()]).collect()
        },
        // Rows 0-2 are 9VLIW-MC-BP and rows 3-5, left out of the smoke rows,
        // 9VLIW-MC-BP-EX.
        claims: &[
            Claim("9VLIW-MC-BP: every weak criterion of the correct design is proven", Exact, |o| {
                o.iter().take(3).all(|cells| cells[0].correct())
            }),
            Claim("9VLIW-MC-BP-EX: every weak criterion of the correct design is proven", Exact, |o| {
                o.iter().skip(3).all(|cells| cells[0].correct())
            }),
        ],
    },
    Experiment {
        id: "table9",
        title: "Table 9 — with and without positive equality (Chaff)",
        paper: "paper: 1xDLX-C 0.19s vs 9177s; 2xDLX-CC-MC-EX-BP 22s vs >24h; 9VLIW-MC-BP 759s vs out of memory",
        columns: &["pos.eq. t+s (s)", "no pos.eq. t+s (s)"],
        rows: |smoke| {
            let dlx = |c| [None, Some(dlx::bug_catalog(c)[0])].map(|b| Design::Dlx(c, b));
            let vliw = |c| [None, Some(vliw::bug_catalog(c)[0])].map(|b| Design::Vliw(c, b));
            let mut designs = dlx(DlxConfig::single_issue()).to_vec();
            if !smoke {
                designs.extend(dlx(DlxConfig::dual_issue_full()));
                designs.extend(vliw(VliwConfig::base()));
            }
            let without = Options::base().without_positive_equality();
            by_design(designs, &[sat(Chaff, Some(60)), sat(Chaff, Some(60)).options(without)])
        },
        values: |_, o| each(o, Outcome::total_s),
        claims: &[
            Claim("every benchmark is decided with positive equality enabled", Exact, |o| {
                o.iter().all(|cells| cells[0].buggy() || cells[0].correct())
            }),
            Claim("disabling positive equality never speeds things up", Timing, |o| {
                o.iter().all(|c| c[1].total_s() >= c[0].total_s() * 0.8)
            }),
        ],
    },
    Experiment {
        id: "fig7",
        title: "Fig. 7 — Chaff (1 monolithic run) vs BDDs (decomposed, 16 runs) on buggy 9VLIW-MC-BP",
        paper: "paper: the difference is up to four orders of magnitude in favour of Chaff",
        columns: &["chaff t+s (s)", "bdd-16 first-bug solve (s)", "bdd found"],
        rows: |smoke| {
            let bdds = on(Engine::Bdd(300_000), None).split(16);
            by_design(vliw_suite(smoke), &[sat(Chaff, Some(30)), bdds])
        },
        values: |_, o| vec![secs(o[0].total_s()), secs(o[1].detect_s), o[1].buggy().to_string()],
        claims: &[
            Claim("Chaff finds every bug of the suite", Exact, |o| found(o, 0) == o.len()),
            Claim(
                "the SAT back end dominates the BDD back end (more bugs found or less total time)",
                Timing,
                |o| {
                    let chaff_s: f64 = o.iter().map(|c| c[0].total_s()).sum();
                    let bdd_s: f64 = o.iter().map(|c| c[1].detect_s).sum();
                    let (chaff, bdd) = (found(o, 0), found(o, 1));
                    chaff >= bdd && (bdd < o.len() || chaff_s <= bdd_s)
                },
            ),
        ],
    },
    Experiment {
        id: "fig10",
        title: "Fig. 10 — per-benchmark eij vs small-domain times (BerkMin)",
        paper: "paper: the eij encoding is faster on 87 of the 100 buggy VLIW designs",
        columns: &["eij t+s (s)", "small-dom t+s (s)"],
        rows: |smoke| {
            let runs = encodings().map(|(_, o)| sat(BerkMin, Some(30)).options(o));
            by_design(vliw_suite(smoke), &runs)
        },
        values: |_, o| each(o, Outcome::total_s),
        claims: &[Claim("the eij encoding is faster on the majority of the buggy designs", Timing, |o| {
            o.iter().filter(|c| c[0].total_s() <= c[1].total_s()).count() * 2 >= o.len()
        })],
    },
    Experiment {
        id: "approx",
        title: "Section 8 — conservative approximations on the correct 9VLIW-MC-BP-EX",
        paper: "paper: without the approximations Chaff needs 914s vs 660s with them — an insignificant overhead compared with analysing false negatives",
        columns: &["chaff solve (s)", "verdict", "cnf vars"],
        rows: |smoke| {
            let boxes = vec!["pc".to_owned(), "cfm".to_owned()];
            let alat = vec!["alat".to_owned()];
            let configurations = [
                ("no approximations", Options::base()),
                ("translation boxes on PC and CFM", Options { translation_boxes: boxes, ..Options::base() }),
                ("ALAT abstracted automatically", Options { abstract_memories: alat, ..Options::base() }),
            ];
            let groups = configurations.into_iter().take(if smoke { 1 } else { 3 });
            let groups = groups.map(|(name, o)| (name.to_owned(), vec![sat(Chaff, None).options(o)]));
            by_run(&[Design::Vliw(VliwConfig::with_exceptions(), None)], groups.collect())
        },
        values: |_, o| vec![secs(o[0].solve_s), o[0].verdict.to_owned(), o[0].cnf_vars.to_string()],
        claims: &[Claim("the conservative approximations do not produce false negatives on this design", Exact, all_correct)],
    },
    Experiment {
        id: "cnf_stats",
        title: "Section 4 — CNF statistics and correct-design verification times",
        paper: "paper: 1xDLX-C 776 vars / 3,725 clauses; 2xDLX-CC 1,516 / 12,812; 2xDLX-CC-MC-EX-BP 4,583 / 41,704; 9VLIW-MC-BP 20,093 / 179,492",
        columns: &["cnf vars", "clauses", "primary", "chaff solve (s)", "berkmin solve (s)", "paper vars / clauses"],
        rows: |smoke| {
            let dlx = [DlxConfig::single_issue(), DlxConfig::dual_issue(), DlxConfig::dual_issue_full()];
            let dlx = dlx.map(|c| Design::Dlx(c, None)).into_iter();
            let designs = dlx.chain([Design::Vliw(VliwConfig::base(), None)]).take(if smoke { 1 } else { 4 });
            by_design(designs.collect(), &[sat(Chaff, None), sat(BerkMin, None)])
        },
        values: |i, o| {
            let paper = ["776 / 3,725", "1,516 / 12,812", "4,583 / 41,704", "20,093 / 179,492"][i];
            let sizes = [o[0].cnf_vars, o[0].cnf_clauses, o[0].primary_vars].map(|n| n.to_string());
            sizes.into_iter().chain([secs(o[0].solve_s), secs(o[1].solve_s), paper.to_owned()]).collect()
        },
        claims: &[
            Claim(
                "formula sizes grow monotonically from 1xDLX-C to 2xDLX-CC to the full dual-issue to the VLIW",
                Exact,
                |o| o.windows(2).all(|w| w[0][0].cnf_clauses <= w[1][0].cnf_clauses),
            ),
            Claim("every correct design is proven by Chaff and BerkMin", Exact, all_correct),
        ],
    },
    Experiment {
        id: "portfolio",
        title: "Portfolio — racing SAT presets and BDDs on buggy 2xDLX-CC-MC-EX-BP",
        paper: "portfolio wall-clock vs. best and median single engine on the same CNF",
        columns: &["best solve (s)", "median solve (s)", "race solve (s)", "winner"],
        rows: |smoke| {
            let singles = [Chaff, BerkMin, SolverKind::Grasp, SolverKind::Sato].map(|k| sat(k, Some(25)));
            let [bdds, race] = [Engine::Bdd(200_000), Engine::Portfolio].map(|e| on(e, Some(25)));
            by_design(dlx2_suite(smoke), &[singles.as_slice(), &[bdds, race]].concat())
        },
        values: |_, o| {
            let [best, median] = best_and_median(o).map(|t| t.map_or("--".to_owned(), secs));
            let race = o[o.len() - 1];
            vec![best, median, secs(race.solve_s), race.winner.clone().unwrap_or("--".to_owned())]
        },
        claims: &[
            Claim("the portfolio decides every benchmark the best single engine decides", Exact, |o| {
                portfolio_totals(o).0 == o.len()
            }),
            Claim("racing is at worst about as slow as the median single engine", Timing, |o| {
                let (decided, beats_median) = portfolio_totals(o);
                beats_median * 4 >= decided * 3
            }),
        ],
    },
];

/// One experiment's measured table and the truth of its claims.
struct Report {
    experiment: &'static Experiment,
    rows: Vec<(String, Vec<String>)>,
    claims: Vec<(&'static Claim, bool)>,
}

impl Report {
    /// The table as printed: title, paper line, rows and claim lines.
    fn lines(&self) -> Vec<String> {
        let (e, rule) = (self.experiment, "=".repeat(64));
        let width = self.rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
        let cell = |s: &str, column: &str| format!(" {s:>w$}", w = column.len().max(10));
        let line = |label: &str, values: &[String]| {
            let cells = values.iter().zip(e.columns).map(|(v, c)| cell(v, c));
            format!("{label:width$}{}", cells.collect::<String>())
        };
        let mut lines = vec![rule.clone(), e.title.to_owned(), e.paper.to_owned(), rule];
        let columns: Vec<String> = e.columns.iter().map(|c| c.to_string()).collect();
        lines.push(line("", &columns));
        lines.extend(self.rows.iter().map(|(label, values)| line(label, values)));
        let claims = self.claims.iter();
        lines.extend(claims.map(|(c, holds)| shape_check(&format!("{} ({:?})", c.0, c.1), *holds)));
        lines
    }
}

/// A run of the paper ledger.
pub struct Ledger {
    smoke: bool,
    /// Wall time of the whole run in seconds.
    pub wall_s: f64,
    outcomes: BTreeMap<String, Outcome>,
    reports: Vec<Report>,
}

/// Every cell of every experiment, shared cells repeated.
fn cells(smoke: bool) -> Vec<Cell> {
    let rows = EXPERIMENTS.iter().flat_map(|e| (e.rows)(smoke));
    rows.flat_map(|row| row.1).collect()
}

/// Measures every cell of the smoke or the default ledger once and reads
/// every experiment off the outcomes.
pub fn measure(smoke: bool) -> Ledger {
    let start = Instant::now();
    let outcomes = run_cells(&cells(smoke));
    Ledger::new(smoke, start.elapsed().as_secs_f64(), outcomes)
}

impl Ledger {
    /// Reads every experiment off the outcomes, which must hold every cell.
    fn new(smoke: bool, wall_s: f64, outcomes: BTreeMap<String, Outcome>) -> Ledger {
        let report = |experiment: &'static Experiment| {
            let rows = (experiment.rows)(smoke);
            let cells = |r: &Row| r.1.iter().map(|c| &outcomes[&key(c)]).collect();
            let cells: Vec<Vec<&Outcome>> = rows.iter().map(cells).collect();
            let values = cells.iter().enumerate();
            let table: Vec<Vec<String>> = values.map(|(i, c)| (experiment.values)(i, c)).collect();
            let claims = experiment.claims.iter();
            let claims = claims.map(|c| (c, (c.2)(&cells))).collect();
            let rows = rows.into_iter().map(|r| r.0).zip(table).collect();
            Report {
                experiment,
                rows,
                claims,
            }
        };
        let reports = EXPERIMENTS.iter().map(report).collect();
        Ledger {
            smoke,
            wall_s,
            outcomes,
            reports,
        }
    }

    fn claims(&self) -> impl Iterator<Item = (&'static str, &(&'static Claim, bool))> {
        let reports = self.reports.iter();
        reports.flat_map(|r| r.claims.iter().map(move |c| (r.experiment.id, c)))
    }

    /// The `exact` claims that do not hold, as `experiment: claim`.
    pub fn exact_failures(&self) -> Vec<String> {
        let claims = self.claims();
        let false_exact = claims.filter(|(_, (c, holds))| c.1 == Exact && !holds);
        false_exact
            .map(|(id, (c, _))| format!("{id}: {c}", c = c.0))
            .collect()
    }

    /// Prints every table with its paper line and claims.
    pub fn print(&self) {
        self.reports
            .iter()
            .flat_map(Report::lines)
            .for_each(|line| println!("{line}"));
    }

    /// The `BENCH_paper.json` document: each experiment's table as printed,
    /// every claim with its kind and truth, and every cell's outcome.
    pub fn to_json(&self) -> String {
        let quote = |s: &str| format!("\"{}\"", escape(s));
        let experiments = self.reports.iter().map(|r| {
            let lines: Vec<String> = r.lines().iter().map(|l| quote(l)).collect();
            let id = quote(r.experiment.id);
            format!(
                "    {{\"id\": {id}, \"lines\": [\n      {}\n    ]}}",
                lines.join(",\n      ")
            )
        });
        let claims = self.claims().map(|(id, (claim, holds))| {
            let kind = format!("{:?}", claim.1).to_lowercase();
            let (id, text) = (quote(id), quote(claim.0));
            format!("    {{\"experiment\": {id}, \"text\": {text}, \"kind\": \"{kind}\", \"holds\": {holds}}}")
        });
        let cells = self.outcomes.iter().map(|(key, o)| {
            let times = [o.translate_s, o.solve_s, o.detect_s, o.longest_s].map(|t| format!("{t:.6}"));
            let [translate, solve, detect, longest] = times;
            let winner = o.winner.as_deref().map_or("null".to_owned(), quote);
            format!(
                "    {{\"key\": {}, \"verdict\": \"{}\", \"translate_s\": {translate}, \"solve_s\": {solve}, \
                 \"detect_s\": {detect}, \"longest_s\": {longest}, \"obligations\": {}, \"primary_vars\": {}, \
                 \"cnf_vars\": {}, \"cnf_clauses\": {}, \"winner\": {winner}}}",
                quote(key), o.verdict, o.obligations, o.primary_vars, o.cnf_vars, o.cnf_clauses
            )
        });
        let block = |items: Vec<String>| items.join(",\n");
        format!(
            "{{\n  \"harness\": \"satbench-paper\",\n  \"smoke\": {},\n  \"full\": {},\n  \"wall_s\": {:.3},\n  \
             \"experiments\": [\n{}\n  ],\n  \"claims\": [\n{}\n  ],\n  \"cells\": [\n{}\n  ]\n}}\n",
            self.smoke,
            full(),
            self.wall_s,
            block(experiments.collect()),
            block(claims.collect()),
            block(cells.collect())
        )
    }
}

#[cfg(test)]
mod tests;
