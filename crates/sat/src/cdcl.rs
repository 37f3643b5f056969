//! Conflict-driven clause-learning SAT solver.
//!
//! One engine, several personalities: the presets configure the decision
//! heuristic, restart policy and learning limits so that the solver behaves
//! like the SAT checkers compared in the paper:
//!
//! * [`CdclSolver::chaff`] — lazy two-watched-literal propagation, VSIDS
//!   activities, aggressive restarts, phase saving (Moskewicz et al., DAC'01).
//! * [`CdclSolver::berkmin`] — decisions taken from the most recently learned
//!   conflict clause that is not yet satisfied (Goldberg & Novikov, DATE'02).
//! * [`CdclSolver::grasp`] — learning and non-chronological backtracking but a
//!   static decision order and no restarts (Marques-Silva & Sakallah).
//! * [`CdclSolver::sato`] — length-bounded learning and no activity heuristic.
//!
//! The parameter-variation runs of Table 2 are produced with
//! [`CdclSolver::chaff_with`] and a modified [`CdclConfig`].
//!
//! # Engine internals
//!
//! The engine follows the MiniSat data layout, chosen so that the hot loops
//! (propagation and conflict analysis) touch contiguous memory and never
//! allocate:
//!
//! * **Flat clause arena** — all clauses live in one `Vec<u32>`; a clause is a
//!   two-word header (length + flags, packed activity) followed by its literal
//!   codes, addressed by a [`ClauseRef`] word offset.  Deletion marks the
//!   header and counts the waste; when enough of the arena is dead, a copying
//!   garbage collection compacts it and rewrites every watcher, reason and
//!   learned-clause reference.
//! * **Blocker-literal watch lists** — each watcher caches a *blocker*
//!   literal from the clause; if the blocker is already true the clause is
//!   skipped without touching the arena at all.  Watcher lists are filtered
//!   in place with a single read/write pass (no temporary lists, no
//!   re-merging).
//! * **Indexed activity heap** — VSIDS decisions come from a binary max-heap
//!   that tracks each variable's position, so an activity bump is a sift-up
//!   of that one entry instead of pushing a stale duplicate, and unassigned
//!   variables re-enter the heap exactly once on backtracking.
//! * **Allocation-free first-UIP analysis** — conflict resolution iterates
//!   arena clauses directly and accumulates the learned clause in a reusable
//!   buffer; nothing is cloned on the conflict path.
//! * **O(1) locked-clause checks** — a clause is locked exactly when it is
//!   the recorded reason of its first literal, so clause-database reduction
//!   asks the `reason` array instead of scanning the trail.
//!
//! # Proof logging
//!
//! With a [`ProofWriter`] attached from the first clause on, every proof
//! step carries hints ([`velv_proof::ClauseId`]s) that the checker walks
//! instead of re-propagating.  Each arena clause is then preceded by one word
//! holding its ID, and each variable fixed at the root gets a unit lemma the
//! first time it is fixed, so later chains cite it by one ID.  A learned
//! clause's chain is the units of the root literals its analysis dropped,
//! then the resolved reasons in trail order, then the conflicting clause.
//! Without a writer none of this state exists.

use crate::cnf::{CnfFormula, Lit, Var};
use crate::proof::{ProofWriter, SharedProof};
use crate::rng::SmallRng;
use crate::solver::{Budget, Model, SatResult, Solver, SolverStats, StopReason};
use velv_proof::ClauseId;

/// Tuning knobs of the CDCL engine.
#[derive(Clone, Debug)]
pub struct CdclConfig {
    /// Human-readable preset name.
    pub name: String,
    /// Multiplicative decay applied to variable activities at each conflict.
    pub var_decay: f64,
    /// Multiplicative decay applied to clause activities at each conflict.
    pub clause_decay: f64,
    /// Base restart interval in conflicts; `None` disables restarts.
    pub restart_interval: Option<u64>,
    /// Geometric growth factor of the restart interval.
    pub restart_multiplier: f64,
    /// Probability of making a random decision instead of a heuristic one.
    pub random_decision_freq: f64,
    /// BerkMin-style decisions: branch on a literal of the most recently
    /// learned clause that is not yet satisfied.
    pub clause_based_decisions: bool,
    /// Use a static (index) variable order instead of activities.
    pub static_order: bool,
    /// Keep only learned clauses of at most this length (SATO-style).
    pub max_learnt_len: Option<usize>,
    /// Remember the last assigned polarity of each variable.
    pub phase_saving: bool,
    /// Periodically delete low-activity learned clauses.
    pub db_reduction: bool,
    /// RNG seed for random decisions.
    pub seed: u64,
}

impl CdclConfig {
    /// The Chaff-like preset.
    pub fn chaff() -> Self {
        CdclConfig {
            name: "chaff".to_owned(),
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_interval: Some(700),
            restart_multiplier: 1.3,
            random_decision_freq: 0.02,
            clause_based_decisions: false,
            static_order: false,
            max_learnt_len: None,
            phase_saving: true,
            db_reduction: true,
            seed: 0xC4AFF,
        }
    }

    /// The BerkMin-like preset.
    pub fn berkmin() -> Self {
        CdclConfig {
            name: "berkmin".to_owned(),
            clause_based_decisions: true,
            restart_interval: Some(550),
            random_decision_freq: 0.0,
            seed: 0xBE_12C1,
            ..CdclConfig::chaff()
        }
    }

    /// The GRASP-like preset: learning but static order and no restarts.
    pub fn grasp() -> Self {
        CdclConfig {
            name: "grasp".to_owned(),
            static_order: true,
            restart_interval: None,
            random_decision_freq: 0.0,
            db_reduction: false,
            seed: 0x62A5_0000,
            ..CdclConfig::chaff()
        }
    }

    /// The SATO-like preset: length-bounded learning, no activities.
    pub fn sato() -> Self {
        CdclConfig {
            name: "sato".to_owned(),
            static_order: true,
            restart_interval: None,
            max_learnt_len: Some(20),
            random_decision_freq: 0.0,
            db_reduction: false,
            seed: 0x5A70,
            ..CdclConfig::chaff()
        }
    }
}

/// The CDCL solver.
#[derive(Debug)]
pub struct CdclSolver {
    config: CdclConfig,
    stats: SolverStats,
}

impl CdclSolver {
    /// Creates a solver with an explicit configuration.
    pub fn new(config: CdclConfig) -> Self {
        CdclSolver {
            config,
            stats: SolverStats::default(),
        }
    }

    /// Chaff-like preset.
    pub fn chaff() -> Self {
        Self::new(CdclConfig::chaff())
    }

    /// Chaff-like preset with a modified configuration (parameter variations).
    pub fn chaff_with(mut f: impl FnMut(&mut CdclConfig)) -> Self {
        let mut cfg = CdclConfig::chaff();
        f(&mut cfg);
        Self::new(cfg)
    }

    /// BerkMin-like preset.
    pub fn berkmin() -> Self {
        Self::new(CdclConfig::berkmin())
    }

    /// GRASP-like preset.
    pub fn grasp() -> Self {
        Self::new(CdclConfig::grasp())
    }

    /// SATO-like preset.
    pub fn sato() -> Self {
        Self::new(CdclConfig::sato())
    }

    /// The configuration of this solver.
    pub fn config(&self) -> &CdclConfig {
        &self.config
    }

    /// Solves `cnf` under `assumptions` while streaming DRAT proof steps into
    /// `writer`: every learned clause and clause deletion is recorded, and an
    /// `Unsat` answer ends with the empty clause (no assumptions involved) or
    /// the clause over the negated final-core assumptions — exactly what the
    /// independent checker in `velv_proof` needs to replay the refutation.
    pub fn solve_with_proof_writer(
        &mut self,
        cnf: &CnfFormula,
        assumptions: &[Lit],
        budget: Budget,
        writer: Box<dyn ProofWriter>,
    ) -> SatResult {
        let mut engine = Engine::new(cnf, self.config.clone(), Some(writer));
        let result = engine.search(assumptions, budget);
        self.stats = engine.stats;
        result
    }

    /// Convenience wrapper around [`CdclSolver::solve_with_proof_writer`]
    /// that records into a fresh in-memory proof and returns it.
    pub fn solve_recording_proof(
        &mut self,
        cnf: &CnfFormula,
        assumptions: &[Lit],
        budget: Budget,
    ) -> (SatResult, velv_proof::Proof) {
        let shared = SharedProof::new();
        let result =
            self.solve_with_proof_writer(cnf, assumptions, budget, Box::new(shared.clone()));
        (result, shared.take())
    }
}

impl Solver for CdclSolver {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn is_complete(&self) -> bool {
        true
    }

    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult {
        let mut engine = Engine::new(cnf, self.config.clone(), None);
        let result = engine.run(budget);
        self.stats = engine.stats;
        result
    }

    /// Native assumption handling: assumptions are treated as pseudo-decisions
    /// by the engine instead of being copied into the formula as unit clauses
    /// (`Unsat` then means "unsatisfiable under the assumptions").
    fn solve_assuming(
        &mut self,
        cnf: &CnfFormula,
        assumptions: &[Lit],
        budget: Budget,
    ) -> SatResult {
        let mut engine = Engine::new(cnf, self.config.clone(), None);
        let result = engine.search(assumptions, budget);
        self.stats = engine.stats;
        result
    }

    /// CDCL is a proof-producing procedure: the search is re-run with the
    /// shared proof attached as the engine's DRAT sink.
    fn solve_with_proof(
        &mut self,
        cnf: &CnfFormula,
        assumptions: &[Lit],
        budget: Budget,
        proof: &SharedProof,
    ) -> Option<SatResult> {
        Some(self.solve_with_proof_writer(cnf, assumptions, budget, Box::new(proof.clone())))
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// Word offset of a clause header in the arena.
type ClauseRef = u32;

const UNDEF_CLAUSE: ClauseRef = u32::MAX;

/// Header flag: the clause was learned (has a meaningful activity).
const FLAG_LEARNT: u32 = 0b001;
/// Header flag: the clause is dead; watchers drop it lazily, GC reclaims it.
const FLAG_DELETED: u32 = 0b010;
/// Header flag (GC only): the activity word holds the relocated reference.
const FLAG_RELOCATED: u32 = 0b100;
/// Words before the literals: `[len << 3 | flags, activity_bits]`.
const HEADER_WORDS: usize = 2;

/// All clauses in one flat `Vec<u32>`: a two-word header followed by the
/// literal codes, addressed by word offset.
#[derive(Debug, Default)]
struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses; drives garbage collection.
    wasted: usize,
    /// Every clause is preceded by one word holding its proof ID (hinted
    /// proof logging only).
    with_ids: bool,
}

impl ClauseArena {
    fn with_capacity(words: usize, with_ids: bool) -> Self {
        ClauseArena {
            data: Vec::with_capacity(words),
            wasted: 0,
            with_ids,
        }
    }

    /// Allocates a clause; `id` is stored only in an arena `with_ids`.
    fn alloc(&mut self, lits: &[Lit], learnt: bool, id: u32) -> ClauseRef {
        let id_words = usize::from(self.with_ids);
        // ClauseRef is a u32 word offset: fail loudly rather than wrap once a
        // run (e.g. grasp, which never deletes) outgrows the address space.
        assert!(
            self.data.len() + id_words + HEADER_WORDS + lits.len() < UNDEF_CLAUSE as usize,
            "clause arena exceeds the u32 address space"
        );
        if self.with_ids {
            self.data.push(id);
        }
        let cref = self.data.len() as ClauseRef;
        let flags = if learnt { FLAG_LEARNT } else { 0 };
        self.data.push((lits.len() as u32) << 3 | flags);
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.index() as u32));
        cref
    }

    #[inline]
    fn len(&self, c: ClauseRef) -> usize {
        (self.data[c as usize] >> 3) as usize
    }

    #[inline]
    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & FLAG_LEARNT != 0
    }

    #[inline]
    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & FLAG_DELETED != 0
    }

    /// The proof ID of a clause of an arena `with_ids`.
    #[inline]
    fn id(&self, c: ClauseRef) -> u32 {
        debug_assert!(self.with_ids);
        self.data[c as usize - 1]
    }

    fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        let words = usize::from(self.with_ids) + HEADER_WORDS + self.len(c);
        self.data[c as usize] |= FLAG_DELETED;
        self.wasted += words;
    }

    #[inline]
    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit::from_index(self.data[c as usize + HEADER_WORDS + k] as usize)
    }

    #[inline]
    fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }

    #[inline]
    fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c as usize + 1])
    }

    #[inline]
    fn set_activity(&mut self, c: ClauseRef, activity: f32) {
        self.data[c as usize + 1] = activity.to_bits();
    }

    /// Words currently in use (live clauses plus garbage).
    fn len_words(&self) -> usize {
        self.data.len()
    }

    /// Moves the clause into `to` (once; later calls return the forward
    /// reference stashed in the old header).
    fn reloc(&mut self, c: ClauseRef, to: &mut ClauseArena) -> ClauseRef {
        if self.data[c as usize] & FLAG_RELOCATED != 0 {
            return self.data[c as usize + 1];
        }
        debug_assert!(!self.is_deleted(c));
        let id_words = usize::from(self.with_ids);
        let words = HEADER_WORDS + self.len(c);
        let nref = (to.data.len() + id_words) as ClauseRef;
        to.data
            .extend_from_slice(&self.data[c as usize - id_words..c as usize + words]);
        self.data[c as usize] |= FLAG_RELOCATED;
        self.data[c as usize + 1] = nref;
        nref
    }
}

impl velv_obs::MemFootprint for ClauseArena {
    /// The arena's heap bytes: the full backing capacity (slack included —
    /// that memory is held either way), measured from the arena's own
    /// bookkeeping.
    fn measured_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u32>()
    }
}

/// One entry of a literal's watch list.  The blocker is some other literal of
/// the clause: if it is already true the clause is satisfied and propagation
/// skips it without loading the clause from the arena.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Binary max-heap over variable activities with position tracking, so bumps
/// are a sift-up of one known entry (decrease-key) instead of a push of a
/// stale duplicate.
#[derive(Debug)]
struct VarHeap {
    heap: Vec<u32>,
    /// `pos[v]` is the index of `v` in `heap`, or -1 when absent.
    pos: Vec<i32>,
}

impl VarHeap {
    fn new(num_vars: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(num_vars),
            pos: vec![-1; num_vars],
        }
    }

    /// Extends the position table for variables added after construction.
    fn grow(&mut self, num_vars: usize) {
        if num_vars > self.pos.len() {
            self.pos.resize(num_vars, -1);
        }
    }

    #[inline]
    fn in_heap(&self, v: usize) -> bool {
        self.pos[v] >= 0
    }

    fn insert(&mut self, v: usize, activity: &[f64]) {
        if self.in_heap(v) {
            return;
        }
        self.pos[v] = self.heap.len() as i32;
        self.heap.push(v as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap order after `activity[v]` increased.
    fn bumped(&mut self, v: usize, activity: &[f64]) {
        if self.in_heap(v) {
            self.sift_up(self.pos[v] as usize, activity);
        }
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().expect("heap is non-empty");
        self.pos[top] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if activity[p as usize] >= activity[v as usize] {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as i32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len
                && activity[self.heap[child + 1] as usize] > activity[self.heap[child] as usize]
            {
                child += 1;
            }
            let c = self.heap[child];
            if activity[v as usize] >= activity[c as usize] {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as i32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }
}

/// Per-variable assignment encoding: `vals[v] ^ sign_bit(lit)` is 0 when the
/// literal is true, 1 when false and ≥ 2 when the variable is unassigned.
const VAL_TRUE: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_UNDEF: u8 = 2;

pub(crate) struct Engine {
    config: CdclConfig,
    pub(crate) stats: SolverStats,
    num_vars: usize,
    arena: ClauseArena,
    /// For each literal index, the watchers of that literal.
    watches: Vec<Vec<Watcher>>,
    vals: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    phase: Vec<bool>,
    heap: VarHeap,
    /// Whether the activity heap is maintained (presets with a static order
    /// never consult it).
    use_heap: bool,
    static_cursor: usize,
    rng: SmallRng,
    seen: Vec<bool>,
    /// Reusable buffer for the clause under construction in `analyze`.
    learnt_buf: Vec<Lit>,
    /// Live learned clause references, oldest first (for BerkMin decisions).
    learnt_refs: Vec<ClauseRef>,
    /// Learned clauses over the SATO length bound, kept only while locked.
    oversize: Vec<ClauseRef>,
    /// Number of live (non-deleted) learned clauses.
    num_learnts: usize,
    reduce_limit: usize,
    unsat: bool,
    /// Final-conflict core of the last [`Engine::search`] that returned
    /// `Unsat` under assumptions: the subset of the assumption literals that
    /// already suffices for unsatisfiability.  Empty when the formula is
    /// unsatisfiable outright.
    final_core: Vec<Lit>,
    /// Preset-labelled metric handles and heartbeat state (see
    /// [`crate::obs`]): counters are delta-flushed from `stats` at heartbeat
    /// boundaries and at the end of every `search` call.
    obs: crate::obs::EngineObs,
    /// Input clauses received so far (the initial formula, then every
    /// clause added between solves): the index of the next one.
    num_inputs: usize,
    /// Optional DRAT sink: learned clauses, deletions, the root empty clause
    /// and the final clause of failing assumption queries are recorded here.
    proof: Option<Box<ProofLog>>,
    /// Reusable buffer for proof steps read out of the arena.
    proof_buf: Vec<Lit>,
}

/// Unit ID of a variable not (yet) fixed at the root.
const NO_ID: u32 = u32::MAX;

/// Proof-logging state; exists only while a [`ProofWriter`] is attached.
struct ProofLog {
    writer: Box<dyn ProofWriter>,
    /// Whether steps carry hints: the writer saw every clause the engine
    /// received, so each clause and root fact has a known ID.
    hinted: bool,
    /// Steps written so far: the index of the next one.
    steps: usize,
    /// Per variable: the ID of the unit clause fixing it at the root.
    unit_ids: Vec<u32>,
    /// The hint chain of the next addition.
    hints: Vec<u32>,
    /// Reason IDs collected against trail order during an analysis.
    reasons: Vec<u32>,
    /// Root variables whose unit is in `hints`, with their `seen` flag set.
    marked: Vec<usize>,
    /// Whether the empty clause has been written.
    empty_logged: bool,
}

impl ProofLog {
    /// Starts a new hint chain.
    fn begin(&mut self) {
        self.hints.clear();
        self.reasons.clear();
    }

    /// Cites the unit of root variable `v`, once per chain.
    fn root(&mut self, seen: &mut [bool], v: usize) {
        if !seen[v] {
            seen[v] = true;
            self.marked.push(v);
            self.hints.push(self.unit_ids[v]);
        }
    }

    /// Ends a chain: the collected reasons follow the root units in trail
    /// order, so the last one is the clause visited first.
    fn end(&mut self, seen: &mut [bool]) {
        for v in self.marked.drain(..) {
            seen[v] = false;
        }
        self.hints.extend(self.reasons.drain(..).rev());
    }

    /// Writes an addition with the current chain; returns its ID.
    fn add(&mut self, lits: &[Lit]) -> u32 {
        let hints: &[u32] = if self.hinted { &self.hints } else { &[] };
        self.writer.add_clause(lits, hints);
        self.empty_logged |= lits.is_empty();
        self.next_step()
    }

    /// Writes the deletion of the clause `id` (ignored without hints).
    fn delete(&mut self, lits: &[Lit], id: u32) {
        self.writer.delete_clause(lits, self.hinted.then_some(id));
        self.next_step();
    }

    /// The ID of the step just written (0 without hints).
    fn next_step(&mut self) -> u32 {
        self.steps += 1;
        if self.hinted {
            ClauseId::Step(self.steps - 1).encode()
        } else {
            0
        }
    }
}

impl Engine {
    /// Builds an engine over `cnf`; a `proof` writer attached here sees
    /// every clause, so its steps carry hints.
    pub(crate) fn new(
        cnf: &CnfFormula,
        config: CdclConfig,
        proof: Option<Box<dyn ProofWriter>>,
    ) -> Self {
        let _mem_scope = velv_obs::MemScope::enter("sat.arena");
        let num_vars = cnf.num_vars();
        let seed = config.seed;
        let use_heap = !config.static_order;
        let id_words = if proof.is_some() {
            cnf.num_clauses()
        } else {
            0
        };
        let arena_words = cnf.num_literals() + HEADER_WORDS * cnf.num_clauses() + id_words;
        let obs = crate::obs::EngineObs::new(&config.name);
        let mut engine = Engine {
            config,
            stats: SolverStats::default(),
            num_vars,
            arena: ClauseArena::with_capacity(arena_words, false),
            watches: vec![Vec::new(); 2 * num_vars],
            vals: vec![VAL_UNDEF; num_vars],
            level: vec![0; num_vars],
            reason: vec![UNDEF_CLAUSE; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: vec![false; num_vars],
            heap: VarHeap::new(num_vars),
            use_heap,
            static_cursor: 0,
            rng: SmallRng::seed_from_u64(seed),
            seen: vec![false; num_vars],
            learnt_buf: Vec::new(),
            learnt_refs: Vec::new(),
            oversize: Vec::new(),
            num_learnts: 0,
            reduce_limit: (cnf.num_clauses() / 3).max(4000),
            unsat: false,
            final_core: Vec::new(),
            obs,
            num_inputs: 0,
            proof: None,
            proof_buf: Vec::new(),
        };
        if let Some(writer) = proof {
            engine.set_proof_writer(writer);
        }
        // Give every variable an initial (small) activity based on occurrence count.
        for clause in cnf.clauses() {
            for lit in clause {
                engine.activity[lit.var().index()] += 1e-6;
            }
        }
        if use_heap {
            for v in 0..num_vars {
                engine.heap.insert(v, &engine.activity);
            }
        }
        for clause in cnf.clauses() {
            engine.add_initial_clause(clause);
            if engine.unsat {
                break;
            }
        }
        engine.num_inputs = cnf.num_clauses();
        engine
    }

    /// Grows the variable tables (values, levels, reasons, activities, phases,
    /// watch lists, decision heap) to cover at least `n` variables.
    pub(crate) fn ensure_vars(&mut self, n: usize) {
        if n <= self.num_vars {
            return;
        }
        let _mem_scope = velv_obs::MemScope::enter("sat.arena");
        self.watches.resize_with(2 * n, Vec::new);
        self.vals.resize(n, VAL_UNDEF);
        self.level.resize(n, 0);
        self.reason.resize(n, UNDEF_CLAUSE);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.heap.grow(n);
        if let Some(log) = self.proof.as_deref_mut().filter(|log| log.hinted) {
            log.unit_ids.resize(n, NO_ID);
        }
        if self.use_heap {
            for v in self.num_vars..n {
                self.heap.insert(v, &self.activity);
            }
        }
        self.num_vars = n;
    }

    /// Number of variables currently known to the engine.
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The engine's memory figures, measured from its own bookkeeping: arena
    /// occupancy and fragmentation in words, plus measured byte counts for
    /// the arena, the watch lists and the learnt database.  Cheap enough for
    /// heartbeat cadence (one walk of the watch-list spines and the learnt
    /// references per call).
    fn arena_figures(&self) -> crate::obs::ArenaFigures {
        use velv_obs::MemFootprint as _;
        let watches_bytes = self.watches.capacity() * std::mem::size_of::<Vec<Watcher>>()
            + self
                .watches
                .iter()
                .map(|w| w.capacity() * std::mem::size_of::<Watcher>())
                .sum::<usize>();
        let learnt_words: usize = self
            .learnt_refs
            .iter()
            .filter(|&&c| !self.arena.is_deleted(c))
            .map(|&c| HEADER_WORDS + self.arena.len(c))
            .sum();
        let learnt_bytes = learnt_words * std::mem::size_of::<u32>()
            + self.learnt_refs.capacity() * std::mem::size_of::<ClauseRef>();
        crate::obs::ArenaFigures {
            len_words: self.arena.len_words() as u64,
            wasted_words: self.arena.wasted as u64,
            arena_bytes: self.arena.measured_bytes() as u64,
            watches_bytes: watches_bytes as u64,
            learnt_bytes: learnt_bytes as u64,
        }
    }

    /// Whether a root-level conflict has proven the formula unsatisfiable.
    pub(crate) fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// The assumption subset extracted by the last failing [`Engine::search`].
    pub(crate) fn final_core(&self) -> &[Lit] {
        &self.final_core
    }

    /// Attaches a DRAT proof sink.  From here on every learned clause, every
    /// clause deletion and the terminal clause of each UNSAT answer are
    /// recorded, making the engine's refutations independently checkable.
    /// The steps carry hints only if the engine has not received a clause
    /// yet (hints name clauses by ID, and earlier clauses have none) and the
    /// sink accepts them.
    pub(crate) fn set_proof_writer(&mut self, writer: Box<dyn ProofWriter>) {
        let hinted = self.num_inputs == 0 && writer.accepts_hints();
        debug_assert!(!hinted || self.arena.data.is_empty());
        self.arena.with_ids = hinted;
        self.proof = Some(Box::new(ProofLog {
            writer,
            hinted,
            steps: 0,
            unit_ids: if hinted {
                vec![NO_ID; self.num_vars]
            } else {
                Vec::new()
            },
            hints: Vec::new(),
            reasons: Vec::new(),
            marked: Vec::new(),
            empty_logged: false,
        }));
    }

    /// Whether the attached proof log records hints.
    fn hinted(&self) -> bool {
        self.proof.as_ref().is_some_and(|log| log.hinted)
    }

    /// The ID of the next input clause (0 without hints).
    fn next_input_id(&mut self) -> u32 {
        self.num_inputs += 1;
        if self.hinted() {
            ClauseId::Input(self.num_inputs - 1).encode()
        } else {
            0
        }
    }

    /// Records the clause currently held in `learnt_buf`, with the chain its
    /// analysis built, as a proof addition; returns its ID.
    fn proof_log_learnt(&mut self) -> u32 {
        match self.proof.as_deref_mut() {
            Some(log) => log.add(&self.learnt_buf),
            None => 0,
        }
    }

    /// Records the ID of a literal just fixed at the root by a unit clause.
    fn proof_note_unit(&mut self, lit: Lit, id: u32) {
        if let Some(log) = self.proof.as_deref_mut().filter(|log| log.hinted) {
            log.unit_ids[lit.var().index()] = id;
        }
    }

    // Hint-chain construction.  Each helper is a no-op unless the proof log
    // records hints, and stays out of line so that the search loops calling
    // it stay small.

    /// Starts the hint chain of the next proof step.
    #[inline(never)]
    fn hint_begin(&mut self) {
        if let Some(log) = self.proof.as_deref_mut().filter(|log| log.hinted) {
            log.begin();
        }
    }

    /// Cites the unit of root variable `v`.
    #[inline(never)]
    fn hint_root(&mut self, v: usize) {
        if let Some(log) = self.proof.as_deref_mut().filter(|log| log.hinted) {
            log.root(&mut self.seen, v);
        }
    }

    /// Collects the clause with proof ID `id` as a resolved reason.
    #[inline(never)]
    fn hint_reason(&mut self, id: u32) {
        if let Some(log) = self.proof.as_deref_mut().filter(|log| log.hinted) {
            log.reasons.push(id);
        }
    }

    /// Collects arena clause `c` as a resolved reason.
    #[inline(never)]
    fn hint_clause(&mut self, c: ClauseRef) {
        if self.hinted() {
            self.hint_reason(self.arena.id(c));
        }
    }

    /// Ends the chain: root units first, then the reasons in trail order.
    #[inline(never)]
    fn hint_end(&mut self) {
        if let Some(log) = self.proof.as_deref_mut().filter(|log| log.hinted) {
            log.end(&mut self.seen);
        }
    }

    /// Records the unit lemma of `lit`, just propagated at the root by
    /// `reason`: the units of the reason's other literals, then the reason.
    /// Kept out of line so that `enqueue` stays small on the hot path.
    #[cold]
    #[inline(never)]
    fn proof_log_root_unit(&mut self, lit: Lit, reason: ClauseRef) {
        if !self.hinted() {
            return;
        }
        self.hint_begin();
        for k in 0..self.arena.len(reason) {
            let q = self.arena.lit(reason, k);
            if q != lit {
                self.hint_root(q.var().index());
            }
        }
        self.hint_clause(reason);
        self.hint_end();
        if let Some(log) = self.proof.as_deref_mut() {
            log.unit_ids[lit.var().index()] = log.add(&[lit]);
        }
    }

    /// Records the empty clause, derived from the clause `id` whose literals
    /// `falsified` are all false at the root.
    fn proof_log_refutation(&mut self, falsified: &[Lit], id: u32) {
        if self.proof.as_ref().is_none_or(|log| log.empty_logged) {
            return;
        }
        self.hint_begin();
        for lit in falsified {
            self.hint_root(lit.var().index());
        }
        self.hint_reason(id);
        self.hint_end();
        if let Some(log) = self.proof.as_deref_mut() {
            log.add(&[]);
        }
    }

    /// Records the empty clause of a conflict at the root.
    fn proof_log_root_conflict(&mut self, conflict: ClauseRef) {
        if self.proof.is_none() {
            return;
        }
        let mut falsified = std::mem::take(&mut self.proof_buf);
        falsified.clear();
        falsified.extend((0..self.arena.len(conflict)).map(|k| self.arena.lit(conflict, k)));
        let id = if self.hinted() {
            self.arena.id(conflict)
        } else {
            0
        };
        self.proof_log_refutation(&falsified, id);
        self.proof_buf = falsified;
    }

    /// Records the empty clause (at most once) without a chain, for a
    /// refutation that predates the writer.
    fn proof_log_empty(&mut self) {
        if let Some(log) = self.proof.as_deref_mut() {
            if !log.empty_logged {
                log.begin();
                log.add(&[]);
            }
        }
    }

    /// Records the terminal clause of a failing assumption query: the
    /// disjunction of the negated final-core literals, which is RUP with
    /// respect to the clause database (resolving the reasons along the final
    /// conflict's implication graph yields exactly this clause, and
    /// `analyze_final` built that chain).
    fn proof_log_final_core(&mut self) {
        let Some(log) = self.proof.as_deref_mut() else {
            return;
        };
        self.proof_buf.clear();
        self.proof_buf.extend(self.final_core.iter().map(|&a| !a));
        log.add(&self.proof_buf);
    }

    /// Records the deletion of an arena clause.
    fn proof_log_delete(&mut self, cref: ClauseRef) {
        let Some(log) = self.proof.as_deref_mut() else {
            return;
        };
        self.proof_buf.clear();
        for k in 0..self.arena.len(cref) {
            self.proof_buf.push(self.arena.lit(cref, k));
        }
        let id = if log.hinted { self.arena.id(cref) } else { 0 };
        log.delete(&self.proof_buf, id);
    }

    /// Adds a clause between solves.  The engine first returns to decision
    /// level 0; the clause is normalised (sorted, deduplicated, tautologies
    /// dropped), simplified against the root-level assignment, and then
    /// installed with regular watches.  Unit clauses are enqueued at the root
    /// and propagated by the next [`Engine::search`]; an empty clause marks
    /// the formula unsatisfiable.
    pub(crate) fn add_clause_dynamic(&mut self, lits: &[Lit]) {
        let input = self.next_input_id();
        if self.unsat {
            return;
        }
        self.backtrack_to(0);
        if let Some(max) = lits.iter().map(|l| l.var().index() + 1).max() {
            self.ensure_vars(max);
        }
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable();
        clause.dedup();
        for pair in clause.windows(2) {
            if pair[0].var() == pair[1].var() {
                return; // tautology: x and ¬x in the same clause
            }
        }
        // Only root-level assignments remain after the backtrack, so any
        // assigned literal is permanently true or false.
        if clause.iter().any(|&l| self.value_lit(l) == VAL_TRUE) {
            return; // satisfied at the root forever
        }
        let mut id = input;
        if clause.iter().any(|&l| self.value_lit(l) == VAL_FALSE) {
            // The stored clause is a strengthening of the caller's: a proof
            // step derived from it and the units of the dropped literals.
            self.hint_begin();
            for &l in &clause {
                if self.value_lit(l) == VAL_FALSE {
                    self.hint_root(l.var().index());
                }
            }
            self.hint_reason(input);
            self.hint_end();
            clause.retain(|&l| self.value_lit(l) != VAL_FALSE);
            if let Some(log) = self.proof.as_deref_mut() {
                id = log.add(&clause);
            }
        }
        match clause.len() {
            0 => {
                // The caller's clause is empty, or every literal is false at
                // the root and the strengthening above wrote the empty clause.
                self.unsat = true;
                self.proof_log_refutation(&[], input);
            }
            1 => {
                self.enqueue(clause[0], UNDEF_CLAUSE);
                self.proof_note_unit(clause[0], id);
            }
            _ => {
                let cref = self.arena.alloc(&clause, false, id);
                self.watch(clause[0], cref, clause[1]);
                self.watch(clause[1], cref, clause[0]);
            }
        }
    }

    fn add_initial_clause(&mut self, lits: &[Lit]) {
        let id = self.next_input_id();
        match lits.len() {
            0 => {
                self.unsat = true;
                self.proof_log_refutation(&[], id);
            }
            1 => {
                let lit = lits[0];
                match self.value_lit(lit) {
                    VAL_TRUE => {}
                    VAL_FALSE => {
                        self.unsat = true;
                        self.proof_log_refutation(lits, id);
                    }
                    _ => {
                        self.enqueue(lit, UNDEF_CLAUSE);
                        self.proof_note_unit(lit, id);
                    }
                }
            }
            _ => {
                let cref = self.arena.alloc(lits, false, id);
                self.watch(lits[0], cref, lits[1]);
                self.watch(lits[1], cref, lits[0]);
            }
        }
    }

    #[inline]
    fn watch(&mut self, lit: Lit, cref: ClauseRef, blocker: Lit) {
        self.watches[lit.index()].push(Watcher { cref, blocker });
    }

    /// `VAL_TRUE` / `VAL_FALSE`, or ≥ 2 when the variable is unassigned.
    #[inline]
    fn value_lit(&self, lit: Lit) -> u8 {
        self.vals[lit.var().index()] ^ (lit.index() as u8 & 1)
    }

    #[inline]
    fn is_unassigned(&self, v: usize) -> bool {
        self.vals[v] >= VAL_UNDEF
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        let var = lit.var().index();
        debug_assert!(self.is_unassigned(var));
        self.vals[var] = lit.index() as u8 & 1;
        self.level[var] = self.decision_level();
        // Root-level facts need no reason (conflict analysis never resolves
        // on them), and recording none keeps their clauses unlocked so that
        // incremental sessions may retract scope clauses safely.
        self.reason[var] = if self.decision_level() == 0 {
            if reason != UNDEF_CLAUSE && self.proof.is_some() {
                self.proof_log_root_unit(lit, reason);
            }
            UNDEF_CLAUSE
        } else {
            reason
        };
        if self.config.phase_saving {
            self.phase[var] = lit.is_positive();
        }
        self.trail.push(lit);
        self.stats.propagations += 1;
    }

    /// Boolean constraint propagation; returns a conflicting clause if any.
    ///
    /// Each literal's watcher list is filtered in place with one read/write
    /// pass: kept watchers are compacted towards the front, moved and dead
    /// ones are dropped, and the list is truncated once at the end.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let widx = false_lit.index();
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < self.watches[widx].len() {
                let w = self.watches[widx][i];
                i += 1;
                // Blocker check: clause already satisfied, arena untouched.
                if self.value_lit(w.blocker) == VAL_TRUE {
                    self.watches[widx][j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                if self.arena.is_deleted(cref) {
                    continue; // dropped lazily
                }
                // Make sure the false literal is at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.value_lit(first) == VAL_TRUE {
                    self.watches[widx][j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let candidate = self.arena.lit(cref, k);
                    if self.value_lit(candidate) != VAL_FALSE {
                        self.arena.swap_lits(cref, 1, k);
                        self.watch(candidate, cref, first);
                        continue 'watchers; // watcher moved, not kept
                    }
                }
                // Clause is unit or conflicting.
                self.watches[widx][j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == VAL_FALSE {
                    // Conflict: keep the remaining watchers and stop.
                    while i < self.watches[widx].len() {
                        let w = self.watches[widx][i];
                        self.watches[widx][j] = w;
                        i += 1;
                        j += 1;
                    }
                    conflict = Some(cref);
                    break;
                }
                self.enqueue(first, cref);
            }
            self.watches[widx].truncate(j);
            if let Some(c) = conflict {
                self.qhead = self.trail.len();
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            // Uniform rescale preserves the heap order.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.use_heap {
            self.heap.bumped(var, &self.activity);
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let bumped = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, bumped);
        if bumped > 1e20 {
            for idx in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[idx];
                let scaled = self.arena.activity(c) * 1e-20;
                self.arena.set_activity(c, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis.  The learned clause is accumulated in
    /// `self.learnt_buf` (asserting literal first); returns the backtrack
    /// level.  Clauses are read straight from the arena — nothing is cloned.
    /// With a hinted proof log the clause's chain is built alongside.
    fn analyze(&mut self, mut conflict: ClauseRef) -> u32 {
        let hinted = self.hinted();
        if hinted {
            self.hint_begin();
        }
        self.learnt_buf.clear();
        self.learnt_buf.push(Lit::positive(Var::new(0))); // placeholder
        let mut counter = 0usize;
        let mut index = self.trail.len();
        // On the first iteration every literal of the conflicting clause is
        // examined; on later ones position 0 holds the literal being resolved
        // on (the propagation invariant keeps the asserted literal there).
        let mut start = 0usize;
        loop {
            if self.arena.is_learnt(conflict) {
                self.bump_clause(conflict);
            }
            if hinted {
                self.hint_clause(conflict);
            }
            let len = self.arena.len(conflict);
            for k in start..len {
                let q = self.arena.lit(conflict, k);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        self.learnt_buf.push(q);
                    }
                } else if hinted && self.level[v] == 0 {
                    self.hint_root(v);
                }
            }
            // Select the next literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt_buf[0] = !lit;
                break;
            }
            conflict = self.reason[lit.var().index()];
            debug_assert_ne!(conflict, UNDEF_CLAUSE);
            start = 1;
        }
        // Clear the `seen` flags of the literals kept in the learned clause.
        for idx in 1..self.learnt_buf.len() {
            self.seen[self.learnt_buf[idx].var().index()] = false;
        }
        if hinted {
            self.hint_end();
        }
        // Compute the backtrack level: highest level among learnt[1..].
        if self.learnt_buf.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..self.learnt_buf.len() {
                if self.level[self.learnt_buf[i].var().index()]
                    > self.level[self.learnt_buf[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            self.learnt_buf.swap(1, max_i);
            self.level[self.learnt_buf[1].var().index()]
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let start = self
                .trail_lim
                .pop()
                .expect("non-root level has a trail mark");
            for i in (start..self.trail.len()).rev() {
                let var = self.trail[i].var().index();
                self.vals[var] = VAL_UNDEF;
                self.reason[var] = UNDEF_CLAUSE;
                if self.use_heap {
                    self.heap.insert(var, &self.activity);
                }
            }
            self.trail.truncate(start);
        }
        // Never advance qhead past a pending (unpropagated) entry: root
        // units enqueued by `add_clause_dynamic` between solves sit below
        // the trail end and must still be propagated by the next search.
        self.qhead = self.qhead.min(self.trail.len());
        self.static_cursor = 0;
    }

    /// Records the clause accumulated in `learnt_buf` and asserts its first
    /// literal.  SATO's length bound is enforced here: an oversize clause is
    /// still needed as the reason of the backjump assertion, so it is kept
    /// but queued for deletion as soon as it is no longer locked.
    fn learn_clause(&mut self) {
        let id = self.proof_log_learnt();
        if self.learnt_buf.len() == 1 {
            let lit = self.learnt_buf[0];
            self.enqueue(lit, UNDEF_CLAUSE);
            self.proof_note_unit(lit, id);
            return;
        }
        let _mem_scope = velv_obs::MemScope::enter("sat.learnts");
        let cref = self.arena.alloc(&self.learnt_buf, true, id);
        self.arena.set_activity(cref, self.cla_inc);
        let asserting = self.learnt_buf[0];
        let second = self.learnt_buf[1];
        self.watch(asserting, cref, second);
        self.watch(second, cref, asserting);
        self.learnt_refs.push(cref);
        self.num_learnts += 1;
        self.stats.learned_clauses = self.num_learnts as u64;
        if let Some(limit) = self.config.max_learnt_len {
            if self.learnt_buf.len() > limit {
                self.oversize.push(cref);
            }
        }
        self.enqueue(asserting, cref);
    }

    /// A clause is locked while it is the reason of its asserted first
    /// literal — an O(1) check against the `reason` array.
    #[inline]
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value_lit(first) == VAL_TRUE && self.reason[first.var().index()] == cref
    }

    fn delete_clause(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_locked(cref));
        self.proof_log_delete(cref);
        if self.arena.is_learnt(cref) {
            self.num_learnts -= 1;
            self.stats.learned_clauses = self.num_learnts as u64;
        }
        self.arena.delete(cref);
    }

    /// Deletes queued oversize learned clauses (SATO length bound) as soon as
    /// they stop being locked, keeping the live learned set bounded even for
    /// presets that never run full database reduction.
    fn purge_oversize(&mut self) {
        if self.oversize.is_empty() {
            return;
        }
        let mut kept = 0;
        for i in 0..self.oversize.len() {
            let cref = self.oversize[i];
            if self.arena.is_deleted(cref) {
                continue; // already removed by database reduction
            }
            if self.is_locked(cref) {
                self.oversize[kept] = cref;
                kept += 1;
            } else {
                self.delete_clause(cref);
            }
        }
        self.oversize.truncate(kept);
        if kept == 0 {
            self.collect_garbage_if_needed();
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay as f32;
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        // Random decisions: bounded rejection sampling against the current
        // assignment — no scratch list of all unassigned variables.
        if self.num_vars > 0
            && self.config.random_decision_freq > 0.0
            && self.rng.gen_f64() < self.config.random_decision_freq
        {
            for _ in 0..16 {
                let v = self.rng.gen_range(0..self.num_vars);
                if self.is_unassigned(v) {
                    return Some(Lit::new(Var::new(v as u32), self.phase[v]));
                }
            }
            // Densely assigned: fall through to the heuristic.
        }
        // BerkMin: branch inside the most recent unsatisfied learned clause.
        if self.config.clause_based_decisions {
            // Scan only the most recent learned clauses, as BerkMin does.
            for idx in (self.learnt_refs.len().saturating_sub(512)..self.learnt_refs.len()).rev() {
                let cref = self.learnt_refs[idx];
                if self.arena.is_deleted(cref) {
                    continue;
                }
                let len = self.arena.len(cref);
                let mut satisfied = false;
                let mut best: Option<(f64, Lit)> = None;
                for k in 0..len {
                    let l = self.arena.lit(cref, k);
                    match self.value_lit(l) {
                        VAL_TRUE => {
                            satisfied = true;
                            break;
                        }
                        VAL_FALSE => {}
                        _ => {
                            let act = self.activity[l.var().index()];
                            if best.is_none_or(|(b, _)| act > b) {
                                best = Some((act, l));
                            }
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                if let Some((_, lit)) = best {
                    return Some(lit);
                }
            }
        }
        if self.config.static_order {
            while self.static_cursor < self.num_vars {
                let v = self.static_cursor;
                if self.is_unassigned(v) {
                    return Some(Lit::new(Var::new(v as u32), self.phase[v]));
                }
                self.static_cursor += 1;
            }
            return None;
        }
        // VSIDS: pop until an unassigned variable surfaces.  Every unassigned
        // variable is in the heap (re-inserted on backtracking), so an empty
        // heap means a full assignment.
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.is_unassigned(v) {
                return Some(Lit::new(Var::new(v as u32), self.phase[v]));
            }
        }
        debug_assert!(
            (0..self.num_vars).all(|v| !self.is_unassigned(v)),
            "empty decision heap with unassigned variables"
        );
        None
    }

    fn reduce_db(&mut self) {
        if self.num_learnts < self.reduce_limit {
            return;
        }
        // Drop already-dead references, then sort a scratch copy by activity
        // (learnt_refs itself must stay in age order for BerkMin).
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
        let mut by_activity = self.learnt_refs.clone();
        by_activity.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let target = self.num_learnts / 2;
        let mut deleted = 0;
        for &cref in &by_activity {
            if deleted >= target {
                break;
            }
            if self.arena.len(cref) <= 2 || self.is_locked(cref) {
                continue;
            }
            self.delete_clause(cref);
            deleted += 1;
        }
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
        self.reduce_limit += self.reduce_limit / 2;
        self.collect_garbage_if_needed();
    }

    fn collect_garbage_if_needed(&mut self) {
        // Compact once a fifth of the arena is dead.
        if self.arena.wasted * 5 >= self.arena.data.len().max(1) {
            self.collect_garbage();
        }
    }

    /// Copying garbage collection: live clauses move to a fresh arena and
    /// every watcher, reason and learned-clause reference is rewritten.
    /// Every live clause has exactly two watchers, so walking the watch lists
    /// relocates all of them; later references reuse the forward pointer.
    fn collect_garbage(&mut self) {
        let _mem_scope = velv_obs::MemScope::enter("sat.arena");
        let mut to = ClauseArena::with_capacity(
            self.arena.data.len() - self.arena.wasted,
            self.arena.with_ids,
        );
        for widx in 0..self.watches.len() {
            let mut kept = 0;
            for i in 0..self.watches[widx].len() {
                let mut w = self.watches[widx][i];
                if self.arena.is_deleted(w.cref) {
                    continue;
                }
                w.cref = self.arena.reloc(w.cref, &mut to);
                self.watches[widx][kept] = w;
                kept += 1;
            }
            self.watches[widx].truncate(kept);
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            let r = self.reason[v];
            if r != UNDEF_CLAUSE {
                // Reason clauses are locked, hence live and already watched.
                self.reason[v] = self.arena.reloc(r, &mut to);
            }
        }
        Self::compact_refs(&mut self.learnt_refs, &mut self.arena, &mut to);
        Self::compact_refs(&mut self.oversize, &mut self.arena, &mut to);
        self.arena = to;
        // The fragmentation gauges must follow the compaction immediately,
        // not at the next heartbeat: a monitoring poll between GC and the
        // next heartbeat would otherwise show stale waste.
        self.obs.publish_arena(&self.arena_figures());
    }

    /// Drops dead references and relocates the live ones into `to`.
    fn compact_refs(refs: &mut Vec<ClauseRef>, arena: &mut ClauseArena, to: &mut ClauseArena) {
        let mut kept = 0;
        for i in 0..refs.len() {
            let c = refs[i];
            if arena.is_deleted(c) {
                continue;
            }
            refs[kept] = arena.reloc(c, to);
            kept += 1;
        }
        refs.truncate(kept);
    }

    pub(crate) fn extract_model(&self) -> Model {
        Model::new(
            (0..self.num_vars)
                .map(|v| self.vals[v] == VAL_TRUE)
                .collect(),
        )
    }

    /// How many conflicts or decisions pass between two `Budget::exceeded`
    /// polls: cheap enough to make cancellation prompt (a poll is one atomic
    /// load plus, when a deadline is set, one `Instant::now`), large enough to
    /// keep the check off the per-iteration path.
    const BUDGET_POLL_MASK: u64 = 63;

    fn run(&mut self, budget: Budget) -> SatResult {
        self.search(&[], budget)
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): the assumption `p`
    /// is false under the current partial assignment, and the returned core is
    /// a subset of the assumption literals that already forces the conflict —
    /// `p` itself plus every assumption reachable backwards through the
    /// implication graph from `¬p`.
    ///
    /// With a hinted proof log, the chain of the terminal clause `¬core` is
    /// built alongside: the root units met, then the reasons in trail order,
    /// ending with the reason of `¬p`.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        self.hint_begin();
        let mut core = vec![p];
        let pv = p.var().index();
        if self.trail_lim.is_empty() || self.level[pv] == 0 {
            // ¬p is a root-level fact: assuming p alone is contradictory.
            self.hint_root(pv);
            self.hint_end();
            return core;
        }
        self.seen[pv] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            let r = self.reason[v];
            if r == UNDEF_CLAUSE {
                // A pseudo-decision: every decision below the current point is
                // an assumption, and this one contributes to the conflict.
                debug_assert!(self.level[v] > 0);
                core.push(x);
            } else {
                self.hint_clause(r);
                for k in 1..self.arena.len(r) {
                    let q = self.arena.lit(r, k);
                    if self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    } else {
                        self.hint_root(q.var().index());
                    }
                }
            }
        }
        self.seen[pv] = false;
        self.hint_end();
        core
    }

    /// CDCL search under `assumptions`, treated as pseudo-decisions at the
    /// bottom of the decision stack (MiniSat-style).  `Unsat` means
    /// unsatisfiable *under the assumptions*; [`Engine::final_core`] then
    /// holds the responsible assumption subset (empty when the formula is
    /// unsatisfiable outright).  Step budgets are counted relative to this
    /// call, so a persistent engine can be re-solved with fresh limits.
    pub(crate) fn search(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        let start_stats = self.stats;
        self.obs.begin_solve(&start_stats);
        let result = self.search_inner(assumptions, budget);
        let stats = self.stats;
        let trail_depth = self.trail.len();
        let mem = self.arena_figures();
        self.obs
            .end_solve(&stats, trail_depth, self.num_learnts, &mem);
        result
    }

    fn search_inner(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        self.final_core.clear();
        if self.unsat {
            // The refutation may predate the proof writer (e.g. a conflicting
            // unit in the initial clauses): make sure it is on record.
            self.proof_log_empty();
            return SatResult::Unsat;
        }
        for a in assumptions {
            self.ensure_vars(a.var().index() + 1);
        }
        // Return to the root; `qhead` still covers any units enqueued by
        // `add_clause_dynamic` since the last call, so only genuinely new
        // root facts are propagated (not the whole root trail again).
        self.backtrack_to(0);
        let budget = budget.started();
        let start_conflicts = self.stats.conflicts;
        let start_decisions = self.stats.decisions;
        let mut restart_limit = self.config.restart_interval;
        let mut conflicts_since_restart: u64 = 0;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                let conflict_level = self.decision_level() as usize;
                self.obs.note_conflict(conflict_level);
                if self.decision_level() == 0 {
                    self.unsat = true;
                    self.proof_log_root_conflict(conflict);
                    return SatResult::Unsat;
                }
                let backtrack_level = self.analyze(conflict);
                self.backtrack_to(backtrack_level);
                self.learn_clause();
                self.decay_activities();
                if self.config.max_learnt_len.is_some() {
                    self.purge_oversize();
                }
                if let Some(max_conflicts) = budget.max_conflicts {
                    if self.stats.conflicts - start_conflicts >= max_conflicts {
                        return SatResult::Unknown(StopReason::ConflictLimit);
                    }
                }
                if self.stats.conflicts & Self::BUDGET_POLL_MASK == 0 {
                    if let Some(reason) = budget.exceeded() {
                        return SatResult::Unknown(reason);
                    }
                }
                if self.stats.conflicts & crate::obs::HEARTBEAT_MASK == 0 {
                    let stats = self.stats;
                    let trail_depth = self.trail.len();
                    let decision_level = self.decision_level() as usize;
                    let mem = self.arena_figures();
                    self.obs
                        .heartbeat(&stats, trail_depth, decision_level, self.num_learnts, &mem);
                }
                if self.config.db_reduction {
                    self.reduce_db();
                }
            } else {
                // No conflict: maybe restart, otherwise decide.
                if let Some(limit) = restart_limit {
                    if conflicts_since_restart >= limit {
                        conflicts_since_restart = 0;
                        restart_limit =
                            Some(((limit as f64) * self.config.restart_multiplier).ceil() as u64);
                        self.stats.restarts += 1;
                        self.backtrack_to(0);
                        continue;
                    }
                }
                // Re-establish the assumptions as pseudo-decisions before any
                // real decision is taken (restarts drop them, the decision
                // loop puts them back).
                let mut asserted_assumption = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value_lit(p) {
                        VAL_TRUE => {
                            // Already implied: open a dummy level so the
                            // level ↔ assumption-index correspondence holds.
                            self.trail_lim.push(self.trail.len());
                        }
                        VAL_FALSE => {
                            self.final_core = self.analyze_final(p);
                            self.proof_log_final_core();
                            return SatResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, UNDEF_CLAUSE);
                            asserted_assumption = true;
                            break;
                        }
                    }
                }
                if asserted_assumption {
                    continue;
                }
                match self.pick_branch_lit() {
                    None => return SatResult::Sat(self.extract_model()),
                    Some(lit) => {
                        self.stats.decisions += 1;
                        if let Some(max_decisions) = budget.max_decisions {
                            if self.stats.decisions - start_decisions >= max_decisions {
                                return SatResult::Unknown(StopReason::DecisionLimit);
                            }
                        }
                        if self.stats.decisions & Self::BUDGET_POLL_MASK == 0 {
                            if let Some(reason) = budget.exceeded() {
                                return SatResult::Unknown(reason);
                            }
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, UNDEF_CLAUSE);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::verify_model;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn cnf_of(clauses: &[&[i64]]) -> CnfFormula {
        let mut cnf = CnfFormula::new(0);
        for c in clauses {
            cnf.add_clause(c.iter().map(|&i| lit(i)).collect());
        }
        cnf
    }

    use crate::generators::pigeonhole;

    #[test]
    fn copying_gc_drops_wasted_to_zero_and_the_gauge_follows() {
        // A unique preset name keys a private gauge family on the global
        // registry, so parallel tests cannot disturb the readings.
        let mut config = CdclConfig::chaff();
        config.name = "gc-gauge-test".to_owned();
        let cnf = cnf_of(&[&[1, 2], &[2, 3], &[3, 4]]);
        let mut engine = Engine::new(&cnf, config, None);

        // Manufacture fragmentation: allocate unattached clauses straight
        // into the arena and delete them all.
        let extra: Vec<ClauseRef> = (0..64)
            .map(|_| engine.arena.alloc(&[lit(1), lit(2), lit(3)], true, 0))
            .collect();
        for cref in extra {
            engine.arena.delete(cref);
        }
        assert!(engine.arena.wasted > 0);
        engine.obs.publish_arena(&engine.arena_figures());

        let labels: &[(&str, &str)] = &[("preset", "gc-gauge-test")];
        let snapshot = velv_obs::global().snapshot();
        let wasted = snapshot
            .get("velv_sat_arena_wasted_words", labels)
            .expect("wasted gauge registered");
        assert_eq!(
            wasted.value.as_u64(),
            Some(engine.arena.wasted as u64),
            "gauge tracks live fragmentation"
        );

        engine.collect_garbage();
        assert_eq!(engine.arena.wasted, 0, "copying GC leaves no waste");

        // `collect_garbage` republished the gauges itself — no heartbeat
        // needed for the registry to follow the compaction.
        let snapshot = velv_obs::global().snapshot();
        let wasted = snapshot
            .get("velv_sat_arena_wasted_words", labels)
            .expect("wasted gauge registered");
        assert_eq!(wasted.value.as_u64(), Some(0));
        let len = snapshot
            .get("velv_sat_arena_len_words", labels)
            .expect("len gauge registered");
        assert_eq!(len.value.as_u64(), Some(engine.arena.len_words() as u64));
        let bytes = snapshot
            .get("velv_sat_arena_bytes", labels)
            .expect("arena bytes gauge registered");
        use velv_obs::MemFootprint as _;
        assert_eq!(
            bytes.value.as_u64(),
            Some(engine.arena.measured_bytes() as u64)
        );
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let sat = cnf_of(&[&[1, 2], &[-1, 2], &[-2, 3]]);
        let unsat = cnf_of(&[&[1], &[-1]]);
        for mut solver in [
            CdclSolver::chaff(),
            CdclSolver::berkmin(),
            CdclSolver::grasp(),
            CdclSolver::sato(),
        ] {
            match solver.solve(&sat) {
                SatResult::Sat(model) => assert!(verify_model(&sat, &model)),
                other => panic!("{}: expected SAT, got {other:?}", solver.name()),
            }
            assert!(solver.solve(&unsat).is_unsat(), "{}", solver.name());
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = CnfFormula::new(1);
        cnf.add_clause(vec![]);
        assert!(CdclSolver::chaff().solve(&cnf).is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = CnfFormula::new(3);
        assert!(CdclSolver::chaff().solve(&cnf).is_sat());
    }

    #[test]
    fn pigeonhole_is_unsat_for_all_presets() {
        let cnf = pigeonhole(4);
        for mut solver in [
            CdclSolver::chaff(),
            CdclSolver::berkmin(),
            CdclSolver::grasp(),
            CdclSolver::sato(),
        ] {
            assert!(solver.solve(&cnf).is_unsat(), "{}", solver.name());
            assert!(solver.stats().conflicts > 0);
        }
    }

    #[test]
    fn solves_chained_implications() {
        // x1 -> x2 -> ... -> x50, x1 forced true, all must be true.
        let n = 50;
        let mut cnf = CnfFormula::new(n);
        cnf.add_clause(vec![Lit::positive(Var::new(0))]);
        for i in 0..n - 1 {
            cnf.add_clause(vec![
                Lit::negative(Var::new(i as u32)),
                Lit::positive(Var::new((i + 1) as u32)),
            ]);
        }
        let mut solver = CdclSolver::chaff();
        match solver.solve(&cnf) {
            SatResult::Sat(model) => {
                for i in 0..n {
                    assert!(model.value(Var::new(i as u32)));
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn random_3sat_models_are_verified() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(7);
        for instance in 0..10 {
            let num_vars = 30;
            let num_clauses = 90; // below the phase transition, very likely SAT
            let mut cnf = CnfFormula::new(num_vars);
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                while clause.len() < 3 {
                    let v = rng.gen_range(0..num_vars) as u32;
                    let sign = rng.gen_bool(0.5);
                    let l = Lit::new(Var::new(v), sign);
                    if !clause.contains(&l) && !clause.contains(&!l) {
                        clause.push(l);
                    }
                }
                cnf.add_clause(clause);
            }
            let mut solver = CdclSolver::chaff();
            if let SatResult::Sat(model) = solver.solve(&cnf) {
                assert!(verify_model(&cnf, &model), "instance {instance}");
            }
        }
    }

    #[test]
    fn conflict_budget_is_respected() {
        let cnf = pigeonhole(7);
        let mut solver = CdclSolver::chaff();
        let result = solver.solve_with_budget(
            &cnf,
            Budget {
                max_conflicts: Some(5),
                ..Budget::default()
            },
        );
        assert_eq!(result, SatResult::Unknown(StopReason::ConflictLimit));
        assert!(solver.stats().conflicts <= 6);
    }

    #[test]
    fn presets_report_distinct_names() {
        assert_eq!(CdclSolver::chaff().name(), "chaff");
        assert_eq!(CdclSolver::berkmin().name(), "berkmin");
        assert_eq!(CdclSolver::grasp().name(), "grasp");
        assert_eq!(CdclSolver::sato().name(), "sato");
        let varied = CdclSolver::chaff_with(|cfg| {
            cfg.restart_interval = Some(3000);
            cfg.name = "chaff-r3000".to_owned();
        });
        assert_eq!(varied.name(), "chaff-r3000");
        assert_eq!(varied.config().restart_interval, Some(3000));
    }

    #[test]
    fn sato_length_bound_keeps_live_learned_clauses_bounded() {
        // SATO's length bound is enforced at learn time: an oversize clause
        // survives only while it is locked (the reason of its backjump
        // assertion), and every locked clause is pinned by a distinct
        // assigned variable.  With a bound of 1 every stored learned clause
        // is oversize, so the live set can never exceed the variable count —
        // while the conflict count runs far past it.
        let mut config = CdclConfig::sato();
        config.name = "sato-tight".to_owned();
        config.max_learnt_len = Some(1);
        let cnf = pigeonhole(6);
        let mut solver = CdclSolver::new(config);
        let _ = solver.solve_with_budget(&cnf, Budget::step_limit(3_000));
        let stats = solver.stats();
        assert!(stats.conflicts > 100, "expected a real search");
        assert!(
            stats.learned_clauses <= cnf.num_vars() as u64,
            "live learned clauses not bounded: {} after {} conflicts",
            stats.learned_clauses,
            stats.conflicts,
        );
        // The regular SATO preset still decides the instance correctly.
        assert!(CdclSolver::sato().solve(&pigeonhole(4)).is_unsat());
    }

    #[test]
    fn database_reduction_and_gc_preserve_verdicts() {
        // A long chaff run on PHP(9, 8) crosses the reduction threshold
        // several times, forcing clause deletion and arena compaction; the
        // search must stay sound through both.
        let big = pigeonhole(8);
        let mut solver = CdclSolver::chaff();
        let result = solver.solve_with_budget(&big, Budget::step_limit(30_000));
        assert!(
            !result.is_sat(),
            "PHP(9,8) is unsatisfiable, got {result:?}"
        );
        assert!(CdclSolver::chaff().solve(&pigeonhole(5)).is_unsat());
    }
}
