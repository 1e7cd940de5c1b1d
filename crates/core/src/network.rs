use crate::agenda::AgendaScheduler;
use crate::constraint::{Activation, ConstraintData, ConstraintKind};
use crate::ids::{ConstraintId, VarId};
use crate::justification::{DependencyRecord, Justification};
use crate::par::{self, ParStats};
use crate::plan::{PlanOp, PlanParDetail, PlanSlot, PlanStatus, PropPlan};
use crate::value::Value;
use crate::variable::{Overwrite, PlainKind, VariableData, VariableKind};
use crate::violation::Violation;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Default per-task pool floor ([`Network::set_parallel_min_steps`]).
const DEFAULT_PARALLEL_MIN_STEPS: usize = 1024;

/// A variable's current value and justification (`lastSetBy`), stored in a
/// dense arena parallel to the variable arena. Kept separate from
/// [`VariableData`] because this pair is `Send + Sync` (values use `Arc`,
/// justifications carry no `Rc`), which lets the parallel replay path hand
/// worker threads a raw view of exactly the state they write — and nothing
/// of the `Rc`-laden variable/constraint metadata.
#[derive(Debug, Clone)]
pub(crate) struct ValueSlot {
    pub(crate) value: Value,
    pub(crate) justification: Justification,
}

/// Result of one propagated assignment ([`Network::propagate_set`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetStatus {
    /// The value was assigned and activations were queued.
    Changed,
    /// The variable already held the propagated value — a termination
    /// criterion of §4.2.2.
    Unchanged,
    /// The variable kind kept its current value silently (Fig. 7.4); the
    /// final satisfaction sweep decides whether that is a conflict.
    Ignored,
}

/// Counters accumulated across propagation cycles, used by the benchmark
/// harness to verify the efficiency claims of §5.1 (hierarchical networks
/// propagate shared internals once) and §9.2.3 (complexity ∝ Σ_v
/// #constraints(v)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Completed `set` cycles.
    pub cycles: u64,
    /// Variable assignments performed (external + propagated).
    pub assignments: u64,
    /// Constraint activations dispatched (`propagateVariable:` sends).
    pub activations: u64,
    /// `infer` executions (immediate + scheduled).
    pub inferences: u64,
    /// Agenda enqueue attempts that added a new entry.
    pub schedules: u64,
    /// Entries popped from agendas and run.
    pub scheduled_runs: u64,
    /// Violations raised.
    pub violations: u64,
    /// Propagation plans compiled ([`Network::plan_status`]), including
    /// compilations that concluded the cone is uncompilable.
    pub plan_compiles: u64,
    /// `set` calls served by a cached propagation plan instead of the
    /// agenda engine.
    pub plan_cache_hits: u64,
    /// Cached plan entries discarded because a structural edit bumped the
    /// network's generation.
    pub plan_cache_invalidations: u64,
    /// Domain narrowings that landed: a domain propagator's write that
    /// actually shrank an interval or finite-set value.
    pub domain_tightenings: u64,
    /// Dispatches (agenda or plan replay) skipped because the constraint
    /// was runtime-marked subsumed ([`Network::mark_subsumed`]).
    pub subsumed_pruned: u64,
    /// Domain wipeouts raised (`PropagateOutcome::DomainWipeout` → batch
    /// abort with journal rollback).
    pub wipeouts: u64,
}

/// Saved pre-propagation state of a visited variable, for restoration on
/// violation (the global `VisitedConstraintsAndVariables` dictionary of
/// §4.2.2).
#[derive(Debug, Clone)]
struct SavedVar {
    value: Value,
    justification: Justification,
}

/// Per-cycle propagation state.
#[derive(Debug, Default)]
struct PropState {
    visited_vars: HashMap<VarId, SavedVar>,
    /// Non-Nil value changes per variable this cycle, for the (optionally
    /// relaxed) one-value-change rule.
    change_counts: HashMap<VarId, u32>,
    visited_constraints: Vec<ConstraintId>,
    visited_cset: std::collections::HashSet<ConstraintId>,
    /// Depth-first activation stack for immediate constraints.
    pending: Vec<(ConstraintId, VarId)>,
    /// Propagation steps (activations + scheduled inferences) performed
    /// this cycle, checked against [`Network::set_step_limit`].
    steps: u64,
    /// Violation handlers are suppressed for tentative probes.
    silent: bool,
    /// Compiled straight-line execution: activations are not queued
    /// (`run_compiled`).
    compiled: bool,
    /// Plan-driven execution: the cone is statically single-writer, so
    /// `propagate_set` records visited pre-images in the flat
    /// `visited_list` and skips the revisit/change-count bookkeeping.
    planned: bool,
    /// Visited pre-images for plan-driven cycles. Single-writer plans
    /// guarantee each variable appears at most once, so a flat vector
    /// (pushed in write order, no hashing) replaces `visited_vars`.
    visited_list: Vec<(VarId, SavedVar)>,
    /// Epoch for the planned-cycle mark tables below; bumped once per
    /// planned cycle, so "clearing" them is a counter increment.
    mark_epoch: u32,
    /// Per-variable: epoch of the planned cycle in which the variable
    /// last actually changed. Plan replay skips any step whose trigger
    /// variable is unmarked — the interpreter's value pruning, statically
    /// unrolled.
    var_marks: Vec<u32>,
    /// Per-constraint: epoch of the first live dispatch this planned
    /// cycle, deduplicating `visited_constraints` without hashing.
    cid_marks: Vec<u32>,
    /// Per plan agenda entry: epoch of the first live schedule sighting,
    /// gating the matching drain-phase run.
    entry_marks: Vec<u32>,
}

impl PropState {
    /// Empties the per-cycle collections while keeping their allocated
    /// capacity, so the pooled instance starts the next cycle without
    /// touching the heap (steady-state propagation is allocation-free).
    fn recycle(&mut self) {
        self.visited_vars.clear();
        self.change_counts.clear();
        self.visited_constraints.clear();
        self.visited_cset.clear();
        self.pending.clear();
        self.steps = 0;
        self.silent = false;
        self.compiled = false;
        self.planned = false;
        self.visited_list.clear();
    }
}

/// One undo record in the change journal (newest last; rollback replays in
/// reverse).
#[derive(Debug)]
enum JournalEntry {
    /// Pre-image of a variable's first write since `begin_journal`.
    Value {
        var: VarId,
        value: Value,
        justification: Justification,
    },
    /// A variable was appended to the arena (undo: pop it).
    VarAdded,
    /// A constraint slot was appended and wired (undo: pop and unwire).
    ConstraintAdded,
    /// One constraint's individual enable flag changed.
    EnabledChanged { cid: ConstraintId, was: bool },
    /// The per-cycle value-change limit changed.
    LimitChanged { was: u32 },
    /// A constraint was removed (undo: re-wire it). `positions[i]` is the
    /// index `cid` held in `args[i]`'s constraint list — `retain` preserves
    /// order, so re-inserting at the recorded index reconstructs the exact
    /// pre-removal wiring (activation order depends on it). The erasure
    /// cascade's value changes are journaled separately as `Value` entries.
    ConstraintRemoved {
        cid: ConstraintId,
        args: Vec<VarId>,
        positions: Vec<u32>,
    },
    /// A constraint's runtime subsumption mark flipped (undo: restore
    /// `was`). Non-structural: marks gate dispatch, not connectivity.
    SubsumedChanged { cid: ConstraintId, was: bool },
}

/// The change journal: variable pre-images (first write per segment wins)
/// plus structural add/toggle records, accumulated between
/// [`Network::begin_journal`] and commit/rollback. Undoing a batch replays
/// the journal in reverse — O(touched set), not O(network) like
/// [`Network::snapshot`]. [`Network::journal_savepoint`] opens a nested
/// segment that [`Network::rollback_journal_to`] undoes alone.
#[derive(Debug, Default)]
struct Journal {
    entries: Vec<JournalEntry>,
    /// Per variable index: the segment whose pre-image is recorded (0 =
    /// none). A flat vector beats a hash set on the write path (one
    /// indexed load per write); clearing walks the entries, so it stays
    /// O(touched), and the buffer itself is pooled across transactions via
    /// `spare_journal`.
    seen: Vec<u32>,
    /// Current segment: 1 when the journal opens, bumped by each savepoint,
    /// so a variable's first write after a savepoint records its pre-image
    /// again without touching earlier flags.
    segment: u32,
}

/// A position in the open change journal ([`Network::journal_savepoint`]):
/// [`Network::rollback_journal_to`] undoes everything journaled after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMark {
    len: usize,
    segment: u32,
}

impl Journal {
    /// Whether `ix`'s pre-image is not yet recorded in the current
    /// segment; marks it recorded.
    #[inline]
    fn first_write(&mut self, ix: usize) -> bool {
        if self.seen.len() <= ix {
            self.seen.resize(ix + 1, 0);
        }
        std::mem::replace(&mut self.seen[ix], self.segment) != self.segment
    }

    /// Clears for reuse, keeping both buffers' capacity. O(touched).
    fn recycle(&mut self) {
        for e in self.entries.drain(..) {
            if let JournalEntry::Value { var, .. } = e {
                self.seen[var.index()] = 0;
            }
        }
    }
}

/// Callback invoked (after state restoration) whenever a propagation cycle
/// ends in a violation — the violation-handler hook of §4.2.3/5.2.
pub type ViolationHandler = dyn Fn(&Network, &Violation);

/// A full checkpoint of variable values and justifications
/// ([`Network::snapshot`] / [`Network::restore_snapshot`]).
#[derive(Debug, Clone)]
pub struct ValueSnapshot {
    entries: Vec<(Value, Justification)>,
}

impl ValueSnapshot {
    /// Number of variables captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A constraint network: the arena of variable and constraint objects plus
/// the propagation engine of thesis chapter 4.
///
/// # Example: the network of Fig. 4.5
///
/// ```
/// use stem_core::{Network, Value, Justification};
/// use stem_core::kinds::{Equality, Functional};
///
/// let mut net = Network::new();
/// let v1 = net.add_variable("V1");
/// let v2 = net.add_variable("V2");
/// let v3 = net.add_variable("V3");
/// let v4 = net.add_variable("V4");
/// net.add_constraint(Equality::new(), [v1, v2]).unwrap();
/// // V4 = max(V2, V3); the result variable is last.
/// net.add_constraint(Functional::uni_maximum(), [v2, v3, v4]).unwrap();
///
/// net.set(v3, Value::Int(7), Justification::User).unwrap();
/// net.set(v1, Value::Int(9), Justification::User).unwrap();
/// assert_eq!(net.value(v2), &Value::Int(9));
/// assert_eq!(net.value(v4), &Value::Int(9));
/// ```
pub struct Network {
    vars: Vec<VariableData>,
    /// Value + justification per variable, index-aligned with `vars`.
    slots: Vec<ValueSlot>,
    constraints: Vec<ConstraintData>,
    scheduler: AgendaScheduler,
    state: Option<PropState>,
    /// Retired cycle state, reused by the next cycle (capacity pooling).
    spare_state: PropState,
    /// Active change journal, when one is open ([`Network::begin_journal`]).
    journal: Option<Journal>,
    /// Retired journal, reused by the next `begin_journal`.
    spare_journal: Journal,
    /// The global `CPSwitch` of §5.3: when `false`, assignments are plain
    /// stores without propagation or checking.
    enabled: bool,
    /// Maximum non-Nil value changes per variable per cycle. 1 is the
    /// thesis's one-value-change rule; larger values are the relaxation
    /// suggested in §9.2.3 for reconvergent fanouts.
    value_change_limit: u32,
    /// Per-cycle propagation step budget; `None` is unlimited.
    step_limit: Option<u64>,
    handlers: Vec<Rc<ViolationHandler>>,
    stats: Stats,
    /// Compiled propagation plans, dense-indexed by root variable; grown
    /// on demand by [`Network::set`]. Negative results are cached too
    /// ([`PlanSlot::Uncompilable`]).
    plans: Vec<PlanSlot>,
    /// Bumped by every structural edit (constraint add/remove/toggle, arg
    /// attach/detach, agenda redefinition, structural journal rollback);
    /// a cached plan is valid only while its recorded generation matches.
    structure_generation: u64,
    /// Master switch for plan-cached propagation
    /// ([`Network::set_plan_caching`]); on by default.
    plan_caching: bool,
    /// Worker count for cone-kernel plan replay
    /// ([`Network::set_parallel_threads`]); 1 (the default) keeps every
    /// replay on the sequential path and compiles no partition metadata.
    parallel_threads: usize,
    /// Minimum executing steps in a plan's costliest cone before a
    /// replay engages the worker pool; below the floor the kernels run
    /// inline on the calling thread ([`Network::set_parallel_min_steps`]).
    par_min_steps: usize,
    /// Per variable: `(root index, token)` plan subscriptions — the
    /// compiled (or refused) plans whose footprint includes the
    /// variable. A structural edit evicts exactly the subscribed roots
    /// of its touched variables ([`Network::invalidate_plans_touching`]),
    /// making recompilation O(touched) instead of global.
    plan_subs: Vec<Vec<(u32, u64)>>,
    /// Per root: token of its live subscription (0 = none). A stale
    /// token in `plan_subs` is ignored and dropped lazily.
    plan_tokens: Vec<u64>,
    /// Token generator for `plan_tokens`; starts at 1 so 0 means "none".
    next_plan_token: u64,
    /// Counters for the parallel replay path, kept separate from [`Stats`]
    /// so core propagation statistics stay byte-identical across thread
    /// counts (the differential test's invariant).
    par_stats: ParStats,
    /// Runtime subsumption mark per constraint index: a marked constraint
    /// is entailed by current domains, so dispatch and plan replay skip
    /// it ([`Network::mark_subsumed`]). Grown lazily on first mark.
    subsumed: Vec<bool>,
    /// Count of set bits in `subsumed` — the hot paths' fast gate: zero
    /// means every subsumption branch short-circuits.
    n_subsumed: usize,
    /// Marks flipped inside the current cycle, replayed in reverse by
    /// `restore()` on violation (the journal handles batch rollback).
    subsumed_flips: Vec<(ConstraintId, bool)>,
    /// Pooled scratch for `revalidate_subsumed_watchers`.
    subsumed_scratch: Vec<ConstraintId>,
    /// Master switch for subsumption pruning
    /// ([`Network::set_subsumption`]); on by default.
    subsumption_enabled: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("variables", &self.vars.len())
            .field("constraints", &self.constraints.len())
            .field("enabled", &self.enabled)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

/// Cloning a quiescent network duplicates variables, connectivity and
/// counters; constraint/variable *kinds*, recalc hooks and violation
/// handlers are shared (they are immutable behaviour). This is the cheap
/// fork primitive transactional services build on: apply speculative edits
/// to the clone, swap it in on success, drop it on failure.
///
/// # Panics
///
/// Panics if called during an active propagation cycle.
impl Clone for Network {
    fn clone(&self) -> Self {
        assert!(self.state.is_none(), "cannot clone mid-propagation");
        Network {
            vars: self.vars.clone(),
            slots: self.slots.clone(),
            constraints: self.constraints.clone(),
            scheduler: self.scheduler.clone(),
            state: None,
            spare_state: PropState::default(),
            journal: None,
            spare_journal: Journal::default(),
            enabled: self.enabled,
            value_change_limit: self.value_change_limit,
            step_limit: self.step_limit,
            handlers: self.handlers.clone(),
            stats: self.stats,
            // Plans survive the fork: their step kinds are shared `Rc`
            // handles, so this is connectivity-sized, not value-sized.
            plans: self.plans.clone(),
            structure_generation: self.structure_generation,
            plan_caching: self.plan_caching,
            parallel_threads: self.parallel_threads,
            par_min_steps: self.par_min_steps,
            plan_subs: self.plan_subs.clone(),
            plan_tokens: self.plan_tokens.clone(),
            next_plan_token: self.next_plan_token,
            par_stats: self.par_stats,
            subsumed: self.subsumed.clone(),
            n_subsumed: self.n_subsumed,
            subsumed_flips: Vec::new(),
            subsumed_scratch: Vec::new(),
            subsumption_enabled: self.subsumption_enabled,
        }
    }
}

impl Network {
    /// Creates an empty network with propagation enabled and the default
    /// agendas declared.
    pub fn new() -> Self {
        Network {
            vars: Vec::new(),
            slots: Vec::new(),
            constraints: Vec::new(),
            scheduler: AgendaScheduler::new(),
            state: None,
            spare_state: PropState::default(),
            journal: None,
            spare_journal: Journal::default(),
            enabled: true,
            value_change_limit: 1,
            step_limit: None,
            handlers: Vec::new(),
            stats: Stats::default(),
            plans: Vec::new(),
            structure_generation: 0,
            plan_caching: true,
            parallel_threads: 1,
            par_min_steps: DEFAULT_PARALLEL_MIN_STEPS,
            plan_subs: Vec::new(),
            plan_tokens: Vec::new(),
            next_plan_token: 1,
            par_stats: ParStats::default(),
            subsumed: Vec::new(),
            n_subsumed: 0,
            subsumed_flips: Vec::new(),
            subsumed_scratch: Vec::new(),
            subsumption_enabled: true,
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a plain variable (value `Nil`, justification `Unset`).
    pub fn add_variable(&mut self, name: impl Into<String>) -> VarId {
        self.add_variable_with(name, None, Rc::new(PlainKind))
    }

    /// Adds a variable with an owner path (its "parent" for display) and a
    /// behaviour kind.
    pub fn add_variable_with(
        &mut self,
        name: impl Into<String>,
        owner: Option<Arc<str>>,
        kind: Rc<dyn VariableKind>,
    ) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VariableData::new(name.into(), owner, kind));
        self.slots.push(ValueSlot {
            value: Value::Nil,
            justification: Justification::Unset,
        });
        if let Some(j) = &mut self.journal {
            j.entries.push(JournalEntry::VarAdded);
        }
        id
    }

    /// Installs a lazy recalculation hook on `var` (thesis Fig. 6.1). The
    /// hook runs from [`Network::value_or_recalc`] when the value is `Nil`;
    /// it should compute and [`set`](Network::set) the value itself.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_recalc(&mut self, var: VarId, f: impl Fn(&mut Network, VarId) + 'static) {
        self.vars[var.index()].recalc = Some(Rc::new(f));
    }

    /// Adds a constraint over `args` and re-initialises it by propagating
    /// the arguments' existing values along it in precedence order
    /// (Fig. 4.13): user-specified first, then constraint-dependent, then
    /// other independents.
    ///
    /// # Errors
    ///
    /// If re-initialisation raises a violation, every visited variable is
    /// restored, the constraint is removed again, and the violation is
    /// returned — the NIL validity feedback of §5.2.
    ///
    /// # Panics
    ///
    /// Panics if any argument id is out of range or if called during an
    /// active propagation cycle.
    pub fn add_constraint(
        &mut self,
        kind: impl ConstraintKind + 'static,
        args: impl IntoIterator<Item = VarId>,
    ) -> Result<ConstraintId, Violation> {
        self.add_constraint_rc(Rc::new(kind), args)
    }

    /// [`add_constraint`](Network::add_constraint) for pre-shared kinds.
    pub fn add_constraint_rc(
        &mut self,
        kind: Rc<dyn ConstraintKind>,
        args: impl IntoIterator<Item = VarId>,
    ) -> Result<ConstraintId, Violation> {
        assert!(self.state.is_none(), "cannot edit network mid-propagation");
        let cid = self.add_constraint_quiet_rc(kind, args);
        if !self.enabled {
            return Ok(cid);
        }
        match self.reinitialize(cid) {
            Ok(()) => Ok(cid),
            Err(v) => {
                self.remove_constraint_quiet(cid);
                Err(v)
            }
        }
    }

    /// Adds a constraint without re-initialising (bulk construction; also
    /// what happens implicitly while propagation is disabled).
    pub fn add_constraint_quiet(
        &mut self,
        kind: impl ConstraintKind + 'static,
        args: impl IntoIterator<Item = VarId>,
    ) -> ConstraintId {
        self.add_constraint_quiet_rc(Rc::new(kind), args)
    }

    /// [`add_constraint_quiet`](Network::add_constraint_quiet) for
    /// pre-shared kinds.
    pub fn add_constraint_quiet_rc(
        &mut self,
        kind: Rc<dyn ConstraintKind>,
        args: impl IntoIterator<Item = VarId>,
    ) -> ConstraintId {
        let args: Vec<VarId> = args.into_iter().collect();
        for &a in &args {
            assert!(a.index() < self.vars.len(), "argument {a} out of range");
        }
        let cid = ConstraintId(self.constraints.len() as u32);
        for &a in &args {
            self.vars[a.index()].constraints.push(cid);
        }
        // O(touched) invalidation: only plans whose footprint includes an
        // argument of the new constraint can change shape.
        self.invalidate_plans_touching(&args);
        self.constraints.push(ConstraintData {
            kind,
            args,
            active: true,
            enabled: true,
        });
        if let Some(j) = &mut self.journal {
            j.entries.push(JournalEntry::ConstraintAdded);
        }
        cid
    }

    /// Removes a constraint (Fig. 4.14 generalised to the whole
    /// constraint): every value propagated by it — and every consequence of
    /// those values — is erased to `Nil`, then the constraint is unwired.
    ///
    /// Journalable: with a journal open, the erasure cascade records value
    /// pre-images as usual and the unwiring records a re-insertion undo
    /// entry, so a rollback re-wires the constraint in its exact
    /// pre-removal position — still O(touched set).
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn remove_constraint(&mut self, cid: ConstraintId) {
        assert!(self.state.is_none(), "cannot edit network mid-propagation");
        if !self.constraints[cid.index()].active {
            return;
        }
        // Clear any subsumption mark first (journaled): rollback replays in
        // reverse, so the re-wire entry pushed below restores connectivity
        // before this entry restores the mark.
        self.set_subsumed_bit(cid, false);
        if self.enabled {
            let mut to_reset: Vec<VarId> = Vec::new();
            for i in 0..self.constraints[cid.index()].args.len() {
                let arg = self.constraints[cid.index()].args[i];
                if self.slots[arg.index()].justification.source_constraint() == Some(cid) {
                    for v in self.consequences(arg) {
                        if !to_reset.contains(&v) {
                            to_reset.push(v);
                        }
                    }
                }
            }
            for v in to_reset {
                self.reset(v);
            }
        }
        if self.journal.is_some() {
            let args = self.constraints[cid.index()].args.clone();
            let mut positions = Vec::with_capacity(args.len());
            for (i, &a) in args.iter().enumerate() {
                // `args` may list a variable twice; match the i-th
                // occurrence of `cid` in its constraint list so rollback
                // re-inserts each wire where it came from.
                let occurrence = args[..i].iter().filter(|&&p| p == a).count();
                let pos = self.vars[a.index()]
                    .constraints
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c == cid)
                    .nth(occurrence)
                    .map(|(ix, _)| ix as u32)
                    .expect("constraint wired to its argument");
                positions.push(pos);
            }
            if let Some(j) = &mut self.journal {
                j.entries.push(JournalEntry::ConstraintRemoved {
                    cid,
                    args,
                    positions,
                });
            }
        }
        self.remove_constraint_quiet(cid);
    }

    /// Unwires and tombstones a constraint without any erasure.
    fn remove_constraint_quiet(&mut self, cid: ConstraintId) {
        // Safety net for unjournaled callers: a tombstoned slot must not
        // keep a stale subsumption mark.
        if self.subsumed.get(cid.index()) == Some(&true) {
            self.subsumed[cid.index()] = false;
            self.n_subsumed -= 1;
        }
        let args = std::mem::take(&mut self.constraints[cid.index()].args);
        for &a in &args {
            self.vars[a.index()].constraints.retain(|&c| c != cid);
        }
        self.constraints[cid.index()].active = false;
        self.invalidate_plans_touching(&args);
    }

    /// Detaches one argument from a constraint (`removeConstraint:` on a
    /// variable, Fig. 4.14): erases values that depended on the pair, then
    /// re-initialises the constraint over its remaining arguments.
    ///
    /// # Errors
    ///
    /// Propagates any violation raised by the re-initialisation (values are
    /// restored; the detachment itself stands).
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn detach_arg(&mut self, cid: ConstraintId, var: VarId) -> Result<(), Violation> {
        assert!(self.state.is_none(), "cannot edit network mid-propagation");
        assert!(
            self.journal.is_none(),
            "detach_arg is not journalable; commit or roll back first"
        );
        if !self.constraints[cid.index()].args.contains(&var) {
            return Ok(());
        }
        if self.enabled {
            if self.slots[var.index()].justification.source_constraint() == Some(cid) {
                // My value was last set by this constraint: reset me and all
                // my consequences.
                for v in self.consequences(var) {
                    self.reset(v);
                }
            } else {
                // Reset all variables that are consequences of me
                // propagating through this constraint.
                let mut out = Vec::new();
                self.constraint_consequences(cid, var, &mut out);
                for v in out {
                    self.reset(v);
                }
            }
        }
        // `var` is still among the args here, so the clone covers it.
        let touched = self.constraints[cid.index()].args.clone();
        self.constraints[cid.index()].args.retain(|&a| a != var);
        self.vars[var.index()].constraints.retain(|&c| c != cid);
        self.invalidate_plans_touching(&touched);
        if self.enabled && !self.constraints[cid.index()].args.is_empty() {
            self.reinitialize(cid)
        } else {
            Ok(())
        }
    }

    /// Attaches an additional argument to an existing constraint
    /// (`addConstraint:` on a variable, Fig. 4.13) and re-initialises.
    ///
    /// # Errors
    ///
    /// On violation the attachment is rolled back and the violation
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn attach_arg(&mut self, cid: ConstraintId, var: VarId) -> Result<(), Violation> {
        assert!(self.state.is_none(), "cannot edit network mid-propagation");
        assert!(
            self.journal.is_none(),
            "attach_arg is not journalable; commit or roll back first"
        );
        assert!(self.constraints[cid.index()].active, "constraint removed");
        if self.constraints[cid.index()].args.contains(&var) {
            return Ok(());
        }
        self.constraints[cid.index()].args.push(var);
        self.vars[var.index()].constraints.push(cid);
        let touched = self.constraints[cid.index()].args.clone();
        self.invalidate_plans_touching(&touched);
        if !self.enabled {
            return Ok(());
        }
        match self.reinitialize(cid) {
            Ok(()) => Ok(()),
            Err(v) => {
                self.constraints[cid.index()].args.retain(|&a| a != var);
                self.vars[var.index()].constraints.retain(|&c| c != cid);
                Err(v)
            }
        }
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Current value of `var`.
    pub fn value(&self, var: VarId) -> &Value {
        &self.slots[var.index()].value
    }

    /// Current value, running the lazy recalculation hook first when the
    /// value is `Nil` (implicit invocation, Fig. 6.1). Returns a borrow —
    /// the recalc hook (if any) has already finished by then, so no clone
    /// is needed; callers that must own the value clone at the call site.
    pub fn value_or_recalc(&mut self, var: VarId) -> &Value {
        let d = &self.vars[var.index()];
        if self.slots[var.index()].value.is_nil() && !d.evaluating {
            if let Some(f) = d.recalc.clone() {
                self.vars[var.index()].evaluating = true;
                f(self, var);
                self.vars[var.index()].evaluating = false;
            }
        }
        &self.slots[var.index()].value
    }

    /// Justification of `var`'s current value (`lastSetBy`).
    pub fn justification(&self, var: VarId) -> &Justification {
        &self.slots[var.index()].justification
    }

    /// Declared name of `var`.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// `owner.name` display path of `var` (§4.1.1).
    pub fn var_path(&self, var: VarId) -> String {
        self.vars[var.index()].path()
    }

    /// Kind label of `var`.
    pub fn var_kind_name(&self, var: VarId) -> String {
        self.vars[var.index()].kind.kind_name().to_string()
    }

    /// Constraints referencing `var`.
    pub fn constraints_of(&self, var: VarId) -> &[ConstraintId] {
        &self.vars[var.index()].constraints
    }

    /// Argument list of `cid`.
    pub fn args(&self, cid: ConstraintId) -> &[VarId] {
        &self.constraints[cid.index()].args
    }

    /// Kind label of `cid`.
    pub fn constraint_kind_name(&self, cid: ConstraintId) -> String {
        self.constraints[cid.index()].kind.kind_name().to_string()
    }

    /// The arguments `cid`'s kind may assign during inference
    /// ([`ConstraintKind::outputs`]), used by network compilation.
    pub fn constraint_outputs(&self, cid: ConstraintId) -> Vec<VarId> {
        self.constraints[cid.index()].kind.outputs(self, cid)
    }

    /// The strength of `cid`'s kind ([`ConstraintKind::strength`]).
    pub fn constraint_strength(&self, cid: ConstraintId) -> u8 {
        self.constraints[cid.index()].kind.strength()
    }

    /// Whether `cid` is still installed.
    pub fn is_active(&self, cid: ConstraintId) -> bool {
        self.constraints[cid.index()].active
    }

    /// Whether `var` carries the default ([`PlainKind`]) behaviour —
    /// cone partitioning admits only plain write targets, because the
    /// off-thread overwrite rule is `PlainKind`'s.
    pub(crate) fn var_is_plain(&self, var: VarId) -> bool {
        self.vars[var.index()].plain_kind
    }

    /// Strength of every constraint slot (tombstoned included), indexed
    /// by [`ConstraintId::index`] — snapshotted into cone partitions so
    /// overwrite arbitration runs off-thread without the `Rc` kinds.
    pub(crate) fn constraint_slot_strengths(&self) -> Vec<u8> {
        self.constraints.iter().map(|c| c.kind.strength()).collect()
    }

    /// Whether `cid` is currently satisfied by its arguments' values.
    pub fn is_satisfied(&self, cid: ConstraintId) -> bool {
        let d = &self.constraints[cid.index()];
        !d.active || !d.enabled || d.kind.is_satisfied(self, cid)
    }

    /// Number of variables ever created.
    pub fn n_variables(&self) -> usize {
        self.vars.len()
    }

    /// Number of active constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.iter().filter(|c| c.active).count()
    }

    /// Number of constraint slots ever allocated, including removed
    /// (tombstoned) ones — the exclusive upper bound on valid
    /// [`ConstraintId`] indices. Lets services validate client-supplied
    /// ids without risking an out-of-range panic.
    pub fn n_constraint_slots(&self) -> usize {
        self.constraints.len()
    }

    /// Iterator over all variable ids.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Iterator over all active constraint ids.
    pub fn all_constraints(&self) -> impl Iterator<Item = ConstraintId> + '_ {
        (0..self.constraints.len() as u32)
            .map(ConstraintId)
            .filter(move |c| self.constraints[c.index()].active)
    }

    /// Sweeps every active constraint for violations — useful after
    /// re-enabling propagation, which the thesis notes has "no support …
    /// for recovery from constraint inconsistency" (§5.3); this sweep is
    /// that recovery aid.
    pub fn check_all(&self) -> Vec<Violation> {
        self.all_constraints()
            .filter(|&c| !self.is_satisfied(c))
            .map(|c| Violation::unsatisfied(c).with_kind_name(self.constraint_kind_name(c)))
            .collect()
    }

    /// Accumulated engine counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Resets the engine counters (including the parallel-replay
    /// counters of [`Network::par_stats`]).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        self.par_stats = ParStats::default();
    }

    /// Accumulated cone-kernel replay counters. Always zero while
    /// [`Network::parallel_threads`] is 1.
    pub fn par_stats(&self) -> ParStats {
        self.par_stats
    }

    /// The `CPSwitch` (§5.3): enables or disables constraint propagation
    /// globally. While disabled, `set` performs plain assignments.
    pub fn set_propagation_enabled(&mut self, enabled: bool) {
        assert!(self.state.is_none(), "cannot toggle mid-propagation");
        self.enabled = enabled;
    }

    /// Whether propagation is enabled.
    pub fn is_propagation_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables one constraint — the finer-grained control of
    /// thesis §9.3: a disabled constraint neither propagates nor
    /// participates in satisfaction checks, but stays wired and can be
    /// re-enabled.
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn set_constraint_enabled(&mut self, cid: ConstraintId, enabled: bool) {
        assert!(self.state.is_none(), "cannot toggle mid-propagation");
        let was = self.constraints[cid.index()].enabled;
        if was != enabled {
            if let Some(j) = &mut self.journal {
                j.entries.push(JournalEntry::EnabledChanged { cid, was });
            }
            let touched = self.constraints[cid.index()].args.clone();
            self.invalidate_plans_touching(&touched);
        }
        self.constraints[cid.index()].enabled = enabled;
    }

    /// Whether a constraint is individually enabled.
    pub fn is_constraint_enabled(&self, cid: ConstraintId) -> bool {
        self.constraints[cid.index()].enabled
    }

    /// Enables or disables every active constraint whose kind label equals
    /// `kind_name` (§9.3: "specified types of constraints"). Returns how
    /// many constraints were toggled.
    pub fn set_kind_enabled(&mut self, kind_name: &str, enabled: bool) -> usize {
        assert!(self.state.is_none(), "cannot toggle mid-propagation");
        let mut n = 0;
        let mut touched: Vec<VarId> = Vec::new();
        for (ix, d) in self.constraints.iter_mut().enumerate() {
            if d.active && d.kind.kind_name() == kind_name {
                if d.enabled != enabled {
                    touched.extend_from_slice(&d.args);
                    if let Some(j) = &mut self.journal {
                        j.entries.push(JournalEntry::EnabledChanged {
                            cid: ConstraintId(ix as u32),
                            was: d.enabled,
                        });
                    }
                }
                d.enabled = enabled;
                n += 1;
            }
        }
        if !touched.is_empty() {
            self.invalidate_plans_touching(&touched);
        }
        n
    }

    /// Sets the maximum number of non-`Nil` value changes a variable may
    /// undergo per propagation cycle. `1` (the default) is the thesis's
    /// one-value-change rule; §9.2.3 suggests relaxing it "to allow N
    /// value changes in each propagation cycle" for reconvergent fanouts.
    ///
    /// # Panics
    ///
    /// Panics for `limit == 0` or if called during an active cycle.
    pub fn set_value_change_limit(&mut self, limit: u32) {
        assert!(limit >= 1, "the change limit must be at least 1");
        assert!(self.state.is_none(), "cannot change mid-propagation");
        if self.value_change_limit != limit {
            if let Some(j) = &mut self.journal {
                j.entries.push(JournalEntry::LimitChanged {
                    was: self.value_change_limit,
                });
            }
        }
        self.value_change_limit = limit;
    }

    /// The current per-cycle value-change limit.
    pub fn value_change_limit(&self) -> u32 {
        self.value_change_limit
    }

    /// Caps the number of propagation steps (constraint activations plus
    /// scheduled inferences) any single cycle may perform. When a wave
    /// exhausts the budget it aborts through the normal violation path —
    /// every visited variable is restored and
    /// [`ViolationKind::BudgetExceeded`](crate::ViolationKind::BudgetExceeded)
    /// is returned — so a runaway wave cannot wedge the caller. `None`
    /// (the default) is unlimited.
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn set_step_limit(&mut self, limit: Option<u64>) {
        assert!(self.state.is_none(), "cannot change mid-propagation");
        self.step_limit = limit;
    }

    /// The current per-cycle propagation step budget.
    pub fn step_limit(&self) -> Option<u64> {
        self.step_limit
    }

    /// Aborts an in-flight propagation cycle, restoring every visited
    /// variable and clearing the agendas. A no-op when no cycle is active.
    ///
    /// The engine normally finishes cycles itself; this hook exists for
    /// supervisors that catch a panic unwinding out of a constraint kind
    /// (via `catch_unwind`) and need the network returned to its pre-cycle
    /// state instead of being poisoned mid-cycle.
    pub fn abort_cycle(&mut self) {
        if let Some(state) = self.state.take() {
            self.restore(&state);
            self.scheduler.clear();
            self.stats.violations += 1;
            self.retire_state(state);
        }
    }

    /// Executes a pre-compiled constraint order (thesis §9.3's "simple
    /// topological sorts of the constraint networks"): each constraint is
    /// inferred exactly once, in the given order, with no activation
    /// discovery, then the executed constraints are checked.
    ///
    /// Build the order with [`compile_functional`](crate::compile_functional).
    ///
    /// # Errors
    ///
    /// On violation every visited variable is restored and the violation
    /// returned, exactly as for [`Network::set`].
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly.
    pub fn run_compiled(&mut self, order: &[ConstraintId]) -> Result<(), Violation> {
        assert!(self.state.is_none(), "run_compiled is not re-entrant");
        if !self.enabled {
            return Ok(());
        }
        self.begin_cycle(false);
        self.state.as_mut().expect("cycle active").compiled = true;
        let mut result = Ok(());
        for &cid in order {
            let d = &self.constraints[cid.index()];
            if !d.active || !d.enabled {
                continue;
            }
            {
                let st = self.state.as_mut().expect("cycle active");
                if st.visited_cset.insert(cid) {
                    st.visited_constraints.push(cid);
                }
            }
            let kind = self.constraints[cid.index()].kind.clone();
            self.stats.inferences += 1;
            result = kind.infer(self, cid, None);
            if result.is_err() {
                break;
            }
        }
        self.finish_cycle(result)
    }

    /// Registers a violation handler, called after restoration whenever a
    /// non-tentative cycle aborts (§4.2.3).
    pub fn add_violation_handler(&mut self, f: impl Fn(&Network, &Violation) + 'static) {
        self.handlers.push(Rc::new(f));
    }

    /// Declares (or re-prioritises) a scheduling agenda (§4.2.1).
    pub fn define_agenda(&mut self, name: &'static str, priority: i32) {
        self.scheduler.define(name, priority);
        // Priorities reorder the drain phase, which compiled plans bake in.
        self.structure_generation += 1;
    }

    // ------------------------------------------------------------------
    // Assignment & propagation
    // ------------------------------------------------------------------

    /// Erases `var` to `Nil`/`Unset` without propagation — the dependency
    /// erasure primitive of Fig. 4.14.
    pub fn reset(&mut self, var: VarId) {
        self.journal_record_value(var);
        let s = &mut self.slots[var.index()];
        s.value = Value::Nil;
        s.justification = Justification::Unset;
        // Nil is the widest domain: entailment witnesses watching this
        // variable no longer hold.
        if self.n_subsumed != 0 {
            self.revalidate_subsumed_watchers(var);
        }
    }

    /// Captures every variable's value and justification — a checkpoint
    /// for search procedures that tentatively commit whole candidate
    /// combinations (joint module selection) and for the editor's
    /// "restore all visited variables" function (§5.4) generalised.
    ///
    /// Cost is O(network); transactional callers that touch few variables
    /// should prefer the change journal ([`Network::begin_journal`]),
    /// whose cost is O(touched set).
    pub fn snapshot(&self) -> ValueSnapshot {
        ValueSnapshot {
            entries: self
                .slots
                .iter()
                .map(|s| (s.value.clone(), s.justification.clone()))
                .collect(),
        }
    }

    /// Restores a snapshot taken on this network: plain stores, no
    /// propagation (the network returns to a state that was consistent
    /// when captured). Variables created after the snapshot keep their
    /// current values.
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn restore_snapshot(&mut self, snapshot: &ValueSnapshot) {
        assert!(self.state.is_none(), "cannot restore mid-propagation");
        for (i, (value, justification)) in snapshot.entries.iter().enumerate() {
            if i >= self.vars.len() {
                break;
            }
            self.journal_record_value(VarId(i as u32));
            let s = &mut self.slots[i];
            s.value = value.clone();
            s.justification = justification.clone();
        }
        // Values reverted wholesale to an older state, under which a
        // runtime subsumption mark's entailment witness may no longer
        // hold. Wipe every mark (journaled); absence is always correct.
        if self.n_subsumed != 0 {
            for ix in 0..self.subsumed.len() {
                if self.subsumed[ix] {
                    self.set_subsumed_bit(ConstraintId(ix as u32), false);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Change journal
    // ------------------------------------------------------------------

    /// Opens a change journal. Until [`Network::commit_journal`] or
    /// [`Network::rollback_journal`], every variable write records its
    /// pre-image (value + justification) on first touch, and journalable
    /// structural edits (variable/constraint additions, enable toggles,
    /// change-limit updates) record undo entries. Rolling back replays the
    /// journal in reverse — cost proportional to the touched set, not the
    /// network, unlike [`Network::snapshot`]/[`Network::restore_snapshot`].
    ///
    /// Constraint removals are journalable too
    /// ([`Network::remove_constraint`]). The remaining non-journalable
    /// edits ([`Network::detach_arg`], [`Network::attach_arg`]) panic while
    /// a journal is open; callers needing them must fall back to a clone or
    /// snapshot transaction.
    ///
    /// # Panics
    ///
    /// Panics if a journal is already open or a propagation cycle is
    /// active.
    pub fn begin_journal(&mut self) {
        assert!(self.journal.is_none(), "a journal is already open");
        assert!(
            self.state.is_none(),
            "cannot open a journal mid-propagation"
        );
        let mut j = std::mem::take(&mut self.spare_journal);
        debug_assert!(j.entries.is_empty() && j.seen.iter().all(|&s| s == 0));
        j.segment = 1;
        self.journal = Some(j);
    }

    /// Marks the open journal's current end and starts a new segment:
    /// [`Network::rollback_journal_to`] with the mark undoes exactly what
    /// is journaled after it and keeps everything before, and a variable's
    /// first write after the mark records its pre-image again. O(1).
    ///
    /// # Panics
    ///
    /// Panics if no journal is open.
    pub fn journal_savepoint(&mut self) -> JournalMark {
        let j = self.journal.as_mut().expect("no journal open");
        j.segment = j.segment.checked_add(1).expect("journal segment overflow");
        JournalMark {
            len: j.entries.len(),
            segment: j.segment,
        }
    }

    /// Whether a change journal is currently open.
    pub fn is_journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Number of undo entries in the open journal (0 when none is open).
    /// Proportional to the touched set — the O(touched) guarantee is
    /// testable through this.
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.entries.len())
    }

    /// Closes the journal, keeping every change.
    ///
    /// # Panics
    ///
    /// Panics if no journal is open.
    pub fn commit_journal(&mut self) {
        let mut j = self.journal.take().expect("no journal open");
        j.recycle();
        self.spare_journal = j;
    }

    /// Closes the journal, undoing every journaled change (see
    /// [`Network::rollback_journal_to`]).
    ///
    /// # Panics
    ///
    /// Panics if no journal is open or a propagation cycle is active
    /// (abort the cycle first — see [`Network::abort_cycle`]).
    pub fn rollback_journal(&mut self) {
        self.rollback_journal_to(JournalMark { len: 0, segment: 1 });
        self.commit_journal();
    }

    /// Undoes every change journaled after `mark` by replaying those
    /// entries newest-first: variable pre-images are re-stored, added
    /// variables and constraints are popped from the arenas (and unwired),
    /// removed constraints are re-wired, and toggles are reverted. The
    /// journal stays open, positioned at `mark`. Entries are popped in
    /// place, so a rollback allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if no journal is open, `mark` lies past its end, or a
    /// propagation cycle is active (abort the cycle first — see
    /// [`Network::abort_cycle`]).
    pub fn rollback_journal_to(&mut self, mark: JournalMark) {
        assert!(self.state.is_none(), "cannot roll back mid-propagation");
        let mut j = self.journal.take().expect("no journal open");
        assert!(mark.len <= j.entries.len(), "mark past the journal's end");
        let mut structural = false;
        while j.entries.len() > mark.len {
            match j.entries.pop().expect("length checked") {
                JournalEntry::Value {
                    var,
                    value,
                    justification,
                } => {
                    j.seen[var.index()] = 0;
                    let s = &mut self.slots[var.index()];
                    s.value = value;
                    s.justification = justification;
                }
                JournalEntry::VarAdded => {
                    // Constraints wired to it were added later, hence
                    // already popped by their own entries. Popping recycles
                    // the id, so any plan cache keyed on it is stale.
                    self.vars.pop().expect("journal out of sync with arena");
                    self.slots.pop().expect("journal out of sync with arena");
                    structural = true;
                }
                JournalEntry::ConstraintAdded => {
                    let d = self
                        .constraints
                        .pop()
                        .expect("journal out of sync with arena");
                    let cid = ConstraintId(self.constraints.len() as u32);
                    // `d.args` is empty if the slot was already tombstoned
                    // (e.g. by add_constraint's own violation cleanup).
                    for a in d.args {
                        self.vars[a.index()].constraints.retain(|&c| c != cid);
                    }
                    // Any mark the popped constraint still held: its
                    // SubsumedChanged entries replayed before this pop (they
                    // were journaled later), so a remaining set bit can only
                    // come from an unjournaled flip — drop it with the slot.
                    if self.subsumed.get(cid.index()) == Some(&true) {
                        self.subsumed[cid.index()] = false;
                        self.n_subsumed -= 1;
                    }
                    structural = true;
                }
                JournalEntry::ConstraintRemoved {
                    cid,
                    args,
                    positions,
                } => {
                    // Re-wire in argument order: recorded positions are
                    // ascending per variable, so earlier insertions leave
                    // later recorded indices exact.
                    for (&a, &pos) in args.iter().zip(positions.iter()) {
                        self.vars[a.index()].constraints.insert(pos as usize, cid);
                    }
                    let d = &mut self.constraints[cid.index()];
                    d.args = args;
                    d.active = true;
                    structural = true;
                }
                JournalEntry::EnabledChanged { cid, was } => {
                    self.constraints[cid.index()].enabled = was;
                    structural = true;
                }
                JournalEntry::LimitChanged { was } => {
                    self.value_change_limit = was;
                }
                JournalEntry::SubsumedChanged { cid, was } => {
                    // Idempotent under double-replay with the cycle-level
                    // flip log: only adjust when the bit actually differs.
                    let ix = cid.index();
                    if self.subsumed.get(ix).copied().unwrap_or(false) != was {
                        self.subsumed[ix] = was;
                        if was {
                            self.n_subsumed += 1;
                        } else {
                            self.n_subsumed -= 1;
                        }
                    }
                }
            }
        }
        if structural {
            self.structure_generation += 1;
        }
        j.segment = mark.segment;
        self.journal = Some(j);
    }

    /// Records `var`'s pre-image in the open journal, once per variable
    /// and segment. Must run before the write. A single branch when no
    /// journal is open.
    #[inline]
    fn journal_record_value(&mut self, var: VarId) {
        if let Some(j) = &mut self.journal {
            let ix = var.index();
            if j.first_write(ix) {
                let s = &self.slots[ix];
                j.entries.push(JournalEntry::Value {
                    var,
                    value: s.value.clone(),
                    justification: s.justification.clone(),
                });
            }
        }
    }

    /// External assignment (`setTo:justification:`, Fig. 4.2): assigns
    /// `value` to `var`, triggers full constraint propagation, drains the
    /// agendas, and finally checks every visited constraint (Fig. 4.6).
    ///
    /// While propagation is disabled (§5.3) this is a plain store.
    ///
    /// # Errors
    ///
    /// On violation, every visited variable (including `var`) is restored
    /// to its pre-call state, handlers run, and the violation is returned.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside a constraint kind; kinds
    /// must use [`Network::propagate_set`].
    pub fn set(
        &mut self,
        var: VarId,
        value: Value,
        justification: Justification,
    ) -> Result<(), Violation> {
        assert!(
            self.state.is_none(),
            "Network::set is not re-entrant; constraint kinds must use propagate_set"
        );
        if let Justification::Propagated { constraint, .. } = &justification {
            // External setters use the symbolic justifications; forged
            // propagated records would corrupt dependency analysis (and an
            // id from another arena could index out of bounds).
            assert!(
                constraint.index() < self.constraints.len(),
                "Propagated justification references an unknown constraint; \
                 external assignments should use User/Application/… instead"
            );
        }
        if !self.enabled {
            self.assign_raw(var, value, justification);
            return Ok(());
        }
        // Fast path: replay this root's compiled propagation plan instead of
        // pumping the agenda machinery. A step budget forces the agenda path
        // (budget accounting is a per-step interpreter concern).
        if self.plan_caching && self.step_limit.is_none() {
            if let Some(mut plan) = self.plan_for(var) {
                if self.parallel_threads > 1 {
                    // Kernels neither prune subsumed constraints nor
                    // revalidate subsumption watchers on widening writes,
                    // so they run only while no mark is live (they cannot
                    // create one: marks come from `infer`).
                    if plan.par.is_some()
                        && self.n_subsumed == 0
                        && self.run_plan_parallel(var, &value, &justification, &mut plan)
                    {
                        self.plans[var.index()] = PlanSlot::Ready(plan);
                        return Ok(());
                    }
                    // No partition was admitted at compile time, a
                    // subsumption mark is live, or the kernel attempt
                    // aborted (overwrite denial, final-check violation):
                    // the sequential replay below is the ground truth and
                    // reproduces the exact outcome.
                    self.par_stats.parallel_fallbacks += 1;
                }
                return self.run_plan(var, value, justification, plan);
            }
        }
        self.begin_cycle(false);
        self.save_visited(var);
        self.pin_root(var);
        self.assign_raw(var, value, justification);
        self.push_activations(var, None);
        let result = self.run_cycle();
        self.finish_cycle(result)
    }

    /// Tentative validity probe (`canBeSetTo:`, Fig. 8.2): assigns `value`
    /// with [`Justification::Tentative`], propagates, then restores all
    /// visited variables unconditionally. Returns whether propagation
    /// completed without violation. Handlers are not notified.
    ///
    /// While propagation is disabled this always returns `true`.
    pub fn can_be_set_to(&mut self, var: VarId, value: Value) -> bool {
        assert!(self.state.is_none(), "can_be_set_to is not re-entrant");
        if !self.enabled {
            return true;
        }
        self.begin_cycle(true);
        self.save_visited(var);
        self.pin_root(var);
        self.assign_raw(var, value, Justification::Tentative);
        self.push_activations(var, None);
        let mut result = self.run_cycle();
        if result.is_ok() {
            result = self.final_check();
        }
        // Always restore (Fig. 8.2: "propagate, then restore prev values").
        let state = self.state.take().expect("cycle active");
        self.restore(&state);
        self.scheduler.clear();
        self.retire_state(state);
        if result.is_err() {
            self.stats.violations += 1;
        }
        result.is_ok()
    }

    /// Overwrite arbitration for one propagated write. Variables carrying
    /// the default behaviour take a statically dispatched fast path (the
    /// cached `plain_kind` verdict); custom kinds go through the virtual
    /// call — without cloning the kind handle, since `overwrite` only
    /// needs a shared borrow.
    fn overwrite_decision(&self, var: VarId, value: &Value, source: ConstraintId) -> Overwrite {
        let d = &self.vars[var.index()];
        if d.plain_kind {
            PlainKind.overwrite(self, var, value, Some(source))
        } else {
            d.kind.overwrite(self, var, value, Some(source))
        }
    }

    /// Propagated assignment (`setTo:constraint:justification:`, Fig. 4.3),
    /// called by constraint kinds from `infer`. Applies the termination
    /// criteria of §4.2.2:
    ///
    /// 1. equal value → [`SetStatus::Unchanged`], propagation stops here;
    /// 2. already visited with a different value → revisit violation
    ///    (the one-value-change rule);
    /// 3. the variable kind may `Deny` (violation) or `Ignore` (silent
    ///    keep) the overwrite;
    ///
    /// otherwise the value is assigned and the variable's other constraints
    /// are activated.
    ///
    /// # Errors
    ///
    /// Returns the violation for cases 2 and 3; the caller should abort
    /// (`?`) so the engine can restore.
    ///
    /// # Panics
    ///
    /// Panics if no propagation cycle is active.
    pub fn propagate_set(
        &mut self,
        var: VarId,
        value: Value,
        source: ConstraintId,
        record: DependencyRecord,
    ) -> Result<SetStatus, Violation> {
        let planned = self
            .state
            .as_ref()
            .expect("propagate_set outside a propagation cycle")
            .planned;
        let current_is_nil = {
            let current = &self.slots[var.index()].value;
            if *current == value {
                return Ok(SetStatus::Unchanged);
            }
            current.is_nil()
        };
        if planned {
            // Plan-driven cycle: the cone is statically single-writer and
            // the root is never a write target, so the revisit rule cannot
            // trigger — skip its hash-map bookkeeping. Overwrite arbitration
            // still applies (it guards justification strength, not
            // revisits).
            if !current_is_nil {
                match self.overwrite_decision(var, &value, source) {
                    Overwrite::Deny => {
                        return Err(Violation::overwrite_denied(var, Some(source), value))
                    }
                    Overwrite::Ignore => return Ok(SetStatus::Ignored),
                    Overwrite::Allow => {}
                }
            }
            // A non-refining (widening) write may break the entailment
            // witness of a subsumption mark watching this variable; decide
            // before the borrow below takes `slots`.
            let must_revalidate = self.n_subsumed != 0
                && !crate::domain::refines(&self.slots[var.index()].value, &value);
            // Single split borrow for the whole write: pre-image save,
            // journal record, assignment, and the change mark that makes
            // downstream plan steps live. (Unchanged/Ignored outcomes
            // return above and leave the mark unset — that is the value
            // pruning.) No discovery: the plan already fixed the
            // activation order.
            let Network {
                slots,
                state,
                journal,
                stats,
                ..
            } = self;
            let st = state.as_mut().expect("cycle active");
            let s = &mut slots[var.index()];
            st.visited_list.push((
                var,
                SavedVar {
                    value: s.value.clone(),
                    justification: s.justification.clone(),
                },
            ));
            st.var_marks[var.index()] = st.mark_epoch;
            if let Some(j) = journal {
                if j.first_write(var.index()) {
                    j.entries.push(JournalEntry::Value {
                        var,
                        value: s.value.clone(),
                        justification: s.justification.clone(),
                    });
                }
            }
            s.value = value;
            s.justification = Justification::Propagated {
                constraint: source,
                record,
            };
            stats.assignments += 1;
            if must_revalidate {
                self.revalidate_subsumed_watchers(var);
            }
            return Ok(SetStatus::Changed);
        }
        // Domain refinement is exempt from the one-value-change rule: a
        // fixpoint propagator narrows a variable many times per cycle, and
        // termination holds anyway because every refining write strictly
        // shrinks a finite domain (equal values return `Unchanged` above).
        let refining = crate::domain::refines(&self.slots[var.index()].value, &value);
        // One-value-change rule: a visited variable may not change its
        // (non-Nil) value again — or, when the limit is relaxed per §9.2.3,
        // not more than `value_change_limit` times. Filling in a Nil is a
        // first assignment, not a change — variables "can change value to
        // or from NIL freely" (Fig. 7.4), which is also what lets
        // re-initialisation (Fig. 4.13) seed all arguments as visited
        // before propagating them.
        if !current_is_nil && !refining {
            let st = self.state.as_ref().expect("cycle active");
            if st.visited_vars.contains_key(&var) {
                let changes = st.change_counts.get(&var).copied().unwrap_or(0);
                if changes >= self.value_change_limit {
                    return Err(Violation::revisit(var, source, value));
                }
            }
        }
        if !current_is_nil {
            match self.overwrite_decision(var, &value, source) {
                Overwrite::Deny => {
                    return Err(Violation::overwrite_denied(var, Some(source), value))
                }
                Overwrite::Ignore => return Ok(SetStatus::Ignored),
                Overwrite::Allow => {}
            }
        }
        self.save_visited(var);
        if !current_is_nil && !refining {
            *self
                .state
                .as_mut()
                .expect("cycle active")
                .change_counts
                .entry(var)
                .or_insert(0) += 1;
        }
        self.assign_raw(
            var,
            value,
            Justification::Propagated {
                constraint: source,
                record,
            },
        );
        self.push_activations(var, Some(source));
        Ok(SetStatus::Changed)
    }

    // ------------------------------------------------------------------
    // Propagation plans (network compilation of the dynamic path, §9.3)
    // ------------------------------------------------------------------

    /// Enables or disables plan-cached propagation. Disabling also drops
    /// every cached plan, so a re-enable starts cold — the knob the
    /// differential tests use to force the agenda ground truth.
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn set_plan_caching(&mut self, on: bool) {
        assert!(self.state.is_none(), "cannot toggle mid-propagation");
        self.plan_caching = on;
        if !on {
            self.drop_all_plans();
        }
    }

    /// Whether plan-cached propagation is enabled.
    pub fn is_plan_caching(&self) -> bool {
        self.plan_caching
    }

    /// Sets the replay thread budget. `1` (the default) keeps every
    /// replay on the sequential interpreter; above 1, plan compilation
    /// also lowers each plan to pure kernels partitioned into
    /// independent cones, and replay runs them inline or on a shared
    /// worker pool (see [`Network::set_parallel_min_steps`]). Values are
    /// clamped to at least 1. Changing the budget drops all cached plans
    /// so partitions are (re)built consistently.
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn set_parallel_threads(&mut self, threads: usize) {
        assert!(self.state.is_none(), "cannot toggle mid-propagation");
        let threads = threads.max(1);
        if threads != self.parallel_threads {
            self.parallel_threads = threads;
            self.drop_all_plans();
        }
    }

    /// The replay thread budget ([`Network::set_parallel_threads`]).
    pub fn parallel_threads(&self) -> usize {
        self.parallel_threads
    }

    /// Sets the per-task cost floor for the worker pool: a kernel replay
    /// whose costliest cone executes fewer steps (immediate and
    /// drain-phase inferences) than this runs its kernels inline on the
    /// calling thread, where pool hand-off would cost more than the
    /// cones save. The partition is kept either way, so changing the
    /// floor drops no cached plans. Default 1,024, the measured
    /// crossover on a 2-vCPU host (DESIGN §5h).
    ///
    /// # Panics
    ///
    /// Panics if called during an active propagation cycle.
    pub fn set_parallel_min_steps(&mut self, min_steps: usize) {
        assert!(self.state.is_none(), "cannot toggle mid-propagation");
        self.par_min_steps = min_steps;
    }

    /// The per-task pool floor ([`Network::set_parallel_min_steps`]).
    pub fn parallel_min_steps(&self) -> usize {
        self.par_min_steps
    }

    /// Number of cones in `var`'s cached kernel partition: `None` if
    /// there is no current plan or the plan has no partition (a kind
    /// without a kernel, or a non-plain write target). Exposed for tests
    /// and benches to assert which path a replay takes.
    pub fn plan_parallel_cones(&self, var: VarId) -> Option<usize> {
        self.plan_par_detail(var).map(|d| d.cones)
    }

    /// Diagnostic detail for `var`'s cached kernel partition, for the
    /// inspector: cone count and the executing-step width of the
    /// costliest cone. `None` when there is no current partitioned plan.
    pub fn plan_par_detail(&self, var: VarId) -> Option<PlanParDetail> {
        match self.plans.get(var.index()) {
            Some(PlanSlot::Ready(p)) if p.generation == self.structure_generation => {
                p.par.as_ref().map(|pp| PlanParDetail {
                    cones: pp.cones.len(),
                    max_task_exec: pp.max_task_exec as usize,
                })
            }
            _ => None,
        }
    }

    /// The plan-cache entry for `var`, accounting for staleness: a stale
    /// entry (compiled under an older structure generation) reads as
    /// [`PlanStatus::NotCompiled`].
    pub fn plan_status(&self, var: VarId) -> PlanStatus {
        match self.plans.get(var.index()) {
            Some(PlanSlot::Ready(p)) if p.generation == self.structure_generation => {
                PlanStatus::Ready {
                    steps: p.ops.len(),
                    checks: p.n_checks as usize,
                }
            }
            Some(PlanSlot::Uncompilable(g)) if *g == self.structure_generation => {
                PlanStatus::Uncompilable
            }
            _ => PlanStatus::NotCompiled,
        }
    }

    /// Monotone counter of structural edits; a compiled plan is valid only
    /// while this matches the generation it was compiled under. Exposed for
    /// invalidation tests.
    pub fn structure_generation(&self) -> u64 {
        self.structure_generation
    }

    /// Drops every cached plan and subscription without counting
    /// invalidations — the knob-change path (thread budget, size floor,
    /// caching off), where the drop is a reconfiguration, not a
    /// structural edit.
    fn drop_all_plans(&mut self) {
        self.plans.clear();
        self.plan_subs.clear();
        self.plan_tokens.clear();
    }

    /// Evicts the cached plan (or `Uncompilable` memo) of every root
    /// subscribed to any of `touched` — the O(touched) replacement for
    /// the global generation bump on structural edits. The whole
    /// subscription list of a touched variable drains: every live
    /// subscriber must die, and stale tokens are garbage to drop anyway.
    fn invalidate_plans_touching(&mut self, touched: &[VarId]) {
        if !self.plan_caching {
            return;
        }
        for &v in touched {
            let Some(list) = self.plan_subs.get_mut(v.index()) else {
                continue;
            };
            for (root, token) in std::mem::take(list) {
                let rix = root as usize;
                if self.plan_tokens.get(rix).copied() != Some(token) {
                    continue; // stale subscription from an evicted plan
                }
                self.plan_tokens[rix] = 0;
                if let Some(slot @ (PlanSlot::Ready(_) | PlanSlot::Uncompilable(_))) =
                    self.plans.get_mut(rix)
                {
                    *slot = PlanSlot::Absent;
                    self.stats.plan_cache_invalidations += 1;
                }
            }
        }
    }

    /// Registers `root`'s freshly compiled (or refused) plan against its
    /// footprint, so a structural edit touching any footprint variable
    /// evicts it. Per-variable lists dedup by root, bounding their length
    /// by the number of live subscribing roots.
    fn subscribe_plan(&mut self, root: VarId, footprint: &mut Vec<VarId>) {
        let token = self.next_plan_token;
        self.next_plan_token += 1;
        let rix = root.index();
        if self.plan_tokens.len() <= rix {
            self.plan_tokens.resize(rix + 1, 0);
        }
        self.plan_tokens[rix] = token;
        footprint.sort_unstable();
        footprint.dedup();
        for &v in footprint.iter() {
            let ix = v.index();
            if self.plan_subs.len() <= ix {
                self.plan_subs.resize_with(ix + 1, Vec::new);
            }
            let list = &mut self.plan_subs[ix];
            match list.iter_mut().find(|(r, _)| *r as usize == rix) {
                Some(e) => e.1 = token,
                None => list.push((rix as u32, token)),
            }
        }
    }

    /// Looks up (or compiles) the propagation plan for `var`, moving a
    /// ready plan out of its slot — [`Network::run_plan`] puts it back.
    /// `None` means the cone is uncompilable: take the agenda path.
    fn plan_for(&mut self, var: VarId) -> Option<Box<PropPlan>> {
        let ix = var.index();
        if ix >= self.plans.len() {
            self.plans.resize_with(ix + 1, || PlanSlot::Absent);
        }
        match &self.plans[ix] {
            PlanSlot::Uncompilable(g) if *g == self.structure_generation => return None,
            PlanSlot::Ready(p) if p.generation == self.structure_generation => {
                self.stats.plan_cache_hits += 1;
                let PlanSlot::Ready(p) = std::mem::replace(&mut self.plans[ix], PlanSlot::Absent)
                else {
                    unreachable!("matched Ready above");
                };
                return Some(p);
            }
            PlanSlot::Absent => {}
            _ => {
                // A cached verdict from an older generation (an agenda
                // redefinition or structural rollback bumped the global
                // counter): discard it.
                self.stats.plan_cache_invalidations += 1;
                self.plans[ix] = PlanSlot::Absent;
                if let Some(t) = self.plan_tokens.get_mut(ix) {
                    *t = 0;
                }
            }
        }
        self.stats.plan_compiles += 1;
        let (plan, mut footprint) = self.compile_plan(var);
        // Subscribe even a refusal: an edit touching what the simulation
        // dispatched may flip the verdict, so the memo must die with it.
        self.subscribe_plan(var, &mut footprint);
        match plan {
            // A fresh compile is not a cache hit; the plan lands in the
            // slot after this first execution.
            Some(plan) => Some(Box::new(plan)),
            None => {
                self.plans[ix] = PlanSlot::Uncompilable(self.structure_generation);
                None
            }
        }
    }

    /// Compiles the consequence-closure of `root` into a flat plan by
    /// simulating the agenda interpreter's discovery under the all-change
    /// assumption (every planned write is treated as a value change).
    ///
    /// Refuses (`None`) whenever replay could diverge from the interpreter:
    ///
    /// - a dispatched kind does not implement
    ///   [`ConstraintKind::planned_writes`] (write-set unknown statically);
    /// - a write targets the root or an already-written variable
    ///   (multi-writer cones re-order under runtime value pruning, and the
    ///   root pin / one-value-change rule needs per-step bookkeeping);
    /// - a duplicate schedule attempt occurs after the drain phase has
    ///   begun (cross-scheduled dataflow: runtime pruning could change
    ///   which sighting wins the dedup, re-ordering the drain);
    /// - the simulation exceeds a safety cap on steps.
    ///
    /// Alongside the verdict, returns the *footprint*: the root plus the
    /// arguments of every constraint the simulation dispatched — the
    /// variables a structural edit must touch to change this plan's
    /// shape. Collected on refusals too (the partial footprint covers
    /// everything the refusal depended on), with one conservative gap:
    /// a cap-exceeded refusal can also be flipped by *growing* the
    /// network elsewhere (the cap scales with constraint count), which
    /// no footprint captures; such a memo persists until a footprint
    /// edit or a global bump — a missed optimization, never an error.
    fn compile_plan(&self, root: VarId) -> (Option<PropPlan>, Vec<VarId>) {
        let mut footprint = vec![root];
        let plan = self.compile_plan_inner(root, &mut footprint);
        (plan, footprint)
    }

    fn compile_plan_inner(&self, root: VarId, footprint: &mut Vec<VarId>) -> Option<PropPlan> {
        let cap = 64 + 8 * self.constraints.len();
        let mut ops: Vec<PlanOp> = Vec::new();
        let mut cids: Vec<ConstraintId> = Vec::new();
        let mut changed: Vec<Option<VarId>> = Vec::new();
        let mut kinds: Vec<Rc<dyn ConstraintKind>> = Vec::new();
        let mut entry_of: Vec<u32> = Vec::new();
        // Simulated agenda entries, mirroring the scheduler's dedup domain:
        // a sighting dedups only against a *queued* (un-popped) entry with
        // the same `(constraint, variable)` key; once popped, a later
        // sighting opens a fresh entry with its own liveness index.
        let mut entries: Vec<((ConstraintId, Option<VarId>), bool)> = Vec::new();
        let live_entry = |entries: &[((ConstraintId, Option<VarId>), bool)],
                          key: (ConstraintId, Option<VarId>)| {
            entries.iter().rposition(|(k, popped)| *k == key && !popped)
        };
        let mut checks_seen: std::collections::HashSet<ConstraintId> =
            std::collections::HashSet::new();
        // Footprint dedup: a constraint's args enter the footprint once,
        // on its first sighting — a fan-in hub is encountered once per
        // input, and extending per encounter would cost O(fan²) pushes.
        let mut fp_seen = vec![false; self.constraints.len()];
        let mut written: Vec<VarId> = vec![root];
        let mut pending: Vec<(ConstraintId, VarId)> = Vec::new();
        // The cloned scheduler is empty (agendas never leak between
        // cycles) but keeps the declared priorities, so the simulated
        // drain order matches the interpreter's exactly.
        let mut sched = self.scheduler.clone();
        let mut ran_scheduled = false;
        for &cid in self.vars[root.index()].constraints.iter().rev() {
            pending.push((cid, root));
        }
        loop {
            if ops.len() > cap {
                return None;
            }
            // Mirror `run_cycle`: drain the depth-first stack, then the
            // agendas by priority.
            if let Some((cid, cvar)) = pending.pop() {
                // Mirror `dispatch`.
                let d = &self.constraints[cid.index()];
                if !d.active || !d.enabled {
                    continue;
                }
                if !std::mem::replace(&mut fp_seen[cid.index()], true) {
                    footprint.extend_from_slice(&d.args);
                }
                let kind = Rc::clone(&d.kind);
                let writes = kind.planned_writes(self, cid, Some(cvar))?;
                checks_seen.insert(cid);
                if !kind.should_activate(self, cid, cvar) {
                    ops.push(PlanOp::NoActivate);
                    cids.push(cid);
                    changed.push(Some(cvar));
                    kinds.push(kind);
                    entry_of.push(u32::MAX);
                    continue;
                }
                match kind.activation() {
                    Activation::Immediate => {
                        ops.push(PlanOp::Immediate);
                        cids.push(cid);
                        changed.push(Some(cvar));
                        kinds.push(Rc::clone(&kind));
                        entry_of.push(u32::MAX);
                        for &w in &writes {
                            if w == root || written.contains(&w) {
                                return None; // multi-writer cone
                            }
                            written.push(w);
                            for &c2 in self.vars[w.index()].constraints.iter().rev() {
                                if c2 != cid {
                                    pending.push((c2, w));
                                }
                            }
                        }
                    }
                    Activation::Scheduled(agenda) => {
                        let entry_var = kind.schedules_with_variable().then_some(cvar);
                        let key = (cid, entry_var);
                        if sched.schedule(agenda, cid, entry_var) {
                            ops.push(PlanOp::ScheduleNew);
                            entries.push((key, false));
                            entry_of.push((entries.len() - 1) as u32);
                        } else {
                            if ran_scheduled {
                                return None; // cross-scheduled dataflow
                            }
                            ops.push(PlanOp::ScheduleDup);
                            let e = live_entry(&entries, key).expect("dup implies queued entry");
                            entry_of.push(e as u32);
                        }
                        cids.push(cid);
                        changed.push(Some(cvar));
                        kinds.push(kind);
                    }
                }
            } else if let Some((cid, entry_var)) = sched.pop_highest() {
                // Constraints stay active/enabled mid-simulation (edits are
                // barred mid-cycle and invalidate the plan otherwise), so
                // the interpreter's liveness re-check is vacuous here.
                ran_scheduled = true;
                if !std::mem::replace(&mut fp_seen[cid.index()], true) {
                    footprint.extend_from_slice(&self.constraints[cid.index()].args);
                }
                let kind = Rc::clone(&self.constraints[cid.index()].kind);
                let writes = kind.planned_writes(self, cid, entry_var)?;
                let e = live_entry(&entries, (cid, entry_var)).expect("pop implies queued entry");
                entries[e].1 = true;
                ops.push(PlanOp::RunScheduled);
                cids.push(cid);
                changed.push(entry_var);
                kinds.push(kind);
                entry_of.push(e as u32);
                for &w in &writes {
                    if w == root || written.contains(&w) {
                        return None;
                    }
                    written.push(w);
                    for &c2 in self.vars[w.index()].constraints.iter().rev() {
                        if c2 != cid {
                            pending.push((c2, w));
                        }
                    }
                }
            } else {
                break;
            }
        }
        let mut plan = PropPlan {
            generation: self.structure_generation,
            ops,
            cids,
            changed,
            kinds,
            entry_of,
            n_entries: entries.len() as u32,
            n_checks: checks_seen.len() as u32,
            par: None,
        };
        if self.parallel_threads > 1 {
            // Kernel lowering is only worth the compile cost when a
            // thread budget asks for it; the sequential plan is complete
            // without it.
            plan.par = par::build_par(self, root, &plan);
        }
        Some(plan)
    }

    /// Executes a compiled plan: assigns the root, replays the recorded
    /// steps (no discovery, no queues, no hashing), sweeps the visited
    /// constraints, and commits or restores — observationally equivalent
    /// to the agenda path on plannable cones, including the statistics.
    ///
    /// The plan is the *all-change* superset of the interpreter's work;
    /// replay recovers the interpreter's value pruning exactly through the
    /// epoch-stamped change marks: a step runs only if its trigger
    /// variable actually changed this cycle (for drain-phase runs, only if
    /// some schedule sighting of its agenda entry was live). A region the
    /// interpreter would never have reached — e.g. one holding a
    /// pre-existing inconsistency behind an unchanged variable — is
    /// skipped here too, neither re-propagated nor swept.
    fn run_plan(
        &mut self,
        var: VarId,
        value: Value,
        justification: Justification,
        plan: Box<PropPlan>,
    ) -> Result<(), Violation> {
        self.begin_cycle(false);
        let epoch = {
            // `planned` routes `propagate_set` to the flat bookkeeping;
            // `compiled` suppresses activation discovery.
            let n_vars = self.vars.len();
            let n_cids = self.constraints.len();
            let st = self.state.as_mut().expect("cycle active");
            st.planned = true;
            st.compiled = true;
            st.mark_epoch = st.mark_epoch.wrapping_add(1);
            if st.mark_epoch == 0 {
                // Epoch wrapped: stale stamps could read as current, so
                // reset the tables once every 2^32 planned cycles.
                st.var_marks.iter_mut().for_each(|m| *m = 0);
                st.cid_marks.iter_mut().for_each(|m| *m = 0);
                st.entry_marks.iter_mut().for_each(|m| *m = 0);
                st.mark_epoch = 1;
            }
            // Growth-only resizes: allocation happens while the tables
            // warm up to the network's size, then never again.
            if st.var_marks.len() < n_vars {
                st.var_marks.resize(n_vars, 0);
            }
            if st.cid_marks.len() < n_cids {
                st.cid_marks.resize(n_cids, 0);
            }
            if st.entry_marks.len() < plan.n_entries as usize {
                st.entry_marks.resize(plan.n_entries as usize, 0);
            }
            st.mark_epoch
        };
        self.save_visited_planned(var);
        self.assign_raw(var, value, justification);
        {
            // The externally assigned root always dispatches its cone
            // (`set` pushes activations unconditionally, equal value or
            // not), so it is live by fiat.
            let st = self.state.as_mut().expect("cycle active");
            st.var_marks[var.index()] = epoch;
        }
        let mut result = Ok(());
        // Zipped slice walk: the plan is owned (moved out of its slot), so
        // iterating it borrows nothing from `self` and the per-step
        // arena-style indexing — and its bounds checks — disappears.
        let steps = plan
            .ops
            .iter()
            .zip(&plan.cids)
            .zip(&plan.changed)
            .zip(&plan.kinds)
            .zip(&plan.entry_of);
        for ((((&op, &cid), &chg), kind), &entry) in steps {
            if op == PlanOp::RunScheduled {
                let st = self.state.as_mut().expect("cycle active");
                if st.entry_marks[entry as usize] != epoch {
                    continue; // never actually scheduled this cycle
                }
                // Marked subsumed after its schedule sighting: prune at
                // drain time, mirroring the agenda pop-arm skip.
                if self.n_subsumed != 0 && self.subsumed.get(cid.index()).copied().unwrap_or(false)
                {
                    self.stats.subsumed_pruned += 1;
                    continue;
                }
                self.stats.scheduled_runs += 1;
                self.stats.inferences += 1;
                result = kind.infer(self, cid, chg);
            } else {
                let trigger = chg.expect("activation steps carry their trigger");
                let st = self.state.as_mut().expect("cycle active");
                if st.var_marks[trigger.index()] != epoch {
                    continue; // value-pruned: the interpreter never dispatches
                }
                // Runtime-subsumed: prune before the visited record and
                // activation count, exactly where `dispatch` prunes.
                if self.n_subsumed != 0 && self.subsumed.get(cid.index()).copied().unwrap_or(false)
                {
                    self.stats.subsumed_pruned += 1;
                    continue;
                }
                let st = self.state.as_mut().expect("cycle active");
                let cix = cid.index();
                if st.cid_marks[cix] != epoch {
                    st.cid_marks[cix] = epoch;
                    st.visited_constraints.push(cid);
                }
                self.stats.activations += 1;
                match op {
                    PlanOp::Immediate => {
                        self.stats.inferences += 1;
                        result = kind.infer(self, cid, Some(trigger));
                    }
                    PlanOp::NoActivate => {}
                    _ => {
                        // Schedule sighting: the first live one per agenda
                        // entry is the enqueue (and unlocks the entry's
                        // drain-phase run); later live ones are dedups.
                        if st.entry_marks[entry as usize] != epoch {
                            st.entry_marks[entry as usize] = epoch;
                            self.stats.schedules += 1;
                        }
                    }
                }
            }
            if result.is_err() {
                break;
            }
        }
        let result = result.and_then(|()| self.final_check());
        let state = self.state.take().expect("cycle active");
        let out = match result {
            Ok(()) => Ok(()),
            Err(v) => {
                self.restore(&state);
                // Nothing was queued, so the agendas need no clearing.
                self.stats.violations += 1;
                if !state.silent {
                    let handlers = self.handlers.clone();
                    for h in &handlers {
                        h(self, &v);
                    }
                }
                Err(v)
            }
        };
        self.retire_state(state);
        self.plans[var.index()] = PlanSlot::Ready(plan);
        out
    }

    /// Records `var`'s pre-image on the flat planned-cycle list. Plans are
    /// single-writer, so each variable is pushed at most once — no probe,
    /// no hashing.
    fn save_visited_planned(&mut self, var: VarId) {
        let Network { slots, state, .. } = self;
        let st = state.as_mut().expect("cycle active");
        let s = &slots[var.index()];
        st.visited_list.push((
            var,
            SavedVar {
                value: s.value.clone(),
                justification: s.justification.clone(),
            },
        ));
    }

    /// Replays `plan` through its cone kernels: writes the root, runs
    /// the cones ([`crate::par`]), tests the visited constraints no
    /// kernel established in sequential visit order, and commits
    /// (journal entries, statistics) on success. Returns `false` — with
    /// *every* write restored — whenever the replay would deviate from
    /// the sequential outcome (an overwrite denial inside a cone, or an
    /// unsatisfied visited constraint): the caller then falls back to
    /// [`Network::run_plan`], which reproduces the violation, its
    /// statistics and its handler calls exactly.
    ///
    /// The cones run on the worker pool only when the costliest one
    /// executes at least [`Network::set_parallel_min_steps`] steps;
    /// otherwise they run inline on this thread — same kernels, same
    /// counters, no hand-off latency.
    fn run_plan_parallel(
        &mut self,
        root: VarId,
        value: &Value,
        justification: &Justification,
        plan: &mut PropPlan,
    ) -> bool {
        debug_assert!(self.state.is_none(), "kernel replay outside a cycle");
        // Root pre-image and write, mirroring `assign_raw`'s journal-first
        // order. The root entry is harmless if we abort: its pre-image is
        // exact, and the sequential rerun's first-write dedup skips it.
        self.journal_record_value(root);
        let (root_pre_value, root_pre_just) = {
            let s = &mut self.slots[root.index()];
            (
                std::mem::replace(&mut s.value, value.clone()),
                std::mem::replace(&mut s.justification, justification.clone()),
            )
        };
        let par_plan = plan.par.as_mut().expect("caller checked partition");
        let threads = if (par_plan.max_task_exec as usize) < self.par_min_steps {
            1
        } else {
            self.parallel_threads
        };
        par_plan.replay(&mut self.slots, threads);
        // Merged final check over what the kernels left unproven. A
        // marked constraint needs no test: nothing can change one of its
        // arguments later in the replay without a later live step of the
        // same constraint, which clears the mark (DESIGN §5h).
        let ok = !par_plan.failed()
            && par_plan.pending_checks().iter().all(|&(_, cid)| {
                let d = &self.constraints[cid.index()];
                !d.active || !d.enabled || d.kind.is_satisfied(self, cid)
            });
        if !ok {
            par_plan.undo(&mut self.slots);
            let s = &mut self.slots[root.index()];
            s.value = root_pre_value;
            s.justification = root_pre_just;
            return false;
        }
        // Commit: drain the pre-images into the journal in cone order
        // (plan order; first-write-wins, the same inline journaling
        // `propagate_set` performs) and fold the counters into the
        // statistics at the same totals the sequential replay would have
        // produced.
        let mut assignments = 1; // the root write
        for cone in &mut par_plan.cones {
            let c = cone.scratch.counters;
            self.stats.activations += c.activations;
            self.stats.inferences += c.inferences;
            self.stats.schedules += c.schedules;
            self.stats.scheduled_runs += c.scheduled_runs;
            assignments += c.assignments;
            for (wvar, wvalue, wjust) in cone.scratch.pre.drain(..) {
                if let Some(j) = &mut self.journal {
                    if j.first_write(wvar.index()) {
                        j.entries.push(JournalEntry::Value {
                            var: wvar,
                            value: wvalue,
                            justification: wjust,
                        });
                    }
                }
            }
        }
        self.stats.assignments += assignments;
        self.stats.cycles += 1;
        self.par_stats.plan_replays_parallel += 1;
        self.par_stats.cones_executed += par_plan.cones.len() as u64;
        true
    }

    // ------------------------------------------------------------------
    // Engine internals
    // ------------------------------------------------------------------

    fn assign_raw(&mut self, var: VarId, value: Value, justification: Justification) {
        self.journal_record_value(var);
        // A non-refining (widening) write may break the entailment witness
        // of a subsumption mark watching this variable.
        let widened =
            self.n_subsumed != 0 && !crate::domain::refines(&self.slots[var.index()].value, &value);
        let s = &mut self.slots[var.index()];
        s.value = value;
        s.justification = justification;
        self.stats.assignments += 1;
        if widened {
            self.revalidate_subsumed_watchers(var);
        }
    }

    /// Marks the externally assigned root of a cycle as having consumed
    /// its full change budget: propagation must never overwrite the value
    /// the user just set (this is what turns the Fig. 4.9 cycle into a
    /// violation at the first wrap-around).
    fn pin_root(&mut self, var: VarId) {
        let limit = self.value_change_limit;
        self.state
            .as_mut()
            .expect("cycle active")
            .change_counts
            .insert(var, limit);
    }

    /// Charges one propagation step against the cycle's budget.
    fn charge_step(&mut self) -> Result<(), Violation> {
        let st = self.state.as_mut().expect("cycle active");
        st.steps += 1;
        match self.step_limit {
            Some(limit) if st.steps > limit => Err(Violation::budget_exceeded(limit)),
            _ => Ok(()),
        }
    }

    fn save_visited(&mut self, var: VarId) {
        // Split borrow: the saved pre-image reads `vars` while the visited
        // map lives in `state`; probing before building the entry keeps
        // re-visits clone-free.
        let Network { slots, state, .. } = self;
        let st = state.as_mut().expect("cycle active");
        if st.visited_vars.contains_key(&var) {
            return;
        }
        let s = &slots[var.index()];
        st.visited_vars.insert(
            var,
            SavedVar {
                value: s.value.clone(),
                justification: s.justification.clone(),
            },
        );
    }

    /// Pushes `(constraint, var)` activations for every constraint of
    /// `var` except `exclude` (the source that just set it, Fig. 4.3), in
    /// reverse list order so the stack pops them first-to-last — the
    /// depth-first traversal of §4.2.
    fn push_activations(&mut self, var: VarId, exclude: Option<ConstraintId>) {
        // Split borrow: read the variable's constraint list straight out of
        // `vars` while pushing onto the stack in `state` — no clone of the
        // list on this per-assignment path.
        let Network { vars, state, .. } = self;
        let st = state.as_mut().expect("cycle active");
        if st.compiled {
            // Straight-line compiled execution evaluates constraints in a
            // precomputed order; no discovery.
            return;
        }
        for &cid in vars[var.index()].constraints.iter().rev() {
            if Some(cid) != exclude {
                st.pending.push((cid, var));
            }
        }
    }

    fn begin_cycle(&mut self, silent: bool) {
        debug_assert!(self.scheduler.is_empty(), "agendas leaked between cycles");
        // Reuse the previous cycle's (recycled) state so steady-state
        // propagation never reallocates its hash maps and stacks.
        let mut st = std::mem::take(&mut self.spare_state);
        st.silent = silent;
        self.state = Some(st);
        // The flip log is cycle-scoped: `restore` un-flips exactly the
        // subsumption marks this cycle records.
        self.subsumed_flips.clear();
        self.stats.cycles += 1;
    }

    /// Returns a finished cycle's state to the pool, dropping its contents
    /// but keeping allocated capacity for the next cycle.
    fn retire_state(&mut self, mut state: PropState) {
        state.recycle();
        self.spare_state = state;
    }

    /// Drains the depth-first stack, then the agendas by priority, until
    /// both are exhausted (the loop of Fig. 4.8).
    fn run_cycle(&mut self) -> Result<(), Violation> {
        loop {
            let next = self.state.as_mut().expect("cycle active").pending.pop();
            if let Some((cid, var)) = next {
                self.dispatch(cid, var)?;
            } else if let Some((cid, var)) = self.scheduler.pop_highest() {
                {
                    let d = &self.constraints[cid.index()];
                    if !d.active || !d.enabled {
                        continue;
                    }
                }
                // Subsumed after being scheduled: prune at pop time, the
                // same point the planned drain phase prunes.
                if self.n_subsumed != 0 && self.subsumed.get(cid.index()).copied().unwrap_or(false)
                {
                    self.stats.subsumed_pruned += 1;
                    continue;
                }
                self.charge_step()?;
                self.stats.scheduled_runs += 1;
                self.stats.inferences += 1;
                let kind = Rc::clone(&self.constraints[cid.index()].kind);
                kind.infer(self, cid, var)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Delivers one `propagateVariable:` activation.
    fn dispatch(&mut self, cid: ConstraintId, changed: VarId) -> Result<(), Violation> {
        {
            let d = &self.constraints[cid.index()];
            if !d.active || !d.enabled {
                return Ok(());
            }
        }
        // Runtime-subsumed constraints are entailed: skip before any
        // step/activation accounting so planned replay (which prunes at
        // the same point) reports byte-identical statistics.
        if self.n_subsumed != 0 && self.subsumed.get(cid.index()).copied().unwrap_or(false) {
            self.stats.subsumed_pruned += 1;
            return Ok(());
        }
        self.charge_step()?;
        self.stats.activations += 1;
        {
            let st = self.state.as_mut().expect("cycle active");
            if st.visited_cset.insert(cid) {
                st.visited_constraints.push(cid);
            }
        }
        // `Rc::clone` of the kind handle: a refcount bump, not a clone of
        // the kind object — it detaches the borrow so `infer` can take
        // `&mut self`. The hot loop performs no allocating clones.
        let kind = Rc::clone(&self.constraints[cid.index()].kind);
        if !kind.should_activate(self, cid, changed) {
            return Ok(());
        }
        match kind.activation() {
            Activation::Immediate => {
                self.stats.inferences += 1;
                kind.infer(self, cid, Some(changed))
            }
            Activation::Scheduled(agenda) => {
                let entry_var = kind.schedules_with_variable().then_some(changed);
                if self.scheduler.schedule(agenda, cid, entry_var) {
                    self.stats.schedules += 1;
                }
                Ok(())
            }
        }
    }

    /// Final satisfaction sweep plus commit/restore (Figs. 4.6 and 4.10).
    fn finish_cycle(&mut self, result: Result<(), Violation>) -> Result<(), Violation> {
        let result = result.and_then(|()| self.final_check());
        let state = self.state.take().expect("cycle active");
        let out = match result {
            Ok(()) => Ok(()),
            Err(v) => {
                self.restore(&state);
                self.scheduler.clear();
                self.stats.violations += 1;
                if !state.silent {
                    let handlers = self.handlers.clone();
                    for h in &handlers {
                        h(self, &v);
                    }
                }
                Err(v)
            }
        };
        self.retire_state(state);
        out
    }

    fn final_check(&self) -> Result<(), Violation> {
        let st = self.state.as_ref().expect("cycle active");
        for &cid in &st.visited_constraints {
            let d = &self.constraints[cid.index()];
            if d.active && d.enabled && !d.kind.is_satisfied(self, cid) {
                let name = d.kind.kind_name().to_string();
                return Err(Violation::unsatisfied(cid).with_kind_name(name));
            }
        }
        Ok(())
    }

    fn restore(&mut self, state: &PropState) {
        for (&var, saved) in &state.visited_vars {
            // Keep the journal coherent even for variables that were only
            // seeded as visited, never written (no-op for written ones,
            // whose pre-image is already recorded).
            self.journal_record_value(var);
            let s = &mut self.slots[var.index()];
            s.value = saved.value.clone();
            s.justification = saved.justification.clone();
        }
        // Plan-driven cycles record pre-images on the flat list instead
        // (each variable at most once, so order is irrelevant).
        for (var, saved) in &state.visited_list {
            self.journal_record_value(*var);
            let s = &mut self.slots[var.index()];
            s.value = saved.value.clone();
            s.justification = saved.justification.clone();
        }
        // Un-flip every subsumption mark the failed cycle recorded, newest
        // first. `set_subsumed_bit` journals the restoration and skips
        // already-correct bits, so double replay (here and in batch
        // rollback) stays coherent.
        if !self.subsumed_flips.is_empty() {
            let mut flips = std::mem::take(&mut self.subsumed_flips);
            for &(cid, was) in flips.iter().rev() {
                self.set_subsumed_bit(cid, was);
            }
            flips.clear();
            self.subsumed_flips = flips;
        }
    }

    // ------------------------------------------------------------------
    // Runtime subsumption (domain propagators, DESIGN.md §5j)
    // ------------------------------------------------------------------

    /// Marks `cid` as runtime-subsumed: its propagator reported
    /// [`PropagateOutcome::Subsumed`](crate::PropagateOutcome), meaning the
    /// constraint is entailed by the current domains and can neither
    /// propagate nor fail again while they hold. Agenda dispatch and
    /// compiled-plan replay prune marked constraints (counted in
    /// [`Stats::subsumed_pruned`]); any watched variable widening clears
    /// the mark via [`ConstraintKind::still_subsumed`]. A no-op while
    /// subsumption is disabled ([`Network::set_subsumption`]).
    pub fn mark_subsumed(&mut self, cid: ConstraintId) {
        if !self.subsumption_enabled {
            return;
        }
        self.set_subsumed_bit(cid, true);
    }

    /// Whether `cid` currently carries a runtime subsumption mark.
    pub fn is_subsumed(&self, cid: ConstraintId) -> bool {
        self.subsumed.get(cid.index()).copied().unwrap_or(false)
    }

    /// Number of constraints currently marked subsumed.
    pub fn subsumed_count(&self) -> usize {
        self.n_subsumed
    }

    /// Enables or disables the runtime-subsumption machinery (enabled by
    /// default). Disabling clears every existing mark — journaled, so a
    /// batch rollback restores them — and makes later
    /// [`Network::mark_subsumed`] calls no-ops; benchmark twins use this
    /// to measure replay without pruning.
    pub fn set_subsumption(&mut self, on: bool) {
        self.subsumption_enabled = on;
        if !on && self.n_subsumed != 0 {
            for ix in 0..self.subsumed.len() {
                if self.subsumed[ix] {
                    self.set_subsumed_bit(ConstraintId(ix as u32), false);
                }
            }
        }
    }

    /// Flips one subsumption bit: lazily grows the bit table, maintains
    /// the population count, records the flip on the cycle-scoped log
    /// (for [`Network::restore`]) and in the open journal (for batch
    /// rollback). Idempotent: already-correct bits are left untouched.
    fn set_subsumed_bit(&mut self, cid: ConstraintId, to: bool) {
        let ix = cid.index();
        if ix >= self.subsumed.len() {
            if !to {
                return;
            }
            self.subsumed.resize(ix + 1, false);
        }
        let was = self.subsumed[ix];
        if was == to {
            return;
        }
        self.subsumed[ix] = to;
        if to {
            self.n_subsumed += 1;
        } else {
            self.n_subsumed -= 1;
        }
        self.subsumed_flips.push((cid, was));
        if let Some(j) = &mut self.journal {
            j.entries.push(JournalEntry::SubsumedChanged { cid, was });
        }
    }

    /// Re-checks every subsumed watcher of `var` after a non-refining
    /// (widening) write: each marked, active constraint is asked
    /// [`ConstraintKind::still_subsumed`] and unmarked when entailment no
    /// longer holds. Runs only when marks exist, on the pooled scratch
    /// list so the hot path never allocates in steady state.
    fn revalidate_subsumed_watchers(&mut self, var: VarId) {
        let mut scratch = std::mem::take(&mut self.subsumed_scratch);
        scratch.clear();
        scratch.extend(
            self.vars[var.index()]
                .constraints
                .iter()
                .copied()
                .filter(|&cid| self.is_subsumed(cid) && self.constraints[cid.index()].active),
        );
        for &cid in &scratch {
            let kind = Rc::clone(&self.constraints[cid.index()].kind);
            if !kind.still_subsumed(self, cid) {
                self.set_subsumed_bit(cid, false);
            }
        }
        self.subsumed_scratch = scratch;
    }

    /// Statistics hook for domain propagators: one successful domain
    /// tightening landed ([`Stats::domain_tightenings`]).
    pub(crate) fn count_domain_tightening(&mut self) {
        self.stats.domain_tightenings += 1;
    }

    /// Statistics hook for domain propagators: one domain wiped out to
    /// empty ([`Stats::wipeouts`]).
    pub(crate) fn count_wipeout(&mut self) {
        self.stats.wipeouts += 1;
    }

    /// Re-initialises an edited constraint (`reInitializeVariables` /
    /// `rePropagate`, Fig. 4.13): arguments are grouped as user-specified,
    /// constraint-dependent and other-independent, then each yet-unvisited
    /// argument asserts its value along the edited constraint, in that
    /// precedence order.
    fn reinitialize(&mut self, cid: ConstraintId) -> Result<(), Violation> {
        self.begin_cycle(false);
        // Three precedence passes over the (stable: edits are barred
        // mid-cycle) argument list, instead of cloning it and partitioning.
        let nargs = self.constraints[cid.index()].args.len();
        let mut ordered: Vec<VarId> = Vec::with_capacity(nargs);
        for wanted in 0..3u8 {
            for i in 0..nargs {
                let a = self.constraints[cid.index()].args[i];
                let class = match self.slots[a.index()].justification {
                    Justification::User => 0,
                    Justification::Propagated { .. } => 1,
                    _ => 2,
                };
                if class == wanted {
                    ordered.push(a);
                }
            }
        }
        let mut result = Ok(());
        for arg in ordered {
            let fresh = !self
                .state
                .as_ref()
                .expect("cycle active")
                .visited_vars
                .contains_key(&arg);
            if fresh {
                self.save_visited(arg);
                result = self.dispatch(cid, arg).and_then(|()| self.run_cycle());
                if result.is_err() {
                    break;
                }
            }
        }
        self.finish_cycle(result)
    }

    // ------------------------------------------------------------------
    // Dependency analysis (§4.2.4, Figs. 4.11–4.12)
    // ------------------------------------------------------------------

    /// All variables and constraints responsible for `var`'s current value:
    /// a backward traversal of the dependency graph (`antecedents:`,
    /// Fig. 4.11). The result includes `var` itself, in discovery order.
    pub fn antecedents(&self, var: VarId) -> (Vec<VarId>, Vec<ConstraintId>) {
        let mut vars = Vec::new();
        let mut cons = Vec::new();
        let mut seen_vars = std::collections::HashSet::new();
        let mut seen_cons = std::collections::HashSet::new();
        // Explicit work stack: dependency chains can be as deep as the
        // network is long, so recursion would overflow (see tests/scale.rs).
        let mut work = vec![var];
        while let Some(var) = work.pop() {
            if !seen_vars.insert(var) {
                continue;
            }
            vars.push(var);
            let just = &self.slots[var.index()].justification;
            if let Justification::Propagated { constraint, record } = just {
                let cid = *constraint;
                if seen_cons.insert(cid) {
                    cons.push(cid);
                }
                let kind = self.constraints[cid.index()].kind.clone();
                let record = record.clone();
                for &arg in self.constraints[cid.index()].args.iter().rev() {
                    if arg != var && kind.depends_on(self, cid, &record, arg) {
                        work.push(arg);
                    }
                }
            }
        }
        (vars, cons)
    }

    /// All variables whose values depend on `var`'s current value: a
    /// forward traversal of the dependency graph (`consequences:`,
    /// Fig. 4.12). Includes `var` itself, in discovery order.
    pub fn consequences(&self, var: VarId) -> Vec<VarId> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        self.consequences_iterative(vec![var], &mut out, &mut seen);
        out
    }

    /// Iterative forward walk (explicit stack; chains can be arbitrarily
    /// deep, see tests/scale.rs).
    fn consequences_iterative(
        &self,
        mut work: Vec<VarId>,
        out: &mut Vec<VarId>,
        seen: &mut std::collections::HashSet<VarId>,
    ) {
        while let Some(var) = work.pop() {
            if !seen.insert(var) {
                continue;
            }
            out.push(var);
            for &cid in self.vars[var.index()].constraints.iter() {
                if !self.constraints[cid.index()].active {
                    continue;
                }
                let kind = self.constraints[cid.index()].kind.clone();
                for &arg in self.constraints[cid.index()].args.iter().rev() {
                    if arg == var {
                        continue;
                    }
                    let just = &self.slots[arg.index()].justification;
                    if let Justification::Propagated { constraint, record } = just {
                        if *constraint == cid && kind.depends_on(self, cid, record, var) {
                            work.push(arg);
                        }
                    }
                }
            }
        }
    }

    /// Consequences of `source` flowing through one constraint
    /// (`consequences:ofVariable:`, Fig. 4.12): arguments last set by this
    /// constraint whose dependency record contains `source`.
    fn constraint_consequences(&self, cid: ConstraintId, source: VarId, out: &mut Vec<VarId>) {
        if !self.constraints[cid.index()].active {
            return;
        }
        let mut seen: std::collections::HashSet<VarId> = out.iter().copied().collect();
        let kind = self.constraints[cid.index()].kind.clone();
        let mut work = Vec::new();
        for &arg in self.constraints[cid.index()].args.iter() {
            if arg == source {
                continue;
            }
            let just = &self.slots[arg.index()].justification;
            if let Justification::Propagated { constraint, record } = just {
                if *constraint == cid && kind.depends_on(self, cid, record, source) {
                    work.push(arg);
                }
            }
        }
        self.consequences_iterative(work, out, &mut seen);
    }
}
