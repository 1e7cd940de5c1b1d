//! Compiled propagation plans — thesis §9.3's "network compilation"
//! refinement applied to the *dynamic* propagation path.
//!
//! A [`PropPlan`] is the flattened consequence-closure of one root
//! variable: the exact sequence of constraint activations the agenda
//! machinery would perform for a change of that root, recorded once by
//! simulation ([`crate::Network::plan_status`] exposes the result) and
//! replayed on subsequent `set`s without touching the scheduler. Plans
//! use struct-of-arrays storage so the hot loop walks three flat
//! vectors instead of chasing queue entries.
//!
//! Compilation is conservative: any cone whose write-set cannot be
//! proven statically (a kind without [`planned_writes`], a multi-writer
//! variable, cross-scheduled dataflow) is recorded as
//! [`PlanSlot::Uncompilable`] and served by the agenda path forever —
//! the agenda remains the semantic ground truth.
//!
//! [`planned_writes`]: crate::ConstraintKind::planned_writes

use crate::constraint::ConstraintKind;
use crate::ids::{ConstraintId, VarId};
use crate::par::ParPlan;
use std::rc::Rc;

/// One step of a compiled plan — mirrors the dispatch outcomes of the
/// agenda interpreter so replay reproduces its statistics exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanOp {
    /// Immediate-activation constraint: run `infer` now.
    Immediate,
    /// Activation suppressed by `should_activate` (e.g. a functional
    /// constraint seeing its own result change). Counts an activation,
    /// runs nothing.
    NoActivate,
    /// Scheduled kind, first sighting: counts an activation and a
    /// schedule; the run happens at the matching [`PlanOp::RunScheduled`].
    ScheduleNew,
    /// Scheduled kind, duplicate sighting: counts an activation only
    /// (the agenda deduplicates on the `(constraint, variable)` pair).
    ScheduleDup,
    /// Drain-phase run of a previously scheduled entry: run `infer`.
    RunScheduled,
}

/// A compiled propagation plan for one root variable, valid while the
/// network's structure generation matches [`PropPlan::generation`].
///
/// The plan records the *all-change* superset of the interpreter's work;
/// replay prunes it at runtime with per-variable change marks, so a step
/// whose trigger variable kept its value is skipped exactly as the
/// interpreter would never have dispatched it.
#[derive(Debug, Clone)]
pub(crate) struct PropPlan {
    /// Structure generation the plan was compiled under.
    pub(crate) generation: u64,
    /// Step tags, parallel to `cids`/`changed`/`kinds`/`entry_of`.
    pub(crate) ops: Vec<PlanOp>,
    /// Constraint activated at each step.
    pub(crate) cids: Vec<ConstraintId>,
    /// For activation steps: the trigger variable whose change dispatches
    /// the step (always `Some`). For [`PlanOp::RunScheduled`]: the entry's
    /// recorded variable (`None` for batched agenda entries) — passed to
    /// `infer` verbatim.
    pub(crate) changed: Vec<Option<VarId>>,
    /// Shared handles to each step's kind, hoisted so replay needs no
    /// constraint-arena indirection (and no `Rc::clone`) per step.
    pub(crate) kinds: Vec<Rc<dyn ConstraintKind>>,
    /// For `Schedule*`/`RunScheduled` steps: the dense index of the agenda
    /// entry `(constraint, variable)` the step touches; `u32::MAX`
    /// elsewhere. Liveness flows through these indices: a drain-phase run
    /// executes only if some schedule sighting of its entry was live.
    pub(crate) entry_of: Vec<u32>,
    /// Number of distinct agenda entries in the plan (domain of
    /// `entry_of`).
    pub(crate) n_entries: u32,
    /// Number of distinct constraints the plan can touch — the static
    /// upper bound on the final satisfaction sweep, for display.
    pub(crate) n_checks: u32,
    /// Cone-kernel partition ([`crate::par`]), built only when the
    /// network's thread knob exceeds 1 and every executing step has a
    /// kernel. Stored inside the plan so [`PropPlan::generation`]
    /// covers the cone tables: a structural edit invalidates the
    /// partition metadata together with the op vectors.
    pub(crate) par: Option<Box<ParPlan>>,
}

/// Cache slot for one root variable's plan.
#[derive(Debug, Clone, Default)]
pub(crate) enum PlanSlot {
    /// Never attempted (or taken out for execution).
    #[default]
    Absent,
    /// Compilation was attempted at the recorded structure generation and
    /// refused; retried only after a structural edit.
    Uncompilable(u64),
    /// A valid compiled plan.
    Ready(Box<PropPlan>),
}

/// Diagnostic view of a root variable's kernel partition
/// ([`crate::Network::plan_par_detail`]): enough to see replay shape and
/// skew without a profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanParDetail {
    /// Independent cones in the partition.
    pub cones: usize,
    /// Executing steps in the costliest cone — what the pool floor
    /// compares against.
    pub max_task_exec: usize,
}

/// Public view of a root variable's plan-cache entry
/// ([`crate::Network::plan_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStatus {
    /// No compilation has been attempted (or the cached entry is stale).
    NotCompiled,
    /// The root's cone was refused by the plan compiler; `set`s on it
    /// always take the agenda path.
    Uncompilable,
    /// A current plan is cached.
    Ready {
        /// Number of steps (constraint activations) in the plan.
        steps: usize,
        /// Number of distinct constraints the plan can touch — the static
        /// upper bound on any one cycle's final satisfaction sweep.
        checks: usize,
    },
}
