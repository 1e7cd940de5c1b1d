//! The wire-level batch vocabulary: commands sent into a session, outputs
//! and errors coming back.
//!
//! Everything here is `Send`: commands cross the thread boundary into the
//! worker that owns the session's [`Network`]. Constraint behaviour is
//! described by a [`ConstraintSpec`] (a `Send` description) and only
//! materialised into an `Rc<dyn ConstraintKind>` inside the owning worker,
//! because networks — and the kinds they share — are deliberately
//! single-threaded.

use std::fmt;
use std::rc::Rc;

use stem_core::kinds::{
    AllDiff, DomAdd, DomLe, DomReifLe, DomainConstraint, Equality, Functional, FunctionalOp,
    PredOp, Predicate,
};
use stem_core::{ConstraintId, ConstraintKind, Justification, Value, VarId, View, Violation};

/// Factory producing a constraint kind inside the worker thread that owns
/// the target network. The closure must be `Send`; the kind it builds need
/// not be.
pub type KindFactory = Box<dyn Fn() -> Rc<dyn ConstraintKind> + Send>;

/// A `Send` description of a constraint to install, materialised
/// worker-side. The closed variants cover the built-in kinds; arbitrary
/// kinds travel as a [`KindFactory`].
pub enum ConstraintSpec {
    /// All arguments equal ([`Equality`]).
    Equality,
    /// Last argument = sum of the others ([`Functional`] `Sum`).
    Sum,
    /// Last argument = max of the others.
    Max,
    /// Last argument = min of the others.
    Min,
    /// Last argument = product of the others.
    Product,
    /// Last argument = `gain * first + offset`.
    Scale {
        /// Multiplier.
        gain: f64,
        /// Addend.
        offset: f64,
    },
    /// Check-only predicate: every argument ≤ the bound.
    LeConst(Value),
    /// Check-only predicate: every argument ≥ the bound.
    GeConst(Value),
    /// Check-only predicate: every argument = the constant.
    EqConst(Value),
    /// Check-only predicate: `args[0] ≤ args[1]`.
    Le,
    /// Check-only predicate: `args[0] < args[1]`.
    Lt,
    /// Bounds-consistent domain relation `v0(x) + v1(y) = v2(z)` over
    /// affine views `(a, b) ↦ a·x + b` ([`DomAdd`]); `out == None`
    /// propagates all three ways, `Some(i)` only narrows argument `i`.
    DomAdd {
        /// Per-argument affine views `(a, b)`; `a == 0` is sanitised to 1.
        views: [(i64, i64); 3],
        /// Directional output argument, when restricted.
        out: Option<u8>,
    },
    /// Bounds-consistent domain relation `v0(x) ≤ v1(y) + c` ([`DomLe`]).
    DomLe {
        /// The offset `c`.
        c: i64,
        /// Per-argument affine views `(a, b)`; `a == 0` is sanitised to 1.
        views: [(i64, i64); 2],
        /// Directional output argument, when restricted.
        out: Option<u8>,
    },
    /// All arguments pairwise distinct ([`AllDiff`], bounds reasoning).
    DomAllDiff,
    /// Reified inequality `args[0] ⇔ (v0(args[1]) ≤ v1(args[2]) + c)`
    /// ([`DomReifLe`]).
    DomReifLe {
        /// The offset `c`.
        c: i64,
        /// Affine views over `args[1]`/`args[2]`.
        views: [(i64, i64); 2],
    },
    /// Any other kind, built worker-side by the factory.
    Custom(KindFactory),
}

/// Converts wire-level view pairs into [`View`]s, sanitising the (never
/// legitimately produced, but representable in corrupt or hostile bytes)
/// zero coefficient to the identity scale instead of panicking worker-side.
fn views<const N: usize>(pairs: &[(i64, i64); N]) -> [View; N] {
    pairs.map(|(a, b)| View::new(if a == 0 { 1 } else { a }, b))
}

impl ConstraintSpec {
    /// Materialises the kind. Runs in the worker that owns the session.
    pub(crate) fn build(&self) -> Rc<dyn ConstraintKind> {
        match self {
            ConstraintSpec::Equality => Rc::new(Equality::new()),
            ConstraintSpec::Sum => Rc::new(Functional::new(FunctionalOp::Sum)),
            ConstraintSpec::Max => Rc::new(Functional::new(FunctionalOp::Max)),
            ConstraintSpec::Min => Rc::new(Functional::new(FunctionalOp::Min)),
            ConstraintSpec::Product => Rc::new(Functional::new(FunctionalOp::Product)),
            ConstraintSpec::Scale { gain, offset } => {
                Rc::new(Functional::new(FunctionalOp::Scale {
                    gain: *gain,
                    offset: *offset,
                }))
            }
            ConstraintSpec::LeConst(v) => Rc::new(Predicate::new(PredOp::LeConst(v.clone()))),
            ConstraintSpec::GeConst(v) => Rc::new(Predicate::new(PredOp::GeConst(v.clone()))),
            ConstraintSpec::EqConst(v) => Rc::new(Predicate::new(PredOp::EqConst(v.clone()))),
            ConstraintSpec::Le => Rc::new(Predicate::new(PredOp::Le)),
            ConstraintSpec::Lt => Rc::new(Predicate::new(PredOp::Lt)),
            ConstraintSpec::DomAdd { views: v, out } => Rc::new(DomainConstraint::new(match out {
                Some(o) => DomAdd::with_views(views(v), usize::from(*o)),
                None => DomAdd::all_views(views(v)),
            })),
            ConstraintSpec::DomLe { c, views: v, out } => Rc::new(DomainConstraint::new(
                DomLe::with_views(*c, views(v), out.map(usize::from)),
            )),
            ConstraintSpec::DomAllDiff => Rc::new(DomainConstraint::new(AllDiff::new())),
            ConstraintSpec::DomReifLe { c, views: v } => {
                Rc::new(DomainConstraint::new(DomReifLe::with_views(*c, views(v))))
            }
            ConstraintSpec::Custom(f) => f(),
        }
    }
}

impl fmt::Debug for ConstraintSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintSpec::Equality => write!(f, "Equality"),
            ConstraintSpec::Sum => write!(f, "Sum"),
            ConstraintSpec::Max => write!(f, "Max"),
            ConstraintSpec::Min => write!(f, "Min"),
            ConstraintSpec::Product => write!(f, "Product"),
            ConstraintSpec::Scale { gain, offset } => write!(f, "Scale({gain}, {offset})"),
            ConstraintSpec::LeConst(v) => write!(f, "LeConst({v})"),
            ConstraintSpec::GeConst(v) => write!(f, "GeConst({v})"),
            ConstraintSpec::EqConst(v) => write!(f, "EqConst({v})"),
            ConstraintSpec::Le => write!(f, "Le"),
            ConstraintSpec::Lt => write!(f, "Lt"),
            ConstraintSpec::DomAdd { views, out } => write!(f, "DomAdd({views:?}, {out:?})"),
            ConstraintSpec::DomLe { c, views, out } => {
                write!(f, "DomLe({c}, {views:?}, {out:?})")
            }
            ConstraintSpec::DomAllDiff => write!(f, "DomAllDiff"),
            ConstraintSpec::DomReifLe { c, views } => write!(f, "DomReifLe({c}, {views:?})"),
            ConstraintSpec::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// External provenance of a batched assignment — the subset of
/// [`Justification`] clients may claim. `Propagated`/`Tentative` records
/// are reserved to the propagation engine itself (a forged record would
/// corrupt dependency analysis), so they are unrepresentable here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Source {
    /// A direct designer edit (`#USER`).
    #[default]
    User,
    /// A tool/application computation (`#APPLICATION`).
    Application,
    /// Consistency-maintenance refresh (`#UPDATE`).
    Update,
    /// A class-definition default.
    DefaultValue,
}

impl From<Source> for Justification {
    fn from(s: Source) -> Justification {
        match s {
            Source::User => Justification::User,
            Source::Application => Justification::Application,
            Source::Update => Justification::Update,
            Source::DefaultValue => Justification::DefaultValue,
        }
    }
}

/// One operation inside a transactional batch.
///
/// Commands referring to variables or constraints may also reference ids
/// created *earlier in the same batch*: ids are allocated sequentially, so
/// a client that knows the session's current `n_variables` can predict
/// them and build create-and-initialise batches that commit atomically.
#[derive(Debug)]
pub enum Command {
    /// Adds a plain variable; replies [`Output::Var`].
    AddVariable {
        /// Display name.
        name: String,
    },
    /// Assigns a value with full propagation; replies [`Output::Unit`].
    Set {
        /// Target variable.
        var: VarId,
        /// New value.
        value: Value,
        /// Claimed provenance.
        source: Source,
    },
    /// Erases a variable to `Nil`/unset without propagation; replies
    /// [`Output::Unit`].
    Unset {
        /// Target variable.
        var: VarId,
    },
    /// Tentative validity probe (`canBeSetTo:`); never mutates; replies
    /// [`Output::Feasible`].
    Probe {
        /// Target variable.
        var: VarId,
        /// Probed value.
        value: Value,
    },
    /// Reads a value; replies [`Output::Value`].
    Get {
        /// Target variable.
        var: VarId,
    },
    /// Installs a constraint over `args` (re-initialising propagation);
    /// replies [`Output::Constraint`].
    AddConstraint {
        /// What the constraint does.
        spec: ConstraintSpec,
        /// Its argument variables.
        args: Vec<VarId>,
    },
    /// Removes a constraint, erasing values it justified; replies
    /// [`Output::Unit`].
    RemoveConstraint {
        /// Target constraint.
        constraint: ConstraintId,
    },
    /// Enables or disables one constraint; replies [`Output::Unit`].
    EnableConstraint {
        /// Target constraint.
        constraint: ConstraintId,
        /// New enabled state.
        enabled: bool,
    },
    /// Enables/disables every constraint of a kind; replies
    /// [`Output::Count`] of toggles.
    SetKindEnabled {
        /// Kind label, e.g. `"equality"`.
        kind_name: String,
        /// New enabled state.
        enabled: bool,
    },
    /// Relaxes/tightens the per-cycle value-change rule (≥ 1); replies
    /// [`Output::Unit`].
    SetValueChangeLimit {
        /// New limit.
        limit: u32,
    },
    /// Dumps `(name, value, justification)` for every variable; replies
    /// [`Output::Dump`]. Allowed on quarantined sessions.
    DumpValues,
    /// Sweeps all constraints for violations; replies
    /// [`Output::Violations`]. Allowed on quarantined sessions.
    CheckAll,
}

impl Command {
    /// Whether the command can change session state at all.
    pub fn is_mutating(&self) -> bool {
        !matches!(
            self,
            Command::Get { .. } | Command::Probe { .. } | Command::DumpValues | Command::CheckAll
        )
    }
}

/// Per-command reply inside a successful [`BatchOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Command completed with nothing to report.
    Unit,
    /// Id of a variable created by [`Command::AddVariable`].
    Var(VarId),
    /// Id of a constraint created by [`Command::AddConstraint`].
    Constraint(ConstraintId),
    /// Value read by [`Command::Get`].
    Value(Value),
    /// Probe verdict from [`Command::Probe`].
    Feasible(bool),
    /// Count reported by [`Command::SetKindEnabled`].
    Count(usize),
    /// Full value dump from [`Command::DumpValues`].
    Dump(Vec<(String, Value, Justification)>),
    /// Violation sweep from [`Command::CheckAll`].
    Violations(Vec<Violation>),
}

/// Reply to a committed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One output per command, in order.
    pub outputs: Vec<Output>,
    /// Propagation waves (cycles) the batch ran.
    pub waves: u64,
    /// Variable assignments the batch performed.
    pub assignments: u64,
}

/// Why a batch did not commit. Every error except
/// [`BatchError::Backpressure`] and [`BatchError::Shutdown`] guarantees the
/// session is exactly as it was before the batch.
#[derive(Debug)]
pub enum BatchError {
    /// A command raised a constraint violation (including
    /// `BudgetExceeded` for step-budget aborts); the whole batch rolled
    /// back.
    Violation {
        /// Index of the failing command.
        index: usize,
        /// The violation.
        violation: Violation,
    },
    /// A command was rejected before execution (bad id, zero limit, …);
    /// nothing was applied.
    InvalidCommand {
        /// Index of the offending command.
        index: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A command panicked; the batch rolled back and the session is now
    /// quarantined ([`crate::Engine::lift_quarantine`] re-admits it).
    Panicked {
        /// Index of the panicking command.
        index: usize,
        /// Panic payload rendered to text.
        message: String,
    },
    /// The batch applied cleanly but its write-ahead log record could not
    /// be written (disk full, I/O error); the whole batch rolled back —
    /// an error here means "not committed, not durable", never "committed
    /// but unlogged".
    Persist {
        /// The underlying I/O error, rendered to text.
        message: String,
    },
    /// The session is quarantined after a panic; mutating batches are
    /// refused until the quarantine is lifted.
    Quarantined,
    /// The worker's queue is full (returned by
    /// [`crate::Engine::try_submit`] only — `submit` blocks instead).
    Backpressure,
    /// The engine is shutting down; the batch was not applied.
    Shutdown,
    /// The engine is a read-only replica ([`crate::Engine::replica`]):
    /// mutating batches are refused until [`crate::Engine::promote`]
    /// makes it a leader. Read-only batches are served normally.
    ReadOnlyReplica,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Violation { index, violation } => {
                write!(f, "batch rolled back at command {index}: {violation}")
            }
            BatchError::InvalidCommand { index, reason } => {
                write!(f, "invalid command {index}: {reason}")
            }
            BatchError::Panicked { index, message } => {
                write!(
                    f,
                    "command {index} panicked ({message}); session quarantined"
                )
            }
            BatchError::Persist { message } => {
                write!(f, "batch rolled back: WAL append failed ({message})")
            }
            BatchError::Quarantined => write!(f, "session is quarantined"),
            BatchError::Backpressure => write!(f, "worker queue is full"),
            BatchError::Shutdown => write!(f, "engine is shutting down"),
            BatchError::ReadOnlyReplica => {
                write!(f, "engine is a read-only replica; mutating batch refused")
            }
        }
    }
}

impl std::error::Error for BatchError {}
