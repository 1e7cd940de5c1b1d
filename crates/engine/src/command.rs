//! The engine's side of the batch vocabulary: building constraint kinds
//! from their specs, and the outputs and errors coming back. The commands
//! themselves ([`Command`](crate::Command), [`ConstraintSpec`],
//! [`Source`](crate::Source)) are declared once in `stem-persist`, which
//! also owns their byte encoding, and are re-exported at this crate's
//! root.
//!
//! A [`ConstraintSpec`] is a `Send` description; it becomes an
//! `Rc<dyn ConstraintKind>` only inside the worker that owns the target
//! [`Network`](stem_core::Network), because networks — and the kinds they
//! share — are deliberately single-threaded.

use std::fmt;
use std::rc::Rc;

use stem_core::kinds::{
    AllDiff, DomAdd, DomLe, DomReifLe, DomainConstraint, Equality, Functional, FunctionalOp,
    PredOp, Predicate,
};
use stem_core::{ConstraintId, ConstraintKind, Justification, Value, VarId, View, Violation};
use stem_persist::ConstraintSpec;

/// Converts wire-level view pairs into [`View`]s, sanitising the (never
/// legitimately produced, but representable in corrupt or hostile bytes)
/// zero coefficient to the identity scale instead of panicking worker-side.
fn views<const N: usize>(pairs: &[(i64, i64); N]) -> [View; N] {
    pairs.map(|(a, b)| View::new(if a == 0 { 1 } else { a }, b))
}

/// Materialises a spec's kind. Runs in the worker that owns the session,
/// on a spec `validate` has checked against its arguments.
pub(crate) fn build_kind(spec: &ConstraintSpec) -> Rc<dyn ConstraintKind> {
    match spec {
        ConstraintSpec::Equality => Rc::new(Equality::new()),
        ConstraintSpec::Sum => Rc::new(Functional::new(FunctionalOp::Sum)),
        ConstraintSpec::Max => Rc::new(Functional::new(FunctionalOp::Max)),
        ConstraintSpec::Min => Rc::new(Functional::new(FunctionalOp::Min)),
        ConstraintSpec::Product => Rc::new(Functional::new(FunctionalOp::Product)),
        ConstraintSpec::Scale { gain, offset } => Rc::new(Functional::new(FunctionalOp::Scale {
            gain: *gain,
            offset: *offset,
        })),
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
        ConstraintSpec::Custom(f) => f.build(),
    }
}

/// Per-command reply inside a successful [`BatchOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Command completed with nothing to report.
    Unit,
    /// Id of a variable created by [`Command::AddVariable`](crate::Command::AddVariable).
    Var(VarId),
    /// Id of a constraint created by [`Command::AddConstraint`](crate::Command::AddConstraint).
    Constraint(ConstraintId),
    /// Value read by [`Command::Get`](crate::Command::Get).
    Value(Value),
    /// Probe verdict from [`Command::Probe`](crate::Command::Probe).
    Feasible(bool),
    /// Count reported by [`Command::SetKindEnabled`](crate::Command::SetKindEnabled).
    Count(usize),
    /// Full value dump from [`Command::DumpValues`](crate::Command::DumpValues).
    Dump(Vec<(String, Value, Justification)>),
    /// Violation sweep from [`Command::CheckAll`](crate::Command::CheckAll).
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
