//! # stem-core — object-oriented, hierarchical constraint propagation
//!
//! The primary contribution of the reproduced thesis (ch. 4–5): a
//! constraint-propagation framework designed "to provide background
//! coordination for high-level design interactions such as changes in
//! delay, area and signal types among related cells".
//!
//! A [`Network`] is a directed graph of *variable* objects and *constraint*
//! edges. Assigning a variable ([`Network::set`]) triggers a depth-first
//! propagation wave; constraints infer values for their other arguments
//! ([`Network::propagate_set`]), scheduled either immediately or on
//! fixed-priority FIFO agendas. Propagation terminates by the
//! one-value-change rule, detects violations (restoring all visited state),
//! records justifications and dependency records for every propagated
//! value, and supports dependency analysis (antecedents / consequences) and
//! live network editing.
//!
//! ## Example — the network of thesis Fig. 4.5
//!
//! ```
//! use stem_core::{Network, Value, Justification};
//! use stem_core::kinds::{Equality, Functional};
//!
//! let mut net = Network::new();
//! let v1 = net.add_variable("V1");
//! let v2 = net.add_variable("V2");
//! let v3 = net.add_variable("V3");
//! let v4 = net.add_variable("V4");
//! net.add_constraint(Equality::new(), [v1, v2])?;
//! net.add_constraint(Functional::uni_maximum(), [v2, v3, v4])?;
//!
//! net.set(v3, Value::Int(7), Justification::User)?;
//! net.set(v1, Value::Int(9), Justification::User)?;
//! assert_eq!(net.value(v2), &Value::Int(9));
//! assert_eq!(net.value(v4), &Value::Int(9));
//! # Ok::<(), stem_core::Violation>(())
//! ```
//!
//! ## Extending
//!
//! New constraint behaviour = a [`ConstraintKind`] impl; new variable
//! overwrite rules = a [`VariableKind`] impl; new hierarchical link
//! semantics = a [`kinds::LinkSemantics`] impl. This is the thesis's
//! "arbitrary propagation behavior can be defined by redefining the default
//! procedures", with traits in place of subclassing.
//!
//! ## Beyond the thesis
//!
//! Three of its §9.2.3/§9.3 future-work suggestions are built in:
//! per-constraint control ([`Network::set_constraint_enabled`],
//! [`Network::set_kind_enabled`]), the relaxed N-value-change rule
//! ([`Network::set_value_change_limit`]) for reconvergent fanouts, and
//! network compilation ([`compile_functional`] +
//! [`Network::run_compiled`]). [`Network::snapshot`] /
//! [`Network::restore_snapshot`] checkpoint whole value states for search
//! procedures such as joint module selection.

#![warn(missing_docs)]
mod agenda;
pub mod codec;
mod compile;
mod constraint;
pub mod domain;
mod ids;
mod inspect;
mod justification;
pub mod kinds;
mod network;
mod par;
mod plan;
pub mod prng;
mod value;
mod variable;
mod violation;

pub use agenda::{
    AgendaScheduler, FUNCTIONAL_AGENDA, FUNCTIONAL_PRIORITY, IMPLICIT_AGENDA, IMPLICIT_PRIORITY,
};
pub use compile::{compile_functional, CompileCycle, CompiledPlan};
pub use constraint::{Activation, ConstraintKind};
pub use domain::{Dom, DomainPropagator, FinSet, Interval, PropagateOutcome, View};
pub use ids::{ConstraintId, Entity, VarId};
pub use inspect::NetworkInspector;
pub use justification::{DependencyRecord, Justification};
pub use network::{JournalMark, Network, SetStatus, Stats, ValueSnapshot, ViolationHandler};
pub use par::{ParKernel, ParStats, PureOp};
pub use plan::{PlanParDetail, PlanStatus};
pub use value::{Span, TypeTag, Value};
pub use variable::{Overwrite, PlainKind, PropertyKind, RecalcFn, VariableKind};
pub use violation::{Violation, ViolationKind};
