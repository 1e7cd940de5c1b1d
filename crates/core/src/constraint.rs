use crate::ids::{ConstraintId, VarId};
use crate::justification::DependencyRecord;
use crate::network::Network;
use crate::violation::Violation;
use std::fmt;

/// When a constraint runs after one of its arguments changes (thesis
/// §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Propagate immediately, first-come-first-served, because the
    /// direction of inference depends on which variable changed
    /// (equality-style constraints).
    Immediate,
    /// Enqueue on the named agenda and propagate when the agenda is
    /// drained, so "propagation can be delayed until all argument variables
    /// have had a chance to change" (functional constraints, Fig. 4.7;
    /// implicit constraints, Fig. 5.3). Unknown agenda names are created
    /// with priority 0 on first use.
    Scheduled(&'static str),
}

/// The behaviour of a constraint — STEM's `immediateInferenceByChanging:` /
/// `isSatisfied` protocol (thesis §4.1.2) as a trait.
///
/// Connectivity (the argument list) lives in the [`Network`] arena; the kind
/// only encodes semantics. This mirrors the thesis's observation that "the
/// semantics of a constraint … are procedurally defined with methods in the
/// constraint object, while the context and scope of the constraint is
/// declared in the connectivities" (§9.2).
///
/// Implementations read arguments with [`Network::args`] and assign inferred
/// values with [`Network::propagate_set`].
pub trait ConstraintKind: fmt::Debug {
    /// Short label for inspection output (e.g. `"equality"`).
    fn kind_name(&self) -> &str;

    /// Whether the kind runs immediately or on an agenda.
    fn activation(&self) -> Activation {
        Activation::Immediate
    }

    /// The kind's *strength* (thesis §4.2.4's suggested refinement:
    /// "variables can recognize different strengths of constraints, and
    /// allow one type of constraints to overwrite values from another
    /// type, but not the other way around"). Under the default variable
    /// rule a propagated value is only replaced by a propagation of equal
    /// or greater strength; weaker propagations are silently ignored and
    /// left to the satisfaction sweep.
    fn strength(&self) -> u8 {
        1
    }

    /// Whether a change of `changed` should activate the constraint at all
    /// — `permitChangesByVariable:` of Fig. 4.7 (a functional constraint
    /// ignores changes of its own result variable).
    fn should_activate(&self, net: &Network, cid: ConstraintId, changed: VarId) -> bool {
        let _ = (net, cid, changed);
        true
    }

    /// For scheduled kinds: whether the agenda entry records the changed
    /// variable (implicit constraints, Fig. 5.3: `variable:aVar`) or not
    /// (functional constraints, Fig. 4.7: `variable:nil`). Entries are
    /// deduplicated on the `(constraint, variable)` pair.
    fn schedules_with_variable(&self) -> bool {
        false
    }

    /// Performs immediate inference: examine `changed` (when known) and
    /// assign inferred values to other arguments via
    /// [`Network::propagate_set`]. `changed` is `None` when re-initialising
    /// after a network edit or when an agenda entry carries no variable.
    ///
    /// # Errors
    ///
    /// Returns the violation raised by a rejected assignment; the engine
    /// aborts the cycle and restores state.
    fn infer(
        &self,
        net: &mut Network,
        cid: ConstraintId,
        changed: Option<VarId>,
    ) -> Result<(), Violation>;

    /// Tests whether the constraint is satisfied by its arguments' current
    /// values. Conventionally lenient about `Nil` arguments ("all non-NIL
    /// argument values are equal", Fig. 4.4).
    fn is_satisfied(&self, net: &Network, cid: ConstraintId) -> bool;

    /// The arguments this kind may assign during inference, used by
    /// network compilation (thesis §9.3, "simple topological sorts of the
    /// constraint networks"). Directional kinds return a strict subset of
    /// their arguments (a functional constraint returns its result
    /// variable; a check-only predicate returns nothing). The default —
    /// every argument — marks the kind as non-directional; compiled plans
    /// execute such constraints as checks only.
    fn outputs(&self, net: &Network, cid: ConstraintId) -> Vec<VarId> {
        net.args(cid).to_vec()
    }

    /// The exact set of arguments this kind writes when `changed` changes,
    /// *if that set is statically known* — the opt-in contract behind
    /// propagation-plan compilation (`network::plan`). Returning
    /// `Some(writes)` promises that `infer` on a change of `changed`
    /// assigns (at most) the listed variables, via `propagate_set`, and
    /// reads nothing the plan compiler cannot see. Kinds whose write-set
    /// depends on runtime values must keep the default `None`, which
    /// excludes any cone containing them from plan compilation and leaves
    /// them on the agenda path.
    ///
    /// `changed` is the variable whose change triggers the constraint —
    /// `None` for agenda entries that carry no variable
    /// (`schedules_with_variable() == false`), whose write-set must hold
    /// for the batched run as well.
    fn planned_writes(
        &self,
        net: &Network,
        cid: ConstraintId,
        changed: Option<VarId>,
    ) -> Option<Vec<VarId>> {
        let _ = (net, cid, changed);
        None
    }

    /// A thread-safe kernel equivalent to `infer` on a change of `changed`,
    /// *if one exists* — the opt-in contract behind cone-kernel plan
    /// replay ([`Network::set_parallel_threads`]). Returning `Some(kernel)`
    /// promises two things:
    ///
    /// - running the kernel against a raw value view produces exactly the
    ///   `propagate_set` calls `infer` would make (same targets, same
    ///   order, same values, same dependency records);
    /// - a [`ParKernel::Copy`](crate::ParKernel::Copy) or
    ///   [`ParKernel::Apply`](crate::ParKernel::Apply) kernel whose writes
    ///   all land — or find their value already in place — leaves
    ///   [`ConstraintKind::is_satisfied`] true, as long as the written
    ///   value equals itself and an `Apply` result is not also one of its
    ///   inputs. The replay skips the final check of a constraint so
    ///   established, so a kind whose satisfaction test asks for more than
    ///   its kernel establishes must return `None`.
    ///
    /// Kinds closing over non-`Send` state (custom closures) or whose
    /// effect cannot be described as a pure value computation must keep
    /// the default `None`, which excludes any plan containing them from
    /// cone partitioning and leaves them on the sequential replay path.
    fn par_kernel(
        &self,
        net: &Network,
        cid: ConstraintId,
        changed: Option<VarId>,
    ) -> Option<crate::par::ParKernel> {
        let _ = (net, cid, changed);
        None
    }

    /// Re-checks a runtime subsumption mark after a watched variable
    /// changed *non-monotonically* (its domain widened, e.g. a snapshot
    /// restore or a user re-set). A constraint that marked itself subsumed
    /// via [`Network::mark_subsumed`] is pruned from agenda dispatch and
    /// plan replay; when a watched variable widens, the network asks this
    /// hook whether entailment still holds and clears the mark when it
    /// returns `false`. The conservative default — never still subsumed —
    /// merely costs a re-dispatch, never correctness.
    fn still_subsumed(&self, net: &Network, cid: ConstraintId) -> bool {
        let _ = (net, cid);
        false
    }

    /// Dependency-record membership test (`testMembershipOf:inDependency:`,
    /// Fig. 4.11): does a value carrying `record` — formulated by this kind
    /// — depend on argument `arg`? The default interprets the built-in
    /// record shapes; kinds using [`DependencyRecord::Opaque`] must
    /// override.
    fn depends_on(
        &self,
        net: &Network,
        cid: ConstraintId,
        record: &DependencyRecord,
        arg: VarId,
    ) -> bool {
        let _ = (net, cid);
        record.default_membership(arg)
    }
}

/// Internal storage for one constraint: behaviour plus connectivity.
/// Cloning shares the (immutable) kind and copies the connectivity.
#[derive(Clone)]
pub(crate) struct ConstraintData {
    pub(crate) kind: std::rc::Rc<dyn ConstraintKind>,
    pub(crate) args: Vec<VarId>,
    /// Cleared when the constraint is removed; tombstoned slots are skipped.
    pub(crate) active: bool,
    /// Individually disabled constraints neither propagate nor check —
    /// the finer-grained control suggested in thesis §9.3 ("disabling
    /// propagation and/or checking of individual constraints").
    pub(crate) enabled: bool,
}

impl fmt::Debug for ConstraintData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConstraintData")
            .field("kind", &self.kind.kind_name())
            .field("args", &self.args)
            .field("active", &self.active)
            .finish()
    }
}
