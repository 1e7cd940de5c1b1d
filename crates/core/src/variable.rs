use crate::ids::{ConstraintId, VarId};
use crate::network::Network;
use crate::value::Value;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Decision returned by [`VariableKind::overwrite`] when propagation offers
/// a variable a new value that differs from its current one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overwrite {
    /// Accept the new value.
    Allow,
    /// Keep the current value silently; the final `is_satisfied` sweep will
    /// flag a real conflict (the signal-variable rule of Fig. 7.4).
    Ignore,
    /// Reject with a violation (thesis §4.2.2, case 2: a protected value
    /// disagreeing with a propagated value).
    Deny,
}

/// Behavioural specialisation of variables — the subclassing axis of STEM's
/// `Variable` hierarchy, expressed as a trait.
///
/// The thesis customises variables by subclassing (`SignalVariable`,
/// `PropertyVariable`, `ClassBBox`, …); in Rust each variable carries an
/// `Rc<dyn VariableKind>` that decides overwrite precedence. The default
/// rule (§4.2.4): "user specified values have higher priority over
/// propagated and calculated values".
pub trait VariableKind: fmt::Debug {
    /// Short label for inspection output.
    fn kind_name(&self) -> &str {
        "variable"
    }

    /// Whether propagation by `source` may replace the variable's current
    /// value with `new`. Called only when the values differ and the
    /// variable still has change budget this cycle. The default rule:
    /// user-specified values are protected (§4.2.4), and a propagated
    /// value only yields to a source of equal or greater
    /// [strength](crate::ConstraintKind::strength). One exception: a
    /// domain *refinement* — an interval or finite set narrowing the
    /// variable's current domain of the same representation — is always
    /// accepted, because narrowing a user-set domain is the point of
    /// domain propagation, not a competing claim on the variable.
    fn overwrite(
        &self,
        net: &Network,
        var: VarId,
        new: &Value,
        source: Option<ConstraintId>,
    ) -> Overwrite {
        if crate::domain::refines(net.value(var), new) {
            return Overwrite::Allow;
        }
        match net.justification(var) {
            j if j.is_user() => Overwrite::Deny,
            crate::Justification::Propagated { constraint, .. } => {
                let current_strength = net.constraint_strength(*constraint);
                let new_strength = source
                    .map(|c| net.constraint_strength(c))
                    .unwrap_or(u8::MAX);
                if new_strength >= current_strength {
                    Overwrite::Allow
                } else {
                    Overwrite::Ignore
                }
            }
            _ => Overwrite::Allow,
        }
    }

    /// Whether this kind is [`PlainKind`] (the default behaviour). The
    /// network caches the answer per variable so the hot write path can
    /// run the default overwrite rule statically dispatched — one virtual
    /// call per *variable construction* instead of one per *write*.
    fn is_plain(&self) -> bool {
        false
    }
}

/// The default variable behaviour (plain overwrite rule).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainKind;

impl VariableKind for PlainKind {
    fn is_plain(&self) -> bool {
        true
    }
}

/// Behaviour for lazily recalculated property variables (thesis Fig. 6.1).
///
/// Property variables hold derived data; update-constraints erase them to
/// `Nil` and [`Network::value_or_recalc`] re-derives them on demand. Unlike
/// plain variables they always accept erasure to `Nil`, even over a
/// user-specified value, because erasure means "out of date", not a
/// competing value.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropertyKind;

impl VariableKind for PropertyKind {
    fn kind_name(&self) -> &str {
        "property"
    }

    fn overwrite(
        &self,
        net: &Network,
        var: VarId,
        new: &Value,
        _source: Option<ConstraintId>,
    ) -> Overwrite {
        if new.is_nil() {
            Overwrite::Allow
        } else if net.justification(var).is_user() {
            Overwrite::Deny
        } else {
            Overwrite::Allow
        }
    }
}

/// Recalculation hook installed on lazy property variables: given the
/// network and the variable, compute and assign a fresh value (typically
/// via [`Network::set`] with
/// [`Justification::Application`](crate::Justification::Application)).
pub type RecalcFn = dyn Fn(&mut Network, VarId);

/// Internal storage for one variable object (thesis Fig. 4.1: parent, name,
/// constraints). The value + justification pair (`lastSetBy`) lives in the
/// network's separate slot arena so the parallel replay path can hand worker
/// threads a raw view of just the `Send + Sync` value state.
///
/// Cloning shares the behaviour kind and recalc hook (both immutable) and
/// copies everything else — the basis of [`Network`]'s `Clone`.
#[derive(Clone)]
pub(crate) struct VariableData {
    pub(crate) name: String,
    pub(crate) owner: Option<Arc<str>>,
    pub(crate) constraints: Vec<ConstraintId>,
    pub(crate) kind: Rc<dyn VariableKind>,
    /// Cached [`VariableKind::is_plain`] verdict, letting `propagate_set`
    /// dispatch the default overwrite rule statically.
    pub(crate) plain_kind: bool,
    pub(crate) recalc: Option<Rc<RecalcFn>>,
    /// Guards against infinite recalculation loops (`evalFlag`, Fig. 6.1).
    pub(crate) evaluating: bool,
}

impl fmt::Debug for VariableData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VariableData")
            .field("name", &self.name)
            .field("owner", &self.owner)
            .field("constraints", &self.constraints)
            .field("kind", &self.kind.kind_name())
            .field("has_recalc", &self.recalc.is_some())
            .finish()
    }
}

impl VariableData {
    pub(crate) fn new(name: String, owner: Option<Arc<str>>, kind: Rc<dyn VariableKind>) -> Self {
        let plain_kind = kind.is_plain();
        VariableData {
            name,
            owner,
            constraints: Vec::new(),
            kind,
            plain_kind,
            recalc: None,
            evaluating: false,
        }
    }

    /// `owner.name` display path — the unique identification path of §4.1.1.
    pub(crate) fn path(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}.{}", self.name),
            None => self.name.clone(),
        }
    }
}
