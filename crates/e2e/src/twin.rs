//! The core twin: a session's network built directly on `stem-core` from
//! the same construction batch the server receives, with batches applied
//! the way an engine worker applies them — `begin_journal`, each command,
//! then `commit_journal`, or `rollback_journal` on a violation.
//!
//! By Apt's chaotic-iteration argument every fair propagation order
//! reaches the same fixpoint, and the engine adds determinism on top, so
//! a twin fed a session's exact batch stream must end with the session's
//! exact values and justifications. The benchmark uses that to check the
//! served results, and times the twin's calls for the `core` layer.

use std::time::Instant;

use stem_core::{Justification, Network, PlanStatus, Value, Violation};
use stem_engine::{Command, Output};

use crate::workload::{kind, Workload};

/// Which core entry point a timed call went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Network::set` on a root with a compiled plan.
    SetPlanned,
    /// `Network::set` on a root with no current plan (compiles one, or
    /// runs the agenda interpreter).
    SetCompile,
    /// `Network::can_be_set_to`.
    Probe,
    /// `Network::set_constraint_enabled`.
    Toggle,
    /// `Network::check_all`.
    CheckAll,
    /// `Network::rollback_journal` after a violation.
    Rollback,
}

/// Observer of timed core calls; `()` ignores them.
pub trait CallObserver {
    /// One call of `call` ran from `start` to `end`.
    fn call(&mut self, call: Call, start: Instant, end: Instant);
}

impl CallObserver for () {
    fn call(&mut self, _: Call, _: Instant, _: Instant) {}
}

/// Collects the calls of one batch, in order.
impl CallObserver for Vec<(Call, Instant, Instant)> {
    fn call(&mut self, call: Call, start: Instant, end: Instant) {
        self.push((call, start, end));
    }
}

/// One session's core network.
pub struct Twin {
    net: Network,
}

/// A session's queryable state: `(name, value, justification)` per
/// variable, as `Command::DumpValues` reports it.
pub type Dump = Vec<(String, Value, Justification)>;

impl Twin {
    /// Builds the workload's session shape, configured like an engine
    /// worker configures its session networks.
    pub fn new(workload: Workload) -> Twin {
        let mut net = Network::new();
        net.set_parallel_threads(workload.profile().propagation_threads);
        let mut twin = Twin { net };
        twin.apply(&workload.construction(), &mut ())
            .expect("the construction batch commits");
        twin
    }

    /// Applies one batch transactionally.
    pub fn apply(
        &mut self,
        commands: &[Command],
        obs: &mut impl CallObserver,
    ) -> Result<Vec<Output>, (usize, Violation)> {
        self.net.begin_journal();
        let mut outputs = Vec::with_capacity(commands.len());
        for (ix, cmd) in commands.iter().enumerate() {
            match self.apply_one(cmd, obs) {
                Ok(out) => outputs.push(out),
                Err(violation) => {
                    let t = Instant::now();
                    self.net.rollback_journal();
                    obs.call(Call::Rollback, t, Instant::now());
                    return Err((ix, violation));
                }
            }
        }
        self.net.commit_journal();
        Ok(outputs)
    }

    fn apply_one(
        &mut self,
        cmd: &Command,
        obs: &mut impl CallObserver,
    ) -> Result<Output, Violation> {
        let net = &mut self.net;
        Ok(match cmd {
            Command::AddVariable { name } => Output::Var(net.add_variable(name.clone())),
            Command::AddConstraint { spec, args } => {
                Output::Constraint(net.add_constraint_rc(kind(spec), args.iter().copied())?)
            }
            Command::Set { var, value, source } => {
                let call = match net.plan_status(*var) {
                    PlanStatus::Ready { .. } => Call::SetPlanned,
                    _ => Call::SetCompile,
                };
                let t = Instant::now();
                let result = net.set(*var, value.clone(), Justification::from(*source));
                obs.call(call, t, Instant::now());
                result?;
                Output::Unit
            }
            Command::Probe { var, value } => {
                let t = Instant::now();
                let ok = net.can_be_set_to(*var, value.clone());
                obs.call(Call::Probe, t, Instant::now());
                Output::Feasible(ok)
            }
            Command::EnableConstraint {
                constraint,
                enabled,
            } => {
                let t = Instant::now();
                net.set_constraint_enabled(*constraint, *enabled);
                obs.call(Call::Toggle, t, Instant::now());
                Output::Unit
            }
            Command::CheckAll => {
                let t = Instant::now();
                let violations = net.check_all();
                obs.call(Call::CheckAll, t, Instant::now());
                Output::Violations(violations)
            }
            Command::Get { var } => Output::Value(net.value(*var).clone()),
            other => unreachable!("no workload sends {other:?}"),
        })
    }

    /// The network's propagation counters.
    pub fn stats(&self) -> stem_core::Stats {
        self.net.stats()
    }

    /// The network's parallel-replay counters.
    pub fn par_stats(&self) -> stem_core::ParStats {
        self.net.par_stats()
    }

    /// Every variable's `(name, value, justification)`.
    pub fn dump(&self) -> Dump {
        self.net
            .variables()
            .map(|v| {
                (
                    self.net.var_name(v).to_string(),
                    self.net.value(v).clone(),
                    self.net.justification(v).clone(),
                )
            })
            .collect()
    }
}
