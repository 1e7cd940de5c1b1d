//! Textual network inspection — the programmatic equivalent of STEM's
//! constraint editor (thesis §5.4).
//!
//! The constraint editor let a user "walk through a network of constraints":
//! examine all variables of a constraint, all constraints of a variable,
//! trace antecedents and consequences, and inspect values and
//! justifications. The [`NetworkInspector`] renders exactly those views as
//! text.

use crate::ids::{ConstraintId, VarId};
use crate::network::Network;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Read-only text renderer over a [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkInspector<'n> {
    net: &'n Network,
}

impl<'n> NetworkInspector<'n> {
    /// Creates an inspector over `net`.
    pub fn new(net: &'n Network) -> Self {
        NetworkInspector { net }
    }

    /// One-line description of a variable: path, kind, value,
    /// justification, its constraint fan-out, and — when the plan cache
    /// has an entry for it as a root — the compiled-plan status.
    pub fn describe_variable(&self, var: VarId) -> String {
        let n = self.net;
        let cons: Vec<String> = n
            .constraints_of(var)
            .iter()
            .map(|c| c.to_string())
            .collect();
        let plan = match n.plan_status(var) {
            crate::PlanStatus::NotCompiled => String::new(),
            crate::PlanStatus::Uncompilable => "  plan(uncompilable)".to_string(),
            crate::PlanStatus::Ready { steps, checks } => {
                let mut s = format!("  plan({steps} steps, {checks} checks)");
                // Kernel shape and skew diagnostics: cone count, costliest
                // cone against the pool floor (below it the cones run
                // inline), and the last committed replay's steal count —
                // enough to see an unbalanced partition without a profiler.
                if let Some(d) = n.plan_par_detail(var) {
                    let _ = write!(
                        s,
                        "  par({} cones, max task {}, floor {}, last stolen {})",
                        d.cones,
                        d.max_task_exec,
                        n.parallel_min_steps(),
                        d.last_stolen
                    );
                }
                s
            }
        };
        format!(
            "{var} {path} : {kind} = {value}  lastSetBy {just}  constraints [{cons}]{plan}",
            path = n.var_path(var),
            kind = n.var_kind_name(var),
            value = n.value(var),
            just = n.justification(var),
            cons = cons.join(" "),
        )
    }

    /// One-line description of a constraint: kind, satisfaction, and its
    /// argument variables.
    pub fn describe_constraint(&self, cid: ConstraintId) -> String {
        let n = self.net;
        if !n.is_active(cid) {
            return format!("{cid} <removed>");
        }
        let args: Vec<String> = n
            .args(cid)
            .iter()
            .map(|&v| format!("{v}={}", n.value(v)))
            .collect();
        format!(
            "{cid} {kind} [{sat}]{subsumed} args({args})",
            kind = n.constraint_kind_name(cid),
            sat = if n.is_satisfied(cid) {
                "ok"
            } else {
                "VIOLATED"
            },
            subsumed = if n.is_subsumed(cid) {
                " [subsumed]"
            } else {
                ""
            },
            args = args.join(", "),
        )
    }

    /// Full network dump: every variable then every active constraint.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "network: {} variables, {} constraints",
            self.net.n_variables(),
            self.net.n_constraints()
        );
        // What a crash right now would cost: the durability regime, plus
        // any still-open change journal (an uncommitted batch in flight).
        let _ = writeln!(
            out,
            "  durability: {}; open journal entries: {}",
            self.net.durability_label(),
            self.net.journal_len(),
        );
        // Domain-propagation health: how much narrowing landed, how much
        // work subsumption marks saved, and how often a domain emptied.
        let s = self.net.stats();
        let _ = writeln!(
            out,
            "  domains: {} tightenings, {} pruned ({} marked subsumed), {} wipeouts",
            s.domain_tightenings,
            s.subsumed_pruned,
            self.net.subsumed_count(),
            s.wipeouts,
        );
        for v in self.net.variables() {
            let _ = writeln!(out, "  {}", self.describe_variable(v));
        }
        for c in self.net.all_constraints() {
            let _ = writeln!(out, "  {}", self.describe_constraint(c));
        }
        out
    }

    /// Backward dependency trace of a variable's value (Fig. 4.11).
    pub fn trace_antecedents(&self, var: VarId) -> String {
        let (vars, cons) = self.net.antecedents(var);
        let mut out = format!("antecedents of {var}:\n");
        for v in vars {
            let _ = writeln!(out, "  {}", self.describe_variable(v));
        }
        for c in cons {
            let _ = writeln!(out, "  via {}", self.describe_constraint(c));
        }
        out
    }

    /// Forward dependency trace of a variable's value (Fig. 4.12).
    pub fn trace_consequences(&self, var: VarId) -> String {
        let mut out = format!("consequences of {var}:\n");
        for v in self.net.consequences(var) {
            let _ = writeln!(out, "  {}", self.describe_variable(v));
        }
        out
    }

    /// Graphviz DOT rendering of the constraint network — the "graphical
    /// display of constraint networks" the thesis asks of a better editor
    /// UI (§9.3). Variables are ellipses, constraints boxes (matching the
    /// thesis's diagram conventions); violated constraints are drawn red.
    pub fn to_dot(&self) -> String {
        let n = self.net;
        let mut out = String::from("digraph constraints {\n  rankdir=LR;\n");
        for v in n.variables() {
            let _ = writeln!(
                out,
                "  \"{v}\" [shape=ellipse, label=\"{}\\n{}\"];",
                escape(&n.var_path(v)),
                escape(&n.value(v).to_string()),
            );
        }
        for c in n.all_constraints() {
            let violated = !n.is_satisfied(c);
            let _ = writeln!(
                out,
                "  \"{c}\" [shape=box{}, label=\"{}\"];",
                if violated { ", color=red" } else { "" },
                escape(&n.constraint_kind_name(c)),
            );
            for &arg in n.args(c) {
                // Arrow direction follows the kind's declared outputs.
                if n.constraint_outputs(c).contains(&arg) {
                    let _ = writeln!(out, "  \"{c}\" -> \"{arg}\";");
                } else {
                    let _ = writeln!(out, "  \"{arg}\" -> \"{c}\";");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// A multi-line diagnostic for one violation — what the thesis's
    /// "debug" handler option (§5.2) would open the constraint debugger
    /// on: the violation itself, the constraint's arguments, and the
    /// antecedents of the variable involved.
    pub fn describe_violation(&self, v: &crate::Violation) -> String {
        let mut out = format!("{v}\n");
        if let Some(c) = v.constraint {
            let _ = writeln!(out, "  {}", self.describe_constraint(c));
        }
        if let Some(var) = v.variable {
            let _ = writeln!(out, "  {}", self.describe_variable(var));
            for line in self.trace_antecedents(var).lines().skip(1) {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }

    /// All currently violated constraints, one line each.
    pub fn violations(&self) -> String {
        let mut out = String::new();
        for c in self.net.all_constraints() {
            if !self.net.is_satisfied(c) {
                let _ = writeln!(out, "{}", self.describe_constraint(c));
            }
        }
        if out.is_empty() {
            out.push_str("no violations\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{Equality, Functional};
    use crate::{Justification, Value};

    fn sample() -> (Network, VarId, VarId, VarId) {
        let mut net = Network::new();
        let a = net.add_variable("a");
        let b = net.add_variable("b");
        let s = net.add_variable("sum");
        net.add_constraint(Equality::new(), [a, b]).unwrap();
        net.add_constraint(Functional::uni_addition(), [a, b, s])
            .unwrap();
        net.set(a, Value::Int(2), Justification::User).unwrap();
        (net, a, b, s)
    }

    #[test]
    fn variable_description_has_value_and_justification() {
        let (net, a, b, _) = sample();
        let insp = NetworkInspector::new(&net);
        let da = insp.describe_variable(a);
        assert!(da.contains("#USER"), "{da}");
        assert!(da.contains("= 2"), "{da}");
        let db = insp.describe_variable(b);
        assert!(db.contains("via"), "{db}");
    }

    #[test]
    fn constraint_description_reports_satisfaction() {
        let (net, ..) = sample();
        let insp = NetworkInspector::new(&net);
        for c in net.all_constraints() {
            assert!(insp.describe_constraint(c).contains("[ok]"));
        }
    }

    #[test]
    fn dump_mentions_everything() {
        let (net, ..) = sample();
        let text = NetworkInspector::new(&net).dump();
        assert!(text.contains("3 variables"));
        assert!(text.contains("equality"));
        assert!(text.contains("uniAddition"));
    }

    #[test]
    fn dump_reports_durability_and_journal_depth() {
        let (mut net, a, ..) = sample();
        let text = NetworkInspector::new(&net).dump();
        assert!(
            text.contains("durability: volatile (in-memory only)"),
            "{text}"
        );
        assert!(text.contains("open journal entries: 0"), "{text}");

        net.set_durability_label("commit-sync (fsync per commit)");
        net.begin_journal();
        net.set(a, Value::Int(5), Justification::User).unwrap();
        let text = NetworkInspector::new(&net).dump();
        assert!(text.contains("durability: commit-sync"), "{text}");
        // The open journal holds this batch's undo entries — exactly the
        // in-flight work a crash would lose.
        assert!(!text.contains("open journal entries: 0"), "{text}");
        net.commit_journal();
    }

    #[test]
    fn traces_follow_dependencies() {
        let (net, a, _, s) = sample();
        let insp = NetworkInspector::new(&net);
        let ante = insp.trace_antecedents(s);
        assert!(ante.contains("a"), "{ante}");
        let cons = insp.trace_consequences(a);
        assert!(cons.contains("sum"), "{cons}");
    }

    #[test]
    fn dot_export_shapes_and_direction() {
        let (net, a, _, s) = sample();
        let dot = NetworkInspector::new(&net).to_dot();
        assert!(dot.starts_with("digraph constraints {"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("shape=box"));
        // The functional constraint points *at* its result variable.
        assert!(dot.contains(&format!("\"c1\" -> \"{s}\";")), "{dot}");
        // Inputs point at the constraint.
        assert!(dot.contains(&format!("\"{a}\" -> \"c1\";")), "{dot}");
        assert!(!dot.contains("color=red"));
    }

    #[test]
    fn dot_marks_violations_red() {
        let (mut net, _, b, _) = sample();
        net.set_propagation_enabled(false);
        net.set(b, Value::Int(99), Justification::User).unwrap();
        let dot = NetworkInspector::new(&net).to_dot();
        assert!(dot.contains("color=red"));
    }

    #[test]
    fn violation_diagnostic_is_rich() {
        let (mut net, a, _, _) = sample();
        let limit = net
            .add_constraint(crate::kinds::Predicate::le_const(Value::Int(5)), [a])
            .unwrap();
        let err = net.set(a, Value::Int(9), Justification::User).unwrap_err();
        let insp = NetworkInspector::new(&net);
        let text = insp.describe_violation(&err);
        assert!(text.contains("unsatisfied"), "{text}");
        assert!(text.contains(&limit.to_string()), "{text}");
    }

    #[test]
    fn variable_description_shows_plan_status() {
        let (mut net, a, ..) = sample();
        // A second set on the same root compiles and caches its plan.
        net.set(a, Value::Int(3), Justification::User).unwrap();
        let insp = NetworkInspector::new(&net);
        let da = insp.describe_variable(a);
        assert!(da.contains("plan("), "{da}");
        assert!(da.contains("steps"), "{da}");
        // No parallel budget, no partition — the par diagnostics stay out.
        assert!(!da.contains("par("), "{da}");
    }

    #[test]
    fn variable_description_shows_parallel_shape() {
        let mut net = Network::new();
        net.set_parallel_threads(4);
        net.set_parallel_min_steps(1);
        let root = net.add_variable("root");
        for i in 0..3 {
            let leaf = net.add_variable(format!("leaf{i}"));
            net.add_constraint(Equality::new(), [root, leaf]).unwrap();
        }
        net.set(root, Value::Int(1), Justification::User).unwrap();
        let insp = NetworkInspector::new(&net);
        let da = insp.describe_variable(root);
        assert!(da.contains("par(3 cones, max task 1, floor 1"), "{da}");
        assert!(da.contains("last stolen"), "{da}");
    }

    #[test]
    fn violations_report() {
        let (mut net, _, b, _) = sample();
        let insp_text = {
            let insp = NetworkInspector::new(&net);
            insp.violations()
        };
        assert_eq!(insp_text, "no violations\n");
        net.set_propagation_enabled(false);
        net.set(b, Value::Int(99), Justification::User).unwrap();
        let insp = NetworkInspector::new(&net);
        let text = insp.violations();
        assert!(text.contains("VIOLATED"), "{text}");
    }
}
