//! # stem-modsel — module validation and selection (thesis ch. 8)
//!
//! "Module selection is the task of selecting a valid realization of a
//! generic cell instance in the context of a larger design." The algorithm
//! is generate-and-test over the subclass tree of the generic cell,
//! "augmented with selective testing and tree pruning":
//!
//! - **Selective testing** (§8.2, Fig. 8.2): the user orders a subset of
//!   property kinds (`#(#bBox #delays)` …) so the most constrained
//!   property is tested — and fails — first.
//! - **Tree pruning** (§8.2, Fig. 8.3): generic cells carry the *ideal*
//!   characteristics of their descendants; "if a generic cell fails the
//!   tests, then there is no need to test its descendents".
//!
//! Validity itself is decided by constraint propagation: candidate values
//! are tentatively assigned to the generic instance's variables
//! (`canBeSetTo:`, [`Network::can_be_set_to`]) and any violation in the
//! surrounding context rejects the candidate.
//!
//! [`Network::can_be_set_to`]: stem_core::Network::can_be_set_to

#![warn(missing_docs)]
use stem_checking::DelayAnalyzer;
use stem_core::{Justification, Value, Violation};
use stem_design::{CellClassId, CellInstanceId, Design, BOUNDING_BOX};

/// One property category of the selective test list (Fig. 8.2's
/// `#bBox` / `#signals` / `#delays`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestKind {
    /// Bounding-box fit.
    BBox,
    /// Signal bit widths and types against connected nets.
    Signals,
    /// Delay characteristics against the surrounding delay network.
    Delays,
}

/// All three tests in the default order.
pub const ALL_TESTS: [TestKind; 3] = [TestKind::BBox, TestKind::Signals, TestKind::Delays];

/// Knobs of the search (§8.2).
#[derive(Debug, Clone)]
pub struct SelectionOptions {
    /// Ordered property tests to apply (selective testing).
    pub priorities: Vec<TestKind>,
    /// Whether generic cells are tested to prune their subtrees.
    pub prune: bool,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        SelectionOptions {
            priorities: ALL_TESTS.to_vec(),
            prune: true,
        }
    }
}

/// Search effort counters, for the efficiency experiments (DESIGN.md E9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Candidate cells (leaf or generic) run through the test battery.
    pub candidates_tested: usize,
    /// Individual property tests executed.
    pub property_tests: usize,
    /// Generic subtrees skipped because the generic's ideals failed.
    pub pruned_subtrees: usize,
}

/// Result of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Valid (non-generic) realisations, in pre-order.
    pub valid: Vec<CellClassId>,
    /// Effort counters.
    pub stats: SelectionStats,
}

/// Selects all valid realisations for a generic cell instance
/// (`selectRealizationsFor:priorities:`, Fig. 8.3).
///
/// The instance's surrounding delay network is built first so its dual
/// delay variables exist for the delay tests.
///
/// # Errors
///
/// Returns a violation only if building the parent's delay network fails
/// outright (the context is already inconsistent).
pub fn select_realizations(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    inst: CellInstanceId,
    options: &SelectionOptions,
) -> Result<SelectionOutcome, Violation> {
    if options.priorities.contains(&TestKind::Delays) {
        // Make the instance's delay variables exist; a violating context is
        // reported to the caller rather than silently emptying the result.
        analyzer.ensure_built(d, d.instance_parent(inst))?;
    }
    let mut stats = SelectionStats::default();
    let generic = d.instance_class(inst);
    let mut valid = Vec::new();
    if !d.is_generic(generic) {
        // Fig. 8.3: a non-generic cell is its own (only) realisation.
        valid.push(generic);
        return Ok(SelectionOutcome { valid, stats });
    }
    for sub in d.subclasses(generic).to_vec() {
        valid_realizations(d, analyzer, sub, inst, options, &mut valid, &mut stats);
    }
    Ok(SelectionOutcome { valid, stats })
}

/// `validRealizationsFor:priorities:` (Fig. 8.3): pre-order traversal with
/// optional pruning at generic nodes.
fn valid_realizations(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    class: CellClassId,
    inst: CellInstanceId,
    options: &SelectionOptions,
    out: &mut Vec<CellClassId>,
    stats: &mut SelectionStats,
) {
    if d.is_generic(class) {
        if options.prune && !is_valid_realization(d, analyzer, class, inst, options, stats) {
            stats.pruned_subtrees += 1;
            return;
        }
        for sub in d.subclasses(class).to_vec() {
            valid_realizations(d, analyzer, sub, inst, options, out, stats);
        }
    } else if is_valid_realization(d, analyzer, class, inst, options, stats) {
        out.push(class);
    }
}

/// Result of a joint selection over several generic instances.
#[derive(Debug, Clone)]
pub struct JointOutcome {
    /// Valid combinations; each inner vector is index-aligned with the
    /// requested instances.
    pub combinations: Vec<Vec<CellClassId>>,
    /// Candidate combinations (full or partial) that were probed.
    pub commits_tried: usize,
}

/// Joint module selection over several generic instances sharing budgets —
/// the step beyond thesis ch. 8's one-instance-at-a-time selection, in the
/// direction of its §9.3 call for "constraint satisfaction \[that\] attempts
/// to solve a constraint network by global considerations".
///
/// Backtracking search over the candidate realisations of each instance:
/// a candidate is *committed* by assigning its characteristic delays (and
/// default bounding box) to the instance's dual variables with
/// propagation live, so shared specifications (a total delay budget, a
/// pitch constraint) see every partial combination; dead branches are
/// pruned by the resulting violations. The network is checkpointed and
/// restored around the whole search, leaving no trace.
///
/// # Errors
///
/// Returns a violation if a surrounding delay network cannot be built.
pub fn select_joint_realizations(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    instances: &[CellInstanceId],
    options: &SelectionOptions,
) -> Result<JointOutcome, Violation> {
    // Build every surrounding delay network first.
    let parents: Vec<CellClassId> = instances.iter().map(|&i| d.instance_parent(i)).collect();
    for &p in &parents {
        analyzer.ensure_built(d, p)?;
    }
    // Candidate realisations per instance: the non-generic descendants,
    // individually pre-filtered (tree pruning applies per instance).
    let mut candidates: Vec<Vec<CellClassId>> = Vec::new();
    let mut per_instance_stats = SelectionStats::default();
    for &inst in instances {
        let single = select_realizations(d, analyzer, inst, options)?;
        per_instance_stats.candidates_tested += single.stats.candidates_tested;
        candidates.push(single.valid);
    }
    let mut out = JointOutcome {
        combinations: Vec::new(),
        commits_tried: 0,
    };
    let outer = d.network().snapshot();
    let mut chosen: Vec<CellClassId> = Vec::new();
    joint_search(
        d,
        analyzer,
        instances,
        &candidates,
        0,
        &mut chosen,
        &mut out,
    );
    d.network_mut().restore_snapshot(&outer);
    let _ = per_instance_stats;
    Ok(out)
}

fn joint_search(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    instances: &[CellInstanceId],
    candidates: &[Vec<CellClassId>],
    level: usize,
    chosen: &mut Vec<CellClassId>,
    out: &mut JointOutcome,
) {
    if level == instances.len() {
        out.combinations.push(chosen.clone());
        return;
    }
    let inst = instances[level];
    for &candidate in &candidates[level] {
        out.commits_tried += 1;
        let checkpoint = d.network().snapshot();
        if commit_candidate(d, analyzer, candidate, inst).is_ok() {
            chosen.push(candidate);
            joint_search(d, analyzer, instances, candidates, level + 1, chosen, out);
            chosen.pop();
        }
        d.network_mut().restore_snapshot(&checkpoint);
    }
}

/// Persistently (until snapshot rollback) assigns a candidate's
/// characteristics to the instance's dual variables, with propagation
/// checking the surrounding context.
fn commit_candidate(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    candidate: CellClassId,
    inst: CellInstanceId,
) -> Result<(), Violation> {
    let generic = d.instance_class(inst);
    // Delays.
    let decls: Vec<(String, String)> = analyzer
        .declared(generic)
        .iter()
        .map(|(decl, _)| (decl.from.clone(), decl.to.clone()))
        .collect();
    for (from, to) in decls {
        let Some(iv) = analyzer.instance_delay_var(inst, &from, &to) else {
            continue;
        };
        let Ok(Some(cand)) = analyzer.delay(d, candidate, &from, &to) else {
            continue;
        };
        let adjusted = cand + analyzer.load_adjust(d, inst, &to);
        d.network_mut()
            .set(iv, Value::Float(adjusted), Justification::Tentative)?;
    }
    // Bounding box: a user allotment is checked, a soft default replaced.
    if let Some(cand_box) = d.class_bounding_box(candidate) {
        let placed = d.instance_transform(inst).apply_rect(cand_box);
        let var = d
            .instance_property_var(inst, BOUNDING_BOX)
            .expect("built-in");
        let allotted_by_user = d.network().justification(var).is_user();
        if allotted_by_user {
            let allotted = d.network().value(var).as_rect().expect("user rect");
            if !allotted.can_contain_extent(placed) {
                return Err(Violation::custom("candidate exceeds allotment", None));
            }
        } else {
            d.network_mut()
                .set(var, Value::Rect(placed), Justification::Tentative)?;
        }
    }
    Ok(())
}

/// `isValidRealizationFor:priorities:` (Fig. 8.2): applies the selective
/// test list in order, failing fast.
pub fn is_valid_realization(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    candidate: CellClassId,
    inst: CellInstanceId,
    options: &SelectionOptions,
    stats: &mut SelectionStats,
) -> bool {
    stats.candidates_tested += 1;
    for &kind in &options.priorities {
        stats.property_tests += 1;
        let ok = match kind {
            TestKind::BBox => valid_bbox(d, candidate, inst),
            TestKind::Signals => valid_signals(d, candidate, inst),
            TestKind::Delays => valid_delays(d, analyzer, candidate, inst),
        };
        if !ok {
            return false;
        }
    }
    true
}

/// `validBBoxFor:` (Fig. 8.2): if the instance box is unset, the
/// candidate's default (transformed) box must be tentatively assignable;
/// otherwise the allotted instance box must be able to contain the
/// candidate's transformed box.
fn valid_bbox(d: &mut Design, candidate: CellClassId, inst: CellInstanceId) -> bool {
    let Some(cand_box) = d.class_bounding_box(candidate) else {
        return true; // nothing to check
    };
    let t = d.instance_transform(inst);
    let placed = t.apply_rect(cand_box);
    let var = d
        .instance_property_var(inst, BOUNDING_BOX)
        .expect("built-in");
    // Only a *user-specified* instance box is a hard allotment; a value
    // propagated from the generic's class box is a soft default (Fig. 7.7:
    // "if I am nil, or a propagated value … then update myself") and the
    // candidate is probed tentatively instead.
    match d.network().value(var).as_rect() {
        Some(allotted) if d.network().justification(var).is_user() => {
            allotted.can_contain_extent(placed)
        }
        _ => d.network_mut().can_be_set_to(var, Value::Rect(placed)),
    }
}

/// `validSignalsFor:` (Fig. 8.2): the candidate must offer every signal of
/// the generic interface, with bit widths and types acceptable to the
/// connected nets.
fn valid_signals(d: &mut Design, candidate: CellClassId, inst: CellInstanceId) -> bool {
    let generic = d.instance_class(inst);
    for sig in d.signals(generic).to_vec() {
        let Some(cand_sig) = d.signal_def(candidate, &sig.name).cloned() else {
            return false; // interface mismatch
        };
        // Bit width: tentatively push the candidate's width into the
        // instance's dual variable; net equalities object on mismatch.
        let cand_width = d.network().value(cand_sig.class_bit_width).clone();
        if !cand_width.is_nil() {
            let iv = d
                .instance_bit_width_var(inst, &sig.name)
                .expect("dual exists");
            if !d.network_mut().can_be_set_to(iv, cand_width) {
                return false;
            }
        }
        // Types: push candidate types at the connected net.
        if let Some(net) = d.connection(inst, &sig.name) {
            let (_, net_dt, net_et) = d.net_type_vars(net);
            let cand_dt = d.network().value(cand_sig.class_data_type).clone();
            if !cand_dt.is_nil() && !d.network_mut().can_be_set_to(net_dt, cand_dt) {
                return false;
            }
            let cand_et = d.network().value(cand_sig.class_electrical_type).clone();
            if !cand_et.is_nil() && !d.network_mut().can_be_set_to(net_et, cand_et) {
                return false;
            }
        }
    }
    true
}

/// `validDelaysFor:` (Fig. 8.2): for each dual delay variable of the
/// instance, the candidate's class delay — adjusted for the instance's
/// output loading — must be tentatively assignable without violating the
/// surrounding delay network's specifications.
fn valid_delays(
    d: &mut Design,
    analyzer: &mut DelayAnalyzer,
    candidate: CellClassId,
    inst: CellInstanceId,
) -> bool {
    let generic = d.instance_class(inst);
    let decls: Vec<(String, String)> = analyzer
        .declared(generic)
        .iter()
        .map(|(decl, _)| (decl.from.clone(), decl.to.clone()))
        .collect();
    for (from, to) in decls {
        let Some(inst_var) = analyzer.instance_delay_var(inst, &from, &to) else {
            continue; // no surrounding network routes through this delay
        };
        // Candidate's characteristic delay, computed on demand.
        let cand = match analyzer.delay(d, candidate, &from, &to) {
            Ok(Some(v)) => v,
            Ok(None) => continue, // uncharacterised: nothing to test
            Err(_) => return false,
        };
        let adjusted = cand + analyzer.load_adjust(d, inst, &to);
        if !d
            .network_mut()
            .can_be_set_to(inst_var, Value::Float(adjusted))
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = SelectionOptions::default();
        assert!(o.prune);
        assert_eq!(o.priorities, ALL_TESTS);
    }
}
