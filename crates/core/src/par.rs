//! Cone-kernel plan replay — compiled propagation plans lowered to pure
//! value kernels, partitioned into independent cones, and run on the
//! calling thread or on an in-tree scoped worker pool.
//!
//! A compiled [`PropPlan`](crate::plan::PropPlan) is a straight-line
//! recording of the agenda interpreter's work for one root change. After
//! the root write, its steps form a dependency forest: steps sharing no
//! variable (and hence no constraint) are *independent* — per Apt's
//! chaotic-iteration result (PAPERS.md, "The Essence of Constraint
//! Propagation"), any fair schedule of the same monotone inference
//! functions reaches the same fixpoint, so the connected components
//! ("cones") may run concurrently. This module
//!
//! 1. partitions a plan's steps into cones at compile time
//!    ([`build_par`]), refusing whenever a step's effect cannot be
//!    replicated off-thread (no [`ParKernel`], or a non-plain write
//!    target);
//! 2. executes the cones against a raw view of the value slots
//!    ([`SlotsView`]) — inline on the calling thread when the costliest
//!    cone is below the network's per-task floor, otherwise on a lazily
//!    spawned global worker pool ([`pool_run`]). Sharing the view
//!    is sound because the partition proves every variable is written
//!    by at most one cone and read only by cones that also own it; debug
//!    builds assert that proof on every slot access;
//! 3. mirrors the sequential replay's statistics exactly
//!    ([`run_cone`]), so a successful kernel replay is byte-identical to
//!    `run_plan` — and any deviation (overwrite denial, unsatisfied
//!    constraint) aborts the attempt, restores every write, and falls
//!    back to the sequential path, which *is* the ground truth;
//! 4. skips the final check wherever a kernel already proved it: a
//!    `Copy`/`Apply` step whose writes all landed (or found the value
//!    already there) leaves its constraint *established*, and only the
//!    visited constraints left unestablished are re-tested.
//!
//! The pool is hermetic (std threads + `Mutex`/`Condvar`, no
//! dependencies) and global: engine workers share it, submitting jobs
//! whose tasks the submitter and the helpers that join claim through one
//! shared index. The cones are independent, so which executor runs which
//! cone changes only wall-clock time: every counter in [`ParStats`] is as
//! deterministic as the values.

use crate::ids::{ConstraintId, VarId};
use crate::justification::{DependencyRecord, Justification};
use crate::network::{Network, ValueSlot};
use crate::plan::{PlanOp, PropPlan};
use crate::value::Value;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

// The whole design rests on value state crossing threads; fail the build,
// not the race detector, if that ever regresses.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Justification>();
};

/// Counters for the kernel replay path, kept separate from
/// [`Stats`](crate::Stats) so the core propagation statistics stay
/// byte-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStats {
    /// Planned replays served by the cone kernels, inline or on the
    /// worker pool.
    pub plan_replays_parallel: u64,
    /// Total cones executed across all kernel replays.
    pub cones_executed: u64,
    /// Planned replays that wanted the kernel path but ran sequentially:
    /// the plan has no partition (an unkernelable step or a non-plain
    /// write target), or the kernel attempt aborted (violation).
    pub parallel_fallbacks: u64,
}

/// A pure value computation mirroring the built-in
/// [`FunctionalOp`](crate::kinds::FunctionalOp) arms — the `Send`-safe
/// subset a [`ParKernel::Apply`] may evaluate off-thread. The fold
/// semantics replicate `FunctionalOp::apply` bit for bit (same `Nil`
/// short-circuits, same numeric promotion), which the differential test
/// pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PureOp {
    /// Sum of inputs.
    Sum,
    /// Maximum of inputs.
    Max,
    /// Minimum of inputs.
    Min,
    /// Product of inputs (float).
    Product,
    /// Affine map of a single input: `gain * x + offset`.
    Scale {
        /// Multiplier.
        gain: f64,
        /// Addend.
        offset: f64,
    },
}

impl PureOp {
    /// Applies the operation to the input values. `None` means "cannot
    /// compute" (non-numeric input, wrong arity) — the constraint simply
    /// does not fire, exactly like `FunctionalOp::apply`.
    pub fn apply<'a, I: Iterator<Item = &'a Value>>(&self, mut inputs: I) -> Option<Value> {
        match self {
            PureOp::Sum => inputs.try_fold(Value::Int(0), |acc, v| acc.numeric_add(v)),
            PureOp::Max => {
                let first = inputs.next()?.clone();
                inputs.try_fold(first, |acc, v| acc.numeric_max(v))
            }
            PureOp::Min => {
                let first = inputs.next()?.clone();
                inputs.try_fold(first, |acc, v| acc.numeric_min(v))
            }
            PureOp::Product => inputs
                .try_fold(1.0_f64, |acc, v| v.as_f64().map(|x| acc * x))
                .map(Value::Float),
            PureOp::Scale { gain, offset } => {
                let x = inputs.next()?.as_f64()?;
                if inputs.next().is_some() {
                    return None;
                }
                Some(Value::Float(gain * x + offset))
            }
        }
    }
}

/// A thread-safe description of one constraint's `infer` effect, returned
/// by [`ConstraintKind::par_kernel`](crate::ConstraintKind::par_kernel).
/// The kernel must produce exactly the `propagate_set` calls `infer`
/// would make — same targets, same order, same values, same dependency
/// records.
#[derive(Debug, Clone)]
pub enum ParKernel {
    /// `infer` assigns nothing (check-only kinds); the satisfaction test
    /// still runs in the sequential final sweep.
    Check,
    /// Copy the source argument's value to every target, in order, each
    /// with a [`DependencyRecord::Single`] record; a `Nil` source
    /// propagates nothing (equality-style kinds).
    Copy {
        /// The changed argument whose value spreads.
        source: VarId,
        /// The other arguments, in argument order.
        targets: Vec<VarId>,
    },
    /// Evaluate `op` over the inputs and assign the result with a
    /// [`DependencyRecord::All`] record; any `Nil` input (or an
    /// uncomputable op) propagates nothing (functional kinds).
    Apply {
        /// The pure computation.
        op: PureOp,
        /// Input arguments, in argument order.
        inputs: Vec<VarId>,
        /// The result argument.
        result: VarId,
    },
}

/// A write target resolved against a cone's local mark table: the global
/// slot index plus the cone-local liveness index.
#[derive(Debug, Clone, Copy)]
struct ParWrite {
    var: VarId,
    /// Index into the owning cone's `var_marks`.
    local: u32,
}

/// A [`ParKernel`] with its write targets resolved to cone-local indices.
#[derive(Debug, Clone)]
enum ConeKernel {
    Check,
    Copy {
        source: VarId,
        targets: Vec<ParWrite>,
    },
    Apply {
        op: PureOp,
        inputs: Vec<VarId>,
        result: ParWrite,
    },
}

/// One plan step assigned to a cone. `plan_idx` preserves the step's
/// position in the sequential plan so the final-check order can be
/// reconstructed by merging cones.
#[derive(Debug, Clone)]
struct ParStep {
    plan_idx: u32,
    op: PlanOp,
    cid: ConstraintId,
    /// Cone-local index of the trigger variable for activation steps;
    /// `u32::MAX` for [`PlanOp::RunScheduled`] (entry-gated instead).
    trigger: u32,
    /// Cone-local agenda-entry index for `Schedule*`/`RunScheduled`
    /// steps; `u32::MAX` elsewhere.
    entry: u32,
    /// Cone-local constraint index, deduplicating the visited sweep.
    cid_local: u32,
    /// Whether a fully landed run of this step's kernel proves its
    /// constraint satisfied: a `Copy`, or an `Apply` whose result is not
    /// also one of its inputs (writing such a result changes the inputs
    /// the satisfaction test recomputes from). Decided at build time.
    establishes: bool,
    kernel: ConeKernel,
}

/// Per-replay counter deltas accumulated by one cone, merged into
/// [`Stats`](crate::Stats) on commit so totals match the sequential
/// replay exactly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConeCounters {
    pub(crate) activations: u64,
    pub(crate) inferences: u64,
    pub(crate) schedules: u64,
    pub(crate) scheduled_runs: u64,
    pub(crate) assignments: u64,
}

/// A cone's mutable replay state. Owned by the cone (inside the cached
/// plan), so repeated replays reuse the allocations — the kernel-path
/// analogue of the sequential path's pooled `PropState`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConeScratch {
    /// Epoch for the mark tables below; bumped once per replay, never 0.
    epoch: u32,
    /// Per cone-local variable: epoch of the replay in which it last
    /// changed (index 0 is the root, live by fiat).
    var_marks: Vec<u32>,
    /// Per cone-local constraint: epoch of its first live dispatch.
    cid_marks: Vec<u32>,
    /// Per cone-local constraint: the current epoch while the
    /// constraint's latest live step was a kernel run that established
    /// it; anything else means it still needs the final check.
    est_marks: Vec<u32>,
    /// Per cone-local agenda entry: epoch of its first live sighting.
    entry_marks: Vec<u32>,
    /// Pre-images of this replay's writes (each variable at most once:
    /// plans are single-writer). Drained into the journal on commit,
    /// written back on abort.
    pub(crate) pre: Vec<(VarId, Value, Justification)>,
    /// Constraints dispatched live this replay and left unestablished,
    /// tagged with the plan index of their first sighting for cross-cone
    /// order recovery (and their cone-local index while the cone runs).
    checks: Vec<(u32, ConstraintId, u32)>,
    pub(crate) counters: ConeCounters,
    /// An overwrite was denied mid-cone: the sequential interpreter
    /// would have raised a violation here, so the whole kernel attempt
    /// must abort and fall back.
    failed: bool,
}

/// One independent component of a plan's post-root dependency graph.
#[derive(Debug, Clone)]
pub(crate) struct ParCone {
    /// Position in the partition: the owner id the debug slot table
    /// records for this cone's writes.
    ix: u32,
    steps: Vec<ParStep>,
    pub(crate) scratch: ConeScratch,
}

/// The cone partition of one compiled plan, stored alongside the
/// sequential step vectors inside [`PropPlan`] — so the plan's
/// generation counter covers the partition metadata too, and a
/// structural edit invalidates both at once.
#[derive(Debug, Clone)]
pub(crate) struct ParPlan {
    /// Strength of every constraint slot (tombstoned included —
    /// justifications may still reference them), indexed by
    /// `ConstraintId::index`. Snapshotted at compile time so overwrite
    /// arbitration runs off-thread without touching the `Rc` kinds.
    strengths: Vec<u8>,
    /// Executing-step count of the costliest cone. The replay compares
    /// it against `Network::set_parallel_min_steps`: below the floor,
    /// pool hand-off costs more than it buys and the kernels run inline
    /// on the calling thread.
    pub(crate) max_task_exec: u32,
    pub(crate) cones: Vec<ParCone>,
    /// Debug builds: the owning cone of every slot a cone writes
    /// ([`NO_OWNER`] elsewhere), indexed by variable — the disjoint-write
    /// proof [`SlotsView`] asserts on each access. Empty in release.
    owners: Vec<u32>,
}

impl ParPlan {
    /// Runs every cone against `slots` — on the calling thread when
    /// `threads <= 1`, otherwise across the worker pool. The caller has
    /// already written the root.
    pub(crate) fn replay(&mut self, slots: &mut [ValueSlot], threads: usize) {
        let view = SlotsView::new(slots, &self.owners);
        let strengths: &[u8] = &self.strengths;
        if threads <= 1 || self.cones.len() <= 1 {
            for cone in &mut self.cones {
                run_cone(cone, &view, strengths);
            }
            return;
        }
        // Each task index is claimed exactly once, so every lock is
        // uncontended; the mutex only hands out the `&mut` safely.
        let tasks: Vec<Mutex<&mut ParCone>> = self.cones.iter_mut().map(Mutex::new).collect();
        pool_run(tasks.len(), threads, &|t| {
            let mut cone = tasks[t]
                .lock()
                .expect("each cone is locked once per replay, so never poisoned");
            run_cone(&mut cone, &view, strengths);
        });
    }

    /// Whether any cone hit an overwrite denial this replay.
    pub(crate) fn failed(&self) -> bool {
        self.cones.iter().any(|c| c.scratch.failed)
    }

    /// The visited constraints no kernel established, in the sequential
    /// replay's first-visit order.
    pub(crate) fn pending_checks(&self) -> Vec<(u32, ConstraintId)> {
        let mut out: Vec<(u32, ConstraintId)> = self
            .cones
            .iter()
            .flat_map(|c| c.scratch.checks.iter().map(|&(ix, cid, _)| (ix, cid)))
            .collect();
        out.sort_unstable_by_key(|&(ix, _)| ix);
        out
    }

    /// Writes every pre-image back (abort path).
    pub(crate) fn undo(&mut self, slots: &mut [ValueSlot]) {
        for cone in &mut self.cones {
            for (var, value, justification) in cone.scratch.pre.drain(..) {
                let s = &mut slots[var.index()];
                s.value = value;
                s.justification = justification;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Raw slot view
// ----------------------------------------------------------------------

/// Owner-table entry for a slot no cone writes (the root, read-only
/// ambient inputs, and everything outside the plan).
const NO_OWNER: u32 = u32::MAX;

/// A raw, thread-shareable view of the network's value-slot arena,
/// exclusively borrowed for `'a` so the owning thread cannot touch the
/// slots while workers hold the view.
///
/// Soundness comes entirely from the compile-time partition:
///
/// - every variable is *written* by at most one cone (plans are
///   single-writer and cones partition the write set);
/// - every variable a cone *reads* is either written by that same cone,
///   the root (written by the calling thread before launch, read-only
///   during), or written by no cone at all — a variable read by cone A
///   and written by cone B would be an argument of constraints in both,
///   forcing A and B into the same component.
///
/// Debug builds carry the partition's owner table and assert both rules
/// on every access, so the differential suites check the proof at run
/// time.
struct SlotsView<'a> {
    ptr: *mut ValueSlot,
    len: usize,
    owners: &'a [u32],
    _slots: PhantomData<&'a mut [ValueSlot]>,
}

// SAFETY: the view is only ever shared by reference with the pool tasks
// of one replay, and every access through it obeys the partition
// discipline above (each slot has one writer and no concurrent reader of
// another cone). `ValueSlot`'s contents are `Send + Sync` (checked at
// the top of this module).
unsafe impl Sync for SlotsView<'_> {}

impl<'a> SlotsView<'a> {
    fn new(slots: &'a mut [ValueSlot], owners: &'a [u32]) -> Self {
        SlotsView {
            ptr: slots.as_mut_ptr(),
            len: slots.len(),
            owners,
            _slots: PhantomData,
        }
    }

    /// Owner of slot `ix` per the debug table.
    fn owner(&self, ix: usize) -> u32 {
        self.owners.get(ix).copied().unwrap_or(NO_OWNER)
    }

    /// Shared access to `var`'s slot from cone `cone`.
    ///
    /// # Safety
    ///
    /// No other cone may write `var` during the replay: it must be
    /// written by `cone` itself or by no cone at all.
    unsafe fn get(&self, var: VarId, cone: u32) -> &ValueSlot {
        let ix = var.index();
        debug_assert!(ix < self.len);
        debug_assert!(
            matches!(self.owner(ix), o if o == NO_OWNER || o == cone),
            "cone {cone} reads {var}, written by cone {}",
            self.owner(ix)
        );
        &*self.ptr.add(ix)
    }

    /// Exclusive access to `var`'s slot from cone `cone`.
    ///
    /// # Safety
    ///
    /// `cone` must be `var`'s single writer, and no reference from an
    /// earlier `get`/`get_mut` of the same slot may still be live.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, var: VarId, cone: u32) -> &mut ValueSlot {
        let ix = var.index();
        debug_assert!(ix < self.len);
        debug_assert!(
            self.owner(ix) == cone,
            "cone {cone} writes {var}, owned by cone {}",
            self.owner(ix)
        );
        &mut *self.ptr.add(ix)
    }
}

// ----------------------------------------------------------------------
// Cone execution
// ----------------------------------------------------------------------

/// Outcome of the overwrite arbitration a propagated write must pass.
enum WriteGate {
    /// Perform the write.
    Proceed,
    /// The slot already holds the value (the value pruning).
    Equal,
    /// A stronger propagation holds the slot: keep it silently.
    Yield,
    /// The sequential interpreter would raise `overwrite_denied` (or the
    /// slot's state is outside this plan's compile-time snapshot): abort
    /// the kernel attempt and let the sequential fallback reproduce the
    /// outcome exactly.
    Deny,
}

/// The planned branch of `propagate_set` plus the [`PlainKind`]
/// overwrite rule (build-time admission guarantees every target is
/// plain): equal value → equal (the value pruning); user-justified →
/// deny; weaker propagation → yield; else proceed. A justification whose
/// constraint lies outside the compile-time strength snapshot denies
/// too — per-root invalidation makes that unreachable (any edit
/// touching a plan's footprint evicts it), but the fallback is always
/// correct, so refuse rather than trust the index.
///
/// [`PlainKind`]: crate::PlainKind
fn arbitrate_write(
    s: &ValueSlot,
    value: &Value,
    strengths: &[u8],
    source: ConstraintId,
) -> WriteGate {
    if s.value == *value {
        return WriteGate::Equal;
    }
    if !s.value.is_nil() {
        match &s.justification {
            j if j.is_user() => return WriteGate::Deny,
            Justification::Propagated { constraint, .. } => {
                match strengths.get(constraint.index()) {
                    Some(&held) if strengths[source.index()] < held => {
                        return WriteGate::Yield;
                    }
                    Some(_) => {}
                    None => return WriteGate::Deny,
                }
            }
            _ => {}
        }
    }
    WriteGate::Proceed
}

/// One propagated write into the target's slot: arbitrate, then write,
/// saving the pre-image and marking the target live. Returns whether the
/// slot now holds `value` (written, or already equal).
fn write_slot(
    scratch: &mut ConeScratch,
    s: &mut ValueSlot,
    strengths: &[u8],
    target: ParWrite,
    value: Value,
    source: ConstraintId,
    record: DependencyRecord,
) -> bool {
    match arbitrate_write(s, &value, strengths, source) {
        WriteGate::Equal => return true,
        WriteGate::Yield => return false,
        WriteGate::Deny => {
            scratch.failed = true;
            return false;
        }
        WriteGate::Proceed => {}
    }
    let pre_value = std::mem::replace(&mut s.value, value);
    let pre_just = std::mem::replace(
        &mut s.justification,
        Justification::Propagated {
            constraint: source,
            record,
        },
    );
    scratch.pre.push((target.var, pre_value, pre_just));
    scratch.var_marks[target.local as usize] = scratch.epoch;
    scratch.counters.assignments += 1;
    true
}

/// Replays one cone against the slot view, mirroring the sequential
/// `run_plan` walk: per-step liveness gating via the epoch marks, the
/// same counter increments at the same sites, and the same first-live
/// constraint visit order (recorded with plan indices for the merged
/// final check). Every live step of a constraint re-decides whether it
/// is established; only a kernel run that establishes it sets the mark.
fn run_cone(cone: &mut ParCone, slots: &SlotsView, strengths: &[u8]) {
    let owner = cone.ix;
    let scratch = &mut cone.scratch;
    scratch.epoch = scratch.epoch.wrapping_add(1);
    if scratch.epoch == 0 {
        scratch.var_marks.iter_mut().for_each(|m| *m = 0);
        scratch.cid_marks.iter_mut().for_each(|m| *m = 0);
        scratch.est_marks.iter_mut().for_each(|m| *m = 0);
        scratch.entry_marks.iter_mut().for_each(|m| *m = 0);
        scratch.epoch = 1;
    }
    scratch.pre.clear();
    scratch.checks.clear();
    scratch.counters = ConeCounters::default();
    scratch.failed = false;
    let epoch = scratch.epoch;
    // The root (local index 0) is live by fiat: `set` dispatches its cone
    // unconditionally, equal value or not.
    scratch.var_marks[0] = epoch;
    for step in &cone.steps {
        let c = step.cid_local as usize;
        let established = if step.op == PlanOp::RunScheduled {
            if scratch.entry_marks[step.entry as usize] != epoch {
                continue; // never actually scheduled this replay
            }
            scratch.counters.scheduled_runs += 1;
            scratch.counters.inferences += 1;
            run_kernel(scratch, slots, strengths, step, owner)
        } else {
            if scratch.var_marks[step.trigger as usize] != epoch {
                continue; // value-pruned
            }
            if scratch.cid_marks[c] != epoch {
                scratch.cid_marks[c] = epoch;
                scratch
                    .checks
                    .push((step.plan_idx, step.cid, step.cid_local));
            }
            scratch.counters.activations += 1;
            match step.op {
                PlanOp::Immediate => {
                    scratch.counters.inferences += 1;
                    run_kernel(scratch, slots, strengths, step, owner)
                }
                PlanOp::NoActivate => false,
                _ => {
                    if scratch.entry_marks[step.entry as usize] != epoch {
                        scratch.entry_marks[step.entry as usize] = epoch;
                        scratch.counters.schedules += 1;
                    }
                    false
                }
            }
        };
        if scratch.failed {
            return;
        }
        scratch.est_marks[c] = if established { epoch } else { 0 };
    }
    let est = &scratch.est_marks;
    scratch.checks.retain(|&(_, _, l)| est[l as usize] != epoch);
}

/// Whether `v` equals itself — false exactly when a NaN hides in it, in
/// which case no equality or functional test over it can succeed.
#[allow(clippy::eq_op)]
fn reflexive(v: &Value) -> bool {
    v == v
}

/// Runs one step's kernel; returns whether the run established the
/// step's constraint: every write landed or found its value already in
/// place, the value equals itself (a NaN never satisfies an equality
/// test), and the step is one whose landing proves satisfaction.
fn run_kernel(
    scratch: &mut ConeScratch,
    slots: &SlotsView,
    strengths: &[u8],
    step: &ParStep,
    owner: u32,
) -> bool {
    match &step.kernel {
        ConeKernel::Check => false,
        ConeKernel::Copy { source, targets } => {
            // SAFETY: the source is an argument of this step's constraint,
            // so it is written by this cone or by no cone (the root among
            // them); the clone ends the shared borrow before any write.
            let new_value = unsafe { slots.get(*source, owner) }.value.clone();
            if new_value.is_nil() {
                return false; // a Nil change propagates nothing
            }
            let mut landed = step.establishes && reflexive(&new_value);
            for &t in targets {
                // SAFETY: build_par gave this cone the single write of
                // every target, and the borrow ends with `write_slot`.
                let s = unsafe { slots.get_mut(t.var, owner) };
                let record = DependencyRecord::Single(*source);
                landed &= write_slot(
                    scratch,
                    s,
                    strengths,
                    t,
                    new_value.clone(),
                    step.cid,
                    record,
                );
                if scratch.failed {
                    return false;
                }
            }
            landed
        }
        ConeKernel::Apply { op, inputs, result } => {
            // SAFETY: inputs are arguments of this step's constraint —
            // written by this cone or by no cone — and the computed value
            // owns its data, so the shared borrows end here.
            let computed = unsafe {
                if inputs.iter().any(|&v| slots.get(v, owner).value.is_nil()) {
                    None
                } else {
                    op.apply(inputs.iter().map(|&v| &slots.get(v, owner).value))
                }
            };
            let Some(value) = computed else {
                return false; // no information: the constraint does not fire
            };
            let holds_itself = reflexive(&value);
            // SAFETY: the result is this cone's exclusive write (build_par),
            // and no input borrow is live any more.
            let s = unsafe { slots.get_mut(result.var, owner) };
            let landed = write_slot(
                scratch,
                s,
                strengths,
                *result,
                value,
                step.cid,
                DependencyRecord::All,
            );
            step.establishes && holds_itself && landed
        }
    }
}

// ----------------------------------------------------------------------
// Cone partitioning (compile time)
// ----------------------------------------------------------------------

fn uf_find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let g = parent[parent[i as usize] as usize];
        parent[i as usize] = g;
        i = g;
    }
    i
}

fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (uf_find(parent, a), uf_find(parent, b));
    if ra != rb {
        // Deterministic: lower root wins, keeping component ids stable
        // under the plan-order walk.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi as usize] = lo;
    }
}

/// Partitions a compiled plan into independent cones, resolving each
/// executing step's [`ParKernel`]. Every kernelizable plan gets a
/// partition, one cone or many; whether a replay engages the pool is
/// decided per replay against the network's floor. Returns `None` —
/// leaving the plan on the sequential path — when:
///
/// - any executing step's kind offers no kernel, or the kernel's write
///   set disagrees with `planned_writes` (a buggy third-party kind);
/// - any write target is not a plain-kind variable (the off-thread
///   overwrite rule is `PlainKind`'s).
pub(crate) fn build_par(net: &Network, root: VarId, plan: &PropPlan) -> Option<Box<ParPlan>> {
    let n = plan.ops.len();
    // Resolve kernels first (cheap bail before the union-find work).
    let mut kernels: Vec<Option<ParKernel>> = Vec::with_capacity(n);
    for i in 0..n {
        let (op, cid, chg) = (plan.ops[i], plan.cids[i], plan.changed[i]);
        if !matches!(op, PlanOp::Immediate | PlanOp::RunScheduled) {
            kernels.push(None); // never runs `infer`; no kernel needed
            continue;
        }
        let kernel = plan.kinds[i].par_kernel(net, cid, chg)?;
        // The kernel's write set must match the write set the plan was
        // simulated under, or liveness would flow differently.
        let declared = plan.kinds[i].planned_writes(net, cid, chg)?;
        let kernel_writes: Vec<VarId> = match &kernel {
            ParKernel::Check => Vec::new(),
            ParKernel::Copy { targets, .. } => targets.clone(),
            ParKernel::Apply { result, .. } => vec![*result],
        };
        if kernel_writes != declared {
            return None;
        }
        for &w in &kernel_writes {
            if w == root || !net.var_is_plain(w) {
                return None;
            }
        }
        kernels.push(Some(kernel));
    }
    // Union steps sharing any argument variable (triggers, reads and
    // writes are all arguments of the step's constraint). The root is
    // excluded: it is what all cones hang off.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut var_owner: HashMap<VarId, u32> = HashMap::new();
    for (i, &cid) in plan.cids.iter().enumerate() {
        for &a in net.args(cid) {
            if a == root {
                continue;
            }
            match var_owner.entry(a) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    uf_union(&mut parent, *e.get(), i as u32);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
            }
        }
    }
    // Group steps into cones in first-appearance order.
    let mut cone_of_comp: HashMap<u32, usize> = HashMap::new();
    let mut builds: Vec<ConeBuild> = Vec::new();
    for (i, kernel) in kernels.iter_mut().enumerate() {
        let comp = uf_find(&mut parent, i as u32);
        let cix = *cone_of_comp.entry(comp).or_insert_with(|| {
            builds.push(ConeBuild::new(root));
            builds.len() - 1
        });
        builds[cix].push_step(plan, i, kernel.take())?;
    }
    let max_task_exec = builds.iter().map(ConeBuild::exec_steps).max().unwrap_or(0);
    let cones: Vec<ParCone> = builds
        .into_iter()
        .enumerate()
        .map(|(ix, b)| b.finish(ix as u32))
        .collect();
    let mut owners = Vec::new();
    if cfg!(debug_assertions) {
        owners = vec![NO_OWNER; net.n_variables()];
        for cone in &cones {
            for step in &cone.steps {
                match &step.kernel {
                    ConeKernel::Check => {}
                    ConeKernel::Copy { targets, .. } => {
                        for t in targets {
                            owners[t.var.index()] = cone.ix;
                        }
                    }
                    ConeKernel::Apply { result, .. } => owners[result.var.index()] = cone.ix,
                }
            }
        }
    }
    Some(Box::new(ParPlan {
        strengths: net.constraint_slot_strengths(),
        max_task_exec,
        cones,
        owners,
    }))
}

/// Accumulator for one cone during partitioning: step list plus the
/// local index maps for variables, constraints and agenda entries.
struct ConeBuild {
    steps: Vec<ParStep>,
    local_vars: HashMap<VarId, u32>,
    local_cids: HashMap<ConstraintId, u32>,
    local_entries: HashMap<u32, u32>,
}

impl ConeBuild {
    fn new(root: VarId) -> Self {
        let mut local_vars = HashMap::new();
        local_vars.insert(root, 0); // the root is everyone's local 0
        ConeBuild {
            steps: Vec::new(),
            local_vars,
            local_cids: HashMap::new(),
            local_entries: HashMap::new(),
        }
    }

    fn push_step(&mut self, plan: &PropPlan, i: usize, kernel: Option<ParKernel>) -> Option<()> {
        let op = plan.ops[i];
        let cid = plan.cids[i];
        let n_cids = self.local_cids.len() as u32;
        let cid_local = *self.local_cids.entry(cid).or_insert(n_cids);
        let trigger = if op == PlanOp::RunScheduled {
            u32::MAX
        } else {
            // The trigger was written by an earlier step of this cone
            // (or is the root): plan order respects dataflow. A miss
            // means the kind lied about its writes — refuse.
            let t = plan.changed[i].expect("activation steps carry their trigger");
            *self.local_vars.get(&t)?
        };
        let entry = if plan.entry_of[i] == u32::MAX {
            u32::MAX
        } else {
            let n_entries = self.local_entries.len() as u32;
            *self
                .local_entries
                .entry(plan.entry_of[i])
                .or_insert(n_entries)
        };
        let (establishes, kernel) = match kernel {
            None | Some(ParKernel::Check) => (false, ConeKernel::Check),
            Some(ParKernel::Copy { source, targets }) => (
                true,
                ConeKernel::Copy {
                    source,
                    targets: targets
                        .into_iter()
                        .map(|v| self.add_write(v))
                        .collect::<Option<Vec<_>>>()?,
                },
            ),
            Some(ParKernel::Apply { op, inputs, result }) => (
                !inputs.contains(&result),
                ConeKernel::Apply {
                    op,
                    inputs,
                    result: self.add_write(result)?,
                },
            ),
        };
        self.steps.push(ParStep {
            plan_idx: i as u32,
            op,
            cid,
            trigger,
            entry,
            cid_local,
            establishes,
            kernel,
        });
        Some(())
    }

    /// Assigns a fresh local index to a write target. Single-writer
    /// plans guarantee each variable is written once; a duplicate means
    /// a kind's kernel disagrees with the simulation — refuse.
    fn add_write(&mut self, var: VarId) -> Option<ParWrite> {
        let next = self.local_vars.len() as u32;
        match self.local_vars.entry(var) {
            std::collections::hash_map::Entry::Occupied(_) => None,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                Some(ParWrite { var, local: next })
            }
        }
    }

    /// Executing-step count: the per-task cost the replay compares
    /// against the pool floor.
    fn exec_steps(&self) -> u32 {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, PlanOp::Immediate | PlanOp::RunScheduled))
            .count() as u32
    }

    fn finish(self, ix: u32) -> ParCone {
        let n_cids = self.local_cids.len();
        let scratch = ConeScratch {
            epoch: 0,
            var_marks: vec![0; self.local_vars.len()],
            cid_marks: vec![0; n_cids],
            est_marks: vec![0; n_cids],
            entry_marks: vec![0; self.local_entries.len()],
            pre: Vec::new(),
            checks: Vec::new(),
            counters: ConeCounters::default(),
            failed: false,
        };
        ParCone {
            ix,
            steps: self.steps,
            scratch,
        }
    }
}

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

/// Hard cap on pool helper threads across the process.
const MAX_POOL_WORKERS: usize = 64;

/// Type-erased pointer to a submitter's task closure. The closure lives
/// on the submitter's stack; [`pool_run`] guarantees it outlives the job
/// (the job slot is removed before `pool_run` returns or unwinds, and
/// workers only dereference the pointer while the slot is live).
struct SendFnPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so calling it from helper threads is
// sound; the pointer itself only crosses threads inside the pool lock,
// and `pool_run` keeps the closure alive for as long as any helper can
// reach it (see the type's doc).
unsafe impl Send for SendFnPtr {}

/// One submitted job: a closure plus one claim index. The submitter and
/// every helper that joins claim the next unclaimed task index. Claims
/// happen under the pool lock: on the hermetic target the lock is the
/// synchronization point anyway, and completing a task under it gives
/// the submitter a happens-before edge to every write the task made
/// before `pool_run` returns.
struct PoolJob {
    f: SendFnPtr,
    /// Next task index to hand out; tasks `next..n_tasks` are unclaimed.
    next: usize,
    n_tasks: usize,
    /// Claimed-or-unclaimed tasks not yet completed; the submitter
    /// returns only when this reaches zero.
    outstanding: usize,
    /// Maximum helpers that may join (submitter's `threads - 1`).
    cap: usize,
    /// Helpers currently inside the job.
    joined: usize,
    /// A task panicked (in a helper); the submitter re-raises.
    panicked: bool,
}

impl PoolJob {
    /// Claims the next unclaimed task, if any.
    fn claim(&mut self) -> Option<usize> {
        if self.next >= self.n_tasks {
            return None;
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

#[derive(Default)]
struct PoolState {
    /// Stable-index job slots (`None` = free). Indices stay valid for a
    /// job's whole lifetime; removal just clears the slot.
    jobs: Vec<Option<PoolJob>>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when work arrives (helpers wait here).
    work_cv: Condvar,
    /// Signalled when a job's last task completes (submitters wait here).
    done_cv: Condvar,
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    fn new() -> Self {
        Pool {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Lazily grows the helper set to `want` threads (process-capped).
    /// Helpers never exit; they park on `work_cv` between jobs.
    fn ensure_spawned(&'static self, want: usize) {
        let want = want.min(MAX_POOL_WORKERS);
        loop {
            let cur = self.spawned.load(Ordering::Relaxed);
            if cur >= want {
                return;
            }
            if self
                .spawned
                .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                let spawned = std::thread::Builder::new()
                    .name(format!("stem-par-{cur}"))
                    .spawn(move || self.worker_loop());
                if spawned.is_err() {
                    // Thread exhaustion: run degraded (submitter still
                    // drains every task itself).
                    self.spawned.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    fn worker_loop(&self) {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // Find a job with unclaimed tasks and helper capacity, and
            // join it.
            let mut found = None;
            for (ji, slot) in guard.jobs.iter_mut().enumerate() {
                if let Some(j) = slot {
                    if j.joined < j.cap && j.next < j.n_tasks {
                        j.joined += 1;
                        found = Some(ji);
                        break;
                    }
                }
            }
            let Some(ji) = found else {
                guard = self.work_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            // Drain the job. The slot cannot be removed while we are
            // inside: removal requires `outstanding == 0`, and every
            // task we claim keeps `outstanding` positive until we mark
            // it complete — which we do holding the same lock we then
            // re-inspect the job under.
            loop {
                let j = guard.jobs[ji].as_mut().expect("job alive while joined");
                let Some(t) = j.claim() else {
                    j.joined -= 1;
                    break;
                };
                let f = j.f.0;
                drop(guard);
                // SAFETY: the job slot is live (outstanding > 0), so the
                // submitter is still inside `pool_run` and the closure
                // is alive on its stack.
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (unsafe { &*f })(t);
                }))
                .is_err();
                guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
                let j = guard.jobs[ji].as_mut().expect("job alive while running");
                if panicked {
                    j.panicked = true;
                }
                j.outstanding -= 1;
                if j.outstanding == 0 {
                    self.done_cv.notify_all();
                }
            }
        }
    }
}

/// Runs `f(0..n_tasks)` across up to `threads` executors (the calling
/// thread plus pool helpers) and returns once every task has completed.
/// With `threads <= 1` or a single task, runs inline with no pool
/// traffic. Panics in tasks propagate to the caller after all tasks
/// finish or are accounted for.
pub(crate) fn pool_run(n_tasks: usize, threads: usize, f: &(dyn Fn(usize) + Sync)) {
    if threads <= 1 || n_tasks <= 1 {
        for t in 0..n_tasks {
            f(t);
        }
        return;
    }
    let pool = POOL.get_or_init(Pool::new);
    let helpers = (threads - 1).min(n_tasks - 1).min(MAX_POOL_WORKERS);
    pool.ensure_spawned(helpers);
    // SAFETY: only the lifetime is erased. The job slot holding the
    // pointer is cleared below, after `outstanding` reached zero, before
    // this function returns or unwinds (task panics are caught), so no
    // helper dereferences it once `f` may be gone; see `SendFnPtr`.
    let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let ji = {
        let mut guard = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        let job = PoolJob {
            f: SendFnPtr(f_static as *const _),
            next: 0,
            n_tasks,
            outstanding: n_tasks,
            cap: helpers,
            joined: 0,
            panicked: false,
        };
        match guard.jobs.iter().position(|s| s.is_none()) {
            Some(i) => {
                guard.jobs[i] = Some(job);
                i
            }
            None => {
                guard.jobs.push(Some(job));
                guard.jobs.len() - 1
            }
        }
    };
    pool.work_cv.notify_all();
    // Claim tasks alongside the helpers, then wait for the stragglers
    // they still hold.
    let mut local_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut guard = pool.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let j = guard.jobs[ji].as_mut().expect("own job alive");
        if let Some(t) = j.claim() {
            drop(guard);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t)));
            guard = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(p) = result {
                local_panic = Some(p);
            }
            let j = guard.jobs[ji].as_mut().expect("own job alive");
            j.outstanding -= 1;
            if j.outstanding == 0 {
                pool.done_cv.notify_all();
            }
        } else if j.outstanding > 0 {
            guard = pool.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        } else {
            break;
        }
    }
    let helper_panicked = guard.jobs[ji].take().is_some_and(|j| j.panicked);
    drop(guard);
    if let Some(p) = local_panic {
        std::panic::resume_unwind(p);
    }
    if helper_panicked {
        panic!("parallel replay worker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::{Duration, Instant};

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool_run(100, 4, &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn pool_helpers_run_tasks() {
        // Each task waits until the other has started, so the job only
        // finishes if a helper claims one task while the submitter runs
        // the other. If no helper ever claims, the submitter's task gives
        // up at the deadline, and its panic fails the test.
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let deadline = Instant::now() + Duration::from_secs(5);
        pool_run(2, 2, &|t| {
            started[t].store(true, Ordering::SeqCst);
            while !started[1 - t].load(Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "task {t} ran alone: no helper claimed the other task"
                );
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn pool_inline_when_single_threaded() {
        // One thread, or a single task at any thread count, runs every
        // task on the calling thread.
        let caller = std::thread::current().id();
        for (n_tasks, threads) in [(7, 1), (1, 8)] {
            let hits = AtomicU64::new(0);
            pool_run(n_tasks, threads, &|_| {
                assert_eq!(std::thread::current().id(), caller);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), n_tasks as u64);
        }
    }

    #[test]
    fn pool_handles_back_to_back_jobs() {
        for round in 0..50 {
            let sum = AtomicU64::new(0);
            let n = 1 + (round % 9);
            pool_run(n, 3, &|t| {
                sum.fetch_add(t as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (n * (n + 1) / 2) as u64);
        }
    }

    #[test]
    fn pool_propagates_task_panics() {
        let caught = std::panic::catch_unwind(|| {
            pool_run(8, 4, &|t| {
                if t == 5 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        // The pool survives a panicked job.
        let hits = AtomicU64::new(0);
        pool_run(8, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    fn slots(n: usize) -> Vec<ValueSlot> {
        (0..n)
            .map(|_| ValueSlot {
                value: Value::Nil,
                justification: Justification::Unset,
            })
            .collect()
    }

    #[test]
    fn slot_view_admits_the_partition() {
        // Slot 0 is the root (no owner), 1 belongs to cone 1, 2 to cone 0.
        let mut arena = slots(3);
        let owners = [NO_OWNER, 1, 0];
        let view = SlotsView::new(&mut arena, &owners);
        // SAFETY: single-threaded; each borrow ends before the next.
        unsafe {
            view.get_mut(VarId(2), 0).value = Value::Int(7);
            assert!(view.get(VarId(0), 0).value.is_nil());
            assert_eq!(view.get(VarId(2), 0).value, Value::Int(7));
            assert!(view.get(VarId(1), 1).value.is_nil());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cone 0 writes v1, owned by cone 1")]
    fn slot_view_rejects_a_write_outside_the_owning_cone() {
        let mut arena = slots(3);
        let owners = [NO_OWNER, 1, 0];
        let view = SlotsView::new(&mut arena, &owners);
        // SAFETY: single-threaded; the debug owner table panics first.
        unsafe { view.get_mut(VarId(1), 0) }.value = Value::Int(1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cone 1 reads v2, written by cone 0")]
    fn slot_view_rejects_a_read_of_another_cones_write() {
        let mut arena = slots(3);
        let owners = [NO_OWNER, 1, 0];
        let view = SlotsView::new(&mut arena, &owners);
        // SAFETY: single-threaded; the debug owner table panics first.
        let _ = unsafe { view.get(VarId(2), 1) };
    }

    #[test]
    fn pure_op_matches_functional_semantics() {
        let vals = [Value::Int(2), Value::Int(3)];
        assert_eq!(PureOp::Sum.apply(vals.iter()), Some(Value::Int(5)));
        assert_eq!(PureOp::Max.apply(vals.iter()), Some(Value::Int(3)));
        assert_eq!(PureOp::Min.apply(vals.iter()), Some(Value::Int(2)));
        assert_eq!(PureOp::Product.apply(vals.iter()), Some(Value::Float(6.0)));
        let one = [Value::Float(3.0)];
        assert_eq!(
            PureOp::Scale {
                gain: 2.0,
                offset: 1.0
            }
            .apply(one.iter()),
            Some(Value::Float(7.0))
        );
        // Scale refuses extra inputs, like FunctionalOp.
        let two = [Value::Float(3.0), Value::Float(4.0)];
        assert_eq!(
            PureOp::Scale {
                gain: 2.0,
                offset: 1.0
            }
            .apply(two.iter()),
            None
        );
        // Empty sums fold from the identity.
        let empty: [Value; 0] = [];
        assert_eq!(PureOp::Sum.apply(empty.iter()), Some(Value::Int(0)));
        assert_eq!(PureOp::Max.apply(empty.iter()), None);
    }
}
