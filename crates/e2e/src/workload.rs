//! The four workloads: session shapes, engine configuration, load shape,
//! and the seeded batch generator that also predicts every batch's
//! outcome.
//!
//! Each connection owns a contiguous block of sessions and draws its
//! batches from its own [`Stream`]. A stream is a pure function of
//! `(workload, seed, connection)`: it keeps a one-number model of each of
//! its sessions (the value last committed to the session's root), picks
//! the next batch from the seeded generator, and records the outcome the
//! batch must have — a violation at a given command, or exactly these
//! outputs. Because each session is written by one connection only, and
//! the engine applies a session's batches in submission order, the model
//! is exact at every layer the batch is driven into.

use std::rc::Rc;

use stem_core::kinds::{
    DomLe, DomainConstraint, Equality, Functional, FunctionalOp, PredOp, Predicate,
};
use stem_core::prng::SplitMix64;
use stem_core::{ConstraintId, ConstraintKind, Interval, Value, VarId, View};
use stem_engine::{Command, ConstraintSpec, EngineConfig, Output, Source};

/// Largest value a non-violating `set` writes to a root.
const LIMIT: i64 = 1_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short chains, one batch in flight per connection: wire, server and
    /// engine-queue costs dominate.
    Interactive,
    /// Wide planned cones replayed on two propagation threads: compiled
    /// plan replay in `stem-core` dominates.
    FanoutReplay,
    /// Group-commit durable engine: WAL append and fsync dominate.
    DurableCommit,
    /// Mixed edits: plan hits, recompiles after toggles, violations with
    /// journal rollback, domain probes, reads and sweeps.
    EditMix,
}

/// How a workload loads the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Sessions, split into equal contiguous blocks across connections.
    pub sessions: usize,
    /// Client connections, one load thread each.
    pub conns: usize,
    /// Batches in flight per connection (closed loop).
    pub window: usize,
    /// Engine worker threads.
    pub workers: usize,
    /// Replay threads per session network.
    pub propagation_threads: usize,
    /// Whether the engine runs on a group-commit WAL.
    pub durable: bool,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::FanoutReplay,
        Workload::DurableCommit,
        Workload::EditMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::FanoutReplay => "fanout_replay",
            Workload::DurableCommit => "durable_commit",
            Workload::EditMix => "edit_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The load shape.
    pub fn profile(self) -> Profile {
        let p = |sessions, conns, window, workers, propagation_threads, durable| Profile {
            sessions,
            conns,
            window,
            workers,
            propagation_threads,
            durable,
        };
        match self {
            Workload::Interactive => p(64, 2, 1, 2, 1, false),
            Workload::FanoutReplay => p(4, 1, 4, 1, 2, false),
            Workload::DurableCommit => p(16, 2, 16, 2, 1, true),
            Workload::EditMix => p(8, 2, 4, 2, 1, false),
        }
    }

    /// Engine configuration every layer's engine is built with.
    pub fn engine_config(self) -> EngineConfig {
        let p = self.profile();
        EngineConfig {
            workers: p.workers,
            propagation_threads: p.propagation_threads,
            ..EngineConfig::default()
        }
    }

    /// The batch that builds one session, ending with the root set to 0.
    pub fn construction(self) -> Vec<Command> {
        let mut b = Builder::default();
        match self {
            Workload::Interactive => {
                // v0..v15 equality chain → s = Σ v12..v15 → s ≤ 4·LIMIT.
                let chain = b.chain(16);
                let s = b.var("sum");
                let mut args = chain[12..].to_vec();
                args.push(s);
                b.con(ConstraintSpec::Sum, args);
                b.con(ConstraintSpec::LeConst(Value::Int(4 * LIMIT)), vec![s]);
            }
            Workload::FanoutReplay => {
                // root → 4 heads → 128 mirrors each → per-cone Σ.
                let root = b.var("root");
                for c in 0..4 {
                    let head = b.var(&format!("h{c}"));
                    b.con(ConstraintSpec::Equality, vec![root, head]);
                    let mut args = Vec::with_capacity(129);
                    for j in 0..128 {
                        let m = b.var(&format!("m{c}_{j}"));
                        b.con(ConstraintSpec::Equality, vec![head, m]);
                        args.push(m);
                    }
                    args.push(b.var(&format!("o{c}")));
                    b.con(ConstraintSpec::Sum, args);
                }
            }
            Workload::DurableCommit => {
                b.chain(32);
            }
            Workload::EditMix => {
                // root r → 64 mirrors (constraints 0..64) → out = Σ
                // (constraint 64) → out ≤ 64·LIMIT (constraint 65); then a
                // root interval d with 64 bidirectional d ≤ yᵢ propagators.
                let r = b.var("r");
                let mirrors: Vec<VarId> = (0..64).map(|k| b.var(&format!("m{k}"))).collect();
                let out = b.var("out");
                let d = b.var("d");
                let ys: Vec<VarId> = (0..64).map(|i| b.var(&format!("y{i}"))).collect();
                for &m in &mirrors {
                    b.con(ConstraintSpec::Equality, vec![r, m]);
                }
                let mut args = mirrors;
                args.push(out);
                b.con(ConstraintSpec::Sum, args);
                b.con(ConstraintSpec::LeConst(Value::Int(64 * LIMIT)), vec![out]);
                for &v in std::iter::once(&d).chain(&ys) {
                    b.cmds.push(set(v, Value::Interval(Interval::new(0, 100))));
                }
                for &y in &ys {
                    b.con(
                        ConstraintSpec::DomLe {
                            c: 0,
                            views: [(1, 0), (1, 0)],
                            out: None,
                        },
                        vec![d, y],
                    );
                }
            }
        }
        b.cmds.push(set(VarId::from_index(0), Value::Int(0)));
        b.cmds
    }
}

/// Accumulates a construction batch, numbering variables as the engine
/// will (sequentially from 0 in a fresh session).
#[derive(Default)]
struct Builder {
    cmds: Vec<Command>,
    vars: usize,
}

impl Builder {
    fn var(&mut self, name: &str) -> VarId {
        self.cmds.push(Command::AddVariable { name: name.into() });
        self.vars += 1;
        VarId::from_index(self.vars - 1)
    }

    fn con(&mut self, spec: ConstraintSpec, args: Vec<VarId>) {
        self.cmds.push(Command::AddConstraint { spec, args });
    }

    fn chain(&mut self, n: usize) -> Vec<VarId> {
        let vars: Vec<VarId> = (0..n).map(|i| self.var(&format!("v{i}"))).collect();
        for pair in vars.windows(2) {
            self.con(ConstraintSpec::Equality, pair.to_vec());
        }
        vars
    }
}

fn set(var: VarId, value: Value) -> Command {
    Command::Set {
        var,
        value,
        source: Source::User,
    }
}

fn get(var: usize) -> Command {
    Command::Get {
        var: VarId::from_index(var),
    }
}

fn toggle(constraint: usize, enabled: bool) -> Command {
    Command::EnableConstraint {
        constraint: ConstraintId::from_index(constraint),
        enabled,
    }
}

fn int(v: i64) -> Output {
    Output::Value(Value::Int(v))
}

/// Materialises a wire constraint spec as the kind the engine builds for
/// it, so a core twin can be constructed from the same batch the server
/// receives. Covers exactly the specs the workload shapes use.
pub fn kind(spec: &ConstraintSpec) -> Rc<dyn ConstraintKind> {
    match spec {
        ConstraintSpec::Equality => Rc::new(Equality::new()),
        ConstraintSpec::Sum => Rc::new(Functional::new(FunctionalOp::Sum)),
        ConstraintSpec::LeConst(v) => Rc::new(Predicate::new(PredOp::LeConst(v.clone()))),
        ConstraintSpec::DomLe { c, views, out } => {
            Rc::new(DomainConstraint::new(DomLe::with_views(
                *c,
                views.map(|(a, b)| View::new(a, b)),
                out.map(usize::from),
            )))
        }
        other => unreachable!("no workload shape uses {other:?}"),
    }
}

/// The outcome a batch must have.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Commits with exactly these outputs.
    Ok(Vec<Output>),
    /// Rolls back on a violation raised by command `index`.
    Violation {
        /// Index of the violating command.
        index: usize,
    },
}

/// One generated batch.
#[derive(Debug)]
pub struct Batch {
    /// Index of the target session within the stream's block.
    pub session: usize,
    /// The commands.
    pub commands: Vec<Command>,
    /// The outcome they must have.
    pub expect: Expect,
}

/// A connection's seeded batch stream (see the module docs).
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    rng: SplitMix64,
    /// Value last committed to each session's root.
    roots: Vec<i64>,
    /// Batches generated so far.
    n: u64,
}

impl Stream {
    /// Connection `conn`'s stream for `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Stream {
        let p = workload.profile();
        // Connection c draws its generator seed as the (c+1)-th value of
        // a per-workload base stream.
        let mut base = SplitMix64::new(seed ^ ((workload as u64 + 1) << 48));
        let conn_seed = (0..=conn).fold(0, |_, _| base.next_u64());
        Stream {
            workload,
            rng: SplitMix64::new(conn_seed),
            roots: vec![0; p.sessions / p.conns],
            n: 0,
        }
    }

    /// The global session indexes connection `conn` owns.
    pub fn block(workload: Workload, conn: usize) -> std::ops::Range<usize> {
        let p = workload.profile();
        let per = p.sessions / p.conns;
        conn * per..(conn + 1) * per
    }

    /// A fresh root value in `[1, LIMIT]` different from `old`.
    fn fresh(&mut self, old: i64) -> i64 {
        let v = self.rng.range_i64(1, LIMIT + 1);
        if v == old {
            v % LIMIT + 1
        } else {
            v
        }
    }

    /// A value that trips the workload's `LeConst` guard.
    fn tripping(&mut self) -> i64 {
        self.rng.range_i64(LIMIT + 1, 2 * LIMIT + 1)
    }

    /// Generates the next batch and advances the session model.
    pub fn next_batch(&mut self) -> Batch {
        let session = self.rng.range_usize(0, self.roots.len());
        let x = self.roots[session];
        self.n += 1;
        let every_16th = self.n.is_multiple_of(16);
        let root = VarId::from_index(0);
        let (commands, expect, committed) = match self.workload {
            Workload::Interactive => {
                if self.rng.range_usize(0, 100) < 5 {
                    let bad = self.tripping();
                    (
                        vec![set(root, Value::Int(bad))],
                        Expect::Violation { index: 0 },
                        x,
                    )
                } else {
                    let y = self.fresh(x);
                    (
                        vec![set(root, Value::Int(y)), get(16)],
                        Expect::Ok(vec![Output::Unit, int(4 * y)]),
                        y,
                    )
                }
            }
            Workload::FanoutReplay => {
                let y = self.fresh(x);
                if every_16th {
                    let cone = self.rng.range_usize(0, 4);
                    (
                        vec![set(root, Value::Int(y)), get(1 + cone * 130 + 129)],
                        Expect::Ok(vec![Output::Unit, int(128 * y)]),
                        y,
                    )
                } else {
                    (
                        vec![set(root, Value::Int(y))],
                        Expect::Ok(vec![Output::Unit]),
                        y,
                    )
                }
            }
            Workload::DurableCommit => {
                let y = self.fresh(x);
                if every_16th {
                    (
                        vec![set(root, Value::Int(y)), get(31)],
                        Expect::Ok(vec![Output::Unit, int(y)]),
                        y,
                    )
                } else {
                    (
                        vec![set(root, Value::Int(y))],
                        Expect::Ok(vec![Output::Unit]),
                        y,
                    )
                }
            }
            Workload::EditMix => self.edit_mix(x),
        };
        self.roots[session] = committed;
        Batch {
            session,
            commands,
            expect,
        }
    }

    /// One `edit_mix` batch for a session whose root holds `x`: returns
    /// the commands, their expected outcome, and the root value after.
    fn edit_mix(&mut self, x: i64) -> (Vec<Command>, Expect, i64) {
        let root = VarId::from_index(0);
        let d = VarId::from_index(66);
        let roll = self.rng.range_usize(0, 100);
        match roll {
            // Plan hit: the root's compiled cone replays.
            0..=39 => {
                let y = self.fresh(x);
                (
                    vec![set(root, Value::Int(y))],
                    Expect::Ok(vec![Output::Unit]),
                    y,
                )
            }
            // Toggle a mirror's equality off and on around two sets: each
            // toggle invalidates the root's plan, each set recompiles.
            40..=54 => {
                let k = self.rng.range_usize(0, 64);
                let y1 = self.fresh(x);
                let mut y2 = self.fresh(y1);
                while y2 == x {
                    y2 = self.fresh(y1);
                }
                (
                    vec![
                        toggle(k, false),
                        set(root, Value::Int(y1)),
                        toggle(k, true),
                        set(root, Value::Int(y2)),
                    ],
                    Expect::Ok(vec![Output::Unit; 4]),
                    y2,
                )
            }
            // Trips the Σ guard after the whole cone was written: the
            // journal rolls back root, 64 mirrors and the sum.
            55..=64 => {
                let bad = self.tripping();
                (
                    vec![set(root, Value::Int(bad))],
                    Expect::Violation { index: 0 },
                    x,
                )
            }
            // Domain probe: an agenda fixpoint over the 64-wide fan that
            // never mutates. Feasible iff the lower bound fits under the
            // targets' upper bound of 100.
            65..=84 => {
                let feasible = self.rng.range_usize(0, 5) != 0;
                let (lo, hi) = if feasible {
                    let lo = self.rng.range_i64(0, 91);
                    (lo, self.rng.range_i64(lo, 101))
                } else {
                    let lo = self.rng.range_i64(101, 151);
                    (lo, lo + 10)
                };
                (
                    vec![Command::Probe {
                        var: d,
                        value: Value::Interval(Interval::new(lo, hi)),
                    }],
                    Expect::Ok(vec![Output::Feasible(feasible)]),
                    x,
                )
            }
            // Reads: a mirror and the sum.
            85..=94 => {
                let k = self.rng.range_usize(0, 64);
                (
                    vec![get(1 + k), get(65)],
                    Expect::Ok(vec![int(x), int(64 * x)]),
                    x,
                )
            }
            _ => (
                vec![Command::CheckAll],
                Expect::Ok(vec![Output::Violations(Vec::new())]),
                x,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_per_connection() {
        let w = Workload::EditMix;
        let a: Vec<String> = {
            let mut s = Stream::new(w, 3, 0);
            (0..50).map(|_| format!("{:?}", s.next_batch())).collect()
        };
        let b: Vec<String> = {
            let mut s = Stream::new(w, 3, 0);
            (0..50).map(|_| format!("{:?}", s.next_batch())).collect()
        };
        let c: Vec<String> = {
            let mut s = Stream::new(w, 3, 1);
            (0..50).map(|_| format!("{:?}", s.next_batch())).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn blocks_partition_the_sessions() {
        for w in Workload::ALL {
            let p = w.profile();
            let covered: Vec<usize> = (0..p.conns).flat_map(|c| Stream::block(w, c)).collect();
            assert_eq!(covered, (0..p.sessions).collect::<Vec<_>>());
            assert!(p.conns <= 2, "the load generator uses at most 2 threads");
        }
    }
}
