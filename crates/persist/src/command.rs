//! The batch vocabulary, declared once: the commands a client sends into
//! a session ([`Command`]), the constraints they install
//! ([`ConstraintSpec`]) and the provenance an assignment claims
//! ([`Source`]). The engine executes these types, the wire carries them,
//! the write-ahead log and the snapshot store them, and a replica replays
//! them — one `DomLe { c, views, out }` means the same thing everywhere.
//!
//! Everything here is `Send`: commands cross the thread boundary into the
//! worker that owns the session's network. A constraint travels as a
//! [`ConstraintSpec`] and becomes an `Rc<dyn ConstraintKind>` only inside
//! that worker (`stem-engine` builds it), because networks — and the kinds
//! they share — are single-threaded.
//!
//! The byte encoding covers what the log holds: mutating commands over
//! built-in kinds. Read-only commands are never logged, and a
//! [`ConstraintSpec::Custom`] kind is process-local code with no byte
//! form, so encoding either fails with [`io::ErrorKind::InvalidInput`].
//! The engine logs only mutating commands and refuses custom kinds on
//! durable engines, so everything that reaches the log replays.

use std::fmt;
use std::io;
use std::rc::Rc;
use std::sync::Arc;

use stem_core::codec::{
    put_bool, put_cid, put_f64, put_i64, put_str, put_u32, put_u8, put_value, put_var, DecodeError,
    Reader,
};
use stem_core::{ConstraintId, ConstraintKind, Justification, Value, VarId};

/// Builds a custom constraint kind inside the worker that owns the target
/// network. The closure must be `Send + Sync`; the kind it builds need
/// not be. Clones share the closure, and two factories are equal only
/// when they share it.
#[derive(Clone)]
pub struct KindFactory(Arc<dyn Fn() -> Rc<dyn ConstraintKind> + Send + Sync>);

impl KindFactory {
    /// Wraps a kind-building closure.
    pub fn new(f: impl Fn() -> Rc<dyn ConstraintKind> + Send + Sync + 'static) -> KindFactory {
        KindFactory(Arc::new(f))
    }

    /// Runs the closure. Call it in the worker that owns the network.
    pub fn build(&self) -> Rc<dyn ConstraintKind> {
        (self.0)()
    }
}

impl PartialEq for KindFactory {
    fn eq(&self, other: &KindFactory) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for KindFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// A `Send` description of a constraint to install. The closed variants
/// cover the built-in kinds; any other kind travels as a [`KindFactory`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintSpec {
    /// All arguments equal.
    Equality,
    /// Last argument = sum of the others.
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
    /// affine views `(a, b) ↦ a·x + b`, on exactly three arguments;
    /// `out == None` propagates all three ways, `Some(i)` only narrows
    /// argument `i`.
    DomAdd {
        /// Per-argument affine views `(a, b)`; `a == 0` is sanitised to 1.
        views: [(i64, i64); 3],
        /// Directional output argument, when restricted.
        out: Option<u8>,
    },
    /// Bounds-consistent domain relation `v0(x) ≤ v1(y) + c`, on exactly
    /// two arguments.
    DomLe {
        /// The offset `c`.
        c: i64,
        /// Per-argument affine views `(a, b)`; `a == 0` is sanitised to 1.
        views: [(i64, i64); 2],
        /// Directional output argument, when restricted.
        out: Option<u8>,
    },
    /// All arguments pairwise distinct (bounds reasoning).
    DomAllDiff,
    /// Reified inequality `args[0] ⇔ (v0(args[1]) ≤ v1(args[2]) + c)`, on
    /// exactly three arguments.
    DomReifLe {
        /// The offset `c`.
        c: i64,
        /// Affine views over `args[1]`/`args[2]`.
        views: [(i64, i64); 2],
    },
    /// Any other kind, built worker-side by the factory. Has no byte
    /// encoding.
    Custom(KindFactory),
}

/// The error for a command or spec the log cannot hold.
fn unloggable(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{what} have no byte encoding"),
    )
}

impl ConstraintSpec {
    /// Checks the spec against the number of arguments it is installed
    /// over: each domain relation takes a fixed arity, and a directional
    /// output must name one of its arguments. Other kinds take any arity.
    /// `Err` carries the reason.
    pub fn check_args(&self, n_args: usize) -> Result<(), String> {
        let (name, arity, out) = match self {
            ConstraintSpec::DomAdd { out, .. } => ("DomAdd", 3, *out),
            ConstraintSpec::DomLe { out, .. } => ("DomLe", 2, *out),
            ConstraintSpec::DomReifLe { .. } => ("DomReifLe", 3, None),
            _ => return Ok(()),
        };
        if n_args != arity {
            return Err(format!("{name} takes {arity} arguments, not {n_args}"));
        }
        match out {
            Some(o) if usize::from(o) >= arity => Err(format!(
                "{name} output index {o} is not one of its {arity} arguments"
            )),
            _ => Ok(()),
        }
    }

    /// Appends the spec to `buf`; a [`ConstraintSpec::Custom`] kind has no
    /// encoding (`InvalidInput`, nothing written).
    pub fn encode(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        match self {
            ConstraintSpec::Equality => put_u8(buf, 0),
            ConstraintSpec::Sum => put_u8(buf, 1),
            ConstraintSpec::Max => put_u8(buf, 2),
            ConstraintSpec::Min => put_u8(buf, 3),
            ConstraintSpec::Product => put_u8(buf, 4),
            ConstraintSpec::Scale { gain, offset } => {
                put_u8(buf, 5);
                put_f64(buf, *gain);
                put_f64(buf, *offset);
            }
            ConstraintSpec::LeConst(v) => {
                put_u8(buf, 6);
                put_value(buf, v);
            }
            ConstraintSpec::GeConst(v) => {
                put_u8(buf, 7);
                put_value(buf, v);
            }
            ConstraintSpec::EqConst(v) => {
                put_u8(buf, 8);
                put_value(buf, v);
            }
            ConstraintSpec::Le => put_u8(buf, 9),
            ConstraintSpec::Lt => put_u8(buf, 10),
            ConstraintSpec::DomAdd { views, out } => {
                put_u8(buf, 11);
                put_views(buf, views);
                // 255 = non-directional, mirroring the kind's `OUT_ALL`
                // (arity is bounded well below it).
                put_u8(buf, out.unwrap_or(u8::MAX));
            }
            ConstraintSpec::DomLe { c, views, out } => {
                put_u8(buf, 12);
                put_i64(buf, *c);
                put_views(buf, views);
                put_u8(buf, out.unwrap_or(u8::MAX));
            }
            ConstraintSpec::DomAllDiff => put_u8(buf, 13),
            ConstraintSpec::DomReifLe { c, views } => {
                put_u8(buf, 14);
                put_i64(buf, *c);
                put_views(buf, views);
            }
            ConstraintSpec::Custom(_) => return Err(unloggable("custom constraint kinds")),
        }
        Ok(())
    }

    /// Reads a spec from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<ConstraintSpec, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => ConstraintSpec::Equality,
            1 => ConstraintSpec::Sum,
            2 => ConstraintSpec::Max,
            3 => ConstraintSpec::Min,
            4 => ConstraintSpec::Product,
            5 => ConstraintSpec::Scale {
                gain: r.f64()?,
                offset: r.f64()?,
            },
            6 => ConstraintSpec::LeConst(r.value()?),
            7 => ConstraintSpec::GeConst(r.value()?),
            8 => ConstraintSpec::EqConst(r.value()?),
            9 => ConstraintSpec::Le,
            10 => ConstraintSpec::Lt,
            11 => ConstraintSpec::DomAdd {
                views: read_views(r)?,
                out: read_out(r)?,
            },
            12 => ConstraintSpec::DomLe {
                c: r.i64()?,
                views: read_views(r)?,
                out: read_out(r)?,
            },
            13 => ConstraintSpec::DomAllDiff,
            14 => ConstraintSpec::DomReifLe {
                c: r.i64()?,
                views: read_views(r)?,
            },
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "ConstraintSpec",
                    at,
                })
            }
        })
    }
}

fn put_views<const N: usize>(buf: &mut Vec<u8>, views: &[(i64, i64); N]) {
    for (a, b) in views {
        put_i64(buf, *a);
        put_i64(buf, *b);
    }
}

fn read_views<const N: usize>(r: &mut Reader<'_>) -> Result<[(i64, i64); N], DecodeError> {
    let mut views = [(0, 0); N];
    for view in &mut views {
        *view = (r.i64()?, r.i64()?);
    }
    Ok(views)
}

fn read_out(r: &mut Reader<'_>) -> Result<Option<u8>, DecodeError> {
    Ok(match r.u8()? {
        u8::MAX => None,
        o => Some(o),
    })
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

impl Source {
    fn encode(self, buf: &mut Vec<u8>) {
        put_u8(
            buf,
            match self {
                Source::User => 0,
                Source::Application => 1,
                Source::Update => 2,
                Source::DefaultValue => 3,
            },
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<Source, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => Source::User,
            1 => Source::Application,
            2 => Source::Update,
            3 => Source::DefaultValue,
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "Source",
                    at,
                })
            }
        })
    }
}

/// One operation inside a transactional batch. The replies named below
/// are `stem-engine`'s `Output` variants.
///
/// Commands referring to variables or constraints may also reference ids
/// created *earlier in the same batch*: ids are allocated sequentially, so
/// a client that knows the session's current `n_variables` can predict
/// them and build create-and-initialise batches that commit atomically.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Adds a plain variable; replies `Output::Var`.
    AddVariable {
        /// Display name.
        name: String,
    },
    /// Assigns a value with full propagation; replies `Output::Unit`.
    Set {
        /// Target variable.
        var: VarId,
        /// New value.
        value: Value,
        /// Claimed provenance.
        source: Source,
    },
    /// Erases a variable to `Nil`/unset without propagation; replies
    /// `Output::Unit`.
    Unset {
        /// Target variable.
        var: VarId,
    },
    /// Tentative validity probe (`canBeSetTo:`); never mutates; replies
    /// `Output::Feasible`.
    Probe {
        /// Target variable.
        var: VarId,
        /// Probed value.
        value: Value,
    },
    /// Reads a value; replies `Output::Value`.
    Get {
        /// Target variable.
        var: VarId,
    },
    /// Installs a constraint over `args` (re-initialising propagation);
    /// replies `Output::Constraint`.
    AddConstraint {
        /// What the constraint does.
        spec: ConstraintSpec,
        /// Its argument variables.
        args: Vec<VarId>,
    },
    /// Removes a constraint, erasing values it justified; replies
    /// `Output::Unit`.
    RemoveConstraint {
        /// Target constraint.
        constraint: ConstraintId,
    },
    /// Enables or disables one constraint; replies `Output::Unit`.
    EnableConstraint {
        /// Target constraint.
        constraint: ConstraintId,
        /// New enabled state.
        enabled: bool,
    },
    /// Enables/disables every constraint of a kind; replies
    /// `Output::Count` of toggles.
    SetKindEnabled {
        /// Kind label, e.g. `"equality"`.
        kind_name: String,
        /// New enabled state.
        enabled: bool,
    },
    /// Relaxes/tightens the per-cycle value-change rule (≥ 1); replies
    /// `Output::Unit`.
    SetValueChangeLimit {
        /// New limit.
        limit: u32,
    },
    /// Dumps `(name, value, justification)` for every variable; replies
    /// `Output::Dump`. Allowed on quarantined sessions.
    DumpValues,
    /// Sweeps all constraints for violations; replies
    /// `Output::Violations`. Allowed on quarantined sessions.
    CheckAll,
}

impl Command {
    /// Whether the command can change session state at all. Only these
    /// are logged: replaying a read-only command would be a no-op.
    pub fn is_mutating(&self) -> bool {
        !matches!(
            self,
            Command::Get { .. } | Command::Probe { .. } | Command::DumpValues | Command::CheckAll
        )
    }

    /// Appends the command to `buf`. Only mutating commands over built-in
    /// kinds have an encoding: a read-only command or a custom kind is
    /// `InvalidInput`, and `buf` may then hold a partial command.
    pub fn encode(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Command::AddVariable { name } => {
                put_u8(buf, 0);
                put_str(buf, name);
            }
            Command::Set { var, value, source } => {
                put_u8(buf, 1);
                put_var(buf, *var);
                put_value(buf, value);
                source.encode(buf);
            }
            Command::Unset { var } => {
                put_u8(buf, 2);
                put_var(buf, *var);
            }
            Command::AddConstraint { spec, args } => {
                put_u8(buf, 3);
                spec.encode(buf)?;
                put_u32(buf, args.len() as u32);
                for a in args {
                    put_var(buf, *a);
                }
            }
            Command::RemoveConstraint { constraint } => {
                put_u8(buf, 4);
                put_cid(buf, *constraint);
            }
            Command::EnableConstraint {
                constraint,
                enabled,
            } => {
                put_u8(buf, 5);
                put_cid(buf, *constraint);
                put_bool(buf, *enabled);
            }
            Command::SetKindEnabled { kind_name, enabled } => {
                put_u8(buf, 6);
                put_str(buf, kind_name);
                put_bool(buf, *enabled);
            }
            Command::SetValueChangeLimit { limit } => {
                put_u8(buf, 7);
                put_u32(buf, *limit);
            }
            Command::Get { .. }
            | Command::Probe { .. }
            | Command::DumpValues
            | Command::CheckAll => return Err(unloggable("read-only commands")),
        }
        Ok(())
    }

    /// Reads a (mutating) command from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Command, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => Command::AddVariable {
                name: r.str()?.to_owned(),
            },
            1 => Command::Set {
                var: r.var()?,
                value: r.value()?,
                source: Source::decode(r)?,
            },
            2 => Command::Unset { var: r.var()? },
            3 => {
                let spec = ConstraintSpec::decode(r)?;
                let n = r.len()?;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(r.var()?);
                }
                Command::AddConstraint { spec, args }
            }
            4 => Command::RemoveConstraint {
                constraint: r.cid()?,
            },
            5 => Command::EnableConstraint {
                constraint: r.cid()?,
                enabled: r.bool()?,
            },
            6 => Command::SetKindEnabled {
                kind_name: r.str()?.to_owned(),
                enabled: r.bool()?,
            },
            7 => Command::SetValueChangeLimit { limit: r.u32()? },
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "Command",
                    at,
                })
            }
        })
    }
}
