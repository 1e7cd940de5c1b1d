//! The wire protocol: `[len][crc32][payload]` frames over TCP, payloads
//! encoded with the same `stem_core::codec` vocabulary the WAL uses.
//!
//! Framing mirrors a WAL record on purpose — a 4-byte little-endian
//! payload length, a CRC-32 of the payload, then the payload — so the
//! transport inherits the log's corruption story: a frame either arrives
//! intact or is rejected as a whole, and a half-written frame at
//! connection teardown reads as a clean EOF, never a garbled message.
//! Mutating commands ride as their [`PersistCommand`] encoding (the exact
//! bytes the leader logs), which is what makes segment shipping and
//! submission share one vocabulary; the four read-only commands get wire
//! tags of their own.
//!
//! Every request is answered by exactly one reply, in request order —
//! pipelining is therefore a client-side choice (send many, then read
//! many), not a protocol mode.

use std::io::{self, Read, Write};

use stem_core::codec::{
    put_bytes, put_justification, put_str, put_u32, put_u64, put_u8, put_value, put_var,
    put_violation, DecodeError, Reader,
};
use stem_engine::{BatchError, BatchOutcome, Command, EngineStats, Output, SessionStats};
use stem_persist::crc::crc32;
use stem_persist::{PersistCommand, PersistSpec};

/// Hard ceiling on one frame's payload (matches the WAL's record bound):
/// anything longer is a protocol violation, not a large message.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one `[len][crc32][payload]` frame. The caller flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds the cap", payload.len()),
        ));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` is a clean EOF — the peer closed between
/// frames; EOF *inside* a frame is an error, exactly like a torn WAL
/// record mid-file.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame-header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame claims {len} bytes, cap is {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Maps a payload decode failure onto the I/O error the transport layer
/// reports (the checksum passed, so this is a peer speaking the wrong
/// protocol, not line noise).
pub fn decode_error(err: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad payload: {err:?}"))
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One client → server message. Every request earns exactly one [`Reply`].
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Create a session; replies [`Reply::Session`].
    Open,
    /// Close a session; replies [`Reply::Closed`].
    Close {
        /// Target session.
        session: u64,
    },
    /// Submit one command batch; replies [`Reply::Batch`]. Submissions on
    /// one connection apply to their session in submission order.
    Submit {
        /// Target session.
        session: u64,
        /// The batch.
        commands: Vec<Command>,
    },
    /// Engine-wide counters; replies [`Reply::Stats`].
    Stats,
    /// One session's counters; replies [`Reply::SessionStats`].
    SessionStats {
        /// Target session.
        session: u64,
    },
    /// Seal the active WAL segment; replies [`Reply::Sealed`] with every
    /// shippable segment index.
    SealWal,
    /// Fetch a sealed segment's bytes; replies [`Reply::Segment`].
    FetchSegment {
        /// Segment index from [`Reply::Sealed`].
        index: u64,
    },
    /// Fetch the newest checkpoint snapshot; replies [`Reply::Snapshot`].
    FetchSnapshot,
    /// Bootstrap this (replica) server from a leader snapshot; replies
    /// [`Reply::Ingested`] with the installed-session count in `applied`.
    IngestSnapshot {
        /// Bytes from a leader's [`Reply::Snapshot`].
        bytes: Vec<u8>,
    },
    /// Replay one shipped segment into this (replica) server; replies
    /// [`Reply::Ingested`].
    IngestSegment {
        /// Bytes from a leader's [`Reply::Segment`].
        bytes: Vec<u8>,
    },
    /// Promote this replica to a writable leader; replies
    /// [`Reply::Promoted`].
    Promote,
    /// Ask the server process to shut down; replies
    /// [`Reply::ShuttingDown`], then the listener stops accepting.
    Shutdown,
    /// Submit one command batch under an idempotence key; replies
    /// [`Reply::Batch`]. Keys are a dense per-session counter of the
    /// client's mutating batches: a resend of an already-applied key is
    /// acknowledged with an empty outcome instead of applying twice,
    /// which is what makes reconnect-and-resubmit safe across failover.
    SubmitSeq {
        /// Target session.
        session: u64,
        /// Idempotence key (1-based; 0 would mean "unkeyed").
        key: u64,
        /// The batch.
        commands: Vec<Command>,
    },
    /// Ask who holds the write lease for the shard owning `session`;
    /// replies [`Reply::Lease`]. Epoch 0 means no lease is installed
    /// (a standalone, unfenced server).
    Lease {
        /// Any session id on the shard of interest (0 for shard 0).
        session: u64,
    },
    /// Fetch everything a cold joiner needs in one conversation: the
    /// newest snapshot (if any) plus every sealed WAL segment after it;
    /// replies [`Reply::CatchUp`]. Seals the active segment first so the
    /// tail is complete as of the request.
    CatchUp,
}

impl Request {
    /// Appends the request to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Request::Ping => put_u8(buf, 0),
            Request::Open => put_u8(buf, 1),
            Request::Close { session } => {
                put_u8(buf, 2);
                put_u64(buf, *session);
            }
            Request::Submit { session, commands } => put_submit(buf, *session, commands)?,
            Request::Stats => put_u8(buf, 4),
            Request::SessionStats { session } => {
                put_u8(buf, 5);
                put_u64(buf, *session);
            }
            Request::SealWal => put_u8(buf, 6),
            Request::FetchSegment { index } => {
                put_u8(buf, 7);
                put_u64(buf, *index);
            }
            Request::FetchSnapshot => put_u8(buf, 8),
            Request::IngestSnapshot { bytes } => {
                put_u8(buf, 9);
                put_bytes(buf, bytes);
            }
            Request::IngestSegment { bytes } => {
                put_u8(buf, 10);
                put_bytes(buf, bytes);
            }
            Request::Promote => put_u8(buf, 11),
            Request::Shutdown => put_u8(buf, 12),
            Request::SubmitSeq {
                session,
                key,
                commands,
            } => put_submit_keyed(buf, *session, *key, commands)?,
            Request::Lease { session } => {
                put_u8(buf, 14);
                put_u64(buf, *session);
            }
            Request::CatchUp => put_u8(buf, 15),
        }
        Ok(())
    }

    /// Decodes one request.
    pub fn decode(r: &mut Reader<'_>) -> Result<Request, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => Request::Ping,
            1 => Request::Open,
            2 => Request::Close { session: r.u64()? },
            3 => {
                let session = r.u64()?;
                let n = r.len()?;
                let mut commands = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    commands.push(read_command(r)?);
                }
                Request::Submit { session, commands }
            }
            4 => Request::Stats,
            5 => Request::SessionStats { session: r.u64()? },
            6 => Request::SealWal,
            7 => Request::FetchSegment { index: r.u64()? },
            8 => Request::FetchSnapshot,
            9 => Request::IngestSnapshot {
                bytes: r.bytes()?.to_vec(),
            },
            10 => Request::IngestSegment {
                bytes: r.bytes()?.to_vec(),
            },
            11 => Request::Promote,
            12 => Request::Shutdown,
            13 => {
                let session = r.u64()?;
                let key = r.u64()?;
                let n = r.len()?;
                let mut commands = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    commands.push(read_command(r)?);
                }
                Request::SubmitSeq {
                    session,
                    key,
                    commands,
                }
            }
            14 => Request::Lease { session: r.u64()? },
            15 => Request::CatchUp,
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "Request",
                    at,
                })
            }
        })
    }
}

/// Encodes a [`Request::Submit`] from borrowed commands ([`Command`] is
/// not `Clone`, so pipelining clients encode straight from a slice).
pub fn put_submit(buf: &mut Vec<u8>, session: u64, commands: &[Command]) -> io::Result<()> {
    put_u8(buf, 3);
    put_u64(buf, session);
    put_u32(buf, commands.len() as u32);
    for cmd in commands {
        put_command(buf, cmd)?;
    }
    Ok(())
}

/// Encodes a [`Request::SubmitSeq`] from borrowed commands, for the
/// retrying client's resend buffer.
pub fn put_submit_keyed(
    buf: &mut Vec<u8>,
    session: u64,
    key: u64,
    commands: &[Command],
) -> io::Result<()> {
    put_u8(buf, 13);
    put_u64(buf, session);
    put_u64(buf, key);
    put_u32(buf, commands.len() as u32);
    for cmd in commands {
        put_command(buf, cmd)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Commands on the wire
// ---------------------------------------------------------------------

/// Rebuilds a [`PersistCommand`] image of a mutating engine command.
/// `None` for read-only commands (they have their own wire tags) —
/// `Err`-like `None` also for a custom kind factory, which cannot cross a
/// process boundary.
fn to_persist(cmd: &Command) -> Option<PersistCommand> {
    Some(match cmd {
        Command::AddVariable { name } => PersistCommand::AddVariable { name: name.clone() },
        Command::Set { var, value, source } => PersistCommand::Set {
            var: *var,
            value: value.clone(),
            source: (*source).into(),
        },
        Command::Unset { var } => PersistCommand::Unset { var: *var },
        Command::AddConstraint { spec, args } => PersistCommand::AddConstraint {
            spec: PersistSpec::try_from(spec).ok()?,
            args: args.clone(),
        },
        Command::RemoveConstraint { constraint } => PersistCommand::RemoveConstraint {
            constraint: *constraint,
        },
        Command::EnableConstraint {
            constraint,
            enabled,
        } => PersistCommand::EnableConstraint {
            constraint: *constraint,
            enabled: *enabled,
        },
        Command::SetKindEnabled { kind_name, enabled } => PersistCommand::SetKindEnabled {
            kind_name: kind_name.clone(),
            enabled: *enabled,
        },
        Command::SetValueChangeLimit { limit } => {
            PersistCommand::SetValueChangeLimit { limit: *limit }
        }
        Command::Get { .. } | Command::Probe { .. } | Command::DumpValues | Command::CheckAll => {
            return None
        }
    })
}

/// Appends one command: mutating commands as tag 0 + their WAL encoding,
/// read-only commands with wire tags of their own.
pub fn put_command(buf: &mut Vec<u8>, cmd: &Command) -> io::Result<()> {
    match cmd {
        Command::Get { var } => {
            put_u8(buf, 1);
            put_var(buf, *var);
        }
        Command::Probe { var, value } => {
            put_u8(buf, 2);
            put_var(buf, *var);
            put_value(buf, value);
        }
        Command::DumpValues => put_u8(buf, 3),
        Command::CheckAll => put_u8(buf, 4),
        mutating => {
            let Some(p) = to_persist(mutating) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "custom constraint kinds cannot be submitted over the wire",
                ));
            };
            put_u8(buf, 0);
            p.encode(buf);
        }
    }
    Ok(())
}

/// Decodes one command.
pub fn read_command(r: &mut Reader<'_>) -> Result<Command, DecodeError> {
    let at = r.position();
    Ok(match r.u8()? {
        0 => PersistCommand::decode(r)?.into(),
        1 => Command::Get { var: r.var()? },
        2 => Command::Probe {
            var: r.var()?,
            value: r.value()?,
        },
        3 => Command::DumpValues,
        4 => Command::CheckAll,
        tag => {
            return Err(DecodeError::Tag {
                tag,
                what: "Command",
                at,
            })
        }
    })
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// One server → client message.
#[derive(Debug)]
pub enum Reply {
    /// [`Request::Ping`] answer.
    Pong,
    /// A session was created.
    Session {
        /// Its engine-unique id.
        id: u64,
    },
    /// [`Request::Close`] answer.
    Closed {
        /// Whether the session existed and was closed by this request.
        existed: bool,
    },
    /// A batch's outcome, exactly as the engine reported it.
    Batch(Result<BatchOutcome, BatchError>),
    /// Engine-wide counters.
    Stats(EngineStats),
    /// One session's counters.
    SessionStats(SessionStats),
    /// Shippable (sealed) WAL segment indexes, ascending.
    Sealed {
        /// Segment indexes for [`Request::FetchSegment`].
        segments: Vec<u64>,
    },
    /// One sealed segment's raw bytes.
    Segment {
        /// The `STEMWAL1` segment image.
        bytes: Vec<u8>,
    },
    /// The newest checkpoint snapshot, if one exists.
    Snapshot {
        /// The snapshot file image, or `None` before any checkpoint.
        bytes: Option<Vec<u8>>,
    },
    /// What an ingestion request did.
    Ingested {
        /// Records applied (sessions installed, for a snapshot).
        applied: u64,
        /// Records skipped as already-covered duplicates.
        skipped: u64,
        /// Sequence gaps / replay failures (each quarantined a session).
        anomalies: u64,
    },
    /// [`Request::Promote`] answer.
    Promoted {
        /// Whether the engine was a replica before this request.
        was_replica: bool,
    },
    /// The server acknowledged [`Request::Shutdown`] and is stopping.
    ShuttingDown,
    /// The request itself failed server-side (I/O error on a WAL
    /// operation, ingestion on a non-replica, …).
    Err {
        /// Human-readable reason.
        message: String,
    },
    /// The server refused the connection at its connection cap. Sent as
    /// the only frame on an over-cap connection, before it is closed —
    /// a structured refusal the client can back off on, never a silent
    /// drop it would misread as a network fault.
    Busy {
        /// Connections the server is currently serving.
        active: u64,
        /// The configured cap those connections have filled.
        max: u64,
    },
    /// [`Request::Lease`] answer.
    Lease {
        /// Monotonic lease epoch; 0 if no lease is installed.
        epoch: u64,
        /// Opaque holder id the coordinator assigned (0 if none).
        holder: u64,
    },
    /// [`Request::CatchUp`] answer: a cold joiner ingests the snapshot
    /// (when present), then the segments in order.
    CatchUp {
        /// Newest checkpoint snapshot image, if one exists.
        snapshot: Option<Vec<u8>>,
        /// Every sealed segment after that snapshot, ascending.
        segments: Vec<Vec<u8>>,
    },
}

impl Reply {
    /// Appends the reply to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Pong => put_u8(buf, 0),
            Reply::Session { id } => {
                put_u8(buf, 1);
                put_u64(buf, *id);
            }
            Reply::Closed { existed } => {
                put_u8(buf, 2);
                put_u8(buf, u8::from(*existed));
            }
            Reply::Batch(result) => {
                put_u8(buf, 3);
                match result {
                    Ok(out) => {
                        put_u8(buf, 1);
                        put_u32(buf, out.outputs.len() as u32);
                        for o in &out.outputs {
                            put_output(buf, o);
                        }
                        put_u64(buf, out.waves);
                        put_u64(buf, out.assignments);
                    }
                    Err(err) => {
                        put_u8(buf, 0);
                        put_batch_error(buf, err);
                    }
                }
            }
            Reply::Stats(stats) => {
                put_u8(buf, 4);
                put_engine_stats(buf, stats);
            }
            Reply::SessionStats(stats) => {
                put_u8(buf, 5);
                put_session_stats(buf, stats);
            }
            Reply::Sealed { segments } => {
                put_u8(buf, 6);
                put_u32(buf, segments.len() as u32);
                for s in segments {
                    put_u64(buf, *s);
                }
            }
            Reply::Segment { bytes } => {
                put_u8(buf, 7);
                put_bytes(buf, bytes);
            }
            Reply::Snapshot { bytes } => {
                put_u8(buf, 8);
                match bytes {
                    Some(b) => {
                        put_u8(buf, 1);
                        put_bytes(buf, b);
                    }
                    None => put_u8(buf, 0),
                }
            }
            Reply::Ingested {
                applied,
                skipped,
                anomalies,
            } => {
                put_u8(buf, 9);
                put_u64(buf, *applied);
                put_u64(buf, *skipped);
                put_u64(buf, *anomalies);
            }
            Reply::Promoted { was_replica } => {
                put_u8(buf, 10);
                put_u8(buf, u8::from(*was_replica));
            }
            Reply::ShuttingDown => put_u8(buf, 11),
            Reply::Err { message } => {
                put_u8(buf, 12);
                put_str(buf, message);
            }
            Reply::Busy { active, max } => {
                put_u8(buf, 13);
                put_u64(buf, *active);
                put_u64(buf, *max);
            }
            Reply::Lease { epoch, holder } => {
                put_u8(buf, 14);
                put_u64(buf, *epoch);
                put_u64(buf, *holder);
            }
            Reply::CatchUp { snapshot, segments } => {
                put_u8(buf, 15);
                match snapshot {
                    Some(b) => {
                        put_u8(buf, 1);
                        put_bytes(buf, b);
                    }
                    None => put_u8(buf, 0),
                }
                put_u32(buf, segments.len() as u32);
                for seg in segments {
                    put_bytes(buf, seg);
                }
            }
        }
    }

    /// Decodes one reply.
    pub fn decode(r: &mut Reader<'_>) -> Result<Reply, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => Reply::Pong,
            1 => Reply::Session { id: r.u64()? },
            2 => Reply::Closed { existed: r.bool()? },
            3 => {
                if r.bool()? {
                    let n = r.len()?;
                    let mut outputs = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        outputs.push(read_output(r)?);
                    }
                    let waves = r.u64()?;
                    let assignments = r.u64()?;
                    Reply::Batch(Ok(BatchOutcome {
                        outputs,
                        waves,
                        assignments,
                    }))
                } else {
                    Reply::Batch(Err(read_batch_error(r)?))
                }
            }
            4 => Reply::Stats(read_engine_stats(r)?),
            5 => Reply::SessionStats(read_session_stats(r)?),
            6 => {
                let n = r.len()?;
                let mut segments = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    segments.push(r.u64()?);
                }
                Reply::Sealed { segments }
            }
            7 => Reply::Segment {
                bytes: r.bytes()?.to_vec(),
            },
            8 => Reply::Snapshot {
                bytes: if r.bool()? {
                    Some(r.bytes()?.to_vec())
                } else {
                    None
                },
            },
            9 => Reply::Ingested {
                applied: r.u64()?,
                skipped: r.u64()?,
                anomalies: r.u64()?,
            },
            10 => Reply::Promoted {
                was_replica: r.bool()?,
            },
            11 => Reply::ShuttingDown,
            12 => Reply::Err {
                message: r.str()?.to_string(),
            },
            13 => Reply::Busy {
                active: r.u64()?,
                max: r.u64()?,
            },
            14 => Reply::Lease {
                epoch: r.u64()?,
                holder: r.u64()?,
            },
            15 => {
                let snapshot = if r.bool()? {
                    Some(r.bytes()?.to_vec())
                } else {
                    None
                };
                let n = r.len()?;
                let mut segments = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    segments.push(r.bytes()?.to_vec());
                }
                Reply::CatchUp { snapshot, segments }
            }
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "Reply",
                    at,
                })
            }
        })
    }
}

fn put_output(buf: &mut Vec<u8>, out: &Output) {
    match out {
        Output::Unit => put_u8(buf, 0),
        Output::Var(v) => {
            put_u8(buf, 1);
            put_var(buf, *v);
        }
        Output::Constraint(c) => {
            put_u8(buf, 2);
            put_u32(buf, c.index() as u32);
        }
        Output::Value(v) => {
            put_u8(buf, 3);
            put_value(buf, v);
        }
        Output::Feasible(ok) => {
            put_u8(buf, 4);
            put_u8(buf, u8::from(*ok));
        }
        Output::Count(n) => {
            put_u8(buf, 5);
            put_u64(buf, *n as u64);
        }
        Output::Dump(entries) => {
            put_u8(buf, 6);
            put_u32(buf, entries.len() as u32);
            for (name, value, just) in entries {
                put_str(buf, name);
                put_value(buf, value);
                put_justification(buf, just);
            }
        }
        Output::Violations(vs) => {
            put_u8(buf, 7);
            put_u32(buf, vs.len() as u32);
            for v in vs {
                put_violation(buf, v);
            }
        }
    }
}

fn read_output(r: &mut Reader<'_>) -> Result<Output, DecodeError> {
    let at = r.position();
    Ok(match r.u8()? {
        0 => Output::Unit,
        1 => Output::Var(r.var()?),
        2 => Output::Constraint(r.cid()?),
        3 => Output::Value(r.value()?),
        4 => Output::Feasible(r.bool()?),
        5 => Output::Count(r.u64()? as usize),
        6 => {
            let n = r.len()?;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = r.str()?.to_string();
                let value = r.value()?;
                let just = r.justification()?;
                entries.push((name, value, just));
            }
            Output::Dump(entries)
        }
        7 => {
            let n = r.len()?;
            let mut vs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                vs.push(r.violation()?);
            }
            Output::Violations(vs)
        }
        tag => {
            return Err(DecodeError::Tag {
                tag,
                what: "Output",
                at,
            })
        }
    })
}

fn put_batch_error(buf: &mut Vec<u8>, err: &BatchError) {
    match err {
        BatchError::Violation { index, violation } => {
            put_u8(buf, 0);
            put_u64(buf, *index as u64);
            put_violation(buf, violation);
        }
        BatchError::InvalidCommand { index, reason } => {
            put_u8(buf, 1);
            put_u64(buf, *index as u64);
            put_str(buf, reason);
        }
        BatchError::Panicked { index, message } => {
            put_u8(buf, 2);
            put_u64(buf, *index as u64);
            put_str(buf, message);
        }
        BatchError::Persist { message } => {
            put_u8(buf, 3);
            put_str(buf, message);
        }
        BatchError::Quarantined => put_u8(buf, 4),
        BatchError::Backpressure => put_u8(buf, 5),
        BatchError::Shutdown => put_u8(buf, 6),
        BatchError::ReadOnlyReplica => put_u8(buf, 7),
    }
}

fn read_batch_error(r: &mut Reader<'_>) -> Result<BatchError, DecodeError> {
    let at = r.position();
    Ok(match r.u8()? {
        0 => BatchError::Violation {
            index: r.u64()? as usize,
            violation: r.violation()?,
        },
        1 => BatchError::InvalidCommand {
            index: r.u64()? as usize,
            reason: r.str()?.to_string(),
        },
        2 => BatchError::Panicked {
            index: r.u64()? as usize,
            message: r.str()?.to_string(),
        },
        3 => BatchError::Persist {
            message: r.str()?.to_string(),
        },
        4 => BatchError::Quarantined,
        5 => BatchError::Backpressure,
        6 => BatchError::Shutdown,
        7 => BatchError::ReadOnlyReplica,
        tag => {
            return Err(DecodeError::Tag {
                tag,
                what: "BatchError",
                at,
            })
        }
    })
}

fn put_engine_stats(buf: &mut Vec<u8>, s: &EngineStats) {
    for counter in s.counters() {
        put_u64(buf, counter);
    }
    for bucket in s.latency_buckets {
        put_u64(buf, bucket);
    }
}

fn read_engine_stats(r: &mut Reader<'_>) -> Result<EngineStats, DecodeError> {
    let mut s = EngineStats::default();
    for counter in s.counters_mut() {
        *counter = r.u64()?;
    }
    for bucket in &mut s.latency_buckets {
        *bucket = r.u64()?;
    }
    Ok(s)
}

fn put_session_stats(buf: &mut Vec<u8>, s: &SessionStats) {
    for counter in s.counters() {
        put_u64(buf, counter);
    }
    put_u8(buf, u8::from(s.quarantined));
}

fn read_session_stats(r: &mut Reader<'_>) -> Result<SessionStats, DecodeError> {
    let mut s = SessionStats::default();
    for counter in s.counters_mut() {
        *counter = r.u64()?;
    }
    s.quarantined = r.bool()?;
    Ok(s)
}
