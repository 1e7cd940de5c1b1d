//! Wire-protocol unit coverage: frame framing (EOF, torn, corrupt),
//! request/reply round-trips for every message type, and truncation
//! sweeps mirroring the core codec's crash matrix.

use std::io::Cursor;

use stem_core::codec::Reader;
use stem_core::{ConstraintId, FinSet, Interval, Justification, Value, VarId, Violation};
use stem_engine::{
    BatchError, BatchOutcome, Command, ConstraintSpec, EngineStats, KindFactory, Output,
    SessionStats, Source,
};
use stem_server::proto::{read_frame, write_frame, Reply, Request, MAX_FRAME_LEN};

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).unwrap();
    out
}

#[test]
fn frames_round_trip_and_reject_corruption() {
    let payload = b"hello, session service".to_vec();
    let bytes = frame_bytes(&payload);
    assert_eq!(
        read_frame(&mut Cursor::new(&bytes)).unwrap().as_deref(),
        Some(payload.as_slice())
    );
    // Clean EOF between frames.
    assert_eq!(read_frame(&mut Cursor::new(&[] as &[u8])).unwrap(), None);
    // EOF inside the header and inside the payload are hard errors.
    for cut in 1..bytes.len() {
        assert!(
            read_frame(&mut Cursor::new(&bytes[..cut])).is_err(),
            "cut at {cut} did not error"
        );
    }
    // Any single corrupted byte fails the checksum (or the length field).
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            read_frame(&mut Cursor::new(&bad)).is_err(),
            "corrupt byte {i} went unnoticed"
        );
    }
    // Oversized length claims are rejected before allocation.
    let mut huge = Vec::new();
    huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    huge.extend_from_slice(&0u32.to_le_bytes());
    assert!(read_frame(&mut Cursor::new(&huge)).is_err());
    // And refused on the write side too.
    let mut sink = Vec::new();
    assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME_LEN as usize + 1]).is_err());
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Open,
        Request::Close { session: 7 },
        Request::Submit {
            session: 3,
            commands: vec![
                Command::AddVariable { name: "α".into() },
                Command::Set {
                    var: VarId::from_index(0),
                    value: Value::List(vec![Value::Int(1), Value::str("x")]),
                    source: Source::Application,
                },
                Command::Unset {
                    var: VarId::from_index(1),
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::Scale {
                        gain: 2.5,
                        offset: -1.0,
                    },
                    args: vec![VarId::from_index(0), VarId::from_index(1)],
                },
                Command::RemoveConstraint {
                    constraint: ConstraintId::from_index(4),
                },
                Command::EnableConstraint {
                    constraint: ConstraintId::from_index(2),
                    enabled: false,
                },
                Command::SetKindEnabled {
                    kind_name: "sum".into(),
                    enabled: true,
                },
                Command::SetValueChangeLimit { limit: 3 },
                Command::Get {
                    var: VarId::from_index(9),
                },
                Command::Probe {
                    var: VarId::from_index(2),
                    value: Value::Float(0.5),
                },
                Command::DumpValues,
                Command::CheckAll,
            ],
        },
        Request::Stats,
        Request::SessionStats { session: 11 },
        Request::SealWal,
        Request::FetchSegment { index: 42 },
        Request::FetchSnapshot,
        Request::IngestSnapshot {
            bytes: vec![1, 2, 3, 0xFF],
        },
        Request::IngestSegment {
            bytes: b"STEMWAL1garbage-but-opaque-here".to_vec(),
        },
        Request::Promote,
        Request::Shutdown,
        Request::SubmitSeq {
            session: 6,
            key: 41,
            commands: vec![
                Command::AddVariable { name: "w".into() },
                Command::Set {
                    var: VarId::from_index(0),
                    value: Value::Int(8),
                    source: Source::User,
                },
            ],
        },
        Request::Lease { session: 5 },
        Request::CatchUp,
        // A domain session over the wire: interval/finite-set values and
        // every domain constraint spec must survive the round trip.
        Request::Submit {
            session: 9,
            commands: vec![
                Command::Set {
                    var: VarId::from_index(0),
                    value: Value::Interval(Interval::new(-5, 4096)),
                    source: Source::User,
                },
                Command::Set {
                    var: VarId::from_index(1),
                    value: Value::FinSet(FinSet::new(0x8000_0000_0000_0011)),
                    source: Source::Update,
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::DomAdd {
                        views: [(1, 0), (-1, 3), (1, 0)],
                        out: Some(2),
                    },
                    args: vec![
                        VarId::from_index(0),
                        VarId::from_index(1),
                        VarId::from_index(2),
                    ],
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::DomLe {
                        c: -7,
                        views: [(-1, 0), (-1, 0)],
                        out: None,
                    },
                    args: vec![VarId::from_index(0), VarId::from_index(1)],
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::DomAllDiff,
                    args: vec![VarId::from_index(0), VarId::from_index(1)],
                },
                Command::AddConstraint {
                    spec: ConstraintSpec::DomReifLe {
                        c: 2,
                        views: [(1, 0), (1, 0)],
                    },
                    args: vec![
                        VarId::from_index(3),
                        VarId::from_index(0),
                        VarId::from_index(1),
                    ],
                },
                Command::Probe {
                    var: VarId::from_index(2),
                    value: Value::Interval(Interval::new(i64::MIN, i64::MAX)),
                },
            ],
        },
    ]
}

fn sample_replies() -> Vec<Reply> {
    // Every counter distinct and nonzero, set through the table, so a
    // dropped or transposed counter — including one added later — fails
    // the round trip.
    let mut stats = EngineStats::default();
    for (n, counter) in (1..).zip(stats.counters_mut()) {
        *counter = n;
    }
    for (n, bucket) in (100..).zip(&mut stats.latency_buckets) {
        *bucket = n;
    }
    let mut session = SessionStats {
        quarantined: true,
        ..SessionStats::default()
    };
    for (n, counter) in (200..).zip(session.counters_mut()) {
        *counter = n;
    }
    vec![
        Reply::Pong,
        Reply::Session { id: 12 },
        Reply::Closed { existed: true },
        Reply::Batch(Ok(BatchOutcome {
            outputs: vec![
                Output::Unit,
                Output::Var(VarId::from_index(3)),
                Output::Constraint(ConstraintId::from_index(1)),
                Output::Value(Value::str("wire")),
                Output::Feasible(false),
                Output::Count(6),
                Output::Dump(vec![(
                    "a".into(),
                    Value::Int(7),
                    Justification::Propagated {
                        constraint: ConstraintId::from_index(0),
                        record: stem_core::DependencyRecord::All,
                    },
                )]),
                Output::Violations(vec![Violation::unsatisfied(ConstraintId::from_index(2))]),
            ],
            waves: 4,
            assignments: 9,
        })),
        Reply::Batch(Err(BatchError::Violation {
            index: 1,
            violation: Violation::revisit(
                VarId::from_index(0),
                ConstraintId::from_index(1),
                Value::Int(99),
            ),
        })),
        Reply::Batch(Err(BatchError::InvalidCommand {
            index: 0,
            reason: "nope".into(),
        })),
        Reply::Batch(Err(BatchError::Panicked {
            index: usize::MAX,
            message: "boom".into(),
        })),
        Reply::Batch(Err(BatchError::Persist {
            message: "disk full".into(),
        })),
        Reply::Batch(Err(BatchError::Quarantined)),
        Reply::Batch(Err(BatchError::Backpressure)),
        Reply::Batch(Err(BatchError::Shutdown)),
        Reply::Batch(Err(BatchError::ReadOnlyReplica)),
        Reply::Stats(stats),
        Reply::SessionStats(session),
        // Domain values inside a dump reply (the inspector path).
        Reply::Batch(Ok(BatchOutcome {
            outputs: vec![
                Output::Value(Value::Interval(Interval::new(10, 20))),
                Output::Dump(vec![(
                    "dom".into(),
                    Value::FinSet(FinSet::new(0b1010_0001)),
                    Justification::User,
                )]),
            ],
            waves: 1,
            assignments: 2,
        })),
        Reply::Sealed {
            segments: vec![0, 1, 5],
        },
        Reply::Segment {
            bytes: vec![9; 100],
        },
        Reply::Snapshot { bytes: None },
        Reply::Snapshot {
            bytes: Some(vec![1, 2, 3]),
        },
        Reply::Ingested {
            applied: 10,
            skipped: 2,
            anomalies: 0,
        },
        Reply::Promoted { was_replica: true },
        Reply::ShuttingDown,
        Reply::Err {
            message: "bad day".into(),
        },
        Reply::Busy {
            active: 64,
            max: 64,
        },
        Reply::Lease {
            epoch: 3,
            holder: 1,
        },
        Reply::CatchUp {
            snapshot: None,
            segments: vec![],
        },
        Reply::CatchUp {
            snapshot: Some(b"STEMSNP1opaque".to_vec()),
            segments: vec![b"STEMWAL1one".to_vec(), b"STEMWAL1two".to_vec()],
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for req in sample_requests() {
        let mut buf = Vec::new();
        req.encode(&mut buf).unwrap();
        let mut r = Reader::new(&buf);
        let back = Request::decode(&mut r).unwrap_or_else(|e| panic!("{req:?}: {e:?}"));
        assert!(r.is_empty(), "{req:?}: trailing bytes");
        assert_eq!(format!("{req:?}"), format!("{back:?}"));
    }
}

#[test]
fn every_reply_round_trips() {
    for reply in sample_replies() {
        let mut buf = Vec::new();
        reply.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = Reply::decode(&mut r).unwrap_or_else(|e| panic!("{reply:?}: {e:?}"));
        assert!(r.is_empty(), "{reply:?}: trailing bytes");
        assert_eq!(format!("{reply:?}"), format!("{back:?}"));
    }
}

#[test]
fn every_truncation_of_every_message_errors_cleanly() {
    for req in sample_requests() {
        let mut buf = Vec::new();
        req.encode(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            // A proper prefix of a different message may still decode (a
            // smaller tag-only request is a prefix of a larger one), but
            // it must never panic and never read past the buffer.
            let _ = Request::decode(&mut r);
            assert!(r.position() <= cut, "{req:?}: overran at cut {cut}");
        }
    }
    for reply in sample_replies() {
        let mut buf = Vec::new();
        reply.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let _ = Reply::decode(&mut r);
            assert!(r.position() <= cut, "{reply:?}: overran at cut {cut}");
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    use stem_core::codec::DecodeError;
    for tag in [16u8, 0x80, 0xFF] {
        assert!(matches!(
            Request::decode(&mut Reader::new(&[tag])),
            Err(DecodeError::Tag { .. })
        ));
        assert!(matches!(
            Reply::decode(&mut Reader::new(&[tag])),
            Err(DecodeError::Tag { .. })
        ));
    }
}

#[test]
fn custom_kinds_are_refused_at_encode_time() {
    let req = Request::Submit {
        session: 0,
        commands: vec![Command::AddConstraint {
            spec: ConstraintSpec::Custom(KindFactory::new(|| {
                std::rc::Rc::new(stem_core::kinds::Equality::new())
            })),
            args: vec![],
        }],
    };
    let mut buf = Vec::new();
    let err = req.encode(&mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}
