//! Golden bytes for the batch vocabulary's on-disk and on-wire formats.
//!
//! A round trip cannot see a codec change that is consistent on both
//! sides (two tags renumbered in encode and decode alike), yet such a
//! change orphans every existing log, snapshot and peer. These tests pin
//! the exact bytes of a WAL batch record holding every mutating command,
//! every constraint spec and every source, a close record, a snapshot
//! with a live and a tombstoned slot, and a keyed wire submit carrying
//! every read-only command — and decode each literal back to the value it
//! was encoded from.

use stem_core::codec::Reader;
use stem_core::{ConstraintId, FinSet, Interval, Justification, Value, VarId};
use stem_engine::{Command, ConstraintSpec, Source};
use stem_persist::record::{scan_frame, FrameScan};
use stem_persist::{SessionState, SlotState, Snapshot, WalRecord};
use stem_server::proto::{put_submit_keyed, Request};

/// Parses a hex literal, ignoring whitespace.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn assert_bytes(got: &[u8], want: &str) {
    assert_eq!(to_hex(got), to_hex(&hex(want)), "encoding drifted");
}

fn v(i: usize) -> VarId {
    VarId::from_index(i)
}

fn decode_frame(bytes: &[u8]) -> WalRecord {
    let FrameScan::Ok { payload, rest } = scan_frame(bytes) else {
        panic!("golden frame did not scan")
    };
    assert!(rest.is_empty());
    WalRecord::decode_payload(payload).unwrap()
}

fn every_spec() -> Vec<ConstraintSpec> {
    vec![
        ConstraintSpec::Equality,
        ConstraintSpec::Sum,
        ConstraintSpec::Max,
        ConstraintSpec::Min,
        ConstraintSpec::Product,
        ConstraintSpec::Scale {
            gain: 2.0,
            offset: -1.5,
        },
        ConstraintSpec::LeConst(Value::Int(128)),
        ConstraintSpec::GeConst(Value::Float(0.25)),
        ConstraintSpec::EqConst(Value::str("nmos")),
        ConstraintSpec::Le,
        ConstraintSpec::Lt,
        ConstraintSpec::DomAdd {
            views: [(1, 0), (-1, 7), (2, -2)],
            out: None,
        },
        ConstraintSpec::DomAdd {
            views: [(1, 0), (1, 0), (1, 0)],
            out: Some(2),
        },
        ConstraintSpec::DomLe {
            c: -4,
            views: [(1, 0), (3, 1)],
            out: None,
        },
        ConstraintSpec::DomLe {
            c: 5,
            views: [(-1, 0), (1, 0)],
            out: Some(1),
        },
        ConstraintSpec::DomAllDiff,
        ConstraintSpec::DomReifLe {
            c: 9,
            views: [(1, 1), (1, -1)],
        },
    ]
}

fn batch_record() -> WalRecord {
    let mut commands = vec![
        Command::AddVariable { name: "w".into() },
        Command::Set {
            var: v(0),
            value: Value::Int(-5),
            source: Source::User,
        },
        Command::Set {
            var: v(1),
            value: Value::Float(2.5),
            source: Source::Application,
        },
        Command::Set {
            var: v(2),
            value: Value::Interval(Interval::new(-3, 40)),
            source: Source::Update,
        },
        Command::Set {
            var: v(3),
            value: Value::FinSet(FinSet::new(0b1010)),
            source: Source::DefaultValue,
        },
        Command::Unset { var: v(1) },
    ];
    commands.extend(every_spec().into_iter().map(|spec| Command::AddConstraint {
        spec,
        args: vec![v(0), v(1), v(2)],
    }));
    commands.extend([
        Command::RemoveConstraint {
            constraint: ConstraintId::from_index(2),
        },
        Command::EnableConstraint {
            constraint: ConstraintId::from_index(1),
            enabled: false,
        },
        Command::SetKindEnabled {
            kind_name: "equality".into(),
            enabled: true,
        },
        Command::SetValueChangeLimit { limit: 3 },
    ]);
    WalRecord::Batch {
        session: 3,
        seq: 7,
        key: 9,
        commands,
    }
}

const BATCH_FRAME: &str = "\
    c30200004932aa65000300000000000000070000000000000009000000000000\
    001b000000000100000077010000000002fbffffffffffffff00010100000003\
    00000000000004400101020000000afdffffffffffffff280000000000000002\
    01030000000b0a00000000000000030201000000030003000000000000000100\
    0000020000000301030000000000000001000000020000000302030000000000\
    0000010000000200000003030300000000000000010000000200000003040300\
    000000000000010000000200000003050000000000000040000000000000f8bf\
    0300000000000000010000000200000003060280000000000000000300000000\
    0000000100000002000000030703000000000000d03f03000000000000000100\
    000002000000030804040000006e6d6f73030000000000000001000000020000\
    00030903000000000000000100000002000000030a0300000000000000010000\
    0002000000030b01000000000000000000000000000000ffffffffffffffff07\
    000000000000000200000000000000feffffffffffffffff0300000000000000\
    0100000002000000030b01000000000000000000000000000000010000000000\
    0000000000000000000001000000000000000000000000000000020300000000\
    0000000100000002000000030cfcffffffffffffff0100000000000000000000\
    000000000003000000000000000100000000000000ff03000000000000000100\
    000002000000030c0500000000000000ffffffffffffffff0000000000000000\
    0100000000000000000000000000000001030000000000000001000000020000\
    00030d03000000000000000100000002000000030e0900000000000000010000\
    000000000001000000000000000100000000000000ffffffffffffffff030000\
    0000000000010000000200000004020000000501000000000608000000657175\
    616c697479010703000000";

const CLOSE_FRAME: &str = "\
    11000000b99564b40103000000000000000800000000000000";

const SNAPSHOT_FILE: &str = "\
    5354454d534e50318b0000006e89925705000000000000000100000002000000\
    0000000001000000040000000000000007000000000000000200000001000000\
    61020300000000000000010100000062000002000000010c0200000000000000\
    010000000000000000000000000000000200000000000000ffffffffffffffff\
    000200000000000000010000000000020000000600000000000000";

const WIRE_SUBMIT_KEYED: &str = "\
    0d06000000000000000b00000000000000050000000101000000020000000002\
    0c000000000000000304000102000000010102";

#[test]
fn wal_batch_record_bytes_are_pinned() {
    let rec = batch_record();
    let bytes = rec.encode_frame().unwrap();
    assert_bytes(&bytes, BATCH_FRAME);
    assert_eq!(decode_frame(&hex(BATCH_FRAME)), rec);
}

#[test]
fn wal_close_record_bytes_are_pinned() {
    let rec = WalRecord::Close { session: 3, seq: 8 };
    assert_bytes(&rec.encode_frame().unwrap(), CLOSE_FRAME);
    assert_eq!(decode_frame(&hex(CLOSE_FRAME)), rec);
}

#[test]
fn snapshot_file_bytes_are_pinned() {
    let snap = Snapshot {
        next_session: 5,
        closed: vec![2],
        sessions: vec![(
            4,
            7,
            SessionState {
                vars: vec![
                    ("a".into(), Value::Int(3), Justification::User),
                    ("b".into(), Value::Nil, Justification::Unset),
                ],
                slots: vec![
                    SlotState::Live {
                        spec: ConstraintSpec::DomLe {
                            c: 2,
                            views: [(1, 0), (2, -1)],
                            out: Some(0),
                        },
                        args: vec![v(0), v(1)],
                        enabled: false,
                    },
                    SlotState::Tombstone,
                ],
                value_change_limit: 2,
                dedup: 6,
            },
        )],
    };
    assert_bytes(&snap.encode_file().unwrap(), SNAPSHOT_FILE);
    assert_eq!(Snapshot::decode_file(&hex(SNAPSHOT_FILE)), Some(snap));
}

#[test]
fn wire_submit_bytes_are_pinned() {
    let commands = vec![
        Command::Get { var: v(1) },
        Command::Probe {
            var: v(0),
            value: Value::Int(12),
        },
        Command::DumpValues,
        Command::CheckAll,
        Command::Set {
            var: v(2),
            value: Value::Bool(true),
            source: Source::Update,
        },
    ];
    let mut buf = Vec::new();
    put_submit_keyed(&mut buf, 6, 11, &commands).unwrap();
    assert_bytes(&buf, WIRE_SUBMIT_KEYED);
    let Request::SubmitSeq {
        session,
        key,
        commands: decoded,
    } = Request::decode(&mut Reader::new(&hex(WIRE_SUBMIT_KEYED))).unwrap()
    else {
        panic!("golden submit decoded to another request")
    };
    assert_eq!((session, key), (6, 11));
    assert_eq!(decoded, commands);
}
