//! Checkpoint files: a full image of every live session at a moment in
//! (per-session) logical time.
//!
//! A snapshot carries, per session, the commit sequence number it is
//! consistent with. There is no global cut: workers gather their sessions
//! independently, so session A's image may include commits that session
//! B's image predates. That is safe because sessions share nothing — the
//! recovery condition is per-session: replay record `(s, q)` iff
//! `q > seq(s in snapshot)` and `s` is not closed.
//!
//! On disk: 8-byte magic, then one checksummed frame (same `[len][crc]`
//! layout as WAL records) holding the whole snapshot. A torn snapshot
//! write therefore fails its checksum and recovery falls back to the
//! previous snapshot — which is why snapshots are written to a temp name,
//! synced, renamed into place, and only then allowed to retire older
//! files.

use std::io;

use crate::record::{frame, scan_frame, FrameScan};
use crate::state::SessionState;
use stem_core::codec::{put_u32, put_u64, DecodeError, Reader};

/// Magic prefix of a snapshot file (8 bytes, version included).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"STEMSNP1";

/// A point-in-time image of the whole engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The engine's next session id to allocate.
    pub next_session: u64,
    /// Ids of sessions closed before this snapshot; recovery must not
    /// resurrect them from older log records.
    pub closed: Vec<u64>,
    /// Per live session: `(id, last committed seq, state)`.
    pub sessions: Vec<(u64, u64, SessionState)>,
}

impl Snapshot {
    /// Encodes the full snapshot file image (magic + checksummed frame);
    /// errors as [`SessionState::encode`].
    pub fn encode_file(&self) -> io::Result<Vec<u8>> {
        let mut payload = Vec::with_capacity(256);
        put_u64(&mut payload, self.next_session);
        put_u32(&mut payload, self.closed.len() as u32);
        for id in &self.closed {
            put_u64(&mut payload, *id);
        }
        put_u32(&mut payload, self.sessions.len() as u32);
        for (id, seq, state) in &self.sessions {
            put_u64(&mut payload, *id);
            put_u64(&mut payload, *seq);
            state.encode(&mut payload)?;
        }
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&frame(&payload));
        Ok(out)
    }

    /// Decodes a snapshot file image; `None` for anything torn, truncated,
    /// or checksum-invalid (the caller falls back to an older snapshot).
    pub fn decode_file(bytes: &[u8]) -> Option<Snapshot> {
        let body = bytes.strip_prefix(SNAPSHOT_MAGIC.as_slice())?;
        let FrameScan::Ok { payload, rest } = scan_frame(body) else {
            return None;
        };
        if !rest.is_empty() {
            return None;
        }
        Self::decode_payload(payload).ok()
    }

    fn decode_payload(payload: &[u8]) -> Result<Snapshot, DecodeError> {
        let mut r = Reader::new(payload);
        let next_session = r.u64()?;
        let n_closed = r.len()?;
        let mut closed = Vec::with_capacity(n_closed.min(4096));
        for _ in 0..n_closed {
            closed.push(r.u64()?);
        }
        let n_sessions = r.len()?;
        let mut sessions = Vec::with_capacity(n_sessions.min(4096));
        for _ in 0..n_sessions {
            let id = r.u64()?;
            let seq = r.u64()?;
            sessions.push((id, seq, SessionState::decode(&mut r)?));
        }
        if !r.is_empty() {
            return Err(DecodeError::Eof { at: r.position() });
        }
        Ok(Snapshot {
            next_session,
            closed,
            sessions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::ConstraintSpec;
    use crate::state::SlotState;
    use stem_core::{Justification, Value, VarId};

    fn sample() -> Snapshot {
        Snapshot {
            next_session: 5,
            closed: vec![1, 3],
            sessions: vec![
                (0, 12, SessionState::default()),
                (
                    4,
                    2,
                    SessionState {
                        vars: vec![
                            ("a".into(), Value::Int(3), Justification::User),
                            ("b".into(), Value::Nil, Justification::Unset),
                        ],
                        slots: vec![
                            SlotState::Tombstone,
                            SlotState::Live {
                                spec: ConstraintSpec::Scale {
                                    gain: 2.0,
                                    offset: -1.0,
                                },
                                args: vec![VarId::from_index(0), VarId::from_index(1)],
                                enabled: false,
                            },
                        ],
                        value_change_limit: 2,
                        dedup: 6,
                    },
                ),
            ],
        }
    }

    #[test]
    fn file_round_trip() {
        let snap = sample();
        assert_eq!(
            Snapshot::decode_file(&snap.encode_file().unwrap()),
            Some(snap)
        );
    }

    #[test]
    fn torn_or_corrupt_file_is_none() {
        let bytes = sample().encode_file().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode_file(&bytes[..cut]).is_none(),
                "torn snapshot of {cut} bytes decoded"
            );
        }
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x40;
        assert!(Snapshot::decode_file(&bad).is_none());
        let mut grown = bytes;
        grown.push(0);
        assert!(Snapshot::decode_file(&grown).is_none(), "trailing byte");
    }
}
