//! # stem-persist — durable sessions for the STEM engine
//!
//! A segmented write-ahead log of committed engine commands plus periodic
//! snapshot checkpoints, with crash recovery that reconstructs every
//! session exactly as of its last acknowledged commit.
//!
//! The thesis frames committed network state as a replayable history of
//! justified value changes (dependency records, ch. 5); this crate makes
//! that history literal bytes. The design splits into:
//!
//! - [`codec`](stem_core::codec) (in `stem-core`): stable binary encoding
//!   for values, ids and justifications.
//! - [`command`]: the batch vocabulary ([`Command`], [`ConstraintSpec`],
//!   [`Source`]), declared once: the engine executes it, the wire carries
//!   it, and the log and snapshots store its byte encoding.
//! - [`record`]: checksummed `[len][crc][payload]` WAL frames
//!   ([`WalRecord`]).
//! - [`state`] / [`snapshot`]: per-session rebuildable images and the
//!   checkpoint file format ([`SessionState`], [`Snapshot`]).
//! - [`store`]: the directory of segments + snapshots ([`Store`]), with
//!   rotation, compaction, fsync policy, and torn-write truncation.
//! - [`lease`]: durable leadership leases ([`Lease`]) whose monotonic
//!   epochs fence a deposed leader's late appends (`Store::set_fence`).
//! - [`fault`]: byte-budget fault injection ([`FailingFile`]) proving the
//!   recovery invariant at every possible crash point.
//!
//! Everything is in-tree and `std`-only: no serde, no external crates.
//!
//! ## The recovery invariant
//!
//! For any crash point, reopening the store yields exactly the prefix of
//! batches that were fully committed (logged *and* acknowledged): a batch
//! is acknowledged only after its record is appended, and a record is
//! replayed only if its checksum holds and every earlier record's did —
//! so a half-applied batch is unobservable in either direction.

#![warn(missing_docs)]

pub mod command;
pub mod crc;
pub mod fault;
pub mod group;
pub mod lease;
pub mod record;
pub mod snapshot;
pub mod state;
pub mod store;

pub use command::{Command, ConstraintSpec, KindFactory, Source};
pub use fault::{failing_factory, flaky_sync_factory, ByteBudget, FailingFile};
pub use group::GroupCommit;
pub use lease::Lease;
pub use record::WalRecord;
pub use snapshot::Snapshot;
pub use state::{SessionState, SlotState};
pub use store::{
    decode_segment, FileFactory, Recovered, Store, StoreFile, StoreOptions, StoreStats, SyncPolicy,
};
