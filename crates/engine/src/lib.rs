//! # stem-engine — concurrent multi-session propagation service
//!
//! The thesis runs one designer against one constraint network inside one
//! Smalltalk image. This crate is the service tier that grows out of that:
//! an [`Engine`] hosts many independent design *sessions* — each its own
//! [`stem_core::Network`] — behind a transactional batch API, served by a
//! fixed pool of worker threads.
//!
//! ## Architecture
//!
//! - **Sharded sessions.** A [`SessionId`] is pinned to worker
//!   `id % workers`. One worker serialises all batches of its sessions
//!   (per-session order is submission order); different workers run in
//!   parallel. Networks are `!Send` by design (`Rc`-shared kinds) and never
//!   leave their worker — commands cross threads as `Send` descriptions
//!   ([`Command`], [`ConstraintSpec`]) and are materialised worker-side.
//! - **Transactional batches.** A batch of [`Command`]s applies atomically:
//!   all commands commit, or — on a constraint [`Violation`], an invalid
//!   command, a step-budget overrun or a panic — the session is restored
//!   exactly as it was and a structured [`BatchError`] comes back.
//!   Every batch runs under the network's change journal
//!   ([`stem_core::Network::begin_journal`]): a failed batch replays the
//!   journal in reverse, so undoing it costs O(touched), whatever the
//!   network's size or the batch's commands.
//! - **Backpressure & budgets.** Worker queues are bounded:
//!   [`Engine::submit`] blocks when full, [`Engine::try_submit`] returns
//!   [`BatchError::Backpressure`]. An optional per-cycle step budget
//!   ([`EngineConfig::step_budget`]) converts runaway propagation into an
//!   ordinary rolled-back violation.
//! - **Panic isolation.** A panicking command is caught, its batch rolled
//!   back, and the session quarantined — mutating batches are refused
//!   (reads still work) until [`Engine::lift_quarantine`]. Other sessions,
//!   including ones on the same worker, are unaffected.
//! - **Durability (opt-in).** [`Engine::open`] roots the engine on a
//!   `stem-persist` store: every committed batch is appended to a
//!   segmented write-ahead log *before* it is acknowledged, snapshot
//!   checkpoints bound replay time and compact the log, and reopening the
//!   directory rebuilds every session exactly as of its last acknowledged
//!   commit ([`Durability`] picks the fsync regime; [`DurabilityOptions`]
//!   the segment/checkpoint thresholds).
//! - **Observability.** Engine-wide lock-free counters
//!   ([`Engine::stats`] → [`EngineStats`]: batches, waves, assignments,
//!   violations, rollbacks, queue-depth high-water mark, coarse latency
//!   histogram) plus per-session counters ([`Engine::session_stats`] →
//!   [`SessionStats`]), each declared once in a counter table.
//!
//! [`Violation`]: stem_core::Violation

#![warn(missing_docs)]

mod command;
mod engine;
mod persist;
mod stats;

pub use command::{BatchError, BatchOutcome, Output};
pub use engine::{BatchTicket, Engine, EngineConfig, ReplayReport, SessionId};
pub use persist::{Durability, DurabilityOptions};
pub use stats::{EngineStats, SessionStats, LATENCY_BUCKET_BOUNDS_US, N_LATENCY_BUCKETS};
// The batch vocabulary is declared once, in `stem-persist`, which owns its
// byte encoding; the engine, the wire, the log and replicas share it.
pub use stem_persist::{Command, ConstraintSpec, KindFactory, Source};
