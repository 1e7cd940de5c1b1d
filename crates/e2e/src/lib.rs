//! # stem-e2e — closed-loop end-to-end benchmark
//!
//! A seeded, single-process load generator for the whole STEM stack:
//! client encode → loopback TCP → `stem-server` → engine queue →
//! propagation in `stem-core` → journal commit → WAL append and
//! group-commit fsync → reply. It spawns a `stem_server::Server` on an
//! ephemeral loopback port, drives it through the public `proto`
//! functions with at most two connections (one load thread each), and
//! checks every output it gets back.
//!
//! - [`workload`]: the four workloads and the seeded batch streams that
//!   predict each batch's outcome.
//! - [`drive`]: the closed loop and the layer entry points it drives
//!   (wire, engine, core, store).
//! - [`run`]: one workload run — set-up, passes, output checks, metrics.
//! - [`stats`]: log-linear histograms, 1-second windows, percentiles.
//! - [`twin`]: core twins that replay a session's stream directly.
//! - [`trace`]: in-memory spans written out as JSON lines.
//! - [`tempdir`]: collision-free scratch directories for stores.
//! - [`json`]: the little JSON the benchmark reads and writes.
//!
//! See the crate's `README.md` for the workloads, metrics and method.

#![warn(missing_docs)]

pub mod drive;
pub mod json;
pub mod run;
pub mod stats;
pub mod tempdir;
pub mod trace;
pub mod twin;
pub mod workload;
