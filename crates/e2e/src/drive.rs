//! The closed loop that loads the system, and the entry point of each
//! layer it can be pointed at.
//!
//! [`closed_loop`] keeps up to `window` batches of a [`Stream`] in flight
//! on one [`Target`], submits the next batch only when the oldest has
//! completed, checks every outcome against the stream's prediction, and
//! files each batch's latency under the measurement window it was sent
//! in. The targets are the layers, peeled one at a time:
//!
//! - [`WireTarget`] (L0): the full socket path to a `stem-server`, framed
//!   with the public `proto` functions. `Client::drain` cannot time
//!   individual batches, so this is its own sliding-window client.
//! - [`EngineTarget`] (L1): `Engine::submit` → `BatchTicket::wait` on an
//!   in-process engine configured like the served one.
//! - [`CoreTarget`] (L2): the batch applied to per-thread core twins.
//!
//! [`persist_pass`] (L3) re-appends WAL records through a twin store.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use stem_core::codec::Reader;
use stem_engine::{BatchError, BatchOutcome, BatchTicket, Command, Engine, SessionId};
use stem_persist::{Store, StoreOptions, SyncPolicy, WalRecord};
use stem_server::proto::{decode_error, put_submit, read_frame, write_frame, Reply};

use crate::stats::{Clock, Histogram};
use crate::trace::{Tracer, SAMPLE};
use crate::twin::{Call, Twin};
use crate::workload::{Expect, Stream, Workload};

/// A batch's outcome as the engine reports it.
pub type Outcome = Result<BatchOutcome, BatchError>;

/// When a pass stops submitting new batches (in-flight ones still
/// complete and are checked).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant.
    At(Instant),
    /// After this many batches from the pass's start.
    After(u64),
}

/// One pass of a load thread over a target.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Measurement windows; completions outside them are checked but not
    /// measured.
    pub clock: Clock,
    /// When to stop submitting.
    pub stop: Stop,
    /// Whether batches get per-layer timings and spans.
    pub trace: bool,
    /// Trace only batches submitted in even windows, so that traced and
    /// untraced latency are measured side by side under the same host
    /// conditions.
    pub alternate: bool,
    /// Name of the per-batch span.
    pub span: &'static str,
}

/// Latency and completions of one measurement window.
#[derive(Clone, Default)]
pub struct Slot {
    /// Latency of (untraced, when alternating) batches, in ns.
    pub latency: Histogram,
    /// Latency of traced batches when alternating, in ns.
    pub traced: Histogram,
    /// Batches completed in the window.
    pub done: u64,
}

impl Slot {
    /// Adds `o`'s measurements to `self`.
    pub fn merge(&mut self, o: &Slot) {
        self.latency.merge(&o.latency);
        self.traced.merge(&o.traced);
        self.done += o.done;
    }
}

/// Per-window slots of several load threads, merged window by window.
pub fn merge_windows<'a, S: Clone + Default + 'a>(
    lanes: impl IntoIterator<Item = &'a [S]>,
    windows: usize,
    merge: fn(&mut S, &S),
) -> Vec<S> {
    let mut out = vec![S::default(); windows];
    for slots in lanes {
        for (o, s) in out.iter_mut().zip(slots) {
            merge(o, s);
        }
    }
    out
}

/// What a load thread sent and how much of it failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Batches submitted (over every pass so far).
    pub sent: u64,
    /// Batches whose outcome differed from the prediction, or that were
    /// lost to a transport error.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }
}

/// Per-batch tracing context handed to a target.
pub struct Trace<'a> {
    /// Whether this batch is traced.
    pub on: bool,
    /// The batch's sequence number on its load thread.
    pub batch: u64,
    /// The measurement window the batch was sent in; a target files the
    /// batch's layer measurements under it.
    pub window: Option<usize>,
    /// The batch's open span, when it is sampled.
    pub span: Option<usize>,
    /// The load thread's tracer.
    pub tracer: &'a mut Tracer,
}

/// A layer entry point the closed loop can drive.
pub trait Target {
    /// Handle for a submitted batch.
    type Ticket;
    /// Submits one batch to session `session` (an index into the
    /// target's block of sessions).
    fn submit(
        &mut self,
        session: usize,
        commands: Vec<Command>,
        t: Trace<'_>,
    ) -> io::Result<Self::Ticket>;
    /// Pushes buffered submissions out before the loop blocks.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Blocks for a ticket's outcome (tickets are waited in submission
    /// order).
    fn wait(&mut self, ticket: Self::Ticket, t: Trace<'_>) -> io::Result<Outcome>;
}

/// Checks an outcome against its prediction.
pub fn check(outcome: &Outcome, expect: &Expect) -> Result<(), String> {
    match (outcome, expect) {
        (Ok(out), Expect::Ok(want)) if &out.outputs == want => Ok(()),
        (Err(BatchError::Violation { index, .. }), Expect::Violation { index: want })
            if index == want =>
        {
            Ok(())
        }
        (got, want) => {
            let got: String = format!("{got:?}").chars().take(300).collect();
            Err(format!("expected {want:?}, got {got}"))
        }
    }
}

struct Pending<T> {
    ticket: T,
    start: Instant,
    window: Option<usize>,
    expect: Expect,
    batch: u64,
    traced: bool,
    span: Option<usize>,
}

/// Drives `stream` into `target` with `window` batches in flight until
/// `pass.stop`, then drains. Every completion is checked. A batch counts
/// toward the throughput of the window it completes in, and its latency
/// is filed under the window it was sent in. A transport error ends the
/// pass; the batches it strands count as failed.
pub fn closed_loop<T: Target>(
    target: &mut T,
    stream: &mut Stream,
    window: usize,
    pass: &Pass,
    slots: &mut [Slot],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<()> {
    let base = tally.sent;
    let mut inflight: VecDeque<Pending<T::Ticket>> = VecDeque::with_capacity(window);
    loop {
        let mut submitted = false;
        while inflight.len() < window {
            let now = Instant::now();
            let more = match pass.stop {
                Stop::At(t) => now < t,
                Stop::After(n) => tally.sent - base < n,
            };
            if !more {
                break;
            }
            let b = stream.next_batch();
            let batch = tally.sent;
            tally.sent += 1;
            let sent_in = pass.clock.window(now);
            let traced = pass.trace && (!pass.alternate || sent_in.is_some_and(|w| w % 2 == 0));
            let span =
                (traced && tracer.sampled(batch)).then(|| tracer.open(pass.span, batch, None, now));
            let t = Trace {
                on: traced,
                batch,
                window: sent_in,
                span,
                tracer,
            };
            match target.submit(b.session, b.commands, t) {
                Ok(ticket) => inflight.push_back(Pending {
                    ticket,
                    start: now,
                    window: sent_in,
                    expect: b.expect,
                    batch,
                    traced,
                    span,
                }),
                Err(e) => {
                    tally.fail(inflight.len() as u64 + 1, || format!("transport: {e}"));
                    return Err(e);
                }
            }
            submitted = true;
        }
        let Some(p) = inflight.pop_front() else {
            return Ok(());
        };
        let t = Trace {
            on: p.traced,
            batch: p.batch,
            window: p.window,
            span: p.span,
            tracer,
        };
        let outcome = match (if submitted { target.flush() } else { Ok(()) })
            .and_then(|()| target.wait(p.ticket, t))
        {
            Ok(outcome) => outcome,
            Err(e) => {
                tally.fail(inflight.len() as u64 + 1, || format!("transport: {e}"));
                return Err(e);
            }
        };
        let end = Instant::now();
        if let Some(s) = p.span {
            tracer.close(s, end);
        }
        if let Some(w) = pass.clock.window(end) {
            slots[w].done += 1;
        }
        if let Some(w) = p.window {
            let took = end - p.start;
            if p.traced && pass.alternate {
                slots[w].traced.record_duration(took);
            } else {
                slots[w].latency.record_duration(took);
            }
        }
        if let Err(why) = check(&outcome, &p.expect) {
            tally.fail(1, || why);
        }
    }
}

// ---------------------------------------------------------------------
// L0: the wire
// ---------------------------------------------------------------------

/// Wire-protocol timings of one window (traced batches only).
#[derive(Clone, Default)]
pub struct ProtoSlot {
    /// `put_submit` time, ns.
    pub encode: Histogram,
    /// `Reply::decode` time, ns.
    pub decode: Histogram,
    /// Request frame bytes (header included), summed.
    pub request_bytes: u64,
    /// Reply frame bytes (header included), summed.
    pub reply_bytes: u64,
    /// Traced requests encoded.
    pub requests: u64,
    /// Traced replies decoded.
    pub replies: u64,
}

impl ProtoSlot {
    /// Adds `o`'s measurements to `self`.
    pub fn merge(&mut self, o: &ProtoSlot) {
        self.encode.merge(&o.encode);
        self.decode.merge(&o.decode);
        self.request_bytes += o.request_bytes;
        self.reply_bytes += o.reply_bytes;
        self.requests += o.requests;
        self.replies += o.replies;
    }
}

/// A sliding-window client on one TCP connection. Requests are encoded
/// with `put_submit` and framed into a buffered writer that is flushed
/// once per refill of the window; replies are read with `read_frame`
/// and decoded with `Reply::decode`.
pub struct WireTarget {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    sessions: Vec<u64>,
    buf: Vec<u8>,
    /// Per-window protocol timings.
    pub proto: Vec<ProtoSlot>,
}

impl WireTarget {
    /// Connects to `addr`; `sessions` are the server ids of the block.
    pub fn connect(addr: SocketAddr, sessions: Vec<u64>) -> io::Result<WireTarget> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(WireTarget {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            sessions,
            buf: Vec::with_capacity(256),
            proto: Vec::new(),
        })
    }
}

/// Window `w`'s slot, growing the per-window vector as windows arrive.
fn slot<S: Clone + Default>(slots: &mut Vec<S>, w: usize) -> &mut S {
    if slots.len() <= w {
        slots.resize(w + 1, S::default());
    }
    &mut slots[w]
}

impl Target for WireTarget {
    type Ticket = ();

    fn submit(&mut self, session: usize, commands: Vec<Command>, t: Trace<'_>) -> io::Result<()> {
        self.buf.clear();
        let sid = self.sessions[session];
        if t.on {
            let start = Instant::now();
            put_submit(&mut self.buf, sid, &commands)?;
            let end = Instant::now();
            if let Some(w) = t.window {
                let s = slot(&mut self.proto, w);
                s.encode.record_duration(end - start);
                s.request_bytes += 8 + self.buf.len() as u64;
                s.requests += 1;
            }
            if t.span.is_some() {
                t.tracer.span("proto.encode", t.batch, t.span, start, end);
            }
        } else {
            put_submit(&mut self.buf, sid, &commands)?;
        }
        write_frame(&mut self.writer, &self.buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn wait(&mut self, (): (), t: Trace<'_>) -> io::Result<Outcome> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let start = t.on.then(Instant::now);
        let mut r = Reader::new(&payload);
        let reply = Reply::decode(&mut r).map_err(decode_error)?;
        if let Some(start) = start {
            let end = Instant::now();
            if let Some(w) = t.window {
                let s = slot(&mut self.proto, w);
                s.decode.record_duration(end - start);
                s.reply_bytes += 8 + payload.len() as u64;
                s.replies += 1;
            }
            if t.span.is_some() {
                t.tracer.span("proto.decode", t.batch, t.span, start, end);
            }
        }
        if !r.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes after reply",
            ));
        }
        match reply {
            Reply::Batch(outcome) => Ok(outcome),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a batch reply, got {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------
// L1: the engine
// ---------------------------------------------------------------------

/// Submits straight into an in-process engine.
pub struct EngineTarget<'a> {
    /// The engine.
    pub engine: &'a Engine,
    /// Engine ids of the block's sessions.
    pub sessions: Vec<SessionId>,
}

impl Target for EngineTarget<'_> {
    type Ticket = BatchTicket;

    fn submit(
        &mut self,
        session: usize,
        commands: Vec<Command>,
        _: Trace<'_>,
    ) -> io::Result<BatchTicket> {
        Ok(self.engine.submit(self.sessions[session], commands))
    }

    fn wait(&mut self, ticket: BatchTicket, _: Trace<'_>) -> io::Result<Outcome> {
        Ok(ticket.wait())
    }
}

// ---------------------------------------------------------------------
// L2: the core
// ---------------------------------------------------------------------

/// Core counters moved by a window's batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounts {
    /// Batches applied.
    pub batches: u64,
    /// Time inside `Twin::apply`, ns.
    pub batch_ns: u64,
    /// Variable assignments.
    pub assignments: u64,
    /// Propagation cycles.
    pub waves: u64,
    /// Plans compiled.
    pub plan_compiles: u64,
    /// Sets served by a cached plan.
    pub plan_hits: u64,
    /// Cached plans invalidated by structural edits.
    pub plan_invalidations: u64,
    /// Domain narrowings that landed.
    pub domain_tightenings: u64,
    /// Dispatches skipped as subsumed.
    pub subsumed_pruned: u64,
    /// Planned replays served by the parallel path.
    pub parallel_replays: u64,
    /// Planned replays that fell back to sequential.
    pub parallel_fallbacks: u64,
}

impl CoreCounts {
    /// Adds `o` to `self`.
    pub fn add(&mut self, o: &CoreCounts) {
        self.batches += o.batches;
        self.batch_ns += o.batch_ns;
        self.assignments += o.assignments;
        self.waves += o.waves;
        self.plan_compiles += o.plan_compiles;
        self.plan_hits += o.plan_hits;
        self.plan_invalidations += o.plan_invalidations;
        self.domain_tightenings += o.domain_tightenings;
        self.subsumed_pruned += o.subsumed_pruned;
        self.parallel_replays += o.parallel_replays;
        self.parallel_fallbacks += o.parallel_fallbacks;
    }
}

/// Core call timings and counters of one window.
#[derive(Clone, Default)]
pub struct CoreSlot {
    /// `set` on a root with a ready plan, ns.
    pub set_planned: Histogram,
    /// `set` on a root without one, ns.
    pub set_compile: Histogram,
    /// `can_be_set_to`, ns.
    pub probe: Histogram,
    /// `rollback_journal`, ns.
    pub rollback: Histogram,
    /// Counters.
    pub counts: CoreCounts,
}

impl CoreSlot {
    /// Adds `o`'s measurements to `self`.
    pub fn merge(&mut self, o: &CoreSlot) {
        self.set_planned.merge(&o.set_planned);
        self.set_compile.merge(&o.set_compile);
        self.probe.merge(&o.probe);
        self.rollback.merge(&o.rollback);
        self.counts.add(&o.counts);
    }
}

/// Applies batches to the core twins of one block of sessions. Twins
/// hold `!Send` networks, so a `CoreTarget` is built on the load thread
/// that drives it.
pub struct CoreTarget {
    twins: Vec<Twin>,
    calls: Vec<(Call, Instant, Instant)>,
    /// Per-window core measurements.
    pub core: Vec<CoreSlot>,
}

impl CoreTarget {
    /// Twins for `sessions` sessions of `workload`.
    pub fn new(workload: Workload, sessions: usize) -> CoreTarget {
        CoreTarget {
            twins: (0..sessions).map(|_| Twin::new(workload)).collect(),
            calls: Vec::new(),
            core: Vec::new(),
        }
    }
}

fn span_name(call: Call) -> &'static str {
    match call {
        Call::SetPlanned | Call::SetCompile => "set",
        Call::Probe => "can_be_set_to",
        Call::Toggle => "set_constraint_enabled",
        Call::CheckAll => "check_all",
        Call::Rollback => "rollback_journal",
    }
}

impl Target for CoreTarget {
    type Ticket = Outcome;

    fn submit(
        &mut self,
        session: usize,
        commands: Vec<Command>,
        t: Trace<'_>,
    ) -> io::Result<Outcome> {
        let twin = &mut self.twins[session];
        let (s0, p0) = (twin.stats(), twin.par_stats());
        self.calls.clear();
        let start = Instant::now();
        let result = twin.apply(&commands, &mut self.calls);
        let end = Instant::now();
        let (s1, p1) = (twin.stats(), twin.par_stats());
        if let Some(w) = t.window {
            let slot = slot(&mut self.core, w);
            slot.counts.add(&CoreCounts {
                batches: 1,
                batch_ns: (end - start).as_nanos() as u64,
                assignments: s1.assignments - s0.assignments,
                waves: s1.cycles - s0.cycles,
                plan_compiles: s1.plan_compiles - s0.plan_compiles,
                plan_hits: s1.plan_cache_hits - s0.plan_cache_hits,
                plan_invalidations: s1.plan_cache_invalidations - s0.plan_cache_invalidations,
                domain_tightenings: s1.domain_tightenings - s0.domain_tightenings,
                subsumed_pruned: s1.subsumed_pruned - s0.subsumed_pruned,
                parallel_replays: p1.plan_replays_parallel - p0.plan_replays_parallel,
                parallel_fallbacks: p1.parallel_fallbacks - p0.parallel_fallbacks,
            });
            for &(call, a, b) in &self.calls {
                let h = match call {
                    Call::SetPlanned => &mut slot.set_planned,
                    Call::SetCompile => &mut slot.set_compile,
                    Call::Probe => &mut slot.probe,
                    Call::Rollback => &mut slot.rollback,
                    Call::Toggle | Call::CheckAll => continue,
                };
                h.record_duration(b - a);
            }
        }
        if t.span.is_some() {
            for &(call, a, b) in &self.calls {
                t.tracer.span(span_name(call), t.batch, t.span, a, b);
            }
        }
        Ok(match result {
            Ok(outputs) => Ok(BatchOutcome {
                outputs,
                waves: s1.cycles - s0.cycles,
                assignments: s1.assignments - s0.assignments,
            }),
            Err((index, violation)) => Err(BatchError::Violation { index, violation }),
        })
    }

    fn wait(&mut self, outcome: Outcome, _: Trace<'_>) -> io::Result<Outcome> {
        Ok(outcome)
    }
}

// ---------------------------------------------------------------------
// L3: the store
// ---------------------------------------------------------------------

/// What the store pass measured.
pub struct PersistRun {
    /// `Store::append` times in the measured windows, ns.
    pub append: Histogram,
    /// `Store::sync` times in the measured windows, ns.
    pub sync: Histogram,
    /// Records appended.
    pub appended: u64,
    /// `Store::open` of the re-appended log.
    pub open: Duration,
    /// Records that open recovered.
    pub recovered: usize,
}

fn store_options() -> StoreOptions {
    StoreOptions {
        segment_bytes: 1 << 20,
        sync: SyncPolicy::Deferred,
        ..StoreOptions::default()
    }
}

/// Re-appends `records` (cycling) through a fresh store in `dir` until
/// the clock's last window ends, syncing after every `per_sync` appends
/// as the engine's group commit did, then times `Store::open` of the
/// result.
pub fn persist_pass(
    dir: &Path,
    records: &[WalRecord],
    per_sync: u64,
    clock: Clock,
    tracer: &mut Tracer,
) -> io::Result<PersistRun> {
    if records.is_empty() {
        return Err(io::Error::other("no WAL records to re-append"));
    }
    let (mut store, _) = Store::open(dir, store_options())?;
    let (mut append, mut sync) = (Histogram::new(), Histogram::new());
    let mut n = 0u64;
    for rec in records.iter().cycle() {
        let a = Instant::now();
        if a >= clock.end() {
            break;
        }
        store.append(rec)?;
        let b = Instant::now();
        n += 1;
        let sampled = n.is_multiple_of(SAMPLE);
        if clock.window(b).is_some() {
            append.record_duration(b - a);
        }
        if sampled {
            tracer.span("persist.append", n, None, a, b);
        }
        if n.is_multiple_of(per_sync.max(1)) {
            store.sync()?;
            let c = Instant::now();
            if clock.window(c).is_some() {
                sync.record_duration(c - b);
            }
            if sampled {
                tracer.span("persist.sync", n, None, b, c);
            }
        }
    }
    store.sync()?;
    drop(store);
    let a = Instant::now();
    let (_store, recovered) = Store::open(dir, store_options())?;
    let b = Instant::now();
    tracer.span("persist.open", n, None, a, b);
    Ok(PersistRun {
        append,
        sync,
        appended: n,
        open: b - a,
        recovered: recovered.tail.len(),
    })
}
