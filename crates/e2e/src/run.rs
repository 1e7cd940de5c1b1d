//! One workload run: set-up, the measured passes, the output checks, and
//! the metrics they yield.
//!
//! An untraced run measures the end-to-end metrics: it sets the service
//! up several times (the median is `setup_s`), drives the served engine
//! through the wire for a warm-up and `seconds` 1-second windows, and
//! reports each metric as the median across windows. A traced run peels
//! the layers instead: the same seeded streams go through the socket
//! (L0, tracing every other window), into an in-process engine (L1), into
//! core twins (L2) and, for `durable_commit`, the WAL records go back
//! through a twin store (L3).
//!
//! Both kinds of run check every output: each batch's outcome against
//! the stream's prediction, every session's final values against a core
//! twin fed the session's exact stream, and for `durable_commit` every
//! session's state after recovery against its state before shutdown.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use stem_engine::{Command, Durability, DurabilityOptions, Engine, EngineStats, Output, SessionId};
use stem_persist::{decode_segment, WalRecord};
use stem_server::{Client, Server};

use crate::drive::{
    check, closed_loop, merge_windows, persist_pass, CoreCounts, CoreSlot, CoreTarget,
    EngineTarget, Outcome, Pass, ProtoSlot, Slot, Stop, Tally, Target, WireTarget,
};
use crate::json::{number, quote};
use crate::stats::{Clock, Histogram, Summary};
use crate::tempdir::TempDir;
use crate::trace::{write_jsonl, Tracer};
use crate::twin::{Dump, Twin};
use crate::workload::{Stream, Workload};

/// Measurement window width.
pub const SECOND: Duration = Duration::from_secs(1);

/// Batches `durable_commit` commits after its checkpoint and before the
/// timed recovery, so recovery always replays the same log tail.
pub const TAIL: u64 = 50_000;

/// `durable_commit`'s automatic checkpoint threshold. A `set head`
/// record is a 52-byte frame, so the 50,000-batch tail (2.6 MB) stays
/// ~10% under it and the timed recovery always replays the whole tail,
/// while the 22 s of warm-up and measurement at 13–15k batches/s
/// (0.7–0.8 MB/s of log) complete about 5 checkpoints.
pub const CHECKPOINT_BYTES: u64 = 11 << 18;

/// The end-to-end metrics a run reports in its result line, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_bps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports in its result line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.request_bytes", "B"),
    ("proto.reply_bytes", "B"),
    ("server.self_us", "us"),
    ("server.share", "ratio"),
    ("engine.batch_us.p50", "us"),
    ("engine.batch_us.p99", "us"),
    ("engine.self_us", "us"),
    ("engine.queue_depth_hwm", "count"),
    ("engine.rollbacks_per_batch", "per_batch"),
    ("core.batch_us.p50", "us"),
    ("core.batch_us.p99", "us"),
    ("core.ns_per_inference", "ns"),
    ("core.set_planned_us", "us"),
    ("core.assignments_per_batch", "per_batch"),
    ("core.waves_per_batch", "per_batch"),
    ("core.parallel_replay_share", "ratio"),
    ("core.parallel_fallbacks_per_batch", "per_batch"),
    ("core.set_compile_us", "us"),
    ("core.probe_us", "us"),
    ("core.rollback_us", "us"),
    ("core.plan_hit_ratio", "ratio"),
    ("core.plan_compiles_per_batch", "per_batch"),
    ("core.plan_invalidations_per_batch", "per_batch"),
    ("core.domain_tightenings_per_batch", "per_batch"),
    ("core.subsumed_pruned_per_batch", "per_batch"),
    ("persist.append_us", "us"),
    ("persist.sync_us.p50", "us"),
    ("persist.sync_us.p99", "us"),
    ("persist.bytes_per_batch", "B"),
    ("persist.appends_per_fsync", "ratio"),
    ("persist.snapshots_written", "count"),
    ("persist.recovery_records_per_s", "1/s"),
    ("persist.recovery_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every batch stream.
    pub seed: u64,
    /// Measured seconds (untraced), or the budget split across the
    /// traced passes.
    pub seconds: u64,
    /// Layer-peeled traced run instead of the end-to-end run.
    pub trace: bool,
    /// Unmeasured warm-up before each pass.
    pub warmup: Duration,
    /// `durable_commit` batches after the checkpoint ([`TAIL`]).
    pub tail: u64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Where stores, spans and results go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// The benchmark's settings: 2 s warm-up (1 s per traced pass), the
    /// full tail, 15 set-ups.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
        out_dir: PathBuf,
    ) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            warmup: if trace { SECOND } else { 2 * SECOND },
            tail: TAIL,
            setups: 15,
            out_dir,
        }
    }
}

/// `$CARGO_TARGET_DIR/e2e` when that is set, else the workspace's
/// `target/e2e`.
pub fn default_out_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir).join("e2e"),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/e2e"),
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when absent (e.g. a percentile without 10 samples
    /// beyond it, or a layer the workload never reaches).
    pub value: Option<f64>,
    /// Median and quartiles across the values it was taken from
    /// (windows, or set-ups), when it is such a median.
    pub spread: Option<Summary>,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Batches submitted.
    pub attempted: u64,
    /// Batches whose outcome was wrong or lost.
    pub failed: u64,
    /// Output-check failures (first batch failure, dump mismatches, …).
    pub problems: Vec<String>,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// Context lines for the report.
    pub notes: Vec<String>,
}

impl RunResult {
    fn new(cfg: &RunConfig) -> RunResult {
        RunResult {
            workload: cfg.workload,
            seed: cfg.seed,
            trace: cfg.trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    fn put(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.metrics.push(Metric {
            name,
            unit,
            value: value.filter(|v| v.is_finite()),
            spread: None,
        });
    }

    fn put_median(
        &mut self,
        name: &'static str,
        unit: &'static str,
        values: impl IntoIterator<Item = Option<f64>>,
    ) {
        let spread = Summary::of(values);
        self.metrics.push(Metric {
            name,
            unit,
            value: spread.map(|s| s.median),
            spread,
        });
    }

    fn absorb(&mut self, tally: &Tally) {
        self.attempted += tally.sent;
        self.failed += tally.failed;
        if let Some(why) = &tally.first_failure {
            self.problems.push(why.clone());
        }
    }

    /// The human-readable report.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {} seed={} {} ==",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            let value = match m.value {
                Some(v) => format!("{v:.4} {}", m.unit),
                None => "absent".to_string(),
            };
            let spread = match &m.spread {
                Some(sp) if sp.n > 1 => {
                    format!("   [q1 {:.4}, q3 {:.4}; n={}]", sp.q1, sp.q3, sp.n)
                }
                _ => String::new(),
            };
            let _ = writeln!(s, "  {:<36} {value}{spread}", m.name);
        }
        let _ = writeln!(
            s,
            "  {:<36} {} ({} of {} batches)",
            "failed_share",
            if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "  FAILED CHECK: {p}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// end-to-end (untraced) or per-layer (traced) metric. An absent
    /// value is written as 0.
    pub fn json(&self) -> String {
        let list = if self.trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let v = self.value(name).unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(v),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload as configured.
pub fn run(cfg: &RunConfig) -> io::Result<RunResult> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

// ---------------------------------------------------------------------
// The served engine
// ---------------------------------------------------------------------

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        mode: Durability::GroupCommit,
        segment_bytes: 1 << 20,
        checkpoint_bytes: CHECKPOINT_BYTES,
        file_factory: None,
    }
}

/// A fresh engine for `w`: volatile, or group-commit on a new store.
fn open_engine(w: Workload, out_dir: &Path) -> io::Result<(Engine, Option<TempDir>)> {
    if !w.profile().durable {
        return Ok((Engine::with_config(w.engine_config()), None));
    }
    let dir = TempDir::new(out_dir, &format!("store-{}", w.name()))?;
    let engine = Engine::open_with_config(dir.path(), w.engine_config(), durability())?;
    Ok((engine, Some(dir)))
}

/// An engine behind a server on an ephemeral loopback port, with the
/// workload's sessions built over the wire.
struct Served {
    engine: Arc<Engine>,
    server: Server<Arc<Engine>>,
    store: Option<TempDir>,
    sessions: Vec<SessionId>,
}

impl Served {
    fn setup(w: Workload, out_dir: &Path) -> io::Result<Served> {
        let (engine, store) = open_engine(w, out_dir)?;
        let engine = Arc::new(engine);
        let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0")?;
        let mut client = Client::connect(server.local_addr())?;
        let sessions = (0..w.profile().sessions)
            .map(|_| client.open())
            .collect::<io::Result<Vec<_>>>()?;
        let construction = w.construction();
        for &s in &sessions {
            client.submit(s, &construction)?;
        }
        for result in client.drain()? {
            result.map_err(|e| io::Error::other(format!("session construction failed: {e}")))?;
        }
        Ok(Served {
            engine,
            server,
            store,
            sessions,
        })
    }

    fn client(&self) -> io::Result<Client> {
        Client::connect(self.server.local_addr())
    }

    /// One load lane per connection, each with its block of sessions.
    fn lanes(&self, w: Workload, seed: u64, epoch: Instant) -> io::Result<Vec<Lane<WireTarget>>> {
        (0..w.profile().conns)
            .map(|c| {
                let ids = Stream::block(w, c).map(|i| self.sessions[i].0).collect();
                Ok(Lane::new(
                    w,
                    seed,
                    c,
                    WireTarget::connect(self.server.local_addr(), ids)?,
                    "L0",
                    epoch,
                ))
            })
            .collect()
    }

    fn dumps(&self) -> io::Result<Vec<Dump>> {
        let mut client = self.client()?;
        self.sessions.iter().map(|&s| client.dump(s)).collect()
    }

    /// Stops the server, waits for its connection threads to release the
    /// engine, and hands the engine back.
    fn stop(self) -> io::Result<(Engine, Option<TempDir>)> {
        let Served {
            engine,
            server,
            store,
            ..
        } = self;
        drop(server);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut engine = engine;
        loop {
            match Arc::try_unwrap(engine) {
                Ok(e) => return Ok((e, store)),
                Err(shared) if Instant::now() < deadline => {
                    engine = shared;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err(io::Error::other("server threads still hold the engine")),
            }
        }
    }
}

fn local_dump(engine: &Engine, session: SessionId) -> io::Result<Dump> {
    match engine.apply(session, vec![Command::DumpValues]) {
        Ok(mut out) => match out.outputs.pop() {
            Some(Output::Dump(d)) => Ok(d),
            other => Err(io::Error::other(format!("dump replied {other:?}"))),
        },
        Err(e) => Err(io::Error::other(format!("dump refused: {e}"))),
    }
}

// ---------------------------------------------------------------------
// Load lanes
// ---------------------------------------------------------------------

/// One load thread's state across passes: its target, its stream (which
/// continues from pass to pass), and what it measured.
struct Lane<T> {
    target: T,
    stream: Stream,
    tally: Tally,
    slots: Vec<Slot>,
    tracer: Tracer,
}

impl<T: Target + Send> Lane<T> {
    fn new(
        w: Workload,
        seed: u64,
        conn: usize,
        target: T,
        layer: &'static str,
        epoch: Instant,
    ) -> Lane<T> {
        Lane {
            target,
            stream: Stream::new(w, seed, conn),
            tally: Tally::default(),
            slots: Vec::new(),
            tracer: Tracer::new(layer, conn, epoch),
        }
    }
}

/// Runs `f` on one thread per item and collects the results in order.
fn parallel<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = items.into_iter().map(|i| s.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Drives every lane through `pass` on its own thread while `during`
/// runs on the calling thread.
fn drive<T: Target + Send, R>(
    lanes: Vec<Lane<T>>,
    window: usize,
    pass: Pass,
    during: impl FnOnce() -> R,
) -> (Vec<Lane<T>>, R) {
    thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|mut lane| {
                s.spawn(move || {
                    lane.slots = vec![Slot::default(); pass.clock.windows];
                    // A transport error is already counted in the tally.
                    let _ = closed_loop(
                        &mut lane.target,
                        &mut lane.stream,
                        window,
                        &pass,
                        &mut lane.slots,
                        &mut lane.tracer,
                        &mut lane.tally,
                    );
                    lane
                })
            })
            .collect();
        let r = during();
        let lanes = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (lanes, r)
    })
}

fn sleep_until(t: Instant) {
    thread::sleep(t.saturating_duration_since(Instant::now()));
}

fn timed_pass(clock: Clock, trace: bool, alternate: bool, span: &'static str) -> Pass {
    Pass {
        clock,
        stop: Stop::At(clock.end()),
        trace,
        alternate,
        span,
    }
}

/// Replays each connection's first `sent[c]` batches into fresh core
/// twins, checking each outcome, then compares every twin's final state
/// with the session's `dumps` entry.
fn verify(w: Workload, seed: u64, sent: &[u64], dumps: &[Dump]) -> Vec<String> {
    let conns: Vec<usize> = (0..sent.len()).collect();
    parallel(conns, |c| {
        let mut problems = Vec::new();
        let block = Stream::block(w, c);
        let mut stream = Stream::new(w, seed, c);
        let mut twins: Vec<Twin> = block.clone().map(|_| Twin::new(w)).collect();
        for n in 0..sent[c] {
            let b = stream.next_batch();
            let outcome: Outcome = match twins[b.session].apply(&b.commands, &mut ()) {
                Ok(outputs) => Ok(stem_engine::BatchOutcome {
                    outputs,
                    waves: 0,
                    assignments: 0,
                }),
                Err((index, violation)) => {
                    Err(stem_engine::BatchError::Violation { index, violation })
                }
            };
            if let Err(why) = check(&outcome, &b.expect) {
                problems.push(format!("core twin, connection {c} batch {n}: {why}"));
                break;
            }
        }
        for (twin, g) in twins.iter().zip(block) {
            if twin.dump() != dumps[g] {
                problems.push(format!(
                    "session {g}: served values differ from its core twin's"
                ));
            }
        }
        problems
    })
    .concat()
}

/// Engine counters moved between two snapshots.
fn delta(a: &EngineStats, b: &EngineStats, f: impl Fn(&EngineStats) -> u64) -> f64 {
    f(b).saturating_sub(f(a)) as f64
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// After the L0 pass: for `durable_commit`, checkpoint, commit the fixed
/// tail, shut down, and time the reopen; then check every session's
/// state. Returns the reopened engine's WAL records when `want_wal`.
fn finish_served(
    cfg: &RunConfig,
    served: Served,
    mut lanes: Vec<Lane<WireTarget>>,
    res: &mut RunResult,
    want_wal: bool,
) -> io::Result<Vec<WalRecord>> {
    let w = cfg.workload;
    let p = w.profile();
    if p.durable {
        served.engine.checkpoint()?;
        let clock = Clock::new(Instant::now(), SECOND, 0);
        let pass = Pass {
            stop: Stop::After(cfg.tail / p.conns as u64),
            ..timed_pass(clock, false, false, "batch")
        };
        lanes = drive(lanes, p.window, pass, || ()).0;
    }
    let dumps = served.dumps()?;
    let sessions = served.sessions.clone();
    let sent: Vec<u64> = lanes.iter().map(|l| l.tally.sent).collect();
    for lane in &lanes {
        res.absorb(&lane.tally);
    }
    drop(lanes);
    let (engine, store) = served.stop()?;
    let mut records = Vec::new();
    if let Some(store) = store {
        engine.shutdown();
        let t = Instant::now();
        let engine = Engine::open_with_config(store.path(), w.engine_config(), durability())?;
        let recovery = t.elapsed();
        res.put("persist.recovery_s", "s", Some(recovery.as_secs_f64()));
        for (i, (&s, before)) in sessions.iter().zip(&dumps).enumerate() {
            if &local_dump(&engine, s)? != before {
                res.problems.push(format!(
                    "session {i}: state after recovery differs from before shutdown"
                ));
            }
        }
        if want_wal {
            for ix in engine.seal_wal()? {
                records.extend(decode_segment(&engine.read_wal_segment(ix)?)?);
            }
        }
    }
    // The peak so far covers set-up, serving and (durable) recovery; the
    // replay below is the benchmark's own checking work.
    if !cfg.trace {
        res.put("peak_rss_mb", "MB", peak_rss_mb());
    }
    let t = Instant::now();
    res.problems.extend(verify(w, cfg.seed, &sent, &dumps));
    res.notes.push(format!(
        "checked {} batches and every session's final values against core twins in {:.1} s",
        sent.iter().sum::<u64>(),
        t.elapsed().as_secs_f64()
    ));
    Ok(records)
}

// ---------------------------------------------------------------------
// Untraced: the end-to-end metrics
// ---------------------------------------------------------------------

fn run_untraced(cfg: &RunConfig) -> io::Result<RunResult> {
    let w = cfg.workload;
    let p = w.profile();
    let mut res = RunResult::new(cfg);
    let epoch = Instant::now();

    let mut setups = Vec::with_capacity(cfg.setups);
    let mut served = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(old) = served.take() {
            Served::stop(old)?;
        }
        let t = Instant::now();
        served = Some(Served::setup(w, &cfg.out_dir)?);
        setups.push(Some(t.elapsed().as_secs_f64()));
    }
    let served = served.expect("at least one set-up");

    let lanes = served.lanes(w, cfg.seed, epoch)?;
    let clock = Clock::new(Instant::now() + cfg.warmup, SECOND, cfg.seconds as usize);
    let before = served.engine.stats();
    let (lanes, ()) = drive(
        lanes,
        p.window,
        timed_pass(clock, false, false, "batch"),
        || (),
    );
    let after = served.engine.stats();
    let slots = merge_windows(
        lanes.iter().map(|l| &l.slots[..]),
        clock.windows,
        Slot::merge,
    );

    let secs = clock.width.as_secs_f64();
    res.put_median(
        "throughput_bps",
        "1/s",
        slots.iter().map(|s| Some(s.done as f64 / secs)),
    );
    res.put_median(
        "latency_p50_us",
        "us",
        slots.iter().map(|s| s.latency.percentile(0.5).map(us)),
    );
    res.put_median(
        "latency_p99_us",
        "us",
        slots.iter().map(|s| s.latency.percentile(0.99).map(us)),
    );
    res.put_median("setup_s", "s", setups);
    if p.durable {
        res.notes.push(format!(
            "{} checkpoints completed during warm-up and measurement ({} fsyncs, {} appends)",
            delta(&before, &after, |s| s.snapshots_written),
            delta(&before, &after, |s| s.wal_group_syncs),
            delta(&before, &after, |s| s.wal_appends),
        ));
    }
    finish_served(cfg, served, lanes, &mut res, false)?;
    Ok(res)
}

// ---------------------------------------------------------------------
// Traced: the per-layer metrics
// ---------------------------------------------------------------------

fn run_traced(cfg: &RunConfig) -> io::Result<RunResult> {
    let w = cfg.workload;
    let p = w.profile();
    let mut res = RunResult::new(cfg);
    let epoch = Instant::now();
    // The budget splits into L0 (2 shares: traced and untraced windows
    // alternate), L1, L2 and L3.
    let per = (cfg.seconds / 5).max(1) as usize;
    let mut tracers = Vec::new();

    // L0: the socket path.
    let served = Served::setup(w, &cfg.out_dir)?;
    let lanes = served.lanes(w, cfg.seed, epoch)?;
    let clock = Clock::new(Instant::now() + cfg.warmup, SECOND, 2 * per);
    let mut stats_client = served.client()?;
    let (mut lanes, before) = drive(
        lanes,
        p.window,
        timed_pass(clock, true, true, "batch"),
        || {
            sleep_until(clock.start);
            stats_client.stats()
        },
    );
    let before = before?;
    let after = stats_client.stats()?;
    drop(stats_client);
    let l0 = merge_windows(
        lanes.iter().map(|l| &l.slots[..]),
        clock.windows,
        Slot::merge,
    );
    let proto = merge_windows(
        lanes.iter().map(|l| &l.target.proto[..]),
        clock.windows,
        ProtoSlot::merge,
    );
    for lane in &mut lanes {
        tracers.push(std::mem::replace(
            &mut lane.tracer,
            Tracer::new("L0", 0, epoch),
        ));
    }
    res.put_median(
        "proto.encode_ns",
        "ns",
        proto.iter().map(|s| s.encode.percentile(0.5)),
    );
    res.put_median(
        "proto.decode_ns",
        "ns",
        proto.iter().map(|s| s.decode.percentile(0.5)),
    );
    let sum = |f: fn(&ProtoSlot) -> u64| proto.iter().map(f).sum::<u64>() as f64;
    res.put(
        "proto.request_bytes",
        "B",
        ratio(sum(|s| s.request_bytes), sum(|s| s.requests)),
    );
    res.put(
        "proto.reply_bytes",
        "B",
        ratio(sum(|s| s.reply_bytes), sum(|s| s.replies)),
    );
    res.put_median(
        "latency_traced_p50_us",
        "us",
        l0.iter().map(|s| s.traced.percentile(0.5).map(us)),
    );
    res.put_median(
        "latency_untraced_p50_us",
        "us",
        l0.iter().map(|s| s.latency.percentile(0.5).map(us)),
    );
    let l0_traced = res.value("latency_traced_p50_us");
    let l0_untraced = res.value("latency_untraced_p50_us");
    res.put(
        "trace.overhead_share",
        "ratio",
        l0_traced
            .zip(l0_untraced)
            .and_then(|(t, u)| ratio(t - u, u)),
    );
    let batches = delta(&before, &after, |s| s.batches);
    let group_syncs = delta(&before, &after, |s| s.wal_group_syncs);
    let appends = delta(&before, &after, |s| s.wal_appends);
    let appends_per_fsync = ratio(appends, group_syncs);
    if p.durable {
        res.put(
            "persist.bytes_per_batch",
            "B",
            ratio(delta(&before, &after, |s| s.wal_bytes), batches),
        );
        res.put("persist.appends_per_fsync", "ratio", appends_per_fsync);
        res.put(
            "persist.snapshots_written",
            "count",
            Some(delta(&before, &after, |s| s.snapshots_written)),
        );
    }

    let records = finish_served(cfg, served, lanes, &mut res, p.durable)?;

    // L3: the engine's own WAL records through a twin store.
    if p.durable {
        let dir = TempDir::new(&cfg.out_dir, &format!("persist-twin-{}", w.name()))?;
        let clock = Clock::new(Instant::now() + cfg.warmup, SECOND, per);
        let mut tracer = Tracer::new("L3", 0, epoch);
        let per_sync = appends_per_fsync.map_or(1, |r| r.round().max(1.0) as u64);
        let l3 = persist_pass(dir.path(), &records, per_sync, clock, &mut tracer)?;
        tracers.push(tracer);
        res.put("persist.append_us", "us", l3.append.percentile(0.5).map(us));
        res.put("persist.sync_us.p50", "us", l3.sync.percentile(0.5).map(us));
        res.put(
            "persist.sync_us.p99",
            "us",
            l3.sync.percentile(0.99).map(us),
        );
        res.put(
            "persist.recovery_records_per_s",
            "1/s",
            ratio(l3.recovered as f64, l3.open.as_secs_f64()),
        );
        res.notes.push(format!(
            "L3 re-appended {} records, cycling through the log's {}, syncing every {per_sync}",
            l3.appended,
            records.len()
        ));
    }

    // L1: the same streams into an identically configured in-process engine.
    let (engine, _store) = open_engine(w, &cfg.out_dir)?;
    let sessions: Vec<SessionId> = (0..p.sessions).map(|_| engine.create_session()).collect();
    for &s in &sessions {
        engine
            .apply(s, w.construction())
            .map_err(|e| io::Error::other(format!("session construction failed: {e}")))?;
    }
    let lanes: Vec<Lane<EngineTarget<'_>>> = (0..p.conns)
        .map(|c| {
            let target = EngineTarget {
                engine: &engine,
                sessions: Stream::block(w, c).map(|i| sessions[i]).collect(),
            };
            Lane::new(w, cfg.seed, c, target, "L1", epoch)
        })
        .collect();
    let clock = Clock::new(Instant::now() + cfg.warmup, SECOND, per);
    let (lanes, before) = drive(
        lanes,
        p.window,
        timed_pass(clock, true, false, "engine.batch"),
        || {
            sleep_until(clock.start);
            engine.stats_and_reset_queue_hwm()
        },
    );
    let after = engine.stats();
    let l1 = merge_windows(
        lanes.iter().map(|l| &l.slots[..]),
        clock.windows,
        Slot::merge,
    );
    for lane in lanes {
        res.absorb(&lane.tally);
        tracers.push(lane.tracer);
    }
    drop(engine);
    res.put_median(
        "engine.batch_us.p50",
        "us",
        l1.iter().map(|s| s.latency.percentile(0.5).map(us)),
    );
    res.put_median(
        "engine.batch_us.p99",
        "us",
        l1.iter().map(|s| s.latency.percentile(0.99).map(us)),
    );
    res.put(
        "engine.queue_depth_hwm",
        "count",
        Some(after.queue_depth_hwm as f64),
    );
    res.put(
        "engine.rollbacks_per_batch",
        "per_batch",
        ratio(
            delta(&before, &after, |s| s.rollbacks),
            delta(&before, &after, |s| s.batches),
        ),
    );

    // L2: the same streams applied to core twins built on each thread.
    let clock = Clock::new(Instant::now() + cfg.warmup, SECOND, per);
    let pass = timed_pass(clock, true, false, "core.batch");
    let conns: Vec<usize> = (0..p.conns).collect();
    let l2: Vec<(Vec<CoreSlot>, Vec<Slot>, Tracer, Tally)> = parallel(conns, |c| {
        let mut target = CoreTarget::new(w, Stream::block(w, c).len());
        let mut stream = Stream::new(w, cfg.seed, c);
        let mut slots = vec![Slot::default(); clock.windows];
        let mut tracer = Tracer::new("L2", c, epoch);
        let mut tally = Tally::default();
        let _ = closed_loop(
            &mut target,
            &mut stream,
            1,
            &pass,
            &mut slots,
            &mut tracer,
            &mut tally,
        );
        (target.core, slots, tracer, tally)
    });
    for (_, _, _, tally) in &l2 {
        res.absorb(tally);
    }
    let core = merge_windows(
        l2.iter().map(|(c, ..)| &c[..]),
        clock.windows,
        CoreSlot::merge,
    );
    let mut counts = CoreCounts::default();
    for slot in &core {
        counts.add(&slot.counts);
    }
    let core_slots = merge_windows(
        l2.iter().map(|(_, s, ..)| &s[..]),
        clock.windows,
        Slot::merge,
    );
    tracers.extend(l2.into_iter().map(|(_, _, t, _)| t));
    res.put_median(
        "core.batch_us.p50",
        "us",
        core_slots.iter().map(|s| s.latency.percentile(0.5).map(us)),
    );
    res.put_median(
        "core.batch_us.p99",
        "us",
        core_slots
            .iter()
            .map(|s| s.latency.percentile(0.99).map(us)),
    );
    res.put_median(
        "core.ns_per_inference",
        "ns",
        core.iter()
            .map(|s| ratio(s.counts.batch_ns as f64, s.counts.assignments as f64)),
    );
    let all = |f: fn(&CoreSlot) -> &Histogram| {
        core.iter().fold(Histogram::new(), |mut acc, s| {
            acc.merge(f(s));
            acc
        })
    };
    let n = counts.batches as f64;
    res.put(
        "core.set_planned_us",
        "us",
        all(|s| &s.set_planned).percentile(0.5).map(us),
    );
    res.put(
        "core.assignments_per_batch",
        "per_batch",
        ratio(counts.assignments as f64, n),
    );
    res.put(
        "core.waves_per_batch",
        "per_batch",
        ratio(counts.waves as f64, n),
    );
    res.put(
        "core.parallel_replay_share",
        "ratio",
        ratio(counts.parallel_replays as f64, counts.plan_hits as f64),
    );
    res.put(
        "core.parallel_fallbacks_per_batch",
        "per_batch",
        ratio(counts.parallel_fallbacks as f64, n),
    );
    res.put(
        "core.set_compile_us",
        "us",
        all(|s| &s.set_compile).percentile(0.5).map(us),
    );
    res.put(
        "core.probe_us",
        "us",
        all(|s| &s.probe).percentile(0.5).map(us),
    );
    res.put(
        "core.rollback_us",
        "us",
        all(|s| &s.rollback).percentile(0.5).map(us),
    );
    res.put(
        "core.plan_hit_ratio",
        "ratio",
        ratio(
            counts.plan_hits as f64,
            (counts.plan_hits + counts.plan_compiles) as f64,
        ),
    );
    res.put(
        "core.plan_compiles_per_batch",
        "per_batch",
        ratio(counts.plan_compiles as f64, n),
    );
    res.put(
        "core.plan_invalidations_per_batch",
        "per_batch",
        ratio(counts.plan_invalidations as f64, n),
    );
    res.put(
        "core.domain_tightenings_per_batch",
        "per_batch",
        ratio(counts.domain_tightenings as f64, n),
    );
    res.put(
        "core.subsumed_pruned_per_batch",
        "per_batch",
        ratio(counts.subsumed_pruned as f64, n),
    );

    // Self times: each layer's p50 minus the p50s of the layers inside it.
    let l0 = res.value("latency_traced_p50_us");
    let l1 = res.value("engine.batch_us.p50");
    let l2 = res.value("core.batch_us.p50");
    let wire =
        us(res.value("proto.encode_ns").unwrap_or(0.0)
            + res.value("proto.decode_ns").unwrap_or(0.0));
    let l3 = res.value("persist.append_us").unwrap_or(0.0)
        + res.value("persist.sync_us.p50").unwrap_or(0.0);
    let server_self = l0.zip(l1).map(|(l0, l1)| l0 - l1 - wire);
    res.put("server.self_us", "us", server_self);
    res.put(
        "server.share",
        "ratio",
        server_self.zip(l0).and_then(|(s, l0)| ratio(s, l0)),
    );
    res.put(
        "engine.self_us",
        "us",
        l1.zip(l2).map(|(l1, l2)| l1 - l2 - l3),
    );

    let trace_path = cfg.out_dir.join(format!("trace-{}.jsonl", w.name()));
    write_jsonl(&trace_path, &tracers)?;
    res.notes
        .push(format!("spans written to {}", trace_path.display()));
    Ok(res)
}
