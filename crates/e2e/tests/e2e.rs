//! End-to-end checks of the benchmark itself: determinism of the request
//! stream, short runs of every workload with every output checked, and
//! agreement between the wire and the core twin on outcome classes.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stem_e2e::drive::{CoreTarget, Outcome, Target, Trace, WireTarget};
use stem_e2e::run::{run, RunConfig, END_TO_END, PER_LAYER};
use stem_e2e::tempdir::TempDir;
use stem_e2e::trace::Tracer;
use stem_e2e::workload::{Stream, Workload};
use stem_engine::{BatchError, Engine};
use stem_server::proto::put_submit;
use stem_server::{Client, Server};

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-tests")
}

/// Hash of the `put_submit` bytes of each connection's first `n` batches,
/// with sessions numbered by their global index.
fn stream_hash(w: Workload, seed: u64, n: usize) -> u64 {
    let mut h = DefaultHasher::new();
    let mut buf = Vec::new();
    for c in 0..w.profile().conns {
        let block = Stream::block(w, c);
        let mut s = Stream::new(w, seed, c);
        for _ in 0..n {
            let b = s.next_batch();
            buf.clear();
            put_submit(&mut buf, (block.start + b.session) as u64, &b.commands).unwrap();
            h.write(&buf);
        }
    }
    h.finish()
}

#[test]
fn same_seed_gives_byte_identical_request_stream() {
    for w in Workload::ALL {
        assert_eq!(
            stream_hash(w, 1, 2000),
            stream_hash(w, 1, 2000),
            "{}",
            w.name()
        );
        assert_ne!(
            stream_hash(w, 1, 2000),
            stream_hash(w, 2, 2000),
            "{}",
            w.name()
        );
    }
}

fn smoke(w: Workload, trace: bool) {
    let cfg = RunConfig {
        warmup: Duration::from_millis(200),
        tail: 2_000,
        setups: 2,
        ..RunConfig::new(w, 11, 1, trace, out_dir())
    };
    let res = run(&cfg).unwrap_or_else(|e| panic!("{} run failed: {e}", w.name()));
    assert!(res.attempted > 0);
    assert_eq!(res.failed, 0, "{}", res.report());
    assert!(res.correct(), "{}", res.report());
    // Present whatever the sample size (p99 needs 1000 samples a window,
    // which a one-second debug-build run need not reach).
    let mut required = vec!["throughput_bps", "latency_p50_us", "setup_s", "peak_rss_mb"];
    if trace {
        required = vec![
            "proto.encode_ns",
            "proto.request_bytes",
            "engine.batch_us.p50",
            "core.batch_us.p50",
        ];
        if w.profile().durable {
            required.extend([
                "persist.append_us",
                "persist.sync_us.p50",
                "persist.recovery_s",
            ]);
        }
    }
    for name in required {
        assert!(
            res.value(name).is_some(),
            "{}: {name} absent\n{}",
            w.name(),
            res.report()
        );
    }
    let list = if trace { PER_LAYER } else { END_TO_END };
    // The result line parses and carries exactly the listed metrics.
    let line = stem_e2e::json::Json::parse(&res.json()).unwrap();
    let metrics = line.get("metrics").unwrap();
    for &(name, unit) in list {
        assert_eq!(
            metrics
                .get(name)
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.str()),
            Some(unit)
        );
    }
}

#[test]
fn smoke_interactive() {
    smoke(Workload::Interactive, false);
}

#[test]
fn smoke_fanout_replay() {
    smoke(Workload::FanoutReplay, false);
}

#[test]
fn smoke_durable_commit() {
    smoke(Workload::DurableCommit, false);
}

#[test]
fn smoke_edit_mix() {
    smoke(Workload::EditMix, false);
}

#[test]
fn traced_smoke_durable_commit() {
    smoke(Workload::DurableCommit, true);
}

#[test]
fn traced_smoke_edit_mix() {
    smoke(Workload::EditMix, true);
}

/// The class of an outcome: committed, or violated at a command index.
fn class(o: &Outcome) -> Result<(), usize> {
    match o {
        Ok(_) => Ok(()),
        Err(BatchError::Violation { index, .. }) => Err(*index),
        Err(other) => panic!("unexpected failure {other:?}"),
    }
}

fn classes<T: Target>(
    target: &mut T,
    w: Workload,
    seed: u64,
    conn: usize,
    n: usize,
) -> Vec<Result<(), usize>> {
    let mut tracer = Tracer::new("test", conn, Instant::now());
    let mut stream = Stream::new(w, seed, conn);
    (0..n as u64)
        .map(|batch| {
            let b = stream.next_batch();
            let ticket = target
                .submit(
                    b.session,
                    b.commands,
                    Trace {
                        on: false,
                        batch,
                        window: None,
                        span: None,
                        tracer: &mut tracer,
                    },
                )
                .unwrap();
            target.flush().unwrap();
            let outcome = target
                .wait(
                    ticket,
                    Trace {
                        on: false,
                        batch,
                        window: None,
                        span: None,
                        tracer: &mut tracer,
                    },
                )
                .unwrap();
            class(&outcome)
        })
        .collect()
}

#[test]
fn core_twin_agrees_with_the_wire_on_outcome_classes() {
    let w = Workload::EditMix;
    let engine = Arc::new(Engine::with_config(w.engine_config()));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let block = Stream::block(w, 0);
    let mut ids = Vec::new();
    for _ in block.clone() {
        let s = client.open().unwrap();
        client.apply(s, &w.construction()).unwrap().unwrap();
        ids.push(s.0);
    }
    let mut wire = WireTarget::connect(server.local_addr(), ids).unwrap();
    let served = classes(&mut wire, w, 5, 0, 2000);
    let mut core = CoreTarget::new(w, block.len());
    let direct = classes(&mut core, w, 5, 0, 2000);
    assert_eq!(served, direct);
    // The prefix exercises both classes.
    assert!(served.iter().any(Result::is_ok));
    assert!(served.iter().any(Result::is_err));
}

#[test]
fn temp_dirs_are_unique_and_removed_on_drop_even_when_panicking() {
    let base = out_dir().join("tempdir");
    let a = TempDir::new(&base, "t").unwrap();
    let b = TempDir::new(&base, "t").unwrap();
    assert_ne!(a.path(), b.path());
    let kept = a.path().to_path_buf();
    drop(a);
    assert!(!kept.exists());
    let inner = b.path().to_path_buf();
    let result = std::panic::catch_unwind(move || {
        let _hold = b;
        panic!("unwinding drops the directory");
    });
    assert!(result.is_err());
    assert!(!inner.exists());
}
