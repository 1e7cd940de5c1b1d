//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out as JSON lines when the run ends.
//!
//! Every layer is timed for every batch (into histograms); spans are
//! kept for one batch in [`SAMPLE`] and at most [`MAX_SPANS`] per tracer,
//! so a traced run's memory and trace file stay small however fast the
//! layer runs.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One batch in this many gets spans.
pub const SAMPLE: u64 = 64;
/// Span cap per tracer (one tracer per load thread per pass).
pub const MAX_SPANS: usize = 20_000;

/// A timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`batch`, `proto.encode`, `core.batch`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The batch the span belongs to (per-thread sequence number).
    pub batch: u64,
}

/// One thread's spans for one pass.
#[derive(Debug)]
pub struct Tracer {
    /// Pass label written with each span (`L0`, `L1`, …).
    pub layer: &'static str,
    /// Load thread index.
    pub thread: usize,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(layer: &'static str, thread: usize, epoch: Instant) -> Tracer {
        Tracer {
            layer,
            thread,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether batch `batch` is sampled (and the cap not yet reached).
    pub fn sampled(&self, batch: u64) -> bool {
        batch.is_multiple_of(SAMPLE) && self.spans.len() < MAX_SPANS
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        batch: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    /// Closes span `ix` at `end`.
    pub fn close(&mut self, ix: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[ix].end_ns = end_ns;
    }

    /// Records a closed span.
    pub fn span(
        &mut self,
        name: &'static str,
        batch: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let ix = self.open(name, batch, parent, start);
        self.close(ix, end);
    }
}

/// Writes every tracer's spans to `path` as JSON lines. Span ids are
/// `<layer>.<thread>.<index>`, parents refer to ids in the same file.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(fs::File::create(path)?);
    for t in tracers {
        for (ix, s) in t.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("\"{}.{}.{p}\"", t.layer, t.thread),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"id\":\"{}.{}.{ix}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                t.layer, t.thread, s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
    }
    w.flush()
}
