//! Minimal Criterion-compatible benchmark harness.
//!
//! The repository builds with zero registry access, so the external
//! `criterion` crate is unavailable; this module re-implements the small
//! slice of its API the benches use (`Criterion`, `Bencher`,
//! `BenchmarkGroup`, `BenchmarkId`, `BatchSize`, `criterion_group!`,
//! `criterion_main!`). Bench files keep their structure and only change
//! their import line.
//!
//! Methodology: each benchmark warms up for `warm_up_time`, estimates the
//! per-iteration cost, sizes its samples so `sample_size` samples fill
//! `measurement_time`, then reports min / median / mean over the samples.
//! Setup closures passed to [`Bencher::iter_batched`] run outside the
//! timed region, matching Criterion's semantics.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Whether the bench binary was invoked with `--smoke`: a fast regression
/// profile (tiny warm-up/measurement windows) for CI, where the JSON
/// artifacts matter more than statistical depth.
pub fn smoke() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| std::env::args().any(|a| a == "--smoke"))
}

/// One benchmark's summary, as written to the `BENCH_<name>.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full benchmark id, e.g. `engine/batch_round_trip_chain100`.
    pub id: String,
    /// Fastest sample, in nanoseconds per iteration.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Number of samples.
    pub samples: usize,
    /// Iterations per second at the median (`1e9 / median_ns`).
    pub ops_per_sec: f64,
}

fn registry() -> &'static Mutex<Vec<BenchRecord>> {
    static RECORDS: OnceLock<Mutex<Vec<BenchRecord>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Drains every recorded result into `BENCH_<name>.json` (machine-readable
/// regression tracking; one file per bench binary). Called by
/// [`criterion_main!`](crate::criterion_main!) with the binary's stem, so
/// plain `cargo bench` produces the artifacts in the working directory.
pub fn export_json(bench_name: &str) {
    let records = std::mem::take(&mut *registry().lock().unwrap());
    if records.is_empty() {
        return;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench_name)));
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"min_ns\": {:.1}, \"median_ns\": {:.1}, \
             \"mean_ns\": {:.1}, \"samples\": {}, \"ops_per_sec\": {:.2}}}{}\n",
            json_escape(&r.id),
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            r.samples,
            r.ops_per_sec,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = workspace_root().join(format!("BENCH_{bench_name}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {} ({} results)", path.display(), records.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Cargo runs benches with the *package* directory as cwd; artifacts
/// belong at the workspace root, found by walking up to `Cargo.lock`.
fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}

/// Derives the bench name from `argv[0]` (cargo names the binary
/// `<bench>-<hash>`) and exports the JSON artifact.
pub fn export_json_auto() {
    let arg0 = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&arg0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    // Strip cargo's `-<hex hash>` suffix if present.
    let name = match stem.rsplit_once('-') {
        Some((base, suffix))
            if !base.is_empty() && suffix.chars().all(|c| c.is_ascii_hexdigit()) =>
        {
            base
        }
        _ => stem,
    };
    export_json(name);
}

/// How batched inputs are grouped per measurement (accepted for
/// compatibility; the harness always times one routine call at a time, so
/// the variants are equivalent here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A benchmark identifier composed of a function name and a parameter,
/// rendered `name/param` (or just `param` via
/// [`BenchmarkId::from_parameter`]).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `new("solve", 25)` renders as `solve/25`.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// `from_parameter(25)` renders as `25`.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Config {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            warm_up: Duration::from_millis(500),
            measurement: Duration::from_secs(2),
            sample_size: 50,
        }
    }
}

/// The benchmark driver (API-compatible subset of `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    config: Config,
}

impl Criterion {
    /// Sets the warm-up duration (builder style).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up = d;
        self
    }

    /// Sets the measurement duration (builder style).
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement = d;
        self
    }

    /// Sets the number of samples (builder style).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(name, self.config, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let config = self.config;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            config,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    config: Config,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n.max(2);
        self
    }

    /// Overrides the measurement duration for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement = d;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.config, f);
        self
    }

    /// Runs one parameterised benchmark inside the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.id), self.config, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (a no-op; present for API compatibility).
    pub fn finish(self) {}
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Per-benchmark measurement driver handed to the bench closure.
pub struct Bencher {
    config: Config,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Times `routine` over fresh inputs from `setup`; only the routine is
    /// inside the timed region.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        // Warm up and estimate the per-iteration cost.
        let warm_end = Instant::now() + self.config.warm_up;
        let mut spent = Duration::ZERO;
        let mut iters: u32 = 0;
        loop {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            spent += t.elapsed();
            iters += 1;
            if Instant::now() >= warm_end && iters >= 1 {
                break;
            }
        }
        let est = (spent / iters.max(1)).max(Duration::from_nanos(1));
        // Size samples so `sample_size` of them fill the measurement time.
        let per_sample =
            (self.config.measurement.as_nanos() / self.config.sample_size as u128 / est.as_nanos())
                .clamp(1, 1_000_000) as u32;
        self.samples_ns.clear();
        for _ in 0..self.config.sample_size {
            let mut sample = Duration::ZERO;
            for _ in 0..per_sample {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                sample += t.elapsed();
            }
            self.samples_ns
                .push(sample.as_nanos() as f64 / per_sample as f64);
        }
    }
}

fn run_one(name: &str, mut config: Config, mut f: impl FnMut(&mut Bencher)) {
    if smoke() {
        // CI regression profile: enough iterations to populate the JSON
        // artifact, not enough for publication-grade statistics.
        config = Config {
            warm_up: Duration::from_millis(20),
            measurement: Duration::from_millis(60),
            sample_size: 5,
        };
    }
    let mut b = Bencher {
        config,
        samples_ns: Vec::new(),
    };
    f(&mut b);
    if b.samples_ns.is_empty() {
        println!("{name:<48} (no measurement)");
        return;
    }
    b.samples_ns.sort_by(|a, x| a.total_cmp(x));
    let n = b.samples_ns.len();
    let min = b.samples_ns[0];
    let median = if n.is_multiple_of(2) {
        (b.samples_ns[n / 2 - 1] + b.samples_ns[n / 2]) / 2.0
    } else {
        b.samples_ns[n / 2]
    };
    let mean = b.samples_ns.iter().sum::<f64>() / n as f64;
    println!(
        "{name:<48} time: [{} {} {}] ({n} samples)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
    );
    registry().lock().unwrap().push(BenchRecord {
        id: name.to_string(),
        min_ns: min,
        median_ns: median,
        mean_ns: mean,
        samples: n,
        ops_per_sec: 1e9 / median.max(f64::MIN_POSITIVE),
    });
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion_main!`; after
/// the groups run, the collected results are exported to
/// `BENCH_<binary>.json` for regression tracking.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::harness::export_json_auto();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_formats() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .sample_size(3);
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &x| b.iter(|| x * x));
        g.finish();
        assert_eq!(fmt_ns(10.0), "10.0 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
    }
}
