//! `stem-e2e run [--workload W|all] [--seed S] [--seconds N] [--trace [0|1]]
//! [--repeat N] [--out PATH]`
//!
//! One workload runs in this process and prints its report, then its
//! result line (the last line of standard output). `--workload all` and
//! `--repeat` run each workload in a child process of its own, so set-up
//! time and peak memory stay per workload. `--repeat N` runs two sets of
//! N runs per workload, taken one after the other, and prints each
//! end-to-end metric's median and quartiles per set and whether the sets
//! agree within the bounds in `BENCHMARK.json` (an A/A check).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use stem_e2e::json::{quote, Json};
use stem_e2e::run::{default_out_dir, run, RunConfig, END_TO_END, PER_LAYER};
use stem_e2e::stats::Summary;
use stem_e2e::workload::Workload;

const USAGE: &str = "usage: stem-e2e run [--workload NAME|all] [--seed S] [--seconds N] \
                     [--trace [0|1]] [--repeat N] [--out PATH]\n\
                     workloads: interactive, fanout_replay, durable_commit, edit_mix";

struct Cli {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    if it.next().map(String::as_str) != Some("run") {
        return Err("expected the `run` subcommand".into());
    }
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        all: true,
        seed: 1,
        seconds: 20,
        trace: false,
        repeat: None,
        out: None,
    };
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("{flag}: not a number: {s}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                if name != "all" {
                    let w =
                        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                    cli.workloads = vec![w];
                    cli.all = false;
                }
            }
            "--seed" => cli.seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => {
                cli.seconds = number(value(&mut it, arg)?, arg)?;
                if cli.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                cli.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    cli.trace = v == "1";
                }
            }
            "--repeat" => {
                let n = number(value(&mut it, arg)?, arg)?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                cli.repeat = Some(n as usize);
            }
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = default_out_dir();
    let label = if cli.all {
        "all"
    } else {
        cli.workloads[0].name()
    };
    let out = cli.out.clone().unwrap_or_else(|| {
        out_dir.join(format!(
            "results-{label}{}.json",
            if cli.trace { "-trace" } else { "" }
        ))
    });
    if cli.all || cli.repeat.is_some() {
        return orchestrate(&cli, &out);
    }

    let cfg = RunConfig::new(cli.workloads[0], cli.seed, cli.seconds, cli.trace, out_dir);
    match run(&cfg) {
        Ok(res) => {
            print!("{}", res.report());
            let line = res.json();
            write_runs(&out, &[(res.workload, res.seed, "-", line.clone())]);
            println!("{line}");
            if res.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stem-e2e: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// One child run's result line, parsed.
struct ChildRun {
    workload: Workload,
    seed: u64,
    set: &'static str,
    line: String,
    json: Json,
}

fn run_child(cli: &Cli, w: Workload, seed: u64) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    if let Some((_, report)) = lines.split_last() {
        for l in report {
            println!("{l}");
        }
    }
    let _ = std::io::stdout().flush();
    let line = lines.last().copied().unwrap_or_default().to_string();
    let json = Json::parse(&line)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", w.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}",
            w.name(),
            out.status
        ));
    }
    Ok((line, json))
}

fn orchestrate(cli: &Cli, out: &Path) -> ExitCode {
    let sets: &[&'static str] = if cli.repeat.is_some() {
        &["A", "B"]
    } else {
        &["-"]
    };
    let n = cli.repeat.unwrap_or(1);
    let mut runs = Vec::new();
    let mut ok = true;
    for (k, &set) in sets.iter().enumerate() {
        for i in 0..n {
            for &w in &cli.workloads {
                let seed = cli.seed + (k * n + i) as u64;
                match run_child(cli, w, seed) {
                    Ok((line, json)) => {
                        ok &= json.get("correct") == Some(&Json::Bool(true));
                        runs.push(ChildRun {
                            workload: w,
                            seed,
                            set,
                            line,
                            json,
                        });
                    }
                    Err(msg) => {
                        eprintln!("stem-e2e: {msg}");
                        ok = false;
                    }
                }
            }
        }
    }
    let list = if cli.trace { PER_LAYER } else { END_TO_END };
    let value = |r: &ChildRun, m: &str| r.json.get("metrics")?.get(m)?.get("value")?.num();

    // Median and quartiles per workload × metric × set.
    let bounds = read_bounds();
    let mut agree = true;
    println!("== summary over runs ==");
    for &w in &cli.workloads {
        for &(metric, unit) in list {
            let mut cells = Vec::new();
            let mut medians = Vec::new();
            for &set in sets {
                let vals = runs
                    .iter()
                    .filter(|r| r.workload == w && r.set == set)
                    .map(|r| value(r, metric));
                match Summary::of(vals) {
                    Some(s) => {
                        cells.push(format!(
                            "{set}: {:.4} [q1 {:.4}, q3 {:.4}; n={}]",
                            s.median, s.q1, s.q3, s.n
                        ));
                        medians.push(s.median);
                    }
                    None => cells.push(format!("{set}: absent")),
                }
            }
            let mut verdict = String::new();
            if let ([a, b], Some(&bound)) = (&medians[..], bounds.get(metric)) {
                let diff = if *a == 0.0 { 0.0 } else { (b - a) / a.abs() };
                let fits = diff.abs() <= bound;
                agree &= fits;
                verdict = format!(
                    "  diff {:+.2}% (bound {:.0}%) {}",
                    diff * 100.0,
                    bound * 100.0,
                    if fits { "agree" } else { "DISAGREE" }
                );
            }
            println!(
                "  {:<15} {metric:<34} {unit:<9} {}{verdict}",
                w.name(),
                cells.join("  ")
            );
        }
    }
    if cli.repeat.is_some() && !cli.trace {
        println!(
            "A/A: {}",
            if bounds.is_empty() {
                "no bounds found in BENCHMARK.json".to_string()
            } else if agree {
                "every metric agrees within its bound".to_string()
            } else {
                "some metrics disagree beyond their bounds".to_string()
            }
        );
    }

    let records: Vec<(Workload, u64, &str, String)> = runs
        .iter()
        .map(|r| (r.workload, r.seed, r.set, r.line.clone()))
        .collect();
    write_runs(out, &records);

    // The result line: every run's metrics, keyed `<workload>.<metric>`,
    // as the median over runs.
    let attempted: f64 = runs
        .iter()
        .filter_map(|r| r.json.get("attempted")?.num())
        .sum();
    let failed: f64 = runs
        .iter()
        .filter_map(|r| r.json.get("failed")?.num())
        .sum();
    let mut metrics = BTreeMap::new();
    for &w in &cli.workloads {
        for &(metric, unit) in list {
            let vals = runs
                .iter()
                .filter(|r| r.workload == w)
                .map(|r| value(r, metric));
            if let Some(s) = Summary::of(vals) {
                metrics.insert(
                    format!("{}.{metric}", w.name()),
                    format!("{{\"value\": {}, \"unit\": {}}}", s.median, quote(unit)),
                );
            }
        }
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1.0),
        failed,
        metrics.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end metric bounds from the workspace's `BENCHMARK.json`.
fn read_bounds() -> BTreeMap<String, f64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect()
}

/// Writes every run's result line to `path` as one JSON document.
fn write_runs(path: &Path, runs: &[(Workload, u64, &str, String)]) {
    let body: Vec<String> = runs
        .iter()
        .map(|(w, seed, set, line)| {
            format!(
                "  {{\"workload\": {}, \"seed\": {seed}, \"set\": {}, \"result\": {line}}}",
                quote(w.name()),
                quote(set)
            )
        })
        .collect();
    let doc = format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("stem-e2e: could not write {}: {e}", path.display());
    }
}
