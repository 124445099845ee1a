//! clockbench — the clockmark benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path clockbench/Cargo.toml -- \
//!     --workload paper_pipeline --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `paper_pipeline`, `campaign_corpus`, `serve_detect`, or
//! `all` (the three in turn). `--trace 0` measures the end-to-end
//! metrics with observability off; `--trace 1` is the separate traced
//! run that reports the per-layer breakdown. Every run prints a host
//! fingerprint, human-readable metric lines, and as its last stdout line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Metric names, units and meanings are in `clockbench/METRICS.md`.

mod campaign;
mod host;
mod layers;
mod paper;
mod serve;
mod stats;
mod synth;

use layers::{Ledger, Run};
use stats::{median, result_line, tail, Metric};
use std::error::Error;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Environment variables that would change what the program does or
/// turn tracing on behind the benchmark's back.
const PINNED_ENV: [&str; 6] = [
    "CLOCKMARK_METRICS",
    "CLOCKMARK_LOG",
    "CLOCKMARK_CPA_ALGO",
    "CLOCKMARK_THREADS",
    "CLOCKMARK_NO_MMAP",
    "CLOCKMARK_SERVE_BLOCKING",
];

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper_pipeline", "campaign_corpus", "serve_detect"];

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Complete set-ups in this run.
    pub setup_reps: usize,
    /// This workload's scratch directory under `.bench_work/` in the
    /// working directory, removed afterwards.
    pub work: PathBuf,
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => traced = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok((
        workload,
        Ctx {
            seed,
            seconds: Duration::from_secs_f64(seconds),
            traced,
            // A traced run reports no set-up time, so it sets up once.
            setup_reps: if traced { 1 } else { SETUP_REPS },
            work: PathBuf::new(),
        },
    ))
}

/// The end-to-end metrics, in `BENCHMARK.json` order, plus the issue's
/// workload-specific aliases printed beside them.
fn end_to_end(workload: &str, run: &Run, ledger: &Ledger) -> Vec<Metric> {
    let e = &run.e2e;
    let p50 = median(&e.latencies_ms);
    let t = tail(&e.latencies_ms);
    let throughput = e.completed as f64 / e.wall_s;
    let rss = host::peak_rss_mib();
    let (lat, rate) = match workload {
        "paper_pipeline" => ("experiment", "experiments/s"),
        "campaign_corpus" => ("campaign_round", "campaign_jobs/s"),
        _ => ("serve", "req/s"),
    };
    println!(
        "{workload}: setup_s {:.4} s (median of {:.3?}) | {lat}_p50_ms {p50:.3} ms | {lat}_tail_ms {:.3} ms (p{} with {} of {} beyond) | {rate} {throughput:.3} | error_rate {:.6} ({} of {}) | peak_rss_mb {rss:.1} MiB",
        median(&e.setup_s),
        e.setup_s,
        t.value,
        t.pct,
        t.beyond,
        t.n,
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted,
    );
    let values = [median(&e.setup_s), p50, t.value, throughput, rss];
    layers::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// Runs `workload` untraced in a child process (a recorder, once
/// installed, cannot be removed) for a third of the time and returns its
/// `latency_p50_ms`.
fn untraced_p50_ms(workload: &str, ctx: &Ctx) -> Result<f64, Box<dyn Error>> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &format!("{}", (ctx.seconds / 3).as_secs_f64())])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .last()
        .and_then(|line| line.split("\"latency_p50_ms\": {\"value\": ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok());
    match (out.status.success(), value) {
        (true, Some(v)) => Ok(v),
        _ => Err(format!("untraced reference run failed ({})", out.status).into()),
    }
}

fn run_one(workload: &str, ctx: &Ctx) -> Result<(Ledger, Vec<Metric>), Box<dyn Error>> {
    let reference_p50 = if ctx.traced {
        Some(untraced_p50_ms(workload, ctx)?)
    } else {
        None
    };
    let host = host::fingerprint(&ctx.work.join("host"))?;
    println!("{}", host.line());
    let mut ledger = Ledger::default();
    let run = match workload {
        "paper_pipeline" => paper::run(ctx, &mut ledger)?,
        "campaign_corpus" => campaign::run(ctx, &mut ledger)?,
        _ => serve::run(ctx, &mut ledger)?,
    };
    for note in &run.notes {
        println!("{workload}: {note}");
    }
    let metrics = if ctx.traced {
        let mut layer = run.layers;
        let traced_p50 = median(&run.e2e.latencies_ms);
        let reference = reference_p50.expect("traced runs measure a reference");
        layer.push(Metric::new(
            "obs.overhead_pct",
            (traced_p50 / reference - 1.0) * 100.0,
            "%",
        ));
        layer.push(Metric::new("host.cpu_probe_ms", host.cpu_probe_ms, "ms"));
        layer.push(Metric::new("host.replace_ms", host.replace_ms, "ms"));
        layer.push(Metric::new("host.fsync_ms", host.fsync_ms, "ms"));
        layer.push(Metric::new(
            "host.fresh_rename_ms",
            host.fresh_rename_ms,
            "ms",
        ));
        let layer = layers::complete(layer);
        for m in &layer {
            println!("{workload}: {} {:.6} {}", m.name, m.value, m.unit);
        }
        layer
    } else {
        end_to_end(workload, &run, &ledger)
    };
    Ok((ledger, metrics))
}

fn main() {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("clockbench: {e}");
            std::process::exit(2);
        }
    };
    if ctx.traced {
        // Before any instrumented call: the first one fixes the recorder.
        if let Err(e) = layers::install_recorder() {
            eprintln!("clockbench: {e}");
            std::process::exit(1);
        }
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let root = match std::env::current_dir() {
        Ok(dir) => dir.join(".bench_work"),
        Err(e) => {
            eprintln!("clockbench: {e}");
            std::process::exit(1);
        }
    };
    let mut total = Ledger::default();
    let mut metrics = Vec::new();
    for name in &names {
        let ctx = Ctx {
            work: root.join(format!("{name}-{}", std::process::id())),
            ..ctx.clone()
        };
        let result = run_one(name, &ctx);
        let _ = std::fs::remove_dir_all(&ctx.work);
        // Only succeeds once empty: concurrent runs may share the root.
        let _ = std::fs::remove_dir(&root);
        match result {
            Ok((ledger, m)) => {
                total.attempted += ledger.attempted;
                total.failed += ledger.failed;
                if names.len() == 1 {
                    metrics = m;
                } else {
                    metrics.extend(m.into_iter().map(|m| Metric {
                        name: format!("{name}.{}", m.name),
                        ..m
                    }));
                }
            }
            Err(e) => {
                eprintln!("clockbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", result_line(total.attempted, total.failed, &metrics));
}
