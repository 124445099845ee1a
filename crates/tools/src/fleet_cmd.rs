//! The `fleet` subcommands: running one corpus campaign across many
//! `clockmark-serve` worker nodes.
//!
//! Three verbs mirror the single-node `serve`/`campaign` surface:
//!
//! * `fleet serve` turns this process into a worker — an ordinary
//!   detection server with a [`ShardWorker`] fleet service installed,
//!   so it accepts `ShardAssign`/`Heartbeat` frames besides the usual
//!   detect traffic;
//! * `fleet run` is the coordinator: it shards the campaign by
//!   consistent hashing, drives the workers, steals straggler shards,
//!   reassigns the shards of dead workers, and merges everything into a
//!   `report.json` byte-identical to a single-node run;
//! * `fleet status` renders the same one-line live progress `campaign
//!   status` shows, fed by the aggregated `progress.json` the
//!   coordinator publishes.

use crate::campaign_cmd::{render_report, CampaignCreateOptions};
use crate::commands::PatternSpec;
use crate::serve_cmd::ServeOptions;
use crate::ToolError;
use clockmark::Campaign;
use clockmark_fleet::{run_fleet, FleetConfig, ShardWorker};
use clockmark_serve::Server;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Coordinator tuning for `fleet run`, alongside the spec-shaping
/// [`CampaignCreateOptions`] shared with `campaign run`.
#[derive(Debug, Clone, Default)]
pub struct FleetRunOptions {
    /// Worker addresses (`host:port`).
    pub workers: Vec<String>,
    /// Shard count (0 = `4 × workers`).
    pub shards: u64,
    /// Per-shard worker thread count (0 = worker default).
    pub threads: u32,
    /// Heartbeat polling interval in milliseconds (0 = default).
    pub heartbeat_ms: u64,
    /// Consecutive missed heartbeats declaring a worker dead (0 =
    /// default).
    pub heartbeat_misses: u32,
    /// Cap jobs per shard assignment (0 = run shards to completion);
    /// interrupted shards are requeued, so the fleet still drains.
    pub max_jobs_per_assign: u64,
}

impl FleetRunOptions {
    fn config(&self, dir: &Path) -> FleetConfig {
        let mut config = FleetConfig::new(dir, self.workers.clone());
        config.shards = self.shards;
        config.worker_threads = self.threads;
        if self.heartbeat_ms > 0 {
            config.heartbeat_interval = Duration::from_millis(self.heartbeat_ms);
        }
        if self.heartbeat_misses > 0 {
            config.heartbeat_misses = self.heartbeat_misses;
        }
        config.max_jobs_per_assign = self.max_jobs_per_assign;
        config
    }
}

/// Parses the `--workers host:port,host:port,…` list.
///
/// # Errors
///
/// Returns [`ToolError::Usage`] when the list is empty or an entry has
/// no port separator.
pub fn parse_worker_list(text: &str) -> Result<Vec<String>, ToolError> {
    let workers: Vec<String> = text
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(str::to_owned)
        .collect();
    if workers.is_empty() {
        return Err(ToolError::Usage("--workers lists no addresses".to_owned()));
    }
    for worker in &workers {
        if !worker.contains(':') {
            return Err(ToolError::Usage(format!(
                "--workers: `{worker}` is not host:port"
            )));
        }
    }
    Ok(workers)
}

/// `fleet serve`: runs a worker node in the foreground until a
/// `Shutdown` frame drains it.
///
/// # Errors
///
/// Returns bind failures.
pub fn cmd_fleet_serve(options: &ServeOptions, threads: usize) -> Result<String, ToolError> {
    let handle = Server::new()
        .with_fleet(Arc::new(ShardWorker::new().with_threads(threads)))
        .with_limits(options.limits)
        .bind(options.addr.as_str())?;
    println!("listening on {}", handle.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let status = handle.wait();
    Ok(format!(
        "drained: served {} requests, rejected {} connections\n",
        status.served, status.rejected
    ))
}

/// `fleet run`: coordinates the campaign at `dir` across the workers,
/// creating it on first contact and resuming it otherwise.
///
/// # Errors
///
/// Returns spec/corpus failures, and [`ToolError::Fleet`] when every
/// worker is lost before the campaign drains (re-run to resume from the
/// merged state and shard checkpoints).
pub fn cmd_fleet_run(
    dir: &Path,
    corpus_dir: &Path,
    spec: &PatternSpec,
    create: CampaignCreateOptions,
    options: &FleetRunOptions,
) -> Result<String, ToolError> {
    let campaign_spec = create.build_spec(corpus_dir, spec)?;
    let summary = run_fleet(&options.config(dir), campaign_spec)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet {}: {}/{} jobs merged, {} shard(s) over {} worker(s)",
        dir.display(),
        summary.merged_jobs,
        summary.total_jobs,
        summary.shards,
        options.workers.len(),
    );
    let _ = writeln!(
        out,
        "stolen {}, reassigned {}, workers lost {}",
        summary.shards_stolen, summary.shards_reassigned, summary.workers_lost,
    );
    render_report(&mut out, &Campaign::open(dir)?)?;
    Ok(out)
}

/// `fleet status`: reports fleet progress without contacting any worker,
/// from the campaign state plus the coordinator's aggregated
/// `progress.json`.
///
/// # Errors
///
/// Returns store failures (missing or malformed fleet directory).
pub fn cmd_fleet_status(dir: &Path) -> Result<String, ToolError> {
    crate::campaign_cmd::render_status("fleet", dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign_cmd::{
        cmd_campaign_run, cmd_corpus_build, CampaignRunOptions, CorpusBuildOptions,
    };
    use clockmark_serve::{ServeLimits, ServerHandle};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static NEXT: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "clockmark_fleet_cmd_{tag}_{}_{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("mkdir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spawn_worker() -> ServerHandle {
        Server::new()
            .with_fleet(Arc::new(ShardWorker::new().with_threads(1)))
            .with_limits(ServeLimits {
                max_sessions: 16,
                idle_timeout: Duration::from_secs(120),
                ..ServeLimits::default()
            })
            .bind("127.0.0.1:0")
            .expect("bind worker")
    }

    #[test]
    fn worker_lists_parse() {
        assert_eq!(
            parse_worker_list("a:1, b:2").expect("ok"),
            vec!["a:1", "b:2"]
        );
        assert!(parse_worker_list("").is_err());
        assert!(parse_worker_list("no-port").is_err());
    }

    #[test]
    fn fleet_run_matches_campaign_run_and_status_renders() {
        let tmp = TempDir::new("run");
        let corpus_dir = tmp.0.join("corpus");
        cmd_corpus_build(
            &corpus_dir,
            &CorpusBuildOptions {
                cycles: 6_000,
                width: 6,
                unmarked: true,
                ..CorpusBuildOptions::default()
            },
        )
        .expect("builds");
        let spec = PatternSpec::Lfsr { width: 6, seed: 1 };
        let create = CampaignCreateOptions {
            checkpoint_cycles: Some(1_000),
            chunk_cycles: Some(512),
            ..CampaignCreateOptions::default()
        };

        // Single-node reference for the byte-identity contract.
        let reference_dir = tmp.0.join("reference");
        cmd_campaign_run(
            &reference_dir,
            &corpus_dir,
            &spec,
            create.clone(),
            CampaignRunOptions {
                threads: 1,
                ..CampaignRunOptions::default()
            },
        )
        .expect("reference runs");
        let reference = std::fs::read(reference_dir.join("report.json")).expect("reads");

        let worker = spawn_worker();
        let fleet_dir = tmp.0.join("fleet");
        let options = FleetRunOptions {
            workers: vec![worker.local_addr().to_string()],
            shards: 2,
            threads: 1,
            heartbeat_ms: 100,
            ..FleetRunOptions::default()
        };
        let report =
            cmd_fleet_run(&fleet_dir, &corpus_dir, &spec, create, &options).expect("fleet runs");
        assert!(report.contains("2/2 jobs merged"), "{report}");
        assert!(report.contains("workers lost 0"), "{report}");
        assert!(report.contains("chip_i_s0001 "), "{report}");

        let merged = std::fs::read(fleet_dir.join("report.json")).expect("reads");
        assert_eq!(merged, reference, "fleet CLI must merge to identical bytes");

        let status = cmd_fleet_status(&fleet_dir).expect("status");
        assert!(status.contains("2/2 jobs done"), "{status}");
        assert!(status.contains("of 2 detected"), "{status}");
        worker.shutdown();
    }
}
