//! End-to-end fleet contract over loopback, all in one process:
//!
//! 1. the merged fleet `report.json` is byte-identical to a single-node
//!    run of the same campaign spec;
//! 2. a worker address that never answers does not sink the fleet —
//!    its shards are reassigned to the survivors;
//! 3. interrupted shard assignments (the straggler/test hook) are
//!    requeued and drained to the same bytes;
//! 4. a sequential spec's shards run its schedule, so the merged report
//!    still matches the single node byte for byte;
//! 5. a coordinator killed mid-append (a torn merged `results.jsonl`
//!    tail) resumes to the same bytes;
//! 6. jobs an earlier run landed in shard directories but never merged
//!    do not count toward a resumed run's throughput.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use clockmark::{Campaign, CampaignDir, CampaignLimits, CampaignSpec};
use clockmark_corpus::{Corpus, TraceHeader};
use clockmark_fleet::{run_fleet, FleetConfig, ShardWorker};
use clockmark_serve::{ServeLimits, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "cm_fleet_e2e_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&path).ok();
        fs::create_dir_all(&path).expect("mkdir");
        TempDir(path)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

fn pattern() -> Vec<bool> {
    use clockmark_seq::{Lfsr, SequenceGenerator};
    let mut lfsr = Lfsr::maximal(6).expect("valid");
    (0..63).map(|_| lfsr.next_bit()).collect()
}

fn trace(pattern: &[bool], n: usize, phase: usize, amp: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let wm = if pattern[(i + phase) % pattern.len()] {
                amp
            } else {
                0.0
            };
            wm + rng.random_range(-2.0..2.0)
        })
        .collect()
}

/// A corpus of `marked` watermarked traces plus one unmarked control,
/// and the campaign spec naming all of them.
fn build_fixture(dir: &Path, pattern: &[bool], marked: usize, cycles: usize) -> CampaignSpec {
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    let mut names = Vec::new();
    for i in 0..marked {
        let name = format!("marked_{i}");
        let w = trace(pattern, cycles, 7 + i, 1.0, 100 + i as u64);
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }
    let w = trace(pattern, cycles, 0, 0.0, 999);
    corpus
        .add("unmarked", TraceHeader::bare(0), &w)
        .expect("adds");
    names.push("unmarked".to_owned());
    let mut spec = CampaignSpec::new(corpus_dir, pattern.to_vec(), names);
    spec.checkpoint_cycles = 1_000;
    spec.chunk_cycles = 256;
    spec
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

fn reference_report(dir: &Path, spec: CampaignSpec) -> Vec<u8> {
    let campaign = Campaign::create(dir.join("reference"), spec)
        .expect("creates")
        .with_threads(1);
    let status = campaign.run(&CampaignLimits::none()).expect("runs");
    assert!(status.is_complete());
    fs::read(dir.join("reference").join("report.json")).expect("reads reference")
}

#[test]
fn fleet_report_is_byte_identical_to_single_node() {
    let dir = TempDir::new("identity");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 5, 3_000);
    let reference = reference_report(&dir.0, spec.clone());

    let workers: Vec<ServerHandle> = (0..2).map(|_| spawn_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();

    let mut config = FleetConfig::new(dir.0.join("fleet"), addrs);
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    let summary = run_fleet(&config, spec).expect("fleet completes");
    assert_eq!(summary.merged_jobs, summary.total_jobs);
    assert_eq!(summary.total_jobs, 6);
    assert!(summary.shards <= 4);
    assert_eq!(summary.workers_lost, 0);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "fleet report.json must be byte-identical to the single-node run"
    );

    // The aggregated progress file is campaign-status compatible and
    // settled at done == total.
    let progress = CampaignDir::new(dir.0.join("fleet"))
        .read_progress()
        .expect("fleet progress.json decodes");
    assert_eq!(progress.done, 6);
    assert_eq!(progress.total, 6);

    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn a_dead_worker_address_reassigns_its_shards() {
    let dir = TempDir::new("deadworker");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 3, 2_000);
    let reference = reference_report(&dir.0, spec.clone());

    let live = spawn_worker();
    // A listener that never speaks CMRPC1: connects succeed, the
    // handshake times out, and the coordinator must bury the address.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").expect("bind mute");
    let mute_addr = mute.local_addr().expect("addr").to_string();

    let mut config = FleetConfig::new(
        dir.0.join("fleet"),
        vec![live.local_addr().to_string(), mute_addr],
    );
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    config.heartbeat_misses = 2;
    let summary = run_fleet(&config, spec).expect("fleet completes on the survivor");
    assert_eq!(summary.merged_jobs, summary.total_jobs);
    assert_eq!(summary.workers_lost, 1);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(merged, reference, "report bytes survive a dead worker");
    live.shutdown();
    drop(mute);
}

#[test]
fn interrupted_assignments_drain_to_the_same_bytes() {
    let dir = TempDir::new("interrupt");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 3, 2_000);
    let reference = reference_report(&dir.0, spec.clone());

    let worker = spawn_worker();
    let mut config = FleetConfig::new(dir.0.join("fleet"), vec![worker.local_addr().to_string()]);
    config.shards = 2;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    // Every assignment lands at most one job and interrupts mid-trace:
    // shards cycle through the queue with live checkpoints many times
    // before draining.
    config.max_jobs_per_assign = 1;
    config.interrupt_after_cycles = 700;
    let summary = run_fleet(&config, spec).expect("fleet completes");
    assert_eq!(summary.merged_jobs, summary.total_jobs);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "checkpoint-interrupted shards still merge to identical bytes"
    );
    worker.shutdown();
}

#[test]
fn sequential_fleet_report_is_byte_identical_to_single_node() {
    let dir = TempDir::new("sequential");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 5, 30_000)
        .with_sequential(clockmark_cpa::SequentialOptions::every(1_000));
    let reference = reference_report(&dir.0, spec.clone());
    // The schedule must bite, or this test would not tell a sequential
    // shard from a fixed-budget one.
    let text = String::from_utf8(reference.clone()).expect("utf-8 report");
    assert!(
        !text.contains("\"cycles\":30000,\"detected\":true"),
        "every marked job stops early: {text}"
    );

    let workers: Vec<ServerHandle> = (0..2).map(|_| spawn_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let mut config = FleetConfig::new(dir.0.join("fleet"), addrs);
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    let summary = run_fleet(&config, spec).expect("fleet completes");
    assert_eq!(summary.merged_jobs, 6);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "sequential fleet report.json must be byte-identical to the single-node run"
    );
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn a_torn_merged_results_tail_resumes_byte_identically() {
    let dir = TempDir::new("torn");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 5, 3_000);
    let reference = reference_report(&dir.0, spec.clone());

    let worker = spawn_worker();
    let mut config = FleetConfig::new(dir.0.join("fleet"), vec![worker.local_addr().to_string()]);
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    run_fleet(&config, spec.clone()).expect("fleet completes");

    // What a coordinator killed mid-append leaves: the last merged line
    // cut short, no report.
    let results = config.dir.join("results.jsonl");
    let text = fs::read_to_string(&results).expect("reads merged results");
    fs::write(&results, &text[..text.len() - 20]).expect("tears the tail");
    fs::remove_file(config.dir.join("report.json")).expect("removes the report");

    let summary = run_fleet(&config, spec).expect("resumed fleet completes");
    assert_eq!(summary.merged_jobs, 6);
    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "a torn merged tail must resume to the single-node bytes"
    );

    // The resumed run re-merged one job; the five an earlier run merged
    // must not inflate its throughput.
    let progress = CampaignDir::new(&config.dir)
        .read_progress()
        .expect("fleet progress.json decodes");
    assert_eq!((progress.done, progress.total), (6, 6));
    let run_jobs = progress.jobs_per_sec * progress.elapsed_ms as f64 / 1e3;
    assert!(
        run_jobs <= 1.0 + 1e-9,
        "jobs/s counts only this run's landings: {progress:?}"
    );
    worker.shutdown();
}

#[test]
fn a_resumed_fleet_does_not_count_unmerged_shard_jobs_as_its_own() {
    let dir = TempDir::new("unmerged");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 5, 3_000);

    let worker = spawn_worker();
    let mut config = FleetConfig::new(dir.0.join("fleet"), vec![worker.local_addr().to_string()]);
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    run_fleet(&config, spec.clone()).expect("fleet completes");

    // What a coordinator killed before merging leaves: every job landed
    // in its shard directory, nothing merged.
    fs::remove_file(config.dir.join("results.jsonl")).expect("removes merged results");
    fs::remove_file(config.dir.join("report.json")).expect("removes the report");

    let summary = run_fleet(&config, spec).expect("resumed fleet completes");
    assert_eq!(summary.merged_jobs, 6);
    let progress = CampaignDir::new(&config.dir)
        .read_progress()
        .expect("fleet progress.json decodes");
    assert_eq!((progress.done, progress.total), (6, 6));
    let run_jobs = progress.jobs_per_sec * progress.elapsed_ms as f64 / 1e3;
    assert!(
        run_jobs < 0.5,
        "the shards landed every job before this run: {progress:?}"
    );
    worker.shutdown();
}
