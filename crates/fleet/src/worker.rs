//! The worker side of a fleet: a [`FleetService`] that runs shard
//! campaigns on the local node.
//!
//! A [`ShardWorker`] turns every `ShardAssign` frame into an ordinary
//! [`Campaign`] over the shard directory named in the spec. Nothing
//! about the campaign machinery is fleet-specific: checkpoints,
//! torn-tail recovery and byte-stable outcomes all come from the
//! existing single-node code path, which is precisely why a shard can
//! hop between workers mid-flight — the next node just `open`s the same
//! directory and resumes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use clockmark::{Campaign, CampaignDir, CampaignError, CampaignLimits, CampaignSpec};
use clockmark_serve::{ErrorCode, FleetService, ShardOutcome, ShardSpec, WorkerHeartbeat};

/// What the worker is currently running, published to the heartbeat.
#[derive(Debug, Clone)]
struct InFlight {
    shard_id: u64,
    store: CampaignDir,
    jobs_total: u64,
}

/// A [`FleetService`] that executes shards as local campaigns.
///
/// Install one into a server to make the node a fleet worker:
///
/// ```no_run
/// # fn main() -> Result<(), clockmark_serve::ServeError> {
/// use std::sync::Arc;
/// let handle = clockmark_serve::Server::new()
///     .with_fleet(Arc::new(clockmark_fleet::ShardWorker::new()))
///     .bind("0.0.0.0:4780")?;
/// # drop(handle);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ShardWorker {
    /// Worker-thread default for shards that do not pin `threads`.
    threads: usize,
    in_flight: Mutex<Option<InFlight>>,
    shards_done: AtomicU64,
}

impl ShardWorker {
    /// A worker that lets each shard spec (or the campaign default)
    /// choose its thread count.
    pub fn new() -> Self {
        ShardWorker::default()
    }

    /// Overrides the default per-shard thread count (0 = campaign
    /// default); a spec with a non-zero `threads` still wins.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn run_shard(
        &self,
        shard: &ShardSpec,
        spec: CampaignSpec,
    ) -> Result<ShardOutcome, CampaignError> {
        // Create the shard campaign on first contact, open (resume) it on
        // every later one — including the reassignment of a shard some
        // other worker died inside.
        let campaign = Campaign::open_or_create(&shard.dir, spec)?;
        let threads = if shard.threads > 0 {
            shard.threads as usize
        } else {
            self.threads
        };
        let campaign = if threads > 0 {
            campaign.with_threads(threads)
        } else {
            campaign
        };

        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = Some(InFlight {
            shard_id: shard.shard_id,
            store: campaign.store().clone(),
            jobs_total: shard.indices.len() as u64,
        });

        let limits = CampaignLimits {
            max_jobs: (shard.max_jobs > 0).then_some(shard.max_jobs as usize),
            interrupt_job_after_cycles: (shard.interrupt_after_cycles > 0)
                .then_some(shard.interrupt_after_cycles),
        };
        let run = campaign.run(&limits);
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let status = run?;

        // Remap shard-local job indices to the campaign-global ones the
        // coordinator merges by; sort so the payload is deterministic.
        let mut outcomes = campaign.completed_outcomes()?;
        for outcome in &mut outcomes {
            outcome.index = shard.indices[outcome.index] as usize;
        }
        outcomes.sort_by_key(|o| o.index);
        let mut text = String::with_capacity(outcomes.len() * 160);
        for outcome in &outcomes {
            text.push_str(&outcome.encode());
            text.push('\n');
        }

        if status.is_complete() {
            self.shards_done.fetch_add(1, Ordering::Relaxed);
            clockmark_obs::counter_add("fleet.worker_shards_done", 1);
        }
        clockmark_obs::counter_add("fleet.worker_jobs_done", outcomes.len() as u64);
        Ok(ShardOutcome {
            shard_id: shard.shard_id,
            complete: status.is_complete(),
            outcomes: text,
        })
    }
}

impl FleetService for ShardWorker {
    fn assign(&self, shard: &ShardSpec) -> Result<ShardOutcome, (ErrorCode, String)> {
        let malformed = |message: String| {
            (
                ErrorCode::Malformed,
                format!("shard {}: {message}", shard.shard_id),
            )
        };
        let spec = CampaignSpec::decode(&shard.spec).map_err(|e| malformed(e.to_string()))?;
        // `decode` fills what a legacy `campaign.json` omits — above all
        // the kernel, from the pattern heuristic. A shard must carry the
        // coordinator's exact encoding instead: a kernel each worker
        // resolved itself could break byte identity in the last ulp.
        if spec.encode() != shard.spec {
            return Err(malformed(
                "spec must be canonically encoded, with its spectrum kernel pinned".to_owned(),
            ));
        }
        if spec.traces.is_empty() {
            return Err(malformed("carries no jobs".to_owned()));
        }
        if shard.indices.len() != spec.traces.len() {
            return Err(malformed(format!(
                "{} job indices for {} traces",
                shard.indices.len(),
                spec.traces.len()
            )));
        }
        self.run_shard(shard, spec).map_err(|e| {
            let code = match &e {
                CampaignError::Corpus(_) => ErrorCode::Corpus,
                CampaignError::Cpa(_) => ErrorCode::Cpa,
                _ => ErrorCode::Internal,
            };
            (code, format!("shard {}: {e}", shard.shard_id))
        })
    }

    fn heartbeat(&self) -> WorkerHeartbeat {
        let shards_done = self.shards_done.load(Ordering::Relaxed);
        let in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        match in_flight {
            None => WorkerHeartbeat {
                busy: false,
                shard_id: u64::MAX,
                shards_done,
                ..WorkerHeartbeat::default()
            },
            Some(run) => {
                // The shard campaign publishes progress.json while it
                // runs; a missing file just means "no progress yet".
                let progress = run.store.read_progress().unwrap_or_default();
                WorkerHeartbeat {
                    busy: true,
                    shard_id: run.shard_id,
                    jobs_done: progress.done,
                    jobs_total: run.jobs_total,
                    cycles: progress.cycles,
                    cycles_per_sec: progress.cycles_per_sec,
                    shards_done,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_worker_heartbeats_idle() {
        let worker = ShardWorker::new();
        let hb = worker.heartbeat();
        assert!(!hb.busy);
        assert_eq!(hb.shard_id, u64::MAX);
        assert_eq!(hb.shards_done, 0);
    }

    #[test]
    fn an_empty_shard_is_rejected_as_malformed() {
        let worker = ShardWorker::new();
        let spec = ShardSpec {
            shard_id: 9,
            dir: "/nonexistent".to_owned(),
            spec: CampaignSpec::new("/nonexistent", vec![true, false], Vec::new()).encode(),
            threads: 0,
            max_jobs: 0,
            interrupt_after_cycles: 0,
            indices: Vec::new(),
        };
        let (code, message) = worker.assign(&spec).expect_err("no jobs");
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("shard 9"), "{message}");
    }

    #[test]
    fn a_shard_spec_without_a_pinned_kernel_is_malformed() {
        // A shard may not leave the kernel to the worker's heuristic, or
        // byte identity across workers would depend on each node.
        let worker = ShardWorker::new();
        let mut spec = CampaignSpec::new("/nonexistent", vec![true, false], vec!["t".to_owned()]);
        spec.algo = clockmark_cpa::CpaAlgo::Fft;
        let pinned = spec.encode();
        let unpinned = pinned.replace(",\"algo\":\"fft\"", "");
        assert_ne!(unpinned, pinned);
        let shard = |spec: String, indices: Vec<u64>| ShardSpec {
            shard_id: 4,
            dir: "/nonexistent".to_owned(),
            spec,
            threads: 0,
            max_jobs: 0,
            interrupt_after_cycles: 0,
            indices,
        };
        let (code, message) = worker
            .assign(&shard(unpinned, vec![0]))
            .expect_err("no kernel");
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("spectrum kernel"), "{message}");
        // One campaign-global index per trace, no more and no fewer.
        let (code, message) = worker
            .assign(&shard(pinned, vec![0, 1]))
            .expect_err("index count");
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("shard 4"), "{message}");
    }
}
