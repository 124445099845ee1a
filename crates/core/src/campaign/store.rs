//! The campaign-directory store, [`CampaignDir`]: every file a campaign
//! directory holds is named, written and read here.

use super::{CampaignError, JobOutcome};
use clockmark_corpus::{replace_file, CorpusError};
use clockmark_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often a running campaign or fleet publishes `progress.json`.
pub const PROGRESS_EVERY: Duration = Duration::from_millis(250);

/// The spec of a campaign, and of every scenario cell and fleet shard.
pub const SPEC_FILE: &str = "campaign.json";
/// The spec of a scenario matrix.
pub const MATRIX_FILE: &str = "scenarios.json";
/// The shard count a fleet coordinator keeps beside its campaign spec.
pub const FLEET_FILE: &str = "fleet.json";
/// The final report, written when the last job lands.
pub const REPORT_FILE: &str = "report.json";

const RESULTS: &str = "results.jsonl";
const PROGRESS: &str = "progress.json";
const CHECKPOINTS: &str = "checkpoints";

/// Landed outcomes, keyed by job index.
pub type Landed = BTreeMap<usize, JobOutcome>;

/// A campaign directory: campaigns, scenario matrices and fleet
/// coordinators keep all their state through one `CampaignDir`.
///
/// ```text
/// campaign/
///   campaign.json        # the spec (scenarios.json for a matrix; a fleet adds fleet.json)
///   results.jsonl        # append-only landed outcomes (write + flush per landing)
///   checkpoints/job_<idx>.ckpt  # binary mid-flight fold snapshots
///   report.json          # final report, written when the last job lands
///   progress.json        # advisory live progress, published off the job path
/// ```
///
/// Whole files are replaced through [`replace_file`], so a kill at any
/// instant leaves either the old or the new file; `results.jsonl` only
/// grows, through [`CampaignDir::open_results`].
#[derive(Debug, Clone)]
pub struct CampaignDir {
    root: PathBuf,
}

impl CampaignDir {
    /// The store rooted at `root` (nothing is touched yet).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CampaignDir { root: root.into() }
    }

    /// The directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether the directory holds the file `name`.
    pub fn holds(&self, name: &str) -> bool {
        self.root.join(name).exists()
    }

    /// Creates the directory with its `subdir` and writes the spec file
    /// `name`. Refuses with an [`AlreadyExists`](std::io::ErrorKind)
    /// [`CampaignError::Io`] when the directory already holds one.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failure.
    pub fn create(&self, name: &str, subdir: &str, spec: &str) -> Result<(), CampaignError> {
        let context = format!("creating {}", self.root.display());
        if self.holds(name) {
            let exists = format!("{name} already exists");
            let exists = std::io::Error::new(std::io::ErrorKind::AlreadyExists, exists);
            return Err(CampaignError::io(context, exists));
        }
        fs::create_dir_all(self.root.join(subdir)).map_err(|e| CampaignError::io(context, e))?;
        self.replace(name, spec)
    }

    /// Replaces the file `name` with `line` and a newline — how every
    /// spec, report and progress file is written.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failure.
    pub fn replace(&self, name: &str, line: &str) -> Result<(), CampaignError> {
        self.replace_bytes(&self.root.join(name), format!("{line}\n").as_bytes())
    }

    /// Reads the file `name`, without surrounding whitespace.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] when the file cannot be read.
    pub fn read(&self, name: &str) -> Result<String, CampaignError> {
        let path = self.root.join(name);
        let text = fs::read_to_string(&path)
            .map_err(|e| CampaignError::io(format!("reading {}", path.display()), e))?;
        Ok(text.trim().to_owned())
    }

    fn replace_bytes(&self, path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
        replace_file(path, |file| {
            file.write_all(bytes)
                .map_err(|e| CorpusError::io(format!("writing {}", path.display()), e))
        })
        .map_err(|e| match e {
            CorpusError::Io { context, source } => CampaignError::Io { context, source },
            other => CampaignError::Corpus(other),
        })
    }

    fn checkpoint_path(&self, index: usize) -> PathBuf {
        self.root
            .join(CHECKPOINTS)
            .join(format!("job_{index}.ckpt"))
    }

    /// Replaces job `index`'s checkpoint.
    pub(crate) fn write_checkpoint(&self, index: usize, bytes: &[u8]) -> Result<(), CampaignError> {
        self.replace_bytes(&self.checkpoint_path(index), bytes)
    }

    /// Job `index`'s checkpoint bytes, or `None` when it has none.
    pub(crate) fn read_checkpoint(&self, index: usize) -> Option<Vec<u8>> {
        fs::read(self.checkpoint_path(index)).ok()
    }

    pub(crate) fn has_checkpoint(&self, index: usize) -> bool {
        self.checkpoint_path(index).exists()
    }

    /// Drops job `index`'s checkpoint, if any.
    pub(crate) fn remove_checkpoint(&self, index: usize) {
        let _ = fs::remove_file(self.checkpoint_path(index));
    }

    /// Reads `results.jsonl` of a campaign with `jobs` jobs: the landed
    /// outcomes by job index, plus whether a torn tail was skipped.
    ///
    /// A torn *final* line — what a kill mid-append leaves — is tolerated
    /// (that job reruns); malformed lines anywhere else are corruption and
    /// fail loudly. Duplicate indices keep the last occurrence, so a crash
    /// between "append result" and "delete checkpoint" (the job reruns and
    /// re-appends) stays harmless.
    pub(crate) fn read_results(&self, jobs: usize) -> Result<(Landed, bool), CampaignError> {
        let path = self.root.join(RESULTS);
        let mut map = BTreeMap::new();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((map, false)),
            Err(e) => return Err(CampaignError::io(format!("reading {}", path.display()), e)),
        };
        let mut torn = false;
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            match JobOutcome::decode(line) {
                Ok(outcome) => {
                    if outcome.index >= jobs {
                        return Err(CampaignError::spec(format!(
                            "results line {} names job {} but the campaign has {jobs} jobs",
                            i + 1,
                            outcome.index,
                        )));
                    }
                    map.insert(outcome.index, outcome);
                }
                Err(_) if i + 1 == lines.len() => {
                    torn = true;
                    clockmark_obs::counter_add("campaign.torn_results_lines", 1);
                }
                Err(e) => return Err(e),
            }
        }
        Ok((map, torn))
    }

    /// Opens `results.jsonl` for appending, after making it safe to
    /// append to: a torn tail is rewritten away (so a fresh line never
    /// concatenates onto the fragment) and the stale checkpoints of
    /// landed jobs — left by a crash between "append result" and "delete
    /// checkpoint" — are swept. Returns the log and the landed outcomes.
    ///
    /// # Errors
    ///
    /// Returns the errors of reading, repairing or opening the log.
    pub fn open_results(&self, jobs: usize) -> Result<(ResultsLog, Landed), CampaignError> {
        let path = self.root.join(RESULTS);
        let (landed, torn) = self.read_results(jobs)?;
        if torn {
            let mut text = String::new();
            for outcome in landed.values() {
                text.push_str(&outcome.encode());
                text.push('\n');
            }
            self.replace_bytes(&path, text.as_bytes())?;
        }
        for index in landed.keys() {
            self.remove_checkpoint(*index);
        }
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| CampaignError::io(format!("opening {}", path.display()), e))?;
        Ok((ResultsLog(Mutex::new(file)), landed))
    }

    /// Replaces `progress.json`. Best-effort: progress is advisory, and
    /// a failed publish never fails the run.
    pub fn publish_progress(&self, progress: &CampaignProgress) {
        let _ = self.replace(PROGRESS, &progress.encode());
    }

    /// The last published progress snapshot, or `None` when there is
    /// none (or it is unreadable or malformed — progress is best-effort
    /// telemetry, never load-bearing state).
    pub fn read_progress(&self) -> Option<CampaignProgress> {
        CampaignProgress::decode(&self.read(PROGRESS).ok()?)
    }
}

/// The append handle on a campaign's `results.jsonl`, shared by the
/// threads that land jobs.
#[derive(Debug)]
pub struct ResultsLog(Mutex<File>);

#[doc(hidden)]
impl From<File> for ResultsLog {
    /// Wraps a handle already positioned for appending; how tests inject
    /// a handle whose appends fail. Use [`CampaignDir::open_results`].
    fn from(file: File) -> Self {
        ResultsLog(Mutex::new(file))
    }
}

impl ResultsLog {
    /// Appends complete `\n`-terminated lines and flushes them. The jobs
    /// they record count as landed only once this returns `Ok`.
    ///
    /// # Errors
    ///
    /// Returns the write or flush error.
    pub fn append(&self, lines: &str) -> std::io::Result<()> {
        let mut file = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(lines.as_bytes())?;
        file.flush()
    }
}

/// A live-progress snapshot of a running campaign or fleet, as published
/// to `progress.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignProgress {
    /// Jobs landed so far (including before this run started).
    pub done: u64,
    /// Total jobs in the campaign.
    pub total: u64,
    /// Trace cycles ingested by the current run.
    pub cycles: u64,
    /// Ingest throughput of the current run, in cycles per second.
    pub cycles_per_sec: f64,
    /// Completion throughput of the current run, in jobs per second:
    /// only jobs this run landed count.
    pub jobs_per_sec: f64,
    /// Estimated seconds until the remaining jobs land at the current
    /// throughput (zero until at least one job of this run has landed).
    pub eta_seconds: f64,
    /// Milliseconds the publishing run had been underway.
    pub elapsed_ms: u64,
}

impl CampaignProgress {
    /// The snapshot of a run that started with `base` of `total` jobs
    /// landed and, `elapsed` later, has `done` landed and has ingested
    /// `cycles` — the one throughput and ETA formula.
    pub fn measure(total: u64, base: u64, done: u64, cycles: u64, elapsed: Duration) -> Self {
        let secs = elapsed.as_secs_f64();
        let per_sec = |n: u64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
        let jobs_per_sec = per_sec(done.saturating_sub(base));
        CampaignProgress {
            done,
            total,
            cycles,
            cycles_per_sec: per_sec(cycles),
            jobs_per_sec,
            eta_seconds: if jobs_per_sec > 0.0 {
                total.saturating_sub(done) as f64 / jobs_per_sec
            } else {
                0.0
            },
            elapsed_ms: elapsed.as_millis() as u64,
        }
    }

    /// Encodes the snapshot as one JSON object.
    pub fn encode(&self) -> String {
        format!(
            "{{\"done\":{},\"total\":{},\"cycles\":{},\"cycles_per_sec\":{},\
             \"jobs_per_sec\":{},\"eta_seconds\":{},\"elapsed_ms\":{}}}",
            self.done,
            self.total,
            self.cycles,
            self.cycles_per_sec,
            self.jobs_per_sec,
            self.eta_seconds,
            self.elapsed_ms
        )
    }

    /// Decodes a snapshot; `None` on any malformation (a torn write is
    /// indistinguishable from garbage, and both just mean "no live
    /// progress to show").
    pub fn decode(text: &str) -> Option<Self> {
        let v = json::parse(text.trim()).ok()?;
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(CampaignProgress {
            done: num("done")? as u64,
            total: num("total")? as u64,
            cycles: num("cycles")? as u64,
            cycles_per_sec: num("cycles_per_sec")?,
            jobs_per_sec: num("jobs_per_sec")?,
            eta_seconds: num("eta_seconds")?,
            elapsed_ms: num("elapsed_ms")? as u64,
        })
    }
}

/// One [`Campaign::run`](super::Campaign::run)'s live counters: job
/// threads only count, and [`publish_while`](Self::publish_while) owns
/// the one thread that publishes.
pub(crate) struct ProgressBoard {
    total: u64,
    base: u64,
    done: AtomicU64,
    cycles: AtomicU64,
    started: Instant,
}

impl ProgressBoard {
    pub(crate) fn new(total: u64, base: u64) -> Self {
        ProgressBoard {
            total,
            base,
            done: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    pub(crate) fn note_cycles(&self, n: u64) {
        self.cycles.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_landed(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `work` while a scoped thread publishes gauges and
    /// `progress.json`: at start, every [`PROGRESS_EVERY`], and once more
    /// when `work` returns or unwinds. Dropping `running` wakes the
    /// publisher then, so the run never waits out a tick.
    pub(crate) fn publish_while<R>(&self, store: &CampaignDir, work: impl FnOnce() -> R) -> R {
        let (running, ticks) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                self.publish(store);
                while ticks.recv_timeout(PROGRESS_EVERY) == Err(RecvTimeoutError::Timeout) {
                    self.publish(store);
                }
                self.publish(store);
            });
            let _running = running;
            work()
        })
    }

    fn publish(&self, store: &CampaignDir) {
        let p = CampaignProgress::measure(
            self.total,
            self.base,
            self.base + self.done.load(Ordering::Relaxed),
            self.cycles.load(Ordering::Relaxed),
            self.started.elapsed(),
        );
        clockmark_obs::gauge_set("campaign.jobs_done", p.done as f64);
        clockmark_obs::gauge_set("campaign.jobs_total", p.total as f64);
        clockmark_obs::gauge_set("campaign.cycles_per_sec", p.cycles_per_sec);
        clockmark_obs::gauge_set("campaign.eta_seconds", p.eta_seconds);
        clockmark_obs::gauge_set("campaign.jobs_per_sec", p.jobs_per_sec);
        store.publish_progress(&p);
    }
}
