//! Resumable sharded detection campaigns over a trace corpus.
//!
//! A *campaign* answers the fleet-scale question: given a corpus of
//! stored power traces (see [`clockmark_corpus`]), does each one carry
//! the watermark? Jobs — one per trace — are sharded across the same
//! std-thread engine that powers [`ExperimentBatch`](crate::ExperimentBatch),
//! and every job streams its trace through a
//! [`Detector::detect_streaming`] session in disk-sized chunks via
//! [`StreamingDetection::push_chunk`], so a trace is never fully
//! resident.
//!
//! Everything a campaign learns is persisted as it happens, through the
//! one campaign-directory store, [`CampaignDir`]: the spec once at
//! creation, each landed outcome as a flushed `results.jsonl` line,
//! mid-flight fold snapshots as checkpoints, and the final report.
//!
//! Kill the process at any instant — between jobs, mid-trace, even
//! mid-append (the torn last line of `results.jsonl` is tolerated) — and
//! [`Campaign::run`] picks up exactly where it stopped: completed jobs
//! are skipped, checkpointed jobs resume from their snapshot, and because
//! [`StreamingDetection::push_chunk`] performs bit-for-bit the same
//! accumulations as an uninterrupted fold, the final report is
//! **byte-identical** to one produced without the interruption.

use crate::attack::ScenarioSpec;
use crate::batch::parallel_map;
use crate::scenario::run_scenario_detection;
use clockmark_corpus::codec;
use clockmark_corpus::{Corpus, CorpusError, Crc32};
use clockmark_cpa::{
    CpaAlgo, CpaError, DetectOptions, DetectionCriterion, DetectionResult, Detector,
    SequentialOptions, StreamingCpaState, StreamingDetection,
};
use clockmark_obs::json::{self, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use store::ProgressBoard;

mod store;
pub use store::{
    CampaignDir, CampaignProgress, Landed, ResultsLog, FLEET_FILE, MATRIX_FILE, PROGRESS_EVERY,
    REPORT_FILE, SPEC_FILE,
};

/// Magic bytes leading a checkpoint file. Version 2 added the spectrum
/// kernel byte; version-1 checkpoints fail the magic check and are
/// discarded on restore, which is always safe (the job replays from the
/// trace start, bit-identically).
const CKPT_MAGIC: &[u8; 8] = b"CMCKPT2\0";

/// Checkpoint wire value for each spectrum kernel.
fn algo_to_byte(algo: CpaAlgo) -> u8 {
    match algo {
        CpaAlgo::Naive => 0,
        CpaAlgo::Folded => 1,
        CpaAlgo::Fft => 2,
        _ => u8::MAX,
    }
}

/// Inverse of [`algo_to_byte`]; `None` for unknown wire values.
fn algo_from_byte(byte: u8) -> Option<CpaAlgo> {
    match byte {
        0 => Some(CpaAlgo::Naive),
        1 => Some(CpaAlgo::Folded),
        2 => Some(CpaAlgo::Fft),
        _ => None,
    }
}

/// Errors produced by the campaign engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// The underlying corpus failed.
    Corpus(CorpusError),
    /// Correlation analysis failed.
    Cpa(CpaError),
    /// A campaign-directory filesystem operation failed.
    Io {
        /// What the engine was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The campaign spec (or a persisted record of it) is invalid.
    Spec {
        /// What was wrong.
        message: String,
    },
    /// A report was requested before every job completed.
    Incomplete {
        /// Jobs finished so far.
        completed: usize,
        /// Jobs in the campaign.
        total: usize,
    },
}

impl CampaignError {
    fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CampaignError::Io {
            context: context.into(),
            source,
        }
    }

    pub(crate) fn spec(message: impl Into<String>) -> Self {
        CampaignError::Spec {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Corpus(e) => write!(f, "corpus: {e}"),
            CampaignError::Cpa(e) => write!(f, "cpa: {e}"),
            CampaignError::Io { context, source } => write!(f, "{context}: {source}"),
            CampaignError::Spec { message } => write!(f, "campaign spec: {message}"),
            CampaignError::Incomplete { completed, total } => {
                write!(f, "campaign incomplete: {completed} of {total} jobs done")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Corpus(e) => Some(e),
            CampaignError::Cpa(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CorpusError> for CampaignError {
    fn from(e: CorpusError) -> Self {
        CampaignError::Corpus(e)
    }
}

impl From<CpaError> for CampaignError {
    fn from(e: CpaError) -> Self {
        CampaignError::Cpa(e)
    }
}

/// What a campaign is: which corpus, which watermark, which traces, and
/// how detection and checkpointing are tuned.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Root of the trace corpus the jobs read from.
    pub corpus: PathBuf,
    /// One period of the watermark sequence (the model vector `X`).
    pub pattern: Vec<bool>,
    /// Corpus trace names, one detection job each; job `i` is `traces[i]`.
    pub traces: Vec<String>,
    /// Peak-resolution rule applied to every job.
    pub criterion: DetectionCriterion,
    /// Snapshot the fold every this many ingested cycles (0 disables
    /// periodic checkpoints; a kill then restarts in-flight jobs from the
    /// trace start, which is slower but still bit-identical).
    pub checkpoint_cycles: u64,
    /// Cycles read from disk per chunk (clamped to at least 1).
    pub chunk_cycles: usize,
    /// The spectrum kernel every job runs (see [`CpaAlgo`]). Resolved
    /// once, at creation time, and persisted in `campaign.json` — a
    /// resumed campaign replays the recorded kernel, including one pinned
    /// at creation, because the byte-identical report guarantee only
    /// holds within one kernel's arithmetic.
    pub algo: CpaAlgo,
    /// Sequential early-termination schedule, or `None` for classic
    /// fixed-budget jobs. Persisted in `campaign.json` like the kernel:
    /// the checkpoint schedule is a pure function of these options and
    /// the absolute cycle count, so a resumed campaign re-derives
    /// exactly the checkpoints an uninterrupted run would have hit and
    /// lands bit-identical outcomes (see `docs/sequential.md`).
    pub sequential: Option<SequentialOptions>,
    /// Adversarial scenario applied to every job, or `None` for a plain
    /// detection campaign. Persisted in `campaign.json` like the kernel
    /// and the sequential schedule, with the same tolerant decode (a
    /// pre-scenario spec simply has no field). An *identity* scenario
    /// (no attack, no defense, nominal SNR) runs the plain streaming job
    /// path — its report is byte-for-byte a plain campaign's — while any
    /// other scenario buffers each trace whole, replays the deterministic
    /// attack/defense pipeline over it, and lands the defense's verdict
    /// (see `docs/attacks.md`).
    pub scenario: Option<ScenarioSpec>,
}

impl CampaignSpec {
    /// A spec with the default criterion, 64 Ki-cycle checkpoints and
    /// 8 Ki-cycle read chunks. The spectrum kernel is resolved here,
    /// once, from the pattern's work heuristic.
    pub fn new(corpus: impl Into<PathBuf>, pattern: Vec<bool>, traces: Vec<String>) -> Self {
        let algo = CpaAlgo::resolved_for_pattern(&pattern);
        CampaignSpec {
            corpus: corpus.into(),
            pattern,
            traces,
            criterion: DetectionCriterion::default(),
            checkpoint_cycles: 65_536,
            chunk_cycles: 8_192,
            algo,
            sequential: None,
            scenario: None,
        }
    }

    /// Turns on sequential early-termination for every job.
    #[must_use]
    pub fn with_sequential(mut self, options: SequentialOptions) -> Self {
        self.sequential = Some(options);
        self
    }

    /// Applies an adversarial scenario to every job.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Serialises the spec as one JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(256);
        encode_source(&mut out, &self.corpus, &self.pattern, &self.traces);
        out.push_str(",\"min_peak_ratio\":");
        json::write_f64(&mut out, self.criterion.min_peak_ratio);
        out.push_str(",\"min_zscore\":");
        json::write_f64(&mut out, self.criterion.min_zscore);
        let _ = write!(
            out,
            ",\"checkpoint_cycles\":{},\"chunk_cycles\":{},\"algo\":\"{}\"",
            self.checkpoint_cycles,
            self.chunk_cycles,
            self.algo.as_str()
        );
        if let Some(seq) = &self.sequential {
            let _ = write!(
                out,
                ",\"sequential\":{{\"base_cycles\":{},\"growth\":",
                seq.base_cycles
            );
            json::write_f64(&mut out, seq.growth);
            let _ = write!(out, ",\"min_cycles\":{}", seq.min_cycles);
            if let Some(confidence) = seq.confidence {
                out.push_str(",\"confidence\":");
                json::write_f64(&mut out, confidence);
            }
            if let Some(max) = seq.max_cycles {
                let _ = write!(out, ",\"max_cycles\":{max}");
            }
            out.push('}');
        }
        if let Some(scenario) = &self.scenario {
            out.push_str(",\"scenario\":");
            scenario.encode_into(&mut out);
        }
        out.push('}');
        out
    }

    /// Parses a spec serialised by [`encode`](CampaignSpec::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] for malformed JSON or
    /// missing/ill-typed fields.
    pub fn decode(text: &str) -> Result<Self, CampaignError> {
        let value =
            json::parse(text).map_err(|e| CampaignError::spec(format!("invalid JSON: {e}")))?;
        let num_field = |key: &str| decode_num(&value, key);
        let pattern = decode_pattern(&value)?;
        // Specs written before the kernel was recorded lack the field;
        // resolve those from the pattern heuristic.
        let algo = value
            .get("algo")
            .and_then(Json::as_str)
            .and_then(CpaAlgo::parse)
            .unwrap_or_else(|| CpaAlgo::resolved_for_pattern(&pattern));
        // Specs written before sequential campaigns existed lack the
        // object; those campaigns keep running fixed-budget jobs.
        let sequential = match value.get("sequential") {
            None => None,
            Some(seq) => {
                let seq_num = |key: &str| {
                    seq.get(key).and_then(Json::as_f64).ok_or_else(|| {
                        CampaignError::spec(format!("missing numeric field `sequential.{key}`"))
                    })
                };
                Some(SequentialOptions {
                    base_cycles: seq_num("base_cycles")? as u64,
                    growth: seq_num("growth")?,
                    confidence: seq.get("confidence").and_then(Json::as_f64),
                    min_cycles: seq_num("min_cycles")? as u64,
                    max_cycles: seq
                        .get("max_cycles")
                        .and_then(Json::as_f64)
                        .map(|v| v as u64),
                })
            }
        };
        // Specs written before scenarios existed lack the object; those
        // campaigns keep running plain detection jobs.
        let scenario = match value.get("scenario") {
            None => None,
            Some(s) => {
                Some(ScenarioSpec::decode_value(s).map_err(|e| CampaignError::spec(e.message))?)
            }
        };
        Ok(CampaignSpec {
            corpus: PathBuf::from(decode_str(&value, "corpus")?),
            pattern,
            traces: decode_traces(&value)?,
            criterion: DetectionCriterion {
                min_peak_ratio: num_field("min_peak_ratio")?,
                min_zscore: num_field("min_zscore")?,
            },
            checkpoint_cycles: num_field("checkpoint_cycles")? as u64,
            chunk_cycles: num_field("chunk_cycles")? as usize,
            algo,
            sequential,
            scenario,
        })
    }

    /// Validates the spec: a usable pattern, at least one trace, no
    /// duplicate trace names.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Cpa`] for a degenerate pattern and
    /// [`CampaignError::Spec`] for job-list problems.
    pub fn validate(&self) -> Result<(), CampaignError> {
        Detector::new(&self.pattern)?;
        if self.traces.is_empty() {
            return Err(CampaignError::spec("campaign has no traces"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for trace in &self.traces {
            if !seen.insert(trace.as_str()) {
                return Err(CampaignError::spec(format!("duplicate trace `{trace}`")));
            }
        }
        if let Some(scenario) = &self.scenario {
            scenario
                .validate()
                .map_err(|e| CampaignError::spec(e.to_string()))?;
            // A non-identity scenario job buffers its trace and decides
            // in one shot — there is no streaming fold to terminate early.
            if self.sequential.is_some() && !scenario.is_identity() {
                return Err(CampaignError::spec(
                    "scenario campaigns do not support sequential schedules",
                ));
            }
        }
        Ok(())
    }
}

/// Opens a spec object with the fields a campaign and a scenario matrix
/// share: `{"corpus":…,"pattern":"0110…","traces":[…]`.
pub(crate) fn encode_source(out: &mut String, corpus: &Path, pattern: &[bool], traces: &[String]) {
    out.push_str("{\"corpus\":");
    json::write_str(out, &corpus.to_string_lossy());
    out.push_str(",\"pattern\":\"");
    out.extend(pattern.iter().map(|&bit| if bit { '1' } else { '0' }));
    out.push_str("\",\"traces\":[");
    for (i, trace) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, trace);
    }
    out.push(']');
}

/// A required numeric field of a spec object or a results line.
fn decode_num(value: &Json, key: &str) -> Result<f64, CampaignError> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| CampaignError::spec(format!("missing numeric field `{key}`")))
}

/// A required string field of a spec object.
pub(crate) fn decode_str<'v>(value: &'v Json, key: &str) -> Result<&'v str, CampaignError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| CampaignError::spec(format!("missing string field `{key}`")))
}

/// The required `pattern` field: a string of `0`/`1` characters.
pub(crate) fn decode_pattern(value: &Json) -> Result<Vec<bool>, CampaignError> {
    decode_str(value, "pattern")?
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(CampaignError::spec(format!(
                "pattern contains `{other}`; only 0/1 allowed"
            ))),
        })
        .collect()
}

/// The required `traces` field: an array of trace names.
pub(crate) fn decode_traces(value: &Json) -> Result<Vec<String>, CampaignError> {
    match value.get("traces") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| CampaignError::spec("non-string trace name"))
            })
            .collect(),
        _ => Err(CampaignError::spec("missing array field `traces`")),
    }
}

/// One unit of campaign work: run detection over one stored trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Position in the campaign's job list (stable across resumes).
    pub index: usize,
    /// The corpus trace this job reads.
    pub trace: String,
}

/// The persisted outcome of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job index.
    pub index: usize,
    /// The trace analysed.
    pub trace: String,
    /// Cycles the trace held.
    pub cycles: u64,
    /// The detection verdict and its statistics.
    pub result: DetectionResult,
}

impl JobOutcome {
    /// Serialises the outcome as one JSON line (no trailing newline).
    ///
    /// Finite `f64` fields are written in Rust's shortest round-trip
    /// form, so decoding them back is bit-exact — the property the
    /// byte-identical-report guarantee rests on.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"index\":{},\"trace\":", self.index);
        json::write_str(&mut out, &self.trace);
        let _ = write!(
            out,
            ",\"cycles\":{},\"detected\":{},\"peak_rotation\":{},\"peak_rho\":",
            self.cycles, self.result.detected, self.result.peak_rotation
        );
        json::write_f64(&mut out, self.result.peak_rho);
        out.push_str(",\"floor_max_abs\":");
        json::write_f64(&mut out, self.result.floor_max_abs);
        out.push_str(",\"ratio\":");
        json::write_f64(&mut out, self.result.ratio);
        out.push_str(",\"zscore\":");
        json::write_f64(&mut out, self.result.zscore);
        out.push('}');
        out
    }

    /// Parses one `results.jsonl` line.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] for malformed JSON or
    /// missing/ill-typed fields.
    pub fn decode(text: &str) -> Result<Self, CampaignError> {
        let value =
            json::parse(text).map_err(|e| CampaignError::spec(format!("invalid JSON: {e}")))?;
        let num_field = |key: &str| decode_num(&value, key);
        let detected = match value.get("detected") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(CampaignError::spec("missing boolean field `detected`")),
        };
        Ok(JobOutcome {
            index: num_field("index")? as usize,
            trace: decode_str(&value, "trace")?.to_owned(),
            cycles: num_field("cycles")? as u64,
            result: DetectionResult {
                detected,
                peak_rotation: num_field("peak_rotation")? as usize,
                peak_rho: num_field("peak_rho")?,
                floor_max_abs: num_field("floor_max_abs")?,
                ratio: num_field("ratio")?,
                zscore: num_field("zscore")?,
            },
        })
    }
}

/// Optional bounds on one [`Campaign::run`] call.
///
/// Both limits exist so tests, benches and the CI smoke job can simulate
/// interrupted fleets deterministically; an unbounded `run` drains the
/// campaign to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignLimits {
    /// Complete at most this many jobs in this call (the rest stay
    /// pending for a later `run`).
    pub max_jobs: Option<usize>,
    /// Interrupt each in-flight job after it ingests this many cycles in
    /// this call: the fold is checkpointed and the job left pending —
    /// exactly what a `SIGKILL` mid-trace leaves behind.
    pub interrupt_job_after_cycles: Option<u64>,
}

impl CampaignLimits {
    /// No limits: run to completion.
    pub fn none() -> Self {
        CampaignLimits::default()
    }
}

/// Where a campaign currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Jobs in the campaign.
    pub total: usize,
    /// Jobs with a persisted outcome.
    pub completed: usize,
    /// Completed jobs whose watermark was detected.
    pub detected: usize,
    /// Pending jobs with a mid-flight checkpoint on disk.
    pub checkpointed: usize,
}

impl CampaignStatus {
    /// Whether every job has completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }

    /// Jobs not yet completed.
    pub fn pending(&self) -> usize {
        self.total - self.completed
    }
}

impl std::fmt::Display for CampaignStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} jobs done ({} detected, {} pending, {} checkpointed)",
            self.completed,
            self.total,
            self.detected,
            self.pending(),
            self.checkpointed,
        )
    }
}

/// The final product of a completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The spectrum kernel every outcome was computed with.
    pub algo: CpaAlgo,
    /// Every job's outcome, sorted by job index.
    pub outcomes: Vec<JobOutcome>,
}

impl CampaignReport {
    /// Completed jobs whose watermark was detected.
    pub fn detected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.detected).count()
    }

    /// Serialises the report deterministically: same outcomes in, same
    /// bytes out — what the kill-and-resume tests compare. The kernel is
    /// part of the bytes, so two reports only compare equal when they
    /// were produced by the same arithmetic.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.outcomes.len() * 160);
        let _ = write!(
            out,
            "{{\"total\":{},\"detected\":{},\"algo\":\"{}\",\"jobs\":[",
            self.outcomes.len(),
            self.detected(),
            self.algo.as_str()
        );
        for (i, outcome) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&outcome.encode());
        }
        out.push_str("]}");
        out
    }
}

/// A detection campaign rooted at a directory.
///
/// Create one with [`Campaign::create`], re-open it any number of times
/// with [`Campaign::open`], and drive it with [`Campaign::run`] until
/// [`CampaignStatus::is_complete`].
#[derive(Debug)]
pub struct Campaign {
    store: CampaignDir,
    spec: CampaignSpec,
    threads: usize,
}

impl Campaign {
    /// Creates a campaign directory and persists the spec. Fails if a
    /// campaign already exists there.
    ///
    /// # Errors
    ///
    /// Returns the spec's [`validate`](CampaignSpec::validate) errors and
    /// [`CampaignError::Io`] on filesystem failure.
    pub fn create(dir: impl Into<PathBuf>, spec: CampaignSpec) -> Result<Self, CampaignError> {
        let store = CampaignDir::new(dir);
        spec.validate()?;
        store.create(SPEC_FILE, "checkpoints", &spec.encode())?;
        Ok(Campaign::at(store, spec))
    }

    /// Opens an existing campaign by reading its spec.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] when the spec cannot be read and
    /// [`CampaignError::Spec`] when it is malformed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let store = CampaignDir::new(dir);
        let spec = CampaignSpec::decode(&store.read(SPEC_FILE)?)?;
        spec.validate()?;
        Ok(Campaign::at(store, spec))
    }

    fn at(store: CampaignDir, spec: CampaignSpec) -> Self {
        let threads = clockmark_cpa::thread_count();
        Campaign {
            store,
            spec,
            threads,
        }
    }

    /// Opens the campaign at `dir` if it holds a `campaign.json`, else
    /// creates it from `spec`: how every child campaign is opened. A
    /// child's spec is a pure function of its parent's, so losing a
    /// concurrent create just opens the winner's identical campaign.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`open`](Campaign::open) and
    /// [`create`](Campaign::create).
    pub fn open_or_create(
        dir: impl Into<PathBuf>,
        spec: CampaignSpec,
    ) -> Result<Self, CampaignError> {
        let dir = dir.into();
        if CampaignDir::new(&dir).holds(SPEC_FILE) {
            return Campaign::open(dir);
        }
        match Campaign::create(&dir, spec) {
            Err(CampaignError::Io { source, .. })
                if source.kind() == std::io::ErrorKind::AlreadyExists =>
            {
                Campaign::open(dir)
            }
            created => created,
        }
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        self.store.root()
    }

    /// The store every file of the campaign directory goes through.
    pub fn store(&self) -> &CampaignDir {
        &self.store
    }

    /// The campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Overrides the worker count (clamped to at least 1 at run time).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The campaign's jobs, in index order.
    pub fn jobs(&self) -> Vec<JobSpec> {
        self.spec
            .traces
            .iter()
            .enumerate()
            .map(|(index, trace)| JobSpec {
                index,
                trace: trace.clone(),
            })
            .collect()
    }

    /// The landed outcomes, keyed by job index.
    fn load_results(&self) -> Result<Landed, CampaignError> {
        Ok(self.store.read_results(self.spec.traces.len())?.0)
    }

    /// The persisted outcomes so far, in job-index order, read with the
    /// torn-tail tolerance and last-wins dedup a resume applies (how a
    /// fleet worker hands a shard's results back).
    ///
    /// # Errors
    ///
    /// Returns the persistence errors of the results log.
    pub fn completed_outcomes(&self) -> Result<Vec<JobOutcome>, CampaignError> {
        Ok(self.load_results()?.into_values().collect())
    }

    /// Computes the current status from disk.
    ///
    /// # Errors
    ///
    /// Returns the persistence errors of the results log.
    pub fn status(&self) -> Result<CampaignStatus, CampaignError> {
        let completed = self.load_results()?;
        let checkpointed = (0..self.spec.traces.len())
            .filter(|index| !completed.contains_key(index) && self.store.has_checkpoint(*index))
            .count();
        Ok(CampaignStatus {
            total: self.spec.traces.len(),
            completed: completed.len(),
            detected: completed.values().filter(|o| o.result.detected).count(),
            checkpointed,
        })
    }

    /// Builds the final report. Fails until every job has completed.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Incomplete`] while jobs are pending, plus
    /// the persistence errors of the results log.
    pub fn report(&self) -> Result<CampaignReport, CampaignError> {
        let completed = self.load_results()?;
        if completed.len() != self.spec.traces.len() {
            return Err(CampaignError::Incomplete {
                completed: completed.len(),
                total: self.spec.traces.len(),
            });
        }
        Ok(CampaignReport {
            algo: self.spec.algo,
            outcomes: completed.into_values().collect(),
        })
    }

    /// Runs pending jobs (subject to `limits`) across the worker threads
    /// and returns the status afterwards. When the last job lands, the
    /// final report is written to `report.json`.
    ///
    /// Call again after an interruption — a kill, a `max_jobs` bound, an
    /// injected mid-trace interrupt — and the campaign continues from its
    /// persisted state; the eventual report is byte-identical to an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-ordered failing job, plus
    /// persistence errors of the campaign directory itself.
    pub fn run(&self, limits: &CampaignLimits) -> Result<CampaignStatus, CampaignError> {
        let _span = clockmark_obs::span("campaign.run")
            .field("jobs", self.spec.traces.len())
            .field("threads", self.threads)
            .field("algo", self.spec.algo.as_str());
        let corpus = Corpus::open(&self.spec.corpus)?;
        for trace in &self.spec.traces {
            if corpus.entry(trace).is_none() {
                return Err(CampaignError::spec(format!(
                    "trace `{trace}` is not in the corpus at {}",
                    self.spec.corpus.display()
                )));
            }
        }

        let (results, completed) = self.store.open_results(self.spec.traces.len())?;
        let mut pending: Vec<JobSpec> = self
            .jobs()
            .into_iter()
            .filter(|job| !completed.contains_key(&job.index))
            .collect();
        if let Some(max) = limits.max_jobs {
            pending.truncate(max);
        }

        if !pending.is_empty() {
            let board = ProgressBoard::new(self.spec.traces.len() as u64, completed.len() as u64);
            let options = self.detect_options(pending.len());
            let finished = board.publish_while(&self.store, || {
                parallel_map(&pending, self.threads, |job| {
                    self.run_job(&corpus, job, options, &results, limits, &board)
                })
            });
            for result in finished {
                result?;
            }
        }

        let status = self.status()?;
        if status.is_complete() {
            self.write_report()?;
        }
        Ok(status)
    }

    /// Builds the final report and writes it to `report.json`.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`report`](Campaign::report) and
    /// [`CampaignError::Io`] when the file cannot be written.
    pub fn write_report(&self) -> Result<CampaignReport, CampaignError> {
        let report = self.report()?;
        self.store.replace(REPORT_FILE, &report.encode())?;
        Ok(report)
    }

    /// Runs one job to completion (or to an injected interrupt, returning
    /// `Ok(None)` with a checkpoint on disk).
    fn run_job(
        &self,
        corpus: &Corpus,
        job: &JobSpec,
        options: DetectOptions,
        results: &ResultsLog,
        limits: &CampaignLimits,
        board: &ProgressBoard,
    ) -> Result<Option<JobOutcome>, CampaignError> {
        if let Some(scenario) = &self.spec.scenario {
            // The identity scenario falls through to the plain streaming
            // path below — that is what makes its report byte-for-byte a
            // plain campaign's.
            if !scenario.is_identity() {
                return self.run_job_scenario(corpus, job, options, results, board, scenario);
            }
        }
        let mode = if self.spec.sequential.is_some() {
            "sequential"
        } else {
            "fixed"
        };
        let _span = clockmark_obs::span("campaign.job")
            .field("index", job.index)
            .field("trace", job.trace.clone())
            .field("mode", mode);
        // Zero-copy where the platform provides it; an owned buffer
        // otherwise. Both stream bit-identical samples, so a campaign
        // resumed on a different platform still reproduces its report
        // byte-for-byte.
        let mut reader = corpus.source(&job.trace)?;
        let trace_cycles = reader.header().cycles;
        // The kernel recorded in the spec is pinned on the facade, so the
        // work heuristic cannot change the arithmetic between a run and
        // its resume.
        let facade = Detector::with_options(&self.spec.pattern, options)?;
        let mut session = match self.restore_checkpoint(&facade, job, trace_cycles) {
            Some(session) => session,
            None => facade.detect_streaming(),
        };
        // The checkpoint holds only the fold: a sequential schedule is
        // re-derived from the spec and the restored cycle count, so a
        // checkpoint written in either mode restores into whichever mode
        // the spec now records.
        if let Some(seq) = self.spec.sequential {
            session = session.with_sequential(seq);
        }
        // Replaying the consumed prefix (discarded, but still fed to the
        // CRC) keeps the end-of-trace integrity check meaningful.
        if session.cycles() > 0 {
            reader.skip_samples(session.cycles())?;
        }

        // A sequential session that decides stops the loop: the rest of
        // the trace is never read, and the session is never checkpointed
        // or interrupted — its fold is frozen, so a resumed replay would
        // re-derive checkpoints after the accepting one and run longer.
        let chunk = self.spec.chunk_cycles.max(1);
        let mut buf = vec![0.0f64; chunk];
        let mut since_checkpoint = 0u64;
        let mut ingested = 0u64;
        let mut fully_read = false;
        while !session.decided() {
            let got = reader.read_chunk(&mut buf)?;
            if got == 0 {
                fully_read = true;
                break;
            }
            session.push_chunk(&buf[..got]);
            since_checkpoint += got as u64;
            ingested += got as u64;
            board.note_cycles(got as u64);
            if session.decided() {
                break;
            }
            if self.spec.checkpoint_cycles > 0 && since_checkpoint >= self.spec.checkpoint_cycles {
                self.write_checkpoint(job, &session.state())?;
                since_checkpoint = 0;
            }
            if let Some(limit) = limits.interrupt_job_after_cycles {
                if ingested >= limit && reader.remaining() > 0 {
                    self.write_checkpoint(job, &session.state())?;
                    return Ok(None);
                }
            }
        }
        // The full-trace CRC runs only when the trace was fully read: an
        // early stop cannot have checksummed the unread tail, and
        // `JobOutcome::cycles` records the cycles the verdict consumed.
        if fully_read {
            reader.finish()?;
        }

        let verdict = session.finalize();
        if verdict.early_stopped {
            clockmark_obs::counter_add(
                "campaign.cycles_saved",
                trace_cycles.saturating_sub(verdict.cycles_consumed),
            );
        }
        let outcome = JobOutcome {
            index: job.index,
            trace: job.trace.clone(),
            cycles: verdict.cycles_consumed,
            result: verdict.result,
        };
        self.land_outcome(job, outcome, results, board)
    }

    /// Runs one adversarial-scenario job: the whole trace is buffered,
    /// the deterministic defense-embed → attack → SNR-noise pipeline
    /// replays over it, and the defense's verification procedure decides
    /// (see [`crate::scenario`]).
    ///
    /// Deliberately different persistence contract from the streaming
    /// path: a scenario job **never writes a mid-trace checkpoint** and
    /// **ignores `interrupt_job_after_cycles`**. The job is a pure
    /// function of `(spec, job index, trace bytes)`, so the cheapest
    /// correct resume is a whole-job replay — which is what a kill gets:
    /// completed jobs live in `results.jsonl`, in-flight ones restart and
    /// land bit-identical outcomes.
    fn run_job_scenario(
        &self,
        corpus: &Corpus,
        job: &JobSpec,
        options: DetectOptions,
        results: &ResultsLog,
        board: &ProgressBoard,
        scenario: &ScenarioSpec,
    ) -> Result<Option<JobOutcome>, CampaignError> {
        let _span = clockmark_obs::span("campaign.job")
            .field("index", job.index)
            .field("trace", job.trace.clone())
            .field("mode", "scenario")
            .field("attack", scenario.attack.kind())
            .field("defense", scenario.defense.kind());
        // A stale checkpoint can only be left by a crashed run of the
        // same spec, and scenario jobs never write one; sweep anyway so
        // a hand-edited spec cannot resurrect a foreign snapshot.
        self.store.remove_checkpoint(job.index);

        let mut reader = corpus.source(&job.trace)?;
        let trace_cycles = reader.header().cycles;
        let chunk = self.spec.chunk_cycles.max(1);
        let mut buf = vec![0.0f64; chunk];
        let mut samples = Vec::with_capacity(trace_cycles as usize);
        loop {
            let got = reader.read_chunk(&mut buf)?;
            if got == 0 {
                break;
            }
            samples.extend_from_slice(&buf[..got]);
            board.note_cycles(got as u64);
        }
        let header = reader.finish()?; // full CRC validation

        let result = run_scenario_detection(
            scenario,
            &self.spec.pattern,
            options,
            job.index,
            &mut samples,
        )?;
        let outcome = JobOutcome {
            index: job.index,
            trace: job.trace.clone(),
            cycles: header.cycles,
            result,
        };
        self.land_outcome(job, outcome, results, board)
    }

    /// Appends a finished job's durable result line and retires its
    /// checkpoint. Ordering matters: the result lands first, then the
    /// checkpoint drops. A crash in between reruns the job (harmless,
    /// last line wins); the opposite order could lose the job's work.
    fn land_outcome(
        &self,
        job: &JobSpec,
        outcome: JobOutcome,
        results: &ResultsLog,
        board: &ProgressBoard,
    ) -> Result<Option<JobOutcome>, CampaignError> {
        results
            .append(&format!("{}\n", outcome.encode()))
            .map_err(|e| CampaignError::io("appending results.jsonl", e))?;
        self.store.remove_checkpoint(job.index);
        clockmark_obs::counter_add("campaign.jobs_completed", 1);
        board.note_landed();
        Ok(Some(outcome))
    }

    /// The options every job of a run over `pending` jobs detects with:
    /// the recorded kernel and criterion pinned. A batch spectrum (a
    /// scenario job's verification) keeps to one thread while there are
    /// at least as many jobs as worker threads to fill the cores, and
    /// auto-sizes when there are fewer. Every thread count gives the same
    /// spectrum.
    fn detect_options(&self, pending: usize) -> DetectOptions {
        let options = DetectOptions::default()
            .with_algo(self.spec.algo)
            .with_criterion(self.spec.criterion);
        if pending >= self.threads.max(1) {
            options.with_threads(1)
        } else {
            options
        }
    }

    /// Restores a job's session from its checkpoint, or `None` to start
    /// fresh. Any defect — wrong trace, wrong pattern, wrong spectrum
    /// kernel, impossible cycle count, corrupt bytes — discards the file:
    /// restarting a job is always safe (replay is bit-identical), trusting
    /// a bad snapshot never is. `resume_streaming` rejects a snapshot of
    /// another pattern.
    fn restore_checkpoint(
        &self,
        facade: &Detector,
        job: &JobSpec,
        trace_cycles: u64,
    ) -> Option<StreamingDetection> {
        let bytes = self.store.read_checkpoint(job.index)?;
        let session = decode_checkpoint(&bytes)
            .ok()
            .filter(|(index, trace, algo, state)| {
                *index == job.index
                    && *trace == job.trace
                    && *algo == self.spec.algo
                    && state.cycles <= trace_cycles
            })
            .and_then(|(.., state)| facade.resume_streaming(state).ok());
        if session.is_none() {
            self.store.remove_checkpoint(job.index);
            clockmark_obs::counter_add("campaign.checkpoints_discarded", 1);
        }
        session
    }

    /// Snapshots a job's fold to disk (replaced whole, so a kill
    /// mid-write leaves the previous checkpoint intact).
    fn write_checkpoint(
        &self,
        job: &JobSpec,
        state: &StreamingCpaState,
    ) -> Result<(), CampaignError> {
        let bytes = encode_checkpoint(job.index, &job.trace, self.spec.algo, state);
        self.store.write_checkpoint(job.index, &bytes)?;
        clockmark_obs::counter_add("campaign.checkpoints_written", 1);
        clockmark_obs::counter_add("campaign.checkpoint_bytes", bytes.len() as u64);
        Ok(())
    }
}

/// Encodes a checkpoint: magic, spectrum kernel, job identity, then every
/// accumulator of the fold as raw little-endian bits, closed by a CRC-32.
fn encode_checkpoint(
    index: usize,
    trace: &str,
    algo: CpaAlgo,
    state: &StreamingCpaState,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + trace.len() + state.pattern.len() * 17);
    out.extend_from_slice(CKPT_MAGIC);
    out.push(algo_to_byte(algo));
    codec::put_u64(&mut out, index as u64);
    codec::put_u32(&mut out, trace.len() as u32);
    out.extend_from_slice(trace.as_bytes());
    codec::put_u32(&mut out, state.pattern.len() as u32);
    for &bit in &state.pattern {
        out.push(u8::from(bit));
    }
    for &sum in &state.residue_sums {
        codec::put_f64(&mut out, sum);
    }
    for &count in &state.residue_counts {
        codec::put_u64(&mut out, count);
    }
    codec::put_f64(&mut out, state.sum_y);
    codec::put_f64(&mut out, state.sum_yy);
    codec::put_u64(&mut out, state.cycles);
    let mut crc = Crc32::new();
    crc.update(&out);
    codec::put_u32(&mut out, crc.finish());
    out
}

/// Decodes a checkpoint back into its job identity, spectrum kernel and
/// fold state.
fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(usize, String, CpaAlgo, clockmark_cpa::StreamingCpaState), CampaignError> {
    let bad = |message: &str| CampaignError::spec(format!("checkpoint: {message}"));
    if bytes.len() < CKPT_MAGIC.len() + 5 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(bad("bad magic"));
    }
    let body_len = bytes.len() - 4;
    let stored_crc = codec::get_u32(bytes, body_len)?;
    let mut crc = Crc32::new();
    crc.update(&bytes[..body_len]);
    if crc.finish() != stored_crc {
        return Err(bad("CRC mismatch"));
    }
    let mut at = CKPT_MAGIC.len();
    let algo = algo_from_byte(bytes[at]).ok_or_else(|| bad("unknown spectrum kernel byte"))?;
    at += 1;
    let index = codec::get_u64(bytes, at)? as usize;
    at += 8;
    let trace_len = codec::get_u32(bytes, at)? as usize;
    at += 4;
    let trace = std::str::from_utf8(
        bytes
            .get(at..at + trace_len)
            .ok_or_else(|| bad("truncated trace name"))?,
    )
    .map_err(|_| bad("trace name is not UTF-8"))?
    .to_owned();
    at += trace_len;
    let period = codec::get_u32(bytes, at)? as usize;
    at += 4;
    let pattern_bytes = bytes
        .get(at..at + period)
        .ok_or_else(|| bad("truncated pattern"))?;
    let pattern: Vec<bool> = pattern_bytes.iter().map(|&b| b != 0).collect();
    at += period;
    let mut residue_sums = Vec::with_capacity(period);
    for _ in 0..period {
        residue_sums.push(codec::get_f64(bytes, at)?);
        at += 8;
    }
    let mut residue_counts = Vec::with_capacity(period);
    for _ in 0..period {
        residue_counts.push(codec::get_u64(bytes, at)?);
        at += 8;
    }
    let sum_y = codec::get_f64(bytes, at)?;
    at += 8;
    let sum_yy = codec::get_f64(bytes, at)?;
    at += 8;
    let cycles = codec::get_u64(bytes, at)?;
    at += 8;
    if at != body_len {
        return Err(bad("trailing bytes"));
    }
    Ok((
        index,
        trace,
        algo,
        clockmark_cpa::StreamingCpaState {
            pattern,
            residue_sums,
            residue_counts,
            sum_y,
            sum_yy,
            cycles,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockmark_corpus::TraceHeader;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fs;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "cm_campaign_{tag}_{}_{:?}",
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

    /// A corpus of `marked` watermarked and 1 unmarked trace, plus the
    /// spec naming all of them.
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

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec::new("some/corpus", pattern(), vec!["a".into(), "b".into()]);
        let back = CampaignSpec::decode(&spec.encode()).expect("valid");
        assert_eq!(back, spec);
    }

    #[test]
    fn sequential_spec_round_trips_through_json() {
        // All optional fields set.
        let full = CampaignSpec::new("some/corpus", pattern(), vec!["a".into()]).with_sequential(
            SequentialOptions::every(2_048)
                .with_confidence(1e-6)
                .with_min_cycles(512)
                .with_max_cycles(100_000),
        );
        let back = CampaignSpec::decode(&full.encode()).expect("valid");
        assert_eq!(back, full);
        assert_eq!(
            back.sequential.expect("kept").confidence.expect("kept"),
            1e-6
        );

        // Optionals absent stay absent.
        let lean = CampaignSpec::new("some/corpus", pattern(), vec!["a".into()])
            .with_sequential(SequentialOptions::default().with_growth(1.5));
        let back = CampaignSpec::decode(&lean.encode()).expect("valid");
        assert_eq!(back, lean);
        let seq = back.sequential.expect("kept");
        assert_eq!(seq.confidence, None);
        assert_eq!(seq.max_cycles, None);

        // Specs written before sequential campaigns existed decode to
        // fixed-budget mode.
        let legacy = CampaignSpec::new("some/corpus", pattern(), vec!["a".into()]);
        assert!(!legacy.encode().contains("sequential"));
        let back = CampaignSpec::decode(&legacy.encode()).expect("valid");
        assert_eq!(back.sequential, None);
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let outcome = JobOutcome {
            index: 3,
            trace: "chip_i_s7".to_owned(),
            cycles: 30_000,
            result: DetectionResult {
                detected: true,
                peak_rotation: 41,
                peak_rho: 0.012_345_678_901_234_567,
                floor_max_abs: 0.003_4,
                ratio: 3.63,
                zscore: 11.25,
            },
        };
        let back = JobOutcome::decode(&outcome.encode()).expect("valid");
        assert_eq!(
            back.result.peak_rho.to_bits(),
            outcome.result.peak_rho.to_bits()
        );
        assert_eq!(back, outcome);
    }

    #[test]
    fn campaign_runs_to_completion_and_reports() {
        let dir = TempDir::new("complete");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 3, 4_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(2);
        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(status.is_complete(), "{status}");
        assert_eq!(status.total, 4);
        assert_eq!(status.detected, 3, "{status}");
        assert_eq!(status.checkpointed, 0);

        let report = campaign.report().expect("complete");
        assert_eq!(report.outcomes.len(), 4);
        assert!(!report.outcomes[3].result.detected, "unmarked trace");
        assert!(dir.0.join("campaign/report.json").exists());

        // Running again is a no-op that leaves the report untouched.
        let before = fs::read(dir.0.join("campaign/report.json")).expect("reads");
        let again = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(again.is_complete());
        assert_eq!(
            before,
            fs::read(dir.0.join("campaign/report.json")).expect("reads")
        );
    }

    #[test]
    fn interrupted_campaign_resumes_to_a_byte_identical_report() {
        let dir = TempDir::new("resume");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 3, 4_000);

        let reference = Campaign::create(dir.0.join("reference"), spec.clone())
            .expect("creates")
            .with_threads(2);
        assert!(reference
            .run(&CampaignLimits::none())
            .expect("runs")
            .is_complete());
        let want = fs::read(dir.0.join("reference/report.json")).expect("reads");

        // Drive the same campaign through repeated simulated kills: every
        // pass interrupts each in-flight job mid-trace.
        let interrupted = Campaign::create(dir.0.join("interrupted"), spec)
            .expect("creates")
            .with_threads(2);
        let limits = CampaignLimits {
            max_jobs: Some(2),
            interrupt_job_after_cycles: Some(700),
        };
        let mut passes = 0;
        while !interrupted.run(&limits).expect("runs").is_complete() {
            passes += 1;
            assert!(passes < 100, "campaign failed to converge");
        }
        assert!(
            passes >= 3,
            "limits too weak to exercise resume ({passes} passes)"
        );
        let got = fs::read(dir.0.join("interrupted/report.json")).expect("reads");
        assert_eq!(got, want, "resumed report must be byte-identical");
    }

    #[test]
    fn sequential_campaign_early_stops_and_resumes_byte_identically() {
        let dir = TempDir::new("seq_resume");
        let pattern = pattern();
        let mut spec = build_fixture(&dir.0, &pattern, 3, 12_000);
        spec = spec.with_sequential(SequentialOptions::every(1_024));

        let reference = Campaign::create(dir.0.join("reference"), spec.clone())
            .expect("creates")
            .with_threads(2);
        assert!(reference
            .run(&CampaignLimits::none())
            .expect("runs")
            .is_complete());
        let report = reference.report().expect("complete");
        for outcome in &report.outcomes[..3] {
            assert!(outcome.result.detected, "marked trace: {outcome:?}");
            assert!(
                outcome.cycles < 12_000,
                "watermarked jobs must stop early, consumed {}",
                outcome.cycles
            );
        }
        assert!(!report.outcomes[3].result.detected, "unmarked trace");
        assert_eq!(
            report.outcomes[3].cycles, 12_000,
            "no early stop without a watermark: the full trace is the budget"
        );
        let want = fs::read(dir.0.join("reference/report.json")).expect("reads");

        // Repeated simulated kills: interrupts land both before the first
        // schedule checkpoint (700 < 1024) and between later ones, so
        // resumes must re-derive the same absolute checkpoint sequence.
        let interrupted = Campaign::create(dir.0.join("interrupted"), spec)
            .expect("creates")
            .with_threads(2);
        let limits = CampaignLimits {
            max_jobs: Some(2),
            interrupt_job_after_cycles: Some(700),
        };
        let mut passes = 0;
        while !interrupted.run(&limits).expect("runs").is_complete() {
            passes += 1;
            assert!(passes < 100, "campaign failed to converge");
        }
        assert!(
            passes >= 3,
            "limits too weak to exercise resume ({passes} passes)"
        );
        let got = fs::read(dir.0.join("interrupted/report.json")).expect("reads");
        assert_eq!(
            got, want,
            "resumed sequential report must be byte-identical"
        );
    }

    #[test]
    fn status_counts_checkpointed_jobs() {
        let dir = TempDir::new("status");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 1, 4_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(1);
        let status = campaign
            .run(&CampaignLimits {
                max_jobs: Some(1),
                interrupt_job_after_cycles: Some(500),
            })
            .expect("runs");
        assert_eq!(status.completed, 0);
        assert_eq!(status.checkpointed, 1, "{status}");
        assert_eq!(status.pending(), 2);
        assert!(status.to_string().contains("0/2 jobs done"), "{status}");
    }

    #[test]
    fn corrupt_checkpoints_are_discarded_and_the_job_restarts() {
        let dir = TempDir::new("corrupt");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 1, 3_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(1);
        // Leave a mid-flight checkpoint behind, then corrupt it.
        campaign
            .run(&CampaignLimits {
                max_jobs: Some(1),
                interrupt_job_after_cycles: Some(500),
            })
            .expect("runs");
        let ckpt = dir.0.join("campaign/checkpoints/job_0.ckpt");
        assert!(ckpt.exists());
        let mut bytes = fs::read(&ckpt).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&ckpt, &bytes).expect("writes");

        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(status.is_complete());
        assert!(!ckpt.exists(), "bad checkpoint must be removed");
        assert_eq!(campaign.report().expect("complete").detected(), 1);
    }

    #[test]
    fn torn_final_results_line_is_tolerated() {
        let dir = TempDir::new("torn");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 1, 3_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(1);
        let reference = {
            let status = campaign.run(&CampaignLimits::none()).expect("runs");
            assert!(status.is_complete());
            fs::read(dir.0.join("campaign/report.json")).expect("reads")
        };

        // Truncate the last line mid-record, as a kill mid-append would.
        let results_path = dir.0.join("campaign/results.jsonl");
        let text = fs::read_to_string(&results_path).expect("reads");
        let cut = text.trim_end().len() - 10;
        fs::write(&results_path, &text[..cut]).expect("writes");

        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(status.is_complete(), "{status}");
        let report = fs::read(dir.0.join("campaign/report.json")).expect("reads");
        assert_eq!(report, reference, "rerun job must reproduce the same bytes");
    }

    #[test]
    fn creation_and_spec_validation_reject_bad_input() {
        let dir = TempDir::new("validate");
        let mut spec = CampaignSpec::new(dir.0.join("corpus"), pattern(), vec!["a".into()]);
        let campaign_dir = dir.0.join("campaign");
        Campaign::create(&campaign_dir, spec.clone()).expect("creates");
        // No double-create over an existing campaign.
        assert!(Campaign::create(&campaign_dir, spec.clone()).is_err());
        // Re-open reads the identical spec back.
        assert_eq!(Campaign::open(&campaign_dir).expect("opens").spec(), &spec);

        spec.traces.clear();
        assert!(matches!(
            spec.validate().unwrap_err(),
            CampaignError::Spec { .. }
        ));
        spec.traces = vec!["a".into(), "a".into()];
        assert!(spec.validate().is_err(), "duplicate trace");
        spec.traces = vec!["a".into()];
        spec.pattern = vec![true; 8];
        assert!(matches!(
            spec.validate().unwrap_err(),
            CampaignError::Cpa(CpaError::ConstantPattern)
        ));
    }

    #[test]
    fn batch_spectra_auto_size_only_when_jobs_cannot_fill_the_threads() {
        let dir = TempDir::new("spectrum_threads");
        let spec = CampaignSpec::new(dir.0.join("corpus"), pattern(), vec!["a".into()]);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(4);
        assert_eq!(campaign.detect_options(4).threads, Some(1));
        assert_eq!(campaign.detect_options(9).threads, Some(1));
        // A one-trace matrix cell, `--max-jobs`, a straggler run: the
        // spectrum gets the threads the jobs leave idle.
        assert_eq!(campaign.detect_options(3).threads, None);
        assert_eq!(campaign.detect_options(1).threads, None);
        let algo = campaign.spec().algo;
        let options = campaign.with_threads(0).detect_options(1);
        assert_eq!(options.threads, Some(1), "zero threads runs one job");
        assert_eq!(options.algo, Some(algo), "the recorded kernel is pinned");
    }

    #[test]
    fn missing_corpus_trace_fails_before_any_work() {
        let dir = TempDir::new("missing");
        let pattern = pattern();
        let mut spec = build_fixture(&dir.0, &pattern, 1, 1_000);
        spec.traces.push("ghost".to_owned());
        let campaign = Campaign::create(dir.0.join("campaign"), spec).expect("creates");
        let err = campaign.run(&CampaignLimits::none()).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn checkpoint_codec_round_trips_and_rejects_corruption() {
        let pattern = pattern();
        let facade = Detector::new(&pattern).expect("valid");
        let mut session = facade.detect_streaming();
        session.push_chunk(&trace(&pattern, 1_000, 3, 0.8, 5));
        let bytes = encode_checkpoint(7, "chip_i_s3", CpaAlgo::Fft, &session.state());
        let (index, trace_name, algo, state) = decode_checkpoint(&bytes).expect("valid");
        assert_eq!((index, trace_name.as_str()), (7, "chip_i_s3"));
        assert_eq!(algo, CpaAlgo::Fft);
        let restored = facade.resume_streaming(state).expect("valid");
        assert_eq!(restored.state(), session.state());

        for at in [0usize, 9, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(decode_checkpoint(&bad).is_err(), "flip at {at} undetected");
        }
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_err());
    }
}
