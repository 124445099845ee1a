//! `campaign_corpus`: batch campaigns with `Campaign::with_threads(2)`
//! and the production defaults (64 Ki-cycle checkpoints, 8 Ki-cycle
//! chunks) over a corpus of seeded synthetic paper-scale traces. Each
//! round runs, over the same corpus:
//!
//! 1. a fixed-budget campaign cut short once by `CampaignLimits`, then
//!    resumed to completion — its `report.json` must be byte-identical to
//!    an uninterrupted reference run once after set-up;
//! 2. a `with_sequential` campaign — every verdict must match the
//!    trace's ground truth;
//! 3. a small `ScenarioCampaign` (attacks × defenses) — its report must
//!    be byte-identical in every round.

use crate::layers::{
    check_truth, counter_delta, ms_since, snapshot, span_delta, time_corpus_read, timed, Ledger,
    Run,
};
use crate::stats::{median, Fnv, Metric};
use crate::synth::{
    digest_trace, paper_pattern, sub_seed, TraceSpec, AMP_WATTS, CYCLES, NOISE_WATTS,
};
use crate::Ctx;
use clockmark::attack::{AttackContext, AttackSpec, DefenseSpec};
use clockmark::campaign::{Campaign, CampaignLimits, CampaignSpec};
use clockmark::corpus::{Corpus, TraceHeader};
use clockmark::{ScenarioCampaign, ScenarioMatrix};
use clockmark_cpa::{Detector, SequentialOptions};
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Traces in the corpus.
const TRACES: usize = 6;
/// Campaign worker threads (the host's core count, 2).
const THREADS: usize = 2;
/// The cut: jobs the first fixed-budget pass may start, and the cycles
/// each may ingest before it is interrupted with a checkpoint.
const CUT_JOBS: usize = TRACES / 2;
const CUT_CYCLES: u64 = CYCLES as u64 / 2;

fn attacks() -> Vec<AttackSpec> {
    vec![
        AttackSpec::None,
        AttackSpec::ClockJitter { sigma_cycles: 2.0 },
    ]
}

fn defenses() -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::None,
        DefenseSpec::ChallengeResponse { phase_delta: 17 },
    ]
}

/// Everything set-up builds: the corpus and the campaign spec over it.
struct Fixture {
    dir: PathBuf,
    pattern: Vec<bool>,
    specs: Vec<TraceSpec>,
    names: Vec<String>,
    spec: CampaignSpec,
    scenario_seed: u64,
    add_ms: Vec<f64>,
    input_digest: String,
}

fn setup(ctx: &Ctx, dir: &Path) -> Result<Fixture, Box<dyn Error>> {
    let pattern = paper_pattern();
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir)?;
    let mut specs = Vec::new();
    let mut names = Vec::new();
    let mut add_ms = Vec::new();
    let mut inputs = Fnv::default();
    for i in 0..TRACES {
        let spec = TraceSpec::seeded(ctx.seed, i as u64, pattern.len());
        let samples = spec.samples(&pattern, CYCLES);
        digest_trace(&mut inputs, &samples);
        let name = format!("t{i:02}");
        let (added, ms) = timed(|| {
            corpus
                .add(&name, TraceHeader::bare(0), &samples)
                .map(|_| ())
        });
        added?;
        add_ms.push(ms);
        specs.push(spec);
        names.push(name);
    }
    let spec = CampaignSpec::new(&corpus_dir, pattern.clone(), names.clone());
    Ok(Fixture {
        dir: dir.to_path_buf(),
        pattern,
        specs,
        names,
        spec,
        scenario_seed: sub_seed(ctx.seed, 0x5ce7, 0),
        add_ms,
        input_digest: inputs.hex(),
    })
}

/// The `report.json` of an uninterrupted campaign over the corpus, which
/// the resumed campaign must match. It is verification, not set-up of the
/// program, so it runs after the timed set-ups.
fn reference_report(fx: &Fixture) -> Result<Vec<u8>, String> {
    let dir = fx.dir.join("reference");
    let run = || -> Result<Vec<u8>, Box<dyn Error>> {
        let status = Campaign::create(&dir, fx.spec.clone())?
            .with_threads(THREADS)
            .run(&CampaignLimits::none())?;
        if !status.is_complete() {
            return Err(format!("reference campaign stopped early: {status}").into());
        }
        Ok(fs::read(dir.join("report.json"))?)
    };
    run().map_err(|e| e.to_string())
}

/// Flushes every file under `dir` to disk, so the kernel does not write
/// set-up's files back while the rounds are timed.
fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

/// Span and counter growth over one campaign mode (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
struct Obs {
    jobs: u64,
    job_ms: f64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    bytes_read: u64,
}

fn observe<T>(f: impl FnOnce() -> T) -> (T, Obs) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    let (jobs, job_ms) = span_delta(&before, &after, "campaign.job");
    (
        out,
        Obs {
            jobs,
            job_ms,
            checkpoints: counter_delta(&before, &after, "campaign.checkpoints_written"),
            checkpoint_bytes: counter_delta(&before, &after, "campaign.checkpoint_bytes"),
            bytes_read: counter_delta(&before, &after, "corpus.bytes_read"),
        },
    )
}

/// What one round measured beyond its wall time.
#[derive(Debug, Default, Clone)]
struct Round {
    landed: u64,
    resume_ms: f64,
    fixed: Obs,
    sequential: Obs,
    scenario: Obs,
    consumed_cycles: u64,
    scenario_report: Vec<u8>,
}

impl Round {
    fn all(&self) -> Obs {
        let modes = [self.fixed, self.sequential, self.scenario];
        Obs {
            jobs: modes.iter().map(|o| o.jobs).sum(),
            job_ms: modes.iter().map(|o| o.job_ms).sum(),
            checkpoints: modes.iter().map(|o| o.checkpoints).sum(),
            checkpoint_bytes: modes.iter().map(|o| o.checkpoint_bytes).sum(),
            bytes_read: modes.iter().map(|o| o.bytes_read).sum(),
        }
    }
}

/// Records `jobs` operations that all failed or all succeeded.
fn record_jobs(ledger: &mut Ledger, what: &str, jobs: usize, outcome: Result<(), String>) {
    for _ in 0..jobs {
        ledger.record(what, outcome.clone());
    }
}

fn run_round(
    fx: &Fixture,
    reference: &Result<Vec<u8>, String>,
    dir: &Path,
    first_scenario: Option<&[u8]>,
    ledger: &mut Ledger,
) -> Result<Round, Box<dyn Error>> {
    let mut round = Round::default();
    let jobs = fx.names.len();

    // 1. Fixed budget: cut short once, resumed to completion.
    let fixed_dir = dir.join("fixed");
    let (outcome, fixed) = observe(|| -> Result<f64, Box<dyn Error>> {
        let campaign = Campaign::create(&fixed_dir, fx.spec.clone())?.with_threads(THREADS);
        campaign.run(&CampaignLimits {
            max_jobs: Some(CUT_JOBS),
            interrupt_job_after_cycles: Some(CUT_CYCLES),
        })?;
        let t = Instant::now();
        let status = Campaign::open(&fixed_dir)?
            .with_threads(THREADS)
            .run(&CampaignLimits::none())?;
        let resume_ms = ms_since(t);
        if !status.is_complete() {
            return Err(format!("resumed campaign stopped early: {status}").into());
        }
        Ok(resume_ms)
    });
    round.fixed = fixed;
    let checked = outcome.map_err(|e| e.to_string()).and_then(|resume_ms| {
        round.resume_ms = resume_ms;
        round.landed += jobs as u64;
        let report = fs::read(fixed_dir.join("report.json")).map_err(|e| e.to_string())?;
        match reference {
            Ok(r) if *r == report => Ok(()),
            Ok(_) => {
                Err("resumed report.json differs from the uninterrupted reference".to_string())
            }
            Err(e) => Err(format!("no uninterrupted reference to compare with: {e}")),
        }
    });
    record_jobs(ledger, "resumed campaign", jobs, checked);

    // 2. Sequential early termination.
    let seq_spec = fx
        .spec
        .clone()
        .with_sequential(SequentialOptions::default());
    let (outcome, sequential) = observe(|| -> Result<_, Box<dyn Error>> {
        let campaign = Campaign::create(dir.join("sequential"), seq_spec)?.with_threads(THREADS);
        let status = campaign.run(&CampaignLimits::none())?;
        if !status.is_complete() {
            return Err(format!("sequential campaign stopped early: {status}").into());
        }
        Ok(campaign.completed_outcomes()?)
    });
    round.sequential = sequential;
    match outcome {
        Ok(outcomes) if outcomes.len() == jobs => {
            round.landed += jobs as u64;
            for o in &outcomes {
                round.consumed_cycles += o.cycles;
                let truth = &fx.specs[o.index];
                ledger.record(
                    "sequential job",
                    check_truth(
                        truth.marked,
                        truth.phase % fx.pattern.len(),
                        &o.result,
                        truth,
                    ),
                );
            }
        }
        Ok(outcomes) => record_jobs(
            ledger,
            "sequential campaign",
            jobs,
            Err(format!("{} outcomes for {jobs} jobs", outcomes.len())),
        ),
        Err(e) => record_jobs(ledger, "sequential campaign", jobs, Err(e.to_string())),
    }

    // 3. Attack × defense scenario matrix.
    let mut matrix = ScenarioMatrix::new(&fx.spec.corpus, fx.pattern.clone(), fx.names.clone());
    matrix.attacks = attacks();
    matrix.defenses = defenses();
    matrix.snrs = vec![1.0];
    matrix.amplitude_watts = AMP_WATTS;
    matrix.noise_watts = NOISE_WATTS;
    matrix.seed = fx.scenario_seed;
    let scenario_jobs = matrix.cells().len() * jobs;
    let scenario_dir = dir.join("scenario");
    let (outcome, scenario) = observe(|| -> Result<Vec<u8>, Box<dyn Error>> {
        let campaign = ScenarioCampaign::create(&scenario_dir, matrix)?.with_threads(THREADS);
        let status = campaign.run(&CampaignLimits::none())?;
        if !status.is_complete() {
            return Err("scenario campaign stopped early".into());
        }
        Ok(fs::read(scenario_dir.join("report.json"))?)
    });
    round.scenario = scenario;
    let checked = outcome.map_err(|e| e.to_string()).and_then(|report| {
        let same = first_scenario.is_none_or(|first| first == report.as_slice());
        round.scenario_report = report;
        round.landed += scenario_jobs as u64;
        if same {
            Ok(())
        } else {
            Err("scenario report.json differs from the first round's".to_string())
        }
    });
    record_jobs(ledger, "scenario campaign", scenario_jobs, checked);
    Ok(round)
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) -> Result<Run, Box<dyn Error>> {
    let mut out = Run::default();
    let mut fixture: Option<Fixture> = None;
    for rep in 0..ctx.setup_reps {
        if let Some(old) = fixture.take() {
            fs::remove_dir_all(&old.dir)?;
        }
        let (fx, ms) = timed(|| setup(ctx, &ctx.work.join(format!("setup{rep}"))));
        out.e2e.setup_s.push(ms / 1e3);
        fixture = Some(fx?);
    }
    let fx = fixture.expect("at least one set-up");
    let reference = reference_report(&fx);
    sync_tree(&fx.dir)?;

    // Round directories stay until the run ends (the caller removes the
    // whole work directory), so deleting one round's files does not load
    // the disk while the next round is timed.
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < ctx.seconds {
        let dir = ctx.work.join(format!("round{}", rounds.len()));
        let first = rounds.first().map(|r| r.scenario_report.as_slice());
        let t = Instant::now();
        let round = run_round(&fx, &reference, &dir, first, ledger)?;
        out.e2e.latencies_ms.push(ms_since(t));
        out.e2e.completed += round.landed;
        rounds.push(round);
    }
    out.e2e.wall_s = start.elapsed().as_secs_f64();
    let landed: u64 = rounds.iter().map(|r| r.landed).sum();
    out.notes.push(format!(
        "input digest {}; {} rounds ({:.0?} ms), {landed} jobs landed; reference report {} bytes",
        fx.input_digest,
        rounds.len(),
        out.e2e.latencies_ms,
        reference.as_ref().map_or(0, Vec::len)
    ));
    if ctx.traced {
        out.layers = layers(&fx, &rounds, &out.e2e.latencies_ms)?;
    }
    Ok(out)
}

/// The per-layer breakdown of a traced run: program spans and counters
/// per round, plus from-outside timings of the layers on the same traces.
fn layers(fx: &Fixture, rounds: &[Round], round_ms: &[f64]) -> Result<Vec<Metric>, Box<dyn Error>> {
    let corpus = Corpus::open(&fx.spec.corpus)?;
    let detector = Detector::new(&fx.pattern)?;
    let jitter = attacks()[1].build();
    let (mut read, mut detect, mut sequential, mut attack) = (vec![], vec![], vec![], vec![]);
    for (i, (name, trace)) in fx.names.iter().zip(&fx.specs).enumerate() {
        read.push(time_corpus_read(&corpus, name, fx.spec.chunk_cycles)?);
        let samples = trace.samples(&fx.pattern, CYCLES);
        let (d, ms) = timed(|| detector.detect(&samples));
        d?;
        detect.push(ms);
        let (d, ms) = timed(|| detector.detect_sequential(&samples, SequentialOptions::default()));
        d?;
        sequential.push(ms);
        let mut copy = samples.clone();
        let ctx = AttackContext {
            seed: sub_seed(fx.scenario_seed, 0xa77, i as u64),
            pattern: &fx.pattern,
        };
        let ((), ms) = timed(|| jitter.apply(&ctx, &mut copy));
        attack.push(ms);
    }

    let n = rounds.len() as f64;
    let all: Vec<Obs> = rounds.iter().map(Round::all).collect();
    let per_round = |f: fn(&Obs) -> u64| all.iter().map(f).sum::<u64>() as f64 / n;
    let spans: u64 = all.iter().map(|o| o.jobs).sum();
    let span_ms: f64 = all.iter().map(|o| o.job_ms).sum();
    let fixed_ms: f64 = rounds.iter().map(|r| r.fixed.job_ms).sum();
    let fixed_jobs = (rounds.len() * fx.names.len()) as f64;
    let wall: f64 = round_ms.iter().sum();
    let named = span_ms / THREADS as f64;
    let consumed: u64 = rounds.iter().map(|r| r.consumed_cycles).sum();
    Ok(vec![
        Metric::new("cpa.detect_ms", median(&detect), "ms"),
        Metric::new("cpa.sequential_ms", median(&sequential), "ms"),
        Metric::new(
            "cpa.budget_fraction",
            consumed as f64 / (fixed_jobs * CYCLES as f64),
            "fraction",
        ),
        Metric::new("corpus.add_ms", median(&fx.add_ms), "ms"),
        Metric::new("corpus.read_ms", median(&read), "ms"),
        Metric::new("corpus.bytes_read", per_round(|o| o.bytes_read), "bytes"),
        Metric::new("campaign.job_ms", span_ms / spans.max(1) as f64, "ms"),
        Metric::new(
            "campaign.persist_ms",
            fixed_ms / fixed_jobs - median(&read) - median(&detect),
            "ms",
        ),
        Metric::new(
            "campaign.resume_ms",
            median(&rounds.iter().map(|r| r.resume_ms).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::new(
            "campaign.checkpoints_written",
            per_round(|o| o.checkpoints),
            "count",
        ),
        Metric::new(
            "campaign.checkpoint_bytes",
            per_round(|o| o.checkpoint_bytes),
            "bytes",
        ),
        Metric::new("attack.apply_ms", median(&attack), "ms"),
        Metric::new("campaign_corpus.unattributed_ms", (wall - named) / n, "ms"),
        Metric::new("campaign_corpus.coverage_pct", named / wall * 100.0, "%"),
    ])
}
