//! `paper_pipeline`: one caller running paper-scale `Experiment::run`
//! (N = 300,000 cycles, P = 4,095) in a closed loop, alternating chip I
//! and chip II, watermark enabled and disabled, with seeded `seed`s.
//!
//! The traced run replays `Experiment::run`'s composition from public
//! calls — `embed`, `CycleSim::run`, `PowerModel::trace`, `Soc::run`,
//! `Acquisition::acquire`, `Detector::detect` — timing each, and checks
//! that its verdict bits equal `Experiment::run` on the same seed.

use crate::layers::{check_truth, ms_since, timed, Ledger, Run};
use crate::stats::{median, Fnv, Metric};
use crate::synth::sub_seed;
use crate::Ctx;
use clockmark::{ClockModulationWatermark, Experiment, WatermarkArchitecture};
use clockmark_cpa::{DetectionResult, Detector};
use clockmark_netlist::Netlist;
use clockmark_power::PowerModel;
use clockmark_sim::{CycleSim, SignalDriver};
use clockmark_soc::Soc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::time::Instant;

/// Verdicts covered by the short digest (one chip × enable cycle).
const DIGEST_PREFIX: usize = 4;

/// The `index`-th experiment of a run.
#[derive(Debug, Clone, Copy)]
struct Config {
    chip_ii: bool,
    enabled: bool,
    seed: u64,
}

impl Config {
    fn seeded(seed: u64, index: usize) -> Self {
        Config {
            chip_ii: index % 2 == 1,
            enabled: index % 4 < 2,
            seed: sub_seed(seed, 0x9a9e, index as u64),
        }
    }

    fn experiment(&self) -> Experiment {
        let base = if self.chip_ii {
            Experiment::paper_chip_ii()
        } else {
            Experiment::paper_chip_i()
        };
        let exp = base.with_seed(self.seed);
        if self.enabled {
            exp
        } else {
            exp.disabled()
        }
    }
}

fn verdict_bits(fnv: &mut Fnv, d: &DetectionResult) {
    fnv.u64(u64::from(d.detected))
        .u64(d.peak_rotation as u64)
        .f64(d.peak_rho)
        .f64(d.floor_max_abs)
        .f64(d.ratio)
        .f64(d.zscore);
}

fn same_bits(a: &DetectionResult, b: &DetectionResult) -> bool {
    let (mut x, mut y) = (Fnv::default(), Fnv::default());
    verdict_bits(&mut x, a);
    verdict_bits(&mut y, b);
    x.hex() == y.hex()
}

/// Runs one experiment end to end, checking its verdict.
fn run_checked(
    arch: &ClockModulationWatermark,
    cfg: &Config,
    ledger: &mut Ledger,
) -> Option<DetectionResult> {
    match cfg.experiment().run(arch) {
        Ok(out) => {
            ledger.record(
                "experiment",
                check_truth(cfg.enabled, out.expected_peak_rotation, &out.detection, cfg),
            );
            Some(out.detection)
        }
        Err(e) => {
            ledger.record("experiment", Err(e.to_string()));
            None
        }
    }
}

/// Set-up: the architecture and one warm-up experiment (chip I, enabled,
/// a seed no measured experiment uses), checked like any other.
fn setup(ctx: &Ctx, ledger: &mut Ledger) -> ClockModulationWatermark {
    let arch = ClockModulationWatermark::paper();
    let warm = Config {
        chip_ii: false,
        enabled: true,
        seed: sub_seed(ctx.seed, 0x9a9e, u64::MAX),
    };
    run_checked(&arch, &warm, ledger);
    arch
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) -> Result<Run, Box<dyn Error>> {
    if ctx.traced {
        return traced(ctx, ledger);
    }
    let mut out = Run::default();
    let mut arch = None;
    for _ in 0..ctx.setup_reps {
        let (a, ms) = timed(|| setup(ctx, ledger));
        out.e2e.setup_s.push(ms / 1e3);
        arch = Some(a);
    }
    let arch = arch.expect("at least one set-up");

    let (mut inputs, mut all, mut prefix) = (Fnv::default(), Fnv::default(), Fnv::default());
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < ctx.seconds {
        let cfg = Config::seeded(ctx.seed, i);
        inputs
            .u64(u64::from(cfg.chip_ii))
            .u64(u64::from(cfg.enabled))
            .u64(cfg.seed);
        let t = Instant::now();
        let verdict = run_checked(&arch, &cfg, ledger);
        out.e2e.latencies_ms.push(ms_since(t));
        if let Some(d) = verdict {
            verdict_bits(&mut all, &d);
            if i < DIGEST_PREFIX {
                verdict_bits(&mut prefix, &d);
            }
        }
        i += 1;
    }
    out.e2e.wall_s = start.elapsed().as_secs_f64();
    out.e2e.completed = i as u64;
    out.notes.push(format!(
        "input digest {}; verdict digest {} over {i} experiments; first {DIGEST_PREFIX}: {}",
        inputs.hex(),
        all.hex(),
        prefix.hex()
    ));
    Ok(out)
}

/// Per-call milliseconds of each layer of one decomposed experiment.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    embed: f64,
    sim: f64,
    power: f64,
    soc: f64,
    measure: f64,
    cpa: f64,
    wall: f64,
}

impl Split {
    fn named(&self) -> f64 {
        self.embed + self.sim + self.power + self.soc + self.measure + self.cpa
    }
}

/// `Experiment::run`'s composition, replayed from public calls with a
/// timer around each layer.
fn decompose(
    exp: &Experiment,
    chip_ii: bool,
    arch: &ClockModulationWatermark,
) -> Result<(DetectionResult, usize, Split), Box<dyn Error>> {
    let t0 = Instant::now();
    let mut s = Split::default();

    let t = Instant::now();
    let mut netlist = Netlist::new();
    let clk = netlist.add_clock_root("clk");
    let wm = arch.embed(&mut netlist, clk.into())?;
    s.embed = ms_since(t);

    let mut rng = StdRng::seed_from_u64(exp.seed);
    let t = Instant::now();
    let mut sim = CycleSim::new(&netlist)?;
    sim.drive(wm.enable, SignalDriver::Constant(exp.watermark_enabled))?;
    for _ in 0..exp.phase_offset {
        sim.step();
    }
    let activity = sim.run(exp.cycles)?;
    s.sim = ms_since(t);

    let t = Instant::now();
    let model = PowerModel::new(exp.library, exp.f_clk);
    let mut chip_power = model.trace(&activity);
    chip_power.add_offset(model.static_power(netlist.register_count()));
    let watermark_power = model.group_trace(&activity, wm.group);
    std::hint::black_box(&watermark_power);
    s.power = ms_since(t);

    let t = Instant::now();
    let mut soc = if chip_ii {
        Soc::chip_ii()?
    } else {
        Soc::chip_i()?
    };
    let background = soc.run(exp.cycles, &mut rng)?;
    let total = chip_power.checked_add(&background)?;
    s.soc = ms_since(t);

    let t = Instant::now();
    let measured = exp.acquisition.acquire(&total, &mut rng);
    s.measure = ms_since(t);

    let t = Instant::now();
    let spectrum = Detector::new(&wm.pattern)?.spectrum(measured.as_watts())?;
    let detection = spectrum.detect(&exp.criterion);
    s.cpa = ms_since(t);

    s.wall = ms_since(t0);
    Ok((detection, exp.phase_offset % wm.period().max(1), s))
}

fn traced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Run, Box<dyn Error>> {
    let mut out = Run::default();
    let arch = setup(ctx, ledger);

    // Each experiment runs end to end with the recorder on, then again
    // decomposed into its layers.
    let mut splits = Vec::new();
    let mut mismatches = 0;
    let start = Instant::now();
    while splits.is_empty() || start.elapsed() < ctx.seconds {
        let cfg = Config::seeded(ctx.seed, splits.len());
        let t = Instant::now();
        let verdict = run_checked(&arch, &cfg, ledger);
        out.e2e.latencies_ms.push(ms_since(t));
        let (d, expected, split) = decompose(&cfg.experiment(), cfg.chip_ii, &arch)?;
        let same = verdict.is_some_and(|v| same_bits(&v, &d));
        mismatches += u64::from(!same);
        ledger.record(
            "decomposition",
            if same {
                check_truth(cfg.enabled, expected, &d, &cfg)
            } else {
                Err(format!(
                    "{cfg:?}: decomposition {d} differs from Experiment::run"
                ))
            },
        );
        splits.push(split);
    }

    let col = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let exp = Experiment::paper_chip_i();
    let cycles = exp.cycles as f64;
    let samples = cycles * exp.acquisition.samples_per_cycle() as f64;
    let wall: f64 = splits.iter().map(|s| s.wall).sum();
    let named: f64 = splits.iter().map(Split::named).sum();
    out.layers = vec![
        Metric::new("pipeline.embed_ms", col(|s| s.embed), "ms"),
        Metric::new("sim.run_ms", col(|s| s.sim), "ms"),
        Metric::new("sim.ns_per_cycle", col(|s| s.sim) * 1e6 / cycles, "ns"),
        Metric::new("power.trace_ms", col(|s| s.power), "ms"),
        Metric::new("soc.background_ms", col(|s| s.soc), "ms"),
        Metric::new("measure.acquire_ms", col(|s| s.measure), "ms"),
        Metric::new(
            "measure.ns_per_sample",
            col(|s| s.measure) * 1e6 / samples,
            "ns",
        ),
        Metric::new("cpa.detect_ms", col(|s| s.cpa), "ms"),
        Metric::new(
            "paper_pipeline.unattributed_ms",
            (wall - named) / splits.len() as f64,
            "ms",
        ),
        Metric::new("paper_pipeline.coverage_pct", named / wall * 100.0, "%"),
    ];
    out.notes.push(format!(
        "decomposition reproduced Experiment::run's verdict bits on {} of {} experiments",
        splits.len() as u64 - mismatches,
        splits.len()
    ));
    Ok(out)
}
