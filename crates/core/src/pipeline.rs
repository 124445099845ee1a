use crate::{ClockmarkError, EmbeddedWatermark, WatermarkArchitecture};
use clockmark_cpa::{DetectionCriterion, DetectionResult, Detector, SpreadSpectrum};
use clockmark_measure::Acquisition;
use clockmark_netlist::Netlist;
use clockmark_power::{EnergyLibrary, Frequency, Power, PowerModel, PowerTrace};
use clockmark_sim::{CycleSim, SignalDriver};
use clockmark_soc::Soc;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which test chip provides the background activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChipModel {
    /// No background — the watermark alone (useful for calibration).
    Bare,
    /// The Cortex-M0-class SoC running the Dhrystone-like benchmark.
    ChipI,
    /// Chip I plus the always-clocked dual Cortex-A5-class cluster.
    ChipII,
    /// Chip I running an explicit workload (workload-sensitivity studies).
    ChipIWith(clockmark_soc::Workload),
    /// Chip II running an explicit workload.
    ChipIIWith(clockmark_soc::Workload),
}

impl ChipModel {
    fn build(self) -> Result<Option<Soc>, ClockmarkError> {
        Ok(match self {
            ChipModel::Bare => None,
            ChipModel::ChipI => Some(Soc::chip_i()?),
            ChipModel::ChipII => Some(Soc::chip_ii()?),
            ChipModel::ChipIWith(workload) => Some(Soc::chip_i_with(workload)?),
            ChipModel::ChipIIWith(workload) => Some(Soc::chip_ii_with(workload)?),
        })
    }
}

/// A complete detection experiment: embed → simulate → digitise → correlate.
///
/// Reproduces the measurement procedure of Section IV: the chip runs its
/// workload with the watermark circuit active (or disabled, for the
/// control), the oscilloscope averages 50 samples per clock cycle over
/// `cycles` cycles into the vector `Y`, and rotational CPA produces the
/// spread spectrum whose single peak (or absence) is the result.
///
/// ```
/// # fn main() -> Result<(), clockmark::ClockmarkError> {
/// use clockmark::{ClockModulationWatermark, Experiment, WgcConfig};
///
/// // A fast, reduced-noise experiment for CI-scale runs.
/// let experiment = Experiment::quick(20_000, 7);
/// let arch = ClockModulationWatermark {
///     wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
///     ..ClockModulationWatermark::paper()
/// };
/// let outcome = experiment.run(&arch)?;
/// assert!(outcome.detection.detected);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Background configuration.
    pub chip: ChipModel,
    /// Clock cycles in the measured vector `Y` (300,000 in the paper).
    pub cycles: usize,
    /// Device clock (10 MHz in the paper).
    pub f_clk: Frequency,
    /// Measurement chain.
    pub acquisition: Acquisition,
    /// Cell energy library.
    pub library: EnergyLibrary,
    /// Whether the watermark circuit is enabled (the paper's control
    /// experiments disable it).
    pub watermark_enabled: bool,
    /// Cycles the chip runs before the scope triggers; sets where the
    /// correlation peak lands in the spread spectrum.
    pub phase_offset: usize,
    /// RNG seed for noise and background (repetitions vary this).
    pub seed: u64,
    /// Peak-resolution rule.
    pub criterion: DetectionCriterion,
}

impl Experiment {
    /// The paper's chip-I experiment: 300,000 cycles at 10 MHz, full-noise
    /// chain, trigger offset placing the peak near rotation 3,800
    /// (Fig. 5a).
    pub fn paper_chip_i() -> Self {
        Experiment {
            chip: ChipModel::ChipI,
            cycles: 300_000,
            f_clk: Frequency::from_megahertz(10.0),
            acquisition: Acquisition::paper_chain(Frequency::from_megahertz(10.0)),
            library: EnergyLibrary::tsmc65ll(),
            watermark_enabled: true,
            phase_offset: 3_800,
            seed: 1,
            criterion: DetectionCriterion::default(),
        }
    }

    /// The paper's chip-II experiment (peak near rotation 2,400, Fig. 5c).
    pub fn paper_chip_ii() -> Self {
        Experiment {
            chip: ChipModel::ChipII,
            phase_offset: 2_400,
            ..Self::paper_chip_i()
        }
    }

    /// A reduced experiment for tests and quick demos: fewer cycles and a
    /// quieter probe (a bench-top low-noise setup) so detection works with
    /// short traces.
    pub fn quick(cycles: usize, seed: u64) -> Self {
        let mut acquisition = Acquisition::paper_chain(Frequency::from_megahertz(10.0));
        acquisition.scope = acquisition.scope.with_vertical_noise(15e-3);
        Experiment {
            chip: ChipModel::ChipI,
            cycles,
            f_clk: Frequency::from_megahertz(10.0),
            acquisition,
            library: EnergyLibrary::tsmc65ll(),
            watermark_enabled: true,
            phase_offset: 137,
            seed,
            criterion: DetectionCriterion::default(),
        }
    }

    /// Returns a copy with the watermark circuit disabled (the Fig. 5b/5d
    /// control).
    pub fn disabled(mut self) -> Self {
        self.watermark_enabled = false;
        self
    }

    /// Returns a copy with a different seed (for repetition studies).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the full pipeline for one architecture.
    ///
    /// # Errors
    ///
    /// Returns configuration errors eagerly and propagates substrate
    /// failures.
    pub fn run<A: WatermarkArchitecture + ?Sized>(
        &self,
        architecture: &A,
    ) -> Result<ExperimentOutcome, ClockmarkError> {
        if self.cycles == 0 {
            return Err(ClockmarkError::ZeroCycles);
        }

        // 1. Build the watermarked netlist.
        let (netlist, watermark) = {
            let _span = clockmark_obs::span("experiment.embed");
            let mut netlist = Netlist::new();
            let clk = netlist.add_clock_root("clk");
            let watermark = architecture.embed(&mut netlist, clk.into())?;
            (netlist, watermark)
        };
        self.run_embedded(&netlist, &watermark)
    }

    /// Runs the pipeline on an already-embedded watermark (used by the
    /// reuse scenario, where the caller also built the functional block).
    ///
    /// External signals other than the watermark enable are left undriven
    /// (they read as constant low); use
    /// [`run_embedded_with`](Experiment::run_embedded_with) to supply
    /// drivers for them.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn run_embedded(
        &self,
        netlist: &Netlist,
        watermark: &EmbeddedWatermark,
    ) -> Result<ExperimentOutcome, ClockmarkError> {
        self.run_embedded_with(netlist, watermark, Vec::new())
    }

    /// Runs the pipeline up to (and including) digitisation, returning
    /// the measured vector `Y` itself rather than its correlation — what
    /// a corpus build persists so detection can be replayed later,
    /// offline, and as many times as needed.
    ///
    /// [`run`](Experiment::run) is exactly this plus rotational CPA, so a
    /// stored measurement re-analysed with a
    /// [`Detector`](clockmark_cpa::Detector) — batch, streaming or via
    /// [`detect_trace`](clockmark_cpa::Detector::detect_trace) —
    /// reproduces the live outcome bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns configuration errors eagerly and propagates substrate
    /// failures.
    pub fn run_measured<A: WatermarkArchitecture + ?Sized>(
        &self,
        architecture: &A,
    ) -> Result<MeasuredRun, ClockmarkError> {
        if self.cycles == 0 {
            return Err(ClockmarkError::ZeroCycles);
        }
        let _span = clockmark_obs::span("experiment.measure")
            .field("cycles", self.cycles)
            .field("seed", self.seed);
        let (netlist, watermark) = {
            let _span = clockmark_obs::span("experiment.embed");
            let mut netlist = Netlist::new();
            let clk = netlist.add_clock_root("clk");
            let watermark = architecture.embed(&mut netlist, clk.into())?;
            (netlist, watermark)
        };
        self.measure_embedded_with(&netlist, &watermark, Vec::new())
    }

    /// Like [`run_embedded`](Experiment::run_embedded) but with additional
    /// external-signal drivers (e.g. the functional enables of a reused IP
    /// block).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn run_embedded_with(
        &self,
        netlist: &Netlist,
        watermark: &EmbeddedWatermark,
        extra_drivers: Vec<(clockmark_netlist::SignalId, SignalDriver)>,
    ) -> Result<ExperimentOutcome, ClockmarkError> {
        if self.cycles == 0 {
            return Err(ClockmarkError::ZeroCycles);
        }
        let _run_span = clockmark_obs::span("experiment.run")
            .field("cycles", self.cycles)
            .field("seed", self.seed)
            .field("enabled", self.watermark_enabled);
        clockmark_obs::counter_add("experiment.runs", 1);
        let run = self.measure_embedded_with(netlist, watermark, extra_drivers)?;
        run.analyse(&self.criterion).map_err(ClockmarkError::from)
    }

    /// The shared measurement chain: simulate → price → add background →
    /// digitise. Both [`run_embedded_with`](Experiment::run_embedded_with)
    /// and [`run_measured`](Experiment::run_measured) end up here.
    fn measure_embedded_with(
        &self,
        netlist: &Netlist,
        watermark: &EmbeddedWatermark,
        extra_drivers: Vec<(clockmark_netlist::SignalId, SignalDriver)>,
    ) -> Result<MeasuredRun, ClockmarkError> {
        let mut rng = StdRng::seed_from_u64(self.seed);

        // 2. Simulate the watermark circuit's switching activity.
        let activity = {
            let _span =
                clockmark_obs::span("experiment.simulate").field("phase_offset", self.phase_offset);
            let mut sim = CycleSim::new(netlist)?;
            sim.drive(
                watermark.enable,
                SignalDriver::Constant(self.watermark_enabled),
            )?;
            for (signal, driver) in extra_drivers {
                sim.drive(signal, driver)?;
            }
            for _ in 0..self.phase_offset {
                sim.step();
            }
            sim.run(self.cycles)?
        };

        // 3. Price it, including leakage of every register on the die.
        let _power_span = clockmark_obs::span("experiment.power");
        let model = PowerModel::new(self.library, self.f_clk);
        let mut chip_power = model.trace(&activity);
        chip_power.add_offset(model.static_power(netlist.register_count()));
        let watermark_power = model.group_trace(&activity, watermark.group);
        drop(_power_span);

        // 4. Add the SoC background.
        let _bg_span = clockmark_obs::span("experiment.background");
        let background = match self.chip.build()? {
            Some(mut soc) => soc.run(self.cycles, &mut rng)?,
            None => PowerTrace::constant(Power::ZERO, self.cycles),
        };
        let total = chip_power.checked_add(&background)?;
        drop(_bg_span);

        // 5. Digitise through the shunt + scope chain.
        let measured = self.acquisition.acquire(&total, &mut rng);

        Ok(MeasuredRun {
            measured,
            pattern: watermark.pattern.clone(),
            watermark_mean: watermark_power.mean(),
            watermark_peak: watermark_power.max().unwrap_or(Power::ZERO),
            background_mean: background.mean(),
            background_std: background.std_dev(),
            total_mean: total.mean(),
            cycles: self.cycles,
            expected_peak_rotation: self.phase_offset % watermark.period().max(1),
        })
    }
}

/// The digitised output of one experiment, before correlation.
///
/// Holds the measured per-cycle vector `Y` (what an oscilloscope capture
/// yields in the lab, and what a trace corpus stores on disk) together
/// with the watermark pattern and the power summary collected along the
/// way. Calling [`analyse`](MeasuredRun::analyse) finishes the job and is
/// bit-identical to having used [`Experiment::run`] directly.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// The measured per-cycle vector `Y`.
    pub measured: clockmark_measure::MeasuredTrace,
    /// One period of the watermark sequence (the model vector `X`).
    pub pattern: Vec<bool>,
    /// Mean power of the watermark circuit over the run.
    pub watermark_mean: Power,
    /// Peak per-cycle power of the watermark circuit.
    pub watermark_peak: Power,
    /// Mean background (SoC) power.
    pub background_mean: Power,
    /// Cycle-to-cycle standard deviation of the background.
    pub background_std: Power,
    /// Mean total chip power.
    pub total_mean: Power,
    /// Cycles measured.
    pub cycles: usize,
    /// Where the peak should land given the trigger offset.
    pub expected_peak_rotation: usize,
}

impl MeasuredRun {
    /// Step 6 of the pipeline: rotational CPA against the expected
    /// sequence, turning the raw measurement into a detection verdict.
    ///
    /// The spectrum kernel is whatever the [`Detector`] facade resolves
    /// from the work heuristic (FFT at paper scale, folded below). Every kernel
    /// reports a bit-identical peak, so the verdict does not depend on
    /// the choice (see `docs/cpa-fft.md`).
    ///
    /// # Errors
    ///
    /// Returns a [`CpaError`](clockmark_cpa::CpaError) when the
    /// measurement is too short for one watermark period or the pattern
    /// is degenerate.
    pub fn analyse(
        &self,
        criterion: &DetectionCriterion,
    ) -> Result<ExperimentOutcome, clockmark_cpa::CpaError> {
        let spectrum = Detector::new(&self.pattern)?.spectrum(self.measured.as_watts())?;
        let detection = spectrum.detect(criterion);
        if clockmark_obs::enabled() {
            clockmark_obs::counter_add("experiment.detections", u64::from(detection.detected));
            clockmark_obs::observe("detect.peak_rho_abs", detection.peak_rho.abs());
            clockmark_obs::observe("detect.margin", detection.ratio);
            clockmark_obs::observe("detect.zscore", detection.zscore);
        }

        let p_value = spectrum.peak_p_value(self.cycles);
        Ok(ExperimentOutcome {
            detection,
            p_value,
            spectrum,
            watermark_mean: self.watermark_mean,
            watermark_peak: self.watermark_peak,
            background_mean: self.background_mean,
            background_std: self.background_std,
            total_mean: self.total_mean,
            cycles: self.cycles,
            expected_peak_rotation: self.expected_peak_rotation,
        })
    }
}

/// Everything one experiment run produced.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The detection decision and its statistics.
    pub detection: DetectionResult,
    /// The probability that pure noise would produce a peak at least this
    /// large (see
    /// [`peak_false_positive_probability`](clockmark_cpa::peak_false_positive_probability)).
    pub p_value: f64,
    /// The full per-rotation spread spectrum (Fig. 5 panel data).
    pub spectrum: SpreadSpectrum,
    /// Mean power of the watermark circuit over the run.
    pub watermark_mean: Power,
    /// Peak per-cycle power of the watermark circuit.
    pub watermark_peak: Power,
    /// Mean background (SoC) power.
    pub background_mean: Power,
    /// Cycle-to-cycle standard deviation of the background.
    pub background_std: Power,
    /// Mean total chip power.
    pub total_mean: Power,
    /// Cycles measured.
    pub cycles: usize,
    /// Where the peak should land given the trigger offset.
    pub expected_peak_rotation: usize,
}

impl std::fmt::Display for ExperimentOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} (p = {:.2e})", self.detection, self.p_value)?;
        writeln!(
            f,
            "watermark: mean {} / peak {}; background: {} ± {}; total: {}",
            self.watermark_mean,
            self.watermark_peak,
            self.background_mean,
            self.background_std,
            self.total_mean,
        )?;
        write!(
            f,
            "cycles: {}; expected peak rotation: {}",
            self.cycles, self.expected_peak_rotation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockModulationWatermark, LoadCircuitWatermark, WgcConfig};

    fn small_arch() -> ClockModulationWatermark {
        ClockModulationWatermark {
            words: 32,
            regs_per_word: 32,
            switching_registers: 0,
            wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
        }
    }

    #[test]
    fn quick_experiment_detects_and_places_the_peak() {
        let experiment = Experiment::quick(12_000, 3);
        let outcome = experiment.run(&small_arch()).expect("runs");
        assert!(outcome.detection.detected, "{outcome}");
        assert_eq!(
            outcome.detection.peak_rotation, outcome.expected_peak_rotation,
            "{outcome}"
        );
    }

    #[test]
    fn disabled_watermark_is_not_detected() {
        let experiment = Experiment::quick(12_000, 4).disabled();
        let outcome = experiment.run(&small_arch()).expect("runs");
        assert!(!outcome.detection.detected, "{outcome}");
    }

    #[test]
    fn watermark_power_matches_duty_cycle() {
        // Mean watermark power ≈ amplitude × duty (≈ 50 % for an
        // m-sequence) plus the small free-running WGC contribution.
        let experiment = Experiment::quick(8_000, 5);
        let outcome = experiment.run(&small_arch()).expect("runs");
        let model = PowerModel::new(EnergyLibrary::tsmc65ll(), experiment.f_clk);
        let amplitude = small_arch().signal_amplitude(&model);
        let duty_power = outcome.watermark_mean / amplitude;
        assert!(
            (0.45..0.65).contains(&duty_power),
            "duty-scaled power {duty_power}"
        );
        assert!(outcome.watermark_peak >= amplitude * 0.99);
    }

    #[test]
    fn load_circuit_is_also_detectable() {
        let experiment = Experiment::quick(12_000, 6);
        let arch = LoadCircuitWatermark {
            load_registers: 576,
            regs_per_gate: 32,
            clock_gated: true,
            wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
        };
        let outcome = experiment.run(&arch).expect("runs");
        assert!(outcome.detection.detected, "{outcome}");
    }

    #[test]
    fn zero_cycles_is_rejected() {
        let mut experiment = Experiment::quick(0, 1);
        assert!(matches!(
            experiment.run(&small_arch()),
            Err(ClockmarkError::ZeroCycles)
        ));
        experiment.cycles = 1;
        // One cycle is too short for CPA but must fail gracefully, not
        // panic.
        assert!(experiment.run(&small_arch()).is_err());
    }

    #[test]
    fn p_values_separate_active_from_inactive() {
        let active = Experiment::quick(12_000, 20)
            .run(&small_arch())
            .expect("runs");
        let inactive = Experiment::quick(12_000, 21)
            .disabled()
            .run(&small_arch())
            .expect("runs");
        assert!(active.p_value < 1e-6, "active p {}", active.p_value);
        assert!(inactive.p_value > 1e-3, "inactive p {}", inactive.p_value);
        assert!(active.to_string().contains("p ="));
    }

    #[test]
    fn repetitions_with_different_seeds_vary_but_agree() {
        let a = Experiment::quick(10_000, 10)
            .run(&small_arch())
            .expect("runs");
        let b = Experiment::quick(10_000, 11)
            .run(&small_arch())
            .expect("runs");
        assert!(a.detection.detected && b.detection.detected);
        assert_eq!(a.detection.peak_rotation, b.detection.peak_rotation);
        assert_ne!(a.detection.peak_rho, b.detection.peak_rho);
    }

    #[test]
    fn measured_run_plus_analyse_matches_run_bit_for_bit() {
        // The corpus path — capture Y, store it, re-analyse later — must
        // agree exactly with the all-in-one pipeline.
        let experiment = Experiment::quick(10_000, 8);
        let direct = experiment.run(&small_arch()).expect("runs");
        let measured = experiment.run_measured(&small_arch()).expect("measures");
        let replayed = measured.analyse(&experiment.criterion).expect("analyses");
        assert_eq!(
            direct.detection.peak_rho.to_bits(),
            replayed.detection.peak_rho.to_bits()
        );
        assert_eq!(direct.detection, replayed.detection);
        assert_eq!(direct.spectrum.rho(), replayed.spectrum.rho());
        assert_eq!(direct.p_value.to_bits(), replayed.p_value.to_bits());
        assert_eq!(measured.measured.as_watts().len(), 10_000);
        assert_eq!(measured.cycles, 10_000);
    }

    #[test]
    fn bare_chip_has_no_background() {
        let mut experiment = Experiment::quick(12_000, 12);
        experiment.chip = ChipModel::Bare;
        let outcome = experiment.run(&small_arch()).expect("runs");
        assert_eq!(outcome.background_mean, Power::ZERO);
        assert!(outcome.detection.detected);
    }
}
