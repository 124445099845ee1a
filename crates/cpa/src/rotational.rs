use crate::pearson::correlation_from_sums;
use crate::{CpaError, DetectionCriterion, DetectionResult};

/// The correlation spread spectrum: one Pearson coefficient per rotation of
/// the watermark model vector (Fig. 5 of the paper).
///
/// Rotation `r` models the hypothesis that the measurement started `r`
/// cycles into the watermark period: `Xᵢ = pattern[(i + r) mod P]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadSpectrum {
    rho: Vec<f64>,
}

impl SpreadSpectrum {
    pub(crate) fn from_rho(rho: Vec<f64>) -> Self {
        SpreadSpectrum { rho }
    }

    /// The per-rotation correlation coefficients.
    pub fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// The watermark period (number of rotations evaluated).
    pub fn period(&self) -> usize {
        self.rho.len()
    }

    /// The rotation with the largest *signed* coefficient, and its value.
    ///
    /// Detection statistics use [`peak_abs`](Self::peak_abs) instead, so an
    /// inverted watermark (power *drops* when the pattern bit is high, e.g.
    /// an attacker re-inverting the modulation polarity) is still found.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum is empty, which the constructors prevent.
    pub fn peak(&self) -> (usize, f64) {
        let (idx, &val) = self
            .rho
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("spectra are non-empty by construction");
        (idx, val)
    }

    /// The rotation whose coefficient has the largest magnitude, and its
    /// *signed* value — negative for an inverted watermark.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum is empty, which the constructors prevent.
    pub fn peak_abs(&self) -> (usize, f64) {
        let (idx, &val) = self
            .rho
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .expect("spectra are non-empty by construction");
        (idx, val)
    }

    /// Whether every coefficient is exactly zero — a zero-variance
    /// (constant) trace, where correlation is undefined and the
    /// correlation kernel reports 0 for every rotation. No peak can
    /// be resolved from such a spectrum.
    pub fn is_degenerate(&self) -> bool {
        self.rho.iter().all(|&r| r == 0.0)
    }

    /// Whether the spectrum has any off-peak rotations at all.
    ///
    /// A period-1 spectrum consists of nothing but its own peak:
    /// [`floor_mean`](SpreadSpectrum::floor_mean) and
    /// [`floor_std`](SpreadSpectrum::floor_std) report `0.0` and the
    /// peak-vs-floor statistics degenerate to infinities, so no criterion
    /// comparing the peak against a floor can be meaningfully evaluated.
    pub fn has_noise_floor(&self) -> bool {
        self.rho.len() >= 2
    }

    /// The largest absolute coefficient among all rotations *except* the
    /// magnitude peak — the noise floor the peak must clear to be
    /// "resolved".
    pub fn floor_max_abs(&self) -> f64 {
        let (peak_idx, _) = self.peak_abs();
        self.rho
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != peak_idx)
            .map(|(_, v)| v.abs())
            .fold(0.0, f64::max)
    }

    /// Mean of the non-peak coefficients.
    pub fn floor_mean(&self) -> f64 {
        let (peak_idx, _) = self.peak_abs();
        let n = self.rho.len() - 1;
        if n == 0 {
            return 0.0;
        }
        self.rho
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != peak_idx)
            .map(|(_, v)| v)
            .sum::<f64>()
            / n as f64
    }

    /// Population standard deviation of the non-peak coefficients.
    pub fn floor_std(&self) -> f64 {
        let (peak_idx, _) = self.peak_abs();
        let n = self.rho.len() - 1;
        if n == 0 {
            return 0.0;
        }
        let mean = self.floor_mean();
        let var = self
            .rho
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != peak_idx)
            .map(|(_, v)| (v - mean) * (v - mean))
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    /// Peak magnitude divided by the largest other absolute value. Greater
    /// than one means the peak stands above everything else.
    ///
    /// A degenerate (all-zero) spectrum has no peak at all and reports
    /// `0.0`, never a spurious infinity.
    pub fn peak_to_floor_ratio(&self) -> f64 {
        let (_, peak) = self.peak_abs();
        let peak = peak.abs();
        let floor = self.floor_max_abs();
        if peak == 0.0 {
            0.0
        } else if floor == 0.0 {
            f64::INFINITY
        } else {
            peak / floor
        }
    }

    /// How many floor standard deviations the peak magnitude stands away
    /// from the floor mean.
    ///
    /// A degenerate (all-zero) spectrum reports `0.0`; a peak coinciding
    /// with the floor mean likewise scores `0.0` even when the floor has no
    /// spread.
    pub fn peak_zscore(&self) -> f64 {
        let (_, peak) = self.peak_abs();
        let distance = (peak - self.floor_mean()).abs();
        let std = self.floor_std();
        if distance == 0.0 {
            0.0
        } else if std == 0.0 {
            f64::INFINITY
        } else {
            distance / std
        }
    }

    /// Applies a detection criterion, returning the full decision record.
    pub fn detect(&self, criterion: &DetectionCriterion) -> DetectionResult {
        criterion.evaluate(self)
    }
}

pub(crate) fn validate_inputs(pattern: &[bool], y: &[f64]) -> Result<(), CpaError> {
    let period = pattern.len();
    if period < 2 {
        return Err(CpaError::TooShort { len: period });
    }
    if y.len() < period {
        return Err(CpaError::TraceShorterThanPeriod {
            have: y.len(),
            need: period,
        });
    }
    let ones = pattern.iter().filter(|&&b| b).count();
    if ones == 0 || ones == period {
        return Err(CpaError::ConstantPattern);
    }
    Ok(())
}

/// The naive kernel's body: reference O(N·P) rotational CPA, the
/// Pearson correlation between `y` and every rotation of `pattern` tiled
/// to `y`'s length, exactly as the detection procedure in Section III
/// describes. Kept as the trusted reference the fast kernels are tested
/// against; reached through the [`Detector`](crate::Detector) facade
/// with `DetectOptions::with_algo(CpaAlgo::Naive)`. Callers validate
/// first.
pub(crate) fn naive_spectrum(pattern: &[bool], y: &[f64]) -> SpreadSpectrum {
    let period = pattern.len();
    let n = y.len();
    let mut rho = Vec::with_capacity(period);

    let nf = n as f64;
    let sy: f64 = y.iter().sum();
    let syy: f64 = y.iter().map(|v| v * v).sum();

    for r in 0..period {
        let mut sx = 0.0f64;
        let mut sxy = 0.0f64;
        for (i, &yi) in y.iter().enumerate() {
            if pattern[(i + r) % period] {
                sx += 1.0;
                sxy += yi;
            }
        }
        // For binary x, Σx² = Σx.
        rho.push(correlation_from_sums(nf, sx, sy, sx, syy, sxy));
    }
    SpreadSpectrum::from_rho(rho)
}

/// The rotation-invariant folded sums shared by the serial and parallel
/// spread-spectrum implementations.
///
/// Built once in O(N); each rotation's ρ is then an O(W) sum over the
/// folded arrays, so any partition of the rotation range performs exactly
/// the same arithmetic per rotation — the basis of the bit-identical
/// guarantee of [`spread_spectrum_parallel`](crate::spread_spectrum_parallel).
#[derive(Debug, Clone)]
pub(crate) struct FoldedTrace {
    nf: f64,
    sy: f64,
    syy: f64,
    /// Per-residue sums `c_k = Σ_{i ≡ k (mod P)} y_i`.
    c: Vec<f64>,
    /// Per-residue counts `m_k = |{i ≡ k (mod P)}|`.
    m: Vec<u64>,
    /// Indices of the ones in the pattern.
    ones: Vec<usize>,
}

impl FoldedTrace {
    /// Folds a validated measurement (callers run [`validate_inputs`] first).
    pub(crate) fn new(pattern: &[bool], y: &[f64]) -> Self {
        let period = pattern.len();
        let mut c = vec![0.0f64; period];
        let mut m = vec![0u64; period];
        let mut sy = 0.0f64;
        let mut syy = 0.0f64;
        // The chunked struct-of-arrays fold (`fold.rs`): each accumulator
        // still sees the samples in index order, so the sums are
        // bit-identical to the fused scalar loop this replaces.
        crate::fold::fold_samples(&mut c, &mut m, &mut sy, &mut syy, 0, y);
        FoldedTrace {
            nf: y.len() as f64,
            sy,
            syy,
            c,
            m,
            ones: (0..period).filter(|&j| pattern[j]).collect(),
        }
    }

    /// The watermark period.
    pub(crate) fn period(&self) -> usize {
        self.c.len()
    }

    /// The multiply-adds needed for the full spectrum (`P·W`); used to
    /// decide whether parallelism is worth the thread-spawn overhead.
    pub(crate) fn work(&self) -> usize {
        self.period().saturating_mul(self.ones.len())
    }

    /// Borrows the fold as the kernel-facing view the spectrum kernels
    /// in [`crate::kernel`] operate on.
    pub(crate) fn as_inputs(&self) -> crate::kernel::SpectrumInputs<'_> {
        crate::kernel::SpectrumInputs {
            nf: self.nf,
            sy: self.sy,
            syy: self.syy,
            c: &self.c,
            m: &self.m,
            ones: &self.ones,
        }
    }
}

// Folded O(N + P·W) rotational CPA (`W` = ones per period).
//
// Because the model vector is periodic, all rotation-dependent sums reduce
// to sums over the *folded* measurement: with
// `c_k = Σ_{i ≡ k (mod P)} y_i` and `m_k = |{i ≡ k}|`,
//
//   Σ xᵢ^(r) yᵢ = Σ_{j : pattern[j]=1} c_{(j−r) mod P}
//   Σ xᵢ^(r)    = Σ_{j : pattern[j]=1} m_{(j−r) mod P}
//
// while `Σy`, `Σy²` are rotation-invariant. This turns the paper-scale
// problem (N = 300,000, P = 4,095) from ~1.2 G multiply-adds into ~8 M,
// with decisions bit-identical to the naive reference loop (values agree
// to floating-point accumulation order). The folded sums live in
// [`FoldedTrace`]; the kernels that consume them are in
// [`crate::kernel`], and every entry point — kernel choice, threading —
// is the [`Detector`](crate::Detector) facade.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAlgo, DetectOptions, Detector};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spread_spectrum(pattern: &[bool], y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        Detector::new(pattern)?.spectrum(y)
    }

    fn spread_spectrum_naive(pattern: &[bool], y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        spread_spectrum_with_algo(pattern, y, CpaAlgo::Naive)
    }

    fn spread_spectrum_with_algo(
        pattern: &[bool],
        y: &[f64],
        algo: CpaAlgo,
    ) -> Result<SpreadSpectrum, CpaError> {
        Detector::with_options(pattern, DetectOptions::default().with_algo(algo))?.spectrum(y)
    }

    /// Tiles `pattern` starting at `phase` into a clean power trace.
    fn tiled(pattern: &[bool], n: usize, phase: usize, high: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if pattern[(i + phase) % pattern.len()] {
                    high
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn clean_signal_peaks_at_the_phase_offset() {
        let pattern = [true, false, true, true, false, false, false];
        for phase in 0..pattern.len() {
            let y = tiled(&pattern, 140, phase, 2.0);
            let s = spread_spectrum(&pattern, &y).expect("valid");
            let (rot, rho) = s.peak();
            assert_eq!(rot, phase, "peak must land on the injected phase");
            assert!(
                (rho - 1.0).abs() < 1e-9,
                "clean tiling correlates perfectly"
            );
        }
    }

    #[test]
    fn folded_matches_naive_on_noisy_input() {
        let mut rng = StdRng::seed_from_u64(42);
        let pattern: Vec<bool> = (0..31).map(|_| rng.random_bool(0.5)).collect();
        // Keep the pattern non-constant.
        let mut pattern = pattern;
        pattern[0] = true;
        pattern[1] = false;

        let n = 1000; // deliberately not a multiple of 31
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let wm = if pattern[(i + 11) % 31] { 0.8 } else { 0.0 };
                wm + rng.random_range(-3.0..3.0)
            })
            .collect();

        let fast = spread_spectrum(&pattern, &y).expect("valid");
        let slow = spread_spectrum_naive(&pattern, &y).expect("valid");
        assert_eq!(fast.period(), slow.period());
        for (a, b) in fast.rho().iter().zip(slow.rho()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_pattern_is_rejected() {
        let y = vec![0.0; 100];
        assert_eq!(
            spread_spectrum(&[true, true, true], &y).unwrap_err(),
            CpaError::ConstantPattern
        );
        assert_eq!(
            spread_spectrum(&[false, false], &y).unwrap_err(),
            CpaError::ConstantPattern
        );
    }

    #[test]
    fn measurement_shorter_than_period_is_rejected() {
        // The dedicated variant, with both lengths reported — not the
        // generic `LengthMismatch`, which is about *equal-length* inputs.
        assert_eq!(
            spread_spectrum(&[true, false, true, false], &[1.0, 2.0]).unwrap_err(),
            CpaError::TraceShorterThanPeriod { have: 2, need: 4 }
        );
    }

    #[test]
    fn spectrum_statistics_on_flat_noise() {
        // Pure constant y: every rotation has zero variance in y → all 0.
        // A zero-variance trace carries no watermark evidence, so the
        // statistics must stay finite and the spectrum must not detect.
        let pattern = [true, false, false, true];
        let y = vec![2.5; 64];
        let s = spread_spectrum(&pattern, &y).expect("valid");
        assert!(s.rho().iter().all(|&r| r == 0.0));
        assert!(s.is_degenerate());
        assert_eq!(s.floor_max_abs(), 0.0);
        assert_eq!(s.peak_to_floor_ratio(), 0.0);
        assert_eq!(s.peak_zscore(), 0.0);
        let result = s.detect(&crate::DetectionCriterion::default());
        assert!(!result.detected, "constant trace must not detect: {result}");
    }

    #[test]
    fn inverted_watermark_correlates_negatively() {
        let pattern = [true, false, true, false, false];
        // Power is *low* when the pattern bit is high.
        let y: Vec<f64> = (0..200)
            .map(|i| if pattern[i % 5] { 0.0 } else { 1.0 })
            .collect();
        let s = spread_spectrum(&pattern, &y).expect("valid");
        // Rotation 0 should be strongly negative, and the magnitude peak
        // must land there with its sign preserved.
        assert!(s.rho()[0] < -0.9);
        let (rot, rho) = s.peak_abs();
        assert_eq!(rot, 0);
        assert!(rho < -0.9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn folded_equals_naive(
            seed in 0u64..1000,
            period in 3usize..24,
            n_mult in 2usize..6,
            extra in 0usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pattern: Vec<bool> = (0..period).map(|_| rng.random_bool(0.5)).collect();
            pattern[0] = true;
            if pattern.iter().all(|&b| b) {
                pattern[1] = false;
            }
            let n = period * n_mult + extra;
            let y: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();

            let fast = spread_spectrum(&pattern, &y).expect("valid");
            let slow = spread_spectrum_naive(&pattern, &y).expect("valid");
            for (a, b) in fast.rho().iter().zip(slow.rho()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        /// Satellite proptest (a): the FFT kernel matches the naive
        /// reference everywhere, on random patterns and traces whose
        /// lengths are deliberately not multiples of the period, with the
        /// watermark sometimes inverted (power low on pattern-high).
        #[test]
        fn fft_matches_naive_within_1e9(
            seed in 0u64..1000,
            period in 3usize..48,
            n_mult in 2usize..6,
            extra in 1usize..7,
            inverted in proptest::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pattern: Vec<bool> = (0..period).map(|_| rng.random_bool(0.5)).collect();
            pattern[0] = true;
            if pattern.iter().all(|&b| b) {
                pattern[1] = false;
            }
            let n = period * n_mult + extra.min(period - 1);
            let sign = if inverted { -1.0 } else { 1.0 };
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    let wm = if pattern[(i + 5) % period] { sign * 0.8 } else { 0.0 };
                    wm + rng.random_range(-3.0..3.0)
                })
                .collect();

            let fft = spread_spectrum_with_algo(&pattern, &y, CpaAlgo::Fft).expect("valid");
            let naive = spread_spectrum_naive(&pattern, &y).expect("valid");
            prop_assert_eq!(fft.period(), naive.period());
            for (a, b) in fft.rho().iter().zip(naive.rho()) {
                prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
            }
        }

        /// Satellite proptest (b): after exact refinement, the FFT
        /// kernel's peak rotation and peak ρ — signed and by magnitude —
        /// are bit-identical to the folded kernel's, ties included.
        #[test]
        fn fft_peak_is_bit_identical_to_folded(
            seed in 0u64..1000,
            period in 3usize..200,
            n_mult in 1usize..5,
            extra in 0usize..11,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pattern: Vec<bool> = (0..period).map(|_| rng.random_bool(0.5)).collect();
            pattern[0] = true;
            if pattern.iter().all(|&b| b) {
                pattern[1] = false;
            }
            let n = period * n_mult + extra.min(period - 1) + period;
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    let wm = if pattern[(i + 2) % period] { 0.4 } else { 0.0 };
                    wm + rng.random_range(-2.0..2.0)
                })
                .collect();

            let fft = spread_spectrum_with_algo(&pattern, &y, CpaAlgo::Fft).expect("valid");
            let folded = spread_spectrum_with_algo(&pattern, &y, CpaAlgo::Folded).expect("valid");
            let (fft_rot, fft_rho) = fft.peak_abs();
            let (fold_rot, fold_rho) = folded.peak_abs();
            prop_assert_eq!(fft_rot, fold_rot);
            prop_assert_eq!(fft_rho.to_bits(), fold_rho.to_bits());
            let (fft_rot, fft_rho) = fft.peak();
            let (fold_rot, fold_rho) = folded.peak();
            prop_assert_eq!(fft_rot, fold_rot);
            prop_assert_eq!(fft_rho.to_bits(), fold_rho.to_bits());
        }

        #[test]
        fn all_coefficients_in_unit_interval(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pattern: Vec<bool> = (0..15).map(|i| i % 3 == 0 || rng.random_bool(0.3)).collect();
            let y: Vec<f64> = (0..150).map(|_| rng.random_range(0.0..10.0)).collect();
            let s = spread_spectrum(&pattern, &y).expect("valid");
            for &r in s.rho() {
                prop_assert!((-1.0..=1.0).contains(&r));
            }
        }
    }
}
