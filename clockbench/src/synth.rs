//! Seeded input generation: every workload input is a pure function of
//! the benchmark's `--seed`.

use crate::stats::Fnv;
use clockmark::attack::{hash_gaussian, mix_seed};
use clockmark_seq::{Lfsr, SequenceGenerator};

/// Paper-scale capture length N.
pub const CYCLES: usize = 300_000;
/// Paper watermark register width: an LFSR-12 m-sequence, P = 4095.
pub const LFSR_WIDTH: u32 = 12;
/// Watermark amplitude of a marked synthetic trace, in watts.
pub const AMP_WATTS: f64 = 0.1;
/// Gaussian measurement-noise σ of a synthetic trace, in watts.
pub const NOISE_WATTS: f64 = 1.0;

/// One period of the paper's watermark sequence.
pub fn paper_pattern() -> Vec<bool> {
    let mut lfsr = Lfsr::maximal(LFSR_WIDTH).expect("width 12 has a maximal polynomial");
    let period = (1usize << LFSR_WIDTH) - 1;
    (0..period).map(|_| lfsr.next_bit()).collect()
}

/// A decoy pattern of the same period (aperiodic xorshift bits), for
/// identification candidates that are not phase shifts of the real one.
pub fn decoy_pattern(period: usize, salt: u64) -> Vec<bool> {
    (0..period)
        .map(|i| mix_seed(salt, i as u64) & 1 == 1)
        .collect()
}

/// Derives the `index`-th input seed of a run.
pub fn sub_seed(seed: u64, purpose: u64, index: u64) -> u64 {
    mix_seed(mix_seed(seed, purpose), index)
}

/// What a synthetic trace carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Whether the watermark is present.
    pub marked: bool,
    /// Where the pattern starts within the capture.
    pub phase: usize,
    /// Noise seed.
    pub noise_seed: u64,
}

impl TraceSpec {
    /// The `index`-th trace of a corpus: about a third unmarked, phase
    /// and noise seeded.
    pub fn seeded(seed: u64, index: u64, period: usize) -> Self {
        let s = sub_seed(seed, 0x7ace, index);
        TraceSpec {
            marked: index % 3 != 2,
            phase: (mix_seed(s, 1) % period as u64) as usize,
            noise_seed: mix_seed(s, 2),
        }
    }

    /// The per-cycle samples: a 1 W floor, the pattern at [`AMP_WATTS`]
    /// when marked, and gaussian noise.
    pub fn samples(&self, pattern: &[bool], cycles: usize) -> Vec<f64> {
        let period = pattern.len();
        (0..cycles)
            .map(|i| {
                let wm = if self.marked && pattern[(i + self.phase) % period] {
                    AMP_WATTS
                } else {
                    0.0
                };
                1.0 + wm + NOISE_WATTS * hash_gaussian(self.noise_seed, i as u64)
            })
            .collect()
    }
}

/// Folds one generated trace into an input digest, so two runs can show
/// they fed the program identical inputs.
pub fn digest_trace(fnv: &mut Fnv, trace: &[f64]) {
    fnv.u64(trace.len() as u64);
    for &x in trace {
        fnv.f64(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> String {
        let pattern = paper_pattern();
        let mut fnv = Fnv::default();
        for i in 0..3 {
            let trace = TraceSpec::seeded(seed, i, pattern.len()).samples(&pattern, 5_000);
            digest_trace(&mut fnv, &trace);
        }
        fnv.hex()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
    }

    #[test]
    fn a_third_of_the_traces_are_unmarked() {
        let marks: Vec<bool> = (0..6)
            .map(|i| TraceSpec::seeded(1, i, 4095).marked)
            .collect();
        assert_eq!(marks, [true, true, false, true, true, false]);
    }

    #[test]
    fn paper_pattern_is_a_balanced_m_sequence() {
        let p = paper_pattern();
        assert_eq!(p.len(), 4095);
        assert_eq!(p.iter().filter(|&&b| b).count(), 2048);
    }
}
