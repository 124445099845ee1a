//! Spectrum-kernel selection.
//!
//! Three interchangeable kernels compute the rotational-CPA spread
//! spectrum; they are pinned against each other by proptests:
//!
//! - [`CpaAlgo::Naive`]: the textbook O(N·P) loop — the trusted
//!   reference, impractical at paper scale;
//! - [`CpaAlgo::Folded`]: the O(N + P·W) fold over per-residue sums;
//! - [`CpaAlgo::Fft`]: the O(N + P log P) circular-correlation path with
//!   an exact refinement step, so the reported peak matches the folded
//!   kernel bit for bit (see `docs/cpa-fft.md`).
//!
//! Callers normally let [`spread_spectrum`](crate::spread_spectrum)
//! resolve the kernel from the pattern's work size; a caller that needs a
//! particular kernel pins it explicitly, and the campaign engine records
//! the resolved kernel in its spec so resumed runs replay the same
//! arithmetic.

use std::fmt;
use std::str::FromStr;

/// Minimum folded work (`P·W`, rotations times pattern ones) before the
/// work heuristic prefers the FFT kernel. Below this the folded loop's
/// cache-friendly accumulation beats the transform's fixed cost; the
/// paper-scale period (P = 4,095, W ≈ 2,048 → ~8.4 M) sits far above,
/// unit-test-sized patterns far below.
pub(crate) const FFT_WORK_THRESHOLD: usize = 1 << 17;

/// Which kernel computes the spread spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CpaAlgo {
    /// The O(N·P) reference loop over the raw measurement.
    Naive,
    /// The folded O(N + P·W) kernel over per-residue sums.
    Folded,
    /// The FFT circular-correlation kernel with exact peak refinement.
    Fft,
}

impl CpaAlgo {
    /// Every kernel, in reference-first order.
    pub const ALL: [CpaAlgo; 3] = [CpaAlgo::Naive, CpaAlgo::Folded, CpaAlgo::Fft];

    /// The canonical lower-case name, as accepted by `--algo` and
    /// recorded in campaign specs.
    pub fn as_str(self) -> &'static str {
        match self {
            CpaAlgo::Naive => "naive",
            CpaAlgo::Folded => "folded",
            CpaAlgo::Fft => "fft",
        }
    }

    /// Parses a kernel name, ignoring surrounding whitespace and case.
    /// Returns `None` for anything unrecognised.
    pub fn parse(name: &str) -> Option<CpaAlgo> {
        match name.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(CpaAlgo::Naive),
            "folded" => Some(CpaAlgo::Folded),
            "fft" => Some(CpaAlgo::Fft),
            _ => None,
        }
    }

    /// The kernel the work heuristic picks for a watermark pattern:
    /// [`CpaAlgo::Fft`] once the folded work `P·W` reaches the crossover
    /// threshold, [`CpaAlgo::Folded`] otherwise. The naive
    /// kernel is never auto-selected; it exists as the reference.
    pub fn resolved_for_pattern(pattern: &[bool]) -> CpaAlgo {
        let ones = pattern.iter().filter(|&&b| b).count();
        if pattern.len().saturating_mul(ones) >= FFT_WORK_THRESHOLD {
            CpaAlgo::Fft
        } else {
            CpaAlgo::Folded
        }
    }
}

impl fmt::Display for CpaAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CpaAlgo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CpaAlgo::parse(s)
            .ok_or_else(|| format!("unknown CPA algorithm {s:?} (expected naive, folded or fft)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for algo in CpaAlgo::ALL {
            assert_eq!(CpaAlgo::parse(algo.as_str()), Some(algo));
            assert_eq!(algo.as_str().parse::<CpaAlgo>(), Ok(algo));
            assert_eq!(algo.to_string(), algo.as_str());
        }
    }

    #[test]
    fn parsing_is_forgiving_about_case_and_whitespace() {
        assert_eq!(CpaAlgo::parse(" FFT\n"), Some(CpaAlgo::Fft));
        assert_eq!(CpaAlgo::parse("Folded"), Some(CpaAlgo::Folded));
        assert_eq!(CpaAlgo::parse(""), None);
        assert_eq!(CpaAlgo::parse("fastest"), None);
        assert!("fastest"
            .parse::<CpaAlgo>()
            .unwrap_err()
            .contains("fastest"));
    }

    #[test]
    fn heuristic_picks_fft_only_at_scale() {
        // Unit-test-sized pattern: folded.
        let small = vec![true, false, true, false, false, true, false];
        assert_eq!(CpaAlgo::resolved_for_pattern(&small), CpaAlgo::Folded);
        // Paper-scale pattern (P = 4095, half ones): FFT.
        let large: Vec<bool> = (0..4095).map(|i| i % 2 == 0).collect();
        assert_eq!(CpaAlgo::resolved_for_pattern(&large), CpaAlgo::Fft);
    }
}
