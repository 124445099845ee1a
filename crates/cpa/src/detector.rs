//! The unified detection facade.
//!
//! Historically the crate grew four near-duplicate batch entry points
//! differing only in how they resolve the kernel and the thread count.
//! [`Detector`] collapses them into one object: a validated watermark
//! pattern plus a [`DetectOptions`] describing kernel, threading and
//! decision criterion. Every consumer — the experiment pipeline, the
//! campaign engine, the detection server and the CLI — routes through
//! it, so there is exactly one place where those choices are made; the
//! legacy free functions are gone.
//!
//! The options are pure resolution knobs, not alternative algorithms:
//! for every option combination the spectrum is **bit-identical** to the
//! default path's (a proptest at the bottom of this module pins that for
//! every [`CpaAlgo`] and for pinned thread counts).
//!
//! ```
//! # fn main() -> Result<(), clockmark_cpa::CpaError> {
//! use clockmark_cpa::{DetectOptions, Detector};
//!
//! let pattern = [true, false, true, true, false, false, true, false];
//! let y: Vec<f64> = (0..400)
//!     .map(|i| if pattern[(i + 3) % 8] { 1.0 } else { 0.0 } + (i % 5) as f64 * 0.1)
//!     .collect();
//!
//! let detector = Detector::new(&pattern)?;
//! let result = detector.detect(&y)?;
//! assert!(result.detected);
//! assert_eq!(result.peak_rotation, 3);
//!
//! // The same decision, streamed chunk by chunk.
//! let mut session = detector.detect_streaming();
//! for chunk in y.chunks(37) {
//!     session.push_chunk(chunk);
//! }
//! assert_eq!(session.result(), result);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::rotational::{validate_inputs, FoldedTrace};
use crate::sequential::SequentialEngine;
use crate::{
    CpaAlgo, CpaError, DetectionCriterion, DetectionResult, SequentialCheckpoint,
    SequentialOptions, SequentialResult, SpreadSpectrum, StreamingCpa, StreamingCpaState,
};

/// Samples read per [`TraceInput::next_chunk`] call in
/// [`Detector::detect_trace`]. Matches the corpus reader's natural chunk
/// granularity; the fold is bit-identical for any chunking.
const TRACE_CHUNK: usize = 8192;

/// How a [`Detector`] resolves its kernel, threading and decision rule.
///
/// The defaults reproduce the historical `spread_spectrum` behaviour
/// exactly: kernel from the work heuristic, threads from [`thread_count`](crate::thread_count) once the
/// folded work justifies them, and the strict default
/// [`DetectionCriterion`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectOptions {
    /// Kernel pinned by the caller; `None` resolves per call from the work
    /// heuristic — the semantics of the legacy `spread_spectrum`. The campaign engine pins the kernel recorded in
    /// its spec here so resumes replay the same arithmetic.
    pub algo: Option<CpaAlgo>,
    /// Worker threads for the batch spectrum; `None` auto-sizes (machine
    /// parallelism once the folded work passes the parallel threshold,
    /// serial below it), `Some(n)` pins the count like the legacy
    /// `spread_spectrum_parallel`. The spectrum is bit-identical for every
    /// value. Streaming sessions always run on the calling thread.
    pub threads: Option<usize>,
    /// The decision rule applied by [`Detector::detect`] and friends.
    pub criterion: DetectionCriterion,
}

impl DetectOptions {
    /// Returns the options with the kernel pinned.
    #[must_use]
    pub fn with_algo(mut self, algo: CpaAlgo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Returns the options with the batch thread count pinned.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns the options with the decision criterion replaced.
    #[must_use]
    pub fn with_criterion(mut self, criterion: DetectionCriterion) -> Self {
        self.criterion = criterion;
        self
    }
}

/// The single entry point for watermark detection: a validated pattern
/// plus the [`DetectOptions`] every query uses.
///
/// Construct once, detect many times — against in-memory traces
/// ([`detect`](Self::detect)), incrementally arriving cycles
/// ([`detect_streaming`](Self::detect_streaming)) or chunked readers such
/// as corpus `.cmt` traces ([`detect_trace`](Self::detect_trace)). All
/// three paths share the same fold arithmetic, so their verdicts are
/// bit-identical for the same samples and options.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    pattern: Vec<bool>,
    options: DetectOptions,
}

impl Detector {
    /// Creates a detector with default [`DetectOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TooShort`] for a pattern shorter than 2 and
    /// [`CpaError::ConstantPattern`] when the pattern has no variance.
    pub fn new(pattern: &[bool]) -> Result<Self, CpaError> {
        Self::with_options(pattern, DetectOptions::default())
    }

    /// Creates a detector with explicit options.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn with_options(pattern: &[bool], options: DetectOptions) -> Result<Self, CpaError> {
        if pattern.len() < 2 {
            return Err(CpaError::TooShort { len: pattern.len() });
        }
        let ones = pattern.iter().filter(|&&b| b).count();
        if ones == 0 || ones == pattern.len() {
            return Err(CpaError::ConstantPattern);
        }
        Ok(Detector {
            pattern: pattern.to_vec(),
            options,
        })
    }

    /// One period of the watermark pattern.
    pub fn pattern(&self) -> &[bool] {
        &self.pattern
    }

    /// The watermark period.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }

    /// The options every query of this detector uses.
    pub fn options(&self) -> &DetectOptions {
        &self.options
    }

    /// The decision criterion applied by the `detect*` methods.
    pub fn criterion(&self) -> &DetectionCriterion {
        &self.options.criterion
    }

    /// The kernel a query issued right now would run: the pinned option if
    /// set, else the work heuristic for this pattern.
    pub fn resolved_algo(&self) -> CpaAlgo {
        self.options
            .algo
            .unwrap_or_else(|| CpaAlgo::resolved_for_pattern(&self.pattern))
    }

    /// Computes the full spread spectrum of a measured trace.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TraceShorterThanPeriod`] when `y` holds fewer
    /// cycles than one watermark period.
    pub fn spectrum(&self, y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        validate_inputs(&self.pattern, y)?;
        let algo = self.resolved_algo();
        if algo == CpaAlgo::Naive {
            return Ok(crate::rotational::naive_spectrum(&self.pattern, y));
        }
        let folded = FoldedTrace::new(&self.pattern, y);
        let threads = match self.options.threads {
            Some(threads) => threads,
            None => {
                let threads = crate::thread_count();
                if threads > 1 && folded.work() >= crate::parallel::PARALLEL_WORK_THRESHOLD {
                    threads
                } else {
                    1
                }
            }
        };
        Ok(crate::kernel::spectrum_with_algo(
            &folded.as_inputs(),
            algo,
            threads,
        ))
    }

    /// Detects the watermark in an in-memory trace: the spectrum of
    /// [`spectrum`](Self::spectrum) judged by this detector's criterion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`spectrum`](Self::spectrum).
    pub fn detect(&self, y: &[f64]) -> Result<DetectionResult, CpaError> {
        Ok(self.spectrum(y)?.detect(&self.options.criterion))
    }

    /// Opens a streaming session: feed cycles as they arrive, query the
    /// verdict whenever you like. The session pins this detector's kernel
    /// choice and criterion; its fold is bit-identical to the batch path
    /// for the same samples. Attach a stop rule with
    /// [`StreamingDetection::with_sequential`] for early termination.
    pub fn detect_streaming(&self) -> StreamingDetection {
        let inner =
            StreamingCpa::new(&self.pattern).expect("pattern validated at Detector construction");
        self.session(inner)
    }

    /// Re-opens a streaming session from a persisted fold snapshot — the
    /// campaign engine's checkpoint-resume path. A stop rule attached
    /// afterwards derives its schedule from the restored cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::InvalidState`] when the snapshot's pattern
    /// differs from this detector's, plus every validation error of
    /// [`StreamingCpa::from_state`].
    pub fn resume_streaming(
        &self,
        state: StreamingCpaState,
    ) -> Result<StreamingDetection, CpaError> {
        if state.pattern != self.pattern {
            return Err(CpaError::InvalidState {
                message: format!(
                    "snapshot pattern has period {} but the detector's has {}",
                    state.pattern.len(),
                    self.pattern.len()
                ),
            });
        }
        Ok(self.session(StreamingCpa::from_state(state)?))
    }

    /// Wraps a fold in a session pinned to this detector's kernel and
    /// criterion.
    fn session(&self, mut inner: StreamingCpa) -> StreamingDetection {
        if let Some(algo) = self.options.algo {
            inner = inner.with_algo(algo);
        }
        StreamingDetection {
            inner,
            criterion: self.options.criterion,
            stop: None,
        }
    }

    /// Runs a sequential detection over an in-memory trace, consuming
    /// samples in 8192-cycle chunks until the session decides or the
    /// trace ends. When no early stop fires this is bit-identical
    /// to [`detect`](Self::detect) on the full trace (pinned by
    /// proptest); when one does, the verdict is bit-identical to
    /// `detect` on exactly the consumed prefix.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TraceShorterThanPeriod`] when `y` holds fewer
    /// cycles than one watermark period.
    pub fn detect_sequential(
        &self,
        y: &[f64],
        options: SequentialOptions,
    ) -> Result<SequentialResult, CpaError> {
        validate_inputs(&self.pattern, y)?;
        let mut session = self.detect_streaming().with_sequential(options);
        for chunk in y.chunks(TRACE_CHUNK) {
            session.push_chunk(chunk);
            if session.decided() {
                break;
            }
        }
        Ok(session.finalize())
    }

    /// Scores many candidate patterns against one trace at once and
    /// ranks them by peak |ρ| — the "whose watermark is this?"
    /// identification workload. The trace is folded once (the fold
    /// depends only on the period) and the fold's transform is shared
    /// across candidates; every per-candidate
    /// [`DetectionResult`](crate::DetectionResult) is bit-identical to
    /// an independent [`detect`](Self::detect) with the same kernel.
    /// Candidates must match this detector's period.
    ///
    /// Threads follow [`DetectOptions::with_threads`] (candidates are
    /// partitioned; the bytes do not depend on the thread count).
    ///
    /// # Errors
    ///
    /// Trace validation as in [`spectrum`](Self::spectrum), plus
    /// [`CpaError::PeriodMismatch`] / [`CpaError::ConstantPattern`] /
    /// [`CpaError::InvalidState`] (empty list) for invalid candidates.
    pub fn identify(
        &self,
        y: &[f64],
        candidates: &[crate::CandidatePattern],
    ) -> Result<crate::Identification, CpaError> {
        validate_inputs(&self.pattern, y)?;
        let folded = FoldedTrace::new(&self.pattern, y);
        let inputs = folded.as_inputs();
        let threads = match self.options.threads {
            Some(threads) => threads,
            None => {
                let threads = crate::thread_count();
                if threads > 1 && inputs.work() >= crate::parallel::PARALLEL_WORK_THRESHOLD {
                    threads
                } else {
                    1
                }
            }
        };
        let algo = match self.resolved_algo() {
            // A fold retains no raw trace; Naive follows the streaming
            // precedent and evaluates with the folded arithmetic.
            CpaAlgo::Naive => CpaAlgo::Folded,
            algo => algo,
        };
        crate::identify::identify_over_fold(
            inputs.nf,
            inputs.sy,
            inputs.syy,
            inputs.c,
            inputs.m,
            y.len() as u64,
            candidates,
            &self.options.criterion,
            algo,
            threads,
        )
    }

    /// Detects the watermark in a chunked trace source — a corpus `.cmt`
    /// reader, a network stream, anything implementing [`TraceInput`] —
    /// without ever materialising the full trace in memory.
    ///
    /// Reads chunks until the source reports end-of-trace, then calls
    /// [`TraceInput::finish`] so sources with trailing integrity checks
    /// (the corpus reader's CRC footer) get to validate them before a
    /// verdict is produced.
    ///
    /// # Errors
    ///
    /// [`TraceInputError::Input`] wraps the source's own errors;
    /// [`TraceInputError::Cpa`] reports [`CpaError::InsufficientCycles`]
    /// when the source ended before one full watermark period.
    pub fn detect_trace<T: TraceInput>(
        &self,
        mut input: T,
    ) -> Result<TraceDetection, TraceInputError<T::Error>> {
        let mut session = self.detect_streaming();
        let mut buf = vec![0.0f64; TRACE_CHUNK];
        loop {
            let n = input.next_chunk(&mut buf).map_err(TraceInputError::Input)?;
            if n == 0 {
                break;
            }
            session.push_chunk(&buf[..n]);
        }
        input.finish().map_err(TraceInputError::Input)?;
        let spectrum = session.spectrum().map_err(TraceInputError::Cpa)?;
        Ok(TraceDetection {
            result: spectrum.detect(&self.options.criterion),
            cycles: session.cycles(),
        })
    }
}

/// The detection session: a [`StreamingCpa`] fold pinned to the
/// detector's kernel choice, its decision criterion and an optional
/// sequential stop rule. Opened by [`Detector::detect_streaming`] (or
/// resumed by [`Detector::resume_streaming`]), fed with
/// [`push_chunk`](Self::push_chunk), finished with
/// [`finalize`](Self::finalize) or queried any time with
/// [`result`](Self::result).
///
/// Without a stop rule the session is a fixed-budget detect: it never
/// decides early and its [`finalize`](Self::finalize) verdict is
/// bit-identical to [`result`](Self::result). With one
/// ([`with_sequential`](Self::with_sequential)) it evaluates the prefix
/// spectrum at every checkpoint of the schedule; once it decides — the
/// acceptance rule fires or the
/// [`max_cycles`](SequentialOptions::max_cycles) budget runs out —
/// further input is ignored and [`cycles`](Self::cycles) freezes at the
/// cycles the verdict consumed, so chunks after the decision cost
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingDetection {
    inner: StreamingCpa,
    criterion: DetectionCriterion,
    stop: Option<SequentialEngine>,
}

impl StreamingDetection {
    /// Attaches a sequential stop rule (see [`SequentialOptions`] for the
    /// acceptance rule and `docs/sequential.md` for the determinism
    /// contract). The checkpoint schedule is derived from the session's
    /// current cycle count, so a session resumed from a snapshot
    /// evaluates exactly the checkpoints an uninterrupted run would have
    /// from here on.
    #[must_use]
    pub fn with_sequential(mut self, options: SequentialOptions) -> Self {
        self.stop = Some(SequentialEngine::new(options, &self.inner));
        self
    }

    /// Feeds one measured cycle.
    pub fn push(&mut self, y: f64) {
        self.push_chunk(std::slice::from_ref(&y));
    }

    /// Bulk-ingests a chunk of cycles, bit-identical to per-cycle
    /// [`push`](Self::push). With a stop rule the chunk is split at
    /// checkpoint boundaries, so chunking never changes the outcome;
    /// input past a decision is ignored.
    pub fn push_chunk(&mut self, ys: &[f64]) {
        match &mut self.stop {
            Some(stop) => stop.push_chunk(&mut self.inner, &self.criterion, ys),
            None => self.inner.push_chunk(ys),
        }
    }

    /// Whether the stop rule has rendered its verdict (early accept or
    /// exhausted budget) and stopped folding. Always `false` without a
    /// stop rule.
    pub fn decided(&self) -> bool {
        self.stop.as_ref().is_some_and(SequentialEngine::decided)
    }

    /// The checkpoints the stop rule evaluated so far (none without one).
    pub fn checkpoints(&self) -> &[SequentialCheckpoint] {
        self.stop
            .as_ref()
            .map_or(&[], SequentialEngine::checkpoints)
    }

    /// The session outcome (see [`SequentialResult`]): the stop rule's
    /// early verdict if one fired, otherwise [`result`](Self::result) on
    /// everything consumed. Callable at any point; before one full
    /// period it reports the conservative not-detected verdict.
    pub fn finalize(&self) -> SequentialResult {
        match &self.stop {
            Some(stop) => stop.finalize(&self.inner, &self.criterion),
            None => SequentialResult {
                result: self.result(),
                cycles_consumed: self.cycles(),
                early_stopped: false,
                checkpoints: Vec::new(),
            },
        }
    }

    /// Cycles consumed so far; frozen once [`decided`](Self::decided).
    pub fn cycles(&self) -> u64 {
        self.inner.cycles()
    }

    /// The watermark period.
    pub fn period(&self) -> usize {
        self.inner.period()
    }

    /// The current spread spectrum.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::InsufficientCycles`] until one full period has
    /// been consumed.
    pub fn spectrum(&self) -> Result<SpreadSpectrum, CpaError> {
        self.inner.spectrum()
    }

    /// The current verdict under the session's criterion. Before one full
    /// period has been consumed this conservatively reports
    /// "not detected".
    pub fn result(&self) -> DetectionResult {
        self.inner.detect(&self.criterion)
    }

    /// Scores many candidate patterns against this session's fold and
    /// ranks them — see [`Detector::identify`]. Candidates must match
    /// the session period; the session's pinned kernel and criterion
    /// apply, and candidates are partitioned across the configured
    /// thread count (the bytes do not depend on it).
    ///
    /// # Errors
    ///
    /// [`CpaError::InsufficientCycles`] before one full period, plus the
    /// candidate-validation errors of [`Detector::identify`].
    pub fn identify(
        &self,
        candidates: &[crate::CandidatePattern],
    ) -> Result<crate::Identification, CpaError> {
        let threads = crate::thread_count().max(1);
        self.inner.identify(candidates, &self.criterion, threads)
    }

    /// Snapshots the fold accumulators bit-exactly, for persistence;
    /// restore with [`Detector::resume_streaming`].
    pub fn state(&self) -> StreamingCpaState {
        self.inner.state()
    }

    /// Borrows the underlying fold.
    pub fn inner(&self) -> &StreamingCpa {
        &self.inner
    }

    /// Unwraps the underlying fold.
    pub fn into_inner(self) -> StreamingCpa {
        self.inner
    }
}

/// A chunked source of measured power samples, as consumed by
/// [`Detector::detect_trace`].
///
/// Implementations exist for the corpus `.cmt` reader (in
/// `clockmark-corpus`) and for in-memory slices via [`SliceInput`].
pub trait TraceInput {
    /// The source's own error type.
    type Error;

    /// Fills `buf` with the next samples, returning how many were
    /// written. `0` means end-of-trace; short reads are otherwise fine.
    ///
    /// # Errors
    ///
    /// Whatever the source reports — I/O failures, format corruption.
    fn next_chunk(&mut self, buf: &mut [f64]) -> Result<usize, Self::Error>;

    /// Called once after end-of-trace, before the verdict is computed —
    /// the hook for trailing integrity checks (CRC footers, length
    /// cross-checks). The default does nothing.
    ///
    /// # Errors
    ///
    /// Whatever the integrity check reports.
    fn finish(self) -> Result<(), Self::Error>
    where
        Self: Sized,
    {
        Ok(())
    }
}

/// [`TraceInput`] over an in-memory slice — the adapter that lets
/// [`Detector::detect_trace`] be exercised without a corpus on disk.
#[derive(Debug, Clone)]
pub struct SliceInput<'a> {
    samples: &'a [f64],
}

impl<'a> SliceInput<'a> {
    /// Wraps a slice of samples.
    pub fn new(samples: &'a [f64]) -> Self {
        SliceInput { samples }
    }
}

impl TraceInput for SliceInput<'_> {
    type Error = std::convert::Infallible;

    fn next_chunk(&mut self, buf: &mut [f64]) -> Result<usize, Self::Error> {
        let n = self.samples.len().min(buf.len());
        buf[..n].copy_from_slice(&self.samples[..n]);
        self.samples = &self.samples[n..];
        Ok(n)
    }
}

/// The verdict of [`Detector::detect_trace`], with the trace length the
/// decision was based on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceDetection {
    /// The detection decision.
    pub result: DetectionResult,
    /// Cycles the source produced.
    pub cycles: u64,
}

/// Error of [`Detector::detect_trace`]: either the analysis failed or the
/// trace source did.
#[derive(Debug)]
pub enum TraceInputError<E> {
    /// The correlation analysis failed (e.g. the trace ended before one
    /// watermark period).
    Cpa(CpaError),
    /// The trace source failed (I/O, corruption, failed integrity check).
    Input(E),
}

impl<E> From<CpaError> for TraceInputError<E> {
    fn from(e: CpaError) -> Self {
        TraceInputError::Cpa(e)
    }
}

impl<E: fmt::Display> fmt::Display for TraceInputError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceInputError::Cpa(e) => write!(f, "cpa: {e}"),
            TraceInputError::Input(e) => write!(f, "trace input: {e}"),
        }
    }
}

impl<E: Error + 'static> Error for TraceInputError<E> {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceInputError::Cpa(e) => Some(e),
            TraceInputError::Input(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(seed: u64, period: usize, n: usize) -> (Vec<bool>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pattern: Vec<bool> = (0..period).map(|_| rng.random_bool(0.5)).collect();
        pattern[0] = true;
        if pattern.iter().all(|&b| b) {
            pattern[1] = false;
        }
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let wm = if pattern[(i + 7) % period] { 0.6 } else { 0.0 };
                wm + rng.random_range(-2.0..2.0)
            })
            .collect();
        (pattern, y)
    }

    #[test]
    fn constructor_validates_the_pattern() {
        assert!(matches!(
            Detector::new(&[true]).unwrap_err(),
            CpaError::TooShort { len: 1 }
        ));
        assert_eq!(
            Detector::new(&[true, true]).unwrap_err(),
            CpaError::ConstantPattern
        );
        assert_eq!(
            Detector::new(&[false, false, false]).unwrap_err(),
            CpaError::ConstantPattern
        );
    }

    #[test]
    fn short_trace_is_rejected_at_query_time() {
        let detector = Detector::new(&[true, false, true, false]).expect("valid");
        assert_eq!(
            detector.detect(&[1.0, 2.0]).unwrap_err(),
            CpaError::TraceShorterThanPeriod { have: 2, need: 4 }
        );
    }

    #[test]
    fn batch_streaming_and_trace_paths_agree_bit_for_bit() {
        let (pattern, y) = random_case(11, 31, 1500);
        let detector = Detector::new(&pattern).expect("valid");

        let batch = detector.detect(&y).expect("valid");

        let mut session = detector.detect_streaming();
        for chunk in y.chunks(97) {
            session.push_chunk(chunk);
        }
        let streamed = session.result();

        let traced = detector.detect_trace(SliceInput::new(&y)).expect("valid");

        assert_eq!(batch.peak_rho.to_bits(), streamed.peak_rho.to_bits());
        assert_eq!(batch.zscore.to_bits(), streamed.zscore.to_bits());
        assert_eq!(batch, streamed);
        assert_eq!(batch, traced.result);
        assert_eq!(traced.cycles, y.len() as u64);
    }

    #[test]
    fn resume_streaming_round_trips_bit_exactly() {
        let (pattern, y) = random_case(12, 63, 4000);
        let detector = Detector::with_options(
            &pattern,
            DetectOptions::default().with_algo(CpaAlgo::Folded),
        )
        .expect("valid");

        let mut uninterrupted = detector.detect_streaming();
        uninterrupted.push_chunk(&y);

        let (head, tail) = y.split_at(1711);
        let mut first = detector.detect_streaming();
        first.push_chunk(head);
        let mut resumed = detector
            .resume_streaming(first.state())
            .expect("valid snapshot");
        resumed.push_chunk(tail);

        assert_eq!(uninterrupted, resumed);
        assert_eq!(uninterrupted.result(), resumed.result());
    }

    #[test]
    fn resume_streaming_rejects_foreign_snapshots() {
        let (pattern, y) = random_case(13, 31, 500);
        let detector = Detector::new(&pattern).expect("valid");
        let mut session = detector.detect_streaming();
        session.push_chunk(&y);

        let (other, _) = random_case(14, 63, 63);
        let foreign = Detector::new(&other).expect("valid");
        assert!(matches!(
            foreign.resume_streaming(session.state()).unwrap_err(),
            CpaError::InvalidState { .. }
        ));
    }

    #[test]
    fn detect_trace_propagates_source_failures() {
        struct Failing;
        #[derive(Debug, PartialEq)]
        struct Broken;
        impl TraceInput for Failing {
            type Error = Broken;
            fn next_chunk(&mut self, _buf: &mut [f64]) -> Result<usize, Broken> {
                Err(Broken)
            }
        }
        let detector = Detector::new(&[true, false, true]).expect("valid");
        assert!(matches!(
            detector.detect_trace(Failing).unwrap_err(),
            TraceInputError::Input(Broken)
        ));
    }

    #[test]
    fn detect_trace_rejects_sources_shorter_than_one_period() {
        let detector = Detector::new(&[true, false, true, false, true]).expect("valid");
        let short = [1.0, 2.0];
        assert!(matches!(
            detector.detect_trace(SliceInput::new(&short)).unwrap_err(),
            TraceInputError::Cpa(CpaError::InsufficientCycles { have: 2, need: 5 })
        ));
    }

    #[test]
    fn options_builders_compose() {
        let options = DetectOptions::default()
            .with_algo(CpaAlgo::Fft)
            .with_threads(3)
            .with_criterion(DetectionCriterion::lenient());
        assert_eq!(options.algo, Some(CpaAlgo::Fft));
        assert_eq!(options.threads, Some(3));
        assert_eq!(options.criterion, DetectionCriterion::lenient());
        let detector = Detector::with_options(&[true, false, true], options).expect("valid");
        assert_eq!(detector.resolved_algo(), CpaAlgo::Fft);
        assert_eq!(detector.criterion(), &DetectionCriterion::lenient());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite pin: the options are resolution knobs, not
        /// alternative algorithms. The default (auto-resolved) path is
        /// bit-identical to explicitly pinning the resolved kernel, and
        /// for every kernel a pinned thread count is bit-identical to
        /// the serial run.
        #[test]
        fn facade_options_are_bit_identical_to_the_default_path(
            seed in 0u64..10_000,
            period in 3usize..48,
            n_mult in 1usize..5,
            extra in 0usize..11,
            threads in 1usize..8,
        ) {
            let n = period * n_mult + extra.min(period - 1) + period;
            let (pattern, y) = random_case(seed, period, n);

            let assert_bits = |a: &SpreadSpectrum, b: &SpreadSpectrum| {
                prop_assert_eq!(a.period(), b.period());
                for (x, y) in a.rho().iter().zip(b.rho()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                Ok(())
            };

            // Default options ≡ explicitly pinning the resolved kernel.
            let default = Detector::new(&pattern).expect("valid");
            let resolved = default.resolved_algo();
            let reference = default.spectrum(&y).expect("valid");
            let pinned = Detector::with_options(
                &pattern,
                DetectOptions::default().with_algo(resolved),
            )
            .expect("valid")
            .spectrum(&y)
            .expect("valid");
            assert_bits(&pinned, &reference)?;

            // For every kernel, threading never changes the spectrum.
            for algo in CpaAlgo::ALL {
                let serial = Detector::with_options(
                    &pattern,
                    DetectOptions::default().with_algo(algo),
                )
                .expect("valid")
                .spectrum(&y)
                .expect("valid");
                let threaded = Detector::with_options(
                    &pattern,
                    DetectOptions::default().with_algo(algo).with_threads(threads),
                )
                .expect("valid")
                .spectrum(&y)
                .expect("valid");
                assert_bits(&threaded, &serial)?;
            }
        }
    }
}
