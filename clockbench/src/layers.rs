//! What a workload hands back, the per-layer metric list, and helpers
//! for reading the spans and counters the program emits through the
//! installed `clockmark_obs::Recorder`.

use crate::stats::Metric;
use clockmark::corpus::Corpus;
use clockmark_cpa::DetectionResult;
use clockmark_obs::MetricsSnapshot;
use std::error::Error;
use std::fmt::Debug;
use std::time::Instant;

/// Operations attempted and failed (errors, refusals and wrong outputs).
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Counts one operation; `Err` carries why it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("clockbench: {what} failed: {why}");
            }
        }
    }
}

/// End-to-end samples of an untraced run.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Seconds per complete set-up, one entry per repetition.
    pub setup_s: Vec<f64>,
    /// Per-operation latency in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Units of work completed (the throughput numerator).
    pub completed: u64,
    /// Wall seconds the measured loop ran.
    pub wall_s: f64,
}

/// A workload's result: end-to-end samples (untraced run) or per-layer
/// metrics (traced run), plus human-readable notes.
#[derive(Debug, Default, Clone)]
pub struct Run {
    pub e2e: EndToEnd,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Every end-to-end metric in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric in `BENCHMARK.json` order. A traced run reports
/// all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("host.cpu_probe_ms", "ms"),
    ("host.replace_ms", "ms"),
    ("host.fsync_ms", "ms"),
    ("host.fresh_rename_ms", "ms"),
    ("pipeline.embed_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("power.trace_ms", "ms"),
    ("soc.background_ms", "ms"),
    ("measure.acquire_ms", "ms"),
    ("measure.ns_per_sample", "ns"),
    ("cpa.detect_ms", "ms"),
    ("cpa.sequential_ms", "ms"),
    ("cpa.identify_ms", "ms"),
    ("cpa.budget_fraction", "fraction"),
    ("corpus.add_ms", "ms"),
    ("corpus.read_ms", "ms"),
    ("corpus.bytes_read", "bytes"),
    ("campaign.job_ms", "ms"),
    ("campaign.persist_ms", "ms"),
    ("campaign.resume_ms", "ms"),
    ("campaign.checkpoints_written", "count"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("attack.apply_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.wire_bytes_per_req", "bytes"),
    ("obs.overhead_pct", "%"),
    ("paper_pipeline.unattributed_ms", "ms"),
    ("paper_pipeline.coverage_pct", "%"),
    ("campaign_corpus.unattributed_ms", "ms"),
    ("campaign_corpus.coverage_pct", "%"),
    ("serve_detect.unattributed_ms", "ms"),
    ("serve_detect.coverage_pct", "%"),
];

/// Orders `measured` as [`PER_LAYER`], filling layers not measured with 0.
///
/// # Panics
///
/// On a measured name missing from [`PER_LAYER`] or with another unit —
/// a bug in this benchmark.
pub fn complete(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.contains(&(m.name.as_str(), m.unit)),
            "{} [{}] is not a declared per-layer metric",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Ground truth for one verdict: a marked input must be detected at
/// `expected_rotation`, an unmarked one not detected. `what` names the
/// input in the failure message.
pub fn check_truth(
    marked: bool,
    expected_rotation: usize,
    d: &DetectionResult,
    what: &dyn Debug,
) -> Result<(), String> {
    let ok = if marked {
        d.detected && d.peak_rotation == expected_rotation
    } else {
        !d.detected
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{what:?} gave {d} (expected rotation {expected_rotation})"
        ))
    }
}

/// Milliseconds to read corpus trace `name` to its end in `chunk`-sample
/// reads and verify it (`Corpus::source`, `read_chunk`, `finish`).
pub fn time_corpus_read(corpus: &Corpus, name: &str, chunk: usize) -> Result<f64, Box<dyn Error>> {
    let mut buf = vec![0.0; chunk];
    let (header, ms) = timed(|| -> Result<_, Box<dyn Error>> {
        let mut source = corpus.source(name)?;
        while source.read_chunk(&mut buf)? > 0 {}
        Ok(source.finish()?)
    });
    header?;
    Ok(ms)
}

/// Installs an exporter-less recorder so the program's own spans and
/// counters accumulate in memory for the rest of the process.
pub fn install_recorder() -> Result<(), String> {
    if clockmark_obs::install(clockmark_obs::Recorder::new(Vec::new())) {
        Ok(())
    } else {
        Err("an observability recorder was already installed".to_string())
    }
}

/// A point-in-time copy of the recorder's registry.
pub fn snapshot() -> MetricsSnapshot {
    clockmark_obs::snapshot().unwrap_or_default()
}

/// Growth of counter `name` between two snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Completed spans named `name` between two snapshots, and their summed
/// duration in milliseconds.
pub fn span_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, f64) {
    let stat = |s: &MetricsSnapshot| {
        s.spans
            .iter()
            .find(|(k, _)| k == name)
            .map_or((0, 0), |(_, v)| (v.count, v.total_ns))
    };
    let (c0, n0) = stat(before);
    let (c1, n1) = stat(after);
    (c1 - c0, (n1 - n0) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level section of `BENCHMARK.json`.
    fn section<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.trim_start().trim_start_matches('"'))
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let workloads = section(&text, "workloads");
        let end_to_end = section(&text, "end_to_end");
        let per_layer = section(&text, "per_layer");
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(end_to_end, END_TO_END.map(|(name, _)| name));
        assert_eq!(per_layer, PER_LAYER.map(|(name, _)| name));

        let mut all: Vec<&str> = [workloads, end_to_end, per_layer].concat();
        for name in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad name {name:?}"
            );
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn complete_fills_unmeasured_layers_with_zero() {
        let out = complete(vec![Metric::new("sim.run_ms", 2.5, "ms")]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out[5], Metric::new("sim.run_ms", 2.5, "ms"));
        assert!(out
            .iter()
            .filter(|m| m.name != "sim.run_ms")
            .all(|m| m.value == 0.0));
    }
}
