//! `serve_detect`: an in-process `Server` (2 sessions, 2 workers)
//! answering 2 client connections in a closed loop. Each connection
//! streams paper-scale traces through a fixed seeded mix of `detect`,
//! `detect_sequential`, `identify` over 16 candidates, and
//! `detect_corpus` against a server-local corpus. Every verdict must be
//! bit-identical to an in-process `Detector` run on the same samples.

use crate::layers::{
    counter_delta, ms_since, snapshot, span_delta, time_corpus_read, timed, Ledger, Run,
};
use crate::stats::{median, percentile, Fnv, Metric};
use crate::synth::{decoy_pattern, digest_trace, paper_pattern, sub_seed, TraceSpec, CYCLES};
use crate::Ctx;
use clockmark::attack::mix_seed;
use clockmark::corpus::{Corpus, TraceHeader};
use clockmark_cpa::{CandidatePattern, DetectOptions, Detector, SequentialOptions};
use clockmark_serve::{Client, ServeLimits, Server, ServerHandle};
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Traces the clients stream.
const POOL: usize = 8;
/// Of those, the ones also stored in the server-local corpus.
const CORPUS: usize = 4;
/// Identification candidates (the real pattern plus decoys).
const CANDIDATES: usize = 16;
/// Client connections, server sessions and server workers.
const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Detect,
    Sequential,
    Identify,
    Corpus,
}

const KINDS: [Kind; 4] = [Kind::Detect, Kind::Sequential, Kind::Identify, Kind::Corpus];

/// Request mix per block of [`BLOCK_LEN`] requests: 60 % detect, 20 %
/// sequential, 10 % identify, 10 % corpus detect. No observed traffic
/// backs these weights; they are a choice. Fixing the counts per block
/// keeps the mix exact in every run. With the detect majority the median
/// falls inside the detect cluster, so sequential, identify and corpus
/// requests move only the tail and the throughput.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Detect, 12),
    (Kind::Sequential, 4),
    (Kind::Identify, 2),
    (Kind::Corpus, 2),
];
const BLOCK_LEN: u64 = 20;

/// The `k`-th request of connection `conn`: its block's kinds in a
/// seeded order, each over a seeded trace.
fn request(seed: u64, conn: usize, k: u64) -> (Kind, usize) {
    let block_seed = sub_seed(seed, 0x5e7e + conn as u64, k / BLOCK_LEN);
    let mut kinds: Vec<Kind> = BLOCK
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    for i in (1..kinds.len()).rev() {
        let j = (mix_seed(block_seed, i as u64) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let kind = kinds[(k % BLOCK_LEN) as usize];
    let pool = if kind == Kind::Corpus { CORPUS } else { POOL };
    let draw = mix_seed(block_seed, BLOCK_LEN + k % BLOCK_LEN);
    (kind, (draw % pool as u64) as usize)
}

/// Expected in-process answers for one trace, as `Debug` text: the
/// shortest round-trip float formatting makes equal text equal bits.
struct Expected {
    detect: String,
    sequential: String,
    identify: String,
}

struct Fixture {
    dir: PathBuf,
    pattern: Vec<bool>,
    traces: Vec<Vec<f64>>,
    candidates: Vec<CandidatePattern>,
    expected: Vec<Expected>,
    corpus: String,
    server: ServerHandle,
    clients: Vec<Client>,
    input_digest: String,
    /// In-process timings of the CPA calls, per trace.
    cpa_ms: [Vec<f64>; 3],
}

/// Builds the inputs, the expected answers and the server, then connects
/// and warms up every client. Only I/O and bind errors abort; a wrong
/// warm-up answer is counted into `ledger` like any other exchange.
fn setup(ctx: &Ctx, dir: &Path, ledger: &mut Ledger) -> Result<Fixture, Box<dyn Error>> {
    let pattern = paper_pattern();
    let period = pattern.len();
    let traces: Vec<Vec<f64>> = (0..POOL)
        .map(|i| {
            TraceSpec::seeded(sub_seed(ctx.seed, 0x5e, 0), i as u64, period)
                .samples(&pattern, CYCLES)
        })
        .collect();
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir)?;
    for (i, trace) in traces.iter().take(CORPUS).enumerate() {
        corpus.add(&format!("t{i:02}"), TraceHeader::bare(0), trace)?;
    }
    let mut candidates = vec![CandidatePattern::new("paper", pattern.clone())];
    candidates.extend((1..CANDIDATES).map(|j| {
        CandidatePattern::new(
            format!("decoy{j:02}"),
            decoy_pattern(period, sub_seed(ctx.seed, 0xdec0, j as u64)),
        )
    }));

    let detector = Detector::new(&pattern)?;
    let mut expected = Vec::new();
    let mut cpa_ms: [Vec<f64>; 3] = Default::default();
    for trace in &traces {
        let (detect, ms) = timed(|| detector.detect(trace));
        cpa_ms[0].push(ms);
        let (sequential, ms) =
            timed(|| detector.detect_sequential(trace, SequentialOptions::default()));
        cpa_ms[1].push(ms);
        let (identify, ms) = timed(|| detector.identify(trace, &candidates));
        cpa_ms[2].push(ms);
        expected.push(Expected {
            detect: format!("{:?}", detect?),
            sequential: format!("{:?}", sequential?),
            identify: format!("{:?}", identify?),
        });
    }

    let server = Server::new()
        .with_limits(ServeLimits {
            max_sessions: CONNECTIONS,
            workers: CONNECTIONS,
            ..ServeLimits::default()
        })
        .bind("127.0.0.1:0")?;
    let mut inputs = Fnv::default();
    for trace in &traces {
        digest_trace(&mut inputs, trace);
    }
    let mut fx = Fixture {
        input_digest: inputs.hex(),
        dir: dir.to_path_buf(),
        corpus: corpus_dir.to_string_lossy().into_owned(),
        clients: Vec::new(),
        pattern,
        traces,
        candidates,
        expected,
        server,
        cpa_ms,
    };
    for _ in 0..CONNECTIONS {
        let mut client = Client::connect(fx.server.local_addr())?;
        // Warm-up: one request of each kind, checked like the rest.
        for (trace, &kind) in KINDS.iter().enumerate() {
            let outcome = exchange(&fx, &mut client, kind, trace).map(|_| ());
            if outcome.is_err() {
                // The session may be gone; start a fresh one.
                client = Client::connect(fx.server.local_addr())?;
            }
            ledger.record("serve warm-up", outcome);
        }
        fx.clients.push(client);
    }
    Ok(fx)
}

impl Fixture {
    fn shutdown(self) -> Result<(), Box<dyn Error>> {
        drop(self.clients);
        self.server.shutdown();
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// What one exchange returned besides its verdict check.
#[derive(Debug, Clone, Copy, Default)]
struct Answer {
    /// Cycles a sequential session consumed (0 for other kinds).
    consumed: u64,
}

/// One request over the wire, checked against the in-process answer.
fn exchange(fx: &Fixture, client: &mut Client, kind: Kind, i: usize) -> Result<Answer, String> {
    let options = DetectOptions::default();
    let trace = &fx.traces[i];
    let expected = &fx.expected[i];
    let err = |e: clockmark_serve::ServeError| e.to_string();
    let (got, want, consumed) = match kind {
        Kind::Detect => {
            let d = client.detect(&fx.pattern, options, trace).map_err(err)?;
            check_cycles(d.cycles)?;
            (format!("{:?}", d.result), &expected.detect, 0)
        }
        Kind::Sequential => {
            let s = client
                .detect_sequential(&fx.pattern, options, SequentialOptions::default(), trace)
                .map_err(err)?;
            let consumed = s.cycles_consumed;
            (format!("{s:?}"), &expected.sequential, consumed)
        }
        Kind::Identify => {
            let id = client
                .identify(&fx.pattern, options, &fx.candidates, trace)
                .map_err(err)?;
            (format!("{id:?}"), &expected.identify, 0)
        }
        Kind::Corpus => {
            let d = client
                .detect_corpus(&fx.corpus, &format!("t{i:02}"), &fx.pattern, options)
                .map_err(err)?;
            check_cycles(d.cycles)?;
            (format!("{:?}", d.result), &expected.detect, 0)
        }
    };
    if &got == want {
        Ok(Answer { consumed })
    } else {
        Err(format!(
            "{kind:?} on trace {i}: wire {got} != in-process {want}"
        ))
    }
}

fn check_cycles(cycles: u64) -> Result<(), String> {
    if cycles == CYCLES as u64 {
        Ok(())
    } else {
        Err(format!("server saw {cycles} cycles, expected {CYCLES}"))
    }
}

/// One completed (or failed) exchange.
struct Sample {
    kind: Kind,
    ms: f64,
    outcome: Result<Answer, String>,
}

/// Runs every connection's closed loop until `deadline`.
fn drive(fx: &mut Fixture, seed: u64, deadline: Duration) -> Vec<Sample> {
    let start = Instant::now();
    let addr = fx.server.local_addr();
    let clients = std::mem::take(&mut fx.clients);
    let fx_ref: &Fixture = fx;
    let (samples, clients): (Vec<Vec<Sample>>, Vec<Client>) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut k = 0u64;
                    while samples.is_empty() || start.elapsed() < deadline {
                        let (kind, i) = request(seed, conn, k);
                        k += 1;
                        let t = Instant::now();
                        let outcome = exchange(fx_ref, &mut client, kind, i);
                        let ms = ms_since(t);
                        let broken = outcome.is_err();
                        samples.push(Sample { kind, ms, outcome });
                        if broken {
                            // The session may be gone; start a fresh one.
                            match Client::connect(addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    (samples, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    fx.clients = clients;
    samples.into_iter().flatten().collect()
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) -> Result<Run, Box<dyn Error>> {
    let mut out = Run::default();
    let mut fixture: Option<Fixture> = None;
    for rep in 0..ctx.setup_reps {
        if let Some(old) = fixture.take() {
            old.shutdown()?;
        }
        let (fx, ms) = timed(|| setup(ctx, &ctx.work.join(format!("setup{rep}")), ledger));
        out.e2e.setup_s.push(ms / 1e3);
        fixture = Some(fx?);
    }
    let mut fx = fixture.expect("at least one set-up");

    let before = snapshot();
    let start = Instant::now();
    let samples = drive(&mut fx, ctx.seed, ctx.seconds);
    out.e2e.wall_s = start.elapsed().as_secs_f64();
    let after = snapshot();

    let mut consumed = 0u64;
    let mut sequential = 0u64;
    for s in &samples {
        let outcome = s.outcome.as_ref().map(|_| ()).map_err(Clone::clone);
        ledger.record("serve request", outcome);
        if let Ok(answer) = &s.outcome {
            out.e2e.completed += 1;
            out.e2e.latencies_ms.push(s.ms);
            if s.kind == Kind::Sequential {
                consumed += answer.consumed;
                sequential += 1;
            }
        }
    }
    let count = |k: Kind| samples.iter().filter(|s| s.kind == k).count();
    let mix: Vec<String> = KINDS
        .iter()
        .map(|&k| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.ms)
                .collect();
            format!(
                "{} {k:?} (p10/p50/p90 {:.3}/{:.3}/{:.3} ms)",
                ms.len(),
                percentile(&ms, 10.0),
                median(&ms),
                percentile(&ms, 90.0)
            )
        })
        .collect();
    out.notes.push(format!(
        "input digest {}; {} exchanges over {CONNECTIONS} connections: {}; every verdict checked against in-process Detector runs",
        fx.input_digest,
        samples.len(),
        mix.join(", "),
    ));

    if ctx.traced {
        let n = out.e2e.completed.max(1) as f64;
        let (_, server_total_ms) = span_delta(&before, &after, "serve.request");
        let server_ms = server_total_ms / n;
        let client_ms = out.e2e.latencies_ms.iter().sum::<f64>() / n;
        let corpus = Corpus::open(&fx.corpus)?;
        let read = (0..CORPUS)
            .map(|i| time_corpus_read(&corpus, &format!("t{i:02}"), 8192))
            .collect::<Result<Vec<_>, _>>()?;
        let [detect, seq, identify] = fx.cpa_ms.each_ref().map(|v| median(v));
        let read_ms = median(&read);
        let named: f64 = samples
            .iter()
            .filter(|s| s.outcome.is_ok())
            .map(|s| match s.kind {
                Kind::Detect => detect,
                Kind::Sequential => seq,
                Kind::Identify => identify,
                Kind::Corpus => detect + read_ms,
            })
            .sum::<f64>()
            / n;
        let corpus_requests = count(Kind::Corpus).max(1) as f64;
        out.layers = vec![
            Metric::new("cpa.detect_ms", detect, "ms"),
            Metric::new("cpa.sequential_ms", seq, "ms"),
            Metric::new("cpa.identify_ms", identify, "ms"),
            Metric::new(
                "cpa.budget_fraction",
                consumed as f64 / (sequential.max(1) * CYCLES as u64) as f64,
                "fraction",
            ),
            Metric::new("corpus.read_ms", read_ms, "ms"),
            Metric::new(
                "corpus.bytes_read",
                counter_delta(&before, &after, "corpus.bytes_read") as f64 / corpus_requests,
                "bytes",
            ),
            Metric::new("serve.server_ms", server_ms, "ms"),
            Metric::new("serve.wire_ms", client_ms - server_ms, "ms"),
            Metric::new(
                "serve.wire_bytes_per_req",
                counter_delta(&before, &after, "serve.wire_bytes") as f64 / n,
                "bytes",
            ),
            Metric::new("serve_detect.unattributed_ms", server_ms - named, "ms"),
            Metric::new(
                "serve_detect.coverage_pct",
                (named + client_ms - server_ms) / client_ms * 100.0,
                "%",
            ),
        ];
    }
    fx.shutdown()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_has_the_exact_mix() {
        for conn in 0..CONNECTIONS {
            let kinds: Vec<Kind> = (0..BLOCK_LEN * 3).map(|k| request(9, conn, k).0).collect();
            for block in kinds.chunks(BLOCK_LEN as usize) {
                for (kind, n) in BLOCK {
                    assert_eq!(block.iter().filter(|&&k| k == kind).count(), n);
                }
            }
        }
        assert_eq!(BLOCK.iter().map(|b| b.1 as u64).sum::<u64>(), BLOCK_LEN);
    }

    #[test]
    fn requests_are_seeded() {
        let run = |seed| (0..40).map(|k| request(seed, 0, k)).collect::<Vec<_>>();
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        assert!(run(3).iter().all(|&(kind, i)| i < if kind == Kind::Corpus {
            CORPUS
        } else {
            POOL
        }));
    }
}
