//! Host fingerprint: core count, CPU model, mmap mode, the speed of a
//! fixed CPU loop, and the latency of the filesystem operations campaign
//! persistence is built from, probed on the filesystem the benchmark's
//! campaign directories live on.

use crate::stats::median;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each probe (the median is reported).
const PROBE_REPS: usize = 5;
/// Bytes written before each probed operation (a small checkpoint's size).
const PROBE_BYTES: usize = 4096;
/// Iterations of the fixed CPU loop (about 25 ms on the reference host).
const CPU_PROBE_ITERS: u64 = 1 << 23;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub mmap_zero_copy: bool,
    /// A fixed integer-hash loop on one thread: on a shared machine the
    /// same code runs slower while neighbours compete for the core.
    pub cpu_probe_ms: f64,
    /// `rename(2)` of a freshly written file over an existing one.
    pub replace_ms: f64,
    /// `fsync(2)` of a freshly written file.
    pub fsync_ms: f64,
    /// `rename(2)` of a freshly written file to a name that does not exist.
    pub fresh_rename_ms: f64,
}

impl Host {
    pub fn line(&self) -> String {
        format!(
            "host: nproc {} | cpu {} | cpu probe {:.3} ms | mmap zero-copy {} | replace {:.3} ms | fsync {:.3} ms | fresh rename {:.4} ms",
            self.nproc,
            self.cpu_model,
            self.cpu_probe_ms,
            self.mmap_zero_copy,
            self.replace_ms,
            self.fsync_ms,
            self.fresh_rename_ms
        )
    }
}

fn write_file(path: &Path) -> std::io::Result<File> {
    let mut file = File::create(path)?;
    file.write_all(&[0x5a; PROBE_BYTES])?;
    Ok(file)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median milliseconds of [`CPU_PROBE_ITERS`] splitmix64 steps.
fn cpu_probe_ms() -> f64 {
    let runs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            let mut z = 0u64;
            for _ in 0..CPU_PROBE_ITERS {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
            }
            std::hint::black_box(z);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// Probes the host, using `dir` (created if needed) as scratch space.
pub fn fingerprint(dir: &Path) -> std::io::Result<Host> {
    fs::create_dir_all(dir)?;
    let target = dir.join("probe.dat");
    write_file(&target)?;
    let mmap_zero_copy = clockmark_corpus::Mmap::open(&target)
        .map(|m| m.is_zero_copy())
        .unwrap_or(false);

    let mut replace = Vec::with_capacity(PROBE_REPS);
    let mut fsync = Vec::with_capacity(PROBE_REPS);
    let mut fresh = Vec::with_capacity(PROBE_REPS);
    for i in 0..PROBE_REPS {
        let tmp = dir.join("probe.tmp");
        write_file(&tmp)?;
        let t = Instant::now();
        fs::rename(&tmp, &target)?;
        replace.push(t.elapsed().as_secs_f64() * 1e3);

        let file = write_file(&dir.join(format!("sync{i}.dat")))?;
        let t = Instant::now();
        file.sync_all()?;
        fsync.push(t.elapsed().as_secs_f64() * 1e3);

        write_file(&tmp)?;
        let t = Instant::now();
        fs::rename(&tmp, dir.join(format!("fresh{i}.dat")))?;
        fresh.push(t.elapsed().as_secs_f64() * 1e3);
    }
    fs::remove_dir_all(dir)?;
    Ok(Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: cpu_model(),
        mmap_zero_copy,
        cpu_probe_ms: cpu_probe_ms(),
        replace_ms: median(&replace),
        fsync_ms: median(&fsync),
        fresh_rename_ms: median(&fresh),
    })
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
