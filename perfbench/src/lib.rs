//! The repository benchmark: end-to-end runs of `tradeoff-server` and
//! the experiment suite, and a traced run per layer.
//!
//! `perfbench --workload <serve-hot|serve-cold|suite> --seed N
//! --seconds S --trace <0|1>` prints one JSON result line; see
//! `perfbench/README.md` for the workloads, the metrics and what each
//! one is expected to move.

pub mod metrics;
pub mod queries;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

use std::path::PathBuf;

/// Where runs leave span files and scratch state, relative to the
/// checkout root the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// A field of `/proc/self/status` (`VmRSS`, `VmHWM`, …) in MiB; zero
/// where the platform has no procfs.
pub(crate) fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, as 16 hex digits: the fingerprint processes
/// exchange to prove two renderings byte-identical.
pub(crate) fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}
