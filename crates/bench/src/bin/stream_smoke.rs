//! Streaming-pipeline smoke: runs a Figure-6 sweep grid and a Figure-1
//! φ batch through the chunked generate→fold pipeline, checks peak RSS
//! stayed bounded (the point of streaming), then verifies the folded
//! numbers byte-identically against the materialise-then-scan oracle.
//!
//! ```text
//! stream_smoke [--instructions N] [--rss-limit-mb MB]
//! ```
//!
//! Defaults: 1 M instructions, 256 MB ceiling. The RSS check reads
//! `VmHWM` from `/proc/self/status` *before* the oracle pass (which
//! deliberately materialises the whole trace and would dominate the
//! high-water mark). Exit codes: `0` success, `1` RSS ceiling or
//! oracle mismatch, `2` bad usage.
//!
//! Wired into tier-1 as `./ci.sh stream`.

use bench::grid::GridSpec;
use bench::stream::{self, FoldOut, FoldSink};
use bench::sweep::grid_points;
use simcache::explore::{hit_ratio_grid_replay, HitRatioPoint};
use simcache::Simulated;
use simcpu::{Cpu, CpuConfig, MissTimeline, MissTimelineBuilder, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::chunk::DEFAULT_CHUNK_INSTRUCTIONS;
use simtrace::workload::{builtin, CompiledTrace};
use simtrace::{Instr, INSTR_BYTES};
use std::process::ExitCode;

const SEED: u64 = 7;
const PROGRAM: &str = "nasa7";
const BETAS: [u64; 3] = [4, 22, 50];

/// The first `n` instructions of the smoke workload.
fn trace(n: usize) -> std::iter::Take<CompiledTrace> {
    builtin(PROGRAM)
        .expect("a built-in workload")
        .compile(SEED)
        .take(n)
}

fn usage() -> ExitCode {
    eprintln!("usage: stream_smoke [--instructions N] [--rss-limit-mb MB]");
    ExitCode::from(2)
}

fn phi_points() -> Vec<(StallFeature, u64)> {
    StallFeature::MEASURED
        .iter()
        .flat_map(|&f| BETAS.iter().map(move |&b| (f, b)))
        .collect()
}

fn phi_cache() -> simcache::CacheConfig {
    simcache::CacheConfig::new(8 * 1024, 32, 2).expect("valid 8KB cache")
}

fn config(stall: StallFeature, beta: u64) -> CpuConfig {
    CpuConfig::baseline(
        phi_cache(),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    )
    .with_stall(stall)
}

/// One streamed pass: grid points from five sweep sinks, φ values from
/// a timeline sink's `O(misses)` replays.
fn streamed(n: usize, grid: &GridSpec, chunk: usize) -> (Vec<HitRatioPoint>, Vec<f64>) {
    let mut sinks: Vec<FoldSink> = grid.sweeps().into_iter().map(FoldSink::Sweep).collect();
    sinks.push(FoldSink::Timeline(MissTimelineBuilder::new(phi_cache())));
    let mut out = stream::broadcast(trace(n), chunk, sinks);
    let timeline: MissTimeline = out.pop().expect("timeline sink").into_timeline();
    let sim = Simulated::from_sweeps(out.into_iter().map(FoldOut::into_sweep).collect());
    let phis = phi_points()
        .iter()
        .map(|&(stall, beta)| {
            TimelineCpu::new(&timeline, config(stall, beta))
                .expect("timeline supports the φ configs")
                .run()
                .phi()
        })
        .collect();
    (grid_points(&sim, grid), phis)
}

fn main() -> ExitCode {
    let mut instructions: usize = 1_000_000;
    let mut rss_limit_mb: u64 = 256;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |a: Option<String>| a.ok_or(());
        match arg.as_str() {
            "--instructions" => match value(args.next()).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(n) if n > 0 => instructions = n,
                _ => return usage(),
            },
            "--rss-limit-mb" => match value(args.next()).and_then(|v| v.parse().map_err(|_| ())) {
                Ok(mb) => rss_limit_mb = mb,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    let spec = GridSpec::figure6(instructions as u64 / 5);
    let chunk = DEFAULT_CHUNK_INSTRUCTIONS;
    let (grid, phis) = streamed(instructions, &spec, chunk);

    // RSS gate first: the oracle pass below materialises the whole
    // trace on purpose and would swamp the high-water mark.
    let peak = stream::peak_rss_bytes();
    match peak {
        Some(bytes) => {
            let limit = rss_limit_mb * 1024 * 1024;
            println!(
                "stream_smoke: {} instr in {}-instr chunks ({} KB/chunk), {} grid + {} φ points, peak RSS {:.1} MB (limit {} MB)",
                instructions,
                chunk,
                chunk * INSTR_BYTES / 1024,
                grid.len(),
                phis.len(),
                bytes as f64 / (1024.0 * 1024.0),
                rss_limit_mb,
            );
            if bytes > limit {
                eprintln!(
                    "stream_smoke: FAIL: peak RSS {bytes} B exceeds {limit} B — streaming is not bounding memory"
                );
                return ExitCode::FAILURE;
            }
        }
        None => println!("stream_smoke: /proc/self/status unavailable, skipping RSS ceiling"),
    }

    // Oracle gate: materialise-then-scan must agree byte for byte.
    let whole: Vec<Instr> = trace(instructions).collect();
    let oracle_grid = hit_ratio_grid_replay(
        &spec.cache_sizes,
        &spec.line_sizes,
        spec.assocs[0],
        || whole.iter().copied(),
        spec.warmup,
    )
    .expect("valid grid");
    if grid != oracle_grid {
        eprintln!("stream_smoke: FAIL: streamed grid diverged from the replay oracle");
        return ExitCode::FAILURE;
    }
    for (&(stall, beta), &phi) in phi_points().iter().zip(&phis) {
        let oracle = Cpu::new(config(stall, beta))
            .run(whole.iter().copied())
            .phi();
        if phi != oracle {
            eprintln!(
                "stream_smoke: FAIL: φ diverged at ({stall:?}, β={beta}): streamed {phi}, oracle {oracle}"
            );
            return ExitCode::FAILURE;
        }
    }
    println!("stream_smoke: OK — streamed folds byte-identical to the materialised oracle");
    ExitCode::SUCCESS
}
