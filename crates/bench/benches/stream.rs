//! Paper-scale streaming benchmark: materialise-then-scan versus the
//! chunked generate→fold pipeline on a 5 M-instruction SPEC92 proxy
//! trace.
//!
//! The baseline is how every figure was produced before the engines
//! landed: collect the whole trace into memory, replay it once per
//! Figure-6 grid configuration, and run the full CPU simulation once
//! per Figure-1 φ point. The streaming path answers the identical
//! points with one chunked generation pass broadcast into per-line-size
//! stack-distance sweeps plus a miss-timeline sink, then `O(misses)`
//! replays — peak trace-resident memory is a few `REPRO_STREAM_CHUNK`
//! blocks instead of `24 B × N`.
//!
//! The run asserts both paths produce identical grid points and φ
//! values before timing anything, records the comparison in
//! `BENCH_stream.json` at the workspace root, and registers a reduced
//! criterion point so `cargo bench` tracks the pipeline's shape over
//! time.

use bench::stream::{self, FoldOut, FoldSink, StreamBenchResult};
use criterion::{criterion_group, criterion_main, Criterion};
use simcache::explore::{hit_ratio_grid_replay, HitRatioPoint};
use simcache::stackdist::StackDistSweep;
use simcpu::{Cpu, CpuConfig, MissTimeline, MissTimelineBuilder, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::builtin;
use simtrace::{Instr, ReuseHistograms};
use std::time::Instant;

/// The streaming point: paper-scale, far beyond what the materialised
/// benches (`sweep.rs`, `phi.rs`) run.
const INSTRUCTIONS: usize = 5_000_000;
/// The long streaming-only point: ~24 B × 50 M ≈ 1.2 GB materialised —
/// past the box's memory budget, so there is no baseline leg; the
/// record is the pipeline's sustained instruction rate with every
/// production sink attached.
const LARGE_INSTRUCTIONS: usize = 50_000_000;
const SEED: u64 = 7;
const PROGRAM: &str = "nasa7";
const LINES: [u64; 5] = [8, 16, 32, 64, 128];
const ASSOC: u32 = 2;
/// Figure-1 φ points: every blocking stall feature of Table 2 over the
/// full paper β_m sweep, at three bus widths. Every one of these is a
/// fresh 5 M-instruction `Cpu::run` for the baseline; the streaming
/// pipeline answers the whole batch with a single `O(misses)` walk of
/// the shared timeline (`MissTimeline::replay_batch`) — exactly the
/// asymmetry the methodology exists to exploit.
const FEATURES: [StallFeature; 5] = [
    StallFeature::FullStall,
    StallFeature::BusLocked,
    StallFeature::BusNotLocked1,
    StallFeature::BusNotLocked2,
    StallFeature::BusNotLocked3,
];
const BETAS: [u64; 7] = bench::fig1::BETAS;
const BUSES: [u64; 3] = [4, 8, 16];

fn sizes() -> Vec<u64> {
    (0..=6).map(|i| 1024u64 << i).collect()
}

fn phi_points() -> Vec<(StallFeature, u64, u64)> {
    FEATURES
        .iter()
        .flat_map(|&f| {
            BETAS
                .iter()
                .flat_map(move |&b| BUSES.iter().map(move |&bus| (f, b, bus)))
        })
        .collect()
}

fn phi_cache() -> simcache::CacheConfig {
    simcache::CacheConfig::new(8 * 1024, 32, ASSOC).expect("valid 8KB cache")
}

fn config(stall: StallFeature, beta: u64, bus: u64) -> CpuConfig {
    CpuConfig::baseline(
        phi_cache(),
        MemoryTiming::new(BusWidth::new(bus).expect("valid bus"), beta),
    )
    .with_stall(stall)
}

fn trace(n: usize) -> impl Iterator<Item = Instr> {
    builtin(PROGRAM)
        .expect("a built-in workload")
        .compile(SEED)
        .take(n)
}

/// Assembles grid points from per-line-size sweeps, (cache, line) order
/// like the replay oracle.
fn grid_from_sweeps(sweeps: &[StackDistSweep], sizes: &[u64]) -> Vec<HitRatioPoint> {
    let mut points = Vec::with_capacity(sizes.len() * LINES.len());
    for &cache_bytes in sizes {
        for (li, &line_bytes) in LINES.iter().enumerate() {
            let sets = cache_bytes / (line_bytes * u64::from(ASSOC));
            let stats = sweeps[li].stats(sets.trailing_zeros(), ASSOC);
            points.push(HitRatioPoint {
                cache_bytes,
                line_bytes,
                hit_ratio: stats.hit_ratio(),
                flush_ratio: stats.flush_ratio(),
            });
        }
    }
    points
}

/// The materialise-then-scan baseline: collect the trace, replay it per
/// grid configuration, full-simulate it per φ point.
fn baseline(n: usize, sizes: &[u64]) -> (Vec<HitRatioPoint>, Vec<f64>) {
    let whole: Vec<Instr> = trace(n).collect();
    let grid = hit_ratio_grid_replay(sizes, &LINES, ASSOC, || whole.iter().copied(), n as u64 / 5)
        .expect("valid grid");
    let phis = phi_points()
        .iter()
        .map(|&(stall, beta, bus)| {
            Cpu::new(config(stall, beta, bus))
                .run(whole.iter().copied())
                .phi()
        })
        .collect();
    (grid, phis)
}

/// The streaming pipeline: one chunked generation pass broadcast into
/// five sweep sinks and a timeline sink, then one batched `O(misses)`
/// walk of the timeline answering every φ point at once.
fn streaming(n: usize, sizes: &[u64], chunk: usize) -> (Vec<HitRatioPoint>, Vec<f64>) {
    let min_sets = |l: u64| {
        sizes
            .iter()
            .map(|&c| c / (l * u64::from(ASSOC)))
            .min()
            .unwrap()
    };
    let max_sets = |l: u64| {
        sizes
            .iter()
            .map(|&c| c / (l * u64::from(ASSOC)))
            .max()
            .unwrap()
    };
    let mut sinks: Vec<FoldSink> = LINES
        .iter()
        .map(|&l| {
            FoldSink::Sweep(
                StackDistSweep::new_range(
                    l,
                    min_sets(l).trailing_zeros(),
                    max_sets(l).trailing_zeros(),
                    ASSOC,
                    n as u64 / 5,
                )
                .expect("valid sweep"),
            )
        })
        .collect();
    sinks.push(FoldSink::Timeline(MissTimelineBuilder::new(phi_cache())));
    let mut out = stream::broadcast(trace(n), chunk, sinks);
    let timeline: MissTimeline = out.pop().expect("timeline sink").into_timeline();
    let sweeps: Vec<StackDistSweep> = out.into_iter().map(FoldOut::into_sweep).collect();
    let grid = grid_from_sweeps(&sweeps, sizes);
    let configs: Vec<CpuConfig> = phi_points()
        .iter()
        .map(|&(stall, beta, bus)| config(stall, beta, bus))
        .collect();
    let phis = timeline
        .replay_batch(&configs)
        .expect("timeline supports the φ configs")
        .iter()
        .map(simcpu::SimResult::phi)
        .collect();
    (grid, phis)
}

/// The streaming-only long run: the same sweep + timeline sink set as
/// [`streaming`], plus the analytic backend's multi-granularity
/// reuse-distance histogram fold — one generation pass feeding every
/// sink a production suite run uses, at a trace length the
/// materialise-then-scan baseline cannot hold in memory.
fn streaming_large(n: usize, sizes: &[u64], chunk: usize) {
    let min_sets = |l: u64| {
        sizes
            .iter()
            .map(|&c| c / (l * u64::from(ASSOC)))
            .min()
            .unwrap()
    };
    let max_sets = |l: u64| {
        sizes
            .iter()
            .map(|&c| c / (l * u64::from(ASSOC)))
            .max()
            .unwrap()
    };
    let mut sinks: Vec<FoldSink> = LINES
        .iter()
        .map(|&l| {
            FoldSink::Sweep(
                StackDistSweep::new_range(
                    l,
                    min_sets(l).trailing_zeros(),
                    max_sets(l).trailing_zeros(),
                    ASSOC,
                    n as u64 / 5,
                )
                .expect("valid sweep"),
            )
        })
        .collect();
    sinks.push(FoldSink::Timeline(MissTimelineBuilder::new(phi_cache())));
    sinks.push(FoldSink::Hist(ReuseHistograms::new(
        8,
        128,
        1 << 14,
        n as u64 / 5,
    )));
    std::hint::black_box(stream::broadcast(trace(n), chunk, sinks));
}

/// Best-of-`reps` wall-clock seconds for one run of `f`.
fn time_best(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn stream_comparison(c: &mut Criterion) {
    let sizes = sizes();
    let chunk = stream::chunk_instructions();

    // Correctness gate: the streaming pipeline must answer the exact
    // same design points before its speedup means anything.
    let (base_grid, base_phis) = baseline(INSTRUCTIONS, &sizes);
    let (stream_grid, stream_phis) = streaming(INSTRUCTIONS, &sizes, chunk);
    assert_eq!(base_grid, stream_grid, "grid points diverged");
    assert_eq!(base_phis, stream_phis, "φ points diverged");

    let baseline_secs = time_best(1, || {
        std::hint::black_box(baseline(INSTRUCTIONS, &sizes));
    });
    let streaming_secs = time_best(2, || {
        std::hint::black_box(streaming(INSTRUCTIONS, &sizes, chunk));
    });
    let large_streaming_secs = time_best(1, || {
        streaming_large(LARGE_INSTRUCTIONS, &sizes, chunk);
    });

    let result = StreamBenchResult {
        grid_points: sizes.len() * LINES.len(),
        phi_points: phi_points().len(),
        instructions: INSTRUCTIONS,
        chunk_instructions: chunk,
        baseline_secs,
        streaming_secs,
        large_instructions: LARGE_INSTRUCTIONS,
        large_streaming_secs,
    };
    println!(
        "streaming pipeline ({} grid + {} φ points, {} instr, {}-instr chunks): \
         materialise-then-scan {:.3}s, streaming {:.3}s, speedup {:.1}x, {:.1} points/s; \
         {} instr streaming-only in {:.3}s ({:.0} instr/s)",
        result.grid_points,
        result.phi_points,
        result.instructions,
        result.chunk_instructions,
        result.baseline_secs,
        result.streaming_secs,
        result.speedup(),
        result.points_per_sec(),
        result.large_instructions,
        result.large_streaming_secs,
        result.large_instr_per_sec(),
    );
    let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stream.json");
    if let Err(e) = result.write_json(&json) {
        eprintln!("warning: could not write {}: {e}", json.display());
    }

    // A reduced criterion point tracks the pipeline's shape run to run
    // without re-paying the 5 M-instruction comparison per sample.
    let small = INSTRUCTIONS / 25;
    let mut group = c.benchmark_group("streaming_pipeline");
    group.bench_function("chunked_fold_200k", |b| {
        b.iter(|| streaming(small, &sizes, chunk));
    });
    group.finish();
}

criterion_group!(benches, stream_comparison);
criterion_main!(benches);
