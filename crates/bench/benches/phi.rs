//! Figure-1 sweep benchmark: per-point full CPU simulation versus the
//! miss-event timeline engine (extract each program's timeline once,
//! replay it for every (feature, β_m) point).
//!
//! Both paths are measured single-threaded and self-contained — the
//! timeline path pays its trace generations and cache passes inside the
//! timed region (no memoisation), so the ratio is the engine's honest
//! algorithmic win, with `bench::exec` parallelism on top in production.
//!
//! Besides the criterion timings, the run asserts the two paths produce
//! bit-identical `SimResult`s on every point and records the wall-clock
//! comparison in `BENCH_phi.json` at the workspace root.

use bench::common::figure1_cache;
use bench::fig1::{PhiBenchResult, BETAS};
use criterion::{criterion_group, criterion_main, Criterion};
use simcpu::{Cpu, CpuConfig, MissTimeline, SimResult, StallFeature, TimelineCpu};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::builtins;
use std::time::Instant;

const INSTRUCTIONS: usize = 120_000;
const SEED: u64 = 0xDEAD_BEEF;

fn config(stall: StallFeature, beta: u64) -> CpuConfig {
    CpuConfig::baseline(
        figure1_cache(32),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), beta),
    )
    .with_stall(stall)
}

fn points() -> Vec<(StallFeature, u64)> {
    StallFeature::MEASURED
        .iter()
        .flat_map(|&f| BETAS.iter().map(move |&b| (f, b)))
        .collect()
}

/// The pre-engine path: every (feature, β, program) point generates the
/// trace and runs the full cache + CPU simulation from scratch.
fn full_simulation() -> Vec<SimResult> {
    let mut out = Vec::new();
    for &(stall, beta) in &points() {
        for p in builtins() {
            out.push(Cpu::new(config(stall, beta)).run(p.compile(SEED).take(INSTRUCTIONS)));
        }
    }
    out
}

/// The engine path: one trace generation + one cache pass per program,
/// then every timing point is an `O(misses)` replay.
fn timeline_replay() -> Vec<SimResult> {
    let timelines: Vec<MissTimeline> = builtins()
        .iter()
        .map(|p| MissTimeline::extract(figure1_cache(32), p.compile(SEED).take(INSTRUCTIONS)))
        .collect();
    let mut out = Vec::new();
    for &(stall, beta) in &points() {
        for tl in &timelines {
            out.push(
                TimelineCpu::new(tl, config(stall, beta))
                    .expect("supported config")
                    .run(),
            );
        }
    }
    out
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

fn phi_comparison(c: &mut Criterion) {
    // Correctness gate: the replay must be bit-identical to the full
    // simulation on every point before its speedup means anything.
    let fast = timeline_replay();
    let slow = full_simulation();
    assert_eq!(fast, slow, "timeline and full simulation diverged");

    let full_secs = time_best(2, || {
        full_simulation();
    });
    let timeline_secs = time_best(5, || {
        timeline_replay();
    });

    let result = PhiBenchResult {
        points: fast.len(),
        instructions: INSTRUCTIONS,
        full_secs,
        timeline_secs,
    };
    println!(
        "figure1 sweep ({} points, {} instr): full {:.3}s, timeline {:.3}s, speedup {:.1}x, {:.1} points/s",
        result.points,
        result.instructions,
        result.full_secs,
        result.timeline_secs,
        result.speedup(),
        result.points_per_sec(),
    );
    let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_phi.json");
    if let Err(e) = result.write_json(&json) {
        eprintln!("warning: could not write {}: {e}", json.display());
    }

    let mut group = c.benchmark_group("figure1_phi");
    group.bench_function("timeline_replay", |b| {
        b.iter(timeline_replay);
    });
    group.bench_function("full_simulation", |b| {
        b.iter(full_simulation);
    });
    group.finish();
}

criterion_group!(benches, phi_comparison);
criterion_main!(benches);
