//! Design-space grid benchmark: per-configuration replay versus the
//! single-pass stack-distance sweep, on the Figure-6 grid (7 cache
//! sizes × 5 line sizes, two-way) over a SPEC92 proxy trace.
//!
//! Besides the criterion timings, the run asserts the two paths produce
//! identical points and records the wall-clock comparison in
//! `BENCH_sweep.json` at the workspace root.

use bench::sweep::SweepBenchResult;
use criterion::{criterion_group, criterion_main, Criterion};
use simcache::explore::{hit_ratio_grid, hit_ratio_grid_replay};
use simtrace::workload::builtin;
use simtrace::Instr;
use std::time::Instant;

const INSTRUCTIONS: usize = 120_000;
const WARMUP: u64 = INSTRUCTIONS as u64 / 5;
const LINES: [u64; 5] = [8, 16, 32, 64, 128];

fn sizes() -> Vec<u64> {
    (0..=6).map(|i| 1024u64 << i).collect()
}

fn trace() -> impl Iterator<Item = Instr> {
    builtin("nasa7").unwrap().compile(7).take(INSTRUCTIONS)
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

fn grid_comparison(c: &mut Criterion) {
    let sizes = sizes();

    // Correctness gate: the sweep must be bit-identical to the replay
    // before its speedup means anything.
    let fast = hit_ratio_grid(&sizes, &LINES, 2, trace, WARMUP).expect("valid grid");
    let replay = hit_ratio_grid_replay(&sizes, &LINES, 2, trace, WARMUP).expect("valid grid");
    assert_eq!(fast, replay, "sweep and replay grids diverged");

    let replay_secs = time_best(3, || {
        hit_ratio_grid_replay(&sizes, &LINES, 2, trace, WARMUP).expect("valid grid");
    });
    let sweep_secs = time_best(5, || {
        hit_ratio_grid(&sizes, &LINES, 2, trace, WARMUP).expect("valid grid");
    });

    let result = SweepBenchResult {
        grid_points: sizes.len() * LINES.len(),
        instructions: INSTRUCTIONS,
        replay_secs,
        sweep_secs,
    };
    println!(
        "figure6 grid ({} points, {} instr): replay {:.3}s, sweep {:.3}s, speedup {:.1}x, {:.1} points/s",
        result.grid_points,
        result.instructions,
        result.replay_secs,
        result.sweep_secs,
        result.speedup(),
        result.points_per_sec(),
    );
    let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    if let Err(e) = result.write_json(&json) {
        eprintln!("warning: could not write {}: {e}", json.display());
    }

    let mut group = c.benchmark_group("figure6_grid");
    group.bench_function("single_pass_sweep", |b| {
        b.iter(|| hit_ratio_grid(&sizes, &LINES, 2, trace, WARMUP).expect("valid grid"));
    });
    group.bench_function("per_config_replay", |b| {
        b.iter(|| hit_ratio_grid_replay(&sizes, &LINES, 2, trace, WARMUP).expect("valid grid"));
    });
    group.finish();
}

criterion_group!(benches, grid_comparison);
criterion_main!(benches);
