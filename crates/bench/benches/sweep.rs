//! Design-space grid benchmark: per-configuration replay versus the
//! single-pass stack-distance sweep, on the Figure-6 grid (7 cache
//! sizes × 5 line sizes, two-way) over a SPEC92 proxy trace.
//!
//! The sweep side is the production path — `run_sweep`, one
//! `grid::build_simulated` fold per workload. Besides the criterion
//! timings, the run asserts the two paths produce identical points and
//! records the wall-clock comparison in `BENCH_sweep.json` at the
//! workspace root.

use bench::grid::GridSpec;
use bench::sweep::{run_sweep, SweepBenchResult, SWEEP_SEED};
use criterion::{criterion_group, criterion_main, Criterion};
use simcache::explore::{hit_ratio_grid_replay, HitRatioPoint};
use simtrace::workload::builtin;
use simtrace::{Instr, WorkloadSpec};
use std::time::Instant;

const INSTRUCTIONS: usize = 120_000;

fn program() -> &'static WorkloadSpec {
    builtin("nasa7").unwrap()
}

fn trace() -> impl Iterator<Item = Instr> {
    program().compile(SWEEP_SEED).take(INSTRUCTIONS)
}

fn sweep(grid: &GridSpec) -> Vec<HitRatioPoint> {
    let mut results = run_sweep(&[program()], grid, INSTRUCTIONS);
    results.pop().expect("one workload").points
}

fn replay(grid: &GridSpec) -> Vec<HitRatioPoint> {
    hit_ratio_grid_replay(
        &grid.cache_sizes,
        &grid.line_sizes,
        grid.assocs[0],
        trace,
        grid.warmup,
    )
    .expect("valid grid")
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
    let grid = GridSpec::figure6(INSTRUCTIONS as u64 / 5);

    // Correctness gate: the sweep must be bit-identical to the replay
    // before its speedup means anything.
    assert_eq!(
        sweep(&grid),
        replay(&grid),
        "sweep and replay grids diverged"
    );

    let replay_secs = time_best(3, || {
        replay(&grid);
    });
    let sweep_secs = time_best(5, || {
        sweep(&grid);
    });

    let result = SweepBenchResult {
        grid_points: grid.points(),
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
    group.bench_function("single_pass_sweep", |b| b.iter(|| sweep(&grid)));
    group.bench_function("per_config_replay", |b| b.iter(|| replay(&grid)));
    group.finish();
}

criterion_group!(benches, grid_comparison);
criterion_main!(benches);
