//! Closed-form versus simulated miss ratios at paper scale: the
//! Figure-6 grid answered by stack-distance sweeps and by the analytic
//! reuse-distance-histogram backend, on 5 M-instruction SPEC92 proxy
//! traces across all six workloads.
//!
//! The sweep engine pays `O(refs · log sets)` per line size for every
//! workload; the analytic backend pays one streaming histogram fold
//! per workload (memoised by the trace store) after which *any*
//! (size × line × assoc) point is a histogram walk whose cost is
//! independent of trace length. The run:
//!
//! 1. answers the Figure-6 grid (7 sizes × 5 lines, two-way) with both
//!    backends, asserts their divergence stays within the pinned
//!    [`SET_CONFLICT_TOLERANCE`], and times each;
//! 2. answers the dense million-point grid (every set count 1..=2084,
//!    including the non-power-of-two geometries replay cannot
//!    express) analytically from the warm histograms;
//! 3. records the comparison in `BENCH_analytic.json` at the workspace
//!    root and registers a reduced criterion point.
//!
//! The one-time histogram fold is disclosed as `hist_pass_secs`, not
//! hidden inside the closed-form timings: production suites pay it
//! once per workload and amortise it over every grid they ask for.

use bench::grid::{self, AnalyticBenchResult, DenseGrid, GridSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use simcache::hitratio::SET_CONFLICT_TOLERANCE;
use simcache::{Analytic, HitRatioBackend, Simulated};
use simtrace::workload::builtins;
use std::time::Instant;

const INSTRUCTIONS: usize = 5_000_000;
const WARMUP: u64 = (INSTRUCTIONS as u64) / 5;

/// The Figure-6 grid both backends answer: 7 capacities × 5 line
/// sizes, two-way — 35 points per workload.
fn fig6_spec() -> GridSpec {
    GridSpec {
        cache_sizes: (0..=6).map(|i| 1024u64 << i).collect(),
        line_sizes: vec![8, 16, 32, 64, 128],
        assocs: vec![2],
        warmup: WARMUP,
    }
}

fn eval_grid(backend: &dyn HitRatioBackend, spec: &GridSpec) -> Vec<f64> {
    let mut out = Vec::with_capacity(spec.points());
    for &cache_bytes in &spec.cache_sizes {
        for &line_bytes in &spec.line_sizes {
            for &assoc in &spec.assocs {
                out.push(
                    backend
                        .hit_ratio(cache_bytes, line_bytes, assoc)
                        .expect("grid covered"),
                );
            }
        }
    }
    out
}

fn analytic_comparison(c: &mut Criterion) {
    let spec = fig6_spec();

    // Leg 1: the simulated backend — sweep folds plus point reads.
    let start = Instant::now();
    let sim_grids: Vec<Vec<f64>> = builtins()
        .iter()
        .map(|p| {
            let backend: Simulated = grid::build_simulated(p, &spec, INSTRUCTIONS);
            eval_grid(&backend, &spec)
        })
        .collect();
    let sim_fig6_secs = start.elapsed().as_secs_f64();

    // Leg 2: the one-time streaming histogram folds (cold store).
    let start = Instant::now();
    for p in builtins() {
        std::hint::black_box(grid::build_analytic(p, INSTRUCTIONS, WARMUP));
    }
    let hist_pass_secs = start.elapsed().as_secs_f64();

    // Leg 3: closed-form Figure-6 answers from the warm store.
    let start = Instant::now();
    let analytic_grids: Vec<Vec<f64>> = builtins()
        .iter()
        .map(|p| {
            let backend: Analytic = grid::build_analytic(p, INSTRUCTIONS, WARMUP);
            eval_grid(&backend, &spec)
        })
        .collect();
    let analytic_fig6_secs = start.elapsed().as_secs_f64();

    // Accuracy gate: the speedup is meaningless if the answers drift.
    let mut max_delta_hr = 0.0f64;
    for (s, a) in sim_grids
        .iter()
        .flatten()
        .zip(analytic_grids.iter().flatten())
    {
        max_delta_hr = max_delta_hr.max((s - a).abs());
    }
    assert!(
        max_delta_hr <= SET_CONFLICT_TOLERANCE,
        "backend divergence {max_delta_hr} exceeds tolerance {SET_CONFLICT_TOLERANCE}"
    );

    // Leg 4: the dense million-point grid, closed form only.
    let dense = DenseGrid::standard();
    let start = Instant::now();
    for p in builtins() {
        let backend = grid::build_analytic(p, INSTRUCTIONS, WARMUP);
        std::hint::black_box(grid::dense_best(&backend, &dense, 0.9));
    }
    let dense_eval_secs = start.elapsed().as_secs_f64();

    let result = AnalyticBenchResult {
        instructions: INSTRUCTIONS,
        workloads: builtins().len(),
        fig6_points: spec.points() * builtins().len(),
        sim_fig6_secs,
        analytic_fig6_secs,
        hist_pass_secs,
        max_delta_hr,
        tolerance: SET_CONFLICT_TOLERANCE,
        dense_points: dense.points() * builtins().len(),
        dense_eval_secs,
    };
    println!(
        "analytic backend ({} fig6 points, {} instr): sim {:.3}s ({:.1} points/s), \
         closed form {:.6}s ({:.0} points/s, {:.0}x), hist folds {:.3}s; \
         dense {} points in {:.3}s ({:.0} points/s)",
        result.fig6_points,
        result.instructions,
        result.sim_fig6_secs,
        result.sim_points_per_sec(),
        result.analytic_fig6_secs,
        result.analytic_points_per_sec(),
        result.fig6_speedup(),
        result.hist_pass_secs,
        result.dense_points,
        result.dense_eval_secs,
        result.dense_points_per_sec(),
    );
    assert!(
        result.fig6_speedup() >= 50.0,
        "closed form must answer fig6 points at ≥50x the sweep rate, got {:.1}x",
        result.fig6_speedup()
    );
    assert!(
        result.dense_eval_secs < result.sim_fig6_secs,
        "the million-point dense grid ({:.3}s) must finish before the sim's \
         {}-point fig6 grid ({:.3}s)",
        result.dense_eval_secs,
        result.fig6_points,
        result.sim_fig6_secs
    );
    let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_analytic.json");
    if let Err(e) = result.write_json(&json) {
        eprintln!("warning: could not write {}: {e}", json.display());
    }

    // A reduced criterion point tracks the closed-form evaluation rate
    // (warm histograms, small dense slice) run to run.
    let backend = grid::build_analytic(&builtins()[0], INSTRUCTIONS, WARMUP);
    let small = DenseGrid::small();
    let mut group = c.benchmark_group("analytic_backend");
    group.bench_function("dense_small_warm", |b| {
        b.iter(|| grid::dense_best(&backend, &small, 0.9));
    });
    group.finish();
}

criterion_group!(benches, analytic_comparison);
criterion_main!(benches);
