//! EXP-GRID — the closed-form miss-ratio backend on dense design grids.
//!
//! The sweep engine already answers Figure-6-style grids in one pass
//! per line size, but it still *simulates*: every additional set count
//! or associativity costs tree updates per reference. The analytic
//! backend ([`simcache::Analytic`]) inverts the cost structure — one
//! streaming reuse-distance fold per workload ([`tracestore`]
//! memoises it), after which any (size × line × assoc) point is a
//! histogram walk, independent of trace length. This experiment:
//!
//! 1. runs both backends over the Figure-6 comparison grid (7 cache
//!    sizes × 5 line sizes × associativity 1/2/4) and reports the
//!    per-workload divergence against the pinned
//!    [`simcache::hitratio::SET_CONFLICT_TOLERANCE`];
//! 2. answers a *dense* grid no simulator pass here could touch —
//!    every set count from 1 to [`DenseGrid::standard`]'s cap,
//!    including the non-power-of-two geometries replay cannot even
//!    express — and reports the cheapest geometry per workload
//!    reaching a target hit ratio.

use crate::registry::{ExpReport, Experiment, RunCtx};
use crate::sweep::SWEEP_SEED;
use crate::{stream, tracestore};
use report::{Artifact, Table};
use simcache::hitratio::SET_CONFLICT_TOLERANCE;
use simcache::stackdist::StackDistSweep;
use simcache::{Analytic, HitRatioBackend, Simulated};
use simtrace::workload::{builtins, WorkloadSpec};

// The grid shapes (and the dense-grid search) are owned by the typed
// query API so the CLI, the query server and this experiment provably
// answer from one definition; this module re-exports them under their
// historical paths.
pub use tradeoff::api::{dense_best, DenseBest, DenseGrid, GridSpec, HIST_DISTANCE_CAP};

/// Builds the simulated backend for one workload: one
/// [`StackDistSweep`] per line size covering the grid's full set range,
/// fed by the chunked [`stream`] pipeline (resident traces fold in
/// place, cold ones stream without pinning).
pub fn build_simulated(workload: &WorkloadSpec, spec: &GridSpec, instructions: usize) -> Simulated {
    let chunk = stream::chunk_instructions();
    let amax = *spec.assocs.iter().max().expect("grid has assocs");
    let sinks: Vec<StackDistSweep> = spec
        .line_sizes
        .iter()
        .map(|&line_bytes| {
            StackDistSweep::new_range(
                line_bytes,
                spec.min_sets(line_bytes).trailing_zeros(),
                spec.max_sets(line_bytes).trailing_zeros(),
                amax,
                spec.warmup,
            )
            .expect("valid grid line size")
        })
        .collect();
    let folded = match tracestore::resident_workload_trace(workload, SWEEP_SEED, instructions) {
        Some(trace) => stream::fold_slice(trace.instrs(), chunk, sinks),
        None => stream::broadcast(
            workload.compile(SWEEP_SEED).take(instructions),
            chunk,
            sinks,
        ),
    };
    Simulated::from_sweeps(folded)
}

/// Builds the analytic backend for one workload from the memoised
/// reuse-distance fold: all power-of-two line sizes 8–128 B in one
/// pass, [`HIST_DISTANCE_CAP`] distance buckets, shared process-wide
/// through [`tracestore::workload_histograms`].
pub fn build_analytic(workload: &WorkloadSpec, instructions: usize, warmup: u64) -> Analytic {
    let hists = tracestore::workload_histograms(
        workload,
        SWEEP_SEED,
        instructions,
        8,
        128,
        HIST_DISTANCE_CAP,
        warmup,
    );
    Analytic::from_histograms(&hists)
}

/// One grid point answered by both backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// Simulated hit ratio.
    pub sim: f64,
    /// Analytic hit ratio.
    pub analytic: f64,
}

impl GridPoint {
    /// Absolute backend divergence.
    pub fn delta(&self) -> f64 {
        (self.sim - self.analytic).abs()
    }
}

/// One workload's comparison grid, points in (cache, line, assoc)
/// order.
#[derive(Debug, Clone)]
pub struct WorkloadGrid {
    /// The workload.
    pub program: &'static WorkloadSpec,
    /// Points answered by both backends.
    pub points: Vec<GridPoint>,
}

impl WorkloadGrid {
    /// Largest backend divergence across the grid.
    pub fn max_delta(&self) -> f64 {
        self.points.iter().map(GridPoint::delta).fold(0.0, f64::max)
    }

    /// Mean backend divergence across the grid.
    pub fn mean_delta(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(GridPoint::delta).sum::<f64>() / self.points.len() as f64
    }
}

/// Answers the comparison grid with both backends for every workload.
///
/// # Panics
///
/// Panics if a grid combination is outside either backend's coverage.
pub fn compare(
    programs: &[&'static WorkloadSpec],
    spec: &GridSpec,
    instructions: usize,
) -> Vec<WorkloadGrid> {
    programs
        .iter()
        .map(|&program| {
            let sim = build_simulated(program, spec, instructions);
            let analytic = build_analytic(program, instructions, spec.warmup);
            let mut points = Vec::with_capacity(spec.points());
            for &cache_bytes in &spec.cache_sizes {
                for &line_bytes in &spec.line_sizes {
                    for &assoc in &spec.assocs {
                        let s = sim
                            .hit_ratio(cache_bytes, line_bytes, assoc)
                            .expect("comparison grid covered by sweeps");
                        let a = analytic
                            .hit_ratio(cache_bytes, line_bytes, assoc)
                            .expect("comparison grid covered by histograms");
                        points.push(GridPoint {
                            cache_bytes,
                            line_bytes,
                            assoc,
                            sim: s,
                            analytic: a,
                        });
                    }
                }
            }
            WorkloadGrid { program, points }
        })
        .collect()
}

/// Renders the backend-agreement table: per-workload max and mean
/// divergence against the pinned tolerance.
pub fn render(results: &[WorkloadGrid], spec: &GridSpec) -> String {
    let mut t = Table::new(["program", "max |ΔHR|", "mean |ΔHR|", "within tolerance"]);
    for wg in results {
        t.row([
            wg.program.to_string(),
            format!("{:.4}", wg.max_delta()),
            format!("{:.4}", wg.mean_delta()),
            (wg.max_delta() <= SET_CONFLICT_TOLERANCE).to_string(),
        ]);
    }
    format!(
        "Simulated vs analytic backend over the comparison grid \
         ({} points/workload, tolerance {SET_CONFLICT_TOLERANCE}):\n{}",
        spec.points(),
        t.render()
    )
}

/// The full comparison grid as a typed `grid.csv` artifact.
pub fn artifact(results: &[WorkloadGrid]) -> Artifact {
    let mut rows = Vec::new();
    for wg in results {
        for p in &wg.points {
            rows.push(vec![
                wg.program.to_string(),
                p.cache_bytes.to_string(),
                p.line_bytes.to_string(),
                p.assoc.to_string(),
                format!("{:.6}", p.sim),
                format!("{:.6}", p.analytic),
                format!("{:.6}", p.delta()),
            ]);
        }
    }
    Artifact::csv(
        "grid.csv",
        &[
            "program",
            "cache_bytes",
            "line_bytes",
            "assoc",
            "sim_hit_ratio",
            "analytic_hit_ratio",
            "abs_delta",
        ],
        rows,
    )
}

/// Renders the dense-grid capacity-planning table: per workload, the
/// cheapest geometry reaching `target_hr`.
pub fn dense_render(
    programs: &[&'static WorkloadSpec],
    grid: &DenseGrid,
    instructions: usize,
    warmup: u64,
    target_hr: f64,
) -> String {
    let mut t = Table::new(["program", "cache", "geometry", "hit ratio"]);
    for &program in programs {
        let analytic = build_analytic(program, instructions, warmup);
        let row = match dense_best(&analytic, grid, target_hr) {
            Some(b) => [
                program.to_string(),
                format!("{} B", b.cache_bytes),
                format!("{} sets × {} B × {}-way", b.sets, b.line_bytes, b.assoc),
                format!("{:.4}", b.hit_ratio),
            ],
            None => [
                program.to_string(),
                "-".to_string(),
                "unreachable".to_string(),
                "-".to_string(),
            ],
        };
        t.row(row);
    }
    format!(
        "\nCheapest geometry reaching HR ≥ {target_hr} on the dense analytic grid \
         ({} points/workload, {} total — set counts 1..={}, closed form, no simulation):\n{}",
        grid.points(),
        grid.points() * programs.len(),
        grid.max_sets,
        t.render()
    )
}

/// Timing comparison between the sweep simulator and the closed-form
/// analytic backend, as recorded in `BENCH_analytic.json` by the
/// `analytic` benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticBenchResult {
    /// Trace length in instructions.
    pub instructions: usize,
    /// Workloads measured.
    pub workloads: usize,
    /// Figure-6 grid points answered by both backends (total across
    /// workloads).
    pub fig6_points: usize,
    /// Wall-clock seconds for the simulated backend to answer the
    /// Figure-6 grid (sweep folds plus point reads).
    pub sim_fig6_secs: f64,
    /// Wall-clock seconds for the analytic backend to answer the same
    /// grid from memoised histograms (closed form, no simulation).
    pub analytic_fig6_secs: f64,
    /// One-time cost of the streaming reuse-distance folds the
    /// analytic answers amortise (disclosed separately: the trace
    /// store memoises it across every grid the suite asks for).
    pub hist_pass_secs: f64,
    /// Largest |ΔHR| between the backends over the Figure-6 grid.
    pub max_delta_hr: f64,
    /// The pinned [`SET_CONFLICT_TOLERANCE`] the divergence is held to.
    pub tolerance: f64,
    /// Dense analytic-only grid points answered (total across
    /// workloads).
    pub dense_points: usize,
    /// Wall-clock seconds to answer the dense grid from warm
    /// histograms.
    pub dense_eval_secs: f64,
}

impl AnalyticBenchResult {
    /// Figure-6 points per second, simulated backend.
    pub fn sim_points_per_sec(&self) -> f64 {
        self.fig6_points as f64 / self.sim_fig6_secs
    }

    /// Figure-6 points per second, analytic backend.
    pub fn analytic_points_per_sec(&self) -> f64 {
        self.fig6_points as f64 / self.analytic_fig6_secs
    }

    /// Points-per-second ratio of the backends on the Figure-6 grid.
    pub fn fig6_speedup(&self) -> f64 {
        self.sim_fig6_secs / self.analytic_fig6_secs
    }

    /// Dense-grid points per second through the analytic backend.
    pub fn dense_points_per_sec(&self) -> f64 {
        self.dense_points as f64 / self.dense_eval_secs
    }

    /// Serialises the record as a small JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"analytic_backend\",\n  \"instructions\": {},\n  \"workloads\": {},\n  \"fig6_points\": {},\n  \"sim_fig6_secs\": {:.6},\n  \"analytic_fig6_secs\": {:.6},\n  \"fig6_speedup\": {:.1},\n  \"hist_pass_secs\": {:.6},\n  \"max_delta_hr\": {:.6},\n  \"tolerance\": {},\n  \"dense_points\": {},\n  \"dense_eval_secs\": {:.6},\n  \"dense_points_per_sec\": {:.1}\n}}\n",
            self.instructions,
            self.workloads,
            self.fig6_points,
            self.sim_fig6_secs,
            self.analytic_fig6_secs,
            self.fig6_speedup(),
            self.hist_pass_secs,
            self.max_delta_hr,
            self.tolerance,
            self.dense_points,
            self.dense_eval_secs,
            self.dense_points_per_sec(),
        )
    }

    /// Writes the JSON record to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error on failure.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "grid"
    }
    fn title(&self) -> &'static str {
        "Analytic miss-ratio grid"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["extension", "measured", "engine", "analytic"]
    }
    fn depends_on_traces(&self) -> &'static [&'static str] {
        &[crate::registry::traces::SWEEP7]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, ctx: &RunCtx) -> ExpReport {
        let instructions = ctx.instructions;
        let warmup = instructions as u64 / 5;
        let spec = GridSpec::comparison(warmup);
        let all: Vec<_> = builtins().iter().collect();
        let results = compare(&all, &spec, instructions);
        let mut out = render(&results, &spec);
        // The dense sweep's cost is trace-length independent; what the
        // short (CI fault/registry) suites need to bound is the
        // comparison sweeps above, so only full-scale runs walk the
        // million-point grid.
        let dense = if instructions >= 100_000 {
            DenseGrid::standard()
        } else {
            DenseGrid::small()
        };
        out.push_str(&dense_render(&all, &dense, instructions, warmup, 0.9));
        ExpReport {
            section: out,
            artifacts: vec![artifact(&results)],
        }
    }
}

/// Entry point shared by the binary and the `run_all` driver.
pub fn main_report() -> String {
    crate::registry::main_report(&Exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::proxy;

    fn small_spec() -> GridSpec {
        GridSpec {
            cache_sizes: vec![1024, 4096],
            line_sizes: vec![16, 32],
            assocs: vec![1, 2],
            warmup: 500,
        }
    }

    #[test]
    fn comparison_grid_shape_and_coverage() {
        let spec = GridSpec::comparison(0);
        assert_eq!(spec.points(), 7 * 5 * 3);
        // Smallest geometry: 1 KB of 128 B lines 4-way = 2 sets;
        // largest: 64 KB of 8 B lines direct-mapped = 8192 sets.
        assert_eq!(spec.min_sets(128), 2);
        assert_eq!(spec.max_sets(8), 8192);
    }

    #[test]
    fn both_backends_answer_every_point_within_tolerance() {
        let spec = small_spec();
        let results = compare(&[proxy("ear")], &spec, 6_000);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].points.len(), spec.points());
        for p in &results[0].points {
            assert!((0.0..=1.0).contains(&p.sim));
            assert!((0.0..=1.0).contains(&p.analytic));
        }
        assert!(
            results[0].max_delta() <= SET_CONFLICT_TOLERANCE,
            "max delta {} exceeds tolerance",
            results[0].max_delta()
        );
        assert!(results[0].mean_delta() <= results[0].max_delta());
    }

    #[test]
    fn render_and_artifact_cover_the_grid() {
        let spec = small_spec();
        let results = compare(&[proxy("ear")], &spec, 4_000);
        let text = render(&results, &spec);
        assert!(text.contains("ear"));
        assert!(text.contains("tolerance"));
        let a = artifact(&results);
        assert_eq!(a.name, "grid.csv");
        match &a.kind {
            report::ArtifactKind::Csv { rows, .. } => assert_eq!(rows.len(), spec.points()),
            other => panic!("expected CSV artifact, got {other:?}"),
        }
    }

    #[test]
    fn dense_best_finds_a_minimal_geometry() {
        let analytic = build_analytic(proxy("ear"), 6_000, 1_000);
        let grid = DenseGrid::small();
        let best = dense_best(&analytic, &grid, 0.5).expect("ear reaches 50% somewhere");
        assert!(best.hit_ratio >= 0.5);
        assert_eq!(
            best.cache_bytes,
            best.sets * best.line_bytes * u64::from(best.assoc)
        );
        // An impossible target is reported as unreachable, not panicked.
        assert!(dense_best(&analytic, &grid, 1.1).is_none());
        let text = dense_render(&[proxy("ear")], &grid, 6_000, 1_000, 0.5);
        assert!(text.contains("ear"));
        assert!(text.contains("sets ×"));
    }

    #[test]
    fn dense_grid_reaches_a_million_points() {
        let std = DenseGrid::standard();
        assert_eq!(std.points(), 166_720);
        assert!(std.points() * 6 >= 1_000_000, "six proxies cross 1M points");
    }

    #[test]
    fn analytic_bench_json_carries_the_claim_fields() {
        let r = AnalyticBenchResult {
            instructions: 5_000_000,
            workloads: 6,
            fig6_points: 210,
            sim_fig6_secs: 12.0,
            analytic_fig6_secs: 0.12,
            hist_pass_secs: 20.0,
            max_delta_hr: 0.17,
            tolerance: SET_CONFLICT_TOLERANCE,
            dense_points: 1_000_320,
            dense_eval_secs: 6.0,
        };
        assert!((r.fig6_speedup() - 100.0).abs() < 1e-9);
        assert!((r.dense_points_per_sec() - 166_720.0).abs() < 1e-6);
        assert!((r.sim_points_per_sec() - 17.5).abs() < 1e-9);
        assert!((r.analytic_points_per_sec() - 1750.0).abs() < 1e-9);
        let json = r.to_json();
        for key in [
            "\"benchmark\": \"analytic_backend\"",
            "\"fig6_speedup\": 100.0",
            "\"max_delta_hr\": 0.170000",
            "\"tolerance\": 0.2",
            "\"dense_points\": 1000320",
            "\"dense_points_per_sec\": 166720.0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
