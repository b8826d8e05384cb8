//! Analytic-backend accuracy gate: the closed-form miss-ratio backend
//! must track the simulator within its stated tolerance.
//!
//! ```text
//! analytic_check [--instructions N]
//! ```
//!
//! Three checks, across all six SPEC92 proxies:
//!
//! 1. **Fully-associative exactness** — Mattson inclusion makes the
//!    histogram prefix an *exact* answer, so the analytic FA LRU hit
//!    ratio must be bit-equal to `Cache` replay (not merely close).
//! 2. **Set-conflict tolerance** — over the Figure-6 comparison grid
//!    (7 capacities × 5 line sizes × associativity 1/2/4) the analytic
//!    binomial set-conflict model must stay within
//!    [`SET_CONFLICT_TOLERANCE`] of the stack-distance sweeps.
//! 3. **Dense-search exactness** — on [`DenseGrid::standard`] at
//!    targets 0.9/0.95/0.99, the pruned [`grid::dense_best`] must give
//!    the answer of an exhaustive walk over every (line, sets, assoc)
//!    point, hit-ratio bits included. Debug tests only reach small
//!    grids; this runs the full one.
//!
//! Exit codes: `0` success, `1` tolerance or exactness violation, `2`
//! bad usage. Wired into tier-1 as `./ci.sh analytic`.

use bench::grid::{self, DenseBest, DenseGrid, GridSpec};
use simcache::explore::measure_dcache;
use simcache::hitratio::{Resolution, SET_CONFLICT_TOLERANCE};
use simcache::Analytic;
use simcache::CacheConfig;
use simtrace::workload::builtins;
use simtrace::Instr;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: analytic_check [--instructions N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut instructions: usize = 120_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instructions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => instructions = n,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let warmup = instructions as u64 / 5;
    let mut failed = false;

    // Gate 1: FA LRU bit-exactness against Cache replay.
    for program in builtins() {
        let analytic = grid::build_analytic(program, instructions, warmup);
        let trace: Vec<Instr> = program
            .compile(bench::sweep::SWEEP_SEED)
            .take(instructions)
            .collect();
        for (line_bytes, lines) in [(16u64, 8u32), (32, 64), (64, 256)] {
            let cfg = CacheConfig::new(line_bytes * u64::from(lines), line_bytes, lines)
                .expect("valid fully-associative geometry");
            let measured = measure_dcache(cfg, trace.iter().copied(), warmup).hit_ratio();
            let closed = analytic
                .fa_hit_ratio(line_bytes, u64::from(lines))
                .expect("folded line size");
            if closed != measured {
                eprintln!(
                    "analytic_check: FAIL: {program} FA L={line_bytes} cap={lines}: \
                     analytic {closed} != replay {measured} (must be bit-equal)"
                );
                failed = true;
            }
        }
    }
    println!(
        "analytic_check: FA LRU bit-exact vs Cache replay across {} proxies",
        builtins().len()
    );

    // Gate 2: set-conflict model within tolerance on the comparison grid.
    let spec = GridSpec::comparison(warmup);
    let results = grid::compare(&builtins().iter().collect::<Vec<_>>(), &spec, instructions);
    let mut global_max = 0.0f64;
    for wg in &results {
        let max = wg.max_delta();
        global_max = global_max.max(max);
        println!(
            "analytic_check: {:<8} max |ΔHR| {:.4} mean {:.4} over {} points",
            wg.program.to_string(),
            max,
            wg.mean_delta(),
            wg.points.len()
        );
        if max > SET_CONFLICT_TOLERANCE {
            eprintln!(
                "analytic_check: FAIL: {} max |ΔHR| {:.4} exceeds tolerance {}",
                wg.program, max, SET_CONFLICT_TOLERANCE
            );
            failed = true;
        }
    }

    // Gate 3: the pruned dense search against the exhaustive walk.
    let dense = DenseGrid::standard();
    let targets = [0.9, 0.95, 0.99];
    let mut mismatches = 0;
    for program in builtins() {
        let analytic = grid::build_analytic(program, instructions, warmup);
        let walked = exhaustive_dense_best(&analytic, &dense, &targets);
        for (&target, want) in targets.iter().zip(walked) {
            let got = grid::dense_best(&analytic, &dense, target);
            let bits = |b: Option<DenseBest>| b.map(|b| (b, b.hit_ratio.to_bits()));
            if bits(got) != bits(want) {
                eprintln!(
                    "analytic_check: FAIL: {program} dense search at HR {target}: \
                     pruned {got:?} != exhaustive {want:?}"
                );
                mismatches += 1;
            }
        }
    }
    if mismatches == 0 {
        println!(
            "analytic_check: pruned dense search matches the exhaustive walk on {} points \
             × {} targets × {} proxies",
            dense.points(),
            targets.len(),
            builtins().len()
        );
    }
    failed |= mismatches > 0;

    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "analytic_check: OK — global max |ΔHR| {global_max:.4} ≤ {SET_CONFLICT_TOLERANCE} \
         over {} grid points",
        results.iter().map(|w| w.points.len()).sum::<usize>()
    );
    ExitCode::SUCCESS
}

/// The cheapest point reaching each target by visiting every row of
/// `grid` in order (line, then sets, then assoc), a point replacing the
/// best only when strictly cheaper — the search `dense_best` prunes.
fn exhaustive_dense_best(
    analytic: &Analytic,
    grid: &DenseGrid,
    targets: &[f64],
) -> Vec<Option<DenseBest>> {
    let mut best = vec![None::<DenseBest>; targets.len()];
    for &line_bytes in &grid.line_sizes {
        for sets in 1..=grid.max_sets {
            let curve = analytic
                .conflict_curve(line_bytes, sets, grid.max_assoc, Resolution::Bucketed)
                .expect("folded line size");
            for (&target, best) in targets.iter().zip(&mut best) {
                for (ai, &hit_ratio) in curve.iter().enumerate() {
                    if hit_ratio < target {
                        continue;
                    }
                    let assoc = ai as u32 + 1;
                    let cache_bytes = sets * line_bytes * u64::from(assoc);
                    if best.is_none_or(|b| cache_bytes < b.cache_bytes) {
                        *best = Some(DenseBest {
                            cache_bytes,
                            line_bytes,
                            sets,
                            assoc,
                            hit_ratio,
                        });
                    }
                }
            }
        }
    }
    best
}
