//! The pruned dense-grid search (`tradeoff::api::dense_best`) against
//! the exhaustive walk it replaces, written out here: every (line, sets)
//! row in grid order, one `conflict_curve` per row at the grid's full
//! associativity, and a point replaces the best so far only when it is
//! strictly cheaper. Answers must agree exactly, hit-ratio bits
//! included.

use simcache::hitratio::Resolution;
use simcache::Analytic;
use simtrace::workload::builtins;
use simtrace::{ReuseHistograms, ReuseProfile};
use tradeoff::api::{dense_best, DenseBest, DenseGrid, GRID_SEED, HIST_DISTANCE_CAP};

/// Every row's curve, in walk order: `(line_bytes, sets, curve)`.
fn all_rows(analytic: &Analytic, grid: &DenseGrid) -> Vec<(u64, u64, Vec<f64>)> {
    let mut rows = Vec::new();
    for &line_bytes in &grid.line_sizes {
        for sets in 1..=grid.max_sets {
            let curve = analytic
                .conflict_curve(line_bytes, sets, grid.max_assoc, Resolution::Bucketed)
                .expect("folded line size");
            rows.push((line_bytes, sets, curve));
        }
    }
    rows
}

fn exhaustive(rows: &[(u64, u64, Vec<f64>)], target_hr: f64) -> Option<DenseBest> {
    let mut best: Option<DenseBest> = None;
    for (line_bytes, sets, curve) in rows {
        for (ai, &hit_ratio) in curve.iter().enumerate() {
            if hit_ratio < target_hr {
                continue;
            }
            let assoc = ai as u32 + 1;
            let cache_bytes = sets * line_bytes * u64::from(assoc);
            if best.is_none_or(|b| cache_bytes < b.cache_bytes) {
                best = Some(DenseBest {
                    cache_bytes,
                    line_bytes: *line_bytes,
                    sets: *sets,
                    assoc,
                    hit_ratio,
                });
            }
        }
    }
    best
}

fn bits(best: Option<DenseBest>) -> Option<(u64, u64, u64, u32, u64)> {
    best.map(|b| {
        (
            b.cache_bytes,
            b.line_bytes,
            b.sets,
            b.assoc,
            b.hit_ratio.to_bits(),
        )
    })
}

#[test]
fn pruned_search_matches_the_exhaustive_walk() {
    let instructions = 20_000;
    let warmup = instructions as u64 / 5;
    let descending = DenseGrid {
        line_sizes: vec![128, 64, 32, 16, 8],
        max_sets: 96,
        max_assoc: 6,
    };
    let grids = [
        DenseGrid::small(),
        DenseGrid {
            max_sets: 512,
            max_assoc: 8,
            ..DenseGrid::small()
        },
        DenseGrid {
            max_sets: 300,
            max_assoc: 5,
            ..DenseGrid::small()
        },
        descending,
    ];
    let targets = [0.5, 0.9, 0.95, 0.99, 1.1];
    let mut found = 0;
    for spec in builtins() {
        let mut fold = ReuseHistograms::new(8, 128, HIST_DISTANCE_CAP, warmup);
        let trace: Vec<_> = spec.compile(GRID_SEED).take(instructions).collect();
        fold.process_slice(&trace);
        let analytic = Analytic::from_histograms(&fold);
        for grid in &grids {
            let rows = all_rows(&analytic, grid);
            for target in targets {
                let want = exhaustive(&rows, target);
                let got = dense_best(&analytic, grid, target);
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{} grid={grid:?} target={target}",
                    spec.label()
                );
                found += usize::from(want.is_some());
            }
        }
    }
    // Most (workload, grid, target) triples have an answer; 1.1 never.
    assert!(found >= 6 * 4 * 2, "only {found} reachable searches");
}

#[test]
fn equal_capacity_ties_go_to_the_earlier_line() {
    // At 8 B every reuse is at distance 1, at 16 B at distance 0. So
    // HR ≥ 0.9 first holds at 16 B of capacity, in two lines: one set
    // of 16 B × 1 way, and one set of 8 B × 2 ways. (Two 8 B sets of 1
    // way reach only 0.45.) The line walked first must win.
    let analytic = Analytic::from_profiles(vec![
        ReuseProfile::from_parts(8, vec![0, 90, 0, 0], 10, 100),
        ReuseProfile::from_parts(16, vec![90, 0, 0, 0], 10, 100),
    ]);
    let grid = |line_sizes: Vec<u64>| DenseGrid {
        line_sizes,
        max_sets: 8,
        max_assoc: 4,
    };
    let geometry = |line_sizes: Vec<u64>| {
        let b = dense_best(&analytic, &grid(line_sizes), 0.9).expect("reachable");
        (b.cache_bytes, b.line_bytes, b.sets, b.assoc)
    };
    assert_eq!(geometry(vec![8, 16]), (16, 8, 1, 2));
    assert_eq!(geometry(vec![16, 8]), (16, 16, 1, 1));
    for line_sizes in [vec![8, 16], vec![16, 8]] {
        let g = grid(line_sizes);
        let want = exhaustive(&all_rows(&analytic, &g), 0.9);
        assert_eq!(bits(dense_best(&analytic, &g, 0.9)), bits(want));
    }
}
