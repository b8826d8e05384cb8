//! Design-space exploration helpers.
//!
//! The line-size experiments (paper Section 5.4 and Figure 6) need hit
//! ratios as a function of cache size and line size for a fixed workload.
//! These helpers measure the same regenerable trace over a grid of
//! configurations, with an optional warm-up period excluded from the
//! statistics so cold-start misses do not bias small sweeps.
//!
//! Both replay every configuration through a live [`Cache`]: they are
//! the oracles the production grid engine — one
//! [`StackDistSweep`](crate::stackdist::StackDistSweep) pass per line
//! size, wrapped as a [`Simulated`](crate::Simulated) backend — is
//! validated and benchmarked against.

use crate::cache::Cache;
use crate::config::{CacheConfig, ConfigError};
use crate::stats::CacheStats;
use serde::{Deserialize, Serialize};
use simtrace::Instr;

/// One point of a hit-ratio sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitRatioPoint {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Data-cache hit ratio measured after warm-up.
    pub hit_ratio: f64,
    /// Measured flush ratio `α` (writebacks per fill).
    pub flush_ratio: f64,
}

/// Runs the data references of `trace` through a cache and returns the
/// post-warm-up statistics.
///
/// `warmup` instructions are executed first with statistics discarded.
pub fn measure_dcache(
    cfg: CacheConfig,
    trace: impl IntoIterator<Item = Instr>,
    warmup: u64,
) -> CacheStats {
    let mut cache = Cache::new(cfg);
    let mut n = 0u64;
    for instr in trace {
        if let Some(m) = instr.mem {
            cache.access(m.op, m.addr);
        }
        n += 1;
        if n == warmup {
            cache.reset_stats();
        }
    }
    *cache.stats()
}

/// Measures the hit ratio for every `(cache_bytes, line_bytes)` pair in
/// the grid by replaying the trace once per configuration through a
/// live [`Cache`], points in (cache size, line size) order.
///
/// Costs `O(|sizes| · |lines| · N)` trace work against the
/// `O(|lines| · N)` of one [`StackDistSweep`](crate::stackdist::StackDistSweep)
/// per line size; kept as the oracle the single-pass sweeps are
/// validated and benchmarked against.
///
/// # Errors
///
/// Returns the first [`ConfigError`] produced by an invalid combination.
///
/// # Example
///
/// ```
/// use simcache::explore::hit_ratio_grid_replay;
/// use simtrace::gen::{PatternTrace, TraceShape, WorkingSet};
///
/// let points = hit_ratio_grid_replay(
///     &[4096, 8192],
///     &[16, 32],
///     2,
///     || PatternTrace::new(WorkingSet::new(0, 16 * 1024, 0.3, 4), TraceShape::default(), 1)
///         .take(20_000),
///     2_000,
/// )?;
/// assert_eq!(points.len(), 4);
/// // Bigger cache, same line: hit ratio must not fall.
/// assert!(points[2].hit_ratio >= points[0].hit_ratio - 0.01);
/// # Ok::<(), simcache::ConfigError>(())
/// ```
pub fn hit_ratio_grid_replay<T, F>(
    cache_sizes: &[u64],
    line_sizes: &[u64],
    assoc: u32,
    mut make_trace: F,
    warmup: u64,
) -> Result<Vec<HitRatioPoint>, ConfigError>
where
    T: IntoIterator<Item = Instr>,
    F: FnMut() -> T,
{
    let mut out = Vec::with_capacity(cache_sizes.len() * line_sizes.len());
    for &cache_bytes in cache_sizes {
        for &line_bytes in line_sizes {
            let cfg = CacheConfig::new(cache_bytes, line_bytes, assoc)?;
            let stats = measure_dcache(cfg, make_trace(), warmup);
            out.push(HitRatioPoint {
                cache_bytes,
                line_bytes,
                hit_ratio: stats.hit_ratio(),
                flush_ratio: stats.flush_ratio(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::gen::{PatternTrace, StridedSweep, TraceShape, WorkingSet};

    fn ws_trace(bytes: u64, n: usize) -> impl Iterator<Item = Instr> {
        PatternTrace::new(WorkingSet::new(0, bytes, 0.3, 4), TraceShape::default(), 7).take(n)
    }

    #[test]
    fn fitting_working_set_hits_after_warmup() {
        let cfg = CacheConfig::new(16 * 1024, 32, 2).unwrap();
        let stats = measure_dcache(cfg, ws_trace(8 * 1024, 100_000), 50_000);
        assert!(
            stats.hit_ratio() > 0.999,
            "resident set should hit: {}",
            stats.hit_ratio()
        );
    }

    #[test]
    fn oversized_working_set_misses_more() {
        let cfg = CacheConfig::new(4 * 1024, 32, 2).unwrap();
        let small = measure_dcache(cfg, ws_trace(2 * 1024, 50_000), 10_000);
        let large = measure_dcache(cfg, ws_trace(64 * 1024, 50_000), 10_000);
        assert!(small.hit_ratio() > large.hit_ratio() + 0.2);
    }

    #[test]
    fn hit_ratio_grows_with_cache_size() {
        let points = hit_ratio_grid_replay(
            &[2048, 8192, 32768],
            &[32],
            2,
            || ws_trace(16 * 1024, 60_000),
            10_000,
        )
        .unwrap();
        assert!(points[0].hit_ratio < points[1].hit_ratio);
        assert!(points[1].hit_ratio <= points[2].hit_ratio + 1e-9);
    }

    #[test]
    fn larger_lines_help_strided_code() {
        let strided = || {
            PatternTrace::new(
                StridedSweep::new(0, 1 << 20, 4, 4, 0),
                TraceShape::default(),
                3,
            )
            .take(60_000)
        };
        let points = hit_ratio_grid_replay(&[8192], &[8, 64], 2, strided, 5_000).unwrap();
        // A unit-stride sweep misses once per line: larger lines mean
        // fewer misses.
        assert!(
            points[1].hit_ratio > points[0].hit_ratio + 0.05,
            "64B {} vs 8B {}",
            points[1].hit_ratio,
            points[0].hit_ratio
        );
    }

    #[test]
    fn grid_propagates_config_errors() {
        // The first invalid combination in grid order is reported: two
        // 64 B ways do not fit a 64 B cache.
        let err = hit_ratio_grid_replay(&[4096, 64], &[32, 64], 2, || ws_trace(128, 10), 0);
        assert_eq!(err, Err(CacheConfig::new(64, 64, 2).unwrap_err()));
    }

    #[test]
    fn grid_fast_path_is_bit_identical_to_replay() {
        let sizes = [1024, 4096, 16 * 1024];
        let lines = [16, 32, 64];
        let trace = || ws_trace(8 * 1024, 30_000);
        // The single-pass engine: one sweep per line size, read back
        // through the simulated backend.
        let sim = crate::Simulated::from_sweeps(
            lines
                .iter()
                .map(|&l| crate::StackDistSweep::run(l, 9, 2, 5_000, trace()).unwrap())
                .collect(),
        );
        let replay = hit_ratio_grid_replay(&sizes, &lines, 2, trace, 5_000).unwrap();
        for p in &replay {
            let cfg = CacheConfig::new(p.cache_bytes, p.line_bytes, 2).unwrap();
            let stats = sim.stats(&cfg).unwrap();
            // Same counters, same divisions: the f64s must be
            // identical, not merely close.
            assert_eq!(stats.hit_ratio(), p.hit_ratio, "{p:?}");
            assert_eq!(stats.flush_ratio(), p.flush_ratio, "{p:?}");
        }
    }

    #[test]
    fn empty_grid_yields_no_points() {
        assert_eq!(
            hit_ratio_grid_replay(&[], &[32], 2, || ws_trace(128, 10), 0).unwrap(),
            vec![]
        );
        assert_eq!(
            hit_ratio_grid_replay(&[1024], &[], 2, || ws_trace(128, 10), 0).unwrap(),
            vec![]
        );
    }

    #[test]
    fn replay_grid_propagates_config_errors() {
        let err = hit_ratio_grid_replay(&[64], &[64], 2, || ws_trace(128, 10), 0);
        assert!(err.is_err());
    }

    #[test]
    fn warmup_zero_counts_everything() {
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let stats = measure_dcache(cfg, ws_trace(512, 1_000), 0);
        assert!(stats.accesses() > 0);
        assert!(stats.misses() > 0, "cold misses counted when warmup is 0");
    }
}
