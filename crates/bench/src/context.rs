//! EXP-X14 — multiprogramming: Section 3.4's caveat, measured.
//!
//! The paper assumes a near-perfect instruction cache "without process
//! switching" and warns that multiprogramming raises the miss portion.
//! This experiment quantifies the data-cache side of that caveat: the
//! caches are invalidated every `switch_interval` instructions (a
//! process switch with no address-space tags), the hit ratio degrades,
//! and the degradation converts — through the equivalence law — into the
//! extra bus width / cache size a multiprogrammed workload effectively
//! needs.

use crate::registry::{ExpReport, Experiment, RunCtx};
use report::Table;
use simcache::{Cache, CacheConfig};
use simtrace::workload::{builtins, WorkloadSpec};
use tradeoff::equiv::hit_gain_equivalent;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// Hit ratio with caches flushed every `switch_interval` instructions
/// (`None` = no switching).
pub fn hit_ratio_with_switches(
    program: &WorkloadSpec,
    switch_interval: Option<u64>,
    instructions: usize,
) -> f64 {
    let mut cache = Cache::new(CacheConfig::new(8 * 1024, 32, 2).expect("valid cache"));
    let mut since_switch = 0u64;
    for instr in program.compile(0xC0DE).take(instructions) {
        since_switch += 1;
        if let Some(interval) = switch_interval {
            if since_switch >= interval {
                since_switch = 0;
                cache.invalidate_all();
            }
        }
        if let Some(m) = instr.mem {
            cache.access(m.op, m.addr);
        }
    }
    cache.stats().hit_ratio()
}

/// One row of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRow {
    /// Workload.
    pub program: &'static WorkloadSpec,
    /// Hit ratio without switching.
    pub base_hr: f64,
    /// Hit ratios at each switch interval.
    pub switched_hr: Vec<(u64, f64)>,
}

/// The switch-interval grid (instructions between process switches).
pub const INTERVALS: [u64; 3] = [100_000, 20_000, 5_000];

/// Runs the study over all proxies.
pub fn run(instructions: usize) -> Vec<SwitchRow> {
    builtins()
        .iter()
        .map(|program| SwitchRow {
            program,
            base_hr: hit_ratio_with_switches(program, None, instructions),
            switched_hr: INTERVALS
                .iter()
                .map(|&i| (i, hit_ratio_with_switches(program, Some(i), instructions)))
                .collect(),
        })
        .collect()
}

/// Renders the table plus the equivalence-law reading of the worst case.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn report(instructions: usize) -> Result<String, TradeoffError> {
    let rows = run(instructions);
    let mut t = Table::new([
        "program",
        "no switches",
        "every 100K",
        "every 20K",
        "every 5K",
        "ΔHR lost @5K",
    ]);
    let mut worst_loss: f64 = 0.0;
    for r in &rows {
        let lost = r.base_hr - r.switched_hr.last().expect("intervals non-empty").1;
        worst_loss = worst_loss.max(lost);
        let mut row = vec![r.program.to_string(), format!("{:.2}%", 100.0 * r.base_hr)];
        row.extend(
            r.switched_hr
                .iter()
                .map(|(_, h)| format!("{:.2}%", 100.0 * h)),
        );
        row.push(format!("{:.2}%", 100.0 * lost));
        t.row(row);
    }
    // The equivalence reading: how does the worst-case loss compare with
    // what doubling the bus can give back?
    let machine = Machine::new(4.0, 32.0, 8.0)?;
    let base = SystemConfig::full_stalling(0.5);
    let hr = HitRatio::new(0.90)?;
    let bus_gain = hit_gain_equivalent(&machine, &base, &base.with_bus_factor(2.0), hr)?;
    let verdict = if worst_loss <= bus_gain {
        "doubling the bus fully covers the multiprogramming loss"
    } else {
        "the multiprogramming loss exceeds what doubling the bus buys back"
    };
    Ok(format!(
        "Multiprogramming degradation (8K 2-way, L=32, caches flushed per switch):\n{}\
         Worst ΔHR lost at 5K-instruction switching: {:.2}%; doubling the bus at\n\
         HR 90% is worth {:.2}% — {verdict}.\n",
        t.render(),
        100.0 * worst_loss,
        100.0 * bus_gain
    ))
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "context"
    }
    fn title(&self) -> &'static str {
        "Multiprogramming"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["extension", "measured"]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, ctx: &RunCtx) -> ExpReport {
        ExpReport::text_only(report(ctx.instructions).expect("canonical parameters valid"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::proxy;

    #[test]
    fn switching_degrades_hit_ratio_monotonically() {
        for r in run(40_000) {
            let mut prev = r.base_hr + 1e-9;
            for &(interval, hr) in &r.switched_hr {
                assert!(
                    hr <= prev + 0.005,
                    "{}: interval {interval} raised HR",
                    r.program
                );
                prev = hr;
            }
        }
    }

    #[test]
    fn frequent_switching_hurts_reuse_heavy_code_most() {
        let rows = run(40_000);
        let loss = |p: &WorkloadSpec| {
            let r = rows.iter().find(|r| r.program == p).unwrap();
            r.base_hr - r.switched_hr.last().unwrap().1
        };
        // ear lives on temporal reuse; the streaming sweeps barely care.
        assert!(loss(proxy("ear")) > loss(proxy("swm256")), "{rows:?}");
    }

    #[test]
    fn report_has_verdict() {
        let text = report(20_000).unwrap();
        assert!(text.contains("doubling the bus"));
        assert!(text.contains("every 5K"));
    }
}
