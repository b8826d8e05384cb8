//! EXP-X1 — Section 5.3's crossover points: where pipelined memory
//! overtakes the other features.

use crate::registry::{ExpReport, Experiment, RunCtx};
use report::Table;
use tradeoff::crossover::{find_crossover, pipelined_vs_double_bus, pipelined_vs_write_buffers};
use tradeoff::{Machine, SystemConfig, TradeoffError};

/// One crossover record.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossover {
    /// Line-to-bus ratio `L/D`.
    pub chunks: f64,
    /// Pipeline issue interval `q`.
    pub q: f64,
    /// β_m beyond which pipelining beats doubling the bus, if ever.
    pub vs_bus: Option<f64>,
    /// β_m beyond which pipelining beats write buffers, if ever.
    pub vs_wbuf: Option<f64>,
}

/// Computes the crossover table for the given `L/D` and `q` grids
/// (α = 0.5), cross-checking each closed form against bisection.
///
/// # Errors
///
/// Propagates model-validation errors from the bisection check.
pub fn run(chunk_grid: &[f64], q_grid: &[f64]) -> Result<Vec<Crossover>, TradeoffError> {
    let mut out = Vec::new();
    for &chunks in chunk_grid {
        for &q in q_grid {
            let vs_bus = pipelined_vs_double_bus(chunks, q);
            let vs_wbuf = pipelined_vs_write_buffers(chunks, q, 0.5);
            // Cross-check against the generic bisection solver.
            let machine = Machine::new(4.0, 4.0 * chunks, 8.0)?;
            let base = SystemConfig::full_stalling(0.5);
            let numeric = find_crossover(
                &machine,
                &base.with_pipelined_memory(q),
                &base.with_bus_factor(2.0),
                1.0,
                10_000.0,
            )?;
            match (vs_bus, numeric) {
                (Some(a), Some(b)) => debug_assert!((a - b).abs() < 1e-6),
                (None, None) => {}
                // Closed form at exactly X = 2 meets the bisection's edge.
                (a, b) => debug_assert!(chunks <= 2.0, "mismatch: {a:?} vs {b:?}"),
            }
            out.push(Crossover {
                chunks,
                q,
                vs_bus,
                vs_wbuf,
            });
        }
    }
    Ok(out)
}

/// Renders the crossover table.
pub fn render(rows: &[Crossover]) -> String {
    let fmt = |v: Option<f64>| v.map_or("never".to_string(), |x| format!("{x:.2}"));
    let mut t = Table::new(["L/D", "q", "β* vs doubling bus", "β* vs write buffers"]);
    for r in rows {
        t.row([
            format!("{}", r.chunks),
            format!("{}", r.q),
            fmt(r.vs_bus),
            fmt(r.vs_wbuf),
        ]);
    }
    format!("Crossover memory cycle times (α = 0.5):\n{}", t.render())
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "xover"
    }
    fn title(&self) -> &'static str {
        "Crossover points"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["paper", "analytic"]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, _ctx: &RunCtx) -> ExpReport {
        let rows =
            run(&[2.0, 4.0, 8.0, 16.0], &[1.0, 2.0, 4.0]).expect("canonical parameters valid");
        ExpReport::text_only(render(&rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_crossover_for_l32_q2() {
        let rows = run(&[8.0], &[2.0]).unwrap();
        let b = rows[0].vs_bus.unwrap();
        assert!(
            b > 4.0 && b < 6.0,
            "paper: less than about five or six cycles; got {b}"
        );
    }

    #[test]
    fn no_bus_crossover_at_l_2d() {
        let rows = run(&[2.0], &[2.0]).unwrap();
        assert_eq!(rows[0].vs_bus, None);
    }

    #[test]
    fn crossovers_grow_with_q() {
        let rows = run(&[8.0], &[1.0, 2.0, 4.0]).unwrap();
        let bs: Vec<f64> = rows.iter().map(|r| r.vs_bus.unwrap()).collect();
        assert!(bs[0] < bs[1] && bs[1] < bs[2]);
    }

    #[test]
    fn wbuf_crossover_earlier_than_bus_crossover() {
        // Write buffers are a weaker feature, so pipelining overtakes
        // them sooner.
        let rows = run(&[8.0, 16.0], &[2.0]).unwrap();
        for r in &rows {
            assert!(r.vs_wbuf.unwrap() < r.vs_bus.unwrap(), "{r:?}");
        }
    }

    #[test]
    fn render_lists_grid() {
        let text = Exp.run(&RunCtx::standard()).section;
        assert!(text.contains("never"), "L/D=2 row shows no crossover");
        assert!(text.contains("β* vs doubling bus"));
    }
}
