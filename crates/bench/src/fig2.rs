//! EXP-F2 — Figure 2: hit ratio traded by doubling a 32-bit bus, versus
//! memory cycle time, for L ∈ {8, 16, 32} at base hit ratios 98 % and
//! 90 % (α = α′ = 0.5, full-stalling).

use crate::registry::{ExpReport, Experiment, RunCtx};
use report::{Artifact, Chart};
use tradeoff::equiv::traded_hit_ratio;
use tradeoff::{HitRatio, Machine, SystemConfig, TradeoffError};

/// The line sizes of the figure.
pub const LINES: [f64; 3] = [32.0, 16.0, 8.0];

/// One curve: `(β_m, ΔHR %)` for a line size at a base hit ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeCurve {
    /// Base hit ratio of the 32-bit system.
    pub base_hr: f64,
    /// Line size in bytes.
    pub line_bytes: f64,
    /// `(β_m, ΔHR %)` points.
    pub points: Vec<(f64, f64)>,
}

/// Computes the figure's six curves over `beta_range`.
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn run(base_hrs: &[f64], betas: &[f64]) -> Result<Vec<TradeCurve>, TradeoffError> {
    let base = SystemConfig::full_stalling(0.5);
    let doubled = base.with_bus_factor(2.0);
    let mut out = Vec::new();
    for &hr in base_hrs {
        let hr_t = HitRatio::new(hr)?;
        for &l in &LINES {
            let mut points = Vec::with_capacity(betas.len());
            for &beta in betas {
                let machine = Machine::new(4.0, l, beta)?;
                let dhr = traded_hit_ratio(&machine, &base, &doubled, hr_t)?;
                points.push((beta, 100.0 * dhr));
            }
            out.push(TradeCurve {
                base_hr: hr,
                line_bytes: l,
                points,
            });
        }
    }
    Ok(out)
}

/// The figure's canonical β_m sweep (2..=20 per 4 bytes).
pub fn default_betas() -> Vec<f64> {
    (2..=20).map(f64::from).collect()
}

/// Renders both panels.
pub fn render(curves: &[TradeCurve]) -> String {
    let mut out = String::new();
    let mut hrs: Vec<f64> = curves.iter().map(|c| c.base_hr).collect();
    hrs.dedup();
    for hr in hrs {
        let mut chart = Chart::new(
            format!(
                "Figure 2 — hit ratio traded by doubling the bus (base HR {:.0}%)",
                hr * 100.0
            ),
            "beta_m (cycles per 4 bytes)",
            "traded HR %",
            60,
            12,
        );
        for c in curves.iter().filter(|c| c.base_hr == hr) {
            chart.series(format!("L={}", c.line_bytes), c.points.clone());
        }
        out.push_str(&chart.render());
        out.push('\n');
    }
    out
}

/// The figure's series as a typed `fig2.csv` artifact.
pub fn artifact(curves: &[TradeCurve]) -> Artifact {
    let mut rows = Vec::new();
    for c in curves {
        for &(beta, dhr) in &c.points {
            rows.push(vec![
                format!("{}", c.base_hr),
                format!("{}", c.line_bytes),
                format!("{beta}"),
                format!("{dhr:.4}"),
            ]);
        }
    }
    Artifact::csv(
        "fig2.csv",
        &["base_hr", "line_bytes", "beta_m", "traded_hr_pct"],
        rows,
    )
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "fig2"
    }
    fn title(&self) -> &'static str {
        "Figure 2"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["paper", "figure", "analytic"]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, _ctx: &RunCtx) -> ExpReport {
        let curves = run(&[0.98, 0.90], &default_betas()).expect("canonical parameters are valid");
        ExpReport {
            section: render(&curves),
            artifacts: vec![artifact(&curves)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_quoted_points() {
        let curves = run(&[0.98], &default_betas()).unwrap();
        // L = 32, long memory cycle: traded HR ≈ 2 % (98 → 96).
        let l32 = curves.iter().find(|c| c.line_bytes == 32.0).unwrap();
        let at_20 = l32.points.last().unwrap().1;
        assert!((at_20 - 2.0).abs() < 0.15, "L=32 at β=20: {at_20}");
        // L = 8, β_m = 2: traded HR ≈ 3 % (95 → 98 in reverse).
        let l8 = curves.iter().find(|c| c.line_bytes == 8.0).unwrap();
        let at_2 = l8.points[0].1;
        assert!((at_2 - 3.0).abs() < 0.01, "L=8 at β=2: {at_2}");
    }

    #[test]
    fn curves_decrease_with_beta_and_line_size() {
        let curves = run(&[0.90], &default_betas()).unwrap();
        for c in &curves {
            for w in c.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 1e-12,
                    "not decreasing for L={}",
                    c.line_bytes
                );
            }
        }
        // Smaller lines trade more at every β.
        let by_line = |l: f64| curves.iter().find(|c| c.line_bytes == l).unwrap();
        for i in 0..default_betas().len() {
            assert!(by_line(8.0).points[i].1 >= by_line(16.0).points[i].1);
            assert!(by_line(16.0).points[i].1 >= by_line(32.0).points[i].1);
        }
    }

    #[test]
    fn lower_base_hr_trades_proportionally_more() {
        let curves = run(&[0.98, 0.90], &default_betas()).unwrap();
        let at = |hr: f64, l: f64| {
            curves
                .iter()
                .find(|c| c.base_hr == hr && c.line_bytes == l)
                .unwrap()
                .points[0]
                .1
        };
        // ΔHR ∝ (1 − HR): ratio 5×.
        assert!((at(0.90, 8.0) / at(0.98, 8.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn render_emits_two_panels_and_artifact_covers_all_points() {
        let curves = run(&[0.98, 0.90], &[2.0, 10.0, 20.0]).unwrap();
        let text = render(&curves);
        assert_eq!(text.matches("Figure 2").count(), 2);
        let a = artifact(&curves);
        assert_eq!(a.name, "fig2.csv");
        match &a.kind {
            report::ArtifactKind::Csv { rows, .. } => {
                assert_eq!(rows.len(), 2 * LINES.len() * 3);
            }
            other => panic!("expected CSV artifact, got {other:?}"),
        }
    }
}
