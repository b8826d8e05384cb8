//! EXP-F6 — Figure 6: validation against Smith's design-target optimal
//! line sizes, four panels.

use crate::registry::{ExpReport, Experiment, RunCtx};
use report::{Artifact, Chart, Table};
use smithval::fig6::CANDIDATE_LINES;
use smithval::{validate_all_panels, DesignTargetModel, MissRatioModel, PanelValidation, PANELS};
use tradeoff::TradeoffError;

/// The bus-speed sweep of the figure's x-axis.
pub fn default_betas() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 0.5).collect()
}

/// Renders all four panels (reduced delay per 100 references vs β) plus
/// the validation table, returning the section and the typed
/// `fig6.csv` artifact.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn report(model: &dyn MissRatioModel) -> Result<ExpReport, TradeoffError> {
    let betas = default_betas();
    let mut out = String::new();
    let mut rows = Vec::new();

    for panel in &PANELS {
        let mut chart = Chart::new(
            format!("Figure 6 {}", panel.name),
            "normalized bus speed (beta)",
            "reduced delay / 100 refs",
            60,
            14,
        );
        for &line in CANDIDATE_LINES.iter().skip(1) {
            let series = panel.reduced_delay_series(model, line, &betas)?;
            for &(beta, v) in &series {
                rows.push(vec![
                    panel.name.to_string(),
                    format!("{line}"),
                    format!("{beta}"),
                    format!("{v:.4}"),
                ]);
            }
            chart.series(format!("L={line}"), series);
        }
        out.push_str(&chart.render());
        out.push('\n');
    }

    let validations = validate_all_panels(model)?;
    out.push_str(&validation_table(&validations));

    Ok(ExpReport {
        section: out,
        artifacts: vec![Artifact::csv(
            "fig6.csv",
            &["panel", "line_bytes", "beta", "reduced_delay_x100"],
            rows,
        )],
    })
}

/// The per-panel validation table.
pub fn validation_table(validations: &[PanelValidation]) -> String {
    let mut t = Table::new([
        "panel",
        "Smith Eq.16",
        "ours Eq.19",
        "agree",
        "matches paper",
    ]);
    for v in validations {
        t.row([
            v.panel.to_string(),
            format!("{} B", v.smith_line),
            format!("{} B", v.eq19_line),
            v.selectors_agree.to_string(),
            v.matches_paper.to_string(),
        ]);
    }
    t.render()
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "fig6"
    }
    fn title(&self) -> &'static str {
        "Figure 6"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["paper", "figure", "analytic", "validation"]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, _ctx: &RunCtx) -> ExpReport {
        report(&DesignTargetModel::default()).expect("canonical model evaluates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_panels_and_validation() {
        let model = DesignTargetModel::default();
        let rep = report(&model).unwrap();
        let text = &rep.section;
        for panel in &PANELS {
            assert!(text.contains(panel.name), "missing {}", panel.name);
        }
        assert!(text.contains("matches paper"));
        assert!(!text.contains("false"), "all panels must validate:\n{text}");
        assert_eq!(rep.artifacts.len(), 1);
        assert_eq!(rep.artifacts[0].name, "fig6.csv");
    }

    #[test]
    fn validation_table_lists_four_rows() {
        let model = DesignTargetModel::default();
        let v = validate_all_panels(&model).unwrap();
        assert_eq!(v.len(), 4);
        let table = validation_table(&v);
        assert_eq!(table.lines().count(), 6); // header + sep + 4 rows
    }
}
