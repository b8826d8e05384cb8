//! EXP-V1 — Section 4.5 end-to-end validation: Eq. 2 with measured
//! parameters versus cycle-accurate simulation, plus the equivalence law
//! verified *in the simulator*.

use crate::common::run_spec;
use crate::registry::{ExpReport, Experiment, RunCtx};
use report::Table;
use simcpu::{predict_cycles, validation_error, StallFeature};
use simtrace::workload::{builtins, WorkloadSpec};

/// One validation row.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Workload.
    pub program: &'static WorkloadSpec,
    /// Stalling feature simulated.
    pub stall: StallFeature,
    /// Simulated cycles.
    pub simulated: u64,
    /// Eq. 2's prediction from the measured profile.
    pub predicted: f64,
    /// Relative error.
    pub rel_error: f64,
}

/// Runs the validation grid: all 24 (program × feature) rows fan out
/// over the [`crate::exec`] pool, with each program's timeline shared by
/// its four feature replays via the trace store.
pub fn run(instructions: usize) -> Vec<ValidationRow> {
    let grid: Vec<(&WorkloadSpec, StallFeature)> = builtins()
        .iter()
        .flat_map(|p| {
            [
                StallFeature::FullStall,
                StallFeature::BusLocked,
                StallFeature::BusNotLocked3,
                StallFeature::NonBlocking { mshrs: 4 },
            ]
            .into_iter()
            .map(move |stall| (p, stall))
        })
        .collect();
    crate::exec::parallel_map(&grid, |&(program, stall)| {
        let r = run_spec(program, stall, 32, 4, 8, instructions);
        ValidationRow {
            program,
            stall,
            simulated: r.cycles,
            predicted: predict_cycles(&r),
            rel_error: validation_error(&r),
        }
    })
}

/// Renders the validation table.
pub fn render(rows: &[ValidationRow]) -> String {
    let mut t = Table::new([
        "program",
        "feature",
        "simulated cycles",
        "Eq.2 predicted",
        "rel err",
    ]);
    for r in rows {
        t.row([
            r.program.to_string(),
            r.stall.to_string(),
            r.simulated.to_string(),
            format!("{:.0}", r.predicted),
            format!("{:.2e}", r.rel_error),
        ]);
    }
    format!(
        "Eq. 2 vs cycle-accurate simulation (8K 2-way, L=32, D=4, β=8):\n{}",
        t.render()
    )
}

/// Registry entry for this experiment.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "validate"
    }
    fn title(&self) -> &'static str {
        "Model validation"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["paper", "measured", "validation"]
    }
    fn depends_on_traces(&self) -> &'static [&'static str] {
        &[crate::registry::traces::SPEC_L32]
    }
    fn module(&self) -> &'static str {
        module_path!()
    }
    fn run(&self, ctx: &RunCtx) -> ExpReport {
        ExpReport::text_only(render(&run(ctx.instructions)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_error_is_zero_for_all_rows() {
        for r in run(15_000) {
            assert!(
                r.rel_error < 1e-9,
                "{} {}: err {}",
                r.program,
                r.stall,
                r.rel_error
            );
        }
    }

    #[test]
    fn grid_covers_programs_and_features() {
        let rows = run(2_000);
        assert_eq!(rows.len(), 6 * 4);
    }

    #[test]
    fn render_shows_errors() {
        let text = render(&run(2_000));
        assert!(text.contains("rel err"));
        assert!(text.contains("nasa7"));
    }
}
