//! Smoke tests over the experiment harness: every table/figure module
//! produces a sane report at reduced instruction counts.

use bench::registry::{Experiment, RunCtx};
use bench::unified::{FIG3, FIG4, FIG5};

/// An experiment's report section at the standard context; nothing is
/// written to `results/`.
fn section(exp: &dyn Experiment) -> String {
    exp.run(&RunCtx::standard()).section
}

#[test]
fn tables_2_and_3_render() {
    let text = section(&bench::table23::Exp);
    assert!(text.contains("Table 2") && text.contains("Table 3"));
    assert!(text.contains("doubling bus"));
}

#[test]
fn figure1_small_run_has_ordered_curves() {
    let curves = bench::fig1::run(32, 4, 8_000);
    assert_eq!(curves.len(), 4);
    for c in &curves {
        assert_eq!(c.points.len(), bench::fig1::BETAS.len());
    }
}

#[test]
fn figure2_report_renders_both_panels() {
    let text = section(&bench::fig2::Exp);
    assert_eq!(text.matches("Figure 2").count(), 2);
    assert!(text.contains("L=8") && text.contains("L=32"));
}

#[test]
fn unified_figures_render() {
    for cfg in [FIG3, FIG4, FIG5] {
        let curves = bench::unified::run(cfg, &[2, 8], 5_000).expect("valid");
        let text = bench::unified::render(cfg, &curves);
        assert!(text.contains(&format!("Figure {}", cfg.figure)));
        assert!(text.contains("doubling bus"));
    }
}

#[test]
fn figure6_report_validates() {
    let text = section(&bench::fig6::Exp);
    assert!(text.contains("(a)") && text.contains("(d)"));
    assert!(
        !text.contains("false"),
        "all panels must agree with Smith:\n{text}"
    );
}

#[test]
fn example1_crossover_linesize_validate_render() {
    assert!(section(&bench::example1::Exp).contains("Case 2"));
    assert!(section(&bench::xover::Exp).contains("never"));
    let v = bench::validate::run(4_000);
    assert!(v.iter().all(|r| r.rel_error < 1e-9));
}
