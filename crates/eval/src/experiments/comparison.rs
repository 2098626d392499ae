//! Figures 7, 8 and 14: the twelve-method comparison on the 80-case
//! web benchmark.

use super::ExpConfig;
use crate::benchmark::{web_benchmark_attested, BenchmarkCase};
use crate::methods::{Method, PreparedWeb};
use crate::metrics::{mean_precision_nonzero, mean_score, ResultScorer, Score};
use crate::report::{emit, Table};
use mapsynth_gen::generate_web;
use std::time::Duration;

/// Per-method outcome of the comparison.
pub struct MethodSummary {
    /// The method.
    pub method: Method,
    /// Winning parameter label (for swept methods).
    pub label: String,
    /// Mean score over all cases.
    pub mean: Score,
    /// Mean precision over non-miss cases (paper footnote 5; reported
    /// for single-table and KB methods).
    pub precision_nonzero: f64,
    /// End-to-end runtime.
    pub runtime: Duration,
    /// Per-case scores, aligned with the benchmark case list.
    pub per_case: Vec<Score>,
}

impl MethodSummary {
    /// The precision Figure 7 reports: the mean over non-miss cases
    /// for the single-table and KB methods (paper footnote 5), the
    /// plain mean otherwise.
    pub fn reported_precision(&self) -> f64 {
        if footnote5(self.method) {
            self.precision_nonzero
        } else {
            self.mean.precision
        }
    }
}

/// Outcome of the whole comparison.
pub struct Comparison {
    /// Benchmark cases.
    pub cases: Vec<BenchmarkCase>,
    /// One summary per method (Figure 7 order).
    pub methods: Vec<MethodSummary>,
}

/// Score one method run against all cases.
fn score_run(
    results: &[mapsynth_baselines::RelationResult],
    cases: &[BenchmarkCase],
) -> Vec<Score> {
    let scorer = ResultScorer::new(results);
    cases.iter().map(|c| scorer.best_for(&c.gt).0).collect()
}

/// Run the comparison over a prepared corpus.
pub fn run_comparison(prepared: &PreparedWeb, cases: &[BenchmarkCase]) -> Comparison {
    let mut methods = Vec::new();
    for method in Method::ALL {
        let runs = prepared.run_method(method);
        // Keep the parameter setting with the best mean F (paper:
        // "tested different thresholds ... report the best result").
        let mut best: Option<MethodSummary> = None;
        for run in runs {
            let per_case = score_run(&run.results, cases);
            let mean = mean_score(&per_case);
            if best.as_ref().is_none_or(|b| mean.f > b.mean.f) {
                best = Some(MethodSummary {
                    method,
                    label: run.label,
                    precision_nonzero: mean_precision_nonzero(&per_case),
                    mean,
                    runtime: run.runtime,
                    per_case,
                });
            }
        }
        methods.push(best.expect("method produced no runs"));
    }
    Comparison {
        cases: cases.to_vec(),
        methods,
    }
}

/// Whether footnote-5 precision averaging applies (single-table and KB
/// methods that miss many relationships entirely).
fn footnote5(method: Method) -> bool {
    matches!(
        method,
        Method::WikiTable | Method::WebTable | Method::Freebase | Method::Yago
    )
}

/// Generate the web corpus of `cfg`, prepare it, and run the
/// comparison on its 80-case attested benchmark.
pub fn compare(cfg: &ExpConfig) -> Comparison {
    let wc = generate_web(&cfg.web_config());
    let prepared = PreparedWeb::prepare(wc, cfg.synonym_fraction, cfg.workers);
    let cases = web_benchmark_attested(&prepared.registry, &prepared.emitted_pairs, 80);
    run_comparison(&prepared, &cases)
}

/// Run and emit Figures 7, 8 and 14.
pub fn run(cfg: &ExpConfig) -> Comparison {
    let comparison = compare(cfg);
    emit_fig7(cfg, &comparison);
    emit_fig8(cfg, &comparison);
    emit_fig14(cfg, &comparison);
    comparison
}

/// Figure 7: average F / precision / recall per method.
pub fn emit_fig7(cfg: &ExpConfig, c: &Comparison) {
    let mut t = Table::new(&[
        "method",
        "avg_fscore",
        "avg_precision",
        "avg_recall",
        "best_param",
    ]);
    for m in &c.methods {
        t.row(vec![
            m.method.name().to_string(),
            format!("{:.3}", m.mean.f),
            format!("{:.3}", m.reported_precision()),
            format!("{:.3}", m.mean.recall),
            m.label.clone(),
        ]);
    }
    emit(
        &cfg.out_dir,
        "fig7_quality",
        "Figure 7: average f-score, precision and recall (80-case web benchmark)",
        &t,
    );
}

/// Figure 8: runtime per method.
pub fn emit_fig8(cfg: &ExpConfig, c: &Comparison) {
    let mut t = Table::new(&["method", "runtime_s"]);
    for m in &c.methods {
        t.row(vec![
            m.method.name().to_string(),
            format!("{:.2}", m.runtime.as_secs_f64()),
        ]);
    }
    emit(&cfg.out_dir, "fig8_runtime", "Figure 8: runtime", &t);
}

/// Figure 14: per-case F-scores, sorted by Synthesis F descending.
pub fn emit_fig14(cfg: &ExpConfig, c: &Comparison) {
    let synth_idx = c
        .methods
        .iter()
        .position(|m| m.method == Method::Synthesis)
        .expect("synthesis present");
    let mut order: Vec<usize> = (0..c.cases.len()).collect();
    order.sort_by(|&a, &b| {
        c.methods[synth_idx].per_case[b]
            .f
            .total_cmp(&c.methods[synth_idx].per_case[a].f)
    });
    let mut headers = vec!["case".to_string()];
    headers.extend(c.methods.iter().map(|m| m.method.name().to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&headers_ref);
    for &ci in &order {
        let mut row = vec![c.cases[ci].name.clone()];
        row.extend(c.methods.iter().map(|m| format!("{:.3}", m.per_case[ci].f)));
        t.row(row);
    }
    emit(
        &cfg.out_dir,
        "fig14_per_case",
        "Figure 14: per-case f-score by method (sorted by Synthesis)",
        &t,
    );
}
