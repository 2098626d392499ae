//! §5.4 sensitivity analysis: θ (approximate-FD), τ (hard-conflict),
//! θ_overlap (blocking), θ_edge (positive-edge filter), and the
//! matching thresholds `f_ed` / approximate-matching toggle (served
//! from the session's stored match counts — no edit distance re-runs).
//!
//! Paper findings to reproduce in shape: mapping counts barely move for
//! θ ∈ [0.93, 0.97]; quality is insensitive to small τ with a peak near
//! −0.05; |E| drops quickly as θ_overlap grows while quality holds;
//! θ_edge has a broad optimum.

use super::ExpConfig;
use crate::benchmark::web_benchmark_attested;
use crate::methods::PreparedWeb;
use crate::metrics::{mean_score, ResultScorer, Score};
use crate::report::{emit, Table};
use mapsynth::blocking::BlockingIndex;
use mapsynth::pipeline::Resolver;
use mapsynth::SynthesisConfig;
use mapsynth_extract::{extract_candidates, ExtractionConfig};
use mapsynth_gen::generate_web;
use mapsynth_mapreduce::MapReduce;

fn mean_f(prepared: &PreparedWeb, cases: &[crate::BenchmarkCase], cfg: &SynthesisConfig) -> Score {
    let results = prepared.run_synthesis(cfg, Resolver::Algorithm4);
    let scorer = ResultScorer::new(&results);
    let per: Vec<Score> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
    mean_score(&per)
}

/// Run all four sweeps.
pub fn run(cfg: &ExpConfig) {
    // Smaller corpus for the sweep grid.
    let mut web_cfg = cfg.web_config();
    web_cfg.tables = (cfg.tables / 2).max(500);
    let wc = generate_web(&web_cfg);
    let corpus_for_theta = scalability_corpus(&wc.corpus);
    let prepared = PreparedWeb::prepare(wc, cfg.synonym_fraction, cfg.workers);
    let cases = web_benchmark_attested(&prepared.registry, &prepared.emitted_pairs, 80);

    // --- θ (approximate FD) sweep: candidate & mapping counts ---
    let mr = if cfg.workers == 0 {
        MapReduce::default()
    } else {
        MapReduce::new(cfg.workers)
    };
    let mut t = Table::new(&["theta_fd", "candidates", "mappings"]);
    for theta in [0.93, 0.94, 0.95, 0.96, 0.97] {
        let (cands, _, _) = extract_candidates(
            &corpus_for_theta,
            &ExtractionConfig {
                fd_theta: theta,
                ..Default::default()
            },
            &mr,
        );
        let feed = prepared
            .registry
            .partial_synonym_feed(cfg.synonym_fraction, 11);
        let (space, tables, _) =
            mapsynth::values::build_value_space(&corpus_for_theta.interner, &cands, &feed, &mr);
        let mappings = mapsynth::synthesize_from(&space, &tables, &SynthesisConfig::default(), &mr);
        t.row(vec![
            format!("{theta:.2}"),
            cands.len().to_string(),
            mappings.len().to_string(),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_theta_fd",
        "Sensitivity (§5.4): approximate-FD threshold θ",
        &t,
    );

    // --- τ sweep ---
    let mut t = Table::new(&["tau", "avg_fscore", "avg_precision", "avg_recall"]);
    for tau in [-0.4, -0.3, -0.2, -0.1, -0.05, -0.02] {
        let s = mean_f(
            &prepared,
            &cases,
            &SynthesisConfig {
                tau,
                ..Default::default()
            },
        );
        t.row(vec![
            format!("{tau}"),
            format!("{:.3}", s.f),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_tau",
        "Sensitivity (§5.4): hard-conflict threshold τ",
        &t,
    );

    // --- θ_overlap sweep: edge count and quality ---
    let mut t = Table::new(&["theta_overlap", "candidate_pairs", "avg_fscore"]);
    for overlap in [1usize, 2, 3, 4, 5] {
        let scfg = SynthesisConfig {
            theta_overlap: overlap,
            ..Default::default()
        };
        let (_, pairs, _) =
            BlockingIndex::build(prepared.space(), prepared.tables(), &scfg, prepared.mr());
        // Quality still evaluated with shared scored pairs only when
        // overlap=2 matches; otherwise re-run synthesis from scratch on
        // the blocked pairs via the full path.
        let s = if overlap == 2 {
            mean_f(&prepared, &cases, &scfg)
        } else {
            let results = {
                let graph = mapsynth::graph::build_graph(
                    prepared.space(),
                    prepared.tables(),
                    &scfg,
                    prepared.mr(),
                );
                mapsynth::synthesize_graph(
                    prepared.space(),
                    prepared.tables(),
                    &graph,
                    &scfg,
                    Resolver::Algorithm4,
                    prepared.mr(),
                )
            };
            let rr: Vec<mapsynth_baselines::RelationResult> = results
                .into_iter()
                .map(|m| mapsynth_baselines::RelationResult {
                    pairs: m.materialize_pairs(),
                })
                .collect();
            let scorer = ResultScorer::new(&rr);
            let per: Vec<Score> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
            mean_score(&per)
        };
        t.row(vec![
            overlap.to_string(),
            pairs.len().to_string(),
            format!("{:.3}", s.f),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_theta_overlap",
        "Sensitivity (§5.4): blocking threshold θ_overlap",
        &t,
    );

    // --- matching-threshold sweep (f_ed + approx toggle) ---
    // Weights derive from the session's cached match counts; the sweep
    // re-runs zero edit-distance DP (tighter f_ed resolves against the
    // memoized distances, "exact" drops to the class-equality counts).
    let mut t = Table::new(&["matching", "avg_fscore", "avg_precision", "avg_recall"]);
    let mut settings: Vec<SynthesisConfig> = [0.05, 0.1, 0.2]
        .iter()
        .map(|&f_ed| SynthesisConfig {
            match_params: mapsynth_text::MatchParams { f_ed, k_ed: 10 },
            ..Default::default()
        })
        .collect();
    settings.push(SynthesisConfig {
        approx_matching: false,
        ..Default::default()
    });
    for run in prepared.sweep_matching(&settings, Resolver::Algorithm4) {
        let scorer = ResultScorer::new(&run.results);
        let per: Vec<Score> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
        let s = mean_score(&per);
        t.row(vec![
            run.label,
            format!("{:.3}", s.f),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_matching",
        "Sensitivity (§5.4): approximate-matching thresholds (reused match counts)",
        &t,
    );

    // --- θ_edge sweep ---
    let mut t = Table::new(&["theta_edge", "avg_fscore", "avg_precision", "avg_recall"]);
    for edge in [0.4, 0.5, 0.6, 0.7, 0.85, 0.95] {
        let s = mean_f(
            &prepared,
            &cases,
            &SynthesisConfig {
                theta_edge: edge,
                ..Default::default()
            },
        );
        t.row(vec![
            format!("{edge}"),
            format!("{:.3}", s.f),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_theta_edge",
        "Sensitivity (§5.4): positive-edge threshold θ_edge",
        &t,
    );
}

/// Clone of the corpus used for the θ sweep (extraction mutates
/// nothing, but we keep the borrow simple by copying once).
fn scalability_corpus(corpus: &mapsynth_corpus::Corpus) -> mapsynth_corpus::Corpus {
    super::scalability::subsample(corpus, corpus.len())
}
