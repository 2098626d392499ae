//! §4.1 efficiency ablation: blocked candidate generation vs the
//! all-pairs comparison it avoids. The paper's inverted-index
//! re-grouping is what makes pairwise scoring feasible.

use criterion::{criterion_group, criterion_main, Criterion};
use mapsynth::blocking::BlockingIndex;
use mapsynth::compat::ScoringContext;
use mapsynth::values::build_value_space;
use mapsynth::SynthesisConfig;
use mapsynth_bench::bench_corpus;
use mapsynth_extract::{extract_candidates, ExtractionConfig};
use mapsynth_mapreduce::MapReduce;

fn blocking(c: &mut Criterion) {
    let wc = bench_corpus(400);
    let mr = MapReduce::default();
    let (cands, _, _) = extract_candidates(&wc.corpus, &ExtractionConfig::default(), &mr);
    let feed = wc.registry.partial_synonym_feed(0.5, 11);
    let (space, tables, _) = build_value_space(&wc.corpus.interner, &cands, &feed, &mr);
    let cfg = SynthesisConfig::default();

    let ctx = ScoringContext::build(&space, &tables, &cfg, &mr);

    let mut g = c.benchmark_group("blocking");
    g.sample_size(10);
    g.bench_function("blocked_pairs", |b| {
        b.iter(|| BlockingIndex::build(&space, &tables, &cfg, &mr))
    });
    // All-pairs scoring on a small subset to keep the bench bounded;
    // the quadratic shape is the point (both paths share the context,
    // so the gap measured is pair count, not per-pair setup).
    let k = tables.len().min(150);
    g.bench_function("all_pairs_scoring_150", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for i in 0..k as u32 {
                for j in (i + 1)..k as u32 {
                    total += ctx.score_pair(&space, i, j).pos;
                }
            }
            total
        })
    });
    let (_, pairs, _) = BlockingIndex::build(&space, &tables, &cfg, &mr);
    g.bench_function("blocked_scoring_all", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(a, b2)| ctx.score_pair(&space, a, b2).pos)
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(benches, blocking);
criterion_main!(benches);
