//! Correlation clustering baseline (`Correlation`, paper §5.1).
//!
//! Mimics pairwise schema matchers with the same signals as Synthesis
//! but aggregates with correlation clustering, using the parallel-pivot
//! algorithm of Chierichetti, Dalvi & Kumar (KDD 2014 — paper
//! reference \[12\]): random ranks; each round, active vertices that are
//! rank-minima among their active neighbours become pivots; active
//! neighbours join their minimum-rank pivot.
//!
//! The paper's critique, reproduced here: (1) the objective counts all
//! positive/negative edges, dominated by the quadratic mass of
//! negatives; (2) pivots only look one hop out, so chains of small
//! same-relation tables are split across clusters, hurting recall; and
//! (3) convergence is slow — the paper timed it out at 20 hours, which
//! the `max_rounds` cap models (leftover vertices finalize as
//! singletons).

use crate::{union_group, RelationResult};
use mapsynth::values::{NormBinary, ValueSpace};
use mapsynth_mapreduce::MapReduce;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Correlation clustering configuration.
#[derive(Clone, Copy, Debug)]
pub struct CorrelationConfig {
    /// Positive-edge decision threshold on `w⁺ + w⁻`.
    pub threshold: f64,
    /// Round cap (timeout surrogate; leftovers become singletons).
    pub max_rounds: usize,
    /// RNG seed for pivot ranks.
    pub seed: u64,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        Self {
            threshold: 0.5,
            max_rounds: 50,
            seed: 99,
        }
    }
}

/// Run parallel-pivot correlation clustering (blocks and scores
/// internally).
pub fn correlation_clustering(
    space: &ValueSpace,
    tables: &[NormBinary],
    cfg: &CorrelationConfig,
    mr: &MapReduce,
) -> Vec<RelationResult> {
    let scored = crate::score_candidate_pairs(space, tables, mr);
    correlation_from_scores(space, tables, &scored, cfg)
}

/// Correlation clustering over precomputed pair scores.
pub fn correlation_from_scores(
    space: &ValueSpace,
    tables: &[NormBinary],
    scored: &crate::ScoredPairs,
    cfg: &CorrelationConfig,
) -> Vec<RelationResult> {
    let n = tables.len();
    // Positive edges by combined-score decision.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b, w) in scored {
        if w.pos + w.neg >= cfg.threshold {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
    }

    // Random permutation rank.
    let mut rank: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    rank.shuffle(&mut rng);

    let mut cluster: Vec<Option<u32>> = vec![None; n]; // cluster = pivot id
    let mut rounds = 0;
    while rounds < cfg.max_rounds {
        rounds += 1;
        // Pivots: active vertices that are rank-minima among active
        // neighbours.
        let mut pivots: Vec<u32> = Vec::new();
        for v in 0..n {
            if cluster[v].is_some() {
                continue;
            }
            let is_min = adj[v]
                .iter()
                .filter(|&&u| cluster[u as usize].is_none())
                .all(|&u| rank[v] < rank[u as usize]);
            if is_min {
                pivots.push(v as u32);
            }
        }
        if pivots.is_empty() {
            break;
        }
        for &p in &pivots {
            cluster[p as usize] = Some(p);
        }
        // Active neighbours join their minimum-rank adjacent pivot.
        let mut joins: Vec<(usize, u32)> = Vec::new();
        for v in 0..n {
            if cluster[v].is_some() {
                continue;
            }
            // An active vertex has no pivot neighbours from earlier
            // rounds (it would have joined then), so checking "is a
            // pivot of its own cluster" suffices.
            let best = adj[v]
                .iter()
                .filter(|&&u| cluster[u as usize] == Some(u))
                .min_by_key(|&&u| rank[u as usize]);
            if let Some(&p) = best {
                joins.push((v, p));
            }
        }
        for (v, p) in joins {
            cluster[v] = Some(p);
        }
        if cluster.iter().all(Option::is_some) {
            break;
        }
    }
    // Timeout leftovers → singletons.
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        if cluster[v].is_none() {
            cluster[v] = Some(v as u32);
        }
    }

    // Group by pivot.
    let mut by_pivot: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for (v, p) in cluster.iter().enumerate() {
        by_pivot.entry(p.unwrap()).or_default().push(v as u32);
    }
    let mut keys: Vec<u32> = by_pivot.keys().copied().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| union_group(space, tables, &by_pivot[&k]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_text::SynonymDict;

    fn setup(tables: Vec<Vec<(&str, &str)>>) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        let mut corpus = Corpus::new();
        let d = corpus.domain("x");
        let cands: Vec<BinaryTable> = tables
            .into_iter()
            .enumerate()
            .map(|(i, rows)| {
                let syms = rows
                    .iter()
                    .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
                    .collect();
                BinaryTable::new(BinaryId(i as u32), TableId(i as u32), d, 0, 1, syms)
            })
            .collect();
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        (space, tables)
    }

    #[test]
    fn identical_tables_cluster() {
        let rows = vec![("a", "1"), ("b", "2"), ("c", "3")];
        let (space, t) = setup((0..5).map(|_| rows.clone()).collect());
        let out = correlation_clustering(
            &space,
            &t,
            &CorrelationConfig::default(),
            &MapReduce::new(2),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn chain_splits_at_pivot_horizon() {
        // A chain t0–t1–t2–t3 where only adjacent tables share enough
        // values: one-hop pivots cannot gather the whole chain in one
        // round, often splitting it — the recall failure the paper
        // describes. We only assert it terminates and covers all pairs.
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("b", "2"), ("c", "3"), ("d", "4")],
            vec![("c", "3"), ("d", "4"), ("e", "5")],
            vec![("d", "4"), ("e", "5"), ("f", "6")],
        ]);
        let out = correlation_clustering(
            &space,
            &t,
            &CorrelationConfig {
                threshold: 0.6,
                ..Default::default()
            },
            &MapReduce::new(2),
        );
        let total: usize = out.iter().map(RelationResult::len).sum();
        assert!(total >= 6);
        assert!(!out.is_empty());
    }

    #[test]
    fn round_cap_finalizes_singletons() {
        let rows = vec![("a", "1"), ("b", "2"), ("c", "3")];
        let (space, t) = setup((0..4).map(|_| rows.clone()).collect());
        let out = correlation_clustering(
            &space,
            &t,
            &CorrelationConfig {
                max_rounds: 0,
                ..Default::default()
            },
            &MapReduce::new(1),
        );
        assert_eq!(out.len(), 4, "no rounds → all singletons");
    }

    #[test]
    fn deterministic_given_seed() {
        let rows = vec![("a", "1"), ("b", "2"), ("c", "3")];
        let (space, t) = setup((0..6).map(|_| rows.clone()).collect());
        let run = || {
            correlation_clustering(
                &space,
                &t,
                &CorrelationConfig::default(),
                &MapReduce::new(3),
            )
            .len()
        };
        assert_eq!(run(), run());
    }
}
