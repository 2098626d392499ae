//! Schema-matching + connected-components baselines (`SchemaCC` and
//! `SchemaPosCC`, paper §5.1).
//!
//! These mimic pairwise schema matchers using the *same* positive and
//! negative signals as Synthesis, but aggregate the pairwise decisions
//! by transitivity: if A matches B and B matches C, then A, B, C land
//! in one group — connected components over thresholded match edges.
//! The paper's finding: transitive aggregation over- and under-groups
//! because a single borderline edge fuses unrelated clusters.

use crate::{union_group, RelationResult};
use mapsynth::values::{NormBinary, ValueSpace};
use mapsynth_mapreduce::{connected_components_union_find, MapReduce};

/// SchemaCC configuration.
#[derive(Clone, Copy, Debug)]
pub struct SchemaCcConfig {
    /// Match threshold on the combined score `w⁺ + w⁻` (the paper
    /// sweeps `[0, 1]` and reports the best).
    pub threshold: f64,
    /// Whether negative signals are used (`false` = `SchemaPosCC`).
    pub use_negative: bool,
}

impl Default for SchemaCcConfig {
    fn default() -> Self {
        Self {
            threshold: 0.8,
            use_negative: true,
        }
    }
}

/// Run the SchemaCC baseline (blocks and scores internally).
pub fn schema_cc(
    space: &ValueSpace,
    tables: &[NormBinary],
    cfg: &SchemaCcConfig,
    mr: &MapReduce,
) -> Vec<RelationResult> {
    let scored = crate::score_candidate_pairs(space, tables, mr);
    schema_cc_from_scores(space, tables, &scored, cfg)
}

/// SchemaCC over precomputed pair scores (used by threshold sweeps).
pub fn schema_cc_from_scores(
    space: &ValueSpace,
    tables: &[NormBinary],
    scored: &crate::ScoredPairs,
    cfg: &SchemaCcConfig,
) -> Vec<RelationResult> {
    // Pairwise "match" decision: combined score clears the threshold.
    let edges: Vec<(u32, u32)> = scored
        .iter()
        .filter(|&&(_, _, w)| {
            let combined = if cfg.use_negative {
                w.pos + w.neg
            } else {
                w.pos
            };
            combined >= cfg.threshold
        })
        .map(|&(a, b, _)| (a, b))
        .collect();
    let components = connected_components_union_find(tables.len(), &edges);
    components
        .into_iter()
        .map(|comp| {
            let group: Vec<u32> = comp.into_iter().map(|v| v as u32).collect();
            union_group(space, tables, &group)
        })
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

    /// ISO and IOC tables with a bridge table that overlaps both: CC
    /// transitivity fuses the standards; negative signals only help if
    /// the *pairwise* combined score dips below threshold.
    #[test]
    fn transitive_fusion_failure_mode() {
        let iso = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "DZA"),
            ("Germany", "DEU"),
        ];
        let ioc = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "ALG"),
            ("Germany", "GER"),
        ];
        let (space, t) = setup(vec![iso.clone(), iso, ioc.clone(), ioc]);
        // Pos between standards: 2/4 = 0.5; neg: −0.5 → combined 0.
        // With threshold 0.8 the standards stay apart.
        let out = schema_cc(&space, &t, &SchemaCcConfig::default(), &MapReduce::new(2));
        assert_eq!(out.len(), 2);
        // Without negatives and a lenient threshold, they fuse.
        let out = schema_cc(
            &space,
            &t,
            &SchemaCcConfig {
                threshold: 0.5,
                use_negative: false,
            },
            &MapReduce::new(2),
        );
        assert_eq!(out.len(), 1, "SchemaPosCC fuses the standards");
        // The fused result carries FD conflicts (both DZA and ALG for
        // Algeria).
        let algeria: Vec<&str> = out[0]
            .pairs
            .iter()
            .filter(|(l, _)| l == "algeria")
            .map(|(_, r)| r.as_str())
            .collect();
        assert_eq!(algeria.len(), 2);
    }

    #[test]
    fn singletons_survive() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("x", "8"), ("y", "9")],
        ]);
        let out = schema_cc(&space, &t, &SchemaCcConfig::default(), &MapReduce::new(1));
        assert_eq!(out.len(), 2);
    }
}
