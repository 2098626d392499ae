//! # mapsynth-baselines
//!
//! Every comparison method from the paper's evaluation (§5.1 "Methods
//! compared"), implemented over the same candidate tables and value
//! space as the core `Synthesis` method:
//!
//! | Method | Module | Paper description |
//! |---|---|---|
//! | `UnionDomain` | [`union`] | Ling & Halevy stitching: same domain + same column names |
//! | `UnionWeb` | [`union`] | same column names across the whole web |
//! | `SchemaCC` | [`schema_cc`] | pairwise matcher, threshold, connected components |
//! | `SchemaPosCC` | [`schema_cc`] | SchemaCC without FD-induced negative signals |
//! | `Correlation` | [`correlation`] | parallel-pivot correlation clustering (Chierichetti et al.) |
//! | `WiseIntegrator` | [`wise`] | linguistic header/type clustering of web interfaces |
//! | `WikiTable` / `WebTable` / `EntTable` | [`single_table`] | best single raw table |
//! | `Freebase` / `YAGO` | [`kb`] | knowledge-base relationship dumps |
//!
//! All methods produce [`RelationResult`]s — candidate relations as
//! normalized pair sets — which the evaluation harness scores by
//! picking the best relation per benchmark case (the paper's
//! method-favourable scoring).

#![forbid(unsafe_code)]

pub mod correlation;
pub mod kb;
pub mod schema_cc;
pub mod single_table;
pub mod union;
pub mod wise;

use mapsynth::blocking::BlockingIndex;
use mapsynth::compat::{PairWeights, ScoringContext};
use mapsynth::values::{NormBinary, ValueSpace};
use mapsynth::SynthesisConfig;
use mapsynth_mapreduce::MapReduce;

/// Scored candidate table pairs, shared by SchemaCC / SchemaPosCC /
/// Correlation so threshold sweeps don't re-score.
pub type ScoredPairs = Vec<(u32, u32, PairWeights)>;

/// Block and score all candidate pairs with the Synthesis signals.
/// One shared [`ScoringContext`] (sorted table views + the global
/// approximate-match memo) serves every pair, so edit distance runs
/// once per value pair — not once per table pair.
pub fn score_candidate_pairs(
    space: &ValueSpace,
    tables: &[NormBinary],
    mr: &MapReduce,
) -> ScoredPairs {
    let cfg = SynthesisConfig::default();
    let (_, pairs, _) = BlockingIndex::build(space, tables, &cfg, mr);
    let ctx = ScoringContext::build(space, tables, &cfg, mr);
    mr.par_map(&pairs, |&(a, b)| (a, b, ctx.score_pair(space, a, b)))
}

/// A candidate relation produced by a baseline: normalized pairs.
#[derive(Clone, Debug)]
pub struct RelationResult {
    /// Normalized `(left, right)` pairs, sorted, deduplicated.
    pub pairs: Vec<(String, String)>,
}

impl RelationResult {
    /// Build from unsorted pairs.
    pub fn new(mut pairs: Vec<(String, String)>) -> Self {
        pairs.sort();
        pairs.dedup();
        Self { pairs }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Union the pairs of a group of normalized candidates into one result.
pub(crate) fn union_group(
    space: &ValueSpace,
    tables: &[NormBinary],
    group: &[u32],
) -> RelationResult {
    let mut pairs: Vec<(String, String)> = group
        .iter()
        .flat_map(|&ti| tables[ti as usize].pairs.iter())
        .map(|&(l, r)| (space.string(l).to_string(), space.string(r).to_string()))
        .collect();
    pairs.sort();
    pairs.dedup();
    RelationResult { pairs }
}
