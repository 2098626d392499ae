//! WiseIntegrator-style collective interface matching (He, Meng, Yu &
//! Wu — paper references [22, 23]; method `WiseIntegrator` in §5.1).
//!
//! WISE-Integrator clusters attributes of web search interfaces using
//! linguistic similarity of attribute names plus value-type
//! compatibility, with greedy clustering. Transplanted to table
//! synthesis: candidate tables cluster when their (left, right) header
//! token sets are similar and their value types agree. Value overlap is
//! not consulted — the method's defining limitation on heterogeneous
//! corpora where headers are generic.

use crate::{union_group, RelationResult};
use mapsynth::values::{NormBinary, ValueSpace};
use mapsynth_corpus::{BinaryTable, Corpus};
use mapsynth_text::normalize;
use std::collections::HashSet;

/// Value type classes used for compatibility (WISE-Integrator's "value
/// type" signal).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ValueType {
    /// Mostly alphabetic tokens.
    Alpha,
    /// Mostly digits.
    Numeric,
    /// Mixed letters and digits.
    AlphaNumeric,
}

/// Clustering threshold configuration.
#[derive(Clone, Copy, Debug)]
pub struct WiseConfig {
    /// Minimum mean header-token Jaccard (left and right averaged).
    pub min_header_sim: f64,
}

impl Default for WiseConfig {
    fn default() -> Self {
        Self {
            min_header_sim: 0.5,
        }
    }
}

struct Features {
    left_tokens: HashSet<String>,
    right_tokens: HashSet<String>,
    left_type: ValueType,
    right_type: ValueType,
    /// Average value length bucket (short code vs long name) — the
    /// value-shape signal WISE-Integrator derives from value patterns.
    left_len: u8,
    right_len: u8,
}

/// Classify a column's dominant value type.
pub fn value_type<'a>(values: impl Iterator<Item = &'a str>) -> ValueType {
    let mut alpha = 0usize;
    let mut numeric = 0usize;
    let mut mixed = 0usize;
    for v in values {
        let has_alpha = v.chars().any(|c| c.is_alphabetic());
        let has_digit = v.chars().any(|c| c.is_ascii_digit());
        match (has_alpha, has_digit) {
            (true, false) => alpha += 1,
            (false, true) => numeric += 1,
            _ => mixed += 1,
        }
    }
    if alpha >= numeric && alpha >= mixed {
        ValueType::Alpha
    } else if numeric >= mixed {
        ValueType::Numeric
    } else {
        ValueType::AlphaNumeric
    }
}

fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Run the WiseIntegrator-style baseline.
pub fn wise_integrator(
    corpus: &Corpus,
    candidates: &[BinaryTable],
    space: &ValueSpace,
    tables: &[NormBinary],
    cfg: &WiseConfig,
) -> Vec<RelationResult> {
    let features: Vec<Features> = tables
        .iter()
        .map(|t| {
            let cand = &candidates[t.idx as usize];
            let tokens = |h: Option<mapsynth_corpus::Sym>| -> HashSet<String> {
                h.map(|h| {
                    normalize(corpus.str_of(h))
                        .split_whitespace()
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
            };
            let len_bucket = |mean: f64| -> u8 {
                if mean <= 4.0 {
                    0 // short codes
                } else if mean <= 12.0 {
                    1 // words
                } else {
                    2 // phrases
                }
            };
            let mean_len = |iter: &mut dyn Iterator<Item = &str>| -> f64 {
                let mut n = 0usize;
                let mut total = 0usize;
                for s in iter {
                    n += 1;
                    total += s.chars().count();
                }
                total as f64 / n.max(1) as f64
            };
            Features {
                left_tokens: tokens(cand.left_header),
                right_tokens: tokens(cand.right_header),
                left_type: value_type(t.pairs.iter().map(|&(l, _)| space.string(l))),
                right_type: value_type(t.pairs.iter().map(|&(_, r)| space.string(r))),
                left_len: len_bucket(mean_len(&mut t.pairs.iter().map(|&(l, _)| space.string(l)))),
                right_len: len_bucket(mean_len(&mut t.pairs.iter().map(|&(_, r)| space.string(r)))),
            }
        })
        .collect();

    // Greedy clustering against the first member's features
    // (WISE-Integrator grows clusters around representative attributes).
    let mut clusters: Vec<(usize, Vec<u32>)> = Vec::new(); // (rep feature idx, members)
    for (ti, f) in features.iter().enumerate() {
        let mut assigned = false;
        for (rep, members) in clusters.iter_mut() {
            let r = &features[*rep];
            if r.left_type != f.left_type
                || r.right_type != f.right_type
                || r.left_len != f.left_len
                || r.right_len != f.right_len
            {
                continue;
            }
            let sim = 0.5
                * (jaccard(&r.left_tokens, &f.left_tokens)
                    + jaccard(&r.right_tokens, &f.right_tokens));
            if sim >= cfg.min_header_sim {
                members.push(ti as u32);
                assigned = true;
                break;
            }
        }
        if !assigned {
            clusters.push((ti, vec![ti as u32]));
        }
    }
    clusters
        .into_iter()
        .map(|(_, members)| union_group(space, tables, &members))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth::values::build_value_space;
    use mapsynth_corpus::{BinaryId, TableId};
    use mapsynth_text::SynonymDict;

    fn mk(
        corpus: &mut Corpus,
        i: u32,
        headers: (&str, &str),
        rows: Vec<(&str, &str)>,
    ) -> BinaryTable {
        let d = corpus.domain("x");
        let lh = Some(corpus.interner.intern(headers.0));
        let rh = Some(corpus.interner.intern(headers.1));
        let syms: Vec<_> = rows
            .iter()
            .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
            .collect();
        BinaryTable::new(BinaryId(i), TableId(i), d, 0, 1, syms).with_headers(lh, rh)
    }

    #[test]
    fn groups_by_header_similarity_regardless_of_values() {
        let mut corpus = Corpus::new();
        let cands = vec![
            mk(
                &mut corpus,
                0,
                ("country name", "code"),
                vec![("United States", "USA"), ("Canada", "CAN")],
            ),
            mk(
                &mut corpus,
                1,
                ("country", "code"),
                vec![("Japan", "JPN"), ("Germany", "DEU")],
            ),
            // Different relation, similar generic headers → over-grouped.
            mk(
                &mut corpus,
                2,
                ("country", "code"),
                vec![("France", "33"), ("Spain", "34")],
            ),
            // Numeric right type differs? "33" is numeric vs "USA" alpha —
            // type check saves this one only if types differ.
            mk(
                &mut corpus,
                3,
                ("element", "symbol"),
                vec![("Hydrogen", "H"), ("Helium", "He")],
            ),
        ];
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        let out = wise_integrator(&corpus, &cands, &space, &tables, &WiseConfig::default());
        // Tables 0,1 group (country/code headers, alpha/alpha types);
        // table 2 has numeric right → separate; table 3 separate headers.
        assert_eq!(out.len(), 3);
        let sizes: Vec<usize> = out.iter().map(RelationResult::len).collect();
        assert!(sizes.contains(&4), "sizes: {sizes:?}");
    }

    #[test]
    fn value_type_classification() {
        assert_eq!(value_type(["abc", "def"].into_iter()), ValueType::Alpha);
        assert_eq!(value_type(["123", "456"].into_iter()), ValueType::Numeric);
        assert_eq!(
            value_type(["a1", "b2"].into_iter()),
            ValueType::AlphaNumeric
        );
    }
}
