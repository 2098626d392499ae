//! Union-table stitching (Ling & Halevy et al., IJCAI 2013 — paper
//! reference \[30\]; methods `UnionDomain` and `UnionWeb` in §5.1).
//!
//! Tables are unioned when their column names match — within one web
//! domain (`UnionDomain`) or across the whole corpus (`UnionWeb`). The
//! paper's criticism: web column names are undescriptive ("name",
//! "code"), so name-based grouping over-groups unrelated relations and
//! under-groups tables whose names differ cosmetically.

use crate::{union_group, RelationResult};
use mapsynth::values::{NormBinary, ValueSpace};
use mapsynth_corpus::{BinaryTable, Corpus};
use mapsynth_text::normalize;
use std::collections::HashMap;

/// Grouping scope for union stitching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnionScope {
    /// Group by (domain, column names) — Ling & Halevy as published.
    Domain,
    /// Group by column names only — the paper's `UnionWeb` variant.
    Web,
}

/// Run union stitching over the candidate tables.
///
/// `tables` are the normalized candidates (aligned with `candidates`
/// via `NormBinary::idx`); headers come from the raw candidates.
/// Candidates without headers form singleton groups (nothing to match
/// on).
pub fn union_tables(
    corpus: &Corpus,
    candidates: &[BinaryTable],
    space: &ValueSpace,
    tables: &[NormBinary],
    scope: UnionScope,
) -> Vec<RelationResult> {
    let mut groups: HashMap<(Option<u32>, String, String), Vec<u32>> = HashMap::new();
    let mut singletons: Vec<u32> = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let cand = &candidates[t.idx as usize];
        let headers = match (cand.left_header, cand.right_header) {
            (Some(l), Some(r)) => Some((normalize(corpus.str_of(l)), normalize(corpus.str_of(r)))),
            _ => None,
        };
        match headers {
            Some((lh, rh)) if !lh.is_empty() && !rh.is_empty() => {
                let dom = match scope {
                    UnionScope::Domain => Some(cand.domain.0),
                    UnionScope::Web => None,
                };
                groups.entry((dom, lh, rh)).or_default().push(ti as u32);
            }
            _ => singletons.push(ti as u32),
        }
    }
    let mut keys: Vec<_> = groups.keys().cloned().collect();
    keys.sort();
    let mut out: Vec<RelationResult> = keys
        .into_iter()
        .map(|k| union_group(space, tables, &groups[&k]))
        .collect();
    out.extend(
        singletons
            .into_iter()
            .map(|ti| union_group(space, tables, &[ti])),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth::values::build_value_space;
    use mapsynth_corpus::{BinaryId, TableId};
    use mapsynth_text::SynonymDict;

    /// Two domains; "name/code" header pairs carrying two *different*
    /// relations (countries and elements) — the over-grouping failure.
    fn setup() -> (Corpus, Vec<BinaryTable>) {
        let mut corpus = Corpus::new();
        let d0 = corpus.domain("a.com");
        let d1 = corpus.domain("b.com");
        let name = Some(corpus.interner.intern("name"));
        let code = Some(corpus.interner.intern("code"));
        let mk = |corpus: &mut Corpus, i: u32, dom, rows: Vec<(&str, &str)>| {
            let syms: Vec<_> = rows
                .iter()
                .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
                .collect();
            BinaryTable::new(BinaryId(i), TableId(i), dom, 0, 1, syms)
        };
        let t0 = mk(
            &mut corpus,
            0,
            d0,
            vec![("United States", "USA"), ("Canada", "CAN")],
        )
        .with_headers(name, code);
        let t1 = mk(
            &mut corpus,
            1,
            d0,
            vec![("Japan", "JPN"), ("Germany", "DEU")],
        )
        .with_headers(name, code);
        let t2 = mk(
            &mut corpus,
            2,
            d1,
            vec![("Hydrogen", "H"), ("Helium", "He")],
        )
        .with_headers(name, code);
        (corpus, vec![t0, t1, t2])
    }

    #[test]
    fn union_domain_groups_within_domain_only() {
        let (corpus, cands) = setup();
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        let out = union_tables(&corpus, &cands, &space, &tables, UnionScope::Domain);
        // d0's two country tables union; d1's element table separate.
        assert_eq!(out.len(), 2);
        let sizes: Vec<usize> = out.iter().map(RelationResult::len).collect();
        assert!(sizes.contains(&4) && sizes.contains(&2));
    }

    #[test]
    fn union_web_overgroups_generic_names() {
        let (corpus, cands) = setup();
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        let out = union_tables(&corpus, &cands, &space, &tables, UnionScope::Web);
        // All three tables share "name/code" headers → one mixed blob
        // (countries + elements): the over-grouping the paper reports.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 6);
    }

    #[test]
    fn headerless_candidates_stay_singleton() {
        let (mut corpus, mut cands) = setup();
        let d = corpus.domain("c.com");
        let syms = vec![
            (corpus.interner.intern("x"), corpus.interner.intern("1")),
            (corpus.interner.intern("y"), corpus.interner.intern("2")),
        ];
        cands.push(BinaryTable::new(BinaryId(3), TableId(3), d, 0, 1, syms));
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        let out = union_tables(&corpus, &cands, &space, &tables, UnionScope::Web);
        assert_eq!(out.len(), 2);
    }
}
