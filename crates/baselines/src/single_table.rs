//! Single-table baselines (`WikiTable`, `WebTable`, `EntTable`, §5.1).
//!
//! No synthesis at all: every candidate table is offered as a
//! relation on its own, and the evaluation picks the best one per
//! benchmark case. `WebTable`/`EntTable` consider every candidate in
//! the corpus (an upper bound no human could realize, as the paper
//! notes); `WikiTable` restricts to candidates from designated
//! reference domains (high-quality, complete, but single-mention
//! tables).

use crate::{union_group, RelationResult};
use mapsynth::values::{NormBinary, ValueSpace};
use mapsynth_corpus::{BinaryTable, Corpus};

/// Every candidate as its own relation (`WebTable` / `EntTable`).
pub fn single_tables(space: &ValueSpace, tables: &[NormBinary]) -> Vec<RelationResult> {
    (0..tables.len() as u32)
        .map(|ti| union_group(space, tables, &[ti]))
        .collect()
}

/// Candidates restricted to domains matching `domain_pred`
/// (`WikiTable`: the corpus's reference domains).
pub fn single_tables_from_domains(
    corpus: &Corpus,
    candidates: &[BinaryTable],
    space: &ValueSpace,
    tables: &[NormBinary],
    domain_pred: impl Fn(&str) -> bool,
) -> Vec<RelationResult> {
    tables
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            let cand = &candidates[t.idx as usize];
            domain_pred(&corpus.domain_names[cand.domain.0 as usize])
        })
        .map(|(ti, _)| union_group(space, tables, &[ti as u32]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth::values::build_value_space;
    use mapsynth_corpus::{BinaryId, TableId};
    use mapsynth_text::SynonymDict;

    fn setup() -> (Corpus, Vec<BinaryTable>) {
        let mut corpus = Corpus::new();
        let wiki = corpus.domain("wiki.example.org");
        let blog = corpus.domain("blog.example.com");
        let mk = |corpus: &mut Corpus, i: u32, dom, rows: Vec<(&str, &str)>| {
            let syms: Vec<_> = rows
                .iter()
                .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
                .collect();
            BinaryTable::new(BinaryId(i), TableId(i), dom, 0, 1, syms)
        };
        let t0 = mk(&mut corpus, 0, wiki, vec![("a", "1"), ("b", "2")]);
        let t1 = mk(&mut corpus, 1, blog, vec![("c", "3"), ("d", "4")]);
        (corpus, vec![t0, t1])
    }

    #[test]
    fn webtable_offers_everything() {
        let (corpus, cands) = setup();
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        let out = single_tables(&space, &tables);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn wikitable_filters_by_domain() {
        let (corpus, cands) = setup();
        let (space, tables, _) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &mapsynth_mapreduce::MapReduce::new(2),
        );
        let out = single_tables_from_domains(&corpus, &cands, &space, &tables, |d| {
            d.starts_with("wiki.")
        });
        assert_eq!(out.len(), 1);
        assert!(out[0].pairs.contains(&("a".to_string(), "1".to_string())));
    }
}
