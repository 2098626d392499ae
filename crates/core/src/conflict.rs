//! Conflict resolution — the paper's Problem 17 and Algorithm 4.
//!
//! Unioning a partition's tables often leaves a small number of rows
//! that share a left value but disagree on the right (dirty inputs like
//! Figure 4's swapped chemical symbols, or near-miss relations like
//! state→capital vs state→largest-city, §5.6). The exact problem —
//! keep the largest subset of tables with no pairwise conflicts — is
//! NP-hard (reduction from Maximum Independent Set, Appendix G), so
//! Algorithm 4 greedily removes the table containing the value pair
//! with the most conflicts until none remain.
//!
//! [`resolve_majority_vote`] is the alternative the paper compares
//! against in §5.6: per left value, keep pairs carrying the most common
//! right value.

use crate::values::{NormBinary, ValueSpace};
use std::collections::{HashMap, HashSet};

/// Outcome statistics of a conflict-resolution pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Tables in the partition before resolution.
    pub tables_before: usize,
    /// Tables removed.
    pub tables_removed: usize,
    /// Conflicting left classes before resolution.
    pub conflicts_before: usize,
}

/// Algorithm 4: iteratively remove the table whose worst value pair
/// conflicts with the most other value pairs, until the union of the
/// remaining tables has no conflicts.
///
/// `group` holds indices into `tables`; returns the retained subset (in
/// original order) and stats. Right values in the same synonym class do
/// not conflict (classes are already folded in [`ValueSpace`]).
pub fn resolve_conflicts(
    space: &ValueSpace,
    tables: &[NormBinary],
    group: &[u32],
) -> (Vec<u32>, ConflictStats) {
    let mut retained: Vec<u32> = group.to_vec();
    let mut stats = ConflictStats {
        tables_before: group.len(),
        ..Default::default()
    };

    // Count initial conflicts for stats.
    stats.conflicts_before = conflicting_lefts(space, tables, &retained).len();

    loop {
        // Multiset of (left class, right class) pairs across retained
        // tables. Multiplicity matters: a wrong pair asserted by one
        // table conflicts with every table asserting the majority pair,
        // so the minority table accumulates the highest count and is
        // removed first (the index the paper maintains per value pair).
        let mut multiplicity: HashMap<(u32, u32), usize> = HashMap::new();
        let mut left_total: HashMap<u32, usize> = HashMap::new();
        for &ti in &retained {
            for &(l, r) in &tables[ti as usize].pairs {
                let key = (space.class(l), space.class(r));
                *multiplicity.entry(key).or_default() += 1;
                *left_total.entry(key.0).or_default() += 1;
            }
        }
        // cntV(l, r) = occurrences of pairs (l, r') with r' ≠ r.
        let conflict_count = |l: u32, r: u32| {
            left_total.get(&l).copied().unwrap_or(0)
                - multiplicity.get(&(l, r)).copied().unwrap_or(0)
        };
        let any_conflict = multiplicity.keys().any(|&(l, r)| conflict_count(l, r) > 0);
        if !any_conflict || retained.len() <= 1 {
            break;
        }
        // cntB(B) = max over B's pairs of cntV; remove argmax table.
        let mut worst: Option<(usize, usize)> = None; // (cnt, position)
        for (pos, &ti) in retained.iter().enumerate() {
            let cnt = tables[ti as usize]
                .pairs
                .iter()
                .map(|&(l, r)| conflict_count(space.class(l), space.class(r)))
                .max()
                .unwrap_or(0);
            // Strict > keeps the earliest max for determinism; prefer
            // removing smaller tables on ties (preserves coverage).
            let better = match worst {
                None => true,
                Some((best_cnt, best_pos)) => {
                    cnt > best_cnt
                        || (cnt == best_cnt
                            && tables[ti as usize].len()
                                < tables[retained[best_pos] as usize].len())
                }
            };
            if better {
                worst = Some((cnt, pos));
            }
        }
        let (cnt, pos) = worst.expect("non-empty retained set");
        if cnt == 0 {
            break; // defensive: no table carries a conflicting pair
        }
        retained.remove(pos);
        stats.tables_removed += 1;
    }
    (retained, stats)
}

/// Left classes with more than one right class in the union of `group`.
fn conflicting_lefts(space: &ValueSpace, tables: &[NormBinary], group: &[u32]) -> Vec<u32> {
    let mut rights_of: HashMap<u32, HashSet<u32>> = HashMap::new();
    for &ti in group {
        for &(l, r) in &tables[ti as usize].pairs {
            rights_of
                .entry(space.class(l))
                .or_default()
                .insert(space.class(r));
        }
    }
    rights_of
        .into_iter()
        .filter(|(_, rs)| rs.len() > 1)
        .map(|(l, _)| l)
        .collect()
}

/// Majority-voting alternative (§5.6 comparison): per left class, keep
/// only pairs whose right class has the highest multiplicity across
/// member tables. Returns the retained interned pairs (sorted by id;
/// [`crate::SynthesizedMapping::set_pairs`] re-sorts by string).
pub fn resolve_majority_vote(
    space: &ValueSpace,
    tables: &[NormBinary],
    group: &[u32],
) -> Vec<(crate::values::NormId, crate::values::NormId)> {
    // votes[left class][right class] = (number of member tables with
    // it, lexicographically smallest member string observed for the
    // class). The string is the deterministic tie-break: class *ids*
    // are value-space numbering, which incremental sessions
    // (append-only interning, [`crate::delta`]) and fresh sessions
    // assign differently for the same corpus.
    let mut votes: HashMap<u32, HashMap<u32, (usize, &str)>> = HashMap::new();
    for &ti in group {
        for &(l, r) in &tables[ti as usize].pairs {
            let entry = votes
                .entry(space.class(l))
                .or_default()
                .entry(space.class(r))
                .or_insert((0, space.string(r)));
            entry.0 += 1;
            entry.1 = entry.1.min(space.string(r));
        }
    }
    // winner per left class: max votes, tie-broken by smaller class
    // representative string.
    let winner: HashMap<u32, u32> = votes
        .into_iter()
        .map(|(l, rs)| {
            let best = rs
                .into_iter()
                .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(a.1 .1)))
                .map(|(rc, _)| rc)
                .expect("non-empty votes");
            (l, best)
        })
        .collect();
    let mut out: HashSet<(crate::values::NormId, crate::values::NormId)> = HashSet::new();
    for &ti in group {
        for &(l, r) in &tables[ti as usize].pairs {
            if winner.get(&space.class(l)) == Some(&space.class(r)) {
                out.insert((l, r));
            }
        }
    }
    let mut pairs: Vec<_> = out.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_mapreduce::MapReduce;
    use mapsynth_text::SynonymDict;

    fn setup_dict(
        tables: Vec<Vec<(&str, &str)>>,
        dict: SynonymDict,
    ) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
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
        let (space, tables, _) =
            build_value_space(&corpus.interner, &cands, &dict, &MapReduce::new(2));
        (space, tables)
    }

    fn setup(tables: Vec<Vec<(&str, &str)>>) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        setup_dict(tables, SynonymDict::new())
    }

    #[test]
    fn removes_minority_dirty_table() {
        // Three agreeing tables + one with a wrong symbol (paper
        // Figure 4: Tellurium should be Te).
        let good = vec![("Tellurium", "Te"), ("Iodine", "I"), ("Xenon", "Xe")];
        let (space, t) = setup(vec![
            good.clone(),
            good.clone(),
            good,
            vec![("Tellurium", "I"), ("Iodine", "Te"), ("Xenon", "Xe")],
        ]);
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1, 2, 3]);
        assert_eq!(kept, vec![0, 1, 2]);
        assert_eq!(stats.tables_removed, 1);
        assert_eq!(stats.conflicts_before, 2);
    }

    #[test]
    fn no_conflicts_is_noop() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("b", "2"), ("c", "3")],
        ]);
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1]);
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(stats.tables_removed, 0);
        assert_eq!(stats.conflicts_before, 0);
    }

    #[test]
    fn capital_vs_largest_city_case() {
        // §5.6: state→capital cluster polluted by a largest-city
        // table that disagrees on Washington only.
        let capital = vec![
            ("Washington", "Olympia"),
            ("Illinois", "Springfield"),
            ("Texas", "Austin"),
            ("Oregon", "Salem"),
        ];
        let mixed = vec![
            ("Washington", "Seattle"), // largest city, not capital
            ("Illinois", "Springfield"),
            ("Texas", "Austin"),
            ("Oregon", "Salem"),
        ];
        let (space, t) = setup(vec![capital.clone(), capital, mixed]);
        let (kept, _) = resolve_conflicts(&space, &t, &[0, 1, 2]);
        assert_eq!(kept, vec![0, 1], "majority capital tables win");
    }

    #[test]
    fn synonymous_rights_do_not_conflict() {
        let mut dict = SynonymDict::new();
        dict.declare("Myanmar", "Burma");
        let (space, t) = setup_dict(
            vec![
                vec![("MMR", "Myanmar"), ("THA", "Thailand")],
                vec![("MMR", "Burma"), ("THA", "Thailand")],
            ],
            dict,
        );
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1]);
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.conflicts_before, 0);
    }

    #[test]
    fn resolution_terminates_on_pathological_input() {
        // Every table conflicts with every other.
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "1")],
            vec![("a", "2"), ("b", "2")],
            vec![("a", "3"), ("b", "3")],
        ]);
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1, 2]);
        assert_eq!(kept.len(), 1);
        assert_eq!(stats.tables_removed, 2);
    }

    #[test]
    fn majority_vote_keeps_popular_right() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("a", "1"), ("b", "2")],
            vec![("a", "9"), ("b", "2")],
        ]);
        let pairs = resolve_majority_vote(&space, &t, &[0, 1, 2]);
        let strs: Vec<(&str, &str)> = pairs
            .iter()
            .map(|&(l, r)| (space.string(l), space.string(r)))
            .collect();
        assert!(strs.contains(&("a", "1")));
        assert!(!strs.iter().any(|&(l, r)| l == "a" && r == "9"));
        assert!(strs.contains(&("b", "2")));
    }

    #[test]
    fn majority_vote_vs_algorithm4_coverage() {
        // Algorithm 4 removes whole tables; majority voting removes
        // only the conflicting pairs. A dirty table with unique good
        // pairs shows the coverage difference.
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("a", "1"), ("b", "2")],
            vec![("a", "9"), ("unique", "7")], // dirty on a, unique pair
        ]);
        let (kept, _) = resolve_conflicts(&space, &t, &[0, 1, 2]);
        assert_eq!(kept, vec![0, 1], "algorithm 4 drops the whole table");
        let mv = resolve_majority_vote(&space, &t, &[0, 1, 2]);
        assert!(
            mv.iter()
                .any(|&(l, r)| space.string(l) == "unique" && space.string(r) == "7"),
            "majority voting keeps the unique pair"
        );
    }
}
