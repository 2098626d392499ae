//! Co-occurrence statistics: PMI, NPMI and column coherence.
//!
//! Paper §3.1. The coherence of a column is the average pairwise
//! Normalized Pointwise Mutual Information (NPMI) of its values, where
//! co-occurrence is measured over all columns of the corpus:
//!
//! * `PMI(u,v) = log( p(u,v) / (p(u)·p(v)) )`           (Equation 1)
//! * `NPMI(u,v) = PMI(u,v) / (−log p(u,v))` in `[-1, 1]`
//! * `S(C) = mean of s(v_i, v_j) over value pairs`       (Equation 2)
//!
//! Columns whose values never co-occur elsewhere ("Location" in the
//! paper's Table 7: mixed addresses, zip codes, free text) score low and
//! are pruned before candidate extraction.

use crate::index::{intersection_len, GlobalColId, ValueIndex};
use crate::intern::Sym;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pre-resolved co-occurrence counts for a pair of values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CooccurrenceStats {
    /// `|C(u)|`
    pub count_u: usize,
    /// `|C(v)|`
    pub count_v: usize,
    /// `|C(u) ∩ C(v)|`
    pub count_uv: usize,
    /// Total columns `N`.
    pub total: usize,
}

impl CooccurrenceStats {
    /// Gather counts from the inverted index.
    pub fn gather(index: &ValueIndex, u: Sym, v: Sym) -> Self {
        Self {
            count_u: index.column_count(u),
            count_v: index.column_count(v),
            count_uv: index.cooccurrence(u, v),
            total: index.total_columns(),
        }
    }

    /// Gather counts while excluding one column from the statistics.
    ///
    /// When scoring the coherence of column `g` itself, `g` must not
    /// contribute evidence: otherwise any column trivially co-occurs
    /// with itself and junk columns of corpus-unique values would score
    /// +1 instead of −1.
    pub fn gather_excluding(index: &ValueIndex, u: Sym, v: Sym, exclude: GlobalColId) -> Self {
        let in_u = index.columns(u).binary_search(&exclude).is_ok();
        let in_v = index.columns(v).binary_search(&exclude).is_ok();
        Self {
            count_u: index.column_count(u) - usize::from(in_u),
            count_v: index.column_count(v) - usize::from(in_v),
            count_uv: index.cooccurrence(u, v) - usize::from(in_u && in_v),
            total: index.total_columns().saturating_sub(1),
        }
    }
}

/// Pointwise mutual information (paper Equation 1).
///
/// Returns `None` when any probability is zero (a value never observed
/// in a column, or the pair never co-occurring), where PMI is
/// undefined / −∞.
pub fn pmi(s: CooccurrenceStats) -> Option<f64> {
    if s.count_u == 0 || s.count_v == 0 || s.count_uv == 0 || s.total == 0 {
        return None;
    }
    let n = s.total as f64;
    let p_u = s.count_u as f64 / n;
    let p_v = s.count_v as f64 / n;
    let p_uv = s.count_uv as f64 / n;
    Some((p_uv / (p_u * p_v)).ln())
}

/// Normalized PMI in `[-1, 1]`; the coherence `s(u, v)` of §3.1.
///
/// Pairs that never co-occur get the minimum score −1 (the limit of
/// NPMI as `p(u,v) → 0`), so incoherent columns are penalized rather
/// than skipped. A pair that always co-occurs (`p(u,v) = p(u) = p(v)`)
/// scores +1. When `p(u,v) = 1` (both values in every column) the
/// normalizer is 0; such degenerate pairs score +1 by convention.
pub fn npmi(s: CooccurrenceStats) -> f64 {
    if s.count_uv == 0 || s.total == 0 {
        return -1.0;
    }
    if s.count_uv == s.total {
        return 1.0;
    }
    let p_uv = s.count_uv as f64 / s.total as f64;
    match pmi(s) {
        Some(p) => (p / -p_uv.ln()).clamp(-1.0, 1.0),
        None => -1.0,
    }
}

/// Configuration for column coherence scoring.
#[derive(Clone, Copy, Debug)]
pub struct CoherenceConfig {
    /// Maximum number of distinct values sampled from a column before
    /// computing pairwise scores. Equation 2 is O(|C|²); sampling keeps
    /// wide columns affordable with negligible effect on the mean
    /// (the paper computes the same statistic on Map-Reduce).
    pub max_sample: usize,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        Self { max_sample: 40 }
    }
}

/// Column coherence `S(C)` (paper Equation 2): average pairwise NPMI of
/// the column's distinct values.
///
/// Sampling is deterministic (evenly strided over first-occurrence
/// order) so results are reproducible. Columns with fewer than two
/// distinct values get coherence 1.0: a constant column is trivially
/// coherent (and will be rejected later by FD filtering if useless).
pub fn column_coherence(index: &ValueIndex, distinct_values: &[Sym], cfg: CoherenceConfig) -> f64 {
    coherence_inner(index, distinct_values, cfg, None)
}

/// Column coherence of the column with global id `exclude`, with that
/// column removed from the co-occurrence evidence. This is the form
/// used by extraction: a column must be coherent *according to the rest
/// of the corpus*, not according to itself.
pub fn column_coherence_excluding(
    index: &ValueIndex,
    distinct_values: &[Sym],
    cfg: CoherenceConfig,
    exclude: GlobalColId,
) -> f64 {
    coherence_inner(index, distinct_values, cfg, Some(exclude))
}

fn coherence_inner(
    index: &ValueIndex,
    distinct_values: &[Sym],
    cfg: CoherenceConfig,
    exclude: Option<GlobalColId>,
) -> f64 {
    let vals = sample_values(distinct_values, cfg);
    coherence_sum(vals.len(), |i, j| match exclude {
        Some(g) => CooccurrenceStats::gather_excluding(index, vals[i], vals[j], g),
        None => CooccurrenceStats::gather(index, vals[i], vals[j]),
    })
}

/// The deterministic sample (evenly strided over first-occurrence
/// order, no RNG) Equation 2 is evaluated over.
fn sample_values(distinct_values: &[Sym], cfg: CoherenceConfig) -> Vec<Sym> {
    if distinct_values.len() > cfg.max_sample {
        let stride = distinct_values.len() as f64 / cfg.max_sample as f64;
        (0..cfg.max_sample)
            .map(|i| distinct_values[(i as f64 * stride) as usize])
            .collect()
    } else {
        distinct_values.to_vec()
    }
}

/// The shared Equation 2 summation: mean NPMI over sampled pairs in
/// `i < j` order. Every coherence entry point funnels through this one
/// loop, so a score recomputed from cached counts is bit-identical to
/// one gathered from the index.
fn coherence_sum(
    n_vals: usize,
    mut stats_of: impl FnMut(usize, usize) -> CooccurrenceStats,
) -> f64 {
    if n_vals < 2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..n_vals {
        for j in (i + 1)..n_vals {
            sum += npmi(stats_of(i, j));
            pairs += 1;
        }
    }
    sum / pairs as f64
}

/// Raw co-occurrence evidence behind one column's coherence score,
/// cached by incremental extraction so a corpus delta can re-score the
/// column arithmetically instead of re-intersecting posting lists.
///
/// Counts are *raw* (they still include the scored column itself); the
/// self-exclusion of [`column_coherence_excluding`] is pure arithmetic
/// — every sampled value is by definition in the column, so each count
/// is reduced by exactly one — and is re-applied by
/// [`coherence_from_counts`].
#[derive(Clone, Debug, PartialEq)]
pub struct CoherenceDetail {
    /// The sampled values, in sample order.
    pub samples: Vec<Sym>,
    /// `|C(u)|` per sampled value (including the scored column).
    pub value_counts: Vec<u32>,
    /// `|C(u) ∩ C(v)|` per sampled pair, in `i < j` order (including
    /// the scored column).
    pub pair_counts: Vec<u32>,
}

/// Funnel counters for the sketch-accelerated coherence pair loop:
/// how many sampled pairs were resolved from sketches alone versus
/// needing real posting-list data, and how many distinct pairs the
/// pass-scoped [`CooccurrenceMemo`] had to intersect. Purely
/// observational — the counts themselves are exact either way — and
/// deterministic for any worker count, so `pipeline_baseline --check`
/// gates them exactly: a regression in sketch effectiveness fails CI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceFunnel {
    /// Pairs resolved without touching a posting list: zero-length or
    /// singleton shortcuts, and sketch bounds that pinched
    /// (`lower == upper`).
    pub sketch_rejects: u64,
    /// Pairs that fell through to posting-list data: small-list
    /// gallops, and memo lookups (hits and misses alike).
    pub list_probes: u64,
    /// Distinct value pairs intersected and stored by the pass-scoped
    /// memo — its final size, summed over extraction passes. The rest
    /// of the memo-tier probes were repeats, answered from the memo
    /// unless two workers raced to intersect the same new pair.
    pub memo_pairs: u64,
}

impl CoherenceFunnel {
    /// Fold another funnel's counts into this one (per-table funnels
    /// are gathered in parallel and merged by the extraction cache).
    pub fn merge(&mut self, other: &CoherenceFunnel) {
        self.sketch_rejects += other.sketch_rejects;
        self.list_probes += other.list_probes;
        self.memo_pairs += other.memo_pairs;
    }
}

/// Shard count of [`CooccurrenceMemo`] (a power of two). Enough that
/// concurrent extraction workers rarely meet on one lock, few enough
/// that a column's batched lookups take each lock about once.
const MEMO_SHARDS: usize = 32;

/// Pass-scoped memo of raw co-occurrence counts `|C(u) ∩ C(v)|`,
/// keyed by the unordered value pair and shared by every extraction
/// worker of one pass.
///
/// Sampled value pairs repeat heavily across columns (the same hot
/// values co-occur in many tables), so the posting-list intersection at
/// the end of the coherence funnel runs once per distinct pair instead
/// of once per column that samples it. Counts are raw — the scored
/// column's self-exclusion only shapes the sketch floor, never a
/// stored count — so a stored count is a pure function of the
/// [`ValueIndex`] it was computed against. A memo must therefore never
/// outlive an index mutation: extraction creates one per pass and drops
/// it before returning.
///
/// Concurrent workers may both miss the same pair and both intersect
/// it; the insert is idempotent (equal counts), so the final size
/// ([`len`](Self::len)) is deterministic for any worker count.
pub struct CooccurrenceMemo {
    shards: Box<[Mutex<HashMap<u64, u32, PairHashBuilder>>]>,
}

impl Default for CooccurrenceMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl CooccurrenceMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::with_hasher(PairHashBuilder)))
                .collect(),
        }
    }

    /// Distinct value pairs stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when no pair has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve every probe the memo holds into `pair_counts`, taking
    /// each shard's lock once. `probes` must be grouped by shard (see
    /// [`group_by_shard`]); the misses are returned in the same
    /// grouping, ready for [`store`](Self::store).
    fn lookup(&self, probes: &[MemoProbe], pair_counts: &mut [u32]) -> Vec<MemoProbe> {
        let mut misses = Vec::new();
        for run in probes.chunk_by(|a, b| a.shard == b.shard) {
            let map = lock(&self.shards[run[0].shard as usize]);
            for p in run {
                match map.get(&p.key) {
                    Some(&count) => pair_counts[p.slot as usize] = count,
                    None => misses.push(*p),
                }
            }
        }
        misses
    }

    /// Store the counts of freshly intersected probes (grouped by
    /// shard), one lock per shard. A pair another worker stored in the
    /// meantime carries the same count, so the first insert wins.
    fn store(&self, probes: &[MemoProbe], pair_counts: &[u32]) {
        for run in probes.chunk_by(|a, b| a.shard == b.shard) {
            let mut map = lock(&self.shards[run[0].shard as usize]);
            for p in run {
                map.entry(p.key).or_insert(pair_counts[p.slot as usize]);
            }
        }
    }
}

/// Lock a memo shard. The maps are only ever extended with exact
/// counts, so a shard whose holder panicked is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One memo-tier pair of a column: where its count goes, which samples
/// it joins, and its memo key and shard.
#[derive(Clone, Copy)]
struct MemoProbe {
    key: u64,
    shard: u32,
    i: u32,
    j: u32,
    slot: u32,
}

impl MemoProbe {
    fn new(samples: &[Sym], i: usize, j: usize, slot: usize) -> Self {
        let (a, b) = (samples[i].0, samples[j].0);
        let key = (u64::from(a.max(b)) << 32) | u64::from(a.min(b));
        // Shard by the high bits of a multiplicative mix (the map's own
        // hasher uses a different multiplier, so in-shard buckets stay
        // spread).
        let shard = (key.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 59) as u32;
        debug_assert!((shard as usize) < MEMO_SHARDS);
        Self {
            key,
            shard,
            i: i as u32,
            j: j as u32,
            slot: slot as u32,
        }
    }
}

/// Order probes by shard with a counting sort (linear, stable), so
/// each shard's probes form one contiguous run.
fn group_by_shard(probes: Vec<MemoProbe>) -> Vec<MemoProbe> {
    let mut start = [0usize; MEMO_SHARDS + 1];
    for p in &probes {
        start[p.shard as usize + 1] += 1;
    }
    for s in 0..MEMO_SHARDS {
        start[s + 1] += start[s];
    }
    let mut grouped = probes.clone();
    for p in probes {
        let at = &mut start[p.shard as usize];
        grouped[*at] = p;
        *at += 1;
    }
    grouped
}

/// Hasher for memo keys: one multiply, its high half folded down so
/// the low bits a hash table indexes by depend on every key bit.
#[derive(Clone, Copy, Default)]
struct PairHashBuilder;

impl BuildHasher for PairHashBuilder {
    type Hasher = PairHasher;
    fn build_hasher(&self) -> PairHasher {
        PairHasher(0)
    }
}

struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Below this length a direct gallop of the shorter list against the
/// longer is cheaper than a round trip through the memo (and keeps the
/// memo small).
const DIRECT_PROBE_MAX: usize = 8;

/// [`column_coherence_excluding`] plus the raw evidence it was computed
/// from. The score is bit-identical to the plain entry point.
///
/// The O(samples²) pair loop consults the posting-list sketches first
/// ([`crate::sketch::PostingSketch`]); pairs the exact bounds resolve
/// never touch a posting list. The survivors are answered from the
/// pass-scoped `memo` where another column already intersected them,
/// and only the misses are intersected. Every count is exact, so the
/// detail — and therefore the score — is bit-identical to the
/// `#[cfg(test)]` probe oracle this path is tested against.
pub fn column_coherence_detailed(
    index: &ValueIndex,
    distinct_values: &[Sym],
    cfg: CoherenceConfig,
    exclude: GlobalColId,
    memo: &CooccurrenceMemo,
    funnel: &mut CoherenceFunnel,
) -> (f64, CoherenceDetail) {
    let samples = sample_values(distinct_values, cfg);
    let value_counts: Vec<u32> = samples
        .iter()
        .map(|&u| {
            debug_assert!(index.columns(u).binary_search(&exclude).is_ok());
            index.column_count(u) as u32
        })
        .collect();
    let pair_counts = pair_cooccurrences(index, &samples, exclude, memo, funnel);
    let score = coherence_from_counts(&value_counts, &pair_counts, index.total_columns());
    (
        score,
        CoherenceDetail {
            samples,
            value_counts,
            pair_counts,
        },
    )
}

/// `|C(u) ∩ C(v)|` for every sampled pair in `i < j` order — the exact
/// counts the old pair-by-pair [`ValueIndex::cooccurrence`] loop
/// produced, through a funnel whose first tier that can answer a pair
/// does:
///
/// 1. **Shortcuts** — an empty list intersects nothing; when both
///    lists contain the scored column `g`, a singleton list is exactly
///    `{g}` and the pair counts 1.
/// 2. **Sketch resolution** — the exact lower/upper overlap bounds of
///    the posting sketches (floored at 1 when both lists contain `g`);
///    a pinched pair (`lb == ub`) is resolved without list access.
/// 3. **Gallop** — an unsketched pair whose shorter list has at most
///    [`DIRECT_PROBE_MAX`] entries is intersected directly.
/// 4. **Memo** — a pair some column of this pass already intersected
///    is answered from the shared [`CooccurrenceMemo`].
/// 5. **Miss path** — each memo miss is intersected once, by gallop or
///    merge (see [`miss_intersection`]), and stored in the memo.
///
/// Tiers 1–2 feed `sketch_rejects`, tiers 3–5 `list_probes`.
fn pair_cooccurrences(
    index: &ValueIndex,
    samples: &[Sym],
    exclude: GlobalColId,
    memo: &CooccurrenceMemo,
    funnel: &mut CoherenceFunnel,
) -> Vec<u32> {
    let k = samples.len();
    let n_pairs = k * k.saturating_sub(1) / 2;
    let mut pair_counts = vec![0u32; n_pairs];
    if n_pairs == 0 {
        return pair_counts;
    }
    // Per-sample facts, gathered once: list length and whether the
    // scored column is a member (true by construction when extraction
    // calls this, but verified so the entry point stays exact for any
    // caller).
    let lens: Vec<usize> = samples.iter().map(|&u| index.column_count(u)).collect();
    let has_g: Vec<bool> = samples
        .iter()
        .map(|&u| index.columns(u).binary_search(&exclude).is_ok())
        .collect();

    // Pairs neither the sketches nor a gallop resolved.
    let mut unresolved: Vec<MemoProbe> = Vec::new();
    let mut slot = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            let floor = u32::from(has_g[i] && has_g[j]);
            if lens[i] == 0 || lens[j] == 0 {
                // pair_counts[slot] stays 0.
                funnel.sketch_rejects += 1;
            } else if floor == 1 && (lens[i] == 1 || lens[j] == 1) {
                // A singleton list containing g is exactly {g}, and g
                // is in the other list too.
                pair_counts[slot] = 1;
                funnel.sketch_rejects += 1;
            } else if let (Some(su), Some(sv)) =
                (index.sketch(samples[i]), index.sketch(samples[j]))
            {
                let lb = floor.max(su.overlap_lower_bound(sv));
                let ub = su.overlap_upper_bound(sv, lens[i] as u32, lens[j] as u32);
                if lb == ub {
                    debug_assert_eq!(
                        lb,
                        index.cooccurrence(samples[i], samples[j]) as u32,
                        "sketch resolved a pair to the wrong count"
                    );
                    pair_counts[slot] = lb;
                    funnel.sketch_rejects += 1;
                } else {
                    unresolved.push(MemoProbe::new(samples, i, j, slot));
                }
            } else if lens[i].min(lens[j]) <= DIRECT_PROBE_MAX {
                // Short lists gallop against the longer one directly —
                // cheaper than a memo round trip.
                pair_counts[slot] =
                    gallop_intersection(index.columns(samples[i]), index.columns(samples[j]));
                funnel.list_probes += 1;
            } else {
                unresolved.push(MemoProbe::new(samples, i, j, slot));
            }
            slot += 1;
        }
    }
    if unresolved.is_empty() {
        return pair_counts;
    }
    funnel.list_probes += unresolved.len() as u64;

    let misses = memo.lookup(&group_by_shard(unresolved), &mut pair_counts);
    for p in &misses {
        pair_counts[p.slot as usize] = miss_intersection(
            index.columns(samples[p.i as usize]),
            index.columns(samples[p.j as usize]),
        );
    }
    memo.store(&misses, &pair_counts);
    pair_counts
}

/// `|a ∩ b|` for a pair no other column of the pass has intersected:
/// binary-search the shorter list's elements in the longer one when
/// that costs fewer steps (`short · log₂ long`) than one linear merge
/// (`short + long`), else merge. Memo misses are mostly distinct pairs
/// spread over many samples, so per-pair intersection beats building
/// a shared bitmap universe (sorting the union of the lists) for them.
fn miss_intersection(a: &[GlobalColId], b: &[GlobalColId]) -> u32 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let log_long = (usize::BITS - long.len().leading_zeros()) as usize;
    if short.len() * log_long < short.len() + long.len() {
        gallop_intersection(short, long)
    } else {
        intersection_len(short, long) as u32
    }
}

/// `|a ∩ b|` by binary-searching each element of the shorter list in
/// the longer — exact, and O(short · log long) instead of the linear
/// merge, which matters when a rare value meets a hot one.
fn gallop_intersection(a: &[GlobalColId], b: &[GlobalColId]) -> u32 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short
        .iter()
        .filter(|g| long.binary_search(g).is_ok())
        .count() as u32
}

/// The pre-sketch pair loop, kept as the oracle the fast path is
/// tested against: plain pair-by-pair posting-list intersections.
#[cfg(test)]
fn pair_cooccurrences_probe(index: &ValueIndex, samples: &[Sym]) -> Vec<u32> {
    let mut pair_counts = Vec::with_capacity(samples.len() * samples.len().saturating_sub(1) / 2);
    for i in 0..samples.len() {
        for j in (i + 1)..samples.len() {
            pair_counts.push(index.cooccurrence(samples[i], samples[j]) as u32);
        }
    }
    pair_counts
}

/// Re-score a column from cached raw counts (see [`CoherenceDetail`])
/// against a corpus of `total` live columns. Bit-identical to
/// [`column_coherence_excluding`] gathered from an index with the same
/// counts.
pub fn coherence_from_counts(value_counts: &[u32], pair_counts: &[u32], total: usize) -> f64 {
    let mut k = 0usize;
    coherence_sum(value_counts.len(), |i, j| {
        let count_uv = pair_counts[k] as usize - 1;
        k += 1;
        CooccurrenceStats {
            count_u: value_counts[i] as usize - 1,
            count_v: value_counts[j] as usize - 1,
            count_uv,
            total: total.saturating_sub(1),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Corpus;

    #[test]
    fn pmi_example_from_paper() {
        // Paper Example 4: N = 100M, |C(u)|=1000, |C(v)|=500,
        // |C(u)∩C(v)|=300 → PMI = 4.78 (natural log in our
        // implementation gives ln(60000) ≈ 11.0; the paper's 4.78 is
        // log base 10: 10^4.78 ≈ 60256). Check the ratio itself.
        let s = CooccurrenceStats {
            count_u: 1000,
            count_v: 500,
            count_uv: 300,
            total: 100_000_000,
        };
        let p = pmi(s).unwrap();
        // ratio = (300/1e8) / ((1000/1e8)*(500/1e8)) = 60000
        assert!((p - 60000f64.ln()).abs() < 1e-9);
        // log10 form matches the paper's 4.78
        assert!(((p / 10f64.ln()) - 4.778).abs() < 1e-3);
        let n = npmi(s);
        assert!(n > 0.0 && n <= 1.0, "paper: strong coherence, got {n}");
    }

    #[test]
    fn npmi_bounds() {
        // never co-occur
        let s = CooccurrenceStats {
            count_u: 10,
            count_v: 10,
            count_uv: 0,
            total: 100,
        };
        assert_eq!(npmi(s), -1.0);
        // perfectly correlated
        let s = CooccurrenceStats {
            count_u: 5,
            count_v: 5,
            count_uv: 5,
            total: 100,
        };
        assert!((npmi(s) - 1.0).abs() < 1e-12);
        // degenerate: everything everywhere
        let s = CooccurrenceStats {
            count_u: 100,
            count_v: 100,
            count_uv: 100,
            total: 100,
        };
        assert_eq!(npmi(s), 1.0);
    }

    #[test]
    fn npmi_negative_for_anticorrelated() {
        // u and v each frequent, rarely together → below 0.
        let s = CooccurrenceStats {
            count_u: 5000,
            count_v: 5000,
            count_uv: 1,
            total: 10_000,
        };
        assert!(npmi(s) < 0.0);
    }

    #[test]
    fn coherent_vs_incoherent_column() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        // Countries co-occur in many columns.
        for _ in 0..20 {
            c.push_table(d, vec![(None, vec!["USA", "Canada", "Japan"])]);
        }
        // Unrelated background tables so no value spans the entire
        // corpus (PMI is uninformative for ubiquitous values).
        for i in 0..20 {
            let a = format!("city-{i}");
            let b = format!("city-{}", (i + 1) % 20);
            c.push_table(d, vec![(None, vec![&a, &b])]);
        }
        // A messy column whose values appear nowhere else.
        c.push_table(
            d,
            vec![(None, vec!["USA", "blob-1", "blob-2", "blob-3", "blob-4"])],
        );
        let idx = ValueIndex::build(&c);
        let cfg = CoherenceConfig::default();
        let coherent = &c.tables[0].columns[0];
        let messy = &c.tables[40].columns[0];
        // Column global ids: one column per table here, in order.
        let s_good = column_coherence_excluding(&idx, &coherent.distinct(), cfg, GlobalColId(0));
        let s_bad = column_coherence_excluding(&idx, &messy.distinct(), cfg, GlobalColId(40));
        assert!(
            s_good > 0.5 && s_bad < 0.0,
            "coherent={s_good:.3} messy={s_bad:.3}"
        );
    }

    #[test]
    fn self_column_excluded_from_evidence() {
        // A column of corpus-unique values must not look coherent by
        // co-occurring with itself.
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["uniq-a", "uniq-b", "uniq-c"])]);
        c.push_table(d, vec![(None, vec!["other-1", "other-2"])]);
        let idx = ValueIndex::build(&c);
        let col = &c.tables[0].columns[0];
        let with_self = column_coherence(&idx, &col.distinct(), CoherenceConfig::default());
        let without = column_coherence_excluding(
            &idx,
            &col.distinct(),
            CoherenceConfig::default(),
            GlobalColId(0),
        );
        assert!(with_self > 0.9, "self-evidence inflates: {with_self}");
        assert_eq!(without, -1.0);
    }

    #[test]
    fn coherence_sampling_is_deterministic_and_bounded() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        let many: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        c.push_table(d, vec![(None, refs.clone())]);
        c.push_table(d, vec![(None, refs)]);
        let idx = ValueIndex::build(&c);
        let col = &c.tables[0].columns[0];
        let cfg = CoherenceConfig { max_sample: 10 };
        let a = column_coherence(&idx, &col.distinct(), cfg);
        let b = column_coherence(&idx, &col.distinct(), cfg);
        assert_eq!(a, b);
        assert!((-1.0..=1.0).contains(&a));
        // Values always co-occur → high coherence.
        assert!(a > 0.9);
    }

    #[test]
    fn single_value_column_is_trivially_coherent() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["only", "only"])]);
        let idx = ValueIndex::build(&c);
        let col = &c.tables[0].columns[0];
        assert_eq!(
            column_coherence(&idx, &col.distinct(), CoherenceConfig::default()),
            1.0
        );
    }

    /// The sketch fast path must reproduce the probe oracle bit for
    /// bit — pair counts, value counts, and the f64 score — on a
    /// corpus mixing hot (sketched), rare, and column-unique values.
    #[test]
    fn fast_pair_counts_match_probe_oracle() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        for i in 0..30 {
            let uniq = format!("u{i}");
            c.push_table(
                d,
                vec![(
                    None,
                    vec!["USA", "Canada", "Japan", uniq.as_str(), "rare-pair"],
                )],
            );
        }
        c.push_table(
            d,
            vec![(None, vec!["USA", "blob-1", "blob-2", "rare-pair", "u7"])],
        );
        let idx = ValueIndex::build(&c);
        let cfg = CoherenceConfig::default();
        let mut funnel = CoherenceFunnel::default();
        let memo = CooccurrenceMemo::new();
        for (ti, table) in c.tables.iter().enumerate() {
            let col = &table.columns[0];
            let g = GlobalColId(ti as u32);
            let (score, detail) =
                column_coherence_detailed(&idx, &col.distinct(), cfg, g, &memo, &mut funnel);
            assert_eq!(
                detail.pair_counts,
                pair_cooccurrences_probe(&idx, &detail.samples),
                "pair counts diverged from probe oracle on column {ti}"
            );
            let oracle = column_coherence_excluding(&idx, &col.distinct(), cfg, g);
            assert_eq!(score.to_bits(), oracle.to_bits(), "score drifted, col {ti}");
        }
        assert!(funnel.sketch_rejects > 0, "no pair resolved by sketch");
        assert!(funnel.list_probes > 0, "no pair needed a probe");
        // The 30 near-identical columns share their hot pairs: the
        // memo intersected each once and answered the repeats.
        assert!(!memo.is_empty(), "no pair reached the memo");
        assert!(
            (memo.len() as u64) < funnel.list_probes,
            "no memo-tier probe was a repeat"
        );
    }

    proptest::proptest! {
        /// Bit-identity on arbitrary corpora: whatever mixture of
        /// list lengths, overlaps and saturations the generator
        /// produces, the fast pair loop equals the probe oracle.
        #[test]
        fn prop_fast_pair_counts_match_probe(
            tables in proptest::collection::vec(
                proptest::collection::vec(0u8..24, 1..12),
                1..24,
            ),
            scored in 0usize..24,
        ) {
            let mut c = Corpus::new();
            let d = c.domain("x");
            for vals in &tables {
                let strs: Vec<String> = vals.iter().map(|v| format!("v{v}")).collect();
                let refs: Vec<&str> = strs.iter().map(String::as_str).collect();
                c.push_table(d, vec![(None, refs)]);
            }
            let idx = ValueIndex::build(&c);
            let ti = scored % tables.len();
            let col = &c.tables[ti].columns[0];
            let mut funnel = CoherenceFunnel::default();
            let (score, detail) = column_coherence_detailed(
                &idx,
                &col.distinct(),
                CoherenceConfig::default(),
                GlobalColId(ti as u32),
                &CooccurrenceMemo::new(),
                &mut funnel,
            );
            proptest::prop_assert_eq!(
                &detail.pair_counts,
                &pair_cooccurrences_probe(&idx, &detail.samples)
            );
            let oracle = column_coherence_excluding(
                &idx,
                &col.distinct(),
                CoherenceConfig::default(),
                GlobalColId(ti as u32),
            );
            proptest::prop_assert_eq!(score.to_bits(), oracle.to_bits());
        }

        /// The shared memo across a whole pass: every column of a
        /// corpus drawn from one small value pool (so hot pairs repeat
        /// across columns and lists grow long enough to be sketched
        /// and reach the memo) is scored through *one* memo, in an
        /// order that interleaves tables. Each column's counts must
        /// equal the probe oracle and each score the unmemoized gather
        /// — a wrong count stored by one column would surface in every
        /// later column that samples the pair.
        #[test]
        fn prop_shared_memo_matches_probe(
            tables in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0u8..20, 2..14),
                    1..4,
                ),
                8..40,
            ),
            stride in 1usize..7,
        ) {
            let mut c = Corpus::new();
            let d = c.domain("x");
            for cols in &tables {
                // Columns of one table share a row count: cut to the
                // shortest.
                let rows = cols.iter().map(Vec::len).min().unwrap_or(0);
                let strs: Vec<Vec<String>> = cols
                    .iter()
                    .map(|vals| vals[..rows].iter().map(|v| format!("v{v}")).collect())
                    .collect();
                c.push_table(
                    d,
                    strs.iter()
                        .map(|col| (None, col.iter().map(String::as_str).collect()))
                        .collect(),
                );
            }
            let idx = ValueIndex::build(&c);
            let mut columns: Vec<(Vec<Sym>, GlobalColId)> = Vec::new();
            let mut gid = 0u32;
            for table in &c.tables {
                for col in &table.columns {
                    columns.push((col.distinct(), GlobalColId(gid)));
                    gid += 1;
                }
            }
            let cfg = CoherenceConfig { max_sample: 12 };
            let memo = CooccurrenceMemo::new();
            let mut funnel = CoherenceFunnel::default();
            let n = columns.len();
            // Visit every column once, interleaving tables: a stride
            // coprime to n is a permutation of 0..n.
            let gcd = |mut a: usize, mut b: usize| {
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a
            };
            let stride = if gcd(n, stride) == 1 { stride } else { 1 };
            for step in 0..n {
                let at = step * stride % n;
                let (distinct, g) = &columns[at];
                let (score, detail) =
                    column_coherence_detailed(&idx, distinct, cfg, *g, &memo, &mut funnel);
                proptest::prop_assert_eq!(
                    &detail.pair_counts,
                    &pair_cooccurrences_probe(&idx, &detail.samples)
                );
                let oracle = column_coherence_excluding(&idx, distinct, cfg, *g);
                proptest::prop_assert_eq!(score.to_bits(), oracle.to_bits());
            }
            proptest::prop_assert!(memo.len() as u64 <= funnel.list_probes);
        }
    }
}
