//! The harness's own arithmetic: percentiles, open-loop lateness,
//! freshness, span self time and output digests. Kept free of any
//! workload code so the unit tests below pin it exactly.

use std::collections::BTreeMap;

/// Linearly interpolated percentile `p` (0–100) of `samples`, which
/// need not be sorted; 0.0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How late each open-loop operation started against its schedule, in
/// microseconds. An operation that started early (never the case for
/// the generator, which waits for its due time) counts as on time.
pub fn lateness_us(scheduled_ns: &[u64], started_ns: &[u64]) -> Vec<f64> {
    scheduled_ns
        .iter()
        .zip(started_ns)
        .map(|(&due, &start)| start.saturating_sub(due) as f64 / 1e3)
        .collect()
}

/// Freshness of each delta, in milliseconds: from its scheduled submit
/// time to the start of the first lookup whose snapshot version covers
/// it. `deltas` are `(scheduled_ns, covering_version)`; `lookups` are
/// `(start_ns, version)` in the order they ran, so their versions never
/// decrease. `None` marks a delta no lookup saw.
pub fn freshness_ms(deltas: &[(u64, u64)], lookups: &[(u64, u64)]) -> Vec<Option<f64>> {
    deltas
        .iter()
        .map(|&(due, version)| {
            let first = lookups.partition_point(|&(_, v)| v < version);
            lookups
                .get(first)
                .map(|&(start, _)| start.saturating_sub(due) as f64 / 1e6)
        })
        .collect()
}

/// One traced interval. `parent` indexes the enclosing span in the
/// same list; `req` groups the spans of one request (a pass, a variant,
/// a delta).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child sticking out of its parent is clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total - covered.min(total)
        })
        .collect()
}

/// Summed self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// Durations of every span named `name`, in the given unit (1e3 for
/// microseconds, 1e6 for milliseconds).
pub fn durations(spans: &[Span], name: &str, ns_per_unit: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / ns_per_unit)
        .collect()
}

/// 64-bit FNV-1a, the harness's output digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// A string, terminated so that `"ab","c"` and `"a","bc"` differ.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(percentile(&v, 150.0), 4.0);
        assert_eq!(percentile(&v, -5.0), 1.0);
    }

    #[test]
    fn lateness_counts_only_late_starts() {
        let due = [1_000, 2_000, 3_000];
        let start = [1_500, 1_900, 7_000];
        assert_eq!(lateness_us(&due, &start), vec![0.5, 0.0, 4.0]);
    }

    #[test]
    fn freshness_finds_first_covering_lookup() {
        // Lookups every 1 ms; versions 1,1,2,2,4.
        let lookups = [
            (0, 1),
            (1_000_000, 1),
            (2_000_000, 2),
            (3_000_000, 2),
            (4_000_000, 4),
        ];
        let deltas = [(500_000, 2), (1_500_000, 3), (3_500_000, 4), (0, 9)];
        let f = freshness_ms(&deltas, &lookups);
        assert_eq!(f[0], Some(1.5));
        // Version 3 was never served alone: version 4 covers it.
        assert_eq!(f[1], Some(2.5));
        assert_eq!(f[2], Some(0.5));
        assert_eq!(f[3], None);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10: the union covers 10..50.
            span("b", 20, 50, Some(0)),
            // Sticks out of the parent: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            // Grandchild: reduces `a`, not `pass`.
            span("d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
        let by_name = self_ms_by_name(&spans);
        assert!((by_name["pass"] - 50e-6).abs() < 1e-15);
        // Self times add up to the root interval plus what siblings
        // double-cover (`a`∩`b`, 10) and what sticks out (`c`, 20).
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100 + 10 + 20);
    }

    #[test]
    fn self_time_sums_repeated_names() {
        let spans = vec![
            span("lookup", 0, 2_000_000, None),
            span("lookup", 5_000_000, 6_000_000, None),
        ];
        assert_eq!(self_ms_by_name(&spans)["lookup"], 3.0);
        assert_eq!(durations(&spans, "lookup", 1e3), vec![2000.0, 1000.0]);
    }

    #[test]
    fn digest_separates_strings() {
        let a = Digest::default().str("ab").str("c").finish();
        let b = Digest::default().str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().str("ab").str("c").finish());
    }
}
