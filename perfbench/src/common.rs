//! Pieces every workload shares: run arguments and outcome, pinned
//! worker counts, memory probe, lookup key pools and the closed-loop
//! reader, output digests, quality scoring, and the traced wrappers
//! around the staged session's public calls.

use crate::stats::Digest;
use crate::trace::{Layers, Tracer};
use mapsynth::pipeline::{Resolver, SessionRun, SynthesisSession};
use mapsynth::{SynthesisConfig, SynthesizedMapping};
use mapsynth_baselines::RelationResult;
use mapsynth_eval::metrics::{mean_score, ResultScorer, Score};
use mapsynth_eval::BenchmarkCase;
use mapsynth_serve::{IndexSnapshot, MappingService, SnapshotBuilder};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The generator's default seed. The committed counts in
/// `BENCH_scale.json` and the paper's Figure 7 numbers are for it.
pub const DEFAULT_SEED: u64 = 42;
/// Keys per `lookup_many` batch: half hits, half misses.
pub const BATCH_KEYS: usize = 256;
/// Batches of the fixed-size lookup phase in the traced run.
pub const TRACED_LOOKUP_BATCHES: usize = 2000;

/// One run's parameters, as passed on the command line.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    /// Directory for this run's persistence files (created and removed
    /// by the caller).
    pub tmp: PathBuf,
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Digest of the run's output; the traced run must reproduce it.
    pub digest: u64,
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics that need no tracing (generator accounting,
    /// open-loop tails, error rate).
    pub side: BTreeMap<&'static str, f64>,
    /// Recorded environment: worker counts, flush policy.
    pub env: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one check; record `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `want` worker threads, pinned to at most [`nproc`].
pub fn workers(want: usize) -> usize {
    want.min(nproc()).max(1)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    mapsynth_bench::peak_rss_kb() as f64 / 1024.0
}

/// splitmix64: the harness's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Lookup keys: values the served mappings hold (hits) and values no
/// table holds (misses).
pub struct KeyPool {
    pub hits: Vec<String>,
    pub misses: Vec<String>,
}

impl KeyPool {
    /// Up to `n` distinct left values of `mappings`, sampled with
    /// `seed`, and `n` miss keys.
    pub fn new(mappings: &[SynthesizedMapping], seed: u64, n: usize) -> Self {
        let mut seen = HashSet::new();
        let mut lefts: Vec<&str> = Vec::new();
        for m in mappings {
            for (l, _) in m.pair_strs() {
                if seen.insert(l) {
                    lefts.push(l);
                }
            }
        }
        let mut rng = Rng::new(seed);
        let hits = if lefts.is_empty() {
            Vec::new()
        } else {
            (0..n)
                .map(|_| lefts[rng.below(lefts.len())].to_string())
                .collect()
        };
        let misses = (0..n).map(|_| format!("qz{:016x}", rng.next())).collect();
        Self { hits, misses }
    }

    /// Batches of [`BATCH_KEYS`] keys, alternating hit and miss.
    pub fn batches(&self) -> Vec<Vec<&str>> {
        let half = BATCH_KEYS / 2;
        let count = (self.misses.len() / half).max(1);
        (0..count)
            .map(|b| {
                (0..half)
                    .flat_map(|i| {
                        let k = b * half + i;
                        let miss = self.misses[k % self.misses.len()].as_str();
                        match self.hits.get(k % self.hits.len().max(1)) {
                            Some(hit) => vec![hit.as_str(), miss],
                            None => vec![miss],
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// What a closed-loop reader saw.
#[derive(Default)]
pub struct Reads {
    /// Per-batch latency, µs.
    pub lat_us: Vec<f64>,
    pub keys: u64,
    pub hits: u64,
    pub elapsed_s: f64,
    /// Batches whose hit count differed from the expected half.
    pub wrong: u64,
}

impl Reads {
    /// Add another slice of reads to this one.
    pub fn absorb(&mut self, other: Reads) {
        self.lat_us.extend(other.lat_us);
        self.keys += other.keys;
        self.hits += other.hits;
        self.elapsed_s += other.elapsed_s;
        self.wrong += other.wrong;
    }

    pub fn qps(&self) -> f64 {
        self.keys as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Closed-loop single-thread reader: one `lookup_many` batch after the
/// other on the currently served snapshot, for `batches` batches or
/// until `until`, whichever comes first. With `expect_half`, every
/// batch must hit exactly its hit keys (the snapshot is not changing).
pub fn closed_loop(
    service: &MappingService,
    batches: &[Vec<&str>],
    max_batches: usize,
    until: Option<Instant>,
    expect_half: bool,
    tr: &mut Tracer,
) -> Reads {
    let mut r = Reads::default();
    let start = Instant::now();
    for i in 0..max_batches {
        if until.is_some_and(|u| Instant::now() >= u) {
            break;
        }
        let batch = &batches[i % batches.len()];
        let span = tr.enter("lookup");
        let t = Instant::now();
        let snap = service.snapshot();
        let hits = snap
            .lookup_many(batch)
            .iter()
            .filter(|h| h.is_some())
            .count();
        r.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.exit(span);
        r.keys += batch.len() as u64;
        r.hits += hits as u64;
        if expect_half && hits != batch.len() / 2 {
            r.wrong += 1;
        }
    }
    r.elapsed_s = start.elapsed().as_secs_f64();
    r
}

/// Digest of a mapping set: every mapping's normalized pairs, in
/// output order.
pub fn mapping_digest(mappings: &[SynthesizedMapping]) -> u64 {
    let mut d = Digest::default();
    for m in mappings {
        d.u64(m.len() as u64);
        for (l, r) in m.pair_strs() {
            d.str(l).str(r);
        }
    }
    d.finish()
}

/// Cheap digest of a variant's output (interned pair ids), for the
/// many-variant sweep where materializing strings would dominate.
pub fn id_digest(mappings: &[SynthesizedMapping]) -> u64 {
    let mut d = Digest::default();
    for m in mappings {
        d.u64(m.pair_ids.len() as u64);
        for &(l, r) in &m.pair_ids {
            d.u64((u64::from(l.0) << 32) | u64::from(r.0));
        }
    }
    d.finish()
}

/// Mean best-F (with precision and recall) of `mappings` over the
/// benchmark cases, scored as the paper's Figure 7 is.
pub fn quality(mappings: &[SynthesizedMapping], cases: &[BenchmarkCase]) -> Score {
    let results: Vec<RelationResult> = mappings
        .iter()
        .map(|m| RelationResult {
            pairs: m.materialize_pairs(),
        })
        .collect();
    let scorer = ResultScorer::new(&results);
    let per_case: Vec<Score> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
    mean_score(&per_case)
}

/// Build and publish a full snapshot of `mappings`, traced as
/// `snapshot.build`.
pub fn publish_full(
    service: &MappingService,
    mappings: &[SynthesizedMapping],
    tr: &mut Tracer,
) -> u64 {
    let span = tr.enter("snapshot.build");
    let snapshot: IndexSnapshot = SnapshotBuilder::from_synthesized(mappings).build();
    tr.exit(span);
    service.publish(snapshot)
}

/// Timestamps and peak-RSS readings of the prepare stage probe.
#[derive(Default)]
pub struct StageMarks(Vec<(&'static str, Instant, f64)>);

impl StageMarks {
    /// The probe to hand to `prepare_with` / `prepare_streaming_with`.
    pub fn probe(&mut self) -> impl FnMut(&'static str) + '_ {
        |stage| self.0.push((stage, Instant::now(), peak_rss_mb()))
    }

    fn at(&self, stage: &str) -> Option<(Instant, f64)> {
        self.0.iter().find(|m| m.0 == stage).map(|m| (m.1, m.2))
    }

    /// Turn the marks of a prepare that started at `start` into
    /// extract / values / blocking / scoring spans (blocking's share
    /// of the scoring stage is the duration the session reports), and
    /// record the session's stage counters and peak-RSS readings.
    pub fn finish(
        &self,
        start: Instant,
        session: &SynthesisSession,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) {
        let (Some((ext, ext_mb)), Some((val, val_mb)), Some((sco, sco_mb))) = (
            self.at("extraction"),
            self.at("value_space"),
            self.at("scoring"),
        ) else {
            return;
        };
        let scores = session.scores().expect("prepared");
        let blocking_end = (val + scores.detail.blocking).min(sco);
        tr.record("extract", start, ext);
        tr.record("values", ext, val);
        tr.record("blocking", val, blocking_end);
        tr.record("scoring", blocking_end, sco);

        let extraction = session.extraction().expect("prepared");
        let funnel = &extraction.funnel;
        let memo = &scores.detail.memo;
        let pairs = (funnel.sketch_rejects + funnel.list_probes) as f64;
        for (k, v) in [
            ("extract.candidates", extraction.candidates.len() as f64),
            ("extract.coh_probes", funnel.list_probes as f64),
            (
                "extract.coh_sketch_frac",
                funnel.sketch_rejects as f64 / pairs.max(1.0),
            ),
            ("rss.extract_mb", ext_mb),
            (
                "values.distinct",
                session.values().expect("prepared").space.len() as f64,
            ),
            ("rss.values_mb", val_mb),
            ("blocking.pairs", scores.blocking.pairs as f64),
            ("scoring.memo_dp_calls", memo.dp_calls as f64),
            (
                "scoring.memo_filter_frac",
                memo.dp_calls as f64 / (memo.candidate_pairs as f64).max(1.0),
            ),
            ("rss.scoring_mb", sco_mb),
        ] {
            *layers.entry(k).or_insert(0.0) += v;
        }
    }
}

/// `session.synthesize`, traced as one `synthesize` span split into
/// graph / partition / conflict children by the stage timings the
/// call returns (its graph time includes the cached scoring time,
/// which is taken back out).
pub fn synthesize(
    session: &SynthesisSession,
    cfg: &SynthesisConfig,
    resolver: Resolver,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> SessionRun {
    let span = tr.enter("synthesize");
    let start = Instant::now();
    let run = session.synthesize(cfg, resolver);
    let scoring = session.scores().map_or(Duration::ZERO, |s| s.elapsed);
    tr.record_stages(
        start,
        &[
            ("graph", run.timings.graph.saturating_sub(scoring)),
            ("partition", run.timings.partition),
            ("conflict", run.timings.conflict),
        ],
    );
    tr.exit(span);
    *layers.entry("graph.edges").or_insert(0.0) += run.edges as f64;
    *layers.entry("partition.count").or_insert(0.0) += run.partitions as f64;
    run
}

/// Fill the lookup counters of the traced run.
pub fn record_reads(reads: &Reads, layers: &mut Layers) {
    layers.insert(
        "lookup.hit_frac",
        reads.hits as f64 / (reads.keys as f64).max(1.0),
    );
}

/// Milliseconds of a duration.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
