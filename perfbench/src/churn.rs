//! `serve-churn`: a 200-table corpus behind
//! `DeltaIngestor::spawn_with_persistence` (per-record fsynced WAL, an
//! archive every 32 publishes, compaction threshold 0.05, one session
//! worker, a publish after every accepted delta), driven open-loop
//! from a fixed schedule — lookup batches at `LOOKUP_RATE`, row-patch
//! dominated deltas at `DELTA_RATE` — then a closed-loop burst that
//! keeps the queue full, then a kill and `recover`.
//!
//! One generator thread runs the merged schedule, so generator threads
//! plus the ingestor worker are two. Every operation is timed from its
//! scheduled time; how late the generator ran is reported beside it.

use crate::common::{self, Args, KeyPool, Outcome, Rng, StageMarks};
use crate::stats::{self, Digest};
use crate::trace::{Layers, Tracer};
use mapsynth::delta::{CorpusDelta, PortableTable};
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth::SynthesizedMapping;
use mapsynth_corpus::{Corpus, RowPatch, TableId};
use mapsynth_eval::web_benchmark_attested;
use mapsynth_gen::generate_web;
use mapsynth_gen::webgen::WebCorpus;
use mapsynth_serve::ingest::{
    DeltaIngestor, DeltaRequest, IngestorConfig, NoFaults, PatchSpec, TableSpec,
};
use mapsynth_serve::{recover, MappingService, PersistConfig, Persistence};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TABLES: usize = 200;
/// Open-loop lookup batches per second.
pub const LOOKUP_RATE: f64 = 1000.0;
/// Open-loop deltas per second.
pub const DELTA_RATE: f64 = 20.0;
/// Closed-loop burst deltas per second of `--seconds`.
pub const BURST_PER_SECOND: f64 = 16.0;
pub const QUEUE_DEPTH: usize = 16;
pub const ARCHIVE_EVERY: u64 = 32;
pub const COMPACT_THRESHOLD: f64 = 0.05;
pub const SESSION_WORKERS: usize = 1;
/// Share of `--seconds` given to the open-loop schedule.
const OPEN_SHARE: f64 = 0.75;
/// Open-loop / burst rounds per run: both phases sample the whole run,
/// not one end of it, so a slow spell of the machine weighs on each
/// alike.
const ROUNDS: usize = 4;
/// How long lookups may keep running after the schedule for the last
/// scheduled delta to become visible.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);
const BURST_LIMIT: Duration = Duration::from_secs(60);
/// Poll interval while the burst drains.
const POLL: Duration = Duration::from_micros(100);
const SETUP_REPS: usize = 5;
const POOL_KEYS: usize = 4096;
/// Closed-loop reads after each round, once the burst has drained.
const READ_SLICE: Duration = Duration::from_millis(750);

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        workers: SESSION_WORKERS,
        compact_threshold: COMPACT_THRESHOLD,
        ..Default::default()
    }
}

fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig {
        archive_every_publishes: ARCHIVE_EVERY,
        ..PersistConfig::new(dir)
    }
}

/// Deltas per round: `(open-loop, burst)`.
fn round_deltas(seconds: f64) -> (usize, usize) {
    let per_round = seconds / ROUNDS as f64;
    let open = (per_round * OPEN_SHARE * DELTA_RATE) as usize;
    let burst = (per_round * BURST_PER_SECOND) as usize;
    (open.max(1), burst.max(2))
}

struct ModelTable {
    domain: String,
    columns: Vec<(Option<String>, Vec<String>)>,
}

impl ModelTable {
    fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.1.len())
    }

    fn row(&self, r: usize) -> Vec<String> {
        self.columns.iter().map(|c| c.1[r].clone()).collect()
    }

    fn remove_row(&mut self, r: usize) {
        for c in &mut self.columns {
            c.1.remove(r);
        }
    }

    fn push_row(&mut self, row: &[String]) {
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.1.push(v.clone());
        }
    }
}

/// The generated inputs: the initial corpus (with its ground truth)
/// and the key-addressed request stream — per round, open-loop deltas
/// first, then the burst. Mostly single-row patches (delete, insert, edit, touch),
/// with a table removal or re-insertion of stashed content now and
/// then, like the stream tier of `pipeline_baseline`.
struct Plan {
    wc: WebCorpus,
    requests: Vec<DeltaRequest>,
    /// Open-loop and burst deltas per round.
    open: usize,
    burst: usize,
    /// Where in its lookup interval each open-loop delta is due, as a
    /// fraction: without it every delta would fall on a lookup tick and
    /// freshness would only take whole-interval values.
    phase: Vec<f64>,
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let (open, burst) = round_deltas(seconds);
    // The initial corpus is the fixed 200-table fixture of the stream
    // tier (generator seed 42); the seed draws everything that happens
    // to it. A corpus this small drawn per seed moves synthesis cost
    // and quality by a fifth between seeds.
    let wc = generate_web(&mapsynth_bench::bench_config(TABLES));
    let c = &wc.corpus;
    let mut model: HashMap<u64, ModelTable> = HashMap::new();
    for (i, t) in c.tables.iter().enumerate() {
        let columns = t
            .columns
            .iter()
            .map(|col| {
                (
                    col.header.map(|h| c.str_of(h).to_string()),
                    col.values
                        .iter()
                        .map(|&v| c.str_of(v).to_string())
                        .collect(),
                )
            })
            .collect();
        let domain = c.domain_names[t.domain.0 as usize].clone();
        model.insert(i as u64, ModelTable { domain, columns });
    }
    let mut alive: Vec<u64> = (0..c.len() as u64).collect();
    let mut next_key = c.len() as u64;
    let mut stash: VecDeque<ModelTable> = VecDeque::new();
    let mut rng = Rng::new(seed ^ 0xc4u64);
    let mut requests = Vec::new();
    for k in 0..ROUNDS * (open + burst) {
        let req = if k % 48 == 17 && alive.len() > TABLES / 2 {
            let key = alive.remove(rng.below(alive.len()));
            stash.push_back(model.remove(&key).expect("live key"));
            if stash.len() > 8 {
                stash.pop_front();
            }
            DeltaRequest {
                remove: vec![key],
                ..Default::default()
            }
        } else if k % 48 == 33 && !stash.is_empty() {
            let t = stash.pop_front().expect("non-empty stash");
            let key = next_key;
            next_key += 1;
            alive.push(key);
            let spec = TableSpec {
                key,
                domain: t.domain.clone(),
                columns: t.columns.clone(),
            };
            model.insert(key, t);
            DeltaRequest {
                add: vec![spec],
                ..Default::default()
            }
        } else {
            let key = alive[rng.below(alive.len())];
            let t = model.get_mut(&key).expect("live key");
            let n = t.rows();
            let (deleted, inserted) = match rng.below(4) {
                0 if n > 2 => {
                    let r = rng.below(n);
                    let row = t.row(r);
                    t.remove_row(r);
                    (vec![row], vec![])
                }
                2 if n > 0 => {
                    let r = rng.below(n);
                    let row = t.row(r);
                    let mut edited = row.clone();
                    let c = rng.below(edited.len());
                    edited[c] = format!("{} v{k}", edited[c]);
                    t.remove_row(r);
                    t.push_row(&edited);
                    (vec![row], vec![edited])
                }
                3 if n > 0 => {
                    let r = rng.below(n);
                    let row = t.row(r);
                    t.remove_row(r);
                    t.push_row(&row);
                    (vec![row.clone()], vec![row])
                }
                _ => {
                    let fresh: Vec<String> = (0..t.columns.len())
                        .map(|c| format!("stream row {k} col {c}"))
                        .collect();
                    t.push_row(&fresh);
                    (vec![], vec![fresh])
                }
            };
            DeltaRequest {
                patches: vec![PatchSpec {
                    key,
                    deleted,
                    inserted,
                }],
                ..Default::default()
            }
        };
        requests.push(req);
    }
    let phase = (0..requests.len())
        .map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    Plan {
        wc,
        requests,
        open,
        burst,
        phase,
    }
}

/// Digest of the live corpus: every live table in key order — key,
/// domain, headers and values.
fn corpus_digest(corpus: &Corpus, keys: &HashMap<u64, TableId>) -> u64 {
    let mut entries: Vec<(u64, TableId)> = keys.iter().map(|(&k, &t)| (k, t)).collect();
    entries.sort_unstable();
    let mut d = Digest::default();
    for (key, tid) in entries {
        let t = corpus.table(tid);
        d.u64(key).str(&corpus.domain_names[t.domain.0 as usize]);
        for col in &t.columns {
            d.str(col.header.map_or("", |h| corpus.str_of(h)));
            d.u64(col.values.len() as u64);
            for &v in &col.values {
                d.str(corpus.str_of(v));
            }
        }
    }
    d.finish()
}

/// What a reader observes for `keys`: each key's translations (never
/// mapping ids, which a rebuild may renumber), sorted.
fn observe(service: &MappingService, keys: &[&str]) -> u64 {
    let snap = service.snapshot();
    let mut d = Digest::default();
    for hit in snap.lookup_many(keys) {
        match hit {
            None => d.u64(0),
            Some(h) => {
                let mut t: Vec<&str> = h.translations().map(|(_, r)| r).collect();
                t.sort_unstable();
                d.u64(t.len() as u64 + 1);
                for r in t {
                    d.str(r);
                }
                &mut d
            }
        };
    }
    d.finish()
}

fn lefts(mappings: &[SynthesizedMapping]) -> Vec<String> {
    mappings
        .iter()
        .flat_map(|m| m.pair_strs().map(|(l, _)| l.to_string()))
        .collect()
}

/// Wait for `due`, yielding rather than sleeping: a generator that
/// sleeps between 1 ms ticks lets its vCPU halt, and the wake-up then
/// lands in the measured latency. The yield lets the ingestor's
/// freshly spawned map-reduce threads run here when they need to.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

struct Serving {
    plan: Plan,
    initial: Vec<SynthesizedMapping>,
    ingestor: DeltaIngestor,
    dir: PathBuf,
}

/// Set-up: generate the inputs, prepare and publish the initial
/// corpus, and start the persisted ingestor (which writes the base
/// archive before it serves).
fn set_up(args: &Args, dir: PathBuf) -> Serving {
    let mut plan = plan(args.seed, args.seconds);
    let corpus = std::mem::take(&mut plan.wc.corpus);
    let keys: Vec<u64> = (0..corpus.len() as u64).collect();
    let mut session = SynthesisSession::new(pipeline_config());
    session.prepare(&corpus);
    let cfg = session.config().synthesis;
    let initial = session.synthesize(&cfg, Resolver::Algorithm4).mappings;
    let service = Arc::new(MappingService::new());
    service.publish_delta(&initial);
    let persistence = Persistence::create(persist_config(&dir), 0).expect("persistence dir");
    let ingestor = DeltaIngestor::spawn_with_persistence(
        session,
        corpus,
        &keys,
        service,
        IngestorConfig {
            queue_depth: QUEUE_DEPTH,
            publish_every: 1,
            ..Default::default()
        },
        Box::new(NoFaults),
        Some(persistence),
    )
    .expect("valid ingestor config");
    Serving {
        plan,
        initial,
        ingestor,
        dir,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut serving: Option<Serving> = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = serving.take() {
            s.ingestor.shutdown();
            std::fs::remove_dir_all(&s.dir).ok();
        }
        let t = Instant::now();
        serving = Some(set_up(args, args.tmp.join(format!("serve-{rep}"))));
        setup.push(t.elapsed().as_secs_f64());
    }
    let Serving {
        plan,
        initial,
        ingestor,
        dir,
    } = serving.expect("at least one set-up");
    let service = Arc::clone(ingestor.service());
    let base = service.version();
    let pool = KeyPool::new(&initial, args.seed, POOL_KEYS);
    let batches = pool.batches();

    let mut open = OpenLoop::default();
    let mut burst = Burst::default();
    let mut reads = common::Reads::default();
    let mut off = Tracer::new(false);
    let round = plan.open + plan.burst;
    for r in 0..ROUNDS {
        let first = r * round;
        open.round(&ingestor, &plan, first..first + plan.open, base, &batches);
        burst.round(&ingestor, &plan, first + plan.open..first + round, base);
        let until = Instant::now() + READ_SLICE;
        reads.absorb(common::closed_loop(
            &service,
            &batches,
            usize::MAX,
            Some(until),
            false,
            &mut off,
        ));
    }
    let total = plan.requests.len() as u64;
    let fresh: Vec<f64> = open.fresh.iter().flatten().copied().collect();
    out.check(fresh.len() == open.fresh.len(), || {
        format!(
            "{} deltas never became visible",
            open.fresh.len() - fresh.len()
        )
    });
    out.check(open.unsustained.is_none(), || {
        open.unsustained.clone().unwrap_or_default()
    });
    out.check(!burst.unfinished, || {
        "burst did not finish publishing".into()
    });

    // Kill: a graceful shutdown leaves the bytes a kill would.
    let ingested = ingestor.shutdown();
    let st = ingested.stats;
    out.check(
        st.accepted == total && st.rejected == 0 && st.persist_errors == 0,
        || format!("ingest stats {st:?}"),
    );
    out.check(st.publishes_abandoned == 0, || "publishes abandoned".into());
    let t = Instant::now();
    let recovered = recover(&dir, pipeline_config(), Resolver::Algorithm4);
    let recover_ms = common::millis(t.elapsed());

    let cfg = ingested.session.config().synthesis;
    let last = ingested
        .session
        .synthesize(&cfg, Resolver::Algorithm4)
        .mappings;
    let last_digest = common::mapping_digest(&last);
    let mut probe: Vec<String> = pool.hits.iter().chain(&pool.misses).cloned().collect();
    probe.extend(lefts(&last));
    let probe: Vec<&str> = probe.iter().map(String::as_str).collect();

    let live = ingested.session.live_corpus(&ingested.corpus);
    let mut fresh_session = SynthesisSession::new(pipeline_config());
    fresh_session.prepare(&live);
    let oracle = fresh_session
        .synthesize(&cfg, Resolver::Algorithm4)
        .mappings;
    out.check(common::mapping_digest(&oracle) == last_digest, || {
        "post-stream session differs from a fresh prepare on the live corpus".into()
    });

    match &recovered {
        Ok(rec) => {
            out.check(
                observe(&rec.service, &probe) == observe(&service, &probe),
                || "recovered lookups differ from the uncrashed service's".into(),
            );
            out.check(rec.report.wal_halted.is_none(), || {
                format!("recovery halted: {:?}", rec.report.wal_halted)
            });
        }
        Err(e) => out.check(false, || format!("recovery failed: {e}")),
    }
    std::fs::remove_dir_all(&dir).ok();
    let cases = web_benchmark_attested(&plan.wc.registry, &plan.wc.emitted_pairs, 80);
    let score = common::quality(&last, &cases);

    out.digest = Digest::default()
        .u64(corpus_digest(&ingested.corpus, &ingested.key_of_table))
        .u64(last_digest)
        .finish();
    out.attempted += total + open.lat_us.len() as u64 + reads.lat_us.len() as u64;
    out.attempted += st.rejected + st.persist_errors + st.publishes_abandoned;
    out.metrics.insert("setup_s", stats::median(&setup));
    out.metrics.insert("peak_rss_mb", common::peak_rss_mb());
    out.metrics
        .insert("op_p50_ms", stats::median(&burst.gaps_ms));
    out.metrics
        .insert("op_p90_ms", stats::percentile(&burst.gaps_ms, 90.0));
    out.metrics.insert("lookup_qps", reads.qps());
    out.metrics.insert("quality_f", score.f);
    let late = stats::lateness_us(&open.due_ns, &open.start_ns);
    out.side
        .insert("serve.lookup_p50_us", stats::median(&open.lat_us));
    out.side
        .insert("serve.lookup_p99_us", stats::percentile(&open.lat_us, 99.0));
    out.side
        .insert("ingest.fresh_p50_ms", stats::median(&fresh));
    out.side
        .insert("ingest.fresh_p99_ms", stats::percentile(&fresh, 99.0));
    let burst_dps = burst.deltas as f64 / burst.seconds;
    out.side.insert("ingest.burst_dps", burst_dps);
    out.side.insert("recover.ms", recover_ms);
    out.side
        .insert("gen.late_p99_us", stats::percentile(&late, 99.0));
    out.side
        .insert("ingest.submit_blocked", open.blocked as f64);
    out.env
        .push(("session_workers", SESSION_WORKERS.to_string()));
    out.env.push(("ingestor_threads", "1".into()));
    out.env.push(("generator_threads", "1".into()));
    out.env.push(("wal_flush", "fsync per record".into()));
    out.env.push((
        "schedule",
        format!(
            "{ROUNDS} rounds of {} deltas at {DELTA_RATE}/s beside {LOOKUP_RATE} lookup batches/s, \
             then a burst of {} deltas; queue {QUEUE_DEPTH}",
            plan.open, plan.burst
        ),
    ));
    eprintln!(
        "serve-churn: {} open deltas, {} lookups (hit {:.2}), fresh p50 {:.1} ms, burst {:.0} d/s, \
         recover {:.0} ms, {} compactions, {} publishes, F {:.3}",
        ROUNDS * plan.open,
        open.lat_us.len(),
        open.hits as f64 / open.keys.max(1) as f64,
        stats::median(&fresh),
        burst_dps,
        recover_ms,
        st.compactions,
        st.publishes,
        score.f
    );
    out
}

/// The open-loop phase's record, over all rounds.
#[derive(Default)]
struct OpenLoop {
    /// Due and actual start of every operation, ns since its round
    /// began.
    due_ns: Vec<u64>,
    start_ns: Vec<u64>,
    /// Lookup batch latency from its due time, µs.
    lat_us: Vec<f64>,
    /// Freshness of each delta (`None`: never seen by a lookup).
    fresh: Vec<Option<f64>>,
    blocked: u64,
    hits: u64,
    keys: u64,
    unsustained: Option<String>,
}

impl OpenLoop {
    /// One round: the merged lookup and delta schedules on this thread,
    /// for the deltas `range`; lookups continue until the last of them
    /// is served (or `DRAIN_LIMIT` passes).
    fn round(
        &mut self,
        ingestor: &DeltaIngestor,
        plan: &Plan,
        range: std::ops::Range<usize>,
        base: u64,
        batches: &[Vec<&str>],
    ) {
        let service = ingestor.service();
        let seconds = range.len() as f64 / DELTA_RATE;
        let lookups_due = (seconds * LOOKUP_RATE) as usize;
        let last_version = base + range.end as u64;
        let mut lookups: Vec<(u64, u64)> = Vec::new(); // (start_ns, version)
        let mut deltas: Vec<(u64, u64)> = Vec::new(); // (due_ns, covering version)
        let t0 = Instant::now();
        let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
        let (mut i, mut k) = (0usize, range.start);
        loop {
            let next_lookup = Duration::from_secs_f64(i as f64 / LOOKUP_RATE);
            let next_delta = (k < range.end).then(|| {
                let j = (k - range.start) as f64 + plan.phase[k] * DELTA_RATE / LOOKUP_RATE;
                Duration::from_secs_f64(j / DELTA_RATE)
            });
            if let Some(next_delta) = next_delta.filter(|&d| d <= next_lookup) {
                let due = t0 + next_delta;
                wait_until(due);
                let started = Instant::now();
                let s = ingestor.stats();
                if s.submitted - s.accepted - s.rejected > QUEUE_DEPTH as u64 {
                    self.blocked += 1;
                }
                ingestor.submit(plan.requests[k].clone());
                self.due_ns.push(ns(due));
                self.start_ns.push(ns(started));
                deltas.push((ns(due), base + k as u64 + 1));
                k += 1;
                if k == range.end {
                    let s = ingestor.stats();
                    if s.submitted - s.accepted > QUEUE_DEPTH as u64 {
                        self.unsustained.get_or_insert(format!(
                            "unsustained: {} of {} deltas still queued when the schedule ended",
                            s.submitted - s.accepted,
                            s.submitted
                        ));
                    }
                }
                continue;
            }
            // Done once a lookup has seen the last delta of the round.
            let seen_last = lookups.last().is_some_and(|&(_, v)| v >= last_version);
            if i >= lookups_due && k == range.end && seen_last {
                break;
            }
            if i >= lookups_due && next_lookup > Duration::from_secs_f64(seconds) + DRAIN_LIMIT {
                self.unsustained.get_or_insert_with(|| {
                    "unsustained: the last scheduled delta was not served in time".to_string()
                });
                break;
            }
            let due = t0 + next_lookup;
            wait_until(due);
            let started = Instant::now();
            let snap = service.snapshot();
            let batch = &batches[i % batches.len()];
            let hits = snap
                .lookup_many(batch)
                .iter()
                .filter(|h| h.is_some())
                .count();
            let done = Instant::now();
            lookups.push((ns(started), snap.version()));
            self.lat_us
                .push(done.duration_since(due).as_secs_f64() * 1e6);
            self.due_ns.push(ns(due));
            self.start_ns.push(ns(started));
            self.hits += hits as u64;
            self.keys += batch.len() as u64;
            i += 1;
        }
        self.fresh.extend(stats::freshness_ms(&deltas, &lookups));
    }
}

/// The closed-loop burst's record, over all rounds.
#[derive(Default)]
struct Burst {
    /// Gap between consecutive publishes while the queue was full, ms.
    gaps_ms: Vec<f64>,
    deltas: usize,
    seconds: f64,
    /// A round gave up waiting for its last publish.
    unfinished: bool,
}

impl Burst {
    /// Keep the queue full with the deltas `range` without blocking on
    /// it, and note when each new version appears — back to back, the
    /// gap between two publishes is one delta's apply → WAL →
    /// synthesize → publish (→ archive, when due).
    fn round(
        &mut self,
        ingestor: &DeltaIngestor,
        plan: &Plan,
        range: std::ops::Range<usize>,
        base: u64,
    ) {
        let service = ingestor.service();
        let target = base + range.end as u64;
        let start = Instant::now();
        let (mut next, mut seen) = (range.start, service.version());
        let mut published: Vec<Instant> = Vec::new();
        while seen < target && start.elapsed() < BURST_LIMIT {
            let s = ingestor.stats();
            if next < range.end && s.submitted - s.accepted - s.rejected < QUEUE_DEPTH as u64 {
                ingestor.submit(plan.requests[next].clone());
                next += 1;
                continue;
            }
            let v = service.version();
            if v > seen {
                let now = Instant::now();
                published.extend((seen..v).map(|_| now));
                seen = v;
            } else {
                // Poll, don't spin: the CPU belongs to the worker.
                std::thread::sleep(POLL);
            }
        }
        self.seconds += start.elapsed().as_secs_f64();
        self.deltas += range.len();
        self.unfinished |= seen < target;
        self.gaps_ms
            .extend(published.windows(2).map(|w| common::millis(w[1] - w[0])));
    }
}

fn portable(corpus: &Corpus, keys: &HashMap<u64, TableId>) -> Vec<PortableTable> {
    let mut entries: Vec<(u64, TableId)> = keys.iter().map(|(&k, &t)| (k, t)).collect();
    entries.sort_by_key(|&(_, t)| t.0);
    entries
        .into_iter()
        .map(|(key, tid)| {
            let t = corpus.table(tid);
            PortableTable {
                key,
                domain: corpus.domain_names[t.domain.0 as usize].clone(),
                columns: t
                    .columns
                    .iter()
                    .map(|c| {
                        (
                            c.header.map(|h| corpus.str_of(h).to_string()),
                            c.values
                                .iter()
                                .map(|&v| corpus.str_of(v).to_string())
                                .collect(),
                        )
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Resolve a key-addressed request and evolve the corpus the way the
/// ingestion worker does (patches, then appended tables), then apply
/// the delta to the session.
fn apply(
    session: &mut SynthesisSession,
    corpus: &mut Corpus,
    keys: &mut HashMap<u64, TableId>,
    req: &DeltaRequest,
) -> Result<(), String> {
    let removed = req.remove.iter().map(|k| keys[k]).collect();
    let patches: Vec<RowPatch> = req
        .patches
        .iter()
        .map(|p| RowPatch {
            table: keys[&p.key],
            deleted: p.deleted.clone(),
            inserted: p.inserted.clone(),
        })
        .collect();
    for p in &patches {
        corpus.apply_row_patch(p);
    }
    let mut added = Vec::new();
    for t in &req.add {
        let d = corpus.domain(&t.domain);
        let cols = t
            .columns
            .iter()
            .map(|(h, vs)| (h.as_deref(), vs.iter().map(String::as_str).collect()))
            .collect();
        let tid = corpus.push_table(d, cols);
        keys.insert(t.key, tid);
        added.push(tid);
    }
    for k in &req.remove {
        keys.remove(k);
    }
    session
        .apply_delta(
            corpus,
            &CorpusDelta {
                added,
                removed,
                patches,
            },
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Compaction renumbers live tables densely in their old order; keep
/// the key map in step.
fn compact(session: &mut SynthesisSession, corpus: &mut Corpus, keys: &mut HashMap<u64, TableId>) {
    *corpus = session.compact(corpus);
    let mut entries: Vec<(u64, TableId)> = keys.drain().collect();
    entries.sort_by_key(|&(_, t)| t.0);
    for (i, (key, _)) in entries.into_iter().enumerate() {
        keys.insert(key, TableId(i as u32));
    }
}

/// The traced body: the same request stream replayed synchronously
/// through the public calls the ingestion worker makes — apply, WAL
/// append, compaction when due, synthesize, delta publish, archive
/// when due — then `recover` and a fixed number of lookup batches.
pub fn traced(args: &Args, tr: &mut Tracer) -> Result<(u64, Layers), String> {
    let mut plan = plan(args.seed, args.seconds);
    let dir = args.tmp.join(if tr.enabled() {
        "replay-traced"
    } else {
        "replay"
    });
    let mut layers = Layers::new();
    let body = tr.enter("body");
    let mut corpus = std::mem::take(&mut plan.wc.corpus);
    let mut keys: HashMap<u64, TableId> = (0..corpus.len())
        .map(|i| (i as u64, TableId(i as u32)))
        .collect();
    let mut session = SynthesisSession::new(pipeline_config());
    let mut marks = StageMarks::default();
    let prep = tr.enter("prepare");
    let start = Instant::now();
    session.prepare_with(&corpus, marks.probe());
    marks.finish(start, &session, tr, &mut layers);
    tr.exit(prep);
    let cfg = session.config().synthesis;
    let mut run = common::synthesize(&session, &cfg, Resolver::Algorithm4, tr, &mut layers);
    let service = MappingService::new();
    let span = tr.enter("publish.delta");
    service.publish_delta(&run.mappings);
    tr.exit(span);
    let mut persistence =
        Persistence::create(persist_config(&dir), 0).map_err(|e| e.to_string())?;
    let span = tr.enter("archive.write");
    persistence
        .write_archive(&service.snapshot(), &portable(&corpus, &keys))
        .map_err(|e| e.to_string())?;
    tr.exit(span);

    let (mut compactions, mut rebuilt, mut publishes) = (0u64, 0u64, 0u64);
    for (seq, req) in plan.requests.iter().enumerate() {
        tr.req = seq as u64 + 1;
        let span = tr.enter("delta");
        let s = tr.enter("delta.apply");
        apply(&mut session, &mut corpus, &mut keys, req)?;
        tr.exit(s);
        let s = tr.enter("wal.append");
        persistence
            .record_accepted(req)
            .map_err(|e| e.to_string())?;
        tr.exit(s);
        if session.compaction_due() {
            let s = tr.enter("delta.compact");
            compact(&mut session, &mut corpus, &mut keys);
            tr.exit(s);
            compactions += 1;
        }
        run = common::synthesize(&session, &cfg, Resolver::Algorithm4, tr, &mut layers);
        let s = tr.enter("publish.delta");
        let (_, stats) = service.publish_delta(&run.mappings);
        tr.exit(s);
        rebuilt += stats.rebuilt_shards as u64;
        publishes += 1;
        if persistence.archive_due() {
            let s = tr.enter("archive.write");
            persistence
                .write_archive(&service.snapshot(), &portable(&corpus, &keys))
                .map_err(|e| e.to_string())?;
            tr.exit(s);
        }
        tr.exit(span);
    }
    tr.req = 0;
    let span = tr.enter("recover");
    let rec = recover(&dir, pipeline_config(), Resolver::Algorithm4).map_err(|e| e.to_string())?;
    tr.exit(span);
    let pool = KeyPool::new(&run.mappings, args.seed, POOL_KEYS);
    let batches = pool.batches();
    let reads = common::closed_loop(
        &service,
        &batches,
        common::TRACED_LOOKUP_BATCHES,
        None,
        false,
        tr,
    );
    tr.exit(body);
    std::fs::remove_dir_all(&dir).ok();

    common::record_reads(&reads, &mut layers);
    layers.insert("delta.compactions", compactions as f64);
    layers.insert(
        "publish.rebuilt_shards",
        rebuilt as f64 / publishes.max(1) as f64,
    );
    layers.insert("recover.replayed", rec.report.wal_replayed as f64);
    let digest = Digest::default()
        .u64(corpus_digest(&corpus, &keys))
        .u64(common::mapping_digest(&run.mappings))
        .finish();
    Ok((digest, layers))
}
