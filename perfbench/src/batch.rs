//! `batch-7k5`: the whole corpus → served-lookup path. 7,500 generated
//! tables are streamed through `prepare_streaming` with 2 workers,
//! synthesized and published as a snapshot; a slice of closed-loop
//! single-thread `lookup_many` batches (half hits, half misses) follows
//! each pass.

use crate::common::{self, Args, KeyPool, Outcome, Reads, StageMarks};
use crate::stats;
use crate::trace::{Layers, Tracer};
use mapsynth::pipeline::{PipelineConfig, Resolver, SessionRun, SynthesisSession};
use mapsynth_eval::{web_benchmark, BenchmarkCase};
use mapsynth_gen::{WebConfig, WebTableStream};
use mapsynth_serve::MappingService;
use std::time::{Duration, Instant};

pub const TABLES: usize = 7500;
pub const WORKERS: usize = 2;
/// Closed-loop read time after each pass.
const READ_SLICE: Duration = Duration::from_secs(1);
const MAX_PASSES: usize = 6;
const SETUP_REPS: usize = 5;
const POOL_KEYS: usize = 4096;

/// Counts committed in `BENCH_scale.json` for the 7,500-table point on
/// the default seed: candidates, edges, mappings, blocked pairs, memo
/// DP calls.
const COMMITTED: [(&str, usize); 5] = [
    ("candidates", 15122),
    ("edges", 215270),
    ("mappings", 6827),
    ("blocking_pairs", 413752),
    ("memo_dp_calls", 11931),
];

fn web_config(seed: u64) -> WebConfig {
    WebConfig {
        seed,
        ..mapsynth_bench::bench_config(TABLES)
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        workers: common::workers(WORKERS),
        ..Default::default()
    }
}

/// The per-pass input: a fresh table stream, plus the quality
/// benchmark drawn from its registry.
fn inputs(seed: u64) -> (WebTableStream, Vec<BenchmarkCase>) {
    let stream = WebTableStream::new(web_config(seed));
    let cases = web_benchmark(&stream.registry(), 80);
    (stream, cases)
}

/// One corpus → served-snapshot pass: first table pulled to snapshot
/// served.
fn pass(
    stream: &mut WebTableStream,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> (SynthesisSession, SessionRun, MappingService) {
    let span = tr.enter("pass");
    let mut session = SynthesisSession::new(pipeline_config());
    let mut marks = StageMarks::default();
    let prep = tr.enter("prepare");
    let start = Instant::now();
    session.prepare_streaming_with(stream, marks.probe());
    marks.finish(start, &session, tr, layers);
    tr.exit(prep);
    let cfg = session.config().synthesis;
    let run = common::synthesize(&session, &cfg, Resolver::Algorithm4, tr, layers);
    let service = MappingService::new();
    common::publish_full(&service, &run.mappings, tr);
    tr.exit(span);
    (session, run, service)
}

fn counts(session: &SynthesisSession, run: &SessionRun) -> [usize; 5] {
    let scores = session.scores().expect("prepared");
    [
        session.live_tables(),
        run.edges,
        run.mappings.len(),
        scores.blocking.pairs,
        scores.detail.memo.dp_calls,
    ]
}

fn check_counts(out: &mut Outcome, seed: u64, got: [usize; 5]) {
    if seed != common::DEFAULT_SEED {
        return;
    }
    for ((name, want), got) in COMMITTED.iter().zip(got) {
        out.check(got == *want, || {
            format!("{name}: {got} on the default seed, committed {want}")
        });
    }
}

/// One pass off the next prepared stream, timed.
fn timed_pass(
    streams: &mut Vec<(WebTableStream, Vec<BenchmarkCase>)>,
    seed: u64,
    tr: &mut Tracer,
) -> (f64, (SynthesisSession, SessionRun, MappingService)) {
    let (mut stream, _) = streams.pop().unwrap_or_else(|| inputs(seed));
    let t = Instant::now();
    let done = pass(&mut stream, tr, &mut Layers::new());
    (common::millis(t.elapsed()), done)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        streams.push(inputs(args.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let cases = streams[0].1.clone();

    // Passes, each followed by a read slice on the snapshot it served,
    // for about `--seconds`: reads and passes are spread over the whole
    // run rather than bunched at one end.
    let mut untraced = Tracer::new(false);
    let start = Instant::now();
    let (ms, mut last) = timed_pass(&mut streams, args.seed, &mut untraced);
    // The first pass's high-water mark: what one corpus → snapshot
    // pass needs in a fresh process.
    let peak = common::peak_rss_mb();
    let mut pass_ms = vec![ms];
    let mut digests = vec![common::mapping_digest(&last.1.mappings)];
    let pool = KeyPool::new(&last.1.mappings, args.seed, POOL_KEYS);
    let batches = pool.batches();
    let mut reads = Reads::default();
    loop {
        let until = Instant::now() + READ_SLICE;
        reads.absorb(common::closed_loop(
            &last.2,
            &batches,
            usize::MAX,
            Some(until),
            true,
            &mut untraced,
        ));
        // Stop at the cycle that ends closest to `--seconds`.
        let cycle = start.elapsed() / pass_ms.len() as u32;
        if start.elapsed() + cycle / 2 > Duration::from_secs_f64(args.seconds)
            || pass_ms.len() >= MAX_PASSES
        {
            break;
        }
        // The previous pass's state is dropped first, so every pass
        // starts from the same heap.
        drop(last);
        let (ms, next) = timed_pass(&mut streams, args.seed, &mut untraced);
        pass_ms.push(ms);
        digests.push(common::mapping_digest(&next.1.mappings));
        last = next;
    }
    let (session, run, _) = last;
    out.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("passes disagree: {digests:x?}")
    });
    check_counts(&mut out, args.seed, counts(&session, &run));
    drop(session);
    out.check(reads.wrong == 0, || {
        format!("{} lookup batches returned the wrong hits", reads.wrong)
    });
    let score = common::quality(&run.mappings, &cases);

    out.digest = digests[0];
    out.attempted += pass_ms.len() as u64 + reads.lat_us.len() as u64;
    out.metrics.insert("setup_s", stats::median(&setup));
    out.metrics.insert("peak_rss_mb", peak);
    out.metrics.insert("op_p50_ms", stats::median(&pass_ms));
    out.metrics
        .insert("op_p90_ms", stats::percentile(&pass_ms, 90.0));
    out.metrics.insert("lookup_qps", reads.qps());
    out.metrics.insert("quality_f", score.f);
    out.env
        .push(("workers", common::workers(WORKERS).to_string()));
    eprintln!(
        "batch-7k5: {} passes {:?} ms, {} mappings, F {:.3}, {:.0} keys/s",
        pass_ms.len(),
        pass_ms.iter().map(|m| m.round()).collect::<Vec<_>>(),
        run.mappings.len(),
        score.f,
        reads.qps()
    );
    out
}

/// The traced body: one pass and a fixed number of lookup batches.
pub fn traced(args: &Args, tr: &mut Tracer) -> (u64, Layers) {
    let (mut stream, _) = inputs(args.seed);
    let mut layers = Layers::new();
    let body = tr.enter("body");
    let (session, run, service) = pass(&mut stream, tr, &mut layers);
    drop(session);
    let pool = KeyPool::new(&run.mappings, args.seed, POOL_KEYS);
    let batches = pool.batches();
    let reads = common::closed_loop(
        &service,
        &batches,
        common::TRACED_LOOKUP_BATCHES,
        None,
        true,
        tr,
    );
    tr.exit(body);
    common::record_reads(&reads, &mut layers);
    (common::mapping_digest(&run.mappings), layers)
}
