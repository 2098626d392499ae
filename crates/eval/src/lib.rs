//! # mapsynth-eval
//!
//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation (§5 and appendices) on the synthetic corpora.
//!
//! * [`benchmark`] — the 80-case web benchmark and 30-case enterprise
//!   benchmark, built from the generator's ground-truth registry;
//! * [`metrics`] — precision / recall / F-score with the paper's
//!   best-relationship-per-case selection;
//! * [`methods`] — uniform runner for Synthesis and all eleven
//!   comparison methods over one shared prepared corpus;
//! * [`experiments`] — one driver per figure (7, 8, 9, 10, 11, 12, 13,
//!   14, 15), plus the §5.4 sensitivity sweeps, §4.3/Appendix J
//!   curation analysis, Table 6 synonym listing and Appendix I
//!   expansion study;
//! * [`report`] — aligned text tables and CSV output.
//!
//! Run everything with the `experiments` binary:
//! `cargo run --release -p mapsynth-eval --bin experiments -- all`
//!
//! This crate measures synthesis *quality*; synthesis *and serving*
//! performance baselines (stage timings, lookup QPS through
//! `mapsynth-serve`) are recorded by `mapsynth-bench`'s
//! `pipeline_baseline` binary into `BENCH_pipeline.json` — schema in
//! `crates/bench/README.md`.

#![forbid(unsafe_code)]

pub mod benchmark;
pub mod experiments;
pub mod methods;
pub mod metrics;
pub mod report;

pub use benchmark::{enterprise_benchmark, web_benchmark, web_benchmark_attested, BenchmarkCase};
pub use methods::{Method, MethodRun, PreparedWeb};
pub use metrics::{score_sets, ResultScorer, Score};
