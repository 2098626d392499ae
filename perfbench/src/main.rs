//! One benchmark process: `perfbench --workload <name> --seed <n>
//! --seconds <s> --tmp <dir> [--body on|off [--spans <file>]]`.
//!
//! Without `--body` it runs the workload, checks its outputs and prints
//! the end-to-end metrics. With `--body on` it runs the workload's
//! traced body with the span recorder on and prints the per-layer
//! metrics; `--body off` runs the same body with the recorder off, for
//! the overhead. Each prints its output digest, which must equal the
//! untraced run's. The last stdout line is one JSON object; `run.py`
//! turns it into the benchmark's result line.

mod batch;
mod churn;
mod common;
mod stats;
mod sweep;
mod trace;

use common::{Args, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Layers, Tracer};

const WORKLOADS: [&str; 3] = ["batch-7k5", "paper-sweep", "serve-churn"];

struct Cli {
    workload: String,
    args: Args,
    /// `Some(recorder on?)`: run the traced body instead of the workload.
    body: Option<bool>,
    spans: Option<PathBuf>,
}

fn parse() -> Result<Cli, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut tmp) = (None, None, None, None);
    let (mut body, mut spans) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--tmp" => tmp = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--body" => {
                body = match value()?.as_str() {
                    "on" => Some(true),
                    "off" => Some(false),
                    v => return Err(format!("--body: {v} is not on/off")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Cli {
        workload,
        args: Args {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            tmp: tmp.ok_or("--tmp is required")?,
        },
        body,
        spans,
    })
}

fn untraced(cli: &Cli) -> Outcome {
    match cli.workload.as_str() {
        "batch-7k5" => batch::run(&cli.args),
        "paper-sweep" => sweep::run(&cli.args),
        _ => churn::run(&cli.args),
    }
}

fn traced_body(cli: &Cli, tr: &mut Tracer) -> Result<(u64, Layers), String> {
    match cli.workload.as_str() {
        "batch-7k5" => Ok(batch::traced(&cli.args, tr)),
        "paper-sweep" => Ok(sweep::traced(&cli.args, tr)),
        _ => churn::traced(&cli.args, tr),
    }
}

/// Run the workload's traced body once, recorder on or off (each in
/// its own fresh process, so peak-RSS readings are the body's own); the
/// overhead is the difference of the two bodies' wall times.
fn traced(cli: &Cli, record: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(record);
    let t = Instant::now();
    let body = traced_body(cli, &mut tr);
    let body_ms = common::millis(t.elapsed());
    let (digest, counts) = match body {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || format!("traced body failed: {e}"));
            return out;
        }
    };
    out.attempted += 1;
    out.digest = digest;
    out.side.insert("body_ms", body_ms);
    if record {
        out.metrics = tr.layer_times();
        out.metrics.extend(counts);
        if let Some(path) = &cli.spans {
            let run_id = format!("{}-{}-{}", cli.workload, cli.args.seed, std::process::id());
            if let Err(e) = tr.write_jsonl(path, &run_id) {
                out.check(false, || format!("writing spans: {e}"));
            }
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_map(m: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            // JSON has no NaN/inf; run.py refuses the null a metric
            // that is not finite becomes.
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("{}:{v}", json_str(k))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match cli.body {
        Some(record) => traced(&cli, record),
        None => untraced(&cli),
    };
    out.env.push(("nproc", common::nproc().to_string()));
    let env: Vec<String> = out
        .env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{{\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{},\"side\":{},\"env\":{{{}}}}}",
        out.digest,
        out.attempted.max(1),
        out.failures.len(),
        failures.join(","),
        json_map(&out.metrics),
        json_map(&out.side),
        env.join(",")
    );
}
