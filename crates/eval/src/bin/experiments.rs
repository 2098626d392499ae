//! The `experiments` binary: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <subcommand> [--tables N] [--ent-tables N] [--seed S]
//!             [--workers W] [--feed F] [--out DIR]
//!
//! subcommands:
//!   all          run everything below in order
//!   comparison   Figures 7, 8, 14 (12-method comparison)
//!   scalability  Figure 9
//!   enterprise   Figures 10, 11
//!   conflict     Figure 15 + §5.6
//!   sensitivity  §5.4 parameter sweeps
//!   curation     §4.3 + Appendix J + Figures 12, 13 + Table 6
//!   expansion    Appendix I
//! ```

#![forbid(unsafe_code)]

use mapsynth_eval::experiments::{
    comparison, conflict, curation, enterprise, expansion, scalability, sensitivity, ExpConfig,
};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, cfg) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n\nusage: experiments <all|comparison|scalability|enterprise|conflict|sensitivity|curation|expansion> [--tables N] [--ent-tables N] [--seed S] [--workers W] [--feed F] [--out DIR]");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    match sub.as_str() {
        "all" => {
            comparison::run(&cfg);
            scalability::run(&cfg);
            enterprise::run(&cfg);
            conflict::run(&cfg);
            sensitivity::run(&cfg);
            curation::run(&cfg);
            expansion::run(&cfg);
        }
        "comparison" | "fig7" | "fig8" | "fig14" => {
            comparison::run(&cfg);
        }
        "scalability" | "fig9" => {
            scalability::run(&cfg);
        }
        "enterprise" | "fig10" | "fig11" => {
            enterprise::run(&cfg);
        }
        "conflict" | "fig15" => {
            conflict::run(&cfg);
        }
        "sensitivity" => sensitivity::run(&cfg),
        "curation" | "fig12" | "fig13" | "table6" => curation::run(&cfg),
        "expansion" => expansion::run(&cfg),
        other => {
            eprintln!("unknown subcommand: {other}");
            std::process::exit(2);
        }
    }
    eprintln!("[experiments] finished in {:.1?}", started.elapsed());
}

fn parse(args: &[String]) -> Result<(String, ExpConfig), String> {
    let mut cfg = ExpConfig::default();
    let mut sub = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tables" => {
                cfg.tables = next(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--tables: {e}"))?;
            }
            "--ent-tables" => {
                cfg.ent_tables = next(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--ent-tables: {e}"))?;
            }
            "--seed" => {
                cfg.seed = next(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workers" => {
                cfg.workers = next(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--feed" => {
                cfg.synonym_fraction = next(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--feed: {e}"))?;
            }
            "--out" => {
                cfg.out_dir = PathBuf::from(next(args, &mut i)?);
            }
            s if !s.starts_with("--") && sub.is_none() => {
                sub = Some(s.to_string());
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok((sub.ok_or("missing subcommand")?, cfg))
}

fn next<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} requires a value", args[*i - 1]))
}
