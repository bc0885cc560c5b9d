//! `mpc-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! mpc-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
//! mpc-benchmark compare <a.json> <b.json>
//! mpc-benchmark stability
//! mpc-benchmark manifest [--json]
//! ```

mod drive;
mod fixture;
mod json;
mod ladder;
mod metrics;
mod report;
mod rng;
mod run;
mod spans;
mod stats;
mod watchdog;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mpc-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
  mpc-benchmark compare <a.json> <b.json>
  mpc-benchmark stability
  mpc-benchmark manifest [--json]
workloads: lubm_hot lubm_cold watdiv_join lubm_update";

/// `--flag value` pairs after the subcommand; rejects unknown flags,
/// repeats and missing values.
fn flags(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "unknown argument `{flag}` (allowed: {})",
                allowed.join(" ")
            ));
        }
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("`{flag}` given twice"));
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn get<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(f, _)| f == name)
        .map(|(_, v)| v.as_str())
}

fn number<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match get(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("`{name} {v}` is not a valid number")),
    }
}

fn run_args(args: &[String]) -> Result<run::RunArgs, String> {
    let f = flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--out",
            "--spans",
        ],
    )?;
    let name = get(&f, "--workload").ok_or("`run` needs --workload")?;
    let workload = workload::Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seconds: f64 = number(&f, "--seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let trace = match get(&f, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(run::RunArgs {
        workload,
        seed: number(&f, "--seed", 1)?,
        seconds,
        trace,
        out: get(&f, "--out").map(PathBuf::from),
        spans: get(&f, "--spans").map(PathBuf::from),
    })
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (command, rest) = args.split_first().ok_or("no subcommand")?;
    match command.as_str() {
        "run" => Ok(run::run(&run_args(rest)?)),
        "compare" => match rest {
            [a, b] => Ok(report::compare(a.as_ref(), b.as_ref())),
            _ => Err("`compare` takes two result files".to_owned()),
        },
        "stability" => match rest {
            [] => Ok(report::stability()),
            _ => Err("`stability` takes no arguments".to_owned()),
        },
        "manifest" => match rest {
            [] => Ok(report::manifest(false)),
            [flag] if flag == "--json" => Ok(report::manifest(true)),
            _ => Err("`manifest` takes only --json".to_owned()),
        },
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Err(e) => {
            eprintln!("mpc-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
