//! `mpc-bench` — regenerates the tables and figures of the MPC paper's
//! evaluation (Section VI), one experiment per artifact:
//!
//! ```text
//! mpc-bench              # list the experiments
//! mpc-bench <experiment> # run one
//! mpc-bench all          # run every experiment, in table order
//! ```
//!
//! The experiments are the rows of [`EXPERIMENTS`], one per table or
//! figure plus the extension studies; `mpc-bench` with no argument lists
//! them with what each reproduces.
//!
//! `MPC_BENCH_SCALE` (a positive float, default 1.0) shrinks or grows the
//! generated datasets; a value that is not one exits with code 2 before
//! anything runs. Each experiment prints its tables to stdout and writes
//! them to `<name>.txt` in `MPC_BENCH_OUT` (default `bench_results`),
//! replacing what an earlier run left there.

#![forbid(unsafe_code)]

mod datasets;
mod experiments;
mod harness;
mod report;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use std::{fs, io};

/// One reproducible artifact: its name (also the stem of its output
/// files), what it reproduces, and the function that regenerates it at a
/// dataset scale.
struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(f64) -> io::Result<()>,
}

/// Every experiment, in the order `mpc-bench all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table2",
        title: "Table II: crossing properties and crossing edges per method",
        run: experiments::table2::run,
    },
    Experiment {
        name: "table3",
        title: "Table III: percentage of IEQs",
        run: experiments::table3::run,
    },
    Experiment {
        name: "table4_5",
        title: "Tables IV & V: per-stage times (QDT/LET/JT)",
        run: experiments::stages::run,
    },
    Experiment {
        name: "fig7",
        title: "Fig. 7: benchmark query response times",
        run: experiments::fig7::run,
    },
    Experiment {
        name: "fig8",
        title: "Fig. 8: query-log five-number summaries",
        run: experiments::fig8::run,
    },
    Experiment {
        name: "table6",
        title: "Table VI: offline partitioning and loading times",
        run: experiments::table6::run,
    },
    Experiment {
        name: "fig9_10",
        title: "Figs. 9 & 10: offline and online scalability",
        run: experiments::scalability::run,
    },
    Experiment {
        name: "fig11",
        title: "Fig. 11: partitioning-agnostic (gStoreD-style) runs",
        run: experiments::fig11::run,
    },
    Experiment {
        name: "table7",
        title: "Table VII: greedy vs MPC-Exact",
        run: experiments::table7::run,
    },
    Experiment {
        name: "ablation_khop",
        title: "extension: k-hop replication trade-off",
        run: experiments::khop::run,
    },
    Experiment {
        name: "chaos_sweep",
        title: "extension: fault-injection resilience sweep",
        run: experiments::chaos::run,
    },
    Experiment {
        name: "run_report",
        title: "instrumented LUBM run, every timer and counter as JSON",
        run: experiments::runreport::run,
    },
];

fn usage() -> String {
    let mut text = String::from(
        "usage: mpc-bench <experiment> | all\n\
         env:   MPC_BENCH_SCALE (dataset scale, default 1.0), \
         MPC_BENCH_OUT (output directory, default bench_results)\n\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        let _ = writeln!(text, "  {:<18} {}", e.name, e.title);
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = matches!(args.as_slice(), [a] if a == "all");
    let selected: Vec<&Experiment> = match args.as_slice() {
        [] => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ if all => EXPERIMENTS.iter().collect(),
        [name] => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => vec![e],
            None => {
                eprint!("mpc-bench: unknown experiment {name:?}\n\n{}", usage());
                return ExitCode::from(2);
            }
        },
        _ => {
            eprint!("mpc-bench: expected one experiment name\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let raw = std::env::var_os("MPC_BENCH_SCALE").map(|v| v.to_string_lossy().into_owned());
    let scale = match datasets::parse_scale(raw.as_deref()) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("mpc-bench: {e}");
            return ExitCode::from(2);
        }
    };

    let t0 = Instant::now();
    if all {
        println!("MPC reproduction — full experiment sweep (scale={scale})\n");
    }
    for e in selected {
        if let Err(err) = run_one(e, scale) {
            eprintln!("mpc-bench: {}: {err}", e.name);
            return ExitCode::FAILURE;
        }
    }
    if all {
        println!(
            "\nAll experiments done in {:.1}s.",
            t0.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

/// Truncates the experiment's text output, then runs it: its sections
/// are appended one by one, so a second run replaces the first.
fn run_one(e: &Experiment, scale: f64) -> io::Result<()> {
    fs::File::create(report::results_dir()?.join(format!("{}.txt", e.name)))?;
    (e.run)(scale)
}
