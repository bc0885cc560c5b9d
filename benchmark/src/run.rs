//! One `run` invocation: set-up, warm-up, window, verification,
//! teardown — inside a wall-clock cap the run enforces on itself.

use crate::drive::{self, Tally, Window};
use crate::fixture::{self, Fixture, SetupTimes};
use crate::json::Json;
use crate::ladder;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_CAP_SECONDS};
use crate::stats;
use crate::workload::{Workload, K};
use mpc_obs::Recorder;
use mpc_server::Server;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` and `partition_s` are medians
/// over them, the last one serves the window. The driver's contract asks
/// for this ("set up several times in a run and report the median"): it
/// compares `setup_s` between two sets of runs, and one set-up of a
/// fraction of a second is too short to compare.
pub const SETUP_REPEATS: usize = 5;

/// Warm-up before the window opens: the clients first touch every pool
/// text once (cache fill, memo fill, lazy plan caches), then follow
/// their streams.
pub const WARMUP: Duration = Duration::from_secs(2);

/// How a traced run divides `--seconds`: a two-client window (server
/// counters), a one-client window (the TCP median the ladder must
/// reconcile with), then the in-process ladder.
const TRACED_WINDOW_SHARE: f64 = 0.35;
const TRACED_SINGLE_SHARE: f64 = 0.15;
const TRACED_LADDER_SHARE: f64 = 0.40;

/// The arguments of `run`.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub spans: Option<PathBuf>,
}

/// Wall seconds per phase, in order — the run's own budget table.
#[derive(Default)]
pub struct Phases(Vec<(&'static str, f64)>);

impl Phases {
    fn add(&mut self, name: &'static str, seconds: f64) {
        self.0.push((name, seconds));
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    fn total(&self) -> f64 {
        self.0.iter().map(|(_, s)| s).sum()
    }
}

/// What a run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Metrics in manifest order: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub phases: Phases,
    pub notes: Vec<String>,
    /// Triples of the workload's graph (a host fact of the result).
    pub triples: usize,
}

/// Facts about the host and inputs, printed with every result.
pub fn host_facts(args: &RunArgs, triples: usize) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let host_cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("host_cpus", Json::Num(host_cpus as f64)),
        ("git_rev", Json::str(git_rev())),
        ("triples", Json::Num(triples as f64)),
        ("k", Json::Num(K as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("clients", Json::Num(fixture::parallelism() as f64)),
        ("workers", Json::Num(fixture::parallelism() as f64)),
    ]
}

/// The checked-out revision, read from `.git` in the working directory
/// (the driver's checkout has none; then it is "unknown").
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.chars().take(12).collect()
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark may write: under the build directory, which is
/// inside the checkout and ignored by git.
pub fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    target.join("mpc-benchmark-tmp")
}

fn spawn_server(
    server: Server,
) -> std::thread::JoinHandle<std::io::Result<mpc_server::ServerSummary>> {
    std::thread::spawn(move || server.run())
}

fn setup_phases(phases: &mut Phases, t: &SetupTimes) {
    phases.add("generate", t.generate_s);
    phases.add("partition", t.partition_s);
    phases.add("build", t.build_s);
    phases.add("oracle", t.oracle_s);
}

/// The untraced run: every end-to-end metric.
fn measure(args: &RunArgs) -> Result<Outcome, String> {
    let mut phases = Phases::default();
    let mut notes = Vec::new();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut last: Option<(Fixture, Server)> = None;
    for _ in 0..SETUP_REPEATS {
        // Release the previous set-up before building the next, so that
        // repeating it does not raise the peak the run reports.
        drop(last.take());
        let built = fixture::setup(args.workload, false)?;
        setups.push(built.0.times);
        last = Some(built);
    }
    let (fx, server) = last.expect("at least one set-up");
    setup_phases(&mut phases, &fx.times);
    let earlier: f64 = setups[..setups.len() - 1]
        .iter()
        .map(SetupTimes::total_s)
        .sum();
    phases.add("(earlier set-ups)", earlier);

    let handle = spawn_server(server);
    let window = Window::opening_in(WARMUP, Duration::from_secs_f64(args.seconds));
    let t = Instant::now();
    let mut run = drive::run_window(&fx, args.seed, readers(args.workload), window);
    let gauges = if args.workload.has_writer() {
        let (gauges, tally) = drive::verify_after_commits(&fx, run.commits.last);
        run.tally.absorb(tally);
        gauges
    } else {
        drive::quiet_commits(&fx, &mut run);
        fx.gauges
    };
    phases.add("warm-up", WARMUP.as_secs_f64());
    phases.add("window", window.seconds());
    // Whatever the clients took beyond the window (the last reply, a
    // writer that fell behind) is charged to verification.
    let past_window = t.elapsed().as_secs_f64() - WARMUP.as_secs_f64() - window.seconds();
    phases.add("verify", past_window.max(0.0));

    let summary = phases.timed("teardown", || drive::shutdown(fx.addr, handle))?;
    let reads = drive::read_metrics(&run.samples, window.seconds())?;
    let gauges = gauges.ok_or("the quality gauges could not be read")?;
    if run.commits.latency_ms.len() != fx.batches.len() {
        return Err(format!(
            "{} of {} commits were acknowledged",
            run.commits.latency_ms.len(),
            fx.batches.len()
        ));
    }
    notes.push(format!(
        "reads: {} samples in the window, {} beyond the p99",
        reads.samples, reads.beyond_p99
    ));
    notes.push(format!(
        "rate in each eighth of the window: {}",
        reads
            .eighth_qps
            .iter()
            .map(|q| format!("{q:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "commits: n = {} ({}), writer lag p50 {:.3} ms",
        run.commits.latency_ms.len(),
        if args.workload.has_writer() {
            "paced beside the reads, timed from the due instant"
        } else {
            "to a quiet server after the window"
        },
        stats::median(&run.commits.lag_ms)
    ));
    notes.push(format!(
        "server: {} requests, {} rejected, queue high-water {}",
        summary.requests, summary.rejected, summary.queue_max_depth
    ));

    let values: BTreeMap<&str, f64> = [
        (
            "setup_s",
            stats::median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
        ),
        (
            "partition_s",
            stats::median(&setups.iter().map(|s| s.partition_s).collect::<Vec<_>>()),
        ),
        ("qps", reads.qps),
        ("latency_p50_ms", reads.p50_ms),
        ("latency_p99_ms", reads.p99_ms),
        ("commit_p50_ms", stats::median(&run.commits.latency_ms)),
        ("peak_rss_mb", peak_rss_mib()),
        ("crossing_properties", gauges.crossing_properties as f64),
        ("independent_share", gauges.independent_share),
    ]
    .into_iter()
    .collect();
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, values[m.name], m.unit))
        .collect();
    Ok(Outcome {
        tally: run.tally,
        metrics,
        phases,
        notes,
        triples: fx.graph.triple_count(),
    })
}

fn readers(w: Workload) -> usize {
    // The update workload's second connection is the writer.
    if w.has_writer() {
        1
    } else {
        fixture::parallelism()
    }
}

/// `snapshot::save` / `load` of the workload's dataset in a scratch
/// directory: (save seconds, load seconds, bytes per triple).
fn snapshot_probe(fx: &Fixture) -> Result<(f64, f64, f64), String> {
    let dir = scratch_root().join(format!("snapshot-{}", std::process::id()));
    let rec = Recorder::disabled();
    let t = Instant::now();
    let saved = mpc_snapshot::save(&dir, &fx.graph, &fx.partitioning, &rec)
        .map_err(|e| format!("snapshot save: {e}"));
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = saved.and_then(|s| {
        mpc_snapshot::load(&dir, &rec)
            .map(|l| (s, l))
            .map_err(|e| format!("snapshot load: {e}"))
    });
    let load_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let (saved, loaded) = loaded?;
    if loaded.bytes != saved.bytes {
        return Err("snapshot load read a different image than save wrote".to_owned());
    }
    Ok((
        save_s,
        load_s,
        saved.bytes as f64 / fx.graph.triple_count().max(1) as f64,
    ))
}

/// The traced run: every per-layer metric.
fn trace(args: &RunArgs) -> Result<Outcome, String> {
    let mut phases = Phases::default();
    let mut notes = Vec::new();
    let (fx, server) = fixture::setup(args.workload, true)?;
    setup_phases(&mut phases, &fx.times);

    let handle = spawn_server(server);
    let window = Window::opening_in(
        WARMUP,
        Duration::from_secs_f64(args.seconds * TRACED_WINDOW_SHARE),
    );
    let t = Instant::now();
    let mut run = drive::run_window(&fx, args.seed, readers(args.workload), window);
    phases.add("warm-up + window", t.elapsed().as_secs_f64());

    // The TCP median the ladder reconciles with comes from one client. On
    // `lubm_update` the window itself is one reader beside the writer; a
    // second window after the last commit would see a cache no epoch flip
    // strands any more, which is not what the ladder replays.
    let single_ms: Vec<f64> = if args.workload.has_writer() {
        run.samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    } else {
        let (latencies, tally) = phases.timed("1-client window", || {
            drive::single_client(
                &fx,
                args.seed,
                Duration::from_secs_f64(args.seconds * TRACED_SINGLE_SHARE),
            )
        });
        run.tally.absorb(tally);
        latencies
    };
    if !args.workload.has_writer() {
        phases.timed("quiet commits", || drive::quiet_commits(&fx, &mut run));
    }
    let summary = phases.timed("teardown", || drive::shutdown(fx.addr, handle))?;

    let ladder = phases.timed("ladder", || {
        ladder::run(
            &fx,
            args.seed,
            Duration::from_secs_f64(args.seconds * TRACED_LADDER_SHARE),
            run.samples.len() / fx.batches.len().max(1),
        )
    })?;
    let snapshot = if args.workload == Workload::LubmCold {
        phases.timed("snapshot", || snapshot_probe(&fx))?
    } else {
        (0.0, 0.0, 0.0)
    };

    let spans_path = args
        .spans
        .clone()
        .unwrap_or_else(|| scratch_root().join(format!("spans-{}.jsonl", args.workload.name())));
    phases.timed("write spans", || -> Result<(), String> {
        if let Some(dir) = spans_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(&spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        ladder
            .tracer
            .write_jsonl(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", spans_path.display()))
    })?;
    notes.push(format!(
        "spans: {} written to {}",
        ladder.tracer.spans().len(),
        spans_path.display()
    ));

    let tcp_p50_us = stats::median(&single_ms) * 1e3;
    let (hits, misses, evictions) = summary.shards.iter().fold((0, 0, 0), |(h, m, e), s| {
        (h + s.hits, m + s.misses, e + s.evictions)
    });
    notes.push(format!(
        "1-client TCP p50 {:.1} us over {} reads; in-process request p50 {:.1} us over {} ladder requests",
        tcp_p50_us,
        single_ms.len(),
        ladder.request_p50_us,
        ladder.metrics["ladder.requests"]
    ));

    let mut values: BTreeMap<&str, f64> = ladder.metrics.clone();
    values.extend([
        (
            "cluster.serve.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("cluster.serve.evictions", evictions as f64),
        ("server.transport_us", tcp_p50_us - ladder.request_p50_us),
        ("server.queue.max_depth", summary.queue_max_depth as f64),
        ("server.rejected", summary.rejected as f64),
        ("server.writer_lag_ms", stats::median(&run.commits.lag_ms)),
        ("core.mpc.select_s", fx.times.select_s),
        ("core.mpc.coarse_partition_s", fx.times.coarse_s),
        ("cluster.engine.build_s", fx.times.build_s),
        ("datagen.generate_s", fx.times.generate_s),
        ("snapshot.store.save_s", snapshot.0),
        ("snapshot.store.load_s", snapshot.1),
        ("snapshot.bytes_per_triple", snapshot.2),
        (
            "ladder.residual_ratio",
            (tcp_p50_us - ladder.request_p50_us) / tcp_p50_us.max(f64::MIN_POSITIVE),
        ),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            values
                .get(m.name)
                .map(|&v| (m.name, v, m.unit))
                .ok_or(format!("no value for {}", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Outcome {
        tally: run.tally,
        metrics,
        phases,
        notes,
        triples: fx.graph.triple_count(),
    })
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics`. A run is correct when nothing it attempted failed.
pub fn result_line(tally: &Tally, metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

/// A run that cannot report its metrics (out of time, too few reads, a
/// set-up error) still ends with a result line, one that says it failed.
fn print_failed_line() {
    let failed = Tally {
        attempted: 1,
        failed: 1,
        errors: Vec::new(),
    };
    println!("{}", result_line(&failed, &[]).render());
}

/// Runs, prints the phase table, the notes, every metric by name with
/// its unit, and last the result line. Returns the process exit code.
pub fn run(args: &RunArgs) -> i32 {
    let started = Instant::now();
    let watchdog = crate::watchdog::Watchdog::arm(Duration::from_secs(RUN_CAP_SECONDS), || {
        eprintln!("watchdog: the run exceeded its {RUN_CAP_SECONDS} s wall-clock cap");
        print_failed_line();
        std::process::exit(3);
    });
    let outcome = if args.trace {
        trace(args)
    } else {
        measure(args)
    };
    watchdog.disarm();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            print_failed_line();
            return 2;
        }
    };

    println!(
        "workload {}  seed {}  trace {}  window {} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let facts = host_facts(args, outcome.triples);
    println!(
        "host  {}",
        facts
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect::<Vec<_>>()
            .join("  ")
    );
    println!("phase                 wall s");
    for (name, s) in &outcome.phases.0 {
        println!("  {name:<20}{s:>8.3}");
    }
    println!(
        "  {:<20}{:>8.3}  (process {:.3}; cap {RUN_CAP_SECONDS})",
        "total",
        outcome.phases.total(),
        started.elapsed().as_secs_f64()
    );
    for note in &outcome.notes {
        println!("note  {note}");
    }
    for e in &outcome.tally.errors {
        println!("FAILED  {e}");
    }
    println!(
        "attempted {}  failed {}",
        outcome.tally.attempted, outcome.tally.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<36}{value:>16.4} {unit}");
    }

    let line = result_line(&outcome.tally, &outcome.metrics);
    if let Some(path) = &args.out {
        let Json::Obj(result) = line.clone() else {
            unreachable!("result_line builds an object")
        };
        let mut doc = vec![
            ("workload".to_owned(), Json::str(args.workload.name())),
            ("trace".to_owned(), Json::Bool(args.trace)),
            ("seconds".to_owned(), Json::Num(args.seconds)),
            ("host".to_owned(), Json::obj(facts)),
            (
                "phases".to_owned(),
                Json::obj(outcome.phases.0.iter().map(|&(n, s)| (n, Json::Num(s)))),
            ),
        ];
        doc.extend(result);
        if let Err(e) = std::fs::write(path, Json::Obj(doc).render() + "\n") {
            eprintln!("{}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", line.render());
    i32::from(outcome.tally.failed > 0)
}
