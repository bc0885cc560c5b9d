//! The five subcommands.

use crate::args::Options;
use crate::{partfile, CliError};
use mpc_cluster::{
    classify as classify_query, CommitOptions, CommitReport, CrossingSet, DistributedEngine,
    EpochTransition, ExecMode, ExecRequest, FaultPlan, FaultSpec, NetworkModel, RequestSpec,
    RetryPolicy, ServeEngine, UpdateBatch,
};
use mpc_core::{
    MetisConfig, MinEdgeCutPartitioner, MpcConfig, MpcPartitioner, Partitioner,
    SubjectHashPartitioner,
};
use mpc_datagen::lubm::{self, LubmConfig};
use mpc_datagen::realistic::{generate as gen_real, RealisticConfig};
use mpc_datagen::watdiv::{self, WatdivConfig};
use mpc_obs::Recorder;
use mpc_rdf::{ntriples, turtle, RdfGraph, VertexId};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::time::Instant;
use mpc_rdf::narrow;

/// Loads a graph, picking the parser by file extension.
pub fn load_graph(path: &str) -> Result<RdfGraph, CliError> {
    let is_nt = path.ends_with(".nt") || path.ends_with(".ntriples");
    if is_nt {
        let file = File::open(path)
            .map_err(|e| CliError::new(format!("cannot open '{path}': {e}")))?;
        ntriples::parse_reader(BufReader::new(file))
            .map_err(|e| CliError::new(format!("{path}: {e}")))
    } else {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot open '{path}': {e}")))?;
        turtle::parse_str(&text).map_err(|e| CliError::new(format!("{path}: {e}")))
    }
}

/// `mpc generate`.
pub fn generate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse(args, &["dataset", "out", "scale", "seed", "format"])?;
    let dataset = o.required("dataset")?;
    let out_path = o.required("out")?;
    let scale: f64 = o.parse_or("scale", 1.0)?;
    let seed: u64 = o.parse_or("seed", 42)?;
    let graph = match dataset {
        "lubm" => {
            lubm::generate(&LubmConfig {
                universities: narrow::usize_from_f64(10.0 * scale).max(1),
                seed,
            })
            .graph
        }
        "watdiv" => {
            watdiv::generate(&WatdivConfig {
                scale: narrow::usize_from_f64(4000.0 * scale).max(50),
                seed,
            })
            .graph
        }
        "yago2" => gen_real(&RealisticConfig {
            seed,
            ..RealisticConfig::yago2_like().scaled(scale)
        }),
        "bio2rdf" => gen_real(&RealisticConfig {
            seed,
            ..RealisticConfig::bio2rdf_like().scaled(scale)
        }),
        "dbpedia" => gen_real(&RealisticConfig {
            seed,
            ..RealisticConfig::dbpedia_like().scaled(scale)
        }),
        "lgd" => gen_real(&RealisticConfig {
            seed,
            ..RealisticConfig::lgd_like().scaled(scale)
        }),
        other => {
            return Err(CliError::new(format!(
                "unknown dataset '{other}' (lubm|watdiv|yago2|bio2rdf|dbpedia|lgd)"
            )))
        }
    };
    let file = File::create(out_path)
        .map_err(|e| CliError::new(format!("cannot create '{out_path}': {e}")))?;
    let mut writer = BufWriter::new(file);
    match o.get("format").unwrap_or("nt") {
        "nt" => ntriples::write_graph(&graph, &mut writer)?,
        "ttl" => {
            let text = turtle::to_string(&graph, &[]);
            writer.write_all(text.as_bytes())?;
        }
        other => return Err(CliError::new(format!("unknown format '{other}' (nt|ttl)"))),
    }
    writer.flush()?;
    let s = graph.stats();
    writeln!(
        out,
        "wrote {}: {} vertices, {} triples, {} properties",
        out_path, s.vertices, s.triples, s.properties
    )?;
    Ok(())
}

/// `mpc stats`.
pub fn stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse(args, &["input", "properties"])?;
    let graph = load_graph(o.required("input")?)?;
    let top: usize = o.parse_or("properties", 10)?;
    let s = graph.stats();
    writeln!(out, "vertices:   {}", s.vertices)?;
    writeln!(out, "triples:    {}", s.triples)?;
    writeln!(out, "properties: {}", s.properties)?;
    let mut props: Vec<_> = graph
        .property_ids()
        .map(|p| (graph.property_frequency(p), p))
        .collect();
    props.sort_unstable_by_key(|&(f, _)| std::cmp::Reverse(f));
    let hist = graph.degree_histogram();
    let labels: Vec<String> = (0..hist.len())
        .map(|b| {
            if b == 0 {
                "0".to_owned()
            } else {
                format!("{}..{}", 1usize << (b - 1), (1usize << b) - 1)
            }
        })
        .collect();
    writeln!(out, "degree histogram (bucket: vertices):")?;
    for (label, count) in labels.iter().zip(&hist) {
        if *count > 0 {
            writeln!(out, "  {label:>12}: {count}")?;
        }
    }
    writeln!(out, "top {} properties by frequency:", top.min(props.len()))?;
    let dict = graph.dictionary();
    let named = dict.property_count() == graph.property_count();
    for &(f, p) in props.iter().take(top) {
        let label = if named {
            dict.property_iri(p).to_owned()
        } else {
            format!("{p}")
        };
        writeln!(out, "  {f:>10}  {label}")?;
    }
    Ok(())
}

fn mpc_config(k: usize, epsilon: f64, seed: u64, threads: Option<usize>) -> MpcConfig {
    MpcConfig {
        epsilon,
        metis: MetisConfig {
            seed,
            ..MetisConfig::default()
        },
        threads,
        ..MpcConfig::with_k(k)
    }
}

fn build_partitioner(
    method: &str,
    k: usize,
    epsilon: f64,
    seed: u64,
    threads: Option<usize>,
) -> Result<Box<dyn Partitioner>, CliError> {
    match method {
        "mpc" => Ok(Box::new(MpcPartitioner::new(mpc_config(
            k, epsilon, seed, threads,
        )))),
        "hash" => Ok(Box::new(SubjectHashPartitioner::new(k))),
        "metis" => Ok(Box::new(MinEdgeCutPartitioner {
            metis: MetisConfig {
                seed,
                ..MetisConfig::default()
            },
            ..MinEdgeCutPartitioner::new(k)
        })),
        other => Err(CliError::new(format!(
            "unknown method '{other}' (mpc|hash|metis)"
        ))),
    }
}

/// `mpc partition`.
pub fn partition(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse_with_flags(
        args,
        &["input", "out", "method", "k", "epsilon", "seed", "threads", "save"],
        &["profile", "verify"],
    )?;
    let graph = load_graph(o.required("input")?)?;
    let out_path = o.required("out")?;
    let k: usize = o.parse_or("k", 8)?;
    let epsilon: f64 = o.parse_or("epsilon", 0.1)?;
    let seed: u64 = o.parse_or("seed", MetisConfig::default().seed)?;
    let threads = o.get("threads").map(|_| o.parse_or("threads", 0)).transpose()?;
    let method = o.get("method").unwrap_or("mpc");
    let partitioner = build_partitioner(method, k, epsilon, seed, threads)?;
    let rec = if o.flag("profile") {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let t0 = Instant::now();
    let partitioning = if rec.is_enabled() && method == "mpc" {
        // The MPC pipeline has per-stage spans; baselines only get the
        // overall timer below.
        let mpc = MpcPartitioner::new(mpc_config(k, epsilon, seed, threads));
        mpc.partition_traced(&graph, &rec).0
    } else {
        let _total = rec.span("partition.total");
        partitioner.partition(&graph)
    };
    let took = t0.elapsed();
    if o.flag("verify") {
        // Structural invariants are hard requirements. The Definition 4.1
        // balance bound is not: it constrains the selection stage's WCC
        // cap, but coarse partitioning + uncoarsening only approximate it
        // on raw vertex counts, so imbalance is reported rather than
        // enforced (pass `Some(epsilon)` to `validate_partitioning` to
        // enforce it, as the core test-suite does for known-balanced
        // assignments).
        mpc_core::validate::validate_partitioning(&graph, &partitioning, None)
            .map_err(|v| CliError::new(format!("partition verification failed: {v}")))?;
        writeln!(
            out,
            "verified: vertex-disjointness and crossing-edge/property accounting hold \
             (measured imbalance {:.3}, \u{03b5}={epsilon})",
            partitioning.imbalance()
        )?;
    }
    let file = File::create(out_path)
        .map_err(|e| CliError::new(format!("cannot create '{out_path}': {e}")))?;
    let mut writer = BufWriter::new(file);
    partfile::write(&mut writer, &partitioning, &graph, partitioner.name())?;
    writer.flush()?;
    writeln!(
        out,
        "{} partitioned into k={k} in {:.2}s: |L_cross|={} |E^c|={} imbalance={:.3}",
        partitioner.name(),
        took.as_secs_f64(),
        partitioning.crossing_property_count(),
        partitioning.crossing_edge_count(),
        partitioning.imbalance()
    )?;
    writeln!(out, "saved to {out_path}")?;
    if let Some(dir) = o.get("save") {
        // Crash-safe persistent store (docs/PERSISTENCE.md): a new
        // generation becomes visible only when its MANIFEST lands.
        let report = mpc_snapshot::save(std::path::Path::new(dir), &graph, &partitioning, &rec)
            .map_err(|e| CliError::new(format!("snapshot save failed: {e}")))?;
        writeln!(
            out,
            "snapshot: saved gen-{:04} to {} ({} bytes)",
            report.generation,
            report.path.display(),
            report.bytes
        )?;
    }
    if rec.is_enabled() {
        writeln!(out, "\nprofile:")?;
        write!(out, "{}", rec.report().to_text())?;
    }
    Ok(())
}

/// Where a serving engine came from: a loaded snapshot generation or a
/// clean rebuild.
pub(crate) struct EngineSource {
    /// The graph the engine serves.
    pub graph: RdfGraph,
    /// The distributed engine itself.
    pub engine: DistributedEngine,
    /// Committed manifest generation when a snapshot answered — seeds
    /// the serve epoch so cached results can never alias a result
    /// computed before a restart against a different snapshot.
    pub generation: Option<u64>,
}

/// Resolves the engine for `mpc serve`/`mpc server`/`mpc update`. With
/// `--load DIR` the snapshot store answers first (itself falling back
/// generation by generation); if every generation is corrupt the
/// command falls back to a clean rebuild from `--input`/`--partitions`
/// — or fails with the typed snapshot error when those are absent.
/// Without `--load` it rebuilds directly.
///
/// Radius-1 engines come back with the live-update path armed
/// (docs/UPDATES.md): `INSERT DATA`/`DELETE DATA` can be committed
/// against them, with `--epsilon` as the balance slack for placing new
/// vertices. Radius > 1 engines serve queries only.
pub(crate) fn engine_source(
    o: &Options,
    radius: usize,
    rec: &Recorder,
    out: &mut dyn Write,
) -> Result<EngineSource, CliError> {
    let epsilon: f64 = o.parse_or("epsilon", 0.1)?;
    if let Some(dir) = o.get("load") {
        if radius != 1 {
            return Err(CliError::new(format!(
                "--load serves the snapshot's radius-1 fragments; --radius {radius} \
                 requires a rebuild (drop --load)"
            )));
        }
        match mpc_snapshot::load(std::path::Path::new(dir), rec) {
            Ok(loaded) => {
                let mpc_snapshot::SnapshotContents {
                    graph,
                    partitioning,
                    sites,
                    radius,
                } = loaded.contents;
                let sites: Vec<mpc_cluster::Site> = sites
                    .into_iter()
                    .map(|s| mpc_cluster::Site {
                        part: s.part,
                        store: s.store,
                        extended: s.extended,
                    })
                    .collect();
                let mut engine = DistributedEngine::from_sites(
                    sites,
                    &graph,
                    &partitioning,
                    NetworkModel::default(),
                    radius,
                );
                engine
                    .enable_updates(&graph, &partitioning, epsilon)
                    .map_err(|e| CliError::new(format!("cannot arm live updates: {e}")))?;
                writeln!(
                    out,
                    "snapshot: loaded gen-{:04} from {dir} ({} bytes)",
                    loaded.generation, loaded.bytes
                )?;
                return Ok(EngineSource {
                    graph,
                    engine,
                    generation: Some(loaded.generation),
                });
            }
            Err(e) => {
                // Never silently wrong: a corrupt store is reported, and
                // only a clean rebuild from the original inputs (when
                // they were passed) may answer in its place.
                if o.get("input").is_none() || o.get("partitions").is_none() {
                    return Err(CliError::new(format!(
                        "cannot load snapshot from '{dir}': {e}"
                    )));
                }
                rec.incr("snapshot.fallback");
                writeln!(
                    out,
                    "snapshot: load failed ({e}); rebuilding from --input/--partitions"
                )?;
            }
        }
    }
    let graph = load_graph(o.required("input")?)?;
    let partitioning = load_partitioning(o.required("partitions")?, &graph)?;
    let mut engine =
        DistributedEngine::build_with_radius(&graph, &partitioning, NetworkModel::default(), radius);
    if radius == 1 {
        engine
            .enable_updates(&graph, &partitioning, epsilon)
            .map_err(|e| CliError::new(format!("cannot arm live updates: {e}")))?;
    }
    Ok(EngineSource {
        graph,
        engine,
        generation: None,
    })
}

/// `mpc analyze` — runs the workspace lint engine (see
/// `docs/STATIC_ANALYSIS.md`) from the repository root. `--json` emits
/// the machine-readable document, `--baseline FILE` gates on findings
/// not in the committed baseline, and `--write-baseline FILE`
/// regenerates that baseline from the current tree.
pub fn analyze(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse_with_flags(args, &["root", "baseline", "write-baseline"], &["json"])?;
    let root = o.get("root").unwrap_or(".");
    let findings = mpc_analyze::lint_workspace(std::path::Path::new(root))
        .map_err(|e| CliError::new(format!("cannot scan '{root}': {e}")))?;
    if let Some(path) = o.get("write-baseline") {
        std::fs::write(path, mpc_analyze::json::render_json(&findings))
            .map_err(|e| CliError::new(format!("cannot write baseline '{path}': {e}")))?;
        writeln!(out, "wrote baseline {path} ({} finding(s))", findings.len())?;
        return Ok(());
    }
    if o.flag("json") {
        write!(out, "{}", mpc_analyze::json::render_json(&findings))?;
    } else {
        write!(out, "{}", mpc_analyze::render_report(&findings))?;
    }
    let gating: Vec<&mpc_analyze::Finding> = match o.get("baseline") {
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot read baseline '{path}': {e}")))?;
            let keys = mpc_analyze::json::parse_baseline(&doc).map_err(CliError::new)?;
            mpc_analyze::json::new_findings(&findings, &keys)
        }
        None => findings.iter().collect(),
    };
    if gating.is_empty() {
        Ok(())
    } else {
        Err(CliError::new(format!(
            "{} lint finding(s){}; see docs/STATIC_ANALYSIS.md for the rules \
             and the mpc-allow escape hatch",
            gating.len(),
            if o.get("baseline").is_some() { " not in baseline" } else { "" }
        )))
    }
}

fn load_query(path: &str, graph: &RdfGraph) -> Result<mpc_sparql::ResolvedPlan, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot open '{path}': {e}")))?;
    mpc_sparql::parse(&text)
        .map_err(|e| CliError::new(format!("{path}: {e}")))?
        .resolve(graph.dictionary())
        .map_err(|e| CliError::new(format!("{path}: {e}")))
}

pub(crate) fn load_partitioning(
    path: &str,
    graph: &RdfGraph,
) -> Result<mpc_core::Partitioning, CliError> {
    let file =
        File::open(path).map_err(|e| CliError::new(format!("cannot open '{path}': {e}")))?;
    partfile::read(&mut BufReader::new(file), graph)
}

/// `mpc classify`.
pub fn classify(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse(args, &["input", "partitions", "query"])?;
    let graph = load_graph(o.required("input")?)?;
    let partitioning = load_partitioning(o.required("partitions")?, &graph)?;
    let plan = load_query(o.required("query")?, &graph)?;
    let Some(query) = plan.as_bgp() else {
        writeln!(
            out,
            "query is not a single basic graph pattern; classification \
             applies per BGP leaf (run `mpc query` to evaluate it)"
        )?;
        return Ok(());
    };
    let crossing = CrossingSet(
        graph
            .property_ids()
            .map(|p| partitioning.is_crossing_property(p))
            .collect(),
    );
    let class = classify_query(query, &crossing);
    writeln!(out, "star:  {}", query.is_star())?;
    writeln!(out, "class: {class:?}")?;
    writeln!(
        out,
        "independently executable: {}",
        if class.is_ieq() { "yes (no inter-partition joins)" } else { "no (needs decomposition + joins)" }
    )?;
    Ok(())
}

/// `mpc explain`.
pub fn explain(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse(args, &["input", "query"])?;
    let graph = load_graph(o.required("input")?)?;
    let plan = load_query(o.required("query")?, &graph)?;
    let Some(query) = plan.as_bgp() else {
        writeln!(
            out,
            "query is not a single basic graph pattern; join-order \
             explanation applies per BGP leaf"
        )?;
        return Ok(());
    };
    let store = mpc_sparql::LocalStore::from_graph(&graph);
    let steps = mpc_sparql::explain(query, &store);
    write!(out, "{}", mpc_sparql::render_plan(query, &steps))?;
    Ok(())
}

pub(crate) fn parse_mode(value: Option<&str>) -> Result<ExecMode, CliError> {
    // One interpretation of the knob for every front end: the CLI, the
    // TCP server, and the bench harness all delegate here.
    RequestSpec::parse_mode(value)
        .map_err(|other| CliError::new(format!("unknown mode '{other}' (crossing|star)")))
}

/// Parses the `--chaos` option family into a [`FaultSpec`]
/// (docs/FAULT_TOLERANCE.md); `Ok(None)` when `--chaos` is absent.
fn chaos_spec(o: &Options) -> Result<Option<FaultSpec>, CliError> {
    let Some(spec) = o.get("chaos") else {
        if o.flag("strict") {
            return Err(CliError::new("--strict only applies with --chaos"));
        }
        return Ok(None);
    };
    let mut plan = FaultPlan::parse(spec).map_err(CliError::new)?;
    plan.seed = o.parse_or("seed", 42)?;
    let policy = RetryPolicy {
        max_retries: o.parse_or("retries", RetryPolicy::default().max_retries)?,
        deadline: std::time::Duration::from_millis(o.parse_or("deadline-ms", 500)?),
        ..RetryPolicy::default()
    };
    let replicas: usize = o.parse_or("replicas", 1)?;
    Ok(Some(FaultSpec {
        plan,
        policy,
        replicas,
        graceful: !o.flag("strict"),
    }))
}

/// Prints a finished result table: `?a\t?b` header, one row per line
/// (IRIs when the dictionary is full, `v{id}` otherwise; unbound
/// OPTIONAL cells render empty), truncated at `display_limit` with a
/// `… (N more rows)` marker.
fn write_rows(
    out: &mut dyn Write,
    dict: &mpc_rdf::Dictionary,
    var_names: &[String],
    result: &mpc_sparql::Bindings,
    display_limit: usize,
) -> Result<(), CliError> {
    let names: Vec<&str> = result
        .vars
        .iter()
        .map(|&v| var_names[v as usize].as_str())
        .collect();
    writeln!(out, "?{}", names.join("\t?"))?;
    // The caller passes the *live* dictionary (which grows with term
    // inserts), so a vertex committed a moment ago renders by name.
    let named = dict.vertex_count() > 0;
    for row in result.rows.iter().take(display_limit) {
        let cells: Vec<String> = row
            .iter()
            .map(|&v| {
                if v == mpc_sparql::UNBOUND {
                    String::new()
                } else if named {
                    dict.vertex_term(VertexId(v)).to_string()
                } else {
                    format!("v{v}")
                }
            })
            .collect();
        writeln!(out, "{}", cells.join("\t"))?;
    }
    if result.rows.len() > display_limit {
        writeln!(out, "… ({} more rows)", result.rows.len() - display_limit)?;
    }
    Ok(())
}

/// `mpc query`.
pub fn query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse_with_flags(
        args,
        &[
            "input",
            "partitions",
            "query",
            "mode",
            "radius",
            "limit",
            "chaos",
            "seed",
            "retries",
            "deadline-ms",
            "replicas",
            "threads",
        ],
        &["profile", "strict"],
    )?;
    let graph = load_graph(o.required("input")?)?;
    let partitioning = load_partitioning(o.required("partitions")?, &graph)?;
    let plan = load_query(o.required("query")?, &graph)?;
    let mode = parse_mode(o.get("mode"))?;
    let radius: usize = o.parse_or("radius", 1)?;
    let engine =
        DistributedEngine::build_with_radius(&graph, &partitioning, NetworkModel::default(), radius);
    // Every knob folds into one ExecRequest; the engine itself stays
    // untouched, so one binary can serve chaos and clean runs alike.
    let rec = if o.flag("profile") {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut req = ExecRequest::new().mode(mode).traced(&rec);
    if o.get("threads").is_some() {
        req = req.threads(o.parse_or("threads", 0)?);
    }
    let chaos = o.get("chaos").is_some();
    if let Some(fault) = chaos_spec(&o)? {
        req = req.fault(fault);
    }
    let outcome = engine
        .run_plan(&plan, &req, graph.dictionary())
        .map_err(|e| CliError::new(format!("query failed: {e}")))?;
    let (partial, stats_) = outcome.into_parts();
    let (result, complete, failed_sites) = (partial.rows, partial.complete, partial.failed_sites);
    let display_limit: usize = o.parse_or("limit", 20)?;
    write_rows(out, graph.dictionary(), &plan.var_names, &result, display_limit)?;
    writeln!(
        out,
        "\n{} rows; class={:?} independent={} subqueries={} \
         QDT={:.2}ms LET={:.2}ms JT={:.2}ms comm={}B total={:.2}ms",
        result.rows.len(),
        stats_.class,
        stats_.independent,
        stats_.subqueries,
        stats_.decomposition_time.as_secs_f64() * 1e3,
        stats_.local_eval_time.as_secs_f64() * 1e3,
        stats_.join_time.as_secs_f64() * 1e3,
        stats_.comm_bytes,
        stats_.total().as_secs_f64() * 1e3,
    )?;
    if chaos {
        // Every figure on this line is a deterministic function of
        // (--chaos spec, --seed, query): ci.sh runs the command twice and
        // diffs it to pin down reproducibility.
        let f = stats_.faults;
        writeln!(
            out,
            "chaos: complete={complete} failed_sites={failed_sites:?} attempts={} \
             retries={} failovers={} injected={} penalty={:.3}ms",
            f.attempts,
            f.retries,
            f.failovers,
            f.injected,
            f.penalty.as_secs_f64() * 1e3,
        )?;
    }
    if rec.is_enabled() {
        writeln!(out, "\nprofile:")?;
        write!(out, "{}", rec.report().to_text())?;
    }
    Ok(())
}

/// Prints the `[{idx}] rows=… fp=…` digest line for a finished result —
/// the exact format `mpc client` prints, so the two outputs diff clean
/// (ci.sh relies on that). The fingerprint is over the same
/// `mpc_cluster::wire` codec bytes the server sends in RESULT frames.
fn write_digest_line(
    out: &mut dyn Write,
    idx: usize,
    result: &mpc_sparql::Bindings,
) -> Result<(), CliError> {
    let bytes = mpc_cluster::wire::encode_bindings(result)
        .map_err(|e| CliError::new(format!("query {idx}: {e}")))?;
    writeln!(
        out,
        "[{idx}] rows={} fp=0x{:016x}",
        result.rows.len(),
        mpc_server::fingerprint(bytes.as_ref())
    )?;
    Ok(())
}

/// Serves one workload line: parse, resolve, execute through the cached
/// front end, print the result table plus a `[{idx}] rows=… cache=…`
/// status line — or, with `digest`, only the `[{idx}] rows=… fp=…` line
/// `mpc client` also prints. Returns the row count.
#[allow(clippy::too_many_arguments)] // few call sites, plain plumbing
fn serve_one(
    server: &ServeEngine,
    line: &str,
    idx: usize,
    dict: &mpc_rdf::Dictionary,
    req: &ExecRequest,
    rec: &Recorder,
    display_limit: usize,
    digest: bool,
    out: &mut dyn Write,
) -> Result<usize, CliError> {
    let plan = mpc_sparql::parse(line)
        .map_err(|e| CliError::new(format!("query {idx}: {e}")))?
        .resolve(dict)
        .map_err(|e| CliError::new(format!("query {idx}: {e}")))?;
    let hits_before = rec.counter("serve.cache.hit").unwrap_or(0);
    let outcome = server
        .serve_plan(&plan, req, dict)
        .map_err(|e| CliError::new(format!("query {idx} failed: {e}")))?;
    let hit = rec.counter("serve.cache.hit").unwrap_or(0) > hits_before;
    let (partial, _) = outcome.into_parts();
    let result = partial.rows;
    if digest {
        write_digest_line(out, idx, &result)?;
        return Ok(result.rows.len());
    }
    write_rows(out, dict, &plan.var_names, &result, display_limit)?;
    writeln!(
        out,
        "[{idx}] rows={} cache={}",
        result.rows.len(),
        if hit { "hit" } else { "miss" }
    )?;
    Ok(result.rows.len())
}

/// Commits one `INSERT DATA`/`DELETE DATA` line through the
/// transactional update path (docs/UPDATES.md) and prints the
/// `[{idx}] committed: …` status line.
fn commit_one(
    server: &mut ServeEngine,
    line: &str,
    idx: usize,
    opts: &CommitOptions,
    rec: &Recorder,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let data = mpc_sparql::parse_update(line)
        .map_err(|e| CliError::new(format!("update {idx}: {e}")))?;
    let batch = UpdateBatch::from_update_data(&data);
    let report = server
        .commit(&batch, opts, rec)
        .map_err(|e| CliError::new(format!("update {idx} failed: {e}")))?;
    writeln!(
        out,
        "[{idx}] committed: +{} -{} noops={} new_vertices={} crossing_properties={} epoch={}",
        report.inserted,
        report.deleted,
        report.insert_noops + report.delete_noops,
        report.new_vertices,
        report.crossing_properties,
        report.epoch,
    )?;
    Ok(())
}

/// `mpc serve` — the cached serving loop over the simulated cluster
/// (docs/SERVING.md). With `--queries FILE` it replays a workload file —
/// one SPARQL query or `INSERT DATA`/`DELETE DATA` update per
/// non-blank, non-`#` line; without it, the same format is read from
/// stdin as a line-per-query REPL. Updates commit transactionally
/// (docs/UPDATES.md) and flip the cache epoch. Everything except the
/// `time:` line is deterministic, so two replays of the same workload
/// diff clean (ci.sh relies on that).
pub fn serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse_with_flags(
        args,
        &[
            "input",
            "partitions",
            "load",
            "queries",
            "mode",
            "radius",
            "limit",
            "cache-entries",
            "threads",
            "chaos",
            "seed",
            "epsilon",
            "retries",
            "deadline-ms",
            "replicas",
        ],
        &["profile", "warm", "no-cache", "strict", "digest"],
    )?;
    let mode = parse_mode(o.get("mode"))?;
    let radius: usize = o.parse_or("radius", 1)?;
    let cache_entries: usize = o.parse_or("cache-entries", 256)?;
    let display_limit: usize = o.parse_or("limit", 20)?;
    // Always-on recorder: it drives the per-query hit markers and the
    // summary line; --profile additionally prints the full report.
    let rec = Recorder::enabled();
    let src = engine_source(&o, radius, &rec, out)?;
    let graph = src.graph;
    let mut server = ServeEngine::new(src.engine, cache_entries);
    if let Some(generation) = src.generation {
        // Seed the cache epoch from the manifest generation: a result
        // cached against snapshot gen N can never answer under gen M.
        server.transition(EpochTransition::Restore { generation });
    }
    let mut spec = RequestSpec::default().mode(mode).cached(!o.flag("no-cache"));
    if o.get("threads").is_some() {
        spec = spec.threads(o.parse_or("threads", 0)?);
    }
    let mut req = spec.to_request(&rec);
    if let Some(fault) = chaos_spec(&o)? {
        // Chaos requests pass through the front end uncached — this
        // exercises exactly the fault path docs/SERVING.md describes.
        req = req.fault(fault);
    }
    // REPL/workload commits stay in memory; `mpc update --save` is the
    // durable path (docs/UPDATES.md).
    let copts = CommitOptions::default();
    let batch = o
        .get("queries")
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot open '{path}': {e}")))
        })
        .transpose()?;
    if o.flag("warm") && batch.is_none() {
        return Err(CliError::new("--warm requires --queries (a replayable workload)"));
    }
    let digest = o.flag("digest");
    let t0 = Instant::now();
    let mut served = 0usize;
    let mut committed = 0usize;
    let mut total_rows = 0usize;
    if let Some(text) = batch {
        let workload: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        if o.flag("warm") {
            // Populate the cache with one untraced pass so the replay
            // below reports steady-state hit rates. Update lines must
            // not warm — committing them here would apply them twice.
            let warm_req = req.clone().traced(&Recorder::disabled());
            for line in workload.iter().filter(|l| !mpc_sparql::is_update(l)) {
                let plan = mpc_sparql::parse(line)
                    .map_err(|e| CliError::new(e.to_string()))?
                    .resolve(graph.dictionary())
                    .map_err(|e| CliError::new(e.to_string()))?;
                server
                    .serve_plan(&plan, &warm_req, graph.dictionary())
                    .map_err(|e| CliError::new(format!("warm-up failed: {e}")))?;
            }
        }
        for line in &workload {
            served += 1;
            if mpc_sparql::is_update(line) {
                commit_one(&mut server, line, served, &copts, &rec, out)?;
                committed += 1;
            } else {
                // Resolve against the live dictionary: a term interned
                // by an earlier commit is addressable by later queries.
                let dict = server
                    .engine()
                    .dictionary()
                    .unwrap_or_else(|| graph.dictionary());
                total_rows += serve_one(
                    &server, line, served, dict, &req, &rec, display_limit, digest, out,
                )?;
            }
        }
    } else {
        // REPL: parse/execution errors are reported and the loop keeps
        // going — an interactive session should survive a typo.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            served += 1;
            if mpc_sparql::is_update(line) {
                match commit_one(&mut server, line, served, &copts, &rec, out) {
                    Ok(()) => committed += 1,
                    Err(e) => writeln!(out, "[{served}] error: {e}")?,
                }
                continue;
            }
            let dict = server
                .engine()
                .dictionary()
                .unwrap_or_else(|| graph.dictionary());
            match serve_one(
                &server, line, served, dict, &req, &rec, display_limit, digest, out,
            ) {
                Ok(rows) => total_rows += rows,
                Err(e) => writeln!(out, "[{served}] error: {e}")?,
            }
        }
    }
    let c = |name: &str| rec.counter(name).unwrap_or(0);
    writeln!(
        out,
        "serve: queries={} updates={committed} rows={total_rows} cache_hits={} \
         cache_misses={} evictions={} plan_hits={} plan_misses={} entries={}/{} epoch={}",
        served - committed,
        c("serve.cache.hit"),
        c("serve.cache.miss"),
        c("serve.cache.evict"),
        c("serve.plan.hit"),
        c("serve.plan.miss"),
        server.cache_len(),
        server.cache_capacity(),
        server.epoch(),
    )?;
    writeln!(out, "time: {:.2}ms total", t0.elapsed().as_secs_f64() * 1e3)?;
    if o.flag("profile") {
        writeln!(out, "\nprofile:")?;
        write!(out, "{}", rec.report().to_text())?;
    }
    Ok(())
}

/// `mpc update` — apply one SPARQL Update request (`INSERT DATA` /
/// `DELETE DATA` clauses) transactionally against a dataset
/// (docs/UPDATES.md). The update text comes from `--updates FILE` or
/// inline via `--text '…'`. `--compact` folds the overlay into the base
/// runs after the commit; `--save DIR` writes a new snapshot generation
/// of the post-commit dataset, so a later `mpc serve --load DIR`
/// cold-starts into exactly what this command committed.
pub fn update(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let o = Options::parse_with_flags(
        args,
        &["input", "partitions", "load", "updates", "text", "epsilon", "save"],
        &["compact", "profile"],
    )?;
    let text = match (o.get("updates"), o.get("text")) {
        (Some(path), None) => std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot open '{path}': {e}")))?,
        (None, Some(inline)) => inline.to_owned(),
        (Some(_), Some(_)) => {
            return Err(CliError::new("--updates and --text are mutually exclusive"))
        }
        (None, None) => return Err(CliError::new("pass --updates FILE or --text 'INSERT DATA …'")),
    };
    let data = mpc_sparql::parse_update(&text).map_err(|e| CliError::new(e.to_string()))?;
    let batch = UpdateBatch::from_update_data(&data);
    let rec = Recorder::enabled();
    // Radius is pinned to 1: that is the only replication the
    // incremental partitioner maintains exactly.
    let src = engine_source(&o, 1, &rec, out)?;
    let mut server = ServeEngine::new(src.engine, 1);
    if let Some(generation) = src.generation {
        server.transition(EpochTransition::Restore { generation });
    }
    let copts = CommitOptions {
        compact: o.flag("compact"),
        snapshot_dir: o.get("save").map(std::path::PathBuf::from),
    };
    let report = server
        .commit(&batch, &copts, &rec)
        .map_err(|e| CliError::new(format!("commit failed: {e}")))?;
    // The update is durable from here on. A reader that stops listening
    // early (`mpc update … | grep -q`) must not turn it into a failed exit.
    let profile = o.flag("profile").then_some(&rec);
    match write_commit_report(out, &report, o.get("save"), profile) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        written => Ok(written?),
    }
}

/// The report lines `mpc update` prints after a successful commit.
fn write_commit_report(
    out: &mut dyn Write,
    report: &CommitReport,
    save: Option<&str>,
    profile: Option<&Recorder>,
) -> std::io::Result<()> {
    writeln!(
        out,
        "committed: +{} -{} noops={} new_vertices={} new_properties={} \
         crossing_properties={} crossing_edges={} epoch={}",
        report.inserted,
        report.deleted,
        report.insert_noops + report.delete_noops,
        report.new_vertices,
        report.new_properties,
        report.crossing_properties,
        report.crossing_edges,
        report.epoch,
    )?;
    if let Some(generation) = report.generation {
        writeln!(
            out,
            "snapshot: saved gen-{generation:04} to {}",
            save.unwrap_or_default()
        )?;
    }
    if let Some(rec) = profile {
        writeln!(out, "\nprofile:")?;
        write!(out, "{}", rec.report().to_text())?;
    }
    Ok(())
}
