//! End-to-end server tests: the happy path, every wire-protocol edge
//! case ISSUE 6 names (oversized frame, truncated frame, disconnect
//! while queued, backpressure), graceful drain — and the proptest that
//! concurrent replay of a shuffled workload is byte-identical to a
//! sequential replay.

#![allow(clippy::unwrap_used)] // test code: panicking on bad setup is the failure mode

use mpc_cluster::{DistributedEngine, ExecRequest, NetworkModel, ServeEngine};
use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
use mpc_datagen::lubm::{generate, LubmConfig};
use mpc_obs::Recorder;
use mpc_rdf::RdfGraph;
use mpc_server::{
    digest_result_bytes, fingerprint, proto, replay, Client, ClientError, Frame, RequestOpts,
    ResultDigest, Server, ServerConfig, ServerSummary,
};
use mpc_sparql::{eval_plan_local, parse, LocalStore};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;

/// Workload queries over the shared LUBM graph: repeats, a respelling
/// (q0/q1 share a canonical form), a distinct star, a query whose
/// constant is absent from the dictionary (provably empty), and one of
/// each non-BGP operator form (OPTIONAL / UNION / ORDER BY).
const QUERIES: &[&str] = &[
    "SELECT ?x ?y WHERE { ?x <urn:p:8> ?y . ?y <urn:p:13> ?z }",
    "SELECT ?a ?b WHERE { ?b <urn:p:13> ?c . ?a <urn:p:8> ?b }",
    "SELECT ?x WHERE { ?x <urn:p:0> ?y }",
    "SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } LIMIT 5",
    "SELECT ?x WHERE { ?x <urn:p:0> <urn:u0:nosuchterm> }",
    "SELECT ?x ?z WHERE { ?x <urn:p:8> ?y OPTIONAL { ?y <urn:p:13> ?z } }",
    "SELECT ?x WHERE { { ?x <urn:p:8> ?y } UNION { ?x <urn:p:13> ?y } }",
    "SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } ORDER BY DESC(?y) LIMIT 7",
];

fn graph() -> &'static RdfGraph {
    static GRAPH: OnceLock<RdfGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        // The generator emits raw id triples; round-tripping through
        // N-Triples gives the dictionary the `<urn:v:N>`/`<urn:p:N>`
        // terms the SPARQL layer resolves against — the same shape the
        // CLI pipeline (generate → load) produces.
        let raw = generate(&LubmConfig {
            universities: 1,
            seed: 42,
        })
        .graph;
        mpc_rdf::ntriples::parse_str(&mpc_rdf::ntriples::to_string(&raw)).unwrap()
    })
}

fn serve_engine(shards: usize) -> ServeEngine {
    let g = graph();
    let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(g);
    let engine = DistributedEngine::build(g, &part, NetworkModel::free());
    ServeEngine::with_shards(engine, 64, shards)
}

/// Starts a server on an OS-assigned port; the handle yields the
/// post-drain summary.
fn start_server(cfg: ServerConfig) -> (SocketAddr, JoinHandle<ServerSummary>) {
    let server = Server::bind(
        "127.0.0.1:0",
        graph().clone(),
        serve_engine(4),
        cfg,
        Recorder::enabled(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

fn shutdown(addr: SocketAddr) {
    Client::connect(addr).unwrap().shutdown_server().unwrap();
}

/// The ground truth a correct server must reproduce: a fresh in-process
/// serving engine run per query (so the wire stack — framing, queueing,
/// workers, caching — must be byte-transparent), cross-checked against
/// centralized plan evaluation as a row multiset (row *order* after a
/// distributed merge legitimately differs from the centralized order,
/// and LIMIT then picks order-dependent rows).
fn reference_digests() -> Vec<ResultDigest> {
    let g = graph();
    let store = LocalStore::from_graph(g);
    let serve = serve_engine(1);
    let req = ExecRequest::new().cached(false);
    QUERIES
        .iter()
        .map(|text| {
            let plan = parse(text).unwrap().resolve(g.dictionary()).unwrap();
            let outcome = serve.serve_plan(&plan, &req, g.dictionary()).unwrap();
            let result = outcome.into_parts().0.rows;
            if !text.contains("LIMIT") {
                let central = eval_plan_local(&plan, &store, g.dictionary());
                let mut got = result.rows.clone();
                let mut want = central.rows;
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "served rows diverge from centralized: {text}");
            }
            let bytes = mpc_cluster::wire::encode_bindings(&result).unwrap();
            ResultDigest {
                rows: result.rows.len(),
                fp: fingerprint(bytes.as_ref()),
            }
        })
        .collect()
}

#[test]
fn round_trip_matches_centralized_reference_and_drains_cleanly() {
    let (addr, handle) = start_server(ServerConfig::default());
    let expected = reference_digests();
    // Guard against a vacuously green run: the fixture queries must
    // actually match data (only the deliberate absent-term query is 0).
    assert!(expected[0].rows > 0 && expected[2].rows > 0, "{expected:?}");
    assert_eq!(expected[4].rows, 0, "absent-term query is provably empty");
    let mut client = Client::connect(addr).unwrap();
    let opts = RequestOpts::default();
    // Two passes: the second is all cache hits server-side, and must be
    // byte-identical anyway.
    for pass in 0..2 {
        for (i, q) in QUERIES.iter().enumerate() {
            let digest = client.query_digest(q, &opts).unwrap();
            assert_eq!(digest, expected[i], "query {i}, pass {pass}");
        }
    }
    // The fan-out width never shows in the reply: the server's own
    // budget (0), one thread and four all give the same bytes, executed
    // rather than replayed from the cache.
    for threads in [0, 1, 4] {
        let opts = RequestOpts {
            threads,
            cached: false,
            ..opts
        };
        for (i, q) in QUERIES.iter().enumerate() {
            let digest = client.query_digest(q, &opts).unwrap();
            assert_eq!(digest, expected[i], "query {i}, threads {threads}");
        }
    }
    // A parse error is an ERROR frame, not a dropped connection.
    let err = client.query_digest("SELECT BOGUS", &opts).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    // ... and the session still works afterwards.
    assert_eq!(client.query_digest(QUERIES[0], &opts).unwrap(), expected[0]);
    client.bye();

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 42);
    assert_eq!(summary.served, 42, "the parse error still went through a worker");
    assert_eq!(summary.rejected, 0);
    assert!(summary.accepted >= 2);
    let hits: u64 = summary.shards.iter().map(|s| s.hits).sum();
    assert!(
        hits >= 4,
        "second pass must hit the sharded cache (shards={:?})",
        summary.shards
    );
}

#[test]
fn oversized_frame_is_rejected_with_an_error_frame() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    // Announce a payload over MAX_FRAME; send no body.
    let len = u32::try_from(mpc_server::MAX_FRAME + 1).unwrap();
    stream.write_all(&len.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match proto::recv(&mut stream).unwrap() {
        Some(Frame::Error(msg)) => assert!(msg.contains("oversized"), "{msg}"),
        other => panic!("expected ERROR frame, got {other:?}"),
    }
    // The server survives and keeps serving new connections.
    let mut client = Client::connect(addr).unwrap();
    client
        .query_digest(QUERIES[2], &RequestOpts::default())
        .unwrap();
    client.bye();
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn truncated_frame_mid_read_drops_only_that_connection() {
    let (addr, handle) = start_server(ServerConfig::default());
    {
        // Announce 100 bytes, deliver 10, hang up.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[1u8; 10]).unwrap();
        stream.flush().unwrap();
    } // dropped here — mid-frame EOF on the server
    let mut client = Client::connect(addr).unwrap();
    client
        .query_digest(QUERIES[2], &RequestOpts::default())
        .unwrap();
    client.bye();
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn stalled_mid_frame_client_is_timed_out_not_pinned() {
    use std::time::{Duration, Instant};
    // A tight stall bound so the test is fast; everything else default.
    let rec = Recorder::enabled();
    let server = Server::bind(
        "127.0.0.1:0",
        graph().clone(),
        serve_engine(2),
        ServerConfig {
            io_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
        rec.clone(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Slow-loris: announce a 100-byte frame, deliver 3 bytes, go quiet —
    // but keep the socket open, so only the stall bound can end this.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[1u8; 3]).unwrap();
    stream.flush().unwrap();
    let t0 = Instant::now();
    match proto::recv(&mut stream).unwrap() {
        Some(Frame::Error(msg)) => assert!(msg.contains("stalled"), "{msg}"),
        other => panic!("expected a clean ERROR frame, got {other:?}"),
    }
    // ... after which the server hangs up on us.
    assert!(proto::recv(&mut stream).unwrap().is_none(), "connection must be closed");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "stall must be cut near the 200ms bound, not DRAIN_GRACE or never"
    );
    assert_eq!(rec.counter("server.io_timeout"), Some(1));

    // The worker pool was never pinned: a well-behaved client still gets
    // served, and an idle (between-frames) connection is NOT timed out.
    let mut idle = Client::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(400)); // > io_timeout, between frames
    idle.query_digest(QUERIES[2], &RequestOpts::default()).unwrap();
    idle.bye();
    assert_eq!(rec.counter("server.io_timeout"), Some(1), "idle wait is exempt");
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn client_disconnect_while_queued_is_survived() {
    // One worker, deep queue: pile requests up, then vanish.
    let (addr, handle) = start_server(ServerConfig {
        workers: 1,
        queue_depth: 32,
        ..ServerConfig::default()
    });
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Fire several queries without reading any reply, then drop the
        // socket. Note the handler admits them one at a time as it
        // reads them; whichever are admitted will execute against a
        // dead reply channel.
        for _ in 0..4 {
            proto::send(
                &mut stream,
                &Frame::Query(mpc_server::QueryFrame {
                    mode: mpc_cluster::ExecMode::CrossingAware,
                    cached: true,
                    threads: 0,
                    text: QUERIES[0].to_owned(),
                }),
            )
            .unwrap();
        }
    } // gone without reading a single reply
    // The server keeps serving.
    let mut client = Client::connect(addr).unwrap();
    let expected = reference_digests();
    assert_eq!(
        client.query_digest(QUERIES[0], &RequestOpts::default()).unwrap(),
        expected[0]
    );
    client.bye();
    shutdown(addr);
    handle.join().unwrap();
}

#[test]
fn zero_depth_queue_rejects_with_backpressure_frames() {
    let (addr, handle) = start_server(ServerConfig {
        workers: 2,
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let opts = RequestOpts::default();
    // The raw request API observes the rejection directly.
    match client.request(QUERIES[0], &opts).unwrap() {
        Frame::Rejected(msg) => assert!(msg.contains("queue full"), "{msg}"),
        other => panic!("expected REJECTED, got {other:?}"),
    }
    // The retrying path gives up with ClientError::Rejected.
    let err = client
        .query_digest(QUERIES[0], &RequestOpts { reject_retries: 2, ..opts })
        .unwrap_err();
    assert!(matches!(err, ClientError::Rejected(_)), "{err}");
    client.bye();
    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 0);
    assert_eq!(summary.rejected, 4);
    assert_eq!(summary.queue_max_depth, 0);
}

#[test]
fn queries_racing_a_shutdown_drain_are_rejected_not_lost() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let expected = reference_digests();
    assert_eq!(
        client.query_digest(QUERIES[0], &RequestOpts::default()).unwrap(),
        expected[0]
    );
    // Drain starts...
    Client::connect(addr).unwrap().shutdown_server().unwrap();
    // ...an in-flight session's next query gets an explicit answer
    // (REJECTED after the queue closed), never silence.
    match client.request(QUERIES[0], &RequestOpts::default()) {
        Ok(Frame::Rejected(_)) | Err(_) => {}
        Ok(other) => panic!("expected REJECTED or a closed session, got {other:?}"),
    }
    drop(client);
    handle.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The determinism contract on the wire: a shuffled workload
    /// replayed over concurrent connections produces, per query,
    /// exactly the bytes a sequential replay produces.
    #[test]
    fn concurrent_replay_is_byte_identical_to_sequential(
        picks in proptest::collection::vec(0usize..QUERIES.len(), 8..24),
        connections in 2usize..5,
    ) {
        let workload: Vec<String> =
            picks.iter().map(|&i| QUERIES[i].to_string()).collect();
        let expected = reference_digests();

        let (addr, handle) = start_server(ServerConfig { workers: 4, queue_depth: 64, ..ServerConfig::default() });
        let sequential = replay(addr, &workload, 1, &RequestOpts::default()).unwrap();
        let concurrent = replay(addr, &workload, connections, &RequestOpts::default()).unwrap();
        shutdown(addr);
        handle.join().unwrap();

        prop_assert_eq!(&sequential, &concurrent,
            "interleaving must not be observable in the result bytes");
        for (slot, &pick) in sequential.iter().zip(&picks) {
            prop_assert_eq!(slot, &expected[pick], "query {}", pick);
        }
    }
}

#[test]
fn digest_decodes_rows_from_the_codec_bytes() {
    let b = mpc_sparql::Bindings {
        vars: vec![0, 1],
        rows: vec![vec![1, 2], vec![3, 4], vec![5, 6]],
    };
    let bytes = mpc_cluster::wire::encode_bindings(&b).unwrap();
    let digest = digest_result_bytes(bytes.as_ref()).unwrap();
    assert_eq!(digest.rows, 3);
    assert_eq!(digest.fp, fingerprint(bytes.as_ref()));
    assert!(digest_result_bytes(&[1, 2, 3]).is_err());
}

/// UPDATE over the wire: a commit on one connection flips the epoch,
/// so a query that was already cached re-executes and sees the new
/// triples — and the post-commit answers match a fresh engine built
/// over the committed dataset.
#[test]
fn update_commits_over_the_wire_and_invalidates_the_cache() {
    let g = graph();
    let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(g);
    let mut engine = DistributedEngine::build(g, &part, NetworkModel::free());
    engine.enable_updates(g, &part, 0.1).unwrap();
    let serve = ServeEngine::with_shards(engine, 64, 4);
    let server = Server::bind(
        "127.0.0.1:0",
        g.clone(),
        serve,
        ServerConfig::default(),
        Recorder::enabled(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let probe = "SELECT ?x ?y WHERE { ?x <urn:q:new> ?y }";
    let opts = RequestOpts::default();
    let mut client = Client::connect(addr).unwrap();
    // Before the commit the property is not even in the dictionary:
    // provably empty, and the empty answer lands in the result cache.
    for _ in 0..2 {
        assert_eq!(client.query_digest(probe, &opts).unwrap().rows, 0);
    }

    let committed = client
        .update(
            "INSERT DATA { <urn:x:a> <urn:q:new> <urn:x:b> . \
                           <urn:x:b> <urn:q:new> <urn:x:c> . \
                           <urn:x:c> <urn:q:new> <urn:x:a> }",
            false,
        )
        .unwrap();
    assert_eq!(committed.inserted, 3);
    assert_eq!(committed.deleted, 0);
    assert_eq!(committed.noops, 0);
    assert_eq!(committed.new_vertices, 3);
    assert_eq!(committed.epoch, 1, "first commit bumps the epoch from 0");
    assert_eq!(committed.generation, None, "the server never snapshots");

    // The cached empty answer is now unaddressable: the same query
    // resolves against the grown live dictionary and sees all 3 rows.
    assert_eq!(client.query_digest(probe, &opts).unwrap().rows, 3);

    // Deleting one of them (mixed-clause update) drops exactly one row;
    // a delete of an absent triple is a counted noop, not an error.
    let committed = client
        .update(
            "DELETE DATA { <urn:x:c> <urn:q:new> <urn:x:a> . \
                           <urn:x:c> <urn:q:new> <urn:q:nosuch> }",
            true,
        )
        .unwrap();
    assert_eq!(committed.deleted, 1);
    assert_eq!(committed.noops, 1);
    assert_eq!(committed.epoch, 2);
    let post = client.query_digest(probe, &opts).unwrap();
    assert_eq!(post.rows, 2);

    // Ground truth: a fresh single-owner engine over the committed
    // dataset answers the probe with the same bytes.
    {
        let mut reference = DistributedEngine::build(g, &part, NetworkModel::free());
        reference.enable_updates(g, &part, 0.1).unwrap();
        let rec = Recorder::disabled();
        let batch = mpc_cluster::UpdateBatch::from_update_data(
            &mpc_sparql::parse_update(
                "INSERT DATA { <urn:x:a> <urn:q:new> <urn:x:b> . \
                               <urn:x:b> <urn:q:new> <urn:x:c> }",
            )
            .unwrap(),
        );
        reference.commit(&batch, &rec).unwrap();
        let (lg, lp) = reference.live_dataset().unwrap();
        let rebuilt = DistributedEngine::build(&lg, &lp, NetworkModel::free());
        let plan = parse(probe).unwrap().resolve(lg.dictionary()).unwrap();
        let req = ExecRequest::new().cached(false);
        let outcome = rebuilt.run_plan(&plan, &req, lg.dictionary()).unwrap();
        let bytes = mpc_cluster::wire::encode_bindings(outcome.rows()).unwrap();
        assert_eq!(post, digest_result_bytes(bytes.as_ref()).unwrap());
    }

    // A malformed update is an ERROR frame, and the session survives.
    let err = client.update("INSERT DATA { ?x <urn:q:new> ?y }", false).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert_eq!(client.query_digest(probe, &opts).unwrap().rows, 2);
    client.bye();

    // An update against a server whose engine never enabled updates is
    // a clean ERROR frame too, not a crash.
    let (plain_addr, plain_handle) = start_server(ServerConfig::default());
    let mut plain = Client::connect(plain_addr).unwrap();
    let err = plain
        .update("INSERT DATA { <urn:x:a> <urn:q:new> <urn:x:b> }", false)
        .unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    plain.bye();
    shutdown(plain_addr);
    plain_handle.join().unwrap();

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.updates, 3, "two commits and one malformed attempt");
}
