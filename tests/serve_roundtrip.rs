//! End-to-end tests for the `tkdc-serve` daemon: an in-process server
//! on an ephemeral port, driven through the client library.
//!
//! Covers the full request surface (Ping/Classify/Density/Stats/
//! Shutdown), label equivalence with the local batch engine, and the
//! failure paths — over-capacity rejection, idle-timeout disconnect,
//! malformed frames — all of which must fail with protocol errors
//! rather than hangs.

use std::net::TcpStream;
use std::time::Duration;

use tkdc::{Classifier, ExecPolicy, Params};
use tkdc_common::error::Error;
use tkdc_common::{Matrix, Rng};
use tkdc_serve::protocol::{read_response, write_request, Request};
use tkdc_serve::{Client, ErrorCode, Response, ServeConfig, Server};

/// Small 2-d gaussian blob with a few planted outliers.
fn training_data(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let mut m = Matrix::with_cols(2);
    for _ in 0..n {
        m.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
            .unwrap();
    }
    m.push_row(&[25.0, 25.0]).unwrap();
    m
}

fn fitted(seed: u64) -> Classifier {
    let data = training_data(600, seed);
    Classifier::fit(&data, &Params::default().with_seed(seed)).unwrap()
}

fn query_set(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let mut m = Matrix::with_cols(2);
    for _ in 0..n {
        m.push_row(&[rng.normal(0.0, 1.5), rng.normal(0.0, 1.5)])
            .unwrap();
    }
    m
}

fn spawn_server(config: ServeConfig, clf: Classifier) -> (String, tkdc_serve::ServerHandle) {
    let server = Server::bind(config, clf).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, server.spawn())
}

#[test]
fn full_round_trip_matches_local_engine() {
    let clf = fitted(7);
    let queries = query_set(64, 11);
    let (local_labels, _) = clf
        .classify_batch_with(&queries, ExecPolicy::Serial)
        .unwrap();
    let (local_bounds, _) = clf
        .bound_density_batch_with(&queries, ExecPolicy::Serial)
        .unwrap();

    let (addr, handle) = spawn_server(ServeConfig::default(), clf);
    let mut client = Client::connect_with_timeout(&addr, Duration::from_secs(10)).unwrap();
    client.ping().unwrap();

    let served_labels = client.classify(&queries).unwrap();
    assert_eq!(served_labels, local_labels);

    let served_bounds = client.density(&queries).unwrap();
    assert_eq!(served_bounds.len(), local_bounds.len());
    for (served, local) in served_bounds.iter().zip(&local_bounds) {
        // Bit-identical: the engine guarantees thread-count-invariant
        // results, and f64 round-trips exactly through the wire format.
        assert!(served.0.to_bits() == local.lower.to_bits());
        assert!(served.1.to_bits() == local.upper.to_bits());
        assert!(served.0 <= served.1);
    }

    // Input-shaped failures are BadInput protocol errors, and the
    // connection stays usable afterwards.
    let wrong_dims = Matrix::from_rows(&[[1.0, 2.0, 3.0]]).unwrap();
    let err = client.classify(&wrong_dims).unwrap_err();
    assert!(matches!(err, Error::Protocol { .. }), "got {err:?}");
    client.ping().unwrap();

    let stats = client.stats().unwrap();
    assert!(stats.requests_total >= 5);
    assert_eq!(stats.classifies, 2);
    assert_eq!(stats.densities, 1);
    assert_eq!(stats.points_classified, 64);
    assert_eq!(stats.points_bounded, 64);
    assert_eq!(stats.errors_total, 1);
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.active_connections, 1);
    let recorded: u64 = stats.latency_buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(recorded, stats.requests_total);
    assert!(stats.latency_quantile_us(0.99) >= stats.latency_quantile_us(0.5));
    // Model provenance travels in the Stats frame.
    assert_eq!(stats.backend, "tree");
    assert_eq!(stats.bound_kind, "certified");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn estimated_backend_serves_and_reports_provenance() {
    let data = training_data(600, 19);
    let params = Params::default()
        .with_seed(19)
        .with_backend(tkdc::BackendSpec::Hbe(tkdc::HbeParams::default()));
    let clf = Classifier::fit(&data, &params).unwrap();
    let queries = query_set(32, 23);
    let (local_labels, _) = clf
        .classify_batch_with(&queries, ExecPolicy::Serial)
        .unwrap();

    let (addr, handle) = spawn_server(ServeConfig::default(), clf);
    let mut client = Client::connect_with_timeout(&addr, Duration::from_secs(10)).unwrap();
    let served_labels = client.classify(&queries).unwrap();
    assert_eq!(served_labels, local_labels);

    let stats = client.stats().unwrap();
    assert_eq!(stats.backend, "hbe");
    assert_eq!(stats.bound_kind, "probabilistic");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn over_capacity_connection_rejected_with_protocol_error() {
    let (addr, handle) = spawn_server(
        ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        },
        fitted(13),
    );
    let timeout = Duration::from_secs(10);

    // First client occupies the only slot (the ping guarantees its
    // handler is registered before the second connection arrives).
    let mut first = Client::connect_with_timeout(&addr, timeout).unwrap();
    first.ping().unwrap();

    let mut second = Client::connect_with_timeout(&addr, timeout).unwrap();
    let err = second.ping().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("OverCapacity"), "unexpected error: {msg}");

    // Dropping the first client frees the slot (its handler sees EOF);
    // a new client must then get through and can drain the server.
    drop(first);
    let mut third = loop {
        let mut c = Client::connect_with_timeout(&addr, timeout).unwrap();
        match c.ping() {
            Ok(()) => break c,
            Err(_) => tkdc_sync::thread::sleep(Duration::from_millis(20)),
        }
    };
    let stats = third.stats().unwrap();
    assert!(stats.rejected_over_capacity >= 1);
    third.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn idle_connection_times_out_instead_of_hanging() {
    let (addr, handle) = spawn_server(
        ServeConfig {
            timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
        fitted(17),
    );

    // Connect and send nothing: the server must push a Timeout error
    // frame and close, well before our own 5-second guard expires.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match read_response(&mut stream).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected a Timeout error frame, got {other:?}"),
    }
    // The connection is closed afterwards: EOF, not a hang.
    assert!(read_response(&mut stream).unwrap().is_none());

    let mut client = Client::connect_with_timeout(&addr, Duration::from_secs(10)).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.timeouts, 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_and_mismatched_frames_get_error_responses() {
    let (addr, handle) = spawn_server(ServeConfig::default(), fitted(19));
    let timeout = Duration::from_secs(5);

    // Garbage opcode: the decoder rejects it and the server answers
    // with a Malformed error frame before closing.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    use std::io::Write as _;
    let mut frame = Vec::new();
    frame.extend_from_slice(&6u32.to_le_bytes());
    frame.push(tkdc_serve::PROTOCOL_VERSION);
    frame.push(250); // unknown opcode
    frame.extend_from_slice(&[0; 4]);
    stream.write_all(&frame).unwrap();
    match read_response(&mut stream).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error frame, got {other:?}"),
    }

    // Wrong protocol version: rejected as UnsupportedVersion.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&2u32.to_le_bytes());
    frame.push(tkdc_serve::PROTOCOL_VERSION + 1);
    frame.push(3); // Stats opcode
    stream.write_all(&frame).unwrap();
    match read_response(&mut stream).unwrap() {
        Some(Response::Error { code, .. }) => {
            assert_eq!(code, ErrorCode::UnsupportedVersion)
        }
        other => panic!("expected an UnsupportedVersion error frame, got {other:?}"),
    }

    let mut client = Client::connect_with_timeout(&addr, timeout).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Regression for the drain protocol (the model twin lives in
/// `tests/model_check.rs` as `serve_drain_*`): a `Shutdown` racing
/// in-flight `Classify` requests must resolve every one of them with a
/// complete, well-formed outcome — full `Labels` or an explicit
/// `ShuttingDown` frame — and the drain must join every handler rather
/// than hang or silently drop responses.
#[test]
fn concurrent_shutdown_drains_inflight_classifies_without_dropping() {
    let clf = fitted(31);
    let queries = query_set(48, 37);
    let (addr, handle) = spawn_server(
        ServeConfig {
            timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
        clf,
    );

    // Register four handlers (the ping round trip pins each one past
    // accept), then put a Classify in flight on every connection
    // *before* the drain starts.
    let mut streams = Vec::new();
    for nonce in 0..4u64 {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_request(&mut s, &Request::Ping { nonce }).unwrap();
        assert!(matches!(
            read_response(&mut s).unwrap(),
            Some(Response::Pong { .. })
        ));
        write_request(
            &mut s,
            &Request::Classify {
                points: queries.clone(),
            },
        )
        .unwrap();
        streams.push(s);
    }

    let mut shut = Client::connect_with_timeout(&addr, Duration::from_secs(10)).unwrap();
    shut.shutdown().unwrap();
    // The drain must terminate: run() joins every handler thread.
    handle.join().unwrap();

    let mut answered = 0;
    for mut s in streams {
        match read_response(&mut s).unwrap_or(None) {
            Some(Response::Labels(labels)) => {
                assert_eq!(labels.len(), 48, "torn Labels response");
                answered += 1;
            }
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
            // A close without a frame is tolerated only for the narrow
            // TCP-reset race: the handler saw the flag before reading
            // the request and its drain notice was discarded by the
            // peer's RST handling.
            None => {}
            other => panic!("unexpected frame during drain: {other:?}"),
        }
    }
    // The requests were all written before Shutdown was sent, so the
    // overwhelmingly normal path is "answered in full"; wholesale
    // drops mean the drain broke.
    assert!(answered >= 1, "every in-flight classify was dropped");
}

/// End-to-end sweep of the observability sinks: the Prometheus
/// endpoint, the windowed latency view in the `Stats` frame, the span
/// trace, and the slow-query log — all on one served workload.
#[test]
fn observability_sinks_capture_spans_metrics_and_slowlog() {
    let clf = fitted(41);
    let queries = query_set(40, 43);
    let dir = std::env::temp_dir();
    let span_path = dir.join(format!("tkdc_serve_spans_{}.json", std::process::id()));
    let slow_path = dir.join(format!("tkdc_serve_slow_{}.jsonl", std::process::id()));
    // Bind directly (not through spawn_server) so the ephemeral metrics
    // port can be read off the Server value before spawning.
    let server = Server::bind(
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            span_out: Some(span_path.clone()),
            slow_log: Some(slow_path.clone()),
            slow_ms: Some(0), // log every request
            ..ServeConfig::default()
        },
        clf,
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    let handle = server.spawn();

    let mut client = Client::connect_with_timeout(&addr, Duration::from_secs(10)).unwrap();
    client.ping().unwrap();
    for _ in 0..3 {
        let labels = client.classify(&queries).unwrap();
        assert_eq!(labels.len(), 40);
    }
    client.density(&queries).unwrap();

    // Scrape the Prometheus endpoint while the server is live.
    let scrape = {
        use std::io::{Read as _, Write as _};
        let mut s = TcpStream::connect(metrics_addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
    for series in [
        "tkdc_serve_classifies{",
        "tkdc_engine_queries{",
        "tkdc_engine_kernel_evals{",
        "tkdc_labels_high{",
        "tkdc_serve_request_latency_us_bucket{",
        "tkdc_serve_request_latency_window_us_bucket{",
        "tkdc_pool_tasks_run{",
        "tkdc_pool_utilization{",
    ] {
        assert!(
            scrape.contains(series),
            "scrape missing {series}:\n{scrape}"
        );
    }
    assert!(scrape.contains("backend=\"tree\""));
    assert!(scrape.contains("bound_kind=\"certified\""));
    assert!(scrape.contains("worker=\"submitter\""));

    // The Stats frame carries the windowed view (v2 protocol).
    let stats = client.stats().unwrap();
    let windowed: u64 = stats.window_latency_buckets.iter().map(|&(_, c)| c).sum();
    assert!(windowed >= 5, "window missed recent requests: {windowed}");
    assert!(stats.window_seconds >= 1);
    assert!(stats.window_latency_quantile_us(0.99) >= stats.window_latency_quantile_us(0.5));

    client.shutdown().unwrap();
    handle.join().unwrap();

    // Span trace: Chrome trace_event JSON with serve + classify stages.
    let trace = std::fs::read_to_string(&span_path).unwrap();
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    for stage in ["serve.request", "serve.exec", "classify.traversal"] {
        assert!(trace.contains(stage), "span trace missing {stage}");
    }

    // Slow log (threshold 0 = every request): one JSON line per request
    // with a span breakdown.
    let slow = std::fs::read_to_string(&slow_path).unwrap();
    let lines: Vec<&str> = slow.lines().collect();
    assert!(lines.len() >= 5, "slow log too short:\n{slow}");
    assert!(lines
        .iter()
        .all(|l| l.starts_with("{\"schema\":\"tkdc-slowlog/v1\"")));
    assert!(slow.contains("\"op\":\"classify\""));
    assert!(slow.contains("\"points\":40"));
    assert!(slow.contains("\"name\":\"serve.request\""));

    std::fs::remove_file(&span_path).ok();
    std::fs::remove_file(&slow_path).ok();
}

#[test]
fn shutdown_drains_and_new_work_is_refused() {
    let clf = fitted(23);
    let queries = query_set(32, 29);
    // A short server-side read timeout bounds how long the drain waits
    // for the parked (idle) connection below.
    let (addr, handle) = spawn_server(
        ServeConfig {
            timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
        clf,
    );
    let timeout = Duration::from_secs(10);

    // A parked second connection must be released by the drain (it gets
    // a ShuttingDown frame within one read-timeout tick) rather than
    // blocking shutdown forever. It reports its pong over `ready`, and
    // Shutdown is sent only after that: otherwise the drain can start
    // before the parked thread has connected, and its connect fails.
    let (ready_tx, ready_rx) = tkdc_sync::mpsc::channel();
    let parked = tkdc_sync::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            write_request(&mut stream, &Request::Ping { nonce: 1 }).unwrap();
            // Consume the pong, then wait: the next frame is the drain
            // notice (or EOF if the server closed first).
            assert!(matches!(
                read_response(&mut stream).unwrap(),
                Some(Response::Pong { nonce: 1 })
            ));
            ready_tx.send(()).unwrap();
            matches!(
                read_response(&mut stream).unwrap_or(None),
                None | Some(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    ..
                })
            )
        }
    });

    let mut client = Client::connect_with_timeout(&addr, timeout).unwrap();
    let labels = client.classify(&queries).unwrap();
    assert_eq!(labels.len(), 32);
    ready_rx
        .recv_timeout(timeout)
        .expect("parked connection never got its pong");
    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(
        parked.join().unwrap(),
        "parked connection saw an unexpected frame"
    );

    // The daemon is gone: new connections must fail, not hang.
    let sock: std::net::SocketAddr = addr.parse().unwrap();
    assert!(TcpStream::connect_timeout(&sock, Duration::from_secs(2)).is_err());
}
