//! Wire-level tests: concurrent TCP clients hammering the model catalog,
//! batch submission, proof retrieval, stats, and shutdown.

use std::time::Duration;
use velv_serve::proto::Request;
use velv_serve::{serve, JobSpec, ServeClient, ServeHandle, ServiceConfig, StatsFormat};

fn start_server(workers: usize) -> (velv_serve::ServerControl, std::net::SocketAddr, ServeHandle) {
    let handle = ServeHandle::start(ServiceConfig::default().with_workers(workers));
    let control = serve(handle.clone(), "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = control.addr();
    (control, addr, handle)
}

#[test]
fn concurrent_clients_hammer_the_catalog() {
    let (control, addr, _handle) = start_server(4);
    // Three clients, each sweeping the same slice of the DLX catalog plus an
    // out-of-order core: 3 × 4 submissions of 4 unique jobs.
    let catalog = [
        ("dlx1:correct", "correct"),
        ("dlx1:bug:0", "buggy"),
        ("dlx1:bug:1", "buggy"),
        ("ooo:2", "correct"),
    ];
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for (model, expected) in catalog {
                    let spec = JobSpec::parse_wire(&format!("model={model}")).unwrap();
                    let reply = client.submit(spec).expect("submit succeeds");
                    assert_eq!(reply.verdict, expected, "{model}");
                    if expected == "buggy" {
                        assert!(!reply.cex_true.is_empty(), "{model} has a counterexample");
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let mut client = ServeClient::connect(addr).expect("connect");
    let stats: std::collections::HashMap<String, u64> =
        client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["velv_serve_jobs_submitted_total"], 12);
    assert_eq!(
        stats["velv_serve_translations_total"], 4,
        "4 unique fingerprints solve exactly once; the other 8 submissions \
         hit the cache or joined in flight"
    );
    assert_eq!(
        stats["velv_serve_cache_hits_total"] + stats["velv_serve_dedup_joins_total"],
        8
    );
    assert_eq!(
        stats["velv_serve_verdict_correct_total"] + stats["velv_serve_verdict_buggy_total"],
        4
    );
    // Worker time is reported per layer: four translations, four solves.
    assert!(stats["velv_serve_translate_micros_total"] > 0);
    assert!(stats["velv_serve_solve_micros_total"] > 0);
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn batch_over_the_wire_matches_expectations() {
    let (control, addr, _handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    let specs = vec![
        JobSpec::parse_wire("model=dlx1:bug:2").unwrap(),
        JobSpec::parse_wire("model=dlx1:correct").unwrap(),
        JobSpec::parse_wire("model=dlx1:bug:2").unwrap(),
    ];
    let response = client.batch(specs).expect("batch succeeds");
    assert_eq!(response.field("count"), Some("3"));
    let jobs = response.all("job");
    assert_eq!(jobs.len(), 3);
    assert!(jobs[0].contains("verdict=buggy"), "{}", jobs[0]);
    assert!(jobs[1].contains("verdict=correct"), "{}", jobs[1]);
    assert!(jobs[2].contains("verdict=buggy"), "{}", jobs[2]);
    // The duplicate third entry must not have been solved twice.
    let stats: std::collections::HashMap<String, u64> =
        client.stats().expect("stats").into_iter().collect();
    assert_eq!(
        stats["velv_serve_dedup_joins_total"] + stats["velv_serve_cache_hits_total"],
        1
    );
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn vliw_catalog_entry_is_served() {
    let (control, addr, _handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    let reply = client
        .submit(JobSpec::parse_wire("model=vliw:bug:0").unwrap())
        .expect("submit succeeds");
    assert_eq!(reply.verdict, "buggy");
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn proof_artifacts_round_trip_over_the_wire() {
    let (control, addr, _handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    let reply = client
        .submit(JobSpec::parse_wire("model=dlx1:correct keep-proof=1").unwrap())
        .expect("submit succeeds");
    assert_eq!(reply.verdict, "correct");
    assert!(!reply.cached);
    let proof = client.proof(&reply.fingerprint).expect("stored proof");
    assert!(!proof.is_empty());
    // An uncached fingerprint is a clean error, not a hang.
    let missing = client.proof(&"0".repeat(32));
    assert!(missing.is_err());
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (control, addr, _handle) = start_server(1);
    let mut client = ServeClient::connect(addr).expect("connect");
    // Unknown command: the server answers `err ...` and keeps the
    // connection alive.
    let err = client.request(&Request::Submit {
        spec: JobSpec::parse_wire("model=dlx1:bug:9999").unwrap(),
        trace: None,
    });
    assert!(err.is_err());
    client.ping().expect("the connection survived the error");
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn every_registered_metric_reaches_the_wire() {
    let (control, addr, handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .submit(JobSpec::parse_wire("model=dlx1:bug:0").unwrap())
        .expect("submit succeeds");

    let response = client
        .request(&Request::Stats(StatsFormat::Flat))
        .expect("stats");
    let wire_keys: std::collections::HashSet<&str> =
        response.fields.iter().map(|(k, _)| k.as_str()).collect();
    let registered = handle.registry_snapshot();
    let flat = registered.flat_fields();
    assert!(!flat.is_empty(), "the service registers metrics");
    for (key, _) in &flat {
        assert!(
            wire_keys.contains(key.as_str()),
            "registered metric `{key}` is missing from the wire stats payload"
        );
    }
    // The class-labelled latency series reach the wire explicitly: one
    // completed normal-priority job must show up under class="normal".
    for family in [
        "velv_serve_queue_wait_micros",
        "velv_serve_job_wall_class_micros",
    ] {
        let key = format!("{family}_count{{class=\"normal\"}}");
        let count = response
            .fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse::<u64>().ok());
        assert_eq!(count, Some(1), "labelled series `{key}` reaches the wire");
    }
    // The derived percentile gauges are non-zero once a job completed.
    for gauge in [
        "velv_serve_job_wall_p50_micros",
        "velv_serve_job_wall_p95_micros",
        "velv_serve_job_wall_p99_micros",
    ] {
        let value = response
            .fields
            .iter()
            .find(|(k, _)| k == gauge)
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("gauge `{gauge}` missing from the wire stats"));
        assert!(value > 0, "`{gauge}` is non-zero after a completed job");
    }
    // The SLO block is exported: target, attainment and burn are consistent.
    let field = |key: &str| {
        response
            .fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<i64>().ok())
            .unwrap_or_else(|| panic!("`{key}` missing from the wire stats"))
    };
    assert!(field("velv_serve_slo_target_micros") > 0);
    let attainment = field("velv_serve_slo_attainment_permille");
    let burn = field("velv_serve_slo_burn_permille");
    assert_eq!(
        attainment + burn,
        1000,
        "attainment and burn are permille complements"
    );
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn status_and_flight_verbs_report_live_state() {
    let (control, addr, _handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .submit(JobSpec::parse_wire("model=dlx1:bug:3").unwrap())
        .expect("submit succeeds");

    let status = client.status().expect("status");
    assert_eq!(status.field("workers"), Some("2"));
    assert_eq!(status.field("shut-down"), Some("0"));
    assert!(status.field("queued").is_some());
    assert!(status.field("running").is_some());

    // The service armed the flight recorder at start, so the just-finished
    // job's spans are in the ring even though no trace sink is installed.
    let lines = client.flight().expect("flight snapshot");
    assert!(!lines.is_empty(), "the flight ring captured the job");
    let joined = lines.join("\n");
    assert!(joined.contains("\"serve.job\""), "{joined}");
    for line in &lines {
        velv_obs::parse_trace_line(line).expect("flight lines are valid flat JSON");
    }
    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn prometheus_stats_parse_as_valid_exposition_text() {
    let (control, addr, _handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .submit(JobSpec::parse_wire("model=dlx1:correct").unwrap())
        .expect("submit succeeds");

    let prom = client
        .stats_text(StatsFormat::Prometheus)
        .expect("prometheus payload");
    velv_obs::validate_prometheus_text(&prom).expect("valid Prometheus exposition text");
    assert!(prom.contains("velv_serve_jobs_submitted_total"), "{prom}");

    let json = client.stats_text(StatsFormat::Json).expect("json payload");
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("velv_serve_jobs_submitted_total"), "{json}");

    client.shutdown().expect("shutdown");
    control.wait();
}

#[test]
fn shutdown_flushes_trace_buffers_through_the_tcp_harness() {
    // The tracer is process-global; this is the only wire test that installs
    // a sink, and it filters on serve-specific record names so records from
    // concurrently running servers cannot break it.
    let sink = std::sync::Arc::new(velv_obs::MemorySink::new());
    velv_obs::install_sink(sink.clone());

    let (control, addr, _handle) = start_server(2);
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .submit(JobSpec::parse_wire("model=dlx1:bug:1").unwrap())
        .expect("submit succeeds");
    client.shutdown().expect("shutdown");
    control.wait();
    velv_obs::uninstall_sink();

    let contents = sink.contents();
    let summary = velv_obs::check_trace(&contents).expect("well-formed trace capture");
    assert!(summary.records > 0, "shutdown drained the trace buffers");
    assert!(
        contents.contains("\"serve.shutdown\""),
        "the graceful shutdown event reached the sink: {contents}"
    );
    assert!(
        contents.contains("\"serve.job\""),
        "the job span reached the sink: {contents}"
    );
}

#[test]
fn stopping_the_control_tears_everything_down() {
    let (control, addr, _handle) = start_server(1);
    {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.ping().expect("ping");
    }
    let start = std::time::Instant::now();
    control.stop();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stop joins accept/connection/worker threads promptly"
    );
    // The port is no longer served: a fresh connection cannot complete an
    // exchange.
    if let Ok(mut client) = ServeClient::connect(addr) {
        assert!(client.ping().is_err());
    }
}
