//! Robustness tests: verdict-store durability across restarts, degraded
//! operation under injected store failures, overload shedding, per-client
//! quotas, and client-side retry/timeout classification.

use std::io::BufReader;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use velv_sat::{Budget, CnfFormula, SatResult, Solver, SolverStats};
use velv_serve::proto::{read_frame, write_frame};
use velv_serve::{
    serve, ClientConfig, ClientError, JobSpec, JobStatus, ModelRef, ServeClient, ServeError,
    ServeHandle, ServiceConfig,
};
use velv_store::{FailAction, Failpoints};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("velv_serve_robust_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn store_config(dir: &Path, workers: usize) -> ServiceConfig {
    let mut config = ServiceConfig::default().with_workers(workers);
    config.store_dir = Some(dir.to_path_buf());
    config
}

/// A slow but real engine: holds its worker for `DELAY`, then decides with
/// the reference CDCL solver.  Lets the overload test saturate a bounded
/// queue while the accepted jobs still produce genuine verdicts.  The hold
/// is generous because `submit` builds the EUFM problem synchronously and
/// the shed/busy submissions must all land inside the first job's run.
struct SlowChaff;

impl SlowChaff {
    const DELAY: Duration = Duration::from_millis(2000);
}

impl Solver for SlowChaff {
    fn name(&self) -> &str {
        "slow-chaff"
    }
    fn is_complete(&self) -> bool {
        true
    }
    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult {
        std::thread::sleep(Self::DELAY);
        velv_sat::cdcl::CdclSolver::chaff().solve_with_budget(cnf, budget)
    }
    fn stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn unknown_reason(verdict: &velv_core::Verdict) -> String {
    match verdict {
        velv_core::Verdict::Unknown(reason) => reason.clone(),
        other => panic!("expected an unknown verdict, got {other:?}"),
    }
}

#[test]
fn decided_verdicts_survive_a_restart_without_resolving() {
    let dir = temp_dir("restart");

    // First life: decide one correct job (keeping its proof) and one buggy
    // job, both persisted before their responses were delivered.
    let service = ServeHandle::try_start(store_config(&dir, 2)).expect("start with a store");
    let mut proved = JobSpec::new(ModelRef::dlx1_correct());
    proved.keep_proof = true;
    let ticket = service.submit(proved.clone()).expect("accepted");
    let fingerprint = ticket.fingerprint();
    assert!(ticket.wait().verdict.is_correct());
    let buggy = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(buggy.verdict.is_buggy());
    let first_cex = buggy.verdict.counterexample().unwrap().clone();
    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_verdicts_persisted_total"),
        Some(2),
        "both decided verdicts hit the log"
    );
    assert_eq!(stats.value("velv_serve_translations_total"), Some(2));
    service.shutdown();
    drop(service);

    // Second life, same directory: the log replays into the cache and both
    // jobs are answered without any translation or solver work.
    let service = ServeHandle::try_start(store_config(&dir, 2)).expect("restart on the same dir");
    let report = service.store_recovery().expect("a store is configured");
    assert_eq!(report.live, 2, "both records recovered: {report:?}");
    assert_eq!(report.truncated_bytes, 0, "clean shutdown leaves no tear");
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_warm_boot_replayed_total"),
        Some(2)
    );

    let warm = service.submit(proved).expect("accepted").wait();
    assert!(warm.verdict.is_correct());
    assert!(warm.from_cache, "warm boot serves from the replayed cache");
    let entry = service.cached(fingerprint).expect("replayed entry");
    let proof = entry.proof_drat.as_ref().expect("sidecar proof survived");
    assert!(!proof.is_empty());

    let rebug = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(rebug.from_cache);
    assert_eq!(
        rebug.verdict.counterexample().unwrap(),
        &first_cex,
        "the recovered counterexample is byte-identical"
    );

    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_translations_total"),
        Some(0),
        "zero re-translation after replay"
    );
    assert_eq!(
        stats.value("velv_serve_fresh_solves_total"),
        Some(0),
        "zero re-solve after replay"
    );
    assert_eq!(stats.value("velv_serve_cache_hits_total"), Some(2));
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_failures_degrade_to_serving_without_persistence() {
    let dir = temp_dir("degraded");
    let failpoints = Arc::new(Failpoints::new());
    failpoints.arm("store.append.body", 0, FailAction::Error);
    let mut config = store_config(&dir, 2);
    config.store_failpoints = Some(Arc::clone(&failpoints));

    // The first append fails (and poisons the store until reopen); every
    // verdict must still be computed and delivered.
    let service = ServeHandle::try_start(config).expect("start with a store");
    let first = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(first.verdict.is_correct(), "served despite the dead store");
    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(second.verdict.is_buggy());
    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_verdicts_persisted_total"),
        Some(0),
        "nothing landed in the poisoned log"
    );
    let errors: u64 = service
        .registry_snapshot()
        .flat_fields()
        .into_iter()
        .find(|(k, _)| k == "velv_serve_persist_errors_total")
        .and_then(|(_, v)| v.parse().ok())
        .expect("the persist error counter is exported");
    assert_eq!(errors, 2);
    service.shutdown();
    drop(service);

    // A restart on the same directory finds an empty (or truncated-to-empty)
    // log and simply re-solves: degraded, never wrong.
    let service = ServeHandle::try_start(store_config(&dir, 2)).expect("restart");
    assert_eq!(service.store_recovery().expect("store configured").live, 0);
    let retry = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(retry.verdict.is_correct());
    assert!(
        !retry.from_cache,
        "nothing was persisted, so nothing replays"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_the_lowest_priority_job_and_rejects_as_busy() {
    let mut config = ServiceConfig::default().with_workers(1);
    config.engine_override = Some(Arc::new(|| Box::new(SlowChaff)));
    config.max_queue_depth = Some(1);
    let service = ServeHandle::start(config);

    // Occupy the single worker, then fill the one queue slot.
    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    let low = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    assert_eq!(low.status(), JobStatus::Queued);

    // A higher-priority submission evicts the queued low-priority job, which
    // resolves as a busy shed instead of waiting forever.
    let high = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(1)).with_priority(5))
        .expect("accepted: sheds the lower-priority occupant");
    let shed = low.wait();
    assert!(
        unknown_reason(&shed.verdict).contains("shed"),
        "the victim learns it was shed: {:?}",
        shed.verdict
    );
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_jobs_shed_total"),
        Some(1)
    );

    // An equal-or-lower-priority submission cannot evict anyone and bounces
    // with `Busy` — the queue never grows past its bound.
    let bounced = service.submit(JobSpec::new(ModelRef::dlx1_bug(2)));
    assert!(matches!(bounced, Err(ServeError::Busy(_))));
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_busy_rejections_total"),
        Some(1)
    );
    assert_eq!(high.status(), JobStatus::Queued, "the winner kept its slot");

    // A shed fingerprint is fully released: resubmitting it at a priority
    // that wins admission schedules a fresh job (no dedup corpse).
    let again = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)).with_priority(9))
        .expect("accepted after shedding the priority-5 job");
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_jobs_shed_total"),
        Some(2)
    );
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_dedup_joins_total"),
        Some(0)
    );
    assert_eq!(again.status(), JobStatus::Queued);
    let evicted = high.wait();
    assert!(unknown_reason(&evicted.verdict).contains("shed"));

    // Overload never harms the jobs that won admission: both complete with
    // genuine verdicts once the worker gets to them.
    let first = parked.wait();
    assert!(
        first.verdict.is_correct(),
        "the running job finished normally"
    );
    assert!(!first.from_cache);
    let survivor = again.wait();
    assert!(
        survivor.verdict.is_buggy(),
        "the admitted job was still solved"
    );
    assert!(survivor.verdict.counterexample().is_some());
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_fresh_solves_total"),
        Some(2)
    );
    service.shutdown();
}

#[test]
fn per_client_quota_rejects_wide_batches_as_busy() {
    let mut config = ServiceConfig::default().with_workers(2);
    config.per_client_quota = 2;
    let handle = ServeHandle::start(config);
    let control = serve(handle.clone(), "127.0.0.1:0").expect("bind");
    let addr = control.addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    let wide: Vec<JobSpec> = (0..3)
        .map(|i| JobSpec::new(ModelRef::dlx1_bug(i)))
        .collect();
    match client.batch(wide) {
        Err(ClientError::Busy(reason)) => {
            assert!(reason.contains("quota"), "{reason}");
        }
        other => panic!("expected a busy rejection, got {other:?}"),
    }
    let stats: std::collections::HashMap<String, u64> =
        client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["velv_serve_quota_rejections_total"], 1);
    assert_eq!(
        stats["velv_serve_jobs_submitted_total"], 0,
        "the rejected batch scheduled nothing"
    );

    // At the quota, the batch is admitted and completes normally.
    let narrow: Vec<JobSpec> = (0..2)
        .map(|i| JobSpec::new(ModelRef::dlx1_bug(i)))
        .collect();
    let response = client.batch(narrow).expect("within quota");
    assert_eq!(response.all("job").len(), 2);
    drop(client);
    control.stop();
}

#[test]
fn busy_replies_are_retried_on_the_same_connection_until_the_server_recovers() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        // First attempt: overloaded.  Second attempt (same connection —
        // busy retries must not redial): recovered.
        read_frame(&mut reader).expect("read").expect("a request");
        write_frame(&mut writer, "busy draining the queue").expect("write");
        read_frame(&mut reader).expect("read").expect("the retry");
        write_frame(&mut writer, "ok\npong 1").expect("write");
    });

    let config = ClientConfig {
        retries: 2,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut client = ServeClient::connect_with(addr, config).expect("connect");
    client.ping().expect("the retry after busy succeeds");
    server.join().expect("fake server");
}

#[test]
fn busy_without_retries_fails_fast_with_the_reason() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        read_frame(&mut reader).expect("read").expect("a request");
        write_frame(&mut writer, "busy per-client quota is 2 jobs in flight").expect("write");
        // Drain until the client hangs up.
        while let Ok(Some(_)) = read_frame(&mut reader) {}
    });

    let mut client = ServeClient::connect(addr).expect("connect");
    match client.ping() {
        Err(ClientError::Busy(reason)) => assert!(reason.contains("quota"), "{reason}"),
        other => panic!("expected busy, got {other:?}"),
    }
    drop(client);
    server.join().expect("fake server");
}

#[test]
fn a_silent_server_times_out_instead_of_hanging() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        // Read requests but never answer; exit when the client hangs up.
        while let Ok(Some(_)) = read_frame(&mut reader) {}
    });

    let config = ClientConfig {
        timeout: Some(Duration::from_millis(50)),
        ..ClientConfig::default()
    };
    let mut client = ServeClient::connect_with(addr, config).expect("connect");
    let started = Instant::now();
    match client.ping() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the timeout fired, not a hang"
    );
    drop(client);
    server.join().expect("fake server");
}
