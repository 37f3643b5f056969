//! In-process service tests: cache hits, in-flight deduplication, batch
//! scheduling, cancellation on client disconnect, and shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};
use velv_sat::{Budget, CnfFormula, SatResult, Solver, SolverStats};
use velv_serve::{
    BackendChoice, JobSpec, JobStatus, ModelRef, ServeHandle, ServiceConfig, SolveMode,
};

/// An engine that never answers: it spins until its budget (cancel token or
/// deadline) stops it.  Lets the tests park a worker deterministically.
struct SpinSolver;

impl Solver for SpinSolver {
    fn name(&self) -> &str {
        "spin"
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn solve_with_budget(&mut self, _cnf: &CnfFormula, budget: Budget) -> SatResult {
        let budget = budget.started();
        loop {
            for _ in 0..256 {
                std::hint::spin_loop();
            }
            if let Some(reason) = budget.exceeded() {
                return SatResult::Unknown(reason);
            }
        }
    }
    fn stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

fn spin_service(workers: usize) -> ServeHandle {
    let mut config = ServiceConfig::default().with_workers(workers);
    config.engine_override = Some(Arc::new(|| Box::new(SpinSolver)));
    ServeHandle::start(config)
}

fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn cache_hit_skips_translation_and_solver() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let first = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(first.verdict.is_correct(), "{:?}", first.verdict);
    assert!(!first.from_cache);

    let stats = service.registry_snapshot();
    assert_eq!(stats.value("velv_serve_translations_total"), Some(1));
    assert_eq!(stats.value("velv_serve_fresh_solves_total"), Some(1));
    assert_eq!(stats.value("velv_serve_cache_hits_total"), Some(0));

    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(second.from_cache);
    assert!(second.verdict.is_correct());
    assert_eq!(second.solve_time, Duration::ZERO);

    // The acceptance bar: a re-submitted identical job must not invoke
    // translation or a solver.
    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_translations_total"),
        Some(1),
        "no second translation"
    );
    assert_eq!(
        stats.value("velv_serve_fresh_solves_total"),
        Some(1),
        "no second solve"
    );
    assert_eq!(stats.value("velv_serve_cache_hits_total"), Some(1));
    service.shutdown();
}

#[test]
fn cached_and_fresh_counterexamples_are_identical() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let fresh = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    let cached = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(fresh.verdict.is_buggy());
    assert!(cached.verdict.is_buggy());
    assert!(cached.from_cache);
    let fresh_cex = fresh.verdict.counterexample().unwrap();
    let cached_cex = cached.verdict.counterexample().unwrap();
    assert_eq!(fresh_cex, cached_cex, "the cache returns the same evidence");
    service.shutdown();
}

#[test]
fn option_and_backend_flips_change_the_fingerprint() {
    let service = spin_service(1);
    let base = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    let lazy = {
        let mut spec = JobSpec::new(ModelRef::dlx1_correct());
        spec.options = spec.options.with_lazy_transitivity();
        service.submit(spec).expect("accepted")
    };
    let sato = {
        let mut spec = JobSpec::new(ModelRef::dlx1_correct());
        spec.backend = BackendChoice::Sat(velv_sat::presets::SolverKind::Sato);
        service.submit(spec).expect("accepted")
    };
    let twin = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    assert_ne!(base.fingerprint(), lazy.fingerprint());
    assert_ne!(base.fingerprint(), sato.fingerprint());
    assert_eq!(base.fingerprint(), twin.fingerprint());
    assert_ne!(
        service
            .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
            .expect("accepted")
            .fingerprint(),
        base.fingerprint()
    );
    service.shutdown();
}

#[test]
fn duplicate_submission_subscribes_to_the_running_job() {
    let service = spin_service(1);
    let first = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    assert_eq!(first.fingerprint(), second.fingerprint());
    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_dedup_joins_total"),
        Some(1),
        "second submission joined the first"
    );
    assert!(
        stats.value("velv_serve_translations_total").unwrap() <= 1,
        "no second translation scheduled"
    );
    // Dropping only one of the two claims must NOT cancel the job ...
    drop(second);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_cancelled_total"),
        Some(0)
    );
    // ... dropping the last one must.
    drop(first);
    wait_until("the deduplicated job to be cancelled", || {
        service
            .registry_snapshot()
            .value("velv_serve_cancelled_total")
            == Some(1)
    });
    service.shutdown();
}

#[test]
fn client_disconnect_cancels_the_running_job_and_frees_the_worker() {
    let service = spin_service(1);
    let ticket = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the job to start running", || {
        ticket.status() == JobStatus::Running
    });
    // The only client walks away: the spin engine must observe the raised
    // token promptly, the job must complete as cancelled, and the single
    // worker must become available again.
    drop(ticket);
    wait_until("the abandoned job to be cancelled", || {
        service
            .registry_snapshot()
            .value("velv_serve_cancelled_total")
            == Some(1)
    });
    let next = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    wait_until("the worker to pick up new work", || {
        next.status() == JobStatus::Running
    });
    let start = Instant::now();
    service.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must cancel the spinning worker promptly"
    );
    let result = next.wait();
    assert!(matches!(result.verdict, velv_core::Verdict::Unknown(_)));
}

#[test]
fn shutdown_resolves_queued_jobs_and_joins_workers() {
    let service = spin_service(1);
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(JobSpec::new(ModelRef::dlx1_bug(i)))
                .expect("accepted")
        })
        .collect();
    wait_until("the first job to start", || {
        tickets[0].status() == JobStatus::Running
    });
    let start = Instant::now();
    service.shutdown();
    assert!(start.elapsed() < Duration::from_secs(5), "prompt shutdown");
    for ticket in &tickets {
        let result = ticket.wait();
        assert!(matches!(result.verdict, velv_core::Verdict::Unknown(_)));
    }
    assert!(service.is_shut_down());
    assert!(matches!(
        service.submit(JobSpec::new(ModelRef::dlx1_correct())),
        Err(velv_serve::ServeError::ShutDown)
    ));
}

#[test]
fn priority_orders_the_queue() {
    let service = spin_service(1);
    // Park the worker, then queue a low- and a high-priority job.
    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    let low = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    let high = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(1)).with_priority(5))
        .expect("accepted");
    // Free the worker; the high-priority job must run first.
    drop(parked);
    wait_until("the high-priority job to start", || {
        high.status() == JobStatus::Running
    });
    assert_eq!(low.status(), JobStatus::Queued);
    service.shutdown();
}

#[test]
fn timeouts_yield_unknown_verdicts_that_are_not_cached() {
    let service = spin_service(2);
    let spec = JobSpec::new(ModelRef::dlx1_correct()).with_timeout(Duration::from_millis(100));
    let result = service.submit(spec.clone()).expect("accepted").wait();
    assert!(matches!(result.verdict, velv_core::Verdict::Unknown(_)));
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_translations_total"),
        Some(1)
    );
    // Undecided verdicts must not poison the cache: the retry translates
    // and solves again instead of returning the stale timeout.
    let retry = service.submit(spec).expect("accepted").wait();
    assert!(!retry.from_cache);
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_translations_total"),
        Some(2)
    );
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_cache_hits_total"),
        Some(0)
    );
    service.shutdown();
}

#[test]
fn batch_matches_single_submissions_and_shares_one_session() {
    let specs = |_| {
        vec![
            JobSpec::new(ModelRef::dlx1_correct()),
            JobSpec::new(ModelRef::dlx1_bug(0)),
            JobSpec::new(ModelRef::dlx1_bug(1)),
            // A within-batch duplicate: must deduplicate, not re-solve.
            JobSpec::new(ModelRef::dlx1_bug(0)),
        ]
    };
    // Batch service.
    let batch_service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let tickets = batch_service.submit_batch(specs(())).expect("accepted");
    let batch_results: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
    let stats = batch_service.registry_snapshot();
    assert_eq!(stats.value("velv_serve_batch_entries_total"), Some(4));
    assert_eq!(
        stats.value("velv_serve_batch_groups_total"),
        Some(1),
        "three unique entries, one session"
    );
    assert_eq!(
        stats.value("velv_serve_dedup_joins_total"),
        Some(1),
        "the duplicate subscribed"
    );
    assert_eq!(
        stats.value("velv_serve_translations_total"),
        Some(1),
        "one shared translation pass"
    );

    // Reference: the same specs submitted individually to a fresh service.
    let single_service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let single_results: Vec<_> = specs(())
        .into_iter()
        .map(|spec| single_service.submit(spec).expect("accepted").wait())
        .collect();

    for (batch, single) in batch_results.iter().zip(&single_results) {
        assert_eq!(
            batch.verdict.is_correct(),
            single.verdict.is_correct(),
            "batch and single verdicts must agree for {}",
            batch.name
        );
        assert_eq!(batch.verdict.is_buggy(), single.verdict.is_buggy());
    }
    assert!(batch_results[0].verdict.is_correct());
    assert!(batch_results[1].verdict.is_buggy());
    assert!(batch_results[2].verdict.is_buggy());
    assert!(batch_results[3].verdict.is_buggy());

    // A later single submission of a batch entry is a cache hit with the
    // same evidence.
    let replay = batch_service
        .submit(JobSpec::new(ModelRef::dlx1_bug(1)))
        .expect("accepted")
        .wait();
    assert!(replay.from_cache);
    assert_eq!(
        replay.verdict.counterexample(),
        batch_results[2].verdict.counterexample()
    );
    batch_service.shutdown();
    single_service.shutdown();
}

#[test]
fn decomposed_mode_verifies_through_the_shared_session() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let mut spec = JobSpec::new(ModelRef::dlx1_correct());
    spec.mode = SolveMode::Decomposed { max_obligations: 8 };
    let result = service.submit(spec).expect("accepted").wait();
    assert!(result.verdict.is_correct(), "{:?}", result.verdict);
    service.shutdown();
}

#[test]
fn keep_proof_stores_a_drat_artifact() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let mut spec = JobSpec::new(ModelRef::dlx1_correct());
    spec.keep_proof = true;
    let ticket = service.submit(spec).expect("accepted");
    let result = ticket.wait();
    assert!(result.verdict.is_correct());
    let entry = service
        .cached(ticket.fingerprint())
        .expect("the verdict is cached");
    let proof = entry.proof_drat.as_ref().expect("proof artifact stored");
    assert!(!proof.is_empty());
    let text = std::str::from_utf8(proof).expect("DRAT text is UTF-8");
    assert!(text.lines().last().unwrap_or("").trim_end().ends_with('0'));
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_proofs_kept_total"),
        Some(1)
    );
    service.shutdown();
}

#[test]
fn tiny_cache_evicts_under_byte_pressure() {
    let mut config = ServiceConfig::default().with_workers(2);
    // Room for roughly one entry: every new verdict displaces the old one.
    config.cache_bytes = 600;
    config.cache_shards = 1;
    let service = ServeHandle::start(config);
    for i in 0..2 {
        let result = service
            .submit(JobSpec::new(ModelRef::dlx1_bug(i)))
            .expect("accepted")
            .wait();
        assert!(result.verdict.is_buggy());
    }
    let stats = service.registry_snapshot();
    let count = |name| stats.value(name).unwrap();
    assert!(
        count("velv_serve_cache_evictions_total") + count("velv_serve_cache_oversize_total") >= 1,
        "byte pressure must evict or refuse: {:?}",
        stats.flat_fields()
    );
    assert!(count("velv_serve_cache_bytes") <= count("velv_serve_cache_capacity_bytes"));
    service.shutdown();
}

#[test]
fn rejected_batches_leave_no_stuck_fingerprints() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    // The second spec is invalid: the whole batch must fail atomically, and
    // the first spec's fingerprint must not be left in the in-flight table
    // (a later submission would otherwise subscribe to a job no worker will
    // ever run).
    let rejected = service.submit_batch(vec![
        JobSpec::new(ModelRef::dlx1_correct()),
        JobSpec::new(ModelRef::dlx1_bug(10_000)),
    ]);
    assert!(matches!(
        rejected,
        Err(velv_serve::ServeError::InvalidJob(_))
    ));
    let retry = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait_for(Duration::from_secs(60))
        .expect("the retried job must actually run");
    assert!(retry.verdict.is_correct());
    service.shutdown();
}

#[test]
fn resubmitting_an_abandoned_job_schedules_a_fresh_one() {
    let service = spin_service(1);
    // Park the worker so the next job stays queued.
    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    // Abandon a queued job: its cancel token is raised while it is still in
    // the in-flight table.
    let abandoned = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    drop(abandoned);
    // A new client submitting the identical spec must NOT subscribe to the
    // cancelled corpse — it gets a fresh job.
    let fresh = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_dedup_joins_total"),
        Some(0)
    );
    drop(parked);
    wait_until("the fresh job to start running", || {
        fresh.status() != JobStatus::Queued
    });
    service.shutdown();
}

#[test]
fn absurd_timeouts_degrade_to_no_deadline_instead_of_panicking() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let result = service
        .submit(
            JobSpec::new(ModelRef::dlx1_correct()).with_timeout(Duration::from_millis(u64::MAX)),
        )
        .expect("admission must not panic on deadline overflow")
        .wait();
    assert!(result.verdict.is_correct());
    service.shutdown();
}

#[test]
fn invalid_jobs_are_rejected_without_scheduling() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    assert!(matches!(
        service.submit(JobSpec::new(ModelRef::dlx1_bug(10_000))),
        Err(velv_serve::ServeError::InvalidJob(_))
    ));
    assert_eq!(
        service
            .registry_snapshot()
            .value("velv_serve_translations_total"),
        Some(0)
    );
    service.shutdown();
}
