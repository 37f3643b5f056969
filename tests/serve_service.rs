//! Tier-1 smoke of the serving layer through the umbrella crate: cached
//! verdicts equal fresh ones, identical re-submissions never re-translate or
//! re-solve, and batch scheduling agrees with single submissions.

use velv::prelude::*;
use velv::velv_serve::ServiceConfig;

#[test]
fn serving_layer_end_to_end() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));

    // Fresh solve, then a cache hit with identical evidence.
    let fresh = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(fresh.verdict.is_buggy());
    let cached = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(cached.from_cache);
    assert_eq!(
        fresh.verdict.counterexample(),
        cached.verdict.counterexample()
    );
    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_translations_total"),
        Some(1),
        "the cache hit translated nothing"
    );
    assert_eq!(
        stats.value("velv_serve_fresh_solves_total"),
        Some(1),
        "the cache hit solved nothing"
    );

    // A batch over the catalog: one shared session, verdicts as expected.
    let tickets = service
        .submit_batch(vec![
            JobSpec::new(ModelRef::dlx1_correct()),
            JobSpec::new(ModelRef::dlx1_bug(1)),
            JobSpec::new(ModelRef::dlx1_bug(0)), // cached from above
        ])
        .expect("accepted");
    let results: Vec<JobResult> = tickets.iter().map(|t| t.wait()).collect();
    assert!(results[0].verdict.is_correct());
    assert!(results[1].verdict.is_buggy());
    assert!(results[2].verdict.is_buggy());
    assert!(results[2].from_cache, "the batch reused the cached verdict");

    let stats = service.registry_snapshot();
    assert_eq!(stats.value("velv_serve_cache_hits_total"), Some(2));
    assert!(stats.value("velv_serve_cache_entries").unwrap() >= 3);
    service.shutdown();
}
