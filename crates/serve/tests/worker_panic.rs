//! Worker-panic containment, in its own process: the test arms the
//! process-global `serve.worker.run` failpoint, which any concurrently
//! running job would consume — integration test binaries run one per
//! process, so isolating the file isolates the failpoint.

use velv_serve::{JobSpec, ModelRef, ServeHandle, ServiceConfig};
use velv_store::{failpoint, FailAction};

#[test]
fn a_panicking_worker_yields_an_error_verdict_and_the_pool_keeps_serving() {
    // A panicking worker must dump the flight ring; point the dumps at a
    // scratch directory so the test can inspect them.
    let dump_dir = std::env::temp_dir().join(format!("velv-flight-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("create flight dump dir");
    velv_obs::flight::set_dump_dir(Some(dump_dir.as_path()));

    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));

    // The next job a worker picks up panics mid-run (one-shot trigger).
    failpoint::global().arm("serve.worker.run", 0, FailAction::Panic);
    let poisoned = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    match &poisoned.verdict {
        velv_core::Verdict::Unknown(reason) => {
            assert!(reason.contains("panicked"), "{reason}");
        }
        other => panic!("a panicked job must resolve unknown, got {other:?}"),
    }
    let stats = service.registry_snapshot();
    assert_eq!(stats.value("velv_serve_worker_panics_total"), Some(1));
    assert_eq!(
        stats.value("velv_serve_verdicts_persisted_total"),
        Some(0),
        "panic verdicts are never persisted"
    );

    // The dump landed before the panic verdict was delivered, so it is
    // already on disk here — and it holds the panicking job's span.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dump_dir)
        .expect("read dump dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("FLIGHT-") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(!dumps.is_empty(), "the worker panic produced a flight dump");
    let contents = dumps
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("read flight dump"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        contents.contains("\"flight.dump\"") && contents.contains("worker-panic"),
        "the dump header records the trigger: {contents}"
    );
    assert!(
        contents.contains("\"serve.job\""),
        "the dump contains the panicking job's span: {contents}"
    );
    velv_obs::flight::set_dump_dir(None);
    let _ = std::fs::remove_dir_all(&dump_dir);

    // The panic took neither the worker pool nor the cache integrity with
    // it: the identical resubmission runs fresh (nothing was cached) and
    // decides correctly on the same workers.
    let retry = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(retry.verdict.is_correct(), "{:?}", retry.verdict);
    assert!(!retry.from_cache, "the panic left nothing in the cache");
    let stats = service.registry_snapshot();
    assert_eq!(
        stats.value("velv_serve_worker_panics_total"),
        Some(1),
        "the trigger was one-shot"
    );
    assert_eq!(stats.value("velv_serve_fresh_solves_total"), Some(1));
    assert_eq!(stats.value("velv_serve_cache_hits_total"), Some(0));

    // And the cache works again after the incident.
    let warm = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(warm.from_cache);
    service.shutdown();
}
