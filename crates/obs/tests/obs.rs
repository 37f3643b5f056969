//! Integration tests for `velv_obs`: histogram bucket boundaries, a seeded
//! multi-thread counter hammer, tracer span nesting, and the
//! disabled-subscriber overhead guard.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use velv_obs::{check_trace, MemorySink, Registry};

/// Tests that install a trace sink serialize on this lock: the sink slot and
/// the `enabled` flag are process-global.
fn tracer_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper_edges() {
    let registry = Registry::new();
    let h = registry.histogram("t_micros", "T.", &[10, 100, 1000]);
    // Exactly on a bound lands in that bound's bucket; one past it spills
    // into the next.
    for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
        h.observe(v);
    }
    let snapshot = h.snapshot();
    assert_eq!(snapshot.bounds, vec![10, 100, 1000]);
    assert_eq!(snapshot.counts, vec![2, 2, 2, 2]);
    assert_eq!(snapshot.count, 8);
    // The Prometheus encoding is cumulative.
    let text = registry.snapshot().prometheus_text();
    assert!(text.contains("t_micros_bucket{le=\"10\"} 2"), "{text}");
    assert!(text.contains("t_micros_bucket{le=\"100\"} 4"), "{text}");
    assert!(text.contains("t_micros_bucket{le=\"1000\"} 6"), "{text}");
    assert!(text.contains("t_micros_bucket{le=\"+Inf\"} 8"), "{text}");
    velv_obs::validate_prometheus_text(&text).unwrap();
}

#[test]
fn concurrent_counter_hammer_sums_exactly() {
    // Seeded: each of 8 threads adds a deterministic pseudo-random sequence;
    // the counter must end at exactly the precomputed total.
    let registry = Registry::new();
    let counter = registry.counter("hammer_total", "Hammered.");
    let threads = 8;
    let iterations = 20_000u64;
    let mut expected = 0u64;
    for t in 0..threads {
        let mut state = 0x9e3779b97f4a7c15u64 ^ t;
        for _ in 0..iterations {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            expected += state % 7;
        }
    }
    std::thread::scope(|scope| {
        for t in 0..threads {
            let counter = counter.clone();
            scope.spawn(move || {
                let mut state = 0x9e3779b97f4a7c15u64 ^ t;
                for _ in 0..iterations {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    counter.add(state % 7);
                }
            });
        }
    });
    assert_eq!(counter.get(), expected);
    assert_eq!(registry.snapshot().value("hammer_total"), Some(expected));
}

#[test]
fn concurrent_histogram_observations_are_not_lost() {
    let h = velv_obs::Histogram::detached(&[8, 64]);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let h = h.clone();
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    h.observe((i + t) % 100);
                }
            });
        }
    });
    let snapshot = h.snapshot();
    assert_eq!(snapshot.count, 40_000);
    assert_eq!(snapshot.counts.iter().sum::<u64>(), 40_000);
}

#[test]
fn spans_nest_and_balance() {
    let _guard = tracer_lock().lock().unwrap();
    let sink = Arc::new(MemorySink::new());
    velv_obs::install_sink(sink.clone());
    {
        let outer = velv_obs::span("obs_test.outer");
        assert_ne!(outer.id(), 0);
        assert_eq!(velv_obs::current_span_id(), outer.id());
        {
            let inner = velv_obs::span_fields(
                "obs_test.inner",
                &[("round", 3u64.into()), ("label", "x".into())],
            );
            assert_eq!(velv_obs::current_span_id(), inner.id());
            velv_obs::event("obs_test.tick", &[("n", 1u64.into())]);
        }
        assert_eq!(velv_obs::current_span_id(), outer.id());
    }
    velv_obs::uninstall_sink();

    let text = sink.contents();
    let summary = check_trace(&text).expect("well-formed trace");
    assert!(summary.spans_opened >= 2);
    assert_eq!(summary.spans_opened, summary.spans_closed);
    assert_eq!(summary.unclosed, 0);

    // Find our spans and verify the parent chain (other tests may have
    // emitted records concurrently; filter by name).
    let records: Vec<velv_obs::TraceRecord> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| velv_obs::parse_trace_line(l).unwrap())
        .collect();
    let outer_open = records
        .iter()
        .find(|r| r.kind() == "span_open" && r.get("name") == Some("obs_test.outer"))
        .expect("outer open record");
    let inner_open = records
        .iter()
        .find(|r| r.kind() == "span_open" && r.get("name") == Some("obs_test.inner"))
        .expect("inner open record");
    assert_eq!(inner_open.get_u64("parent"), outer_open.get_u64("id"));
    assert_eq!(inner_open.get("round"), Some("3"));
    assert_eq!(inner_open.get("label"), Some("x"));
    let tick = records
        .iter()
        .find(|r| r.kind() == "event" && r.get("name") == Some("obs_test.tick"))
        .expect("event record");
    assert_eq!(tick.get_u64("parent"), inner_open.get_u64("id"));
}

#[test]
fn explicit_parent_spans_cross_threads() {
    let _guard = tracer_lock().lock().unwrap();
    let sink = Arc::new(MemorySink::new());
    velv_obs::install_sink(sink.clone());
    let root = velv_obs::span("obs_test.cross_root");
    let parent = velv_obs::current_span_id();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _child = velv_obs::span_child_of("obs_test.cross_child", parent, &[]);
        });
    });
    drop(root);
    velv_obs::uninstall_sink();
    let text = sink.contents();
    check_trace(&text).expect("well-formed trace");
    let records: Vec<velv_obs::TraceRecord> = text
        .lines()
        .map(|l| velv_obs::parse_trace_line(l).unwrap())
        .collect();
    let root_open = records
        .iter()
        .find(|r| r.kind() == "span_open" && r.get("name") == Some("obs_test.cross_root"))
        .unwrap();
    let child_open = records
        .iter()
        .find(|r| r.kind() == "span_open" && r.get("name") == Some("obs_test.cross_child"))
        .unwrap();
    assert_eq!(child_open.get_u64("parent"), root_open.get_u64("id"));
    assert_ne!(child_open.get("thread"), root_open.get("thread"));
}

#[test]
fn disabled_subscriber_overhead_stays_branch_cheap() {
    // No sink installed: a million span+counter+event rounds must stay far
    // under a second (each round is one atomic load per tracer call plus one
    // counter fetch_add).  The bound is generous to keep CI unflaky; the
    // point is catching an accidental allocation or lock on the disabled
    // path, which would blow past it by an order of magnitude.
    let _guard = tracer_lock().lock().unwrap();
    assert!(!velv_obs::enabled(), "no sink may be installed here");
    let counter = velv_obs::Counter::detached();
    let start = Instant::now();
    for i in 0..1_000_000u64 {
        let _span = velv_obs::span("obs_test.disabled");
        velv_obs::event("obs_test.disabled_event", &[]);
        counter.add(i & 1);
    }
    let elapsed = start.elapsed();
    assert_eq!(counter.get(), 500_000);
    assert!(
        elapsed < Duration::from_secs(1),
        "disabled-path overhead too high: {elapsed:?} for 1M rounds"
    );
}
