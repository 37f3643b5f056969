//! Flight-recorder integration: arming the ring turns record production on
//! without a sink, the ring wraps at capacity, and dumps are well-formed
//! JSONL.  Lives in its own test binary because arming is process-global —
//! the disabled-overhead regression test must never share a process with an
//! armed recorder.

use std::path::PathBuf;

fn unique_tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("velv_obs_flight_{tag}_{}", std::process::id()))
}

#[test]
fn armed_ring_captures_spans_without_a_sink_and_dumps_jsonl() {
    assert!(
        !velv_obs::enabled(),
        "nothing armed or installed at process start"
    );
    velv_obs::flight::arm();
    assert!(velv_obs::flight::armed());
    assert!(
        velv_obs::enabled(),
        "arming the recorder turns record production on"
    );

    // Records land in the ring even though no sink is installed.
    {
        let _span = velv_obs::span("flight_test.work");
        velv_obs::event("flight_test.tick", &[("n", 1u64.into())]);
    }
    let snapshot = velv_obs::flight::snapshot();
    let joined = snapshot.join("\n");
    assert!(joined.contains("\"flight_test.work\""), "{joined}");
    assert!(joined.contains("\"flight_test.tick\""), "{joined}");
    for line in &snapshot {
        velv_obs::parse_trace_line(line).expect("ring records are valid flat JSON");
    }

    // With no dump directory configured, dump is a clean no-op.
    assert_eq!(velv_obs::flight::dump("no-dir").unwrap(), None);

    // Overflow the ring: only the newest FLIGHT_CAPACITY records survive,
    // oldest first.
    for index in 0..velv_obs::flight::FLIGHT_CAPACITY + 100 {
        velv_obs::event("flight_test.flood", &[("index", index.into())]);
    }
    let wrapped = velv_obs::flight::snapshot();
    assert_eq!(wrapped.len(), velv_obs::flight::FLIGHT_CAPACITY);
    assert!(
        !wrapped
            .iter()
            .any(|l| l.contains("\"index\":0,") || l.ends_with("\"index\":0}")),
        "the oldest flood records were overwritten"
    );

    // A dump names its trigger and replays the ring as parseable JSONL.
    let dir = unique_tmp_dir("dump");
    velv_obs::flight::set_dump_dir(Some(&dir));
    let path = velv_obs::flight::dump("unit-test")
        .expect("dump writes")
        .expect("dump directory is configured");
    assert!(path
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .starts_with("FLIGHT-"));
    let contents = std::fs::read_to_string(&path).unwrap();
    let mut lines = contents.lines();
    let header = velv_obs::parse_trace_line(lines.next().unwrap()).unwrap();
    assert_eq!(header.get("name"), Some("flight.dump"));
    assert_eq!(header.get("reason"), Some("unit-test"));
    for line in lines {
        velv_obs::parse_trace_line(line).expect("dump lines are valid flat JSON");
    }
    assert!(
        contents.contains("flight_test.flood"),
        "ring contents dumped"
    );

    // A span opened while only the ring is fed keeps its close out of a
    // sink installed mid-span: the sink never sees a close without its open.
    let sink = std::sync::Arc::new(velv_obs::MemorySink::new());
    let straddling = velv_obs::span("flight_test.straddle");
    velv_obs::install_sink(sink.clone());
    drop(straddling);
    {
        let _inside = velv_obs::span("flight_test.inside");
    }
    velv_obs::uninstall_sink();
    let captured = sink.contents();
    let summary = velv_obs::check_trace(&captured).expect("balanced capture");
    assert_eq!(summary.spans_opened, 1, "{captured}");
    assert_eq!(summary.spans_closed, 1, "{captured}");
    assert!(!captured.contains("flight_test.straddle"), "{captured}");

    // Disarming turns production back off (no sink is installed).
    velv_obs::flight::set_dump_dir(None);
    velv_obs::flight::disarm();
    assert!(!velv_obs::enabled());
    let _ = std::fs::remove_dir_all(&dir);
}
