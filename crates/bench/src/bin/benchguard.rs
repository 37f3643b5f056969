//! `benchguard` — a perf-regression gate over committed benchmark files.
//!
//! Two independent gates, each armed by its flag pair:
//!
//! * **Serving throughput** (`--baseline`/`--current`, `BENCH_serve.json`):
//!   fails (exit 1) when any shared sweep's `jobs_per_sec` falls below
//!   `min-ratio` of the baseline.  The ratio is deliberately generous by
//!   default (`0.10`): CI machines vary wildly, so the gate catches
//!   order-of-magnitude collapses (a lock left held, a busy-wait, an
//!   accidental serialization), not noise.
//! * **Peak heap** (`--cdcl-baseline`/`--cdcl-current`, `BENCH_cdcl.json`):
//!   fails when any shared `(instance, preset)` row's `peak_heap_bytes`
//!   exceeds `max-heap-ratio` (default `1.2`) of the committed baseline.
//!   Heap peaks are near-deterministic — unlike wall clock, a 20% ceiling is
//!   tight enough to catch a leaked arena or an unbounded learnt DB without
//!   flaking on machine speed.  Baseline rows with a zero or missing peak
//!   (older files) are skipped.
//!
//! ```text
//! benchguard [--baseline BENCH_serve.json --current /tmp/BENCH_serve.json [--min-ratio R]]
//!            [--cdcl-baseline BENCH_cdcl.json --cdcl-current /tmp/BENCH_cdcl.json [--max-heap-ratio R]]
//! ```
//!
//! Both files are read with `velv_obs::json`; the gates look up the
//! `"sweeps"` (or `"runs"`) array and the gated fields of each element.

use velv_obs::json::{self, Json};

/// One throughput sweep row: label plus measured rate.
#[derive(Debug, PartialEq)]
struct Sweep {
    label: String,
    jobs_per_sec: f64,
}

/// One CDCL benchmark row: `(instance, preset)` key plus its peak heap bytes.
#[derive(Debug, PartialEq)]
struct HeapRow {
    key: String,
    peak_heap_bytes: f64,
}

/// Parses `text` and returns the elements of its top-level array `key`;
/// a missing or empty array is an error.
fn rows(text: &str, key: &str) -> Result<Vec<Json>, String> {
    let rows = match json::parse(text).map_err(|e| e.to_string())? {
        Json::Object(mut doc) => doc.remove(key),
        _ => None,
    };
    let Some(Json::Array(rows)) = rows else {
        return Err(format!("no \"{key}\" array"));
    };
    if rows.is_empty() {
        return Err(format!("empty \"{key}\" array"));
    }
    Ok(rows)
}

/// A string field of a row, or an error naming the row.
fn field_str(row: &Json, key: &str) -> Result<String, String> {
    row.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("row without {key}: {row:?}"))
}

/// The `sweeps` rows of a `BENCH_serve.json` document.
fn read_sweeps(text: &str) -> Result<Vec<Sweep>, String> {
    rows(text, "sweeps")?
        .iter()
        .map(|row| {
            Ok(Sweep {
                label: field_str(row, "label")?,
                jobs_per_sec: row
                    .get("jobs_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("sweep without jobs_per_sec: {row:?}"))?,
            })
        })
        .collect()
}

/// The `(instance, preset, peak_heap_bytes)` rows of a `BENCH_cdcl.json`
/// document; a missing peak reads as 0 (the gate skips such rows).
fn read_heap_rows(text: &str) -> Result<Vec<HeapRow>, String> {
    rows(text, "runs")?
        .iter()
        .map(|row| {
            Ok(HeapRow {
                key: format!(
                    "{} [{}]",
                    field_str(row, "instance")?,
                    field_str(row, "preset")?
                ),
                peak_heap_bytes: row
                    .get("peak_heap_bytes")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            })
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: benchguard [--baseline BENCH_serve.json --current BENCH_serve.json [--min-ratio R]] \
         [--cdcl-baseline BENCH_cdcl.json --cdcl-current BENCH_cdcl.json [--max-heap-ratio R]]"
    );
    std::process::exit(2);
}

/// Reads `path` with `read`, exiting 2 on a missing or malformed file.
fn load<T>(path: &str, read: fn(&str) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchguard: cannot read {path}: {e}");
        std::process::exit(2);
    });
    read(&text).unwrap_or_else(|e| {
        eprintln!("benchguard: {path}: {e}");
        std::process::exit(2);
    })
}

/// The serving-throughput gate; returns `true` on regression.
fn gate_sweeps(baseline_path: &str, current_path: &str, min_ratio: f64) -> bool {
    let baseline = load(baseline_path, read_sweeps);
    let current = load(current_path, read_sweeps);
    let mut failed = false;
    let mut compared = 0;
    for base in &baseline {
        // Smoke runs may carry fewer sweeps than a full baseline; gate only
        // on the labels both files measured.
        let Some(cur) = current.iter().find(|s| s.label == base.label) else {
            println!(
                "benchguard: {:<16} baseline {:>10.2} jobs/s, not measured in current run (skipped)",
                base.label, base.jobs_per_sec
            );
            continue;
        };
        compared += 1;
        let floor = base.jobs_per_sec * min_ratio;
        let verdict = if cur.jobs_per_sec >= floor {
            "ok"
        } else {
            failed = true;
            "REGRESSION"
        };
        println!(
            "benchguard: {:<16} baseline {:>10.2} jobs/s, current {:>10.2} jobs/s, floor {:>10.2} ({verdict})",
            base.label, base.jobs_per_sec, cur.jobs_per_sec, floor
        );
    }
    if compared == 0 {
        eprintln!("benchguard: no sweep label is shared between baseline and current");
        std::process::exit(2);
    }
    if failed {
        eprintln!(
            "benchguard: serving throughput regressed below {min_ratio} of the committed baseline"
        );
    } else {
        println!("benchguard: {compared} sweep(s) within bounds");
    }
    failed
}

/// The peak-heap gate; returns `true` on regression.
fn gate_heap(baseline_path: &str, current_path: &str, max_ratio: f64) -> bool {
    let baseline = load(baseline_path, read_heap_rows);
    let current = load(current_path, read_heap_rows);
    let mut failed = false;
    let mut compared = 0;
    for base in &baseline {
        if base.peak_heap_bytes <= 0.0 {
            continue; // older baseline without memory columns
        }
        // Smoke runs cover fewer instances than a full baseline; gate only
        // on the rows both files measured.
        let Some(cur) = current.iter().find(|r| r.key == base.key) else {
            continue;
        };
        compared += 1;
        let ceiling = base.peak_heap_bytes * max_ratio;
        let verdict = if cur.peak_heap_bytes <= ceiling {
            "ok"
        } else {
            failed = true;
            "HEAP REGRESSION"
        };
        println!(
            "benchguard: {:<44} baseline {:>12.0} B, current {:>12.0} B, ceiling {:>12.0} ({verdict})",
            base.key, base.peak_heap_bytes, cur.peak_heap_bytes, ceiling
        );
    }
    if compared == 0 {
        eprintln!("benchguard: no heap-measured row is shared between baseline and current");
        std::process::exit(2);
    }
    if failed {
        eprintln!(
            "benchguard: peak heap exceeded {max_ratio}x of the committed baseline on some row"
        );
    } else {
        println!("benchguard: {compared} heap row(s) within the {max_ratio}x ceiling");
    }
    failed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut min_ratio = 0.10f64;
    let mut cdcl_baseline_path = None;
    let mut cdcl_current_path = None;
    let mut max_heap_ratio = 1.2f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--baseline" => baseline_path = Some(value()),
            "--current" => current_path = Some(value()),
            "--min-ratio" => match value().parse::<f64>() {
                Ok(r) if r > 0.0 && r <= 1.0 => min_ratio = r,
                _ => usage(),
            },
            "--cdcl-baseline" => cdcl_baseline_path = Some(value()),
            "--cdcl-current" => cdcl_current_path = Some(value()),
            "--max-heap-ratio" => match value().parse::<f64>() {
                Ok(r) if r >= 1.0 => max_heap_ratio = r,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let serve_pair = match (baseline_path, current_path) {
        (Some(b), Some(c)) => Some((b, c)),
        (None, None) => None,
        _ => usage(),
    };
    let cdcl_pair = match (cdcl_baseline_path, cdcl_current_path) {
        (Some(b), Some(c)) => Some((b, c)),
        (None, None) => None,
        _ => usage(),
    };
    if serve_pair.is_none() && cdcl_pair.is_none() {
        usage();
    }

    let mut failed = false;
    if let Some((baseline, current)) = &serve_pair {
        failed |= gate_sweeps(baseline, current, min_ratio);
    }
    if let Some((baseline, current)) = &cdcl_pair {
        failed |= gate_heap(baseline, current, max_heap_ratio);
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "harness": "satbench-serve",
      "sweeps": [
        {"label": "cold-batch", "jobs": 13, "seconds": 0.1, "jobs_per_sec": 88.46},
        {"label": "warm-batch", "jobs": 13, "seconds": 0.01, "jobs_per_sec": 1435.21}
      ],
      "persist": [{"label": "not-a-sweep", "records_per_sec": 1.0}]
    }"#;

    #[test]
    fn sweeps_parse_labels_and_rates() {
        let sweeps = read_sweeps(DOC).expect("parses");
        assert_eq!(sweeps.len(), 2, "the persist array is not scanned");
        assert_eq!(sweeps[0].label, "cold-batch");
        assert!((sweeps[0].jobs_per_sec - 88.46).abs() < 1e-9);
        assert_eq!(sweeps[1].label, "warm-batch");
        assert!((sweeps[1].jobs_per_sec - 1435.21).abs() < 1e-9);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(read_sweeps("{}").is_err());
        assert!(read_sweeps("{\"sweeps\": []}").is_err());
        assert!(read_sweeps("{\"sweeps\": [{\"label\": \"x\"}]}").is_err());
    }

    const CDCL_DOC: &str = r#"{
      "harness": "satbench",
      "runs": [
        {"preset": "chaff", "instance": "php-7-6", "peak_heap_bytes": 123456,
         "metrics": {"velv_sat_conflicts": 42, "mem_scope_alloc_bytes_sat.arena": 9000}},
        {"preset": "grasp", "instance": "php-7-6", "time_s": 0.5}
      ]
    }"#;

    #[test]
    fn heap_rows_survive_the_nested_metrics_object() {
        let rows = read_heap_rows(CDCL_DOC).expect("parses");
        assert_eq!(rows.len(), 2, "the nested metrics braces are not rows");
        assert_eq!(rows[0].key, "php-7-6 [chaff]");
        assert!((rows[0].peak_heap_bytes - 123456.0).abs() < 1e-9);
        assert_eq!(rows[1].key, "php-7-6 [grasp]");
        assert_eq!(
            rows[1].peak_heap_bytes, 0.0,
            "a missing peak reads as zero and is skipped by the gate"
        );
    }

    #[test]
    fn malformed_cdcl_documents_are_rejected() {
        assert!(read_heap_rows("{}").is_err());
        assert!(read_heap_rows("{\"runs\": []}").is_err());
        assert!(read_heap_rows("{\"runs\": [{\"preset\": \"chaff\"}]}").is_err());
        assert!(read_heap_rows("{\"runs\": [{\"preset\": \"x\", \"instance\": \"y\"}").is_err());
    }

    /// The committed baselines CI gates on load through the same readers.
    #[test]
    fn committed_baselines_load() {
        let serve = read_sweeps(include_str!("../../../../BENCH_serve.json")).expect("serve");
        let labels: Vec<&str> = serve.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["cold-batch", "warm-batch", "warm-concurrent"]);
        assert!(serve.iter().all(|s| s.jobs_per_sec > 0.0));

        let cdcl_text = include_str!("../../../../BENCH_cdcl.json");
        let runs = rows(cdcl_text, "runs").expect("runs");
        let heap = read_heap_rows(cdcl_text).expect("cdcl");
        assert_eq!(heap.len(), runs.len());
        for (row, run) in heap.iter().zip(&runs) {
            let expected = format!(
                "{} [{}]",
                run.get("instance").and_then(Json::as_str).unwrap(),
                run.get("preset").and_then(Json::as_str).unwrap()
            );
            assert_eq!(row.key, expected);
            assert!(row.peak_heap_bytes > 0.0, "{}", row.key);
        }
    }
}
