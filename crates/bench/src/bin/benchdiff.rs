//! `benchdiff` — regression attribution between two `BENCH_cdcl.json` files.
//!
//! Compares a baseline and a current benchmark file row by row (keyed by
//! `(instance, preset)`), ranks the deltas by significance, and for the rows
//! that moved names the per-run registry counters that moved with them — so
//! a throughput regression points at *which* engine counter changed, not
//! just that the wall clock did.
//!
//! ```text
//! benchdiff BASELINE.json CURRENT.json [--threshold PCT] [--out PATH]
//! ```
//!
//! A row is *significant* when its time, conflicts-per-second or peak heap
//! bytes moved by more than the threshold (default 5%), or its result label
//! changed — a memory regression ranks exactly like a throughput regression.  Rows
//! present in only one file are reported as added/removed.  The tool is
//! informational: it always exits 0 on a successful comparison (CI uploads
//! its output as an artifact rather than gating on it), and exits nonzero
//! only when an input cannot be read or parsed.

use std::collections::BTreeMap;
use velv_obs::json::{self, Json};

/// One benchmark row, as read from a `runs` array entry.
#[derive(Clone, Debug)]
struct Row {
    result: String,
    time_s: f64,
    conflicts: f64,
    conflicts_per_sec: f64,
    propagations_per_sec: f64,
    peak_heap_bytes: f64,
    metrics: BTreeMap<String, f64>,
}

/// The comparison of one `(instance, preset)` row across the two files.
struct Delta {
    key: String,
    baseline: Row,
    current: Row,
    /// Largest relative movement across time and throughput, in [0, inf).
    significance: f64,
    result_changed: bool,
}

fn usage() -> ! {
    eprintln!("usage: benchdiff BASELINE.json CURRENT.json [--threshold PCT] [--out PATH]");
    std::process::exit(2);
}

fn load(path: &str) -> BTreeMap<String, Row> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let runs = doc.get("runs").and_then(Json::as_array).unwrap_or_else(|| {
        eprintln!("benchdiff: {path} has no `runs` array (is it a BENCH_cdcl file?)");
        std::process::exit(1);
    });
    let mut rows = BTreeMap::new();
    for run in runs {
        let field = |name: &str| run.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        let text_field = |name: &str| {
            run.get(name)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned()
        };
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .map(|map| {
                map.iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect()
            })
            .unwrap_or_default();
        let key = format!("{} [{}]", text_field("instance"), text_field("preset"));
        rows.insert(
            key,
            Row {
                result: text_field("result"),
                time_s: field("time_s"),
                conflicts: field("conflicts"),
                conflicts_per_sec: field("conflicts_per_sec"),
                propagations_per_sec: field("propagations_per_sec"),
                peak_heap_bytes: field("peak_heap_bytes"),
                metrics,
            },
        );
    }
    rows
}

/// Relative movement of `current` against `baseline`, signed; 0 when the
/// baseline is 0 (nothing meaningful to divide by).
fn rel(baseline: f64, current: f64) -> f64 {
    if baseline.abs() < 1e-12 {
        0.0
    } else {
        (current - baseline) / baseline
    }
}

fn percent(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// The registry counters of a row that moved by more than `threshold`,
/// ranked by relative movement, largest first.
fn moved_counters(baseline: &Row, current: &Row, threshold: f64) -> Vec<(String, f64, f64, f64)> {
    let mut moved = Vec::new();
    let keys: std::collections::BTreeSet<&String> = baseline
        .metrics
        .keys()
        .chain(current.metrics.keys())
        .collect();
    for key in keys {
        let old = baseline.metrics.get(key).copied().unwrap_or(0.0);
        let new = current.metrics.get(key).copied().unwrap_or(0.0);
        let movement = if old.abs() < 1e-12 && new.abs() < 1e-12 {
            0.0
        } else if old.abs() < 1e-12 {
            f64::INFINITY // appeared
        } else {
            rel(old, new).abs()
        };
        if movement > threshold {
            moved.push((key.clone(), old, new, movement));
        }
    }
    moved.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal));
    moved
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// The JSON report object of one flagged row.
fn report_entry(
    delta: &Delta,
    time: f64,
    confl: f64,
    heap: f64,
    moved: &[(String, f64, f64, f64)],
) -> String {
    let counters: Vec<String> = moved
        .iter()
        .take(8)
        .map(|(name, old, new, _)| {
            format!(
                "{{\"name\": {}, \"baseline\": {old}, \"current\": {new}}}",
                quoted(name)
            )
        })
        .collect();
    format!(
        "    {{\"row\": {}, \"result_changed\": {}, \"time_rel\": {time:.4}, \
         \"conflicts_per_sec_rel\": {confl:.4}, \"peak_heap_rel\": {heap:.4}, \
         \"moved_counters\": [{}]}}",
        quoted(&delta.key),
        delta.result_changed,
        counters.join(", ")
    )
}

/// The `--out` report document.
fn render_report(
    baseline_path: &str,
    current_path: &str,
    threshold: f64,
    entries: &[String],
    added: &[String],
    removed: &[String],
) -> String {
    let list = |keys: &[String]| {
        keys.iter()
            .map(|k| quoted(k))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let deltas = if entries.is_empty() {
        String::new()
    } else {
        format!("{}\n", entries.join(",\n"))
    };
    format!(
        "{{\n  \"baseline\": {},\n  \"current\": {},\n  \"threshold\": {threshold},\n  \
         \"deltas\": [\n{deltas}  ],\n  \"added\": [{}],\n  \"removed\": [{}]\n}}\n",
        quoted(baseline_path),
        quoted(current_path),
        list(added),
        list(removed)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut threshold = 0.05;
    let mut out_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => threshold = pct / 100.0,
                _ => usage(),
            },
            "--out" => match iter.next() {
                Some(path) => out_path = Some(path.clone()),
                None => usage(),
            },
            _ if arg.starts_with("--") => usage(),
            _ => positional.push(arg.clone()),
        }
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        usage();
    };

    let baseline = load(baseline_path);
    let current = load(current_path);

    let mut deltas = Vec::new();
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (key, row) in &current {
        match baseline.get(key) {
            None => added.push(key.clone()),
            Some(base) => {
                let significance = [
                    rel(base.time_s, row.time_s).abs(),
                    rel(base.conflicts_per_sec, row.conflicts_per_sec).abs(),
                    rel(base.propagations_per_sec, row.propagations_per_sec).abs(),
                    rel(base.peak_heap_bytes, row.peak_heap_bytes).abs(),
                ]
                .into_iter()
                .fold(0.0, f64::max);
                deltas.push(Delta {
                    key: key.clone(),
                    baseline: base.clone(),
                    current: row.clone(),
                    significance,
                    result_changed: base.result != row.result,
                });
            }
        }
    }
    for key in baseline.keys() {
        if !current.contains_key(key) {
            removed.push(key.clone());
        }
    }

    // Result flips first (a verdict change dwarfs any throughput delta),
    // then by relative movement.
    deltas.sort_by(|a, b| {
        b.result_changed.cmp(&a.result_changed).then(
            b.significance
                .partial_cmp(&a.significance)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });

    println!("benchdiff: {baseline_path} -> {current_path}");
    println!(
        "{} common rows, {} added, {} removed, threshold {:.1}%",
        deltas.len(),
        added.len(),
        removed.len(),
        threshold * 100.0
    );
    let mut entries = Vec::new();
    for delta in &deltas {
        let flagged = delta.result_changed || delta.significance > threshold;
        if !flagged {
            continue;
        }
        let time = rel(delta.baseline.time_s, delta.current.time_s);
        let confl = rel(
            delta.baseline.conflicts_per_sec,
            delta.current.conflicts_per_sec,
        );
        let heap = rel(
            delta.baseline.peak_heap_bytes,
            delta.current.peak_heap_bytes,
        );
        let marker = if delta.result_changed {
            " RESULT CHANGED"
        } else if heap.abs() > threshold && heap.abs() >= time.abs() {
            if heap > 0.0 {
                " more memory"
            } else {
                " less memory"
            }
        } else if time > 0.0 {
            " slower"
        } else {
            " faster"
        };
        println!(
            "  {:<44} time {} confl/s {} heap {}{}",
            delta.key,
            percent(time),
            percent(confl),
            percent(heap),
            marker
        );
        if heap.abs() > threshold {
            println!(
                "    peak heap: {:.0} -> {:.0} bytes",
                delta.baseline.peak_heap_bytes, delta.current.peak_heap_bytes
            );
        }
        if delta.result_changed {
            println!(
                "    result: {} -> {}",
                delta.baseline.result, delta.current.result
            );
        }
        if delta.baseline.conflicts != delta.current.conflicts {
            // A changed conflict count means the search trajectory itself
            // moved, not just the machine's speed.
            println!(
                "    conflicts: {:.0} -> {:.0} (trajectory changed)",
                delta.baseline.conflicts, delta.current.conflicts
            );
        }
        let moved = moved_counters(&delta.baseline, &delta.current, threshold);
        for (name, old, new, _) in moved.iter().take(4) {
            println!("    counter {name}: {old:.0} -> {new:.0}");
        }
        if moved.len() > 4 {
            println!("    ... and {} more moved counters", moved.len() - 4);
        }
        entries.push(report_entry(delta, time, confl, heap, &moved));
    }
    if entries.is_empty() {
        println!("  no row moved beyond the threshold");
    }
    for key in &added {
        println!("  added   {key}");
    }
    for key in &removed {
        println!("  removed {key}");
    }
    if let Some(path) = out_path {
        let report = render_report(
            baseline_path,
            current_path,
            threshold,
            &entries,
            &added,
            &removed,
        );
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("benchdiff: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_escape_paths_and_row_keys() {
        let path = r#"runs/"quoted"\back\slash.json"#;
        let key = r#"odd "instance"\name [chaff]"#.to_owned();
        let row = Row {
            result: "unsat".to_owned(),
            time_s: 1.0,
            conflicts: 10.0,
            conflicts_per_sec: 10.0,
            propagations_per_sec: 100.0,
            peak_heap_bytes: 1000.0,
            metrics: BTreeMap::from([(r#"c{preset="chaff"}"#.to_owned(), 10.0)]),
        };
        let delta = Delta {
            key: key.clone(),
            baseline: row.clone(),
            current: row,
            significance: 0.5,
            result_changed: false,
        };
        let moved = vec![(r#"c{preset="chaff"}"#.to_owned(), 10.0, 20.0, 1.0)];
        let entries = vec![report_entry(&delta, 0.5, -0.1, 0.0, &moved)];
        let keys = std::slice::from_ref(&key);
        let report = render_report(path, path, 0.05, &entries, keys, keys);
        let doc = json::parse(&report).expect("the report is valid JSON");
        assert_eq!(doc.get("baseline").and_then(Json::as_str), Some(path));
        assert_eq!(doc.get("current").and_then(Json::as_str), Some(path));
        for list in ["added", "removed"] {
            let items = doc.get(list).and_then(Json::as_array).unwrap();
            assert_eq!(items[0].as_str(), Some(key.as_str()));
        }
        let delta = &doc.get("deltas").and_then(Json::as_array).unwrap()[0];
        assert_eq!(delta.get("row").and_then(Json::as_str), Some(key.as_str()));
        let counter = &delta
            .get("moved_counters")
            .and_then(Json::as_array)
            .unwrap()[0];
        assert_eq!(
            counter.get("name").and_then(Json::as_str),
            Some(r#"c{preset="chaff"}"#)
        );

        let empty = render_report("a", "b", 0.05, &[], &[], &[]);
        assert!(json::parse(&empty).is_ok(), "{empty}");
    }
}
