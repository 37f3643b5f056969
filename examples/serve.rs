//! Serving verdicts in-process: start a verification service, sweep a batch
//! of buggy DLX variants through one shared incremental session, then sweep
//! it again to show the fingerprint-keyed verdict cache at work.
//!
//! Run with `cargo run --release --example serve`.

use std::time::Instant;
use velv::prelude::*;
use velv::velv_serve::{ServiceConfig, SolveMode};

fn sweep(service: &ServeHandle, specs: Vec<JobSpec>, label: &str) {
    let start = Instant::now();
    let tickets = service.submit_batch(specs).expect("batch accepted");
    println!("\n== {label} ==");
    println!(
        "{:<14} {:<8} {:>7} {:>12} {:>12}",
        "job", "verdict", "served", "wall", "solve"
    );
    for ticket in &tickets {
        let result = ticket.wait();
        let verdict = match &result.verdict {
            Verdict::Correct => "correct".to_owned(),
            Verdict::Buggy(cex) => format!("buggy/{}", cex.true_assignments().len()),
            Verdict::Unknown(reason) => format!("unknown[{reason}]"),
        };
        println!(
            "{:<14} {:<8} {:>7} {:>12?} {:>12?}",
            format!("{:.12}", ticket.fingerprint().to_hex()),
            verdict,
            if result.from_cache {
                "cache"
            } else if result.deduplicated {
                "dedup"
            } else {
                "solve"
            },
            result.wall,
            result.solve_time,
        );
    }
    println!(
        "{label}: {:?} wall for {} jobs",
        start.elapsed(),
        tickets.len()
    );
}

fn main() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(4));

    // A catalog slice: the correct single-issue DLX plus its first few buggy
    // variants, monolithic chaff jobs, plus one decomposed job.
    let catalog = || -> Vec<JobSpec> {
        let mut specs = vec![JobSpec::new(ModelRef::dlx1_correct())];
        for bug in 0..5 {
            specs.push(JobSpec::new(ModelRef::dlx1_bug(bug)));
        }
        let mut decomposed = JobSpec::new(ModelRef::dlx1_correct());
        decomposed.mode = SolveMode::Decomposed { max_obligations: 8 };
        specs.push(decomposed);
        specs
    };

    // Cold sweep: every fingerprint is new; the compatible entries share one
    // translation pass and one incremental solver.
    sweep(&service, catalog(), "cold sweep (fresh solves)");

    // Warm sweep: identical fingerprints — every verdict comes from the
    // cache without touching a translator or solver.
    sweep(&service, catalog(), "warm sweep (cache hits)");

    println!("\n== service counters ==");
    for (key, value) in service.registry_snapshot().flat_fields() {
        if key.starts_with("velv_serve_") && key.ends_with("_total") {
            println!("{key:<40} {value}");
        }
    }
    service.shutdown();
}
