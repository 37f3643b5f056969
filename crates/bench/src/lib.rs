//! Shared infrastructure for the experiment harness that reproduces the
//! tables and figures of Velev & Bryant (DAC 2001 / JSC 2003).
//!
//! Each binary in `src/bin/` regenerates one table or figure: it builds the
//! relevant benchmark designs, runs the verification flow with the appropriate
//! options and back ends, and prints the measured values next to the values
//! reported in the paper together with a qualitative PASS/CHECK verdict on the
//! shape (who wins, by roughly what factor).
//!
//! Absolute times are not comparable to the paper's 336 MHz Sun4: the designs
//! here are scaled down and the machine is different.  The suite sizes default
//! to a scaled-down number of buggy variants so that every binary finishes in
//! seconds; set `VELV_FULL=1` to run the full 100-variant suites.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};
use velv_core::{TranslationOptions, Verdict, Verifier};
use velv_hdl::Processor;
use velv_sat::{Budget, Solver};

/// Number of buggy variants to run per suite (scaled down unless `VELV_FULL=1`).
pub fn suite_size(full_size: usize) -> usize {
    if std::env::var("VELV_FULL").is_ok_and(|v| v == "1") {
        full_size
    } else {
        full_size.min(12)
    }
}

/// Result of one verification run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Name of the design / obligation.
    pub name: String,
    /// Outcome.
    pub verdict_correct: bool,
    /// Whether a counterexample was produced.
    pub verdict_buggy: bool,
    /// Wall-clock time.
    pub time: Duration,
}

/// Verifies one design with a SAT solver and measures the wall-clock time.
pub fn timed_verify(
    verifier: &Verifier,
    implementation: &dyn Processor,
    specification: &dyn Processor,
    solver: &mut dyn Solver,
    budget: Budget,
) -> RunResult {
    let start = Instant::now();
    let verdict = verifier.verify_with_budget(implementation, specification, solver, budget);
    RunResult {
        name: implementation.name().to_owned(),
        verdict_correct: verdict.is_correct(),
        verdict_buggy: verdict.is_buggy(),
        time: start.elapsed(),
    }
}

/// Verifies one design with a specific options set, returning the verdict and time.
pub fn timed_verify_with_options(
    options: TranslationOptions,
    implementation: &dyn Processor,
    specification: &dyn Processor,
    solver: &mut dyn Solver,
    budget: Budget,
) -> (Verdict, Duration) {
    let verifier = Verifier::new(options);
    let start = Instant::now();
    let verdict = verifier.verify_with_budget(implementation, specification, solver, budget);
    (verdict, start.elapsed())
}

/// Pretty-prints a header for an experiment table.
pub fn print_header(title: &str, note: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{note}");
    println!("================================================================");
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Summary statistics over a set of per-benchmark times.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeSummary {
    /// Minimum time in seconds.
    pub min: f64,
    /// Maximum time in seconds.
    pub max: f64,
    /// Mean time in seconds.
    pub mean: f64,
}

/// Computes min/max/mean of a set of durations.
pub fn summarize(times: &[Duration]) -> TimeSummary {
    if times.is_empty() {
        return TimeSummary::default();
    }
    let secs: Vec<f64> = times.iter().map(|d| d.as_secs_f64()).collect();
    let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = secs.iter().cloned().fold(0.0, f64::max);
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    TimeSummary { min, max, mean }
}

/// Prints a PASS/CHECK verdict on a qualitative expectation.
pub fn shape_check(description: &str, holds: bool) {
    let status = if holds { "PASS " } else { "CHECK" };
    println!("[{status}] {description}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_times() {
        let times = [Duration::from_millis(100), Duration::from_millis(300)];
        let s = summarize(&times);
        assert!((s.min - 0.1).abs() < 1e-9);
        assert!((s.max - 0.3).abs() < 1e-9);
        assert!((s.mean - 0.2).abs() < 1e-9);
        assert_eq!(summarize(&[]).max, 0.0);
    }

    #[test]
    fn suite_size_is_scaled_without_env() {
        // The environment variable is not set in tests, so suites are capped.
        assert!(suite_size(100) <= 100);
        assert!(suite_size(5) <= 5);
    }
}
