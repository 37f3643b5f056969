//! The experiment harness that reproduces the tables and figures of Velev &
//! Bryant (DAC 2001 / JSC 2003), and the performance harnesses.
//!
//! [`paper`] is the paper ledger: every table and figure as rows of
//! measured cells with their claims.  `satbench --only paper` runs it and
//! writes `BENCH_paper.json`; `satbench` also times the CDCL engine, the
//! serving layer and the verdict store.  `benchdiff`, `benchguard` and
//! `dratcheck` compare, gate and certify those runs.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod paper;
