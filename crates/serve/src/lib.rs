//! `velv_serve` — the serving layer of the verification stack: a concurrent
//! verification service with a fingerprint-keyed verdict cache and batch
//! scheduling.
//!
//! The paper's workload is batch-and-repeat: the same processor model is
//! verified over and over across a bug catalog, encoding variants and solver
//! back ends.  Because the Bryant–German–Velev reduction makes the verdict a
//! pure function of the term-level model plus options, verdicts are cacheable
//! by *structural identity* — and because per-encoding costs differ wildly,
//! scheduling and deduplicating that traffic centrally pays for itself.  This
//! crate is the layer that takes the traffic:
//!
//! * [`job`] — [`JobSpec`]/[`ModelRef`]: what to verify and how, with a
//!   stable one-line wire encoding;
//! * [`cache`] — [`VerdictCache`]: a sharded, byte-accounted LRU over decided
//!   verdicts, counterexamples and DRAT artifacts, keyed by the structural
//!   job fingerprint and consulted before any translation or solve;
//! * [`service`] — [`ServeHandle`]: the bounded worker pool with priority +
//!   deadline scheduling, in-flight deduplication (a second submission of a
//!   running fingerprint subscribes instead of re-solving), and batch
//!   submission through one shared [`velv_sat::IncrementalSolver`] session;
//! * [`proto`]/[`server`]/[`client`] — a hand-rolled length-prefixed text
//!   protocol over TCP, the `velvd` server binary and the `velvc` client;
//! * [`persist`] — the record encoding that lands every decided verdict in a
//!   crash-safe [`velv_store::Store`] before the response is delivered, and
//!   replays the log into the cache on boot, so a killed `velvd` restarts
//!   without re-solving anything it already answered.
//!
//! # Example
//!
//! ```no_run
//! use velv_serve::{JobSpec, ModelRef, ServeHandle, ServiceConfig};
//!
//! let service = ServeHandle::start(ServiceConfig::default().with_workers(4));
//! // A bug-catalog sweep as one batch: shared translation, one solver.
//! let specs: Vec<JobSpec> = (0..4).map(|i| JobSpec::new(ModelRef::dlx1_bug(i))).collect();
//! let tickets = service.submit_batch(specs).expect("accepted");
//! for ticket in &tickets {
//!     println!("{:?}", ticket.wait().verdict);
//! }
//! // Resubmitting is free: same fingerprints, served from the cache.
//! let again = service
//!     .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
//!     .expect("accepted")
//!     .wait();
//! assert!(again.from_cache);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod job;
pub mod persist;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheStats, CachedVerdict, VerdictCache};
pub use client::{ClientConfig, ClientError, ServeClient, SubmitReply};
pub use job::{BackendChoice, DlxVariant, JobSpec, ModelRef, ParseJobError, SolveMode};
pub use proto::{StatsFormat, TraceContext};
pub use server::{serve, ServerControl};
pub use service::{
    priority_class, JobResult, JobStatus, JobTicket, ProgressRow, ServeError, ServeHandle,
    ServiceConfig,
};
