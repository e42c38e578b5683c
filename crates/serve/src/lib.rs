//! # sgm-serve
//!
//! A multi-tenant training-job server over the SGM-PINN stack: a
//! std-only, thread-per-connection HTTP/1.1 front end ([`server`]) on a
//! fair sliced scheduler ([`scheduler`]) that multiplexes many
//! concurrent trainings over one shared worker pool.
//!
//! The design hinges on one invariant: **a job preempted into N slices
//! is bit-identical to the same job run locally in one piece.** Every
//! slice instantiates the job from its [`JobSpec`] and restores the
//! previous slice's [`RunState`](sgm_train::RunState) — exactly the
//! path a client-uploaded warm resume takes — so checkpoint/download/
//! upload/resume cycles, graceful-shutdown pauses and scheduler
//! preemption all share one determinism proof (the server-resume suite
//! checks it at 1, 2 and 8 intra-slice threads). Restoring skips only
//! work the checkpoint replaces: an SGM job's graph is built in its
//! first slice, not in every slice.
//!
//! * [`http`] — a defensive HTTP/1.1 parser with explicit limits; every
//!   malformed input maps to a 4xx, never a panic (property-fuzzed).
//! * [`spec`] — the JSON job schema and its translation to runnable
//!   problems/samplers; [`spec::run_local`] is the reference executor.
//! * [`scheduler`] — admission control (two-layer 429 backpressure),
//!   per-tenant round-robin fairness, slice execution with panic
//!   isolation, wall-budget eviction, graceful-shutdown checkpointing.
//! * [`server`] — the socket layer: connection-thread tracking,
//!   slow-loris timeouts, the endpoint table (see [`server`] docs).
//! * [`client`] — a minimal blocking client so the acceptance suite
//!   (load test, fault injection, resume determinism) exercises the
//!   real sockets.
//!
//! Environment: `SGM_SERVE_ADDR`, `SGM_SERVE_MAX_JOBS`,
//! `SGM_SERVE_QUEUE_DEPTH` (see [`ServeConfig::from_env`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod scheduler;
pub mod server;
pub mod spec;

pub use http::{ChunkedDecoder, ChunkedWriter, SseEvent, SseParser};
pub use scheduler::{Job, JobEvent, JobState, Scheduler, ServeConfig, SubmitError};
pub use server::Server;
pub use spec::{run_local, BuiltJob, JobSpec};
