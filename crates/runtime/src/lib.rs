//! # tempstream-runtime
//!
//! A work-stealing parallel executor for the reproduction pipeline.
//!
//! The serial [`Experiment`](tempstream_core::Experiment) runs each
//! workload's emit → simulate → analyze stages back to back; this crate
//! runs the same pure stage functions (`tempstream_core::stages`) as a
//! DAG of typed jobs on a pool of worker threads:
//!
//! * [`pool`] — the work-stealing thread pool: per-worker deques
//!   (owner pops LIFO, thieves steal FIFO) plus a shared injector
//!   queue, built on `std::thread` only.
//! * [`deque`] — the work-stealing deque the pool is built from.
//! * [`metrics`] — per-stage wall-clock and queue-depth accounting.
//! * [`pipeline`] — the reproduction DAG itself (emit fused into each
//!   simulate job, analyses fanned out over the capped traces) and its
//!   slot-ordered deterministic reduction.
//! * [`sync`] — the synchronization shim every other module goes
//!   through: `std` delegation in normal builds, and (behind the
//!   `schedcheck` feature) the cooperative scheduler that lets
//!   `tempstream-schedcheck` model-check the executor's interleavings.
//!
//! The headline guarantee: [`pipeline::run_workloads`] returns results
//! **bit-identical** to the serial runner for any worker count. See the
//! [`pipeline`] module docs for the argument.

pub mod deque;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod sync;

pub use metrics::{RunMetrics, RunSummary, Stage};
pub use pipeline::{run_workloads, Context, RuntimeConfig};

// The executor moves these across worker threads; keep the bounds
// checked at compile time (see `tempstream_trace::assert_send_sync!`).
tempstream_trace::assert_send_sync!(Context, RuntimeConfig, RunMetrics, RunSummary);
