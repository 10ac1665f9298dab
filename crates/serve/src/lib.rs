//! `grt-serve`: the multi-tenant replay-serving subsystem.
//!
//! The paper's endgame (and GPUReplay's production story) is that the tiny
//! in-TEE replayer *serves* real ML inference with no GPU stack on the
//! client. This crate models that serving layer over the reproduction's
//! record/replay core: many concurrent inference requests, many client
//! devices of heterogeneous GPU SKUs, recordings recorded once and reused
//! fleet-wide.
//!
//! Four components:
//!
//! - [`registry`] — an LRU **recording registry** keyed by
//!   `(network, GPU_ID)`: recordings are signature-verified once on
//!   insert, reused on every later load, and recorded on demand (a
//!   "cold start") over a configurable network link when a model/SKU pair
//!   is first requested;
//! - [`admission`] — **admission control**: bounded per-device request
//!   queues with deadlines; a full fleet rejects new work with a
//!   retry-after hint instead of queueing unboundedly;
//! - [`fleet`] — the **fleet scheduler**: N client TEE devices, each
//!   hosting a [`grt_replay::service::ReplayService`] behind the GP protocol,
//!   honouring the paper's job-queue-length-1 invariant per device, with
//!   same-model affinity so `LOAD_RECORDING`/`SET_WEIGHTS` are amortized
//!   across consecutive requests and only `SET_INPUT`+`RUN` pay per
//!   request;
//! - [`metrics`] — per-request queue-wait/service/total latency,
//!   p50/p95/p99, throughput, and cache statistics from DES timestamps,
//!   exported as deterministic JSON — accumulated into fixed-size
//!   [`sketch`] streaming quantile sketches so a 10⁶-request run costs
//!   O(1) memory per request.
//!
//! Fleet scale: the scheduler is **event-indexed** (a binary heap of
//! `(due_time, device)` entries wakes only devices with due events;
//! [`fleet::SchedulerKind::LegacySweep`] retains the original per-event
//! full-device sweep as a differential-test oracle), the registry is
//! **sharded** by an FNV hash of `(network, GPU_ID)`
//! ([`RegistryConfig::with_shards`]), and
//! [`fleet::ServiceMode::Profiled`] models per-request service from
//! measured per-`(model, SKU)` replay profiles so million-request runs
//! don't pay a real replay per request.
//!
//! Time: the fleet advances one discrete-event serving timeline
//! ([`fleet::Fleet`]'s clock). Each device's own hardware clock is a
//! private lane that measures replay service durations; the scheduler
//! re-anchors those durations onto the serving timeline, so devices serve
//! in parallel while every reported timestamp stays deterministic.
//!
//! [`workload`] generates the request traces (Zipf-distributed model
//! popularity, exponential interarrivals) the `serve_bench` binary and
//! the tests drive the subsystem with.

#![warn(missing_docs)]

pub mod admission;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod registry;
pub mod sketch;
pub mod workload;

pub use admission::{AdmissionQueue, Rejection, Request};
pub use fleet::{Fleet, FleetConfig, SchedulerKind, ServiceMode};
pub use health::{DeviceHealth, HealthState};
pub use metrics::{FailoverRecord, LatencySketches, MetricsCollector, Percentiles, ServeReport};
pub use registry::{FetchOutcome, RecordingRegistry, RegistryConfig, RegistryStats};
pub use sketch::{QuantileSketch, SketchSummary};
pub use workload::{generate_trace, TraceConfig, ZipfSampler};
