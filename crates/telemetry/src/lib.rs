//! Deterministic telemetry for the SenSocial pipeline.
//!
//! Every layer of the middleware — sensors, privacy gate, filter
//! evaluation, uplink/store-and-forward, broker, server-side filtering and
//! multicast, subscriber callbacks — records into a [`Registry`]: counters,
//! gauges with high-water marks, and fixed-bucket latency histograms keyed
//! by pipeline [`Stage`]. A [`Snapshot`] freezes a registry into a plain
//! value that can be merged across devices and written in a canonical wire
//! form.
//!
//! # Determinism contract
//!
//! The registry holds **no clock and no randomness**. All timestamps are
//! supplied by callers from the simulation [`Scheduler`] clock, every
//! metric is an integer (histograms keep integer moment sums, not float
//! accumulators), and all maps are ordered. Two runs of the same seeded
//! scenario therefore produce byte-identical [`Snapshot::to_wire`] output —
//! a property CI asserts on every push.
//!
//! [`Scheduler`]: https://docs.rs/sensocial-runtime
//!
//! # Example
//!
//! ```
//! use sensocial_telemetry::{Registry, Stage};
//!
//! let reg = Registry::new("client");
//! reg.count("uplink.sent");
//! reg.observe(Stage::Uplink, 40); // latency since sample birth, in ms
//! reg.gauge_set("uplink.backlog", 3);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("client.uplink.sent"), 1);
//! assert!(snap.to_wire().starts_with(r#"{"counters":{"client.uplink.sent":1}"#));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod snapshot;
mod stage;
mod trace;

pub use registry::Registry;
pub use snapshot::{GaugeSnapshot, HistogramSnapshot, Snapshot};
pub use stage::Stage;
pub use trace::{SpanGuard, TraceEvent};
