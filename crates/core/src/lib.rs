//! # SenSocial — a middleware integrating online social networks and mobile sensing
//!
//! A from-scratch Rust reproduction of *SenSocial: A Middleware for
//! Integrating Online Social Networks and Mobile Sensing Data Streams*
//! (Mehrotra, Pejović, Musolesi — ACM Middleware 2014).
//!
//! SenSocial lets ubiquitous-computing applications consume **joined
//! streams of OSN actions and physical sensor context** without
//! implementing the plumbing themselves. The middleware is distributed over
//! mobile clients and a central server:
//!
//! * the **client side** ([`client::ClientManager`]) manages sensor
//!   streams on a device — continuous (duty-cycled) or social-event-based
//!   (one-off sensing fired by OSN triggers) — applies privacy policies and
//!   filters, classifies raw data, and delivers events to local listeners
//!   or uplinks them to the server;
//! * the **server side** ([`server::ServerManager`]) receives OSN actions
//!   from platform plug-ins, fires sensing triggers at the acting user's
//!   devices, remotely creates/destroys/reconfigures streams, evaluates
//!   server-side (including cross-user) filters, aggregates streams, and
//!   manages [multicast streams](server::MulticastStream) over user sets
//!   selected by geography or OSN links.
//!
//! Interaction follows the publish–subscribe paradigm throughout: the
//! middleware publishes [`StreamEvent`]s; applications subscribe with
//! listeners.
//!
//! ## Quickstart
//!
//! ```
//! use sensocial::client::{ClientDeps, ClientManager};
//! use sensocial::{Granularity, StreamSink, StreamSpec};
//! use sensocial_runtime::{Scheduler, SimDuration, SimRng};
//! use sensocial_sensors::{DeviceEnvironment, SensorManager};
//! use sensocial_types::{geo::cities, Modality};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let mut sched = Scheduler::new();
//!
//! // A virtual phone in Paris.
//! let env = DeviceEnvironment::new(cities::paris());
//! let sensors = SensorManager::new(env, SimRng::seed_from(7));
//! let manager = ClientManager::new(ClientDeps::local_only(
//!     "alice", "alice-phone", sensors,
//!     vec![cities::paris_place()],
//! ));
//!
//! // Subscribe to a classified location stream.
//! let spec = StreamSpec::continuous(Modality::Location, Granularity::Classified)
//!     .with_interval(SimDuration::from_secs(60))
//!     .with_sink(StreamSink::Local);
//! let stream = manager.create_stream(&mut sched, spec).unwrap();
//!
//! let seen = Rc::new(RefCell::new(Vec::new()));
//! let sink = seen.clone();
//! manager.register_listener(stream, move |_s, event| {
//!     sink.borrow_mut().push(event.clone());
//! });
//!
//! sched.run_for(SimDuration::from_mins(5));
//! assert_eq!(seen.borrow().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod config;
mod event;
mod predicate;
mod privacy;
pub mod server;
mod topic;

pub use config::{ConfigCommand, StreamMode, StreamSink, StreamSpec};
pub use event::{ConfigAck, RegistrationPayload, StreamEvent, TriggerPayload};
pub use predicate::{eval_full, eval_local};
pub use privacy::{PrivacyPolicy, PrivacyPolicyManager};
pub use sensocial_types::filter::{
    Condition, ConditionLhs, EvalContext, EvalError, EvalErrorKind, Filter, Operator,
};
pub use topic::Topic;

// The compiled form the managers evaluate: filters are lowered once at
// admission time and the hot paths run the flat program.
pub use sensocial_analysis::{compile, PredicateProgram};

// The unified telemetry layer is part of the public API surface: managers
// expose their registries via `telemetry()` accessors.
pub use sensocial_telemetry::{Registry as TelemetryRegistry, Snapshot as TelemetrySnapshot};

// The storage engine is part of the server's public API surface:
// `ServerDeps::new` takes an opened engine and `ServerManager::storage`
// hands it back for scans.
pub use sensocial_storage::{SampleQuery, SampleRecord, StorageConfig, StorageEngine};

// Re-export the vocabulary types users need at the API surface, including
// the plan diagnostics carried by `Error::PlanRejected`.
pub use sensocial_types::{
    ContextData, DeviceId, DiagnosticCode, DiagnosticSeverity, Error, Granularity, Modality,
    OsnAction, PlanDiagnostic, Result, StreamId, UserId,
};

/// Wildcard filter matching every device's uplink topic (the server's
/// subscription).
pub const UPLINK_WILDCARD: &str = "sensocial/uplink/+";

/// Wildcard filter matching every device's configuration-ack topic (the
/// server's subscription).
pub const ACK_WILDCARD: &str = "sensocial/ack/+";

/// Topic on which devices announce themselves to the server.
pub const REGISTER_TOPIC: &str = "sensocial/register";

#[cfg(test)]
mod topic_tests {
    use super::*;

    #[test]
    fn topics_are_distinct_per_device() {
        let d1 = DeviceId::new("p1");
        let d2 = DeviceId::new("p2");
        assert_ne!(Topic::Config(d1.clone()), Topic::Config(d2));
        assert_ne!(
            Topic::Config(d1.clone()).to_string(),
            Topic::Trigger(d1.clone()).to_string()
        );
        assert!(Topic::Uplink(d1)
            .to_string()
            .starts_with("sensocial/uplink/"));
    }
}
