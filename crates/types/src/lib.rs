//! Shared data model for the SenSocial reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`ids`] — newtype identifiers for users, devices, streams, filters,
//!   subscriptions and triggers;
//! * [`geo`] — geographic primitives (points, distances, fences, named
//!   places) used by mobility models, location sensing and the server's
//!   geospatial queries;
//! * [`modality`] — the five sensing modalities SenSocial supports (GPS,
//!   accelerometer, microphone, WiFi, Bluetooth) plus data granularity
//!   (raw vs. classified);
//! * [`context`] — raw sensor samples and classified context values, and the
//!   [`ContextSnapshot`] a device holds at any instant;
//! * [`osn`] — online-social-network actions (posts, comments, likes) as the
//!   middleware sees them;
//! * [`filter`] — the distributed stream-filter model (conditions,
//!   operators, typed evaluation) shared by the middleware runtime and the
//!   static plan verifier in `sensocial-analysis`;
//! * [`error`] — the common error type, including the structured
//!   plan-rejection diagnostics emitted by the verifier;
//! * [`intern`] — the global string interner behind the hot-path
//!   identifiers ([`InternedTopic`], the string id newtypes): equal
//!   strings share one `Arc<str>` allocation, so clones are refcount
//!   bumps.
//!
//! Everything here is plain data: `Clone`, `Debug`, `PartialEq` and Serde
//! serializable, so values can flow through the simulated network, the
//! broker and the document store unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod filter;
pub mod geo;
pub mod ids;
pub mod intern;
pub mod modality;
pub mod osn;

pub use context::{
    AccelSample, AudioEnvironment, AudioFrame, BluetoothScan, ClassifiedContext, ContextData,
    ContextSnapshot, GpsFix, PhysicalActivity, RawSample, WifiScan,
};
pub use error::{DiagnosticCode, DiagnosticSeverity, Error, PlanDiagnostic, Result};
pub use filter::{
    Condition, ConditionLhs, EvalContext, EvalError, EvalErrorKind, Filter, Operator,
};
pub use geo::{GeoFence, GeoPoint, Place};
pub use ids::{DeviceId, FilterId, StreamId, SubscriptionId, TriggerId, UserId};
pub use intern::{intern, InternedTopic};
pub use modality::{Granularity, Modality};
pub use osn::{OsnAction, OsnActionKind, OsnPlatformKind};
