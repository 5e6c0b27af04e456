//! Durable campaign scheduler for the SenSocial middleware.
//!
//! The paper's middleware reconfigures running deployments — changing a
//! stream's duty cycle or filters across a fleet of devices — through
//! config pushes. This crate makes those pushes *campaigns*: recurring,
//! windowed trigger schedules whose every delivery attempt is supervised,
//! retried with capped exponential backoff and seeded jitter, bounded by
//! per-application quotas and token-bucket rate limits, and journaled so
//! that a crashed scheduler's replacement recovers full state — in-flight
//! attempts, absolute backoff deadlines, dedup of already-acked
//! occurrences — and the run continues byte-identically under the same
//! seed.
//!
//! The moving parts:
//!
//! * [`CampaignSpec`] — what to push, to whom, when, how often;
//! * [`CampaignScheduler`] — the supervisor driving the
//!   `Dispatched → Acked | Retrying | DeadLettered` state machine off the
//!   server's config-ack stream (see the [`scheduler`] module docs);
//! * [`CampaignPolicies`] / [`BackoffPolicy`] / [`RateLimitPolicy`] — the
//!   delivery policies, all deterministic and replayable;
//! * [`Journal`] — the append-only journal of typed transition records,
//!   held by the deployment so that it outlives any scheduler instance;
//! * [`CampaignError`] — typed admission errors
//!   ([`CampaignError::QuotaExhausted`], [`CampaignError::RateLimited`]).
//!
//! Delivery guarantee: *exactly-once effect*. Dispatches are at-least-once
//! (QoS-1 redelivery, retries, post-crash redispatch), but devices apply
//! each occurrence token at most once and positively re-ack duplicates,
//! so a reconfiguration is never applied twice and never lost while
//! attempts remain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod journal;
mod policy;
pub mod scheduler;

pub use error::CampaignError;
pub use journal::{Journal, JournalRecord, RecordKind};
pub use policy::{BackoffPolicy, CampaignPolicies, RateLimitPolicy};
pub use scheduler::{AttemptState, CampaignScheduler, CampaignSpec};
