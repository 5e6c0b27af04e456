//! Deterministic discrete-event runtime for the SenSocial reproduction.
//!
//! The original SenSocial middleware ran in real time on Android handsets and
//! a departmental server. Its evaluation, however, spans hours of wall-clock
//! time (one-hour energy windows, 20-minute OSN bursts, ~46-second Facebook
//! notification latencies). To reproduce those experiments in milliseconds —
//! and to make every run exactly repeatable — this crate provides a
//! discrete-event simulation (DES) substrate:
//!
//! * [`Timestamp`] and [`SimDuration`] — millisecond-resolution virtual time;
//! * [`Scheduler`] — a virtual clock over an event heap of one-shots and a
//!   FIFO lane of repeating ticks per period; events are boxed closures
//!   receiving `&mut Scheduler` so they can schedule further events,
//!   either one-shot or repeating (re-armed in place each period);
//! * [`Timer`] — recurring timers built on the scheduler's repeating
//!   events (duty cycles, polling loops), stopped by a handle or by their
//!   own tick;
//! * [`SimRng`] — a seeded, splittable random-number generator with the
//!   distributions the substrates need (uniform, normal, exponential,
//!   Poisson), so every experiment is reproducible from a single seed;
//! * [`prop`] — a seeded property runner over [`SimRng`] for the
//!   workspace's property tests;
//! * [`json`] — the workspace's one JSON codec: a writer, a strict pull
//!   reader, the [`json::Json`] trait its wire types implement, and the
//!   document [`json::Value`].
//!
//! # Example
//!
//! ```
//! use sensocial_runtime::{Scheduler, SimDuration};
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_after(SimDuration::from_secs(5), |s| {
//!     assert_eq!(s.now().as_secs(), 5);
//! });
//! sched.run();
//! assert_eq!(sched.now().as_secs(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
pub mod json;
pub mod prop;
mod rng;
mod scheduler;
mod timer;

pub use clock::{SimDuration, Timestamp};
pub use event::EventId;
pub use rng::SimRng;
pub use scheduler::Scheduler;
pub use timer::{Timer, TimerHandle};
