//! Scheduler event bookkeeping.

use std::cmp::Ordering;
use std::fmt;

use crate::clock::Timestamp;
use crate::scheduler::Scheduler;

/// Opaque handle identifying a scheduled event.
///
/// Returned by the `schedule_*` methods on [`Scheduler`]. Ids are unique for
/// the lifetime of a scheduler and double as a deterministic tie-breaker:
/// two events scheduled for the same instant fire in the order they were
/// scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

/// A closure that runs once, when its event fires.
pub(crate) type OneShot = Box<dyn FnOnce(&mut Scheduler)>;

/// A periodic body. Each time it returns `true` the scheduler re-arms the
/// same box one period later, so a tick allocates nothing.
pub(crate) type Repeating = Box<dyn FnMut(&mut Scheduler) -> bool>;

/// An entry in one of the scheduler's queues: a one-shot in the event
/// heap, or a repeating body in its period's timer lane.
pub(crate) struct ScheduledEvent<A> {
    pub(crate) at: Timestamp,
    pub(crate) id: EventId,
    pub(crate) action: A,
}

impl<A> ScheduledEvent<A> {
    /// The firing order: earliest timestamp first, ties broken by
    /// insertion order so the simulation is deterministic.
    pub(crate) fn key(&self) -> (Timestamp, EventId) {
        (self.at, self.id)
    }
}

impl<A> fmt::Debug for ScheduledEvent<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduledEvent")
            .field("at", &self.at)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

// `BinaryHeap` is a max-heap, so the scheduler wraps entries in
// `std::cmp::Reverse`.
impl<A> PartialEq for ScheduledEvent<A> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<A> Eq for ScheduledEvent<A> {}

impl<A> PartialOrd for ScheduledEvent<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<A> Ord for ScheduledEvent<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_ms: u64, id: u64) -> ScheduledEvent<OneShot> {
        ScheduledEvent {
            at: Timestamp::from_millis(at_ms),
            id: EventId(id),
            action: Box::new(|_| {}),
        }
    }

    #[test]
    fn orders_by_time_then_id() {
        assert!(event(1, 5) < event(2, 0));
        assert!(event(2, 0) < event(2, 1));
        assert_eq!(event(3, 7), event(3, 7));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn entries_are_a_key_and_a_boxed_closure() {
        assert_eq!(std::mem::size_of::<ScheduledEvent<OneShot>>(), 32);
        assert_eq!(std::mem::size_of::<ScheduledEvent<Repeating>>(), 32);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        assert!(!format!("{:?}", event(1, 1)).is_empty());
        assert_eq!(EventId(4).to_string(), "event#4");
    }
}
