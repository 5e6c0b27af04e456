//! The discrete-event scheduler.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::clock::{SimDuration, Timestamp};
use crate::event::{EventId, OneShot, Repeating, ScheduledEvent};

/// A deterministic discrete-event scheduler with a virtual clock.
///
/// All SenSocial substrates (sensors, OSN plug-ins, the broker, network
/// links) advance by scheduling closures on a shared `Scheduler`. Each
/// closure receives `&mut Scheduler` so it can read the virtual clock and
/// schedule follow-up events; components typically capture an
/// `Rc<RefCell<Self>>` of themselves in the closure.
///
/// Two events scheduled for the same instant fire in the order they were
/// scheduled, which — together with seeded RNGs — makes whole experiments
/// bit-for-bit reproducible.
///
/// One-shot events wait in a binary heap. The ticks of repeating events
/// ([`Timer`](crate::Timer)s) wait in one FIFO lane per period instead:
/// a tick re-arms at `now + period` with a fresh id, and the clock never
/// goes back while ids only grow, so every lane is sorted by construction
/// and a tick costs no heap sift. Each step fires the earliest
/// `(time, id)` among the heap's top and the lanes' fronts, which is the
/// order one heap holding every event would give.
///
/// # Example
///
/// ```
/// use sensocial_runtime::{Scheduler, SimDuration};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sched = Scheduler::new();
/// let log = Rc::new(RefCell::new(Vec::new()));
///
/// let l = log.clone();
/// sched.schedule_after(SimDuration::from_secs(2), move |_| l.borrow_mut().push("late"));
/// let l = log.clone();
/// sched.schedule_after(SimDuration::from_secs(1), move |_| l.borrow_mut().push("early"));
///
/// sched.run();
/// assert_eq!(*log.borrow(), vec!["early", "late"]);
/// ```
#[derive(Debug)]
pub struct Scheduler {
    now: Timestamp,
    next_id: u64,
    heap: BinaryHeap<Reverse<ScheduledEvent<OneShot>>>,
    lanes: Vec<Lane>,
    executed: u64,
}

/// The pending ticks of every repeating event with one period, in firing
/// order.
struct Lane {
    period: SimDuration,
    ticks: VecDeque<ScheduledEvent<Repeating>>,
}

impl fmt::Debug for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane")
            .field("period", &self.period)
            .field("len", &self.ticks.len())
            .finish()
    }
}

/// A deadline no event reaches.
const NEVER: Timestamp = Timestamp::from_millis(u64::MAX);

impl Scheduler {
    /// Creates a scheduler with the clock at [`Timestamp::ZERO`] and no
    /// pending events.
    pub fn new() -> Self {
        Scheduler {
            now: Timestamp::ZERO,
            next_id: 0,
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            executed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of events executed so far (diagnostic).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.ticks.len()).sum::<usize>()
    }

    fn take_id(&mut self) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to *now*: the event fires at the
    /// current instant, after all events already queued for it.
    pub fn schedule_at<F>(&mut self, at: Timestamp, action: F) -> EventId
    where
        F: FnOnce(&mut Scheduler) + 'static,
    {
        let at = at.max(self.now);
        let id = self.take_id();
        let action: OneShot = Box::new(action);
        self.heap.push(Reverse(ScheduledEvent { at, id, action }));
        id
    }

    /// Schedules `body` to run one `period` from now and then every
    /// `period` for as long as it returns `true`. The same box is re-armed
    /// each time, so a repeating event allocates only when it is first
    /// scheduled.
    ///
    /// The re-armed event takes its id after `body` has run, exactly as if
    /// `body` had ended by scheduling its own successor: events that `body`
    /// schedules for the next tick's instant fire before that tick.
    pub(crate) fn schedule_repeating(&mut self, period: SimDuration, body: Repeating) {
        let lane = match self.lanes.iter().position(|l| l.period == period) {
            Some(lane) => lane,
            None => {
                self.lanes.push(Lane {
                    period,
                    ticks: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        self.rearm(lane, body);
    }

    /// Queues `body`'s next tick at the back of `lane`, one period from
    /// now.
    fn rearm(&mut self, lane: usize, body: Repeating) {
        let id = self.take_id();
        let lane = &mut self.lanes[lane];
        lane.ticks.push_back(ScheduledEvent {
            at: self.now + lane.period,
            id,
            action: body,
        });
    }

    /// Schedules `action` to run `delay` after the current virtual time.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut Scheduler) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedules `action` to run at the current instant, after all events
    /// already queued for it.
    pub fn schedule_now<F>(&mut self, action: F) -> EventId
    where
        F: FnOnce(&mut Scheduler) + 'static,
    {
        self.schedule_at(self.now, action)
    }

    /// Executes the single earliest pending event, advancing the clock to
    /// its timestamp. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        self.fire_next(NEVER)
    }

    /// Executes the earliest pending event if it is due by `deadline`:
    /// the heap's top or a lane's front, whichever comes first in
    /// `(time, id)`. Returns `false`, firing nothing, when no event is.
    fn fire_next(&mut self, deadline: Timestamp) -> bool {
        let mut next = self.heap.peek().map(|Reverse(e)| e.key());
        let mut from_lane = None;
        for (lane, l) in self.lanes.iter().enumerate() {
            if let Some(tick) = l.ticks.front() {
                if next.is_none_or(|key| tick.key() < key) {
                    next = Some(tick.key());
                    from_lane = Some(lane);
                }
            }
        }
        match next {
            Some((at, _)) if at <= deadline => {
                debug_assert!(at >= self.now, "event scheduled in the past");
                self.now = at;
            }
            _ => return false,
        }
        self.executed += 1;
        match from_lane {
            None => {
                if let Some(Reverse(event)) = self.heap.pop() {
                    (event.action)(self);
                }
            }
            Some(lane) => {
                if let Some(mut tick) = self.lanes[lane].ticks.pop_front() {
                    if (tick.action)(self) {
                        self.rearm(lane, tick.action);
                    }
                }
            }
        }
        true
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events until the queue is empty or the clock would pass
    /// `deadline`; the clock is then advanced to exactly `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are executed.
    pub fn run_until(&mut self, deadline: Timestamp) {
        while self.fire_next(deadline) {}
        self.now = self.now.max(deadline);
    }

    /// Runs events for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type BoxedEvent = Box<dyn FnOnce(&mut Scheduler)>;

    fn recorder() -> (Rc<RefCell<Vec<u64>>>, impl Fn(u64) -> BoxedEvent) {
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mk = move |v: u64| -> BoxedEvent {
            let l = l.clone();
            Box::new(move |_s: &mut Scheduler| l.borrow_mut().push(v))
        };
        (log, mk)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Scheduler::new();
        let (log, mk) = recorder();
        s.schedule_at(Timestamp::from_millis(30), mk(3));
        s.schedule_at(Timestamp::from_millis(10), mk(1));
        s.schedule_at(Timestamp::from_millis(20), mk(2));
        s.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(s.now(), Timestamp::from_millis(30));
        assert_eq!(s.events_executed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut s = Scheduler::new();
        let (log, mk) = recorder();
        for v in 0..10 {
            s.schedule_at(Timestamp::from_millis(5), mk(v));
        }
        s.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut s = Scheduler::new();
        let (log, _) = recorder();
        let l = log.clone();
        s.schedule_after(SimDuration::from_secs(1), move |s| {
            let l2 = l.clone();
            l.borrow_mut().push(1);
            s.schedule_after(SimDuration::from_secs(1), move |s| {
                l2.borrow_mut().push(2);
                assert_eq!(s.now(), Timestamp::from_secs(2));
            });
        });
        s.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut s = Scheduler::new();
        let (log, mk) = recorder();
        s.schedule_at(Timestamp::from_secs(10), {
            let mk2 = mk(99);
            move |s: &mut Scheduler| {
                // Try to schedule for t=1s while the clock reads 10s.
                s.schedule_at(Timestamp::from_secs(1), |s2| {
                    assert_eq!(s2.now(), Timestamp::from_secs(10));
                });
                mk2(s);
            }
        });
        s.run();
        assert_eq!(*log.borrow(), vec![99]);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut s = Scheduler::new();
        let (log, mk) = recorder();
        s.schedule_at(Timestamp::from_secs(1), mk(1));
        s.schedule_at(Timestamp::from_secs(5), mk(5));
        s.schedule_at(Timestamp::from_secs(9), mk(9));
        s.run_until(Timestamp::from_secs(5));
        assert_eq!(*log.borrow(), vec![1, 5]);
        assert_eq!(s.now(), Timestamp::from_secs(5));
        assert_eq!(s.pending(), 1);
        s.run_for(SimDuration::from_secs(10));
        assert_eq!(*log.borrow(), vec![1, 5, 9]);
        assert_eq!(s.now(), Timestamp::from_secs(15));
    }

    #[test]
    fn run_until_with_empty_queue_still_advances() {
        let mut s = Scheduler::new();
        s.run_until(Timestamp::from_secs(7));
        assert_eq!(s.now(), Timestamp::from_secs(7));
    }
}
