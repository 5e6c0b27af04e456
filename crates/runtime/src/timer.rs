//! Recurring timers built on the scheduler.
//!
//! Duty-cycled sensor sampling, Twitter-style polling and page auto-refresh
//! (ConWeb's `T`-second reload) all need "run this every `period`" semantics
//! with a way to stop. [`Timer::start`] returns a [`TimerHandle`]; dropping
//! the handle does *not* stop the timer (timers usually outlive the scope
//! that created them) — call [`TimerHandle::stop`] explicitly, or start it
//! with [`Timer::start_while`] and let the tick end it.
//!
//! A timer is one repeating scheduler event: each tick re-arms the same
//! boxed body at the back of its period's lane in the scheduler, so a
//! running timer allocates nothing per tick and pays no heap sift.

use std::cell::Cell;
use std::rc::Rc;

use crate::clock::SimDuration;
use crate::event::Repeating;
use crate::scheduler::Scheduler;

/// A recurring timer.
///
/// See [`Timer::start`].
#[derive(Debug)]
pub struct Timer {
    _private: (),
}

/// Handle used to stop a running [`Timer`].
///
/// Cloneable: any clone may stop the timer; stopping twice is harmless.
///
/// # Example
///
/// ```
/// use sensocial_runtime::{Scheduler, SimDuration, Timer};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sched = Scheduler::new();
/// let ticks = Rc::new(Cell::new(0u32));
/// let t = ticks.clone();
/// let handle = Timer::start(&mut sched, SimDuration::from_secs(60), move |_| {
///     t.set(t.get() + 1);
/// });
/// sched.run_for(SimDuration::from_mins(5));
/// handle.stop();
/// sched.run_for(SimDuration::from_mins(5));
/// assert_eq!(ticks.get(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct TimerHandle {
    active: Rc<Cell<bool>>,
}

impl TimerHandle {
    /// Stops the timer. The tick callback will not run again.
    pub fn stop(&self) {
        self.active.set(false);
    }

    /// Whether the timer is still running.
    pub fn is_active(&self) -> bool {
        self.active.get()
    }
}

impl Timer {
    /// Starts a timer that invokes `tick` every `period`, with the first
    /// tick one full `period` from now.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero — a zero-period timer would livelock the
    /// scheduler.
    pub fn start<F>(sched: &mut Scheduler, period: SimDuration, mut tick: F) -> TimerHandle
    where
        F: FnMut(&mut Scheduler) + 'static,
    {
        Self::start_while(sched, period, move |s| {
            tick(s);
            true
        })
    }

    /// Starts a timer like [`Timer::start`] whose tick decides whether to
    /// go on: once `tick` returns `false` the timer stops, exactly as if
    /// the tick had called [`TimerHandle::stop`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn start_while<F>(sched: &mut Scheduler, period: SimDuration, tick: F) -> TimerHandle
    where
        F: FnMut(&mut Scheduler) -> bool + 'static,
    {
        arm(sched, period, period, tick)
    }

    /// Starts a timer whose first tick fires after `initial_delay` and then
    /// every `period`.
    ///
    /// An `initial_delay` of zero fires the first tick immediately (at the
    /// current instant), which is how one-off-plus-subscription sensing
    /// cycles begin.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn start_with_phase<F>(
        sched: &mut Scheduler,
        initial_delay: SimDuration,
        period: SimDuration,
        mut tick: F,
    ) -> TimerHandle
    where
        F: FnMut(&mut Scheduler) + 'static,
    {
        arm(sched, initial_delay, period, move |s| {
            tick(s);
            true
        })
    }
}

fn arm<F>(
    sched: &mut Scheduler,
    initial_delay: SimDuration,
    period: SimDuration,
    mut tick: F,
) -> TimerHandle
where
    F: FnMut(&mut Scheduler) -> bool + 'static,
{
    assert!(!period.is_zero(), "timer period must be non-zero");
    let active = Rc::new(Cell::new(true));
    let handle = TimerHandle {
        active: active.clone(),
    };
    let mut body: Repeating = Box::new(move |s: &mut Scheduler| {
        if !active.get() {
            return false;
        }
        if !tick(s) {
            active.set(false);
        }
        // The callback may have stopped the timer; re-check before rearming.
        active.get()
    });
    if initial_delay == period {
        sched.schedule_repeating(period, body);
    } else {
        // A first tick off the period grid would unsort the lane, so it
        // is a one-shot that moves the body into the lane once it has run.
        sched.schedule_after(initial_delay, move |s| {
            if body(s) {
                s.schedule_repeating(period, body);
            }
        });
    }
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Timestamp;
    use crate::rng::SimRng;
    use std::cell::RefCell;

    #[test]
    fn ticks_at_period_boundaries() {
        let mut s = Scheduler::new();
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        Timer::start(&mut s, SimDuration::from_secs(10), move |s| {
            t.borrow_mut().push(s.now().as_secs());
        });
        s.run_until(Timestamp::from_secs(35));
        assert_eq!(*times.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn phase_zero_fires_immediately() {
        let mut s = Scheduler::new();
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        Timer::start_with_phase(
            &mut s,
            SimDuration::ZERO,
            SimDuration::from_secs(5),
            move |s| {
                t.borrow_mut().push(s.now().as_secs());
            },
        );
        s.run_until(Timestamp::from_secs(11));
        assert_eq!(*times.borrow(), vec![0, 5, 10]);
    }

    #[test]
    fn stop_prevents_future_ticks() {
        let mut s = Scheduler::new();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let h = Timer::start(&mut s, SimDuration::from_secs(1), move |_| {
            *c.borrow_mut() += 1;
        });
        s.run_until(Timestamp::from_secs(3));
        assert!(h.is_active());
        h.stop();
        assert!(!h.is_active());
        s.run_until(Timestamp::from_secs(10));
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn timer_can_stop_itself_from_callback() {
        let mut s = Scheduler::new();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let handle_slot: Rc<RefCell<Option<TimerHandle>>> = Rc::new(RefCell::new(None));
        let hs = handle_slot.clone();
        let h = Timer::start(&mut s, SimDuration::from_secs(1), move |_| {
            let mut n = c.borrow_mut();
            *n += 1;
            if *n == 2 {
                hs.borrow_mut().as_ref().unwrap().stop();
            }
        });
        *handle_slot.borrow_mut() = Some(h);
        s.run();
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    #[should_panic(expected = "timer period must be non-zero")]
    fn zero_period_panics() {
        let mut s = Scheduler::new();
        Timer::start(&mut s, SimDuration::ZERO, |_| {});
    }

    #[test]
    fn start_while_ends_when_tick_returns_false() {
        let mut s = Scheduler::new();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let h = Timer::start_while(&mut s, SimDuration::from_secs(1), move |_| {
            let mut n = c.borrow_mut();
            *n += 1;
            *n < 3
        });
        s.run_until(Timestamp::from_secs(10));
        assert_eq!(*count.borrow(), 3);
        assert!(!h.is_active());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.events_executed(), 3);
    }

    type Log = Rc<RefCell<Vec<(u64, String)>>>;
    type Handles = Rc<RefCell<Vec<Option<TimerHandle>>>>;
    type Tick = Box<dyn FnMut(&mut Scheduler)>;
    type StartFn = fn(&mut Scheduler, SimDuration, SimDuration, Tick) -> TimerHandle;

    /// The timer as it was before ticks re-armed in place: every tick
    /// schedules a fresh boxed closure for the next one. Kept only as the
    /// oracle for `timers_match_the_rescheduling_oracle`.
    fn oracle_start_with_phase(
        sched: &mut Scheduler,
        initial_delay: SimDuration,
        period: SimDuration,
        tick: Tick,
    ) -> TimerHandle {
        let active = Rc::new(Cell::new(true));
        oracle_schedule_tick(sched, initial_delay, period, active.clone(), tick);
        TimerHandle { active }
    }

    fn oracle_schedule_tick(
        sched: &mut Scheduler,
        delay: SimDuration,
        period: SimDuration,
        active: Rc<Cell<bool>>,
        mut tick: Tick,
    ) {
        sched.schedule_after(delay, move |s| {
            if !active.get() {
                return;
            }
            tick(s);
            if active.get() {
                oracle_schedule_tick(s, period, period, active, tick);
            }
        });
    }

    /// One timer of a generated scenario; times in milliseconds.
    struct TimerPlan {
        start_at: u64,
        phase: u64,
        period: u64,
        stop_self_after: Option<u64>,
        stop_other: Option<(usize, u64)>,
    }

    impl TimerPlan {
        fn due(&self, tick: u64) -> u64 {
            self.start_at + self.phase + self.period * tick
        }
    }

    const HORIZON_MS: u64 = 300;

    /// Periods that timers draw most of the time, so that in most
    /// scenarios several timers share a lane.
    const SHARED_PERIODS: [u64; 2] = [3, 7];

    fn plans(rng: &mut SimRng) -> Vec<TimerPlan> {
        let n = rng.uniform_u64(1, 7) as usize;
        (0..n)
            .map(|_| {
                let start_at = if rng.chance(0.6) {
                    0
                } else {
                    rng.uniform_u64(1, 100)
                };
                let period = if rng.chance(0.8) {
                    SHARED_PERIODS[rng.uniform_u64(0, 2) as usize]
                } else {
                    rng.uniform_u64(1, 15)
                };
                // A first tick one period away starts in the lane, as
                // `Timer::start`'s does; any other phase starts as a
                // one-shot.
                let phase = if rng.chance(0.3) {
                    0
                } else if rng.chance(0.3) {
                    period
                } else {
                    rng.uniform_u64(1, 20)
                };
                TimerPlan {
                    start_at,
                    phase,
                    period,
                    stop_self_after: rng.chance(0.3).then(|| rng.uniform_u64(1, 6)),
                    stop_other: rng
                        .chance(0.3)
                        .then(|| (rng.uniform_u64(0, n as u64) as usize, rng.uniform_u64(1, 6))),
                }
            })
            .collect()
    }

    fn record(log: &Log, s: &Scheduler, label: String) {
        log.borrow_mut().push((s.now().as_millis(), label));
    }

    fn stop(handles: &Handles, j: usize) {
        if let Some(h) = &handles.borrow_mut()[j] {
            h.stop();
        }
    }

    fn start_timer(
        s: &mut Scheduler,
        i: usize,
        plan: TimerPlan,
        start: StartFn,
        log: Log,
        handles: Handles,
    ) {
        let period = SimDuration::from_millis(plan.period);
        let phase = SimDuration::from_millis(plan.phase);
        let hs = handles.clone();
        let mut n = 0u64;
        let tick = move |s: &mut Scheduler| {
            n += 1;
            record(&log, s, format!("t{i}"));
            if n % 3 == 1 {
                // Due with the next tick, scheduled before it re-arms.
                let l = log.clone();
                s.schedule_after(period, move |s| record(&l, s, format!("a{i}")));
            }
            if n % 4 == 2 {
                // Due with the next tick, scheduled after it re-arms.
                let l = log.clone();
                s.schedule_now(move |s| {
                    record(&l, s, format!("c{i}"));
                    let l = l.clone();
                    s.schedule_after(period, move |s| record(&l, s, format!("b{i}")));
                });
            }
            if plan.stop_self_after == Some(n) {
                stop(&hs, i);
            }
            if let Some((j, at_tick)) = plan.stop_other {
                if at_tick == n {
                    stop(&hs, j);
                }
            }
        };
        let h = start(s, phase, period, Box::new(tick));
        handles.borrow_mut()[i] = Some(h);
    }

    /// What a replay leaves: the firing log, the event count, the clock
    /// and the events still pending.
    type Replay = (Vec<(u64, String)>, u64, Timestamp, usize);

    /// Replays the scenario generated from `seed` with timers started by
    /// `start`.
    fn replay(seed: u64, start: StartFn) -> Replay {
        let mut rng = SimRng::seed_from(seed);
        let plans = plans(&mut rng);
        let n = plans.len();
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let handles: Handles = Rc::new(RefCell::new(vec![None; n]));
        let mut sched = Scheduler::new();

        // One-shots: some at random instants, some exactly when a timer's
        // tick is due; some only log, some stop that timer. Half are queued
        // before the timers start, half after.
        let mut late = Vec::new();
        for k in 0..rng.uniform_u64(0, 25) {
            let j = rng.uniform_u64(0, n as u64) as usize;
            let at = if rng.chance(0.5) {
                rng.uniform_u64(0, HORIZON_MS)
            } else {
                plans[j].due(rng.uniform_u64(0, 8))
            };
            let stops = rng.chance(0.5);
            let (l, hs) = (log.clone(), handles.clone());
            let shot = move |s: &mut Scheduler| {
                record(&l, s, format!("o{k}"));
                if stops {
                    stop(&hs, j);
                }
            };
            if rng.chance(0.5) {
                sched.schedule_at(Timestamp::from_millis(at), shot);
            } else {
                late.push((at, shot));
            }
        }
        for (i, plan) in plans.into_iter().enumerate() {
            let (l, hs) = (log.clone(), handles.clone());
            if plan.start_at == 0 {
                start_timer(&mut sched, i, plan, start, l, hs);
            } else {
                sched.schedule_at(Timestamp::from_millis(plan.start_at), move |s| {
                    start_timer(s, i, plan, start, l, hs)
                });
            }
        }
        for (at, shot) in late {
            sched.schedule_at(Timestamp::from_millis(at), shot);
        }

        sched.run_until(Timestamp::from_millis(HORIZON_MS));
        let fired = log.borrow().clone();
        (fired, sched.events_executed(), sched.now(), sched.pending())
    }

    #[test]
    fn timers_match_the_rescheduling_oracle() {
        let (real, oracle): (StartFn, StartFn) = (Timer::start_with_phase, oracle_start_with_phase);
        let (mut fired, mut shared) = (0, 0);
        for seed in 0..400 {
            let got = replay(seed, real);
            let want = replay(seed, oracle);
            assert_eq!(got, want, "seed {seed}");
            fired += got.0.len();
            let periods: Vec<u64> = plans(&mut SimRng::seed_from(seed))
                .iter()
                .map(|p| p.period)
                .collect();
            if (1..periods.len()).any(|i| periods[..i].contains(&periods[i])) {
                shared += 1;
            }
        }
        assert!(fired > 10_000, "scenarios too small: {fired} firings");
        assert!(shared > 200, "periods shared in only {shared} scenarios");
    }
}
