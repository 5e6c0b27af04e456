//! Deterministic fault injection: partitions, endpoint outages, flapping
//! radios and latency spikes.
//!
//! The paper's deployment assumes a mobile client whose connectivity comes
//! and goes: records are stored locally and uploaded "as soon as a
//! connection is available". Reproducing that behaviour requires failure
//! to be a *scriptable input*, not an emergent property of random loss.
//! Every fault here is expressed as a window of virtual time, evaluated
//! against the scheduler clock at send/delivery time, so a scenario with
//! the same seed produces bit-identical outcomes.

use sensocial_runtime::{SimDuration, Timestamp};

use crate::message::EndpointId;

/// Why the network dropped (or refused) a message. Each cause has its own
/// `net.dropped.*` telemetry counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Random link loss (`LinkSpec::loss_probability`).
    Loss,
    /// An active partition between the source and destination.
    Partition,
    /// The source or destination endpoint was down (outage or flap).
    EndpointDown,
}

/// A half-open window of virtual time `[from, until)` during which a fault
/// is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant (inclusive) the fault applies.
    pub from: Timestamp,
    /// First instant (exclusive) the fault no longer applies.
    pub until: Timestamp,
}

impl FaultWindow {
    /// A window covering `[from, until)`.
    pub fn new(from: Timestamp, until: Timestamp) -> Self {
        FaultWindow { from, until }
    }

    /// A window starting at the epoch — "active immediately" for scenarios
    /// that script faults relative to the current instant.
    pub fn until(until: Timestamp) -> Self {
        FaultWindow {
            from: Timestamp::ZERO,
            until,
        }
    }

    /// A window covering `[from, from + length)` — the natural shape for
    /// scenario scripts that think in "outage at T lasting D".
    pub fn starting_at(from: Timestamp, length: SimDuration) -> Self {
        FaultWindow {
            from,
            until: from + length,
        }
    }

    /// The same window shifted `offset` later — used to stagger one fault
    /// shape across a fleet of endpoints (churn waves).
    #[must_use]
    pub fn shifted(self, offset: SimDuration) -> Self {
        FaultWindow {
            from: self.from + offset,
            until: self.until + offset,
        }
    }

    /// The window clipped so it never extends past `deadline`. Returns
    /// `None` when nothing of the window survives the clip.
    #[must_use]
    pub fn clipped_to(self, deadline: Timestamp) -> Option<Self> {
        if self.from >= deadline {
            return None;
        }
        Some(FaultWindow {
            from: self.from,
            until: self.until.min(deadline),
        })
    }

    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: Timestamp) -> bool {
        at >= self.from && at < self.until
    }
}

/// A deterministic square-wave outage: starting at `window.from` the
/// endpoint is down for `down_for`, up for `up_for`, down again, … until
/// `window.until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlapSchedule {
    pub window: FaultWindow,
    pub down_for: SimDuration,
    pub up_for: SimDuration,
}

impl FlapSchedule {
    /// Whether the flapping endpoint is in a down phase at `at`.
    pub fn is_down(&self, at: Timestamp) -> bool {
        if !self.window.contains(at) {
            return false;
        }
        let period = self.down_for.as_millis() + self.up_for.as_millis();
        if period == 0 {
            return false;
        }
        let offset = at.saturating_since(self.window.from).as_millis() % period;
        offset < self.down_for.as_millis()
    }
}

/// An additive delay applied to messages on the directed pair while the
/// window is active — a congested or degraded link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LatencySpike {
    pub from: EndpointId,
    pub to: EndpointId,
    pub window: FaultWindow,
    pub extra: SimDuration,
}

/// The scripted faults active on a [`Network`](crate::Network).
///
/// Mutated through the `Network` fault API ([`Network::partition`],
/// [`Network::set_endpoint_down`], [`Network::flap_endpoint`],
/// [`Network::inject_latency_spike`](crate::Network::inject_latency_spike));
/// all state is plain data evaluated against the virtual clock, so fault
/// scenarios replay identically under the same seed.
///
/// [`Network::partition`]: crate::Network::partition
/// [`Network::set_endpoint_down`]: crate::Network::set_endpoint_down
/// [`Network::flap_endpoint`]: crate::Network::flap_endpoint
#[derive(Debug, Default)]
pub(crate) struct FaultPlan {
    /// Directed partitioned pairs with their active windows.
    partitions: Vec<(EndpointId, EndpointId, FaultWindow)>,
    /// Hard outage windows per endpoint.
    down: Vec<(EndpointId, FaultWindow)>,
    /// Flapping schedules per endpoint.
    flaps: Vec<(EndpointId, FlapSchedule)>,
    /// Latency spikes on directed pairs.
    spikes: Vec<LatencySpike>,
}

impl FaultPlan {
    /// Adds a directed partition window.
    pub fn add_partition(&mut self, from: EndpointId, to: EndpointId, window: FaultWindow) {
        self.partitions.push((from, to, window));
    }

    /// Removes every partition window touching the (unordered) pair.
    pub fn heal_partition(&mut self, a: &EndpointId, b: &EndpointId) {
        self.partitions
            .retain(|(x, y, _)| !((x == a && y == b) || (x == b && y == a)));
    }

    /// Adds an outage window for an endpoint.
    pub fn add_down(&mut self, id: EndpointId, window: FaultWindow) {
        self.down.push((id, window));
    }

    /// Adds a flapping schedule for an endpoint.
    pub fn add_flap(&mut self, id: EndpointId, schedule: FlapSchedule) {
        self.flaps.push((id, schedule));
    }

    /// Adds a latency spike on a directed pair.
    pub fn add_spike(&mut self, spike: LatencySpike) {
        self.spikes.push(spike);
    }

    /// Whether the endpoint is down (outage or flap) at `at`.
    pub fn endpoint_down(&self, id: &EndpointId, at: Timestamp) -> bool {
        self.down.iter().any(|(x, w)| x == id && w.contains(at))
            || self.flaps.iter().any(|(x, f)| x == id && f.is_down(at))
    }

    /// Whether the directed pair is partitioned at `at`.
    pub fn partitioned(&self, from: &EndpointId, to: &EndpointId, at: Timestamp) -> bool {
        self.partitions
            .iter()
            .any(|(x, y, w)| x == from && y == to && w.contains(at))
    }

    /// Sum of active latency spikes on the directed pair at `at`.
    pub fn extra_latency(&self, from: &EndpointId, to: &EndpointId, at: Timestamp) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for spike in &self.spikes {
            if spike.from == *from && spike.to == *to && spike.window.contains(at) {
                extra += spike.extra;
            }
        }
        extra
    }

    /// The fault (if any) that kills a send from `from` to `to` at `at`.
    pub fn drop_cause(
        &self,
        from: &EndpointId,
        to: &EndpointId,
        at: Timestamp,
    ) -> Option<DropCause> {
        if self.endpoint_down(from, at) || self.endpoint_down(to, at) {
            return Some(DropCause::EndpointDown);
        }
        if self.partitioned(from, to, at) {
            return Some(DropCause::Partition);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow::new(ts(10), ts(20));
        assert!(!w.contains(ts(9)));
        assert!(w.contains(ts(10)));
        assert!(w.contains(ts(19)));
        assert!(!w.contains(ts(20)));
    }

    #[test]
    fn window_composition_helpers() {
        let w = FaultWindow::starting_at(ts(10), SimDuration::from_secs(5));
        assert_eq!(w, FaultWindow::new(ts(10), ts(15)));

        let shifted = w.shifted(SimDuration::from_secs(3));
        assert_eq!(shifted, FaultWindow::new(ts(13), ts(18)));

        assert_eq!(
            shifted.clipped_to(ts(15)),
            Some(FaultWindow::new(ts(13), ts(15)))
        );
        assert_eq!(shifted.clipped_to(ts(13)), None, "nothing survives");
        assert_eq!(shifted.clipped_to(ts(30)), Some(shifted), "no-op clip");
    }

    #[test]
    fn zero_length_window_contains_nothing() {
        // `starting_at` with a zero duration yields `[from, from)` — a
        // degenerate window that must never fire, not even at `from`.
        let w = FaultWindow::starting_at(ts(10), SimDuration::ZERO);
        assert_eq!(w.from, w.until);
        assert!(!w.contains(ts(9)));
        assert!(!w.contains(ts(10)));
        assert!(!w.contains(ts(11)));

        // Shifting preserves the degenerate shape.
        let shifted = w.shifted(SimDuration::from_secs(5));
        assert_eq!(shifted, FaultWindow::new(ts(15), ts(15)));
        assert!(!shifted.contains(ts(15)));

        // Clipping a zero-length window ahead of the deadline keeps it
        // (still inert); a deadline at or before `from` removes it.
        assert_eq!(w.clipped_to(ts(20)), Some(w));
        assert_eq!(w.clipped_to(ts(10)), None);
    }

    #[test]
    fn clip_to_empty_and_boundary_cases() {
        let w = FaultWindow::new(ts(10), ts(20));
        // Deadline before the window: gone entirely.
        assert_eq!(w.clipped_to(ts(5)), None);
        // Deadline exactly at `from`: the half-open clip leaves nothing.
        assert_eq!(w.clipped_to(ts(10)), None);
        // One instant past `from` survives as a sliver that still fires
        // at `from` only.
        let sliver = w
            .clipped_to(Timestamp::from_millis(10_001))
            .expect("sliver survives");
        assert!(sliver.contains(ts(10)));
        assert!(!sliver.contains(Timestamp::from_millis(10_001)));
        // Deadline exactly at `until` is a no-op (window is already
        // half-open there).
        assert_eq!(w.clipped_to(ts(20)), Some(w));
    }

    #[test]
    fn overlapping_shifted_windows_union_in_plan() {
        // A churn wave staggers one outage shape across endpoints; when
        // the stagger is shorter than the outage the shifted copies
        // overlap. Registering both on the *same* endpoint must behave as
        // the union of the windows, with no double-counting artifacts at
        // the overlap or at the seam boundaries.
        let base = FaultWindow::starting_at(ts(10), SimDuration::from_secs(10)); // [10, 20)
        let shifted = base.shifted(SimDuration::from_secs(5)); // [15, 25)
        assert!(base.contains(ts(16)) && shifted.contains(ts(16)), "overlap");

        let mut plan = FaultPlan::default();
        let a: EndpointId = "a".into();
        plan.add_down(a.clone(), base);
        plan.add_down(a.clone(), shifted);

        assert!(!plan.endpoint_down(&a, ts(9)));
        assert!(plan.endpoint_down(&a, ts(10)), "base start");
        assert!(plan.endpoint_down(&a, ts(16)), "overlap region");
        assert!(plan.endpoint_down(&a, ts(20)), "shifted covers base end");
        assert!(plan.endpoint_down(&a, ts(24)));
        assert!(!plan.endpoint_down(&a, ts(25)), "half-open at shifted end");
    }

    #[test]
    fn flap_alternates_deterministically() {
        let f = FlapSchedule {
            window: FaultWindow::new(ts(0), ts(100)),
            down_for: SimDuration::from_secs(2),
            up_for: SimDuration::from_secs(3),
        };
        assert!(f.is_down(ts(0)));
        assert!(f.is_down(ts(1)));
        assert!(!f.is_down(ts(2)));
        assert!(!f.is_down(ts(4)));
        assert!(f.is_down(ts(5)));
        assert!(!f.is_down(ts(100)), "outside the window");
    }

    #[test]
    fn zero_period_flap_is_inert() {
        let f = FlapSchedule {
            window: FaultWindow::new(ts(0), ts(10)),
            down_for: SimDuration::ZERO,
            up_for: SimDuration::ZERO,
        };
        assert!(!f.is_down(ts(1)));
    }

    #[test]
    fn plan_resolves_causes_in_priority_order() {
        let mut plan = FaultPlan::default();
        let (a, b): (EndpointId, EndpointId) = ("a".into(), "b".into());
        plan.add_partition(a.clone(), b.clone(), FaultWindow::until(ts(50)));
        plan.add_down(a.clone(), FaultWindow::new(ts(10), ts(20)));
        // Down outranks partition while both are active.
        assert_eq!(
            plan.drop_cause(&a, &b, ts(15)),
            Some(DropCause::EndpointDown)
        );
        assert_eq!(plan.drop_cause(&a, &b, ts(25)), Some(DropCause::Partition));
        assert_eq!(plan.drop_cause(&a, &b, ts(60)), None);
        // Partition is directed: b→a was never partitioned.
        assert_eq!(plan.drop_cause(&b, &a, ts(25)), None);
    }

    #[test]
    fn heal_removes_both_directions() {
        let mut plan = FaultPlan::default();
        let (a, b): (EndpointId, EndpointId) = ("a".into(), "b".into());
        plan.add_partition(a.clone(), b.clone(), FaultWindow::until(ts(50)));
        plan.add_partition(b.clone(), a.clone(), FaultWindow::until(ts(50)));
        plan.heal_partition(&a, &b);
        assert_eq!(plan.drop_cause(&a, &b, ts(5)), None);
        assert_eq!(plan.drop_cause(&b, &a, ts(5)), None);
    }

    #[test]
    fn spikes_accumulate() {
        let mut plan = FaultPlan::default();
        let (a, b): (EndpointId, EndpointId) = ("a".into(), "b".into());
        plan.add_spike(LatencySpike {
            from: a.clone(),
            to: b.clone(),
            window: FaultWindow::new(ts(0), ts(10)),
            extra: SimDuration::from_millis(100),
        });
        plan.add_spike(LatencySpike {
            from: a.clone(),
            to: b.clone(),
            window: FaultWindow::new(ts(5), ts(10)),
            extra: SimDuration::from_millis(50),
        });
        assert_eq!(
            plan.extra_latency(&a, &b, ts(1)),
            SimDuration::from_millis(100)
        );
        assert_eq!(
            plan.extra_latency(&a, &b, ts(6)),
            SimDuration::from_millis(150)
        );
        assert_eq!(plan.extra_latency(&a, &b, ts(11)), SimDuration::ZERO);
        assert_eq!(plan.extra_latency(&b, &a, ts(1)), SimDuration::ZERO);
    }
}
