//! The endpoint registry and message-delivery engine.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timestamp};
use sensocial_telemetry::Registry;
use sensocial_types::{Error, Result};

use crate::fault::{DropCause, FaultPlan, FaultWindow, FlapSchedule, LatencySpike};
use crate::link::LinkSpec;
use crate::message::{EndpointId, Message};

/// Handler invoked (through the scheduler, after link delay) when a message
/// arrives at an endpoint.
type MessageHandler = Rc<dyn Fn(&mut Scheduler, Message)>;

#[derive(Default)]
struct Inner {
    endpoints: HashMap<EndpointId, MessageHandler>,
    links: HashMap<(EndpointId, EndpointId), LinkSpec>,
    default_link: LinkSpec,
    faults: FaultPlan,
}

/// The simulated network: endpoints, links and delivery.
///
/// `Network` is cheaply cloneable (an `Rc` handle); every component holds a
/// clone. Delivery happens through the [`Scheduler`]: `send` samples the
/// link's latency and schedules the receiving handler.
///
/// Faults (partitions, outages, flapping, latency spikes) are scripted
/// windows of virtual time evaluated at send and delivery time — see the
/// fault API (`partition`, `set_endpoint_down`, `flap_endpoint`,
/// `inject_latency_spike`). All fault decisions are clock-driven, never
/// random, so a faulted scenario replays identically under the same seed.
///
/// See the [crate-level example](crate) for usage.
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<Inner>>,
    rng: Rc<RefCell<SimRng>>,
    telemetry: Registry,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Network")
            .field("endpoints", &inner.endpoints.len())
            .field("links", &inner.links.len())
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl Network {
    /// Creates an empty network with a deterministic RNG seed (used for
    /// latency sampling and loss decisions).
    pub fn new(seed: u64) -> Self {
        Network {
            inner: Rc::new(RefCell::new(Inner::default())),
            rng: Rc::new(RefCell::new(SimRng::seed_from(seed))),
            telemetry: Registry::new("net"),
        }
    }

    /// The network's telemetry registry (scope `net`): delivery counters
    /// and the `net.transit_ms` latency histogram, driven by scheduler
    /// time.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Registers an endpoint and its receive handler, replacing any
    /// previous registration under the same id.
    pub fn register<F>(&self, id: EndpointId, handler: F)
    where
        F: Fn(&mut Scheduler, Message) + 'static,
    {
        self.inner
            .borrow_mut()
            .endpoints
            .insert(id, Rc::new(handler));
    }

    /// Removes an endpoint. In-flight messages to it are dropped on
    /// arrival. Returns `true` if the endpoint existed.
    pub fn unregister(&self, id: &EndpointId) -> bool {
        self.inner.borrow_mut().endpoints.remove(id).is_some()
    }

    /// Whether an endpoint is currently registered.
    pub fn is_registered(&self, id: &EndpointId) -> bool {
        self.inner.borrow().endpoints.contains_key(id)
    }

    /// Sets the link characteristics for the directed pair `from → to`.
    pub fn set_link(&self, from: EndpointId, to: EndpointId, spec: LinkSpec) {
        self.inner.borrow_mut().links.insert((from, to), spec);
    }

    /// Sets the link characteristics for both directions between `a` and `b`.
    pub fn set_link_bidirectional(&self, a: EndpointId, b: EndpointId, spec: LinkSpec) {
        let mut inner = self.inner.borrow_mut();
        inner.links.insert((a.clone(), b.clone()), spec.clone());
        inner.links.insert((b, a), spec);
    }

    /// Sets the fallback link used for pairs without an explicit link.
    pub fn set_default_link(&self, spec: LinkSpec) {
        self.inner.borrow_mut().default_link = spec;
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Partitions `a` and `b` (both directions) from now until `until`.
    /// Messages between them are dropped and counted under
    /// `dropped_partition`.
    pub fn partition(&self, a: &EndpointId, b: &EndpointId, until: Timestamp) {
        self.partition_during(a, b, FaultWindow::until(until));
    }

    /// Partitions `a` and `b` (both directions) for an explicit window.
    pub fn partition_during(&self, a: &EndpointId, b: &EndpointId, window: FaultWindow) {
        let mut inner = self.inner.borrow_mut();
        inner.faults.add_partition(a.clone(), b.clone(), window);
        inner.faults.add_partition(b.clone(), a.clone(), window);
    }

    /// Removes every partition window between `a` and `b`, in both
    /// directions, regardless of when it would have expired.
    pub fn heal_partition(&self, a: &EndpointId, b: &EndpointId) {
        self.inner.borrow_mut().faults.heal_partition(a, b);
    }

    /// Marks `id` down for the window: every message to or from it in that
    /// interval is dropped (`dropped_endpoint_down`), including messages
    /// already in flight when it goes down.
    pub fn set_endpoint_down(&self, id: &EndpointId, window: FaultWindow) {
        self.inner.borrow_mut().faults.add_down(id.clone(), window);
    }

    /// Gives `id` a deterministic flapping schedule: starting at
    /// `window.from` it is down for `down_for`, up for `up_for`, down
    /// again, … until `window.until`.
    pub fn flap_endpoint(
        &self,
        id: &EndpointId,
        window: FaultWindow,
        down_for: SimDuration,
        up_for: SimDuration,
    ) {
        self.inner.borrow_mut().faults.add_flap(
            id.clone(),
            FlapSchedule {
                window,
                down_for,
                up_for,
            },
        );
    }

    /// Composes one flap shape across a fleet: endpoint `i` receives the
    /// flapping schedule `window.shifted(i * stagger)`, clipped so no
    /// schedule outlives `window.until` — a deterministic churn *wave*
    /// rolling through the population instead of a synchronized blackout.
    ///
    /// Endpoints whose staggered window would start at or after
    /// `window.until` get no fault at all, so over-long fleets degrade
    /// gracefully rather than flapping forever.
    pub fn churn_wave(
        &self,
        endpoints: &[EndpointId],
        window: FaultWindow,
        down_for: SimDuration,
        up_for: SimDuration,
        stagger: SimDuration,
    ) {
        for (i, id) in endpoints.iter().enumerate() {
            let shifted = window.shifted(stagger * (i as u64));
            if let Some(clipped) = shifted.clipped_to(window.until) {
                self.flap_endpoint(id, clipped, down_for, up_for);
            }
        }
    }

    /// Adds `extra` latency to every message sent `from → to` while the
    /// window is active. Spikes stack additively.
    pub fn inject_latency_spike(
        &self,
        from: &EndpointId,
        to: &EndpointId,
        window: FaultWindow,
        extra: SimDuration,
    ) {
        self.inner.borrow_mut().faults.add_spike(LatencySpike {
            from: from.clone(),
            to: to.clone(),
            window,
            extra,
        });
    }

    /// Whether `id` is down (outage or flap) at `at`.
    pub fn is_endpoint_down(&self, id: &EndpointId, at: Timestamp) -> bool {
        self.inner.borrow().faults.endpoint_down(id, at)
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends `payload` from `from` to `to`, scheduling delivery after the
    /// link's sampled delay (plus transmission time under the link's
    /// bandwidth, plus any active latency spike).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotConnected`] if `to` is not a registered
    /// endpoint at send time. (An endpoint unregistered while the message
    /// is in flight silently drops it, like a powered-off phone.)
    pub fn send(
        &self,
        sched: &mut Scheduler,
        from: &EndpointId,
        to: &EndpointId,
        payload: impl Into<Vec<u8>>,
    ) -> Result<()> {
        let payload = payload.into();
        let size = payload.len();
        let now = sched.now();

        let (delay, killed) = {
            let inner = self.inner.borrow();
            if !inner.endpoints.contains_key(to) {
                self.telemetry.count("unreachable");
                return Err(Error::NotConnected(to.as_str().to_owned()));
            }
            self.telemetry.count("sent");
            self.telemetry.count_by("bytes_sent", size as u64);

            let spec = inner
                .links
                .get(&(from.clone(), to.clone()))
                .unwrap_or(&inner.default_link)
                .clone();

            // Loss and latency are sampled unconditionally so the RNG
            // stream — and therefore every later sample — is identical
            // whether or not a fault window happens to cover this send.
            let mut rng = self.rng.borrow_mut();
            let lost = spec.loss_probability > 0.0 && rng.chance(spec.loss_probability);
            let delay = spec.latency.sample(&mut rng)
                + SimDuration::from_secs_f64(spec.transmission_time_s(size))
                + inner.faults.extra_latency(from, to, now);
            drop(rng);

            let fault = inner.faults.drop_cause(from, to, now);
            match fault {
                Some(DropCause::EndpointDown) => {
                    self.telemetry.count("dropped");
                    self.telemetry.count("dropped.endpoint_down");
                }
                Some(DropCause::Partition) => {
                    self.telemetry.count("dropped");
                    self.telemetry.count("dropped.partition");
                }
                _ if lost => {
                    self.telemetry.count("dropped");
                    self.telemetry.count("dropped.loss");
                }
                _ => {}
            }
            (delay, fault.is_some() || lost)
        };

        if killed {
            return Ok(());
        }

        let msg = Message {
            from: from.clone(),
            to: to.clone(),
            payload,
            sent_at: now,
        };
        let network = self.clone();
        sched.schedule_after(delay, move |s| {
            let arrival = s.now();
            let inner = network.inner.borrow();
            if inner.faults.endpoint_down(&msg.to, arrival) {
                // Receiver went down while the message was in flight.
                network.telemetry.count("dropped");
                network.telemetry.count("dropped.endpoint_down");
                return;
            }
            let handler = inner.endpoints.get(&msg.to).cloned();
            drop(inner);
            if let Some(handler) = handler {
                network.telemetry.count("delivered");
                let transit = arrival.as_millis().saturating_sub(msg.sent_at.as_millis());
                network.telemetry.observe_named("transit_ms", transit);
                handler(s, msg);
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use sensocial_runtime::Timestamp;

    type Log = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

    /// Test-local counter view bundled from the telemetry snapshot (the
    /// deprecated public `NetworkStats` bundle is gone; tests read the
    /// `net.*` counters directly).
    #[derive(Debug, PartialEq, Eq)]
    struct NetworkStats {
        sent: u64,
        delivered: u64,
        dropped: u64,
        bytes_sent: u64,
        dropped_loss: u64,
        dropped_partition: u64,
        dropped_endpoint_down: u64,
        unreachable: u64,
    }

    impl NetworkStats {
        fn dropped_by(&self, cause: DropCause) -> u64 {
            match cause {
                DropCause::Loss => self.dropped_loss,
                DropCause::Partition => self.dropped_partition,
                DropCause::EndpointDown => self.dropped_endpoint_down,
            }
        }
    }

    fn stats(net: &Network) -> NetworkStats {
        let snap = net.telemetry().snapshot();
        NetworkStats {
            sent: snap.counter("net.sent"),
            delivered: snap.counter("net.delivered"),
            dropped: snap.counter("net.dropped"),
            bytes_sent: snap.counter("net.bytes_sent"),
            dropped_loss: snap.counter("net.dropped.loss"),
            dropped_partition: snap.counter("net.dropped.partition"),
            dropped_endpoint_down: snap.counter("net.dropped.endpoint_down"),
            unreachable: snap.counter("net.unreachable"),
        }
    }

    fn collector() -> (Log, MessageHandler) {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let handler: MessageHandler = Rc::new(move |s: &mut Scheduler, m: Message| {
            l.borrow_mut().push((s.now().as_millis(), m.payload));
        });
        (log, handler)
    }

    #[test]
    fn delivers_after_link_latency() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (log, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.set_link(
            "a".into(),
            "b".into(),
            LinkSpec::with_latency(LatencyModel::constant_ms(120)),
        );
        net.send(&mut sched, &"a".into(), &"b".into(), b"hi".to_vec())
            .unwrap();
        sched.run();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, 120);
        assert_eq!(log[0].1, b"hi");
    }

    #[test]
    fn churn_wave_staggers_and_clips() {
        let net = Network::new(1);
        let endpoints: Vec<EndpointId> = vec!["a".into(), "b".into(), "c".into()];
        let window = FaultWindow::new(Timestamp::from_secs(10), Timestamp::from_secs(40));
        net.churn_wave(
            &endpoints,
            window,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        );
        // a: flaps from t=10; b: staggered to t=30 (clipped at 40); c's
        // shifted window starts at the wave end, so it never flaps.
        assert!(net.is_endpoint_down(&"a".into(), Timestamp::from_secs(12)));
        assert!(!net.is_endpoint_down(&"b".into(), Timestamp::from_secs(12)));
        assert!(net.is_endpoint_down(&"b".into(), Timestamp::from_secs(32)));
        assert!(!net.is_endpoint_down(&"c".into(), Timestamp::from_secs(52)));
        assert!(
            !net.is_endpoint_down(&"a".into(), Timestamp::from_secs(45)),
            "wave is over"
        );
    }

    #[test]
    fn send_to_unknown_endpoint_errors() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let err = net
            .send(&mut sched, &"a".into(), &"ghost".into(), b"x".to_vec())
            .unwrap_err();
        assert_eq!(err, Error::NotConnected("ghost".into()));
        assert_eq!(stats(&net).unreachable, 1);
        assert_eq!(stats(&net).sent, 0);
    }

    #[test]
    fn unregister_mid_flight_drops_message() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (log, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.set_link(
            "a".into(),
            "b".into(),
            LinkSpec::with_latency(LatencyModel::constant_ms(100)),
        );
        net.send(&mut sched, &"a".into(), &"b".into(), b"x".to_vec())
            .unwrap();
        assert!(net.unregister(&"b".into()));
        sched.run();
        assert!(log.borrow().is_empty());
        assert_eq!(stats(&net).delivered, 0);
        assert_eq!(stats(&net).sent, 1);
    }

    #[test]
    fn lossy_link_drops_fraction() {
        let mut sched = Scheduler::new();
        let net = Network::new(7);
        let (log, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.set_link(
            "a".into(),
            "b".into(),
            LinkSpec::with_latency(LatencyModel::constant_ms(1)).lossy(0.5),
        );
        for _ in 0..400 {
            net.send(&mut sched, &"a".into(), &"b".into(), b"x".to_vec())
                .unwrap();
        }
        sched.run();
        let delivered = log.borrow().len();
        assert!((120..=280).contains(&delivered), "delivered {delivered}");
        let stats = stats(&net);
        assert_eq!(stats.sent, 400);
        assert_eq!(stats.dropped + stats.delivered, 400);
        assert_eq!(stats.dropped, stats.dropped_loss);
    }

    #[test]
    fn bandwidth_adds_transmission_time() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (log, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        // 8 kbit/s → 1000 bytes takes 1 s, plus 50 ms latency.
        net.set_link(
            "a".into(),
            "b".into(),
            LinkSpec::with_latency(LatencyModel::constant_ms(50)).bandwidth(8_000),
        );
        net.send(&mut sched, &"a".into(), &"b".into(), vec![0u8; 1_000])
            .unwrap();
        sched.run();
        assert_eq!(log.borrow()[0].0, 1_050);
    }

    #[test]
    fn default_link_applies_without_explicit_pair() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(7)));
        let (log, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.send(&mut sched, &"a".into(), &"b".into(), b"x".to_vec())
            .unwrap();
        sched.run();
        assert_eq!(log.borrow()[0].0, 7);
        assert_eq!(sched.now(), Timestamp::from_millis(7));
    }

    #[test]
    fn bidirectional_link_covers_both_directions() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (log, handler) = collector();
        let h1 = handler.clone();
        let h2 = handler.clone();
        net.register("a".into(), move |s, m| h1(s, m));
        net.register("b".into(), move |s, m| h2(s, m));
        net.set_link_bidirectional(
            "a".into(),
            "b".into(),
            LinkSpec::with_latency(LatencyModel::constant_ms(33)),
        );
        net.send(&mut sched, &"a".into(), &"b".into(), b"1".to_vec())
            .unwrap();
        net.send(&mut sched, &"b".into(), &"a".into(), b"2".to_vec())
            .unwrap();
        sched.run();
        assert_eq!(log.borrow().len(), 2);
        assert!(log.borrow().iter().all(|(at, _)| *at == 33));
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (_, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.send(&mut sched, &"a".into(), &"b".into(), vec![0u8; 10])
            .unwrap();
        net.send(&mut sched, &"a".into(), &"b".into(), vec![0u8; 30])
            .unwrap();
        sched.run();
        let stats = stats(&net);
        assert_eq!(stats.bytes_sent, 40);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn partition_drops_and_counts() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (log, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.partition(&"a".into(), &"b".into(), Timestamp::from_secs(60));
        net.send(&mut sched, &"a".into(), &"b".into(), b"x".to_vec())
            .unwrap();
        sched.run();
        assert!(log.borrow().is_empty());
        let stats = stats(&net);
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.dropped_by(DropCause::Partition), 1);
    }

    #[test]
    fn counters_match_snapshot_reads() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (_, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.send(&mut sched, &"a".into(), &"b".into(), vec![0u8; 5])
            .unwrap();
        sched.run();
        assert_eq!(stats(&net).delivered, 1);
        assert_eq!(net.telemetry().snapshot().counter("net.delivered"), 1);
    }

    #[test]
    fn transit_latency_lands_in_stage_histogram() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let (_, handler) = collector();
        let h = handler.clone();
        net.register("b".into(), move |s, m| h(s, m));
        net.set_link(
            "a".into(),
            "b".into(),
            LinkSpec::with_latency(LatencyModel::constant_ms(120)),
        );
        net.send(&mut sched, &"a".into(), &"b".into(), b"hi".to_vec())
            .unwrap();
        sched.run();
        let snap = net.telemetry().snapshot();
        let h = snap.histogram("net.transit_ms").expect("transit histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.min_ms, 120);
        assert_eq!(h.max_ms, 120);
    }
}
