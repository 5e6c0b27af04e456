//! The broker itself: sessions, routing, retained messages, QoS-1 retries.
//!
//! Routing goes through a `RouteIndex`, the only record of
//! subscriptions: wildcard-free filters (every device's config and trigger
//! topic) sit in a map keyed by the filter string, and the few filters
//! with `+` or `#` (the server's uplink and ack wildcards) in a short
//! list. A publish costs one map lookup plus a pass over that list, not a
//! test of every session's filters.
//!
//! Hot-path memory discipline (see DESIGN.md §7): topics are interned
//! `Arc<str>` newtypes and payloads are shared [`Payload`] allocations, so
//! fan-out to N subscribers bumps reference counts instead of cloning
//! strings N times. Deliveries are batched per virtual instant through a
//! [`Scheduler::schedule_now`] flush (the `broker.batch_size` histogram
//! records amortization), which preserves virtual-time latencies and
//! delivery order exactly.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use sensocial_net::{EndpointId, Network};
use sensocial_runtime::{Scheduler, SimDuration};
use sensocial_telemetry::{Registry, Stage};
use sensocial_types::intern::intern;

use crate::client::DedupWindow;
use crate::packet::{Envelope, Packet, Payload, QoS};
use crate::topic::TopicFilter;

/// Tunables for broker behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerConfig {
    /// How long to wait for a `PubAck` before retransmitting a QoS-1
    /// delivery.
    pub retry_timeout: SimDuration,
    /// Retransmissions attempted before giving up on a delivery.
    pub max_retries: u32,
    /// Maximum messages queued for a disconnected session; older messages
    /// are dropped first when the queue overflows.
    pub offline_queue_limit: usize,
    /// When a QoS-1 delivery exhausts its retries, requeue it on the
    /// session's offline queue (and mark the session disconnected, since
    /// the client is evidently unreachable) instead of abandoning it. The
    /// message is then delivered on the client's next connect, so triggers
    /// survive outages longer than the whole retry budget.
    pub requeue_on_exhaust: bool,
    /// Batch deliveries accumulated within one virtual instant and flush
    /// them through a single scheduler event (recorded in the
    /// `broker.batch_size` histogram). Batching is virtual-time-neutral:
    /// the flush fires at the same instant the messages were published,
    /// in publish order, so latencies, delivery order and drop-cause
    /// counters are unchanged — only the per-message scheduler overhead is
    /// amortized. Disable to deliver inline per message.
    pub batch_delivery: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            retry_timeout: SimDuration::from_secs(5),
            max_retries: 5,
            offline_queue_limit: 1_000,
            requeue_on_exhaust: true,
            batch_delivery: true,
        }
    }
}

#[derive(Debug)]
struct Session {
    endpoint: EndpointId,
    connected: bool,
    /// Messages parked for a disconnected session. Envelope clones are
    /// refcount bumps: a message queued for N offline subscribers shares
    /// one topic and one payload allocation.
    offline: VecDeque<Envelope>,
}

/// Total messages parked in offline queues across every session — the
/// value behind the `broker.offline_backlog` gauge (its high-water mark is
/// the figure scenario acceptance thresholds bound).
fn offline_backlog(sessions: &BTreeMap<Arc<str>, Session>) -> u64 {
    sessions.values().map(|s| s.offline.len() as u64).sum()
}

#[derive(Debug, Clone)]
struct PendingDelivery {
    client_id: Arc<str>,
    envelope: Envelope,
    retries_left: u32,
}

/// Every subscription, indexed for routing. Subscriptions outlive
/// disconnects (sessions are persistent), and a client holds at most one
/// entry per filter: resubscribing replaces its QoS.
#[derive(Debug, Default)]
struct RouteIndex {
    /// Wildcard-free filters, keyed by the interned filter string (the
    /// allocation publishes to that topic carry), each with its
    /// `(client_id, qos)` subscribers.
    exact: HashMap<Arc<str>, Vec<(Arc<str>, QoS)>>,
    /// Filters with `+` or `#`. There are only a handful, so a linear
    /// pass is the cheapest lookup.
    wildcards: Vec<(Arc<str>, TopicFilter, QoS)>,
}

impl RouteIndex {
    fn subscribe(&mut self, client_id: &Arc<str>, filter: TopicFilter, qos: QoS) {
        if filter.is_literal() {
            let subs = self.exact.entry(intern(filter.as_str())).or_default();
            match subs.iter_mut().find(|(c, _)| c == client_id) {
                Some(entry) => entry.1 = qos,
                None => subs.push((Arc::clone(client_id), qos)),
            }
        } else {
            match self
                .wildcards
                .iter_mut()
                .find(|(c, f, _)| c == client_id && *f == filter)
            {
                Some(entry) => entry.2 = qos,
                None => self.wildcards.push((Arc::clone(client_id), filter, qos)),
            }
        }
    }

    fn unsubscribe(&mut self, client_id: &str, filter: &TopicFilter) {
        if filter.is_literal() {
            if let Some(subs) = self.exact.get_mut(filter.as_str()) {
                subs.retain(|(c, _)| &**c != client_id);
                if subs.is_empty() {
                    self.exact.remove(filter.as_str());
                }
            }
        } else {
            self.wildcards
                .retain(|(c, f, _)| !(&**c == client_id && f == filter));
        }
    }

    /// The delivery targets of a publish to `topic`: each subscribed
    /// client once, with its highest matching subscription QoS capped at
    /// the publish's `qos` and whether its session is connected, in
    /// client-id order.
    fn route(
        &self,
        topic: &str,
        qos: QoS,
        sessions: &BTreeMap<Arc<str>, Session>,
    ) -> Vec<(Arc<str>, QoS, bool)> {
        let exact = self.exact.get(topic).into_iter().flatten();
        let wild = self
            .wildcards
            .iter()
            .filter(|(_, f, _)| f.matches(topic))
            .map(|(c, _, q)| (c, *q));
        let mut hits: Vec<(Arc<str>, QoS, bool)> = exact
            .map(|(c, q)| (c, *q))
            .chain(wild)
            .map(|(c, q)| (Arc::clone(c), q.min(qos), false))
            .collect();
        // Highest QoS first within a client, so dedup keeps it.
        hits.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        hits.dedup_by(|later, kept| later.0 == kept.0);
        // Subscribing needs a session and sessions are never removed, so
        // every subscriber has one.
        for (c, _, connected) in &mut hits {
            *connected = sessions.get(c).is_some_and(|s| s.connected);
        }
        hits
    }
}

struct Inner {
    endpoint: EndpointId,
    /// Sessions keyed by interned client id.
    sessions: BTreeMap<Arc<str>, Session>,
    routes: RouteIndex,
    /// Retained message per topic, shared allocations on both sides.
    retained: BTreeMap<sensocial_types::InternedTopic, Payload>,
    pending: HashMap<u64, PendingDelivery>,
    /// Per-sender window of inbound QoS-1 message ids already routed.
    inbound_seen: HashMap<String, DedupWindow>,
    next_message_id: u64,
    /// Deliveries accumulated within the current virtual instant, drained
    /// FIFO by one scheduled flush ([`BrokerConfig::batch_delivery`]).
    batch: VecDeque<(Arc<str>, Envelope)>,
    /// Whether a batch flush is already scheduled for this instant.
    flush_scheduled: bool,
    config: BrokerConfig,
}

/// An MQTT-style broker attached to a network endpoint.
///
/// Construct with [`Broker::new`]; the broker then serves packets arriving
/// at its endpoint for as long as the handle (or any clone) is alive. See
/// the [crate-level example](crate).
#[derive(Clone)]
pub struct Broker {
    inner: Rc<RefCell<Inner>>,
    network: Network,
    telemetry: Registry,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Broker")
            .field("endpoint", &inner.endpoint)
            .field("sessions", &inner.sessions.len())
            .finish()
    }
}

impl Broker {
    /// Creates a broker and registers it at `endpoint` on `network`.
    pub fn new(network: &Network, endpoint: impl Into<EndpointId>) -> Self {
        let endpoint = endpoint.into();
        let broker = Broker {
            inner: Rc::new(RefCell::new(Inner {
                endpoint: endpoint.clone(),
                sessions: BTreeMap::new(),
                routes: RouteIndex::default(),
                retained: BTreeMap::new(),
                pending: HashMap::new(),
                inbound_seen: HashMap::new(),
                next_message_id: 1,
                batch: VecDeque::new(),
                flush_scheduled: false,
                config: BrokerConfig::default(),
            })),
            network: network.clone(),
            telemetry: Registry::new("broker"),
        };
        let handle = broker.clone();
        network.register(endpoint, move |sched, msg| {
            let Ok(packet) = Packet::from_wire(&msg.payload) else {
                handle.telemetry.count("malformed_packets");
                return;
            };
            if matches!(packet, Packet::Publish { .. }) {
                // Ingress transit: how long the publish spent on the
                // wire between the client and the broker.
                let transit = sched
                    .now()
                    .as_millis()
                    .saturating_sub(msg.sent_at.as_millis());
                handle.telemetry.observe(Stage::Broker, transit);
            }
            handle.handle_packet(sched, msg.from.clone(), packet);
        });
        broker
    }

    /// The broker's telemetry registry (scope `broker`), the one record of
    /// broker activity. Counters: `published` (publishes accepted from
    /// clients), `delivered` (deliveries sent towards subscribers, retries
    /// excluded), `queued_offline` (messages queued for disconnected
    /// sessions), `retries` (QoS-1 retransmissions), `unrouted` (publishes
    /// that matched no subscription), `abandoned` and `requeued` (QoS-1
    /// deliveries dropped, or parked offline under
    /// [`BrokerConfig::requeue_on_exhaust`], after exhausting retries),
    /// `duplicate_publishes` (inbound QoS-1 retries of an already-routed
    /// `(sender, message_id)` pair), `pings` (keepalive probes answered),
    /// `offline_dropped` (oldest-message evictions when an offline queue
    /// overflows its limit) and `malformed_packets` (frames that do not
    /// decode as a packet, dropped). Also the [`Stage::Broker`]
    /// ingress-transit histogram, the `broker.batch_size` histogram
    /// (messages drained per per-instant delivery flush, recording how
    /// much scheduler overhead batching amortizes) and the
    /// `broker.offline_backlog` gauge (messages parked in offline queues,
    /// with high-water mark).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Replaces the broker configuration.
    pub fn set_config(&self, config: BrokerConfig) {
        self.inner.borrow_mut().config = config;
    }

    fn handle_packet(&self, sched: &mut Scheduler, from: EndpointId, packet: Packet) {
        match packet {
            Packet::Connect { client_id } => self.on_connect(sched, from, client_id),
            Packet::Disconnect { client_id } => {
                if let Some(session) = self.inner.borrow_mut().sessions.get_mut(client_id.as_str())
                {
                    session.connected = false;
                }
            }
            Packet::Subscribe {
                client_id,
                filter,
                qos,
            } => self.on_subscribe(sched, client_id, filter, qos),
            Packet::Unsubscribe { client_id, filter } => {
                self.inner
                    .borrow_mut()
                    .routes
                    .unsubscribe(&client_id, &filter);
            }
            Packet::Publish {
                topic,
                payload,
                qos,
                message_id,
                retain,
                sender,
            } => self.on_publish(sched, from, topic, payload, qos, message_id, retain, sender),
            Packet::PubAck { message_id, .. } => {
                self.inner.borrow_mut().pending.remove(&message_id);
            }
            Packet::PingReq { client_id } => self.on_ping(sched, client_id),
            // Broker → client packets looping back are ignored.
            Packet::ConnAck { .. } | Packet::PingResp { .. } => {}
        }
    }

    fn on_connect(&self, sched: &mut Scheduler, from: EndpointId, client_id: String) {
        let cid = intern(&client_id);
        let (flush, ack, broker_endpoint, endpoint) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let session_present = inner.sessions.contains_key(&*cid);
            let session = inner.sessions.entry(Arc::clone(&cid)).or_insert(Session {
                endpoint: from.clone(),
                connected: true,
                offline: VecDeque::new(),
            });
            session.endpoint = from;
            session.connected = true;
            let ack = Packet::ConnAck {
                client_id,
                session_present,
            };
            let flush: Vec<Envelope> = session.offline.drain(..).collect();
            let endpoint = session.endpoint.clone();
            let backlog = offline_backlog(&inner.sessions);
            self.telemetry.gauge_set("offline_backlog", backlog);
            (flush, ack, inner.endpoint.clone(), endpoint)
        };
        // The ConnAck leaves before the offline flush so a resuming client
        // confirms its session ahead of the queued deliveries (the batch
        // flush fires later within the same instant, keeping that order).
        let _ = self
            .network
            .send(sched, &broker_endpoint, &endpoint, ack.to_wire());
        for envelope in flush {
            self.enqueue_delivery(sched, Arc::clone(&cid), envelope);
        }
    }

    fn on_ping(&self, sched: &mut Scheduler, client_id: String) {
        let reply = {
            let inner = self.inner.borrow();
            match inner.sessions.get(client_id.as_str()) {
                Some(session) if session.connected => {
                    self.telemetry.count("pings");
                    Some((inner.endpoint.clone(), session.endpoint.clone()))
                }
                // Unknown or disconnected session: stay silent so the
                // client's keepalive declares the connection lost and
                // re-connects from scratch.
                _ => None,
            }
        };
        if let Some((broker_endpoint, endpoint)) = reply {
            let resp = Packet::PingResp { client_id };
            let _ = self
                .network
                .send(sched, &broker_endpoint, &endpoint, resp.to_wire());
        }
    }

    fn on_subscribe(
        &self,
        sched: &mut Scheduler,
        client_id: String,
        filter: TopicFilter,
        qos: QoS,
    ) {
        let cid = intern(&client_id);
        let retained: Vec<Envelope> = {
            let mut inner = self.inner.borrow_mut();
            if !inner.sessions.contains_key(&*cid) {
                return; // Subscribe before connect: ignored, like Mosquitto.
            }
            let retained = inner
                .retained
                .iter()
                .filter(|(topic, _)| filter.matches(topic.as_str()))
                // Refcount bumps, not string clones: the retained entry
                // keeps its allocations.
                .map(|(t, p)| Envelope::new(t.clone(), p.clone(), qos))
                .collect();
            inner.routes.subscribe(&cid, filter, qos);
            retained
        };
        for envelope in retained {
            self.enqueue_delivery(sched, Arc::clone(&cid), envelope);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_publish(
        &self,
        sched: &mut Scheduler,
        from: EndpointId,
        topic: sensocial_types::InternedTopic,
        payload: Payload,
        qos: QoS,
        message_id: Option<u64>,
        retain: bool,
        sender: Option<String>,
    ) {
        // Acknowledge the inbound leg first, then drop duplicates: a client
        // whose first copy was routed but whose ack was lost will retry
        // with the same (sender, message_id); re-routing that copy would
        // hand subscribers a *fresh* downstream message id, defeating their
        // dedup window and duplicating app-level deliveries.
        if qos == QoS::AtLeastOnce {
            if let Some(mid) = message_id {
                let ack = Packet::PubAck {
                    message_id: mid,
                    client_id: None,
                };
                let (endpoint, duplicate) = {
                    let mut inner = self.inner.borrow_mut();
                    let inner = &mut *inner;
                    let duplicate = match &sender {
                        Some(sender) => inner
                            .inbound_seen
                            .entry(sender.clone())
                            .or_default()
                            .check_duplicate(mid),
                        None => false,
                    };
                    if duplicate {
                        self.telemetry.count("duplicate_publishes");
                    }
                    (inner.endpoint.clone(), duplicate)
                };
                let _ = self.network.send(sched, &endpoint, &from, ack.to_wire());
                if duplicate {
                    return;
                }
            }
        }

        let targets: Vec<(Arc<str>, QoS, bool)> = {
            let mut inner = self.inner.borrow_mut();
            self.telemetry.count("published");
            if retain {
                if payload.is_empty() {
                    inner.retained.remove(&topic);
                } else {
                    // Refcount bumps: the retained entry shares the
                    // publish's allocations.
                    inner.retained.insert(topic.clone(), payload.clone());
                }
            }
            // Like Mosquitto, the publisher receives its own message when
            // subscribed to a matching filter, so no sender exclusion here.
            let _ = &sender;
            let targets = inner.routes.route(topic.as_str(), qos, &inner.sessions);
            if targets.is_empty() {
                self.telemetry.count("unrouted");
            }
            for (cid, q, connected) in &targets {
                if !connected {
                    self.telemetry.count("queued_offline");
                    let limit = inner.config.offline_queue_limit;
                    if let Some(session) = inner.sessions.get_mut(&**cid) {
                        if session.offline.len() >= limit {
                            session.offline.pop_front();
                            self.telemetry.count("offline_dropped");
                        }
                        // One interned topic and one shared payload per
                        // message, however many sessions queue it.
                        session.offline.push_back(Envelope::new(
                            topic.clone(),
                            payload.clone(),
                            *q,
                        ));
                    }
                }
            }
            if targets.iter().any(|(_, _, connected)| !connected) {
                let backlog = offline_backlog(&inner.sessions);
                self.telemetry.gauge_set("offline_backlog", backlog);
            }
            targets
        };

        for (cid, q, connected) in targets {
            if connected {
                self.enqueue_delivery(sched, cid, Envelope::new(topic.clone(), payload.clone(), q));
            }
        }
    }

    /// Queues one delivery on the per-instant batch, scheduling the flush
    /// if this is the instant's first message. With batching disabled the
    /// delivery goes out inline, exactly as before the batch existed.
    fn enqueue_delivery(&self, sched: &mut Scheduler, client_id: Arc<str>, envelope: Envelope) {
        let flush_now = {
            let mut inner = self.inner.borrow_mut();
            if !inner.config.batch_delivery {
                drop(inner);
                self.deliver(sched, &client_id, envelope);
                return;
            }
            inner.batch.push_back((client_id, envelope));
            if inner.flush_scheduled {
                false
            } else {
                inner.flush_scheduled = true;
                true
            }
        };
        if flush_now {
            let broker = self.clone();
            // Fires at the *current* instant, after the events already
            // queued for it: every publish routed in this instant lands in
            // the same batch, and virtual-time latency is unchanged.
            sched.schedule_now(move |s| broker.flush_batch(s));
        }
    }

    /// Drains the per-instant delivery batch FIFO — one scheduler event
    /// however many messages this instant routed.
    fn flush_batch(&self, sched: &mut Scheduler) {
        let batch: Vec<(Arc<str>, Envelope)> = {
            let mut inner = self.inner.borrow_mut();
            inner.flush_scheduled = false;
            inner.batch.drain(..).collect()
        };
        self.telemetry
            .observe_named("batch_size", batch.len() as u64);
        for (client_id, envelope) in batch {
            self.deliver(sched, &client_id, envelope);
        }
    }

    /// Sends one delivery towards a connected client, installing retry
    /// state when the effective QoS demands acknowledgement.
    fn deliver(&self, sched: &mut Scheduler, client_id: &str, envelope: Envelope) {
        let qos = envelope.qos;
        let (endpoint, broker_endpoint, message_id, retry_timeout) = {
            let mut inner = self.inner.borrow_mut();
            self.telemetry.count("delivered");
            let Some(session) = inner.sessions.get(client_id) else {
                return;
            };
            let endpoint = session.endpoint.clone();
            let broker_endpoint = inner.endpoint.clone();
            let message_id = if qos == QoS::AtLeastOnce {
                let mid = inner.next_message_id;
                inner.next_message_id += 1;
                let retries_left = inner.config.max_retries;
                inner.pending.insert(
                    mid,
                    PendingDelivery {
                        client_id: intern(client_id),
                        // Refcount bumps; retry state shares the message's
                        // allocations.
                        envelope: envelope.clone(),
                        retries_left,
                    },
                );
                Some(mid)
            } else {
                None
            };
            (
                endpoint,
                broker_endpoint,
                message_id,
                inner.config.retry_timeout,
            )
        };

        let packet = Packet::Publish {
            topic: envelope.topic,
            payload: envelope.payload,
            qos,
            message_id,
            retain: false,
            sender: None,
        };
        let _ = self
            .network
            .send(sched, &broker_endpoint, &endpoint, packet.to_wire());

        if let Some(mid) = message_id {
            self.schedule_retry(sched, mid, retry_timeout);
        }
    }

    fn schedule_retry(&self, sched: &mut Scheduler, message_id: u64, timeout: SimDuration) {
        let broker = self.clone();
        sched.schedule_after(timeout, move |s| {
            broker.retry(s, message_id);
        });
    }

    fn retry(&self, sched: &mut Scheduler, message_id: u64) {
        let (action, retry_timeout) = {
            let mut inner = self.inner.borrow_mut();
            let retry_timeout = inner.config.retry_timeout;
            let Some(pending) = inner.pending.get_mut(&message_id) else {
                return; // Acked in the meantime.
            };
            if pending.retries_left == 0 {
                let pending = inner
                    .pending
                    .remove(&message_id)
                    .expect("pending entry just matched"); // lint:allow(expect) — guarded by the match on the line above
                if inner.config.requeue_on_exhaust {
                    let limit = inner.config.offline_queue_limit;
                    match inner.sessions.get_mut(&pending.client_id) {
                        Some(session) => {
                            // The client never acked across the whole retry
                            // budget: treat its connection as dead and park
                            // the delivery for its next connect. The
                            // envelope moves as-is — the one interned topic
                            // and shared payload are reused, no per-requeue
                            // clone (its QoS is already at-least-once,
                            // retry state only exists for QoS 1).
                            session.connected = false;
                            if session.offline.len() >= limit {
                                session.offline.pop_front();
                                self.telemetry.count("offline_dropped");
                            }
                            session.offline.push_back(pending.envelope);
                            self.telemetry.count("requeued");
                            let backlog = offline_backlog(&inner.sessions);
                            self.telemetry.gauge_set("offline_backlog", backlog);
                        }
                        None => {
                            self.telemetry.count("abandoned");
                        }
                    }
                } else {
                    self.telemetry.count("abandoned");
                }
                (None, retry_timeout)
            } else {
                pending.retries_left -= 1;
                let pending = pending.clone();
                self.telemetry.count("retries");
                let endpoint = inner
                    .sessions
                    .get(&pending.client_id)
                    .map(|s| (s.endpoint.clone(), s.connected));
                let broker_endpoint = inner.endpoint.clone();
                (
                    endpoint.map(|e| (pending, e, broker_endpoint)),
                    retry_timeout,
                )
            }
        };

        if let Some((pending, (endpoint, connected), broker_endpoint)) = action {
            if connected {
                let packet = Packet::Publish {
                    topic: pending.envelope.topic,
                    payload: pending.envelope.payload,
                    qos: QoS::AtLeastOnce,
                    message_id: Some(message_id),
                    retain: false,
                    sender: None,
                };
                let _ = self
                    .network
                    .send(sched, &broker_endpoint, &endpoint, packet.to_wire());
            }
            self.schedule_retry(sched, message_id, retry_timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_runtime::SimRng;

    const CLIENTS: [&str; 4] = ["c0", "c1", "c2", "c3"];
    const FILTERS: [&str; 10] = [
        "sensocial/config/c1",
        "sensocial/uplink/+",
        "sensocial/+/c2",
        "sensocial/#",
        "#",
        "+",
        "a/b",
        "a/+",
        "a/#",
        "+/+/c1",
    ];
    const TOPICS: [&str; 11] = [
        "sensocial/config/c1",
        "sensocial/config/c2",
        "sensocial/uplink/c2",
        "sensocial/ack/c2",
        "sensocial",
        "a/b",
        "a/",
        "a",
        "",
        "a/b/c",
        "x/y/c1",
    ];

    /// The linear scan the index replaced: every filter of every session,
    /// walked in client-id order.
    #[derive(Default)]
    struct Oracle {
        sessions: BTreeMap<String, (bool, Vec<(TopicFilter, QoS)>)>,
    }

    impl Oracle {
        fn targets(&self, topic: &str, qos: QoS) -> Vec<(Arc<str>, QoS, bool)> {
            self.sessions
                .iter()
                .filter_map(|(cid, (connected, subs))| {
                    subs.iter()
                        .filter(|(f, _)| f.matches(topic))
                        .map(|(_, sub_qos)| (*sub_qos).min(qos))
                        .max()
                        .map(|q| (Arc::from(cid.as_str()), q, *connected))
                })
                .collect()
        }
    }

    fn pick<'a>(rng: &mut SimRng, items: &[&'a str]) -> &'a str {
        rng.choose(items).copied().unwrap_or_default()
    }

    #[test]
    fn index_routes_like_a_scan_of_every_filter() {
        let mut sched = Scheduler::new();
        let net = Network::new(1);
        let broker = Broker::new(&net, "broker");
        let mut oracle = Oracle::default();
        let mut rng = SimRng::seed_from(0x5e50c1a1);
        let qos_of = |rng: &mut SimRng| {
            if rng.chance(0.5) {
                QoS::AtLeastOnce
            } else {
                QoS::AtMostOnce
            }
        };
        for step in 0..2_000 {
            let client = pick(&mut rng, &CLIENTS).to_owned();
            let from = EndpointId::from(client.as_str());
            let packet = match rng.uniform_u64(0, 10) {
                0 => {
                    oracle.sessions.entry(client.clone()).or_default().0 = true;
                    Packet::Connect { client_id: client }
                }
                1 => {
                    if let Some(session) = oracle.sessions.get_mut(&client) {
                        session.0 = false;
                    }
                    Packet::Disconnect { client_id: client }
                }
                2 | 3 => {
                    let filter = TopicFilter::from(pick(&mut rng, &FILTERS));
                    if let Some((_, subs)) = oracle.sessions.get_mut(&client) {
                        subs.retain(|(f, _)| *f != filter);
                    }
                    Packet::Unsubscribe {
                        client_id: client,
                        filter,
                    }
                }
                _ => {
                    let filter = TopicFilter::from(pick(&mut rng, &FILTERS));
                    let qos = qos_of(&mut rng);
                    // Before its first connect a client has no session, and
                    // the broker ignores its subscribe.
                    if let Some((_, subs)) = oracle.sessions.get_mut(&client) {
                        subs.retain(|(f, _)| *f != filter);
                        subs.push((filter.clone(), qos));
                    }
                    Packet::Subscribe {
                        client_id: client,
                        filter,
                        qos,
                    }
                }
            };
            broker.handle_packet(&mut sched, from, packet);
            let inner = broker.inner.borrow();
            for topic in TOPICS {
                for qos in [QoS::AtMostOnce, QoS::AtLeastOnce] {
                    assert_eq!(
                        inner.routes.route(topic, qos, &inner.sessions),
                        oracle.targets(topic, qos),
                        "step {step}: publish to {topic:?} at {qos}"
                    );
                }
            }
        }
        let inner = broker.inner.borrow();
        assert!(!inner.routes.exact.is_empty() && !inner.routes.wildcards.is_empty());
    }
}
