//! The client-side broker binding.
//!
//! On the paper's mobile side this role is played by the `MQTTService`
//! class: it keeps the connection to the Mosquitto broker, receives
//! configuration pushes and sensing triggers, and acknowledges them. The
//! server side uses the same client type to publish triggers.
//!
//! # Connection lifecycle
//!
//! A bare client is optimistic: [`BrokerClient::connect`] marks it
//! connected and trusts the link. Enabling the lifecycle machinery —
//! [`BrokerClient::set_keepalive`] and/or
//! [`BrokerClient::set_reconnect_policy`] — turns the connection into a
//! supervised state machine: the session is only *confirmed* once the
//! broker's `ConnAck` arrives, periodic `PingReq`/`PingResp` probes detect
//! a dead link, and losses trigger reconnection with capped exponential
//! backoff plus deterministic per-client jitter. On a confirmed reconnect
//! the client resumes the session: re-subscribes when the broker lost its
//! state (`session_present == false`), immediately retransmits every
//! unacknowledged QoS-1 publish, and notifies connection listeners so
//! higher layers can flush their own store-and-forward buffers.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use sensocial_net::{EndpointId, Network};
use sensocial_runtime::{Scheduler, SimDuration, SimRng};

use sensocial_types::InternedTopic;

use crate::packet::{Packet, Payload, QoS};
use crate::topic::TopicFilter;

/// Callback invoked with `(scheduler, topic, payload)` for each message
/// matching a subscription.
type Subscriber = Rc<dyn Fn(&mut Scheduler, &str, &str)>;

/// Callback invoked with `(scheduler, message_id, topic, payload)` when a
/// QoS-1 publish exhausts its retries.
type DeadLetterHandler = Rc<dyn Fn(&mut Scheduler, u64, &str, &str)>;

/// Callback invoked with `(scheduler, online)` when the session is
/// confirmed (`true`) or lost (`false`).
type ConnectionListener = Rc<dyn Fn(&mut Scheduler, bool)>;

/// How many QoS-1 message ids a receiver remembers for deduplication.
const DEDUP_WINDOW: usize = 1_024;

/// The QoS-1 dedup window of one receiver: the last [`DEDUP_WINDOW`]
/// message ids it accepted, and their arrival order for eviction. The
/// client keeps one for the ids the broker assigns; the broker keeps one
/// per publishing client.
#[derive(Debug, Default)]
pub(crate) struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    /// Records `mid`; returns `true` if it was already in the window.
    pub(crate) fn check_duplicate(&mut self, mid: u64) -> bool {
        if !self.seen.insert(mid) {
            return true;
        }
        self.order.push_back(mid);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        false
    }
}

/// Consecutive unanswered keepalive probes before the connection is
/// declared lost.
const MAX_MISSED_PINGS: u32 = 2;

/// Reconnection backoff: capped exponential with uniform jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconnectPolicy {
    /// Delay before the first reconnection attempt.
    pub initial_backoff: SimDuration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: SimDuration,
    /// Jitter fraction: each delay gains a uniform sample from
    /// `[0, delay * jitter)`, de-synchronizing reconnect storms across a
    /// fleet of clients.
    pub jitter: f64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            initial_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(60),
            jitter: 0.1,
        }
    }
}

impl ReconnectPolicy {
    /// The delay before reconnection attempt number `attempt` (0-based),
    /// drawing jitter from `rng`.
    fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let base = self
            .initial_backoff
            .as_millis()
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff.as_millis())
            .max(1);
        let bound = base as f64 * self.jitter;
        let jitter = if bound > 0.0 {
            rng.uniform(0.0, bound) as u64
        } else {
            0
        };
        SimDuration::from_millis(base + jitter)
    }
}

/// Counters describing a client's lifecycle and delivery behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// QoS-1 publishes that exhausted their retries (see
    /// [`BrokerClient::set_dead_letter_handler`]).
    pub dead_lettered: u64,
    /// Times the connection was declared lost (missed pings or a missing
    /// `ConnAck`).
    pub connection_losses: u64,
    /// `ConnAck`s received — confirmed connects, including the first.
    pub connacks: u64,
    /// Keepalive probes sent.
    pub pings_sent: u64,
    /// Keepalive probes that went unanswered.
    pub pings_missed: u64,
    /// Duplicate QoS-1 deliveries suppressed by the dedup window.
    pub duplicates_suppressed: u64,
}

struct PendingPublish {
    packet: Packet,
    retries_left: u32,
}

struct Inner {
    client_id: String,
    subscriptions: Vec<(TopicFilter, QoS, Subscriber)>,
    seen: DedupWindow,
    pending: HashMap<u64, PendingPublish>,
    next_message_id: u64,
    retry_timeout: SimDuration,
    max_retries: u32,
    connected: bool,
    confirmed: bool,
    /// Bumped on every lifecycle transition; scheduled timers capture the
    /// epoch and no-op when it has moved on, so stale pings/reconnects from
    /// a previous incarnation of the connection cannot fire.
    session_epoch: u64,
    keepalive: Option<SimDuration>,
    awaiting_ping: bool,
    missed_pings: u32,
    auto_reconnect: bool,
    reconnect: ReconnectPolicy,
    backoff_attempt: u32,
    rng: SimRng,
    stats: ClientStats,
    dead_letter: Option<DeadLetterHandler>,
    connection_listeners: Vec<ConnectionListener>,
}

impl Inner {
    fn lifecycle_enabled(&self) -> bool {
        self.keepalive.is_some() || self.auto_reconnect
    }
}

/// A broker client bound to a network endpoint.
///
/// Cloneable handle. Incoming publishes are dispatched to the callbacks
/// registered with [`BrokerClient::subscribe`]; QoS-1 messages are
/// acknowledged and deduplicated automatically. See the
/// [crate-level example](crate) and the [module docs](self) for the
/// supervised connection lifecycle.
#[derive(Clone)]
pub struct BrokerClient {
    inner: Rc<RefCell<Inner>>,
    network: Network,
    endpoint: EndpointId,
    broker: EndpointId,
}

impl std::fmt::Debug for BrokerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("BrokerClient")
            .field("client_id", &inner.client_id)
            .field("endpoint", &self.endpoint)
            .field("subscriptions", &inner.subscriptions.len())
            .field("connected", &inner.connected)
            .field("confirmed", &inner.confirmed)
            .finish()
    }
}

impl BrokerClient {
    /// Creates a client that will speak to the broker at `broker_endpoint`
    /// from its own `endpoint`, registering the endpoint on `network`.
    ///
    /// The client starts disconnected; call [`BrokerClient::connect`].
    pub fn new(
        network: &Network,
        endpoint: impl Into<EndpointId>,
        broker_endpoint: impl Into<EndpointId>,
        client_id: impl Into<String>,
    ) -> Self {
        let endpoint = endpoint.into();
        let client_id = client_id.into();
        // A deterministic per-client jitter stream, derived from the client
        // id so two same-seed runs reconnect at identical instants.
        let mut seed = 0xcbf29ce484222325u64;
        for byte in client_id.as_bytes() {
            seed = seed
                .wrapping_mul(0x100000001b3)
                .wrapping_add(u64::from(*byte));
        }
        let client = BrokerClient {
            inner: Rc::new(RefCell::new(Inner {
                client_id,
                subscriptions: Vec::new(),
                seen: DedupWindow::default(),
                pending: HashMap::new(),
                next_message_id: 1,
                retry_timeout: SimDuration::from_secs(5),
                max_retries: 5,
                connected: false,
                confirmed: false,
                session_epoch: 0,
                keepalive: None,
                awaiting_ping: false,
                missed_pings: 0,
                auto_reconnect: false,
                reconnect: ReconnectPolicy::default(),
                backoff_attempt: 0,
                rng: SimRng::seed_from(seed),
                stats: ClientStats::default(),
                dead_letter: None,
                connection_listeners: Vec::new(),
            })),
            network: network.clone(),
            endpoint: endpoint.clone(),
            broker: broker_endpoint.into(),
        };
        let handle = client.clone();
        network.register(endpoint, move |sched, msg| {
            if let Ok(packet) = Packet::from_wire(&msg.payload) {
                handle.handle_packet(sched, packet);
            }
        });
        client
    }

    /// The client's stable identifier.
    pub fn client_id(&self) -> String {
        self.inner.borrow().client_id.clone()
    }

    /// The endpoint this client is reachable at.
    pub fn endpoint(&self) -> &EndpointId {
        &self.endpoint
    }

    /// Whether [`BrokerClient::connect`] has been called (and not
    /// superseded by [`BrokerClient::disconnect`] or a detected loss).
    pub fn is_connected(&self) -> bool {
        self.inner.borrow().connected
    }

    /// Whether the broker has confirmed the current connection with a
    /// `ConnAck`. Always implies [`BrokerClient::is_connected`].
    pub fn is_session_confirmed(&self) -> bool {
        self.inner.borrow().confirmed
    }

    /// A snapshot of the lifecycle counters.
    pub fn stats(&self) -> ClientStats {
        self.inner.borrow().stats
    }

    /// Enables keepalive probing: every `interval` the client pings the
    /// broker, and [`MAX_MISSED_PINGS`] consecutive unanswered probes
    /// declare the connection lost. Probing starts at the next `ConnAck`.
    pub fn set_keepalive(&self, interval: SimDuration) {
        self.inner.borrow_mut().keepalive = Some(interval);
    }

    /// Enables automatic reconnection with the given backoff policy after
    /// a detected connection loss.
    pub fn set_reconnect_policy(&self, policy: ReconnectPolicy) {
        let mut inner = self.inner.borrow_mut();
        inner.auto_reconnect = true;
        inner.reconnect = policy;
    }

    /// Sets the QoS-1 retransmission parameters (defaults: 5 s, 5 retries).
    pub fn set_retry_policy(&self, timeout: SimDuration, max_retries: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.retry_timeout = timeout;
        inner.max_retries = max_retries;
    }

    /// Installs the handler invoked when a QoS-1 publish exhausts its
    /// retries. Replaces any previous handler. The publish is also counted
    /// under [`ClientStats::dead_lettered`] whether or not a handler is
    /// installed.
    pub fn set_dead_letter_handler<F>(&self, handler: F)
    where
        F: Fn(&mut Scheduler, u64, &str, &str) + 'static,
    {
        self.inner.borrow_mut().dead_letter = Some(Rc::new(handler));
    }

    /// Registers a listener invoked with `true` when the session is
    /// confirmed by the broker and `false` when the connection is lost or
    /// deliberately closed.
    pub fn on_connection_change<F>(&self, listener: F)
    where
        F: Fn(&mut Scheduler, bool) + 'static,
    {
        self.inner
            .borrow_mut()
            .connection_listeners
            .push(Rc::new(listener));
    }

    /// Opens (or resumes) the session with the broker. Queued offline
    /// messages are delivered by the broker after the connect packet
    /// arrives.
    ///
    /// With the lifecycle enabled, a missing `ConnAck` within the retry
    /// timeout counts as a connection loss (and triggers backoff when
    /// auto-reconnect is on).
    pub fn connect(&self, sched: &mut Scheduler) {
        let (client_id, lifecycle, epoch, timeout) = {
            let mut inner = self.inner.borrow_mut();
            inner.connected = true;
            inner.confirmed = false;
            inner.awaiting_ping = false;
            inner.missed_pings = 0;
            inner.session_epoch += 1;
            (
                inner.client_id.clone(),
                inner.lifecycle_enabled(),
                inner.session_epoch,
                inner.retry_timeout,
            )
        };
        self.send(sched, &Packet::Connect { client_id });
        if lifecycle {
            let client = self.clone();
            sched.schedule_after(timeout, move |s| {
                let lost = {
                    let inner = client.inner.borrow();
                    inner.session_epoch == epoch && inner.connected && !inner.confirmed
                };
                if lost {
                    client.connection_lost(s);
                }
            });
        }
    }

    /// Closes the connection; the broker queues matching messages until the
    /// next connect. Cancels any scheduled reconnect.
    pub fn disconnect(&self, sched: &mut Scheduler) {
        let (client_id, notify) = {
            let mut inner = self.inner.borrow_mut();
            let was_confirmed = inner.confirmed;
            inner.connected = false;
            inner.confirmed = false;
            inner.session_epoch += 1;
            let notify = if was_confirmed {
                inner.connection_listeners.clone()
            } else {
                Vec::new()
            };
            (inner.client_id.clone(), notify)
        };
        self.send(sched, &Packet::Disconnect { client_id });
        for listener in notify {
            listener(sched, false);
        }
    }

    /// Subscribes to `filter`, routing matching messages to `callback`.
    ///
    /// Accepts a parsed [`TopicFilter`], anything with a typed conversion
    /// into one (e.g. `sensocial-core`'s `Topic`), or a `&str` literal via
    /// the panicking [`From<&str>`] conversion.
    ///
    /// # Panics
    ///
    /// Panics if a `&str` `filter` is not a valid topic filter —
    /// subscriptions are developer-written constants, so malformed ones
    /// are programming errors. Pre-parsed [`TopicFilter`]s cannot panic.
    pub fn subscribe<F>(
        &self,
        sched: &mut Scheduler,
        filter: impl Into<TopicFilter>,
        qos: QoS,
        callback: F,
    ) where
        F: Fn(&mut Scheduler, &str, &str) + 'static,
    {
        let filter: TopicFilter = filter.into();
        let client_id = {
            let mut inner = self.inner.borrow_mut();
            inner
                .subscriptions
                .push((filter.clone(), qos, Rc::new(callback)));
            inner.client_id.clone()
        };
        self.send(
            sched,
            &Packet::Subscribe {
                client_id,
                filter,
                qos,
            },
        );
    }

    /// Removes the subscription for `filter` (exact filter match), both
    /// locally and on the broker.
    pub fn unsubscribe(&self, sched: &mut Scheduler, filter: impl Into<TopicFilter>) {
        let filter = filter.into();
        let client_id = {
            let mut inner = self.inner.borrow_mut();
            inner.subscriptions.retain(|(f, _, _)| *f != filter);
            inner.client_id.clone()
        };
        self.send(sched, &Packet::Unsubscribe { client_id, filter });
    }

    /// Publishes `payload` to `topic`.
    ///
    /// Accepts an [`InternedTopic`] (or anything converting into one — a
    /// `&str`, a `String`, a typed `Topic`) and a [`Payload`] or anything
    /// converting into one; repeated publishes to the same topic share one
    /// interned allocation, and the payload is never copied again after
    /// this call (retries and the broker's fan-out all share it).
    ///
    /// With [`QoS::AtLeastOnce`] the publish is retransmitted until the
    /// broker acknowledges it (bounded retries), so triggers survive a
    /// lossy link. While the connection is down retries are held, not
    /// spent; on a confirmed reconnect all unacknowledged publishes are
    /// retransmitted immediately.
    pub fn publish(
        &self,
        sched: &mut Scheduler,
        topic: impl Into<InternedTopic>,
        payload: impl Into<Payload>,
        qos: QoS,
        retain: bool,
    ) {
        let topic = topic.into();
        let payload = payload.into();
        let (packet, retry) = {
            let mut inner = self.inner.borrow_mut();
            let message_id = if qos == QoS::AtLeastOnce {
                let mid = inner.next_message_id;
                inner.next_message_id += 1;
                Some(mid)
            } else {
                None
            };
            let packet = Packet::Publish {
                topic,
                payload,
                qos,
                message_id,
                retain,
                sender: Some(inner.client_id.clone()),
            };
            if let Some(mid) = message_id {
                let retries_left = inner.max_retries;
                inner.pending.insert(
                    mid,
                    PendingPublish {
                        packet: packet.clone(),
                        retries_left,
                    },
                );
                (packet, Some((mid, inner.retry_timeout)))
            } else {
                (packet, None)
            }
        };
        self.send(sched, &packet);
        if let Some((mid, timeout)) = retry {
            self.schedule_retry(sched, mid, timeout);
        }
    }

    /// Number of QoS-1 publishes awaiting acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    fn schedule_retry(&self, sched: &mut Scheduler, message_id: u64, timeout: SimDuration) {
        enum RetryAction {
            Done,
            Hold,
            Resend(Packet),
            DeadLetter(Packet, Option<DeadLetterHandler>),
        }

        let client = self.clone();
        sched.schedule_after(timeout, move |s| {
            let (action, timeout) = {
                let mut inner = client.inner.borrow_mut();
                let timeout = inner.retry_timeout;
                let connected = inner.connected;
                let action = match inner.pending.get_mut(&message_id) {
                    None => RetryAction::Done,
                    // The link is down: hold the retry budget so nothing is
                    // dead-lettered during an outage it could survive.
                    Some(_) if !connected => RetryAction::Hold,
                    Some(p) if p.retries_left == 0 => {
                        let p = inner
                            .pending
                            .remove(&message_id)
                            .expect("pending entry just matched"); // lint:allow(expect) — guarded by the match on the line above
                        inner.stats.dead_lettered += 1;
                        RetryAction::DeadLetter(p.packet, inner.dead_letter.clone())
                    }
                    Some(p) => {
                        p.retries_left -= 1;
                        RetryAction::Resend(p.packet.clone())
                    }
                };
                (action, timeout)
            };
            match action {
                RetryAction::Done => {}
                RetryAction::Hold => client.schedule_retry(s, message_id, timeout),
                RetryAction::Resend(packet) => {
                    client.send(s, &packet);
                    client.schedule_retry(s, message_id, timeout);
                }
                RetryAction::DeadLetter(packet, handler) => {
                    if let (Some(handler), Packet::Publish { topic, payload, .. }) =
                        (handler, &packet)
                    {
                        handler(s, message_id, topic.as_str(), payload.as_str());
                    }
                }
            }
        });
    }

    fn handle_packet(&self, sched: &mut Scheduler, packet: Packet) {
        match packet {
            Packet::Publish {
                topic,
                payload,
                qos,
                message_id,
                ..
            } => {
                // Acknowledge first, then dedupe redeliveries.
                if qos == QoS::AtLeastOnce {
                    if let Some(mid) = message_id {
                        let (client_id, duplicate) = {
                            let mut inner = self.inner.borrow_mut();
                            let duplicate = inner.seen.check_duplicate(mid);
                            if duplicate {
                                inner.stats.duplicates_suppressed += 1;
                            }
                            (inner.client_id.clone(), duplicate)
                        };
                        self.send(
                            sched,
                            &Packet::PubAck {
                                message_id: mid,
                                client_id: Some(client_id),
                            },
                        );
                        if duplicate {
                            return;
                        }
                    }
                }
                let callbacks: Vec<Subscriber> = {
                    let inner = self.inner.borrow();
                    inner
                        .subscriptions
                        .iter()
                        .filter(|(f, _, _)| f.matches(topic.as_str()))
                        .map(|(_, _, cb)| cb.clone())
                        .collect()
                };
                for cb in callbacks {
                    cb(sched, topic.as_str(), payload.as_str());
                }
            }
            Packet::PubAck { message_id, .. } => {
                self.inner.borrow_mut().pending.remove(&message_id);
            }
            Packet::ConnAck {
                session_present, ..
            } => self.on_connack(sched, session_present),
            Packet::PingResp { .. } => {
                let mut inner = self.inner.borrow_mut();
                inner.awaiting_ping = false;
                inner.missed_pings = 0;
            }
            // Clients ignore the remaining session-management packets.
            _ => {}
        }
    }

    fn on_connack(&self, sched: &mut Scheduler, session_present: bool) {
        let (resubscribe, resend, notify, keepalive, epoch, client_id) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.connected || inner.confirmed {
                return; // Stale or duplicate ConnAck.
            }
            inner.confirmed = true;
            inner.backoff_attempt = 0;
            inner.stats.connacks += 1;
            inner.session_epoch += 1;
            // Re-subscribe only when *resuming* against a broker that lost
            // our session (e.g. it restarted). On the very first ConnAck the
            // subscribe packets sent right after connect() are still in
            // flight — re-sending them would double retained deliveries.
            let resubscribe: Vec<(TopicFilter, QoS)> =
                if session_present || inner.stats.connacks == 1 {
                    Vec::new()
                } else {
                    inner
                        .subscriptions
                        .iter()
                        .map(|(f, q, _)| (f.clone(), *q))
                        .collect()
                };
            // Drain the pending queue in message-id order so resumed
            // publishes leave deterministically and oldest-first.
            let mut mids: Vec<u64> = inner.pending.keys().copied().collect();
            mids.sort_unstable();
            let resend: Vec<Packet> = mids
                .iter()
                .filter_map(|m| inner.pending.get(m).map(|p| p.packet.clone()))
                .collect();
            (
                resubscribe,
                resend,
                inner.connection_listeners.clone(),
                inner.keepalive,
                inner.session_epoch,
                inner.client_id.clone(),
            )
        };
        for (filter, qos) in resubscribe {
            self.send(
                sched,
                &Packet::Subscribe {
                    client_id: client_id.clone(),
                    filter,
                    qos,
                },
            );
        }
        for packet in resend {
            self.send(sched, &packet);
        }
        for listener in notify {
            listener(sched, true);
        }
        if let Some(interval) = keepalive {
            self.schedule_ping(sched, epoch, interval);
        }
    }

    fn schedule_ping(&self, sched: &mut Scheduler, epoch: u64, interval: SimDuration) {
        let client = self.clone();
        sched.schedule_after(interval, move |s| {
            // None: loop is stale. Some(None): declare the connection
            // lost. Some(Some(id)): probe again.
            let action = {
                let mut inner = client.inner.borrow_mut();
                if inner.session_epoch != epoch || !inner.connected {
                    None
                } else {
                    if inner.awaiting_ping {
                        inner.missed_pings += 1;
                        inner.stats.pings_missed += 1;
                    } else {
                        inner.missed_pings = 0;
                    }
                    if inner.missed_pings >= MAX_MISSED_PINGS {
                        Some(None)
                    } else {
                        inner.awaiting_ping = true;
                        inner.stats.pings_sent += 1;
                        Some(Some(inner.client_id.clone()))
                    }
                }
            };
            match action {
                None => {}
                Some(None) => client.connection_lost(s),
                Some(Some(client_id)) => {
                    client.send(s, &Packet::PingReq { client_id });
                    client.schedule_ping(s, epoch, interval);
                }
            }
        });
    }

    fn connection_lost(&self, sched: &mut Scheduler) {
        let (notify, reconnect) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.connected {
                return;
            }
            inner.connected = false;
            inner.confirmed = false;
            inner.session_epoch += 1;
            inner.awaiting_ping = false;
            inner.missed_pings = 0;
            inner.stats.connection_losses += 1;
            let reconnect = if inner.auto_reconnect {
                let attempt = inner.backoff_attempt;
                inner.backoff_attempt = inner.backoff_attempt.saturating_add(1);
                let policy = inner.reconnect.clone();
                let delay = {
                    let rng = &mut inner.rng;
                    policy.delay(attempt, rng)
                };
                Some((delay, inner.session_epoch))
            } else {
                None
            };
            (inner.connection_listeners.clone(), reconnect)
        };
        for listener in notify {
            listener(sched, false);
        }
        if let Some((delay, epoch)) = reconnect {
            let client = self.clone();
            sched.schedule_after(delay, move |s| {
                let go = {
                    let inner = client.inner.borrow();
                    inner.session_epoch == epoch && !inner.connected
                };
                if go {
                    client.connect(s);
                }
            });
        }
    }

    fn send(&self, sched: &mut Scheduler, packet: &Packet) {
        let _ = self
            .network
            .send(sched, &self.endpoint, &self.broker, packet.to_wire());
    }
}
