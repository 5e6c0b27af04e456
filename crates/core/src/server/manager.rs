//! The server-side SenSocial Manager, Trigger Manager and Filter Manager.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use sensocial_broker::{BrokerClient, QoS};
use sensocial_classify::{extract_topic, SentimentClassifier, TextSentiment};
use sensocial_net::LatencyModel;
use sensocial_osn::{PollPlugin, PushPlugin, SocialGraph};
use sensocial_runtime::json;
use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timestamp};
use sensocial_storage::{Database, StorageEngine};
use sensocial_telemetry::{Registry, Stage};
use sensocial_types::filter::{EvalContext, Filter};
use sensocial_types::{
    ContextData, ContextSnapshot, DeviceId, Error, GeoPoint, OsnAction, OsnActionKind, RawSample,
    Result, StreamId, TriggerId, UserId,
};

use sensocial_analysis::report;
use sensocial_analysis::{
    analyze, compile, AnalysisEnv, DependencyGraph, FilterPlan, FlowSink, FlowSource,
    PredicateProgram,
};

use crate::client::manager_internals::REMOTE_STREAM_ID_BASE;
use crate::config::{check_interval, ConfigCommand, StreamMode, StreamSink, StreamSpec};
use crate::event::{ConfigAck, RegistrationPayload, StreamEvent, TriggerPayload};
use crate::predicate::eval_full;
use crate::{Topic, ACK_WILDCARD, REGISTER_TOPIC, UPLINK_WILDCARD};

use super::aggregator::{AggregatorId, AggregatorState};
use super::multicast::{MulticastId, MulticastSelector, MulticastStream};

/// Which uplink events a server-side subscription receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamSelector {
    /// Every uplink event from every device.
    AllUplinks,
    /// Events from one stream.
    Stream(StreamId),
    /// Events from one user (any of their devices/streams).
    User(UserId),
    /// Events of one modality from any user — the paper's *topic-based*
    /// subscription ("the specification of modalities of interest", §3.1);
    /// combine with a [`Filter`] for the *content-based* flavour.
    Modality(sensocial_types::Modality),
}

impl StreamSelector {
    fn matches(&self, event: &StreamEvent) -> bool {
        match self {
            StreamSelector::AllUplinks => true,
            StreamSelector::Stream(id) => event.stream == *id,
            StreamSelector::User(user) => event.user == *user,
            StreamSelector::Modality(m) => event.data.modality() == *m,
        }
    }
}

type Listener = Rc<dyn Fn(&mut Scheduler, &StreamEvent)>;

/// A registered observer of device configuration acks (both positive and
/// negative). The campaign scheduler's settle path. It returns whether it
/// stays registered, as a repeating timer's body does.
type AckListener = Box<dyn FnMut(&mut Scheduler, &ConfigAck) -> bool>;

struct Subscription {
    selector: StreamSelector,
    filter: Filter,
    /// `filter` lowered to predicate bytecode at registration time; the
    /// per-uplink hot path runs this instead of tree-walking the filter.
    program: PredicateProgram,
    listener: Listener,
}

/// An aggregated stream's runtime entry: membership, the installed
/// (normalized) filter, its compiled form, and the subscribed listeners.
struct AggregatorEntry {
    state: AggregatorState,
    filter: Filter,
    /// `filter` lowered to predicate bytecode at install time.
    program: PredicateProgram,
    listeners: Vec<Listener>,
}

/// Everything a [`ServerManager`] is wired to.
pub struct ServerDeps {
    /// The storage engine (document plane + batched sensor-sample log),
    /// opened through `sensocial_storage::StorageConfig::open`.
    pub storage: StorageEngine,
    /// The server's broker client.
    pub broker: BrokerClient,
    /// Server-side processing time between receiving an OSN action and
    /// publishing the sensing trigger (database queries, trigger
    /// compilation). Table 3 measures this at ≈9 s end-to-end including
    /// push delivery.
    pub processing_delay: LatencyModel,
    /// Randomness for the processing-delay model.
    pub rng: SimRng,
}

impl ServerDeps {
    /// Standard wiring with the Table 3-calibrated processing delay.
    pub fn new(storage: StorageEngine, broker: BrokerClient, rng: SimRng) -> Self {
        ServerDeps {
            storage,
            broker,
            processing_delay: LatencyModel::Normal {
                mean_s: 8.8,
                std_s: 0.9,
                min_s: 0.5,
            },
            rng,
        }
    }
}

struct Inner {
    devices: HashMap<DeviceId, UserId>,
    user_devices: HashMap<UserId, Vec<DeviceId>>,
    contexts: HashMap<UserId, ContextSnapshot>,
    /// Each user's latest position, from a GPS uplink or a seed, in the
    /// order users were first placed. Geo selectors return members in this
    /// order, so it decides which remote stream id each joiner gets.
    positions: Vec<(UserId, GeoPoint)>,
    /// Each placed user's slot in `positions`. Never iterated.
    position_slots: BTreeMap<UserId, usize>,
    graph: SocialGraph,
    remote_streams: HashMap<StreamId, (DeviceId, StreamSpec)>,
    subscriptions: Vec<Subscription>,
    /// Aggregators and multicasts are ordered by id, so an uplink calls
    /// their listeners in the same order every run.
    aggregators: BTreeMap<AggregatorId, AggregatorEntry>,
    multicasts: BTreeMap<MulticastId, (MulticastStream, Vec<Listener>)>,
    next_remote_stream: u64,
    /// Monotonic stamp applied to every pushed [`ConfigCommand`], so devices
    /// can discard stale (reordered or redelivered) configuration.
    next_config_epoch: u64,
    next_trigger: u64,
    next_aggregator: u64,
    next_multicast: u64,
    processing_delay: LatencyModel,
    rng: SimRng,
    /// (action time, server receive time) pairs — Table 3's raw data.
    action_log: Vec<(Timestamp, Timestamp)>,
    /// Negative configuration acks, oldest first, with their diagnostics.
    rejection_log: Vec<ConfigAck>,
    /// Observers notified of every configuration ack (positive and
    /// negative) after the server's own bookkeeping.
    ack_listeners: Vec<AckListener>,
    /// Whether OSN text mining (topic extraction + sentiment) runs on
    /// incoming actions — the paper's §9 future work, implemented.
    text_mining: bool,
}

impl Inner {
    /// Overwrites `user`'s slot in the position table, or appends one the
    /// first time the user is placed.
    fn place(&mut self, user: &UserId, position: GeoPoint) {
        if let Some(&slot) = self.position_slots.get(user) {
            self.positions[slot].1 = position;
        } else {
            self.position_slots
                .insert(user.clone(), self.positions.len());
            self.positions.push((user.clone(), position));
        }
    }
}

/// The server-side entry point: user/device registry, trigger manager,
/// server filter manager, aggregators and multicast streams.
///
/// Cloneable handle.
#[derive(Clone)]
pub struct ServerManager {
    inner: Rc<RefCell<Inner>>,
    storage: StorageEngine,
    broker: BrokerClient,
    telemetry: Registry,
}

impl std::fmt::Debug for ServerManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        let snap = self.telemetry.snapshot();
        f.debug_struct("ServerManager")
            .field("devices", &inner.devices.len())
            .field("remote_streams", &inner.remote_streams.len())
            .field("osn_actions", &snap.counter("server.osn_actions"))
            .field("triggers_sent", &snap.counter("server.triggers_sent"))
            .field("uplink_events", &snap.counter("server.uplink_events"))
            .finish()
    }
}

impl ServerManager {
    /// Creates a server manager. Call [`ServerManager::connect`] before
    /// expecting uplink data.
    pub fn new(deps: ServerDeps) -> Self {
        ServerManager {
            inner: Rc::new(RefCell::new(Inner {
                devices: HashMap::new(),
                user_devices: HashMap::new(),
                contexts: HashMap::new(),
                positions: Vec::new(),
                position_slots: BTreeMap::new(),
                graph: SocialGraph::new(),
                remote_streams: HashMap::new(),
                subscriptions: Vec::new(),
                aggregators: BTreeMap::new(),
                multicasts: BTreeMap::new(),
                next_remote_stream: 0,
                next_config_epoch: 1,
                next_trigger: 0,
                next_aggregator: 0,
                next_multicast: 0,
                processing_delay: deps.processing_delay,
                rng: deps.rng,
                action_log: Vec::new(),
                rejection_log: Vec::new(),
                ack_listeners: Vec::new(),
                text_mining: false,
            })),
            storage: deps.storage,
            broker: deps.broker,
            telemetry: Registry::new("server"),
        }
    }

    /// Connects to the broker, subscribes to every device's uplink and to
    /// the registration topic (devices announce themselves on connect).
    pub fn connect(&self, sched: &mut Scheduler) {
        self.broker.connect(sched);
        let server = self.clone();
        self.broker.subscribe(
            sched,
            UPLINK_WILDCARD,
            QoS::AtMostOnce,
            move |s, topic, payload| {
                server.on_uplink(s, topic, payload);
            },
        );
        let server = self.clone();
        self.broker.subscribe(
            sched,
            REGISTER_TOPIC,
            QoS::AtLeastOnce,
            move |_s, _topic, payload| match RegistrationPayload::from_wire(payload) {
                Ok(registration) => server.register_device(registration.user, registration.device),
                Err(_) => server.telemetry.count("malformed_registrations"),
            },
        );
        let server = self.clone();
        self.broker.subscribe(
            sched,
            ACK_WILDCARD,
            QoS::AtLeastOnce,
            move |s, topic, payload| {
                server.on_ack(s, topic, payload);
            },
        );
    }

    fn on_ack(&self, sched: &mut Scheduler, topic: &str, payload: &str) {
        if Topic::expect_ack(topic).is_err() {
            self.telemetry.count("malformed_topics");
            return;
        }
        match ConfigAck::from_wire(payload) {
            Ok(ack) => self.on_config_ack(sched, ack),
            Err(_) => self.telemetry.count("malformed_acks"),
        }
    }

    fn on_config_ack(&self, sched: &mut Scheduler, ack: ConfigAck) {
        // The listeners run with the state unborrowed, so they may call
        // back into the server.
        let mut listeners = {
            let mut inner = self.inner.borrow_mut();
            if !ack.accepted {
                self.telemetry.count("config_rejections");
                inner.rejection_log.push(ack.clone());
            }
            std::mem::take(&mut inner.ack_listeners)
        };
        listeners.retain_mut(|listener| listener(sched, &ack));
        let mut inner = self.inner.borrow_mut();
        // Listeners registered while these ran go after them.
        listeners.append(&mut inner.ack_listeners);
        inner.ack_listeners = listeners;
    }

    /// Registers an observer of device configuration acks — positive and
    /// negative alike, after the server's own rejection bookkeeping. The
    /// campaign scheduler uses this to settle dispatch attempts. The
    /// listener stays registered while it returns `true`; the first ack
    /// it returns `false` for is its last.
    pub fn register_ack_listener<F>(&self, listener: F)
    where
        F: FnMut(&mut Scheduler, &ConfigAck) -> bool + 'static,
    {
        self.inner
            .borrow_mut()
            .ack_listeners
            .push(Box::new(listener));
    }

    /// Negative configuration acks received from devices — pushed plans
    /// the on-device verifier rejected, with their diagnostics — oldest
    /// first. Lets applications learn *why* a remote stream never produced
    /// data instead of debugging silence.
    pub fn config_rejections(&self) -> Vec<ConfigAck> {
        self.inner.borrow().rejection_log.clone()
    }

    /// The server's telemetry registry (counters under `server.*`, stage
    /// histograms for [`Stage::Server`] and [`Stage::Subscriber`]). Input
    /// that does not decode is counted and dropped: `malformed_topics`,
    /// `malformed_uplinks`, `malformed_registrations` and `malformed_acks`.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Counts a server-side filter evaluation that hit a typed eval error.
    /// The single bookkeeping point for fail-closed filter evaluation,
    /// mirroring the client-side helper of the same name.
    fn record_filter_eval_error(&self) {
        self.telemetry.count("filter_eval_errors");
    }

    /// The `(action time, server receive time)` log behind Table 3.
    pub fn action_log(&self) -> Vec<(Timestamp, Timestamp)> {
        self.inner.borrow().action_log.clone()
    }

    /// The storage engine: the batched sensor-sample log plus the
    /// document plane. Scans ([`StorageEngine::scan`]) and exports go
    /// through this handle.
    pub fn storage(&self) -> &StorageEngine {
        &self.storage
    }

    /// The document plane of the storage engine (OSN actions and
    /// application collections) — the Mongo-substitute view. The
    /// registries live in typed tables, not here.
    pub fn db(&self) -> &Database {
        self.storage.docs()
    }

    /// The server's view of the OSN graph.
    pub fn graph(&self) -> SocialGraph {
        self.inner.borrow().graph.clone()
    }

    /// The server's latest context snapshot for `user`.
    pub fn user_context(&self, user: &UserId) -> Option<ContextSnapshot> {
        self.inner.borrow().contexts.get(user).cloned()
    }

    // ------------------------------------------------------------------
    // Registry
    // ------------------------------------------------------------------

    /// Registers a user's device. Users may own several devices.
    /// Idempotent: re-announcements (devices register on every broker
    /// connect) do not duplicate registry entries.
    pub fn register_device(&self, user: UserId, device: DeviceId) {
        let mut inner = self.inner.borrow_mut();
        if inner.devices.contains_key(&device) {
            return;
        }
        inner.devices.insert(device.clone(), user.clone());
        inner
            .user_devices
            .entry(user.clone())
            .or_default()
            .push(device);
        inner.graph.add_user(user.clone());
        inner.contexts.entry(user).or_default();
    }

    /// Whether `device` is registered.
    pub fn is_registered(&self, device: &DeviceId) -> bool {
        self.inner.borrow().devices.contains_key(device)
    }

    /// The devices registered for `user`.
    pub fn devices_of(&self, user: &UserId) -> Vec<DeviceId> {
        self.inner
            .borrow()
            .user_devices
            .get(user)
            .cloned()
            .unwrap_or_default()
    }

    /// Records a friendship the server already knows about (bootstrap);
    /// later changes arrive as OSN `FriendshipChange` actions.
    pub fn record_friendship(&self, a: &UserId, b: &UserId) {
        self.inner.borrow_mut().graph.add_friendship(a, b);
    }

    /// Seeds the server's knowledge of a user's position (normally learnt
    /// from uplinked location streams).
    pub fn seed_location(&self, user: &UserId, position: GeoPoint) {
        self.inner.borrow_mut().place(user, position);
    }

    // ------------------------------------------------------------------
    // OSN bridge + Trigger Manager
    // ------------------------------------------------------------------

    /// Wires a push-style (Facebook) plug-in into this server.
    pub fn connect_push_plugin(&self, plugin: &PushPlugin) {
        let server = self.clone();
        plugin.set_receiver(move |sched, action| {
            server.on_osn_action(sched, action);
        });
    }

    /// Wires a poll-style (Twitter) plug-in into this server.
    pub fn connect_poll_plugin(&self, plugin: &PollPlugin) {
        let server = self.clone();
        plugin.set_receiver(move |sched, action| {
            server.on_osn_action(sched, action);
        });
    }

    /// Enables OSN text mining: posts without a platform topic tag get one
    /// extracted from their text, and every action's sentiment is
    /// classified and stored alongside it — "classifiers that are able to
    /// extract OSN post topics and emotional states of the individuals"
    /// (paper §9).
    pub fn enable_text_mining(&self) {
        self.inner.borrow_mut().text_mining = true;
    }

    /// Handles an OSN action delivered by a plug-in: records it, keeps the
    /// OSN-link table fresh, and (after the modelled processing time)
    /// fires sensing triggers at the acting user's devices.
    pub fn on_osn_action(&self, sched: &mut Scheduler, mut action: OsnAction) {
        let now = sched.now();
        let mining = self.inner.borrow_mut().text_mining;
        let sentiment = if mining {
            if action.topic.is_none() {
                action.topic = extract_topic(&action.content).map(str::to_owned);
            }
            Some(match SentimentClassifier::new().classify(&action.content) {
                TextSentiment::Positive => "positive",
                TextSentiment::Negative => "negative",
                TextSentiment::Neutral => "neutral",
            })
        } else {
            None
        };
        self.telemetry.count("osn_actions");
        let delay = {
            let mut inner = self.inner.borrow_mut();
            inner.action_log.push((action.at, now));
            // "The server component classifies OSN actions to infer any
            // change in the OSN."
            if action.kind == OsnActionKind::FriendshipChange {
                let other = UserId::new(action.content.clone());
                if inner.graph.are_friends(&action.user, &other) {
                    inner.graph.remove_friendship(&action.user, &other);
                } else {
                    inner.graph.add_friendship(&action.user, &other);
                }
            }
            let mut rng = inner.rng.split("processing");
            inner.processing_delay.sample(&mut rng)
        };
        let _ = self.storage.docs().collection("actions").insert(json!({
            "user": action.user.as_str(),
            "kind": action.kind.name(),
            "content": action.content,
            "topic": action.topic,
            "sentiment": sentiment,
            "at_ms": action.at.as_millis(),
        }));

        let server = self.clone();
        sched.schedule_after(delay, move |s| {
            server.fire_triggers(s, &action);
        });
    }

    fn fire_triggers(&self, sched: &mut Scheduler, action: &OsnAction) {
        let (devices, trigger_base) = {
            let mut inner = self.inner.borrow_mut();
            let devices = inner
                .user_devices
                .get(&action.user)
                .cloned()
                .unwrap_or_default();
            let base = inner.next_trigger;
            inner.next_trigger += devices.len() as u64;
            (devices, base)
        };
        self.telemetry
            .count_by("triggers_sent", devices.len() as u64);
        for (i, device) in devices.iter().enumerate() {
            let payload = TriggerPayload {
                trigger: TriggerId::new(trigger_base + i as u64),
                device: device.clone(),
                action: action.clone(),
            };
            self.broker.publish(
                sched,
                Topic::Trigger(device.clone()),
                payload.to_wire(),
                QoS::AtLeastOnce,
                false,
            );
        }
    }

    // ------------------------------------------------------------------
    // Remote stream management
    // ------------------------------------------------------------------

    /// Creates a stream on a remote device by pushing a configuration
    /// command; the stream's data is uplinked to this server (the sink is
    /// forced to [`StreamSink::Server`]).
    ///
    /// The spec's filter plan is verified for device placement before
    /// anything is pushed, so an unsound plan fails here instead of as a
    /// negative ack round-trip later; the normalized filter is what gets
    /// pushed. (The device still re-verifies against its own privacy
    /// policies, which the server cannot see.)
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero interval,
    /// [`Error::UnknownDevice`] if `device` is not registered, or
    /// [`Error::PlanRejected`] if the filter fails verification.
    pub fn create_remote_stream(
        &self,
        sched: &mut Scheduler,
        device: &DeviceId,
        mut spec: StreamSpec,
    ) -> Result<StreamId> {
        check_interval(spec.interval)?;
        spec.sink = StreamSink::Server;
        let analysis = analyze(&Self::remote_stream_plan(&spec), &AnalysisEnv::new())?;
        spec.filter = analysis.filter;
        let id = {
            let mut inner = self.inner.borrow_mut();
            if !inner.devices.contains_key(device) {
                return Err(Error::UnknownDevice(device.as_str().to_owned()));
            }
            let id = StreamId::new(REMOTE_STREAM_ID_BASE + inner.next_remote_stream);
            inner.next_remote_stream += 1;
            inner
                .remote_streams
                .insert(id, (device.clone(), spec.clone()));
            id
        };
        let command = ConfigCommand::Create {
            device: device.clone(),
            stream: id,
            spec,
            epoch: 0,
            token: None,
        };
        self.push_config(sched, device, command);
        Ok(id)
    }

    /// Destroys a remotely-created stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownStream`] if the server did not create
    /// `stream`.
    pub fn destroy_remote_stream(&self, sched: &mut Scheduler, stream: StreamId) -> Result<()> {
        let device = {
            let mut inner = self.inner.borrow_mut();
            let (device, _) = inner
                .remote_streams
                .remove(&stream)
                .ok_or(Error::UnknownStream(stream.value()))?;
            device
        };
        let command = ConfigCommand::Destroy {
            device: device.clone(),
            stream,
            epoch: 0,
            token: None,
        };
        self.push_config(sched, &device, command);
        Ok(())
    }

    /// Replaces a remote stream's filter. The plan is verified for device
    /// placement first; the normalized filter is what gets pushed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownStream`] if the server did not create
    /// `stream`, or [`Error::PlanRejected`] if the filter fails
    /// verification (the previous filter stays in place).
    pub fn set_remote_filter(
        &self,
        sched: &mut Scheduler,
        stream: StreamId,
        filter: Filter,
    ) -> Result<()> {
        let candidate = {
            let inner = self.inner.borrow();
            let (_, spec) = inner
                .remote_streams
                .get(&stream)
                .ok_or(Error::UnknownStream(stream.value()))?;
            spec.clone().with_filter(filter)
        };
        let analysis = analyze(&Self::remote_stream_plan(&candidate), &AnalysisEnv::new())?;
        let filter = analysis.filter;
        let device = {
            let mut inner = self.inner.borrow_mut();
            let (device, spec) = inner
                .remote_streams
                .get_mut(&stream)
                .ok_or(Error::UnknownStream(stream.value()))?;
            spec.filter = filter.clone();
            device.clone()
        };
        let command = ConfigCommand::SetFilter {
            device: device.clone(),
            stream,
            filter,
            epoch: 0,
            token: None,
        };
        self.push_config(sched, &device, command);
        Ok(())
    }

    /// Changes a remote stream's duty cycle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero interval, or
    /// [`Error::UnknownStream`] if the server did not create `stream`.
    pub fn set_remote_interval(
        &self,
        sched: &mut Scheduler,
        stream: StreamId,
        interval: SimDuration,
    ) -> Result<()> {
        check_interval(interval)?;
        let device = {
            let mut inner = self.inner.borrow_mut();
            let (device, spec) = inner
                .remote_streams
                .get_mut(&stream)
                .ok_or(Error::UnknownStream(stream.value()))?;
            spec.interval = interval;
            device.clone()
        };
        let command = ConfigCommand::SetInterval {
            device: device.clone(),
            stream,
            interval_ms: interval.as_millis(),
            epoch: 0,
            token: None,
        };
        self.push_config(sched, &device, command);
        Ok(())
    }

    /// Dispatches a campaign-stamped configuration command: stamps the
    /// next config epoch, publishes it on the device's config topic and
    /// returns the assigned epoch so the campaign scheduler can journal
    /// it. The command must carry an occurrence token (that is what makes
    /// the device positively ack it — see [`ConfigCommand`]); the single
    /// sanctioned path to the config topic outside the server's own
    /// remote-stream management.
    ///
    /// # Panics
    ///
    /// Panics if `command` carries no occurrence token — tokenless
    /// campaign dispatches would never settle.
    pub fn dispatch_campaign_config(&self, sched: &mut Scheduler, command: ConfigCommand) -> u64 {
        assert!(
            command.token().is_some(),
            "campaign dispatches must carry an occurrence token"
        );
        self.push_config(sched, &command.device().clone(), command)
    }

    fn push_config(&self, sched: &mut Scheduler, device: &DeviceId, command: ConfigCommand) -> u64 {
        let (command, epoch) = {
            let mut inner = self.inner.borrow_mut();
            let epoch = inner.next_config_epoch;
            inner.next_config_epoch += 1;
            (command.with_epoch(epoch), epoch)
        };
        self.broker.publish(
            sched,
            Topic::Config(device.clone()), // lint:allow(config-publish) — the sanctioned config-topic publish site (epoch stamping lives here)
            command.to_wire(),
            QoS::AtLeastOnce,
            false,
        );
        epoch
    }

    // ------------------------------------------------------------------
    // Server-side pub/sub, aggregators, multicast
    // ------------------------------------------------------------------

    /// Subscribes a server-side listener to uplink events selected by
    /// `selector` and passing `filter`. The filter may contain cross-user
    /// conditions ("report A's location only while B is walking"):
    /// subjects are resolved against the server's per-user context table.
    ///
    /// The plan is verified for server placement first; the normalized
    /// filter is what gets installed. The information-flow pass sees the
    /// uplinked streams the selector currently reads from as sources, so
    /// an OSN-conditioned subscription over a raw sensitive uplink is
    /// rejected with a `privacy_flow` diagnostic (the devices' privacy
    /// screens ran before this coupling existed and cannot have authorized
    /// it).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PlanRejected`] if the filter is ill-typed or
    /// unsatisfiable, routes a raw sensitive modality through an OSN
    /// coupling, or if its cross-user conditions would close a dependency
    /// cycle with already-installed plans.
    pub fn register_listener<F>(
        &self,
        selector: StreamSelector,
        filter: Filter,
        listener: F,
    ) -> Result<()>
    where
        F: Fn(&mut Scheduler, &StreamEvent) + 'static,
    {
        let mut plan = FilterPlan::server(filter);
        for source in self.selector_sources(&selector) {
            plan = plan.with_source(source);
        }
        let analysis = analyze(&plan, &AnalysisEnv::new())?;
        let filter = analysis.filter;
        if let StreamSelector::User(owner) = &selector {
            self.check_dependency_cycles(None, std::slice::from_ref(owner), &filter)?;
        }
        let program = compile(&filter);
        self.inner.borrow_mut().subscriptions.push(Subscription {
            selector,
            filter,
            program,
            listener: Rc::new(listener),
        });
        Ok(())
    }

    /// Wraps `streams` into one aggregated stream.
    pub fn create_aggregator(&self, streams: impl IntoIterator<Item = StreamId>) -> AggregatorId {
        let mut inner = self.inner.borrow_mut();
        let id = AggregatorId(inner.next_aggregator);
        inner.next_aggregator += 1;
        let filter = Filter::pass_all();
        let program = compile(&filter);
        inner.aggregators.insert(
            id,
            AggregatorEntry {
                state: AggregatorState::new(streams),
                filter,
                program,
                listeners: Vec::new(),
            },
        );
        id
    }

    /// Sets a filter on an aggregated stream — "such streams can be
    /// treated as any plain data stream", filtering included (paper §3.2).
    /// Cross-user subjects resolve against the server's context table.
    ///
    /// The plan is verified for server placement first; the normalized
    /// filter is what gets installed. The member streams' specs feed the
    /// information-flow pass as sources, so gating a raw sensitive member
    /// on OSN context rejects with a `privacy_flow` diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PlanRejected`] if the filter fails verification.
    pub fn set_aggregator_filter(&self, id: AggregatorId, filter: Filter) -> Result<()> {
        let mut plan = FilterPlan::server(filter);
        for source in self.aggregator_sources(id) {
            plan = plan.with_source(source);
        }
        let analysis = analyze(&plan, &AnalysisEnv::new())?;
        if let Some(entry) = self.inner.borrow_mut().aggregators.get_mut(&id) {
            entry.program = compile(&analysis.filter);
            entry.filter = analysis.filter;
        }
        Ok(())
    }

    /// Subscribes to an aggregator's joined stream.
    pub fn register_aggregator_listener<F>(&self, id: AggregatorId, listener: F)
    where
        F: Fn(&mut Scheduler, &StreamEvent) + 'static,
    {
        if let Some(entry) = self.inner.borrow_mut().aggregators.get_mut(&id) {
            entry.listeners.push(Rc::new(listener));
        }
    }

    /// Creates a multicast stream: selects users via `selector`, creates a
    /// remote stream from `template` on each member's first device, and
    /// returns a handle for filtering/listening/refreshing.
    ///
    /// The template's filter plan is verified for multicast placement
    /// first (the normalized filter is what gets installed), and its
    /// cross-user conditions are checked against the server's dependency
    /// graph so two multicasts whose members gate on each other cannot
    /// both be admitted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the template's interval is
    /// zero, or [`Error::PlanRejected`] if the template filter fails
    /// verification or closes a cross-user dependency cycle.
    pub fn create_multicast(
        &self,
        sched: &mut Scheduler,
        selector: MulticastSelector,
        template: StreamSpec,
    ) -> Result<MulticastId> {
        check_interval(template.interval)?;
        let analysis = analyze(
            &FilterPlan::multicast(
                template.modality,
                template.granularity,
                template.filter.clone(),
            ),
            &AnalysisEnv::new(),
        )?;
        let mut template = template;
        template.filter = analysis.filter;
        let members = self.resolve_selector(&selector);
        self.check_dependency_cycles(None, &members, &template.filter)?;
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = MulticastId(inner.next_multicast);
            inner.next_multicast += 1;
            inner
                .multicasts
                .insert(id, (MulticastStream::new(selector, template), Vec::new()));
            id
        };
        self.refresh_multicast(sched, id);
        Ok(id)
    }

    /// Member users of a multicast stream.
    pub fn multicast_members(&self, id: MulticastId) -> Vec<UserId> {
        self.inner
            .borrow()
            .multicasts
            .get(&id)
            .map(|(m, _)| m.member_users())
            .unwrap_or_default()
    }

    /// Subscribes to a multicast stream's events.
    pub fn register_multicast_listener<F>(&self, id: MulticastId, listener: F)
    where
        F: Fn(&mut Scheduler, &StreamEvent) + 'static,
    {
        if let Some((_, listeners)) = self.inner.borrow_mut().multicasts.get_mut(&id) {
            listeners.push(Rc::new(listener));
        }
    }

    /// Sets a filter on a multicast stream, transparently distributing its
    /// device-evaluable part to every member device; cross-user conditions
    /// stay on the server, enforced when members' events arrive.
    ///
    /// The plan is verified for multicast placement and checked against
    /// the cross-user dependency graph first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownStream`] if `id` does not exist, or
    /// [`Error::PlanRejected`] if the filter fails verification or closes
    /// a cross-user dependency cycle (the previous filter stays in place).
    pub fn set_multicast_filter(
        &self,
        sched: &mut Scheduler,
        id: MulticastId,
        filter: Filter,
    ) -> Result<()> {
        let (modality, granularity, members) = {
            let inner = self.inner.borrow();
            let (multicast, _) = inner
                .multicasts
                .get(&id)
                .ok_or(Error::UnknownStream(id.0))?;
            (
                multicast.template.modality,
                multicast.template.granularity,
                multicast.member_users(),
            )
        };
        let analysis = analyze(
            &FilterPlan::multicast(modality, granularity, filter),
            &AnalysisEnv::new(),
        )?;
        let filter = analysis.filter;
        self.check_dependency_cycles(Some(id), &members, &filter)?;
        let (local, streams) = {
            let mut inner = self.inner.borrow_mut();
            let Some((multicast, _)) = inner.multicasts.get_mut(&id) else {
                return Err(Error::UnknownStream(id.0));
            };
            multicast.set_template_filter(filter);
            (multicast.local_filter.clone(), multicast.member_streams())
        };
        for stream in streams {
            let _ = self.set_remote_filter(sched, stream, local.clone());
        }
        Ok(())
    }

    /// Starts a timer re-evaluating the multicast's membership every
    /// `period`, returning the handle to stop it. This is how the §3.2
    /// collocation scenario follows a moving person: each refresh destroys
    /// streams on devices that left the fence and creates them on
    /// newcomers.
    pub fn auto_refresh_multicast(
        &self,
        sched: &mut Scheduler,
        id: MulticastId,
        period: SimDuration,
    ) -> sensocial_runtime::TimerHandle {
        let server = self.clone();
        sensocial_runtime::Timer::start(sched, period, move |s| {
            server.refresh_multicast(s, id);
        })
    }

    /// Re-evaluates a multicast stream's membership: creates streams on
    /// joining users' devices and destroys streams on leavers (the paper's
    /// geo-fenced stream churn as users move).
    pub fn refresh_multicast(&self, sched: &mut Scheduler, id: MulticastId) {
        let (selector, template, local_filter, current) = {
            let inner = self.inner.borrow();
            let Some((multicast, _)) = inner.multicasts.get(&id) else {
                return;
            };
            (
                multicast.selector.clone(),
                multicast.template.clone(),
                multicast.local_filter.clone(),
                multicast.members.clone(),
            )
        };
        let desired = self.resolve_selector(&selector);

        // Leavers first.
        for (user, stream) in &current {
            if !desired.contains(user) {
                let _ = self.destroy_remote_stream(sched, *stream);
                if let Some((m, _)) = self.inner.borrow_mut().multicasts.get_mut(&id) {
                    m.members.remove(user);
                }
            }
        }
        // Joiners. Devices get only the locally-evaluable part of the
        // template filter (cached at filter-install time); cross-user
        // conditions stay on the server and are enforced in `on_uplink`
        // (a device cannot see other users' context, and the verifier
        // rejects cross-user plans at device placement).
        let mut device_template = template.clone();
        device_template.filter = local_filter;
        for user in desired {
            if current.contains_key(&user) {
                continue;
            }
            let Some(device) = self.devices_of(&user).into_iter().next() else {
                continue;
            };
            if let Ok(stream) = self.create_remote_stream(sched, &device, device_template.clone()) {
                if let Some((m, _)) = self.inner.borrow_mut().multicasts.get_mut(&id) {
                    m.members.insert(user, stream);
                }
            }
        }
    }

    /// Rebuilds the cross-user dependency graph from every installed plan
    /// — one `owner → subject` edge per cross-user condition in a
    /// user-selected subscription or multicast template (on behalf of each
    /// member) — adds the candidate plan's edges, and rejects on a cycle.
    ///
    /// `exclude` names a multicast whose current edges are being replaced
    /// and must not count against its own successor.
    fn check_dependency_cycles(
        &self,
        exclude: Option<MulticastId>,
        owners: &[UserId],
        filter: &Filter,
    ) -> Result<()> {
        let subjects: Vec<&UserId> = filter
            .conditions
            .iter()
            .filter_map(|c| c.subject.as_ref())
            .collect();
        if subjects.is_empty() {
            return Ok(());
        }
        let mut graph = self.build_dependency_graph(exclude);
        for owner in owners {
            for subject in &subjects {
                graph.depend(owner, subject);
            }
        }
        if let Some(diag) = graph.cycle_diagnostic() {
            return Err(Error::PlanRejected(vec![diag]));
        }
        Ok(())
    }

    /// The cross-user dependency graph over every installed plan —
    /// user-selected subscriptions and multicast templates (one edge per
    /// member per cross-user condition). `exclude` names a multicast whose
    /// current edges are being replaced.
    fn build_dependency_graph(&self, exclude: Option<MulticastId>) -> DependencyGraph {
        let mut graph = DependencyGraph::new();
        let inner = self.inner.borrow();
        for sub in &inner.subscriptions {
            if let StreamSelector::User(owner) = &sub.selector {
                for c in &sub.filter.conditions {
                    if let Some(subject) = &c.subject {
                        graph.depend(owner, subject);
                    }
                }
            }
        }
        for (mid, (multicast, _)) in &inner.multicasts {
            if Some(*mid) == exclude {
                continue;
            }
            for owner in multicast.member_users() {
                for c in &multicast.template.filter.conditions {
                    if let Some(subject) = &c.subject {
                        graph.depend(&owner, subject);
                    }
                }
            }
        }
        graph
    }

    // ------------------------------------------------------------------
    // Whole-deployment static analysis
    // ------------------------------------------------------------------

    /// The flow-enriched plan for a server-managed device stream: the
    /// spec's sink and effective mode refine the information-flow pass.
    fn remote_stream_plan(spec: &StreamSpec) -> FilterPlan {
        let sink = match spec.sink {
            StreamSink::Local => FlowSink::DeviceLocal,
            StreamSink::Server => FlowSink::Uplink,
        };
        FilterPlan::device(spec.modality, spec.granularity, spec.filter.clone())
            .sinking(sink)
            .coupled_to_osn(spec.effective_mode() == StreamMode::SocialEventBased)
    }

    /// The uplink sources a selector currently reads from, sorted and
    /// deduplicated. A modality selector is conservative: it matches any
    /// future stream of that modality, so it is treated as a raw source
    /// even before one exists. (Streams created *after* a subscription are
    /// not re-checked against it — a known admission-order limit.)
    fn sources_for_selector(
        selector: &StreamSelector,
        remote_streams: &HashMap<StreamId, (DeviceId, StreamSpec)>,
        devices: &HashMap<DeviceId, UserId>,
    ) -> Vec<FlowSource> {
        let mut sources: Vec<FlowSource> = match selector {
            StreamSelector::AllUplinks => remote_streams
                .values()
                .map(|(_, spec)| FlowSource::new(spec.modality, spec.granularity))
                .collect(),
            StreamSelector::Stream(id) => remote_streams
                .get(id)
                .map(|(_, spec)| FlowSource::new(spec.modality, spec.granularity))
                .into_iter()
                .collect(),
            StreamSelector::User(user) => remote_streams
                .values()
                .filter(|(device, _)| devices.get(device) == Some(user))
                .map(|(_, spec)| FlowSource::new(spec.modality, spec.granularity))
                .collect(),
            StreamSelector::Modality(m) => {
                vec![FlowSource::new(*m, sensocial_types::Granularity::Raw)]
            }
        };
        sources.sort_unstable();
        sources.dedup();
        sources
    }

    /// [`ServerManager::sources_for_selector`] over the live tables.
    fn selector_sources(&self, selector: &StreamSelector) -> Vec<FlowSource> {
        let inner = self.inner.borrow();
        Self::sources_for_selector(selector, &inner.remote_streams, &inner.devices)
    }

    /// The member-stream sources feeding an aggregator, sorted and
    /// deduplicated. Members that are not server-created streams cannot be
    /// resolved to a spec and are skipped.
    fn aggregator_sources(&self, id: AggregatorId) -> Vec<FlowSource> {
        let inner = self.inner.borrow();
        let Some(entry) = inner.aggregators.get(&id) else {
            return Vec::new();
        };
        let mut sources: Vec<FlowSource> = entry
            .state
            .members
            .iter()
            .filter_map(|sid| inner.remote_streams.get(sid))
            .map(|(_, spec)| FlowSource::new(spec.modality, spec.granularity))
            .collect();
        sources.sort_unstable();
        sources.dedup();
        sources
    }

    /// The current cross-user dependency graph over every installed plan.
    pub fn dependency_graph(&self) -> DependencyGraph {
        self.build_dependency_graph(None)
    }

    /// Static analyses of every installed server-side plan (remote
    /// streams, subscriptions, aggregators, multicast templates), in a
    /// deterministic order. `sensocial-sim`'s `World::analysis_report`
    /// merges these with per-device client plans into the
    /// [`report::AnalysisReport`].
    pub fn plan_reports(&self) -> Vec<report::PlanReport> {
        // Snapshot under one borrow, analyze after it (the passes are pure).
        let (remote, devices, subs, aggs, multis) = {
            let inner = self.inner.borrow();
            let remote = inner.remote_streams.clone();
            let devices = inner.devices.clone();
            let subs: Vec<(StreamSelector, Filter)> = inner
                .subscriptions
                .iter()
                .map(|s| (s.selector.clone(), s.filter.clone()))
                .collect();
            let aggs: BTreeMap<AggregatorId, (Vec<StreamId>, Filter)> = inner
                .aggregators
                .iter()
                .map(|(id, entry)| {
                    (
                        *id,
                        (
                            entry.state.members.iter().copied().collect(),
                            entry.filter.clone(),
                        ),
                    )
                })
                .collect();
            let multis: BTreeMap<MulticastId, StreamSpec> = inner
                .multicasts
                .iter()
                .map(|(id, (m, _))| (*id, m.template.clone()))
                .collect();
            (remote, devices, subs, aggs, multis)
        };
        let env = AnalysisEnv::new();

        let mut plans = Vec::new();
        let sorted_remote: BTreeMap<&StreamId, &(DeviceId, StreamSpec)> = remote.iter().collect();
        for (id, (_, spec)) in sorted_remote {
            let plan = Self::remote_stream_plan(spec);
            plans.push(report::PlanReport::for_plan(
                "remote_stream",
                id.to_string(), // lint:allow(to-string) — cold path: one report label per installed plan
                &plan,
                &env,
            ));
        }
        for (index, (selector, filter)) in subs.iter().enumerate() {
            let mut plan = FilterPlan::server(filter.clone());
            for source in Self::sources_for_selector(selector, &remote, &devices) {
                plan = plan.with_source(source);
            }
            plans.push(report::PlanReport::for_plan(
                "subscription",
                format!("subscription#{index:04}"), // lint:allow(format) — cold path: one report label per installed plan
                &plan,
                &env,
            ));
        }
        for (id, (members, filter)) in &aggs {
            let mut plan = FilterPlan::server(filter.clone());
            let mut sources: Vec<FlowSource> = members
                .iter()
                .filter_map(|sid| remote.get(sid))
                .map(|(_, spec)| FlowSource::new(spec.modality, spec.granularity))
                .collect();
            sources.sort_unstable();
            sources.dedup();
            for source in sources {
                plan = plan.with_source(source);
            }
            plans.push(report::PlanReport::for_plan(
                "aggregator",
                id.to_string(), // lint:allow(to-string) — cold path: one report label per installed plan
                &plan,
                &env,
            ));
        }
        for (id, template) in &multis {
            let plan = FilterPlan::multicast(
                template.modality,
                template.granularity,
                template.filter.clone(),
            );
            plans.push(report::PlanReport::for_plan(
                "multicast",
                id.to_string(), // lint:allow(to-string) — cold path: one report label per installed plan
                &plan,
                &env,
            ));
        }
        plans
    }

    /// A user's latest position in the position table.
    fn stored_location(&self, user: &UserId) -> Option<GeoPoint> {
        let inner = self.inner.borrow();
        let slot = *inner.position_slots.get(user)?;
        Some(inner.positions[slot].1)
    }

    /// The placed users whose position passes `keep`, in table order.
    /// Points off the globe — latitude outside [-90, 90], longitude outside
    /// [-180, 180], NaN or infinite — never pass, as in the document
    /// store's geo queries.
    fn placed_users(&self, keep: impl Fn(GeoPoint) -> bool) -> Vec<UserId> {
        self.inner
            .borrow()
            .positions
            .iter()
            .filter(|(_, p)| {
                (-90.0..=90.0).contains(&p.lat) && (-180.0..=180.0).contains(&p.lon) && keep(*p)
            })
            .map(|(user, _)| user.clone())
            .collect()
    }

    fn resolve_selector(&self, selector: &MulticastSelector) -> Vec<UserId> {
        match selector {
            MulticastSelector::FriendsOf(user) => self.inner.borrow().graph.friends(user),
            MulticastSelector::WithinFence(fence) => self.placed_users(|p| fence.contains(p)),
            MulticastSelector::NearUser { user, radius_m } => {
                // The followed person's own position anchors the fence.
                // Read the live context in its own statement, so no borrow
                // of `inner` is held while `stored_location` takes one.
                let live = self
                    .inner
                    .borrow()
                    .contexts
                    .get(user)
                    .and_then(ContextSnapshot::position);
                let Some(center) = live.or_else(|| self.stored_location(user)) else {
                    return Vec::new();
                };
                let mut near = self.placed_users(|p| center.distance_m(p) <= *radius_m);
                near.retain(|u| u != user);
                near
            }
            MulticastSelector::Intersection(a, b) => {
                let sa = self.resolve_selector(a);
                let sb = self.resolve_selector(b);
                sa.into_iter().filter(|u| sb.contains(u)).collect()
            }
            MulticastSelector::Explicit(users) => users.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Uplink handling + server Filter Manager
    // ------------------------------------------------------------------

    fn on_uplink(&self, sched: &mut Scheduler, topic: &str, payload: &str) {
        // The wildcard subscription hands over everything under
        // `sensocial/uplink/+`; a topic that does not parse is counted and
        // dropped instead of silently half-processed.
        if Topic::expect_uplink(topic).is_err() {
            self.telemetry.count("malformed_topics");
            return;
        }
        let Ok(event) = StreamEvent::from_wire(payload) else {
            self.telemetry.count("malformed_uplinks");
            return;
        };
        self.telemetry.count("uplink_events");
        // Server-stage latency: sample birth to server-side arrival.
        self.telemetry.observe(
            Stage::Server,
            sched.now().as_millis().saturating_sub(event.at.as_millis()),
        );

        // Keep the context and position tables fresh.
        {
            let mut inner = self.inner.borrow_mut();
            let snapshot = inner.contexts.entry(event.user.clone()).or_default();
            snapshot.record(event.at, event.data.clone());
            if let ContextData::Raw(RawSample::Location(fix)) = &event.data {
                inner.place(&event.user, fix.position);
            }
        }

        // Persist the sample through the storage engine's batch buffer:
        // one flush per interval instead of one insert per sample. The
        // engine asks for a flush to be scheduled exactly when none is
        // pending, so at most one flush event is in flight.
        if let Some(delay) = self.storage.append_context(
            event.user.clone(),
            event.device.clone(),
            event.stream,
            event.at,
            &event.data,
            sched.now(),
        ) {
            let storage = self.storage.clone();
            sched.schedule_after(delay, move |s| {
                storage.flush(s.now());
            });
        }

        // Collect every listener whose selector + (fully evaluated) filter
        // admits the event, then invoke outside the borrow. Typed eval
        // errors fail closed and are counted: analyzer-vetted plans never
        // produce them.
        let mut to_call: Vec<Listener> = Vec::new();
        {
            let inner = self.inner.borrow();
            let lookup = |user: &UserId| inner.contexts.get(user).cloned();
            let empty = ContextSnapshot::new();
            let own_snapshot = inner.contexts.get(&event.user).unwrap_or(&empty);
            let ctx = EvalContext {
                snapshot: own_snapshot,
                now: sched.now(),
                osn_action: event.osn_action.as_ref(),
            };
            for sub in &inner.subscriptions {
                if !sub.selector.matches(&event) {
                    continue;
                }
                match eval_full(&sub.program, &ctx, &lookup) {
                    Ok(true) => to_call.push(sub.listener.clone()),
                    Ok(false) => {}
                    Err(_) => self.record_filter_eval_error(),
                }
            }
            for entry in inner.aggregators.values() {
                if !entry.state.contains(event.stream) {
                    continue;
                }
                match eval_full(&entry.program, &ctx, &lookup) {
                    Ok(true) => to_call.extend(entry.listeners.iter().cloned()),
                    Ok(false) => {}
                    Err(_) => self.record_filter_eval_error(),
                }
            }
            // Multicast members' devices already enforced the local part
            // of the template filter; the server enforces the cross-user
            // part here — pre-compiled at install time — completing the
            // distributed plan.
            for (multicast, listeners) in inner.multicasts.values() {
                if !multicast.owns_stream(event.stream) {
                    continue;
                }
                match eval_full(&multicast.cross_program, &ctx, &lookup) {
                    Ok(true) => to_call.extend(listeners.iter().cloned()),
                    Ok(false) => {}
                    Err(_) => self.record_filter_eval_error(),
                }
            }
        }
        for listener in to_call {
            // Subscriber-stage latency: sample birth to application
            // callback, one observation per delivery.
            self.telemetry.observe(
                Stage::Subscriber,
                sched.now().as_millis().saturating_sub(event.at.as_millis()),
            );
            listener(sched, &event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_net::Network;
    use sensocial_runtime::prop::check;
    use sensocial_storage::{Collection, Query, StorageConfig};
    use sensocial_types::{GeoFence, GpsFix};

    /// A server with no broker behind it: the tests drive `seed_location`
    /// and `on_uplink` directly.
    fn server() -> ServerManager {
        let net = Network::new(0);
        ServerManager::new(ServerDeps::new(
            StorageConfig::default().open(),
            BrokerClient::new(&net, "server-ep", "broker", "server"),
            SimRng::seed_from(0),
        ))
    }

    /// A listener that returns `false` runs for the first ack only; one
    /// that returns `true` runs for every ack.
    #[test]
    fn ack_listeners_stay_registered_while_they_return_true() {
        let server = server();
        let mut sched = Scheduler::new();
        let runs = Rc::new(RefCell::new(Vec::new()));
        for keep in [false, true] {
            let runs = runs.clone();
            server.register_ack_listener(move |_, ack| {
                runs.borrow_mut().push((keep, ack.epoch));
                keep
            });
        }
        for epoch in [1, 2] {
            let ack = ConfigAck {
                device: DeviceId::new("device-1"),
                stream: StreamId::new(7),
                epoch,
                accepted: true,
                diagnostics: Vec::new(),
                token: None,
            };
            server.on_config_ack(&mut sched, ack);
        }
        assert_eq!(*runs.borrow(), [(false, 1), (true, 1), (true, 2)]);
    }

    /// The document mirror the position table replaced, kept as the
    /// oracle: a `locations` collection upserted by update-else-insert.
    struct Mirror {
        locations: Collection,
        /// Each user's last uplinked fix: the live context position.
        fixes: BTreeMap<UserId, GeoPoint>,
    }

    impl Mirror {
        fn new() -> Self {
            Mirror {
                locations: Collection::new("locations"),
                fixes: BTreeMap::new(),
            }
        }

        fn upsert(&self, user: &UserId, position: GeoPoint) {
            let query = Query::eq("user", user.as_str());
            let loc = json!({"lat": position.lat, "lon": position.lon});
            if self.locations.update_set(&query, &[("loc", loc.clone())]) == 0 {
                self.locations
                    .insert(json!({"user": user.as_str(), "loc": loc}))
                    .unwrap();
            }
        }

        fn uplink(&mut self, payload: &str) {
            if let Ok(event) = StreamEvent::from_wire(payload) {
                if let ContextData::Raw(RawSample::Location(fix)) = event.data {
                    self.fixes.insert(event.user.clone(), fix.position);
                    self.upsert(&event.user, fix.position);
                }
            }
        }

        /// A geo query's users in document-id order. No index plans a
        /// geo query, so the collection checks its exact predicate on
        /// every document.
        fn answer(&self, query: &Query, except: Option<&UserId>) -> Vec<UserId> {
            self.locations
                .find(query)
                .iter()
                .filter_map(|d| d.body["user"].as_str().map(UserId::new))
                .filter(|u| Some(u) != except)
                .collect()
        }

        fn within(&self, fence: GeoFence) -> Vec<UserId> {
            self.answer(&Query::within("loc", fence), None)
        }

        /// The followed user's position: the live fix, else the stored one.
        fn center(&self, user: &UserId) -> Option<GeoPoint> {
            if let Some(fix) = self.fixes.get(user) {
                return Some(*fix);
            }
            let doc = self.locations.find_one(&Query::eq("user", user.as_str()))?;
            let lat = doc.body["loc"]["lat"].as_f64()?;
            let lon = doc.body["loc"]["lon"].as_f64()?;
            Some(GeoPoint { lat, lon })
        }

        fn near(&self, user: &UserId, radius_m: f64) -> Vec<UserId> {
            match self.center(user) {
                Some(center) => self.answer(&Query::near("loc", center, radius_m), Some(user)),
                None => Vec::new(),
            }
        }
    }

    /// A point the document queries never match.
    fn off_globe(rng: &mut SimRng) -> GeoPoint {
        let (lat, lon) = *rng
            .choose(&[
                (90.5, 0.0),
                (-91.0, 10.0),
                (45.0, 180.5),
                (-10.0, -200.0),
                (f64::NAN, 2.0),
                (48.0, f64::INFINITY),
                (f64::NEG_INFINITY, f64::NAN),
            ])
            .unwrap();
        GeoPoint { lat, lon }
    }

    /// `r` or the next float below it: a point at distance `r` sits on the
    /// boundary of a fence of radius `r` and just outside one a step less.
    fn boundary_radius(rng: &mut SimRng, r: f64) -> f64 {
        if r > 0.0 && rng.chance(0.5) {
            f64::from_bits(r.to_bits() - 1)
        } else {
            r
        }
    }

    #[test]
    fn geo_selectors_match_the_document_queries_in_order() {
        check(256, |rng| {
            let server = server();
            let mut mirror = Mirror::new();
            let mut sched = Scheduler::new();

            let anchor = GeoPoint::new(rng.uniform(-85.0, 85.0), rng.uniform(-179.9, 179.9));
            let scale_m = rng.uniform(50.0, 20_000.0);
            let users: Vec<UserId> = (0..rng.uniform_u64(1, 41))
                .map(|i| UserId::new(format!("u{i}")))
                .collect();
            let mut placed: Vec<GeoPoint> = Vec::new();
            for at in 0..rng.uniform_u64(1, 81) {
                let user = rng.choose(&users).unwrap().clone();
                let roll = rng.uniform(0.0, 1.0);
                let position = if roll < 0.1 {
                    anchor
                } else if roll < 0.2 {
                    off_globe(rng)
                } else if roll < 0.35 && !placed.is_empty() {
                    *rng.choose(&placed).unwrap()
                } else {
                    anchor.offset(rng.uniform(0.0, 2.0 * scale_m), rng.uniform(0.0, 360.0))
                };
                placed.push(position);
                if rng.chance(0.5) {
                    server.seed_location(&user, position);
                    mirror.upsert(&user, position);
                } else {
                    let device = DeviceId::new(format!("{}-phone", user.as_str()));
                    let event = StreamEvent {
                        stream: StreamId::new(at),
                        user,
                        device: device.clone(),
                        at: Timestamp::from_secs(at),
                        data: ContextData::Raw(RawSample::Location(GpsFix {
                            position,
                            accuracy_m: 5.0,
                            speed_mps: 0.0,
                        })),
                        osn_action: None,
                    };
                    let payload = event.to_wire();
                    server.on_uplink(&mut sched, &Topic::Uplink(device).to_string(), &payload);
                    mirror.uplink(&payload);
                }
            }

            let on_globe: Vec<GeoPoint> = placed
                .iter()
                .copied()
                .filter(|p| (-90.0..=90.0).contains(&p.lat) && (-180.0..=180.0).contains(&p.lon))
                .collect();
            for _ in 0..8 {
                let center = match rng.choose(&on_globe) {
                    Some(p) if rng.chance(0.5) => *p,
                    _ => anchor,
                };
                let radius_m = match rng.choose(&on_globe) {
                    Some(p) if rng.chance(0.5) => boundary_radius(rng, center.distance_m(*p)),
                    _ => rng.uniform(0.0, 2.0 * scale_m),
                };
                let fence = GeoFence::new(center, radius_m);
                assert_eq!(
                    server.resolve_selector(&MulticastSelector::WithinFence(fence)),
                    mirror.within(fence),
                    "within {fence}"
                );

                let user = rng.choose(&users).unwrap().clone();
                let radius_m = match (mirror.center(&user), rng.choose(&on_globe)) {
                    (Some(c), Some(p)) if rng.chance(0.5) => boundary_radius(rng, c.distance_m(*p)),
                    _ => rng.uniform(0.0, 2.0 * scale_m),
                };
                assert_eq!(
                    server.resolve_selector(&MulticastSelector::NearUser {
                        user: user.clone(),
                        radius_m,
                    }),
                    mirror.near(&user, radius_m),
                    "near {user} within {radius_m} m"
                );
            }
        });
    }

    #[test]
    fn a_fence_finds_a_point_the_grid_index_missed() {
        // A grid index that sized its search box at 111 320 m per degree
        // of latitude, where the haversine's is 111 195, missed a point
        // just inside a fence's northern edge: it lay in a grid cell past
        // the box. The table scans every point, so the selector keeps it.
        let fence = GeoFence::new(GeoPoint::new(0.9101, 20.0), 10_000.0);
        let north = GeoPoint::new(1.00002, 20.0);
        assert!(fence.contains(north));

        let server = server();
        let mirror = Mirror::new();
        let user = UserId::new("north");
        server.seed_location(&user, north);
        mirror.upsert(&user, north);

        assert_eq!(mirror.within(fence), vec![user.clone()]);
        assert_eq!(
            server.resolve_selector(&MulticastSelector::WithinFence(fence)),
            vec![user]
        );
    }
}
