//! The client-side SenSocial Manager.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use sensocial_broker::{BrokerClient, Payload, QoS};
use sensocial_classify::ClassifierRegistry;
use sensocial_energy::{
    BatteryMeter, CpuCosts, CpuMeter, EnergyComponent, EnergyProfile, MemoryProfiler,
};
use sensocial_runtime::{Scheduler, SimDuration, Timer, Timestamp};
use sensocial_sensors::{SensorConfig, SensorManager};
use sensocial_types::filter::EvalContext;
use sensocial_types::{
    ContextData, ContextSnapshot, DeviceId, Error, Granularity, InternedTopic, OsnAction, Place,
    RawSample, Result, StreamId, UserId,
};

use sensocial_analysis::{analyze, compile, AnalysisEnv, FilterPlan, FlowSink};

use crate::predicate::eval_local;

use sensocial_telemetry::{Registry, Stage};

use crate::config::{check_interval, ConfigCommand, StreamMode, StreamSink, StreamSpec};
use crate::event::{ConfigAck, RegistrationPayload, StreamEvent, TriggerPayload};
use crate::privacy::{PrivacyPolicy, PrivacyPolicyManager};
use crate::{Topic, REGISTER_TOPIC};

use super::stream::{StreamOrigin, StreamState, StreamStatus};

/// Modelled Java-heap equivalents for Table 2's DDMS comparison: the
/// object/byte footprints the middleware's structures would have on the
/// paper's Android runtime.
const MANAGER_OBJECTS: u64 = 3_270;
const MANAGER_BYTES: u64 = 1_030_000;
const STREAM_OBJECTS: u64 = 620;
const STREAM_BYTES: u64 = 160_000;
const LISTENER_OBJECTS: u64 = 15;
const LISTENER_BYTES: u64 = 2_600;

/// Server-assigned stream ids live in a disjoint namespace from
/// locally-assigned ones.
pub(crate) const REMOTE_STREAM_ID_BASE: u64 = 1 << 32;

/// Default bound on the store-and-forward uplink buffer (events parked
/// while the broker session is unconfirmed; oldest dropped on overflow).
pub(crate) const DEFAULT_UPLINK_BUFFER: usize = 512;

type Listener = Rc<dyn Fn(&mut Scheduler, &StreamEvent)>;

/// Everything a [`ClientManager`] is wired to.
pub struct ClientDeps {
    /// The owning user.
    pub user: UserId,
    /// This device.
    pub device: DeviceId,
    /// The sensor substrate.
    pub sensors: SensorManager,
    /// Classifiers for raw → classified conversion.
    pub classifiers: ClassifierRegistry,
    /// Privacy policies screening every stream.
    pub privacy: PrivacyPolicyManager,
    /// Broker binding for triggers/configs/uplink; `None` for local-only
    /// deployments (no server).
    pub broker: Option<BrokerClient>,
    /// Battery meter charged for sampling/classification/transmission.
    pub battery: BatteryMeter,
    /// CPU meter charged for per-cycle work.
    pub cpu: CpuMeter,
    /// Memory profiler tracking middleware allocations.
    pub memory: MemoryProfiler,
    /// Energy cost constants.
    pub energy_profile: EnergyProfile,
    /// CPU cost constants.
    pub cpu_costs: CpuCosts,
}

impl ClientDeps {
    /// Minimal wiring for examples and tests: no broker (local-only),
    /// stock classifiers over `places`, allow-all privacy, fresh meters.
    pub fn local_only(
        user: impl Into<UserId>,
        device: impl Into<DeviceId>,
        sensors: SensorManager,
        places: Vec<Place>,
    ) -> Self {
        ClientDeps {
            user: user.into(),
            device: device.into(),
            sensors,
            classifiers: ClassifierRegistry::with_defaults(places),
            privacy: PrivacyPolicyManager::allow_all(),
            broker: None,
            battery: BatteryMeter::new(),
            cpu: CpuMeter::new(),
            memory: MemoryProfiler::new(),
            energy_profile: EnergyProfile::default(),
            cpu_costs: CpuCosts::default(),
        }
    }
}

struct Inner {
    user: UserId,
    device: DeviceId,
    streams: HashMap<StreamId, StreamState>,
    listeners: HashMap<StreamId, Vec<Listener>>,
    context: ContextSnapshot,
    next_local_stream: u64,
    connected: bool,
    /// Store-and-forward queue of `(topic, payload, birth)` uplink events
    /// awaiting a confirmed broker session; `birth` is the event's sample
    /// time, so the uplink-stage latency absorbs the buffering delay.
    /// Bounded; oldest dropped on overflow. Entries hold the interned
    /// topic and the shared payload, so parking and flushing never copy
    /// the wire form again.
    uplink_buffer: VecDeque<(InternedTopic, Payload, Timestamp)>,
    uplink_limit: usize,
    /// This device's uplink topic, interned once at construction — the
    /// per-sample uplink path clones it for free instead of formatting
    /// `sensocial/uplink/<device>` every event.
    uplink_topic: InternedTopic,
    /// Highest configuration epoch applied per stream. Entries survive
    /// stream destruction so a stale `Create` redelivered after a `Destroy`
    /// cannot resurrect the stream.
    config_epochs: HashMap<StreamId, u64>,
    /// Campaign occurrence tokens already applied. A redispatch of the
    /// same occurrence (new epoch, same token — e.g. after a scheduler
    /// crash) is positively acked without being applied twice.
    applied_tokens: HashSet<String>,
}

/// The point of entry for mobile applications — the paper's client-side
/// `SenSocialManager`.
///
/// Cloneable handle; see the [crate-level quickstart](crate).
#[derive(Clone)]
pub struct ClientManager {
    inner: Rc<RefCell<Inner>>,
    sensors: SensorManager,
    classifiers: ClassifierRegistry,
    privacy: PrivacyPolicyManager,
    broker: Option<BrokerClient>,
    battery: BatteryMeter,
    cpu: CpuMeter,
    memory: MemoryProfiler,
    energy_profile: Rc<EnergyProfile>,
    cpu_costs: Rc<CpuCosts>,
    telemetry: Registry,
}

impl std::fmt::Debug for ClientManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ClientManager")
            .field("user", &inner.user)
            .field("device", &inner.device)
            .field("streams", &inner.streams.len())
            .field("connected", &inner.connected)
            .finish()
    }
}

impl ClientManager {
    /// Creates a manager from its dependencies.
    pub fn new(deps: ClientDeps) -> Self {
        deps.memory
            .alloc("sensocial/manager", MANAGER_OBJECTS, MANAGER_BYTES);
        // Sampling costs are charged by the sensor substrate; route them to
        // this device's meter so energy accounting is complete whether or
        // not the deployment wired the sensors up itself.
        deps.sensors
            .attach_battery(deps.battery.clone(), deps.energy_profile.clone());
        let uplink_topic = Topic::Uplink(deps.device.clone()).interned();
        ClientManager {
            inner: Rc::new(RefCell::new(Inner {
                user: deps.user,
                device: deps.device,
                streams: HashMap::new(),
                listeners: HashMap::new(),
                context: ContextSnapshot::new(),
                next_local_stream: 0,
                connected: false,
                uplink_buffer: VecDeque::new(),
                uplink_limit: DEFAULT_UPLINK_BUFFER,
                uplink_topic,
                config_epochs: HashMap::new(),
                applied_tokens: HashSet::new(),
            })),
            sensors: deps.sensors,
            classifiers: deps.classifiers,
            privacy: deps.privacy,
            broker: deps.broker,
            battery: deps.battery,
            cpu: deps.cpu,
            memory: deps.memory,
            energy_profile: Rc::new(deps.energy_profile),
            cpu_costs: Rc::new(deps.cpu_costs),
            telemetry: Registry::new("client"),
        }
    }

    /// The owning user.
    pub fn user_id(&self) -> UserId {
        self.inner.borrow().user.clone()
    }

    /// This device.
    pub fn device_id(&self) -> DeviceId {
        self.inner.borrow().device.clone()
    }

    /// The device's latest context snapshot (what filters see).
    pub fn context_snapshot(&self) -> ContextSnapshot {
        self.inner.borrow().context.clone()
    }

    /// The privacy policy manager (reads; mutate through
    /// [`ClientManager::set_privacy_policy`] so streams re-screen).
    pub fn privacy(&self) -> &PrivacyPolicyManager {
        &self.privacy
    }

    /// The battery meter.
    pub fn battery(&self) -> &BatteryMeter {
        &self.battery
    }

    /// The CPU meter.
    pub fn cpu(&self) -> &CpuMeter {
        &self.cpu
    }

    /// The underlying broker client, when one is wired. Chaos harnesses
    /// use this to enable keepalive/reconnect supervision and to inspect
    /// connection statistics.
    pub fn broker_client(&self) -> Option<&BrokerClient> {
        self.broker.as_ref()
    }

    /// The manager's telemetry registry (scope `client`): uplink/config
    /// counters, drop causes, the per-stage latency histograms recorded on
    /// this device and the `client.uplink_backlog` gauge. A trigger or a
    /// config command that does not decode is counted
    /// (`malformed_triggers`, `malformed_configs`) and dropped.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Records a fail-closed filter evaluation error (the
    /// `client.filter_eval_errors` counter). Analyzer-vetted plans never
    /// hit this; the single bookkeeping point keeps the three evaluation
    /// sites (duty-cycle gate, sample filter, trigger coupling) in sync.
    fn record_filter_eval_error(&self) {
        self.telemetry.count("filter_eval_errors");
    }

    /// Runs stream `id`'s compiled filter program (lowered at admission)
    /// against the device snapshot, or `None` if the stream is gone.
    fn stream_passes(
        &self,
        id: StreamId,
        now: Timestamp,
        osn_action: Option<&OsnAction>,
    ) -> Option<bool> {
        let verdict = {
            let inner = self.inner.borrow();
            let state = inner.streams.get(&id)?;
            let ctx = EvalContext {
                snapshot: &inner.context,
                now,
                osn_action,
            };
            eval_local(&state.program, &ctx)
        };
        // Analyzer-vetted plans never fail; an unvetted ill-typed filter
        // fails closed rather than silently false.
        Some(verdict.unwrap_or_else(|_| {
            self.record_filter_eval_error();
            false
        }))
    }

    /// Number of uplink events currently parked awaiting a confirmed
    /// broker session.
    pub fn uplink_backlog(&self) -> usize {
        self.inner.borrow().uplink_buffer.len()
    }

    /// Bounds the store-and-forward uplink buffer (default 512; minimum 1).
    /// When full, the oldest parked event is dropped and counted under
    /// the `client.uplink.dropped` counter.
    pub fn set_uplink_buffer_limit(&self, limit: usize) {
        self.inner.borrow_mut().uplink_limit = limit.max(1);
    }

    /// The highest configuration epoch applied for `stream` (0 if none).
    pub fn last_config_epoch(&self, stream: StreamId) -> u64 {
        self.inner
            .borrow_mut()
            .config_epochs
            .get(&stream)
            .copied()
            .unwrap_or(0)
    }

    /// Simulates the device dropping off the network deliberately (e.g.
    /// flight mode): closes the broker connection. Streams keep sampling;
    /// server-bound events park in the uplink buffer until
    /// [`ClientManager::go_online`].
    pub fn go_offline(&self, sched: &mut Scheduler) {
        if let Some(broker) = &self.broker {
            broker.disconnect(sched);
        }
    }

    /// Resumes the broker session after [`ClientManager::go_offline`]. The
    /// uplink buffer flushes once the broker confirms the session.
    pub fn go_online(&self, sched: &mut Scheduler) {
        if let Some(broker) = &self.broker {
            broker.connect(sched);
        }
    }

    /// Connects to the broker: opens the session and subscribes to this
    /// device's trigger and configuration topics. No-op without a broker.
    ///
    /// Also installs the store-and-forward hook: whenever the broker
    /// session is (re)confirmed, the bounded uplink buffer is flushed in
    /// arrival order.
    pub fn connect(&self, sched: &mut Scheduler) {
        let Some(broker) = &self.broker else {
            return;
        };
        let device = self.device_id();
        {
            let mut inner = self.inner.borrow_mut();
            if inner.connected {
                return;
            }
            inner.connected = true;
        }
        let mgr = self.clone();
        broker.on_connection_change(move |s, online| {
            if online {
                mgr.flush_uplink(s);
            }
        });
        broker.connect(sched);

        let mgr = self.clone();
        broker.subscribe(
            sched,
            Topic::Trigger(device.clone()),
            QoS::AtLeastOnce,
            move |s, _topic, payload| {
                mgr.on_trigger(s, payload);
            },
        );
        let mgr = self.clone();
        broker.subscribe(
            sched,
            Topic::Config(device.clone()), // lint:allow(config-publish) — subscribe side: devices listen on their own config topic
            QoS::AtLeastOnce,
            move |s, _topic, payload| {
                mgr.on_config(s, payload);
            },
        );

        // Announce ourselves so the server's registry learns this device
        // without out-of-band deployment wiring.
        let registration = RegistrationPayload {
            user: self.user_id(),
            device,
        };
        broker.publish(
            sched,
            REGISTER_TOPIC,
            registration.to_wire(),
            QoS::AtLeastOnce,
            false,
        );
    }

    /// Creates a stream from `spec`, returning its id.
    ///
    /// The spec's filter plan is statically verified first; the normalized
    /// form is what gets installed.
    ///
    /// If the privacy descriptor denies the spec, the stream is created
    /// **paused** (the paper pauses rather than rejects) and resumes
    /// automatically once policies allow it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PlanRejected`] when the filter is ill-typed,
    /// unsatisfiable, or contains a cross-user condition (which no device
    /// can evaluate), or [`Error::InvalidConfig`] for a zero interval.
    pub fn create_stream(&self, sched: &mut Scheduler, spec: StreamSpec) -> Result<StreamId> {
        let spec = self.analyze_spec(&spec)?;
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = StreamId::new(inner.next_local_stream);
            inner.next_local_stream += 1;
            id
        };
        self.install_stream(sched, id, spec, StreamOrigin::Local);
        Ok(id)
    }

    /// Checks `spec`'s interval and statically verifies its filter plan
    /// for this device, returning the spec with the canonical
    /// (normalized) filter installed. A pushed `Create` goes through here
    /// too, so a spec the device cannot run is nacked, not installed.
    ///
    /// Privacy violations do not reject here: [`ClientManager::install_stream`]
    /// screens the spec and pauses the stream until policies allow it, the
    /// paper's pause-don't-reject semantics. Information-*flow* violations
    /// do reject: an OSN-coupled plan routing a raw sensitive modality off
    /// the device under a denying policy fails closed, because the
    /// pause→resume path re-screens without re-running this analysis.
    fn analyze_spec(&self, spec: &StreamSpec) -> Result<StreamSpec> {
        check_interval(spec.interval)?;
        let env = AnalysisEnv::new().with_privacy(&self.privacy);
        let analysis = analyze(&Self::device_plan(spec), &env)?;
        let mut spec = spec.clone();
        spec.filter = analysis.filter;
        Ok(spec)
    }

    /// The flow-enriched analysis plan for `spec` on a device: the spec's
    /// sink and effective mode refine the information-flow pass.
    fn device_plan(spec: &StreamSpec) -> FilterPlan {
        let sink = match spec.sink {
            StreamSink::Local => FlowSink::DeviceLocal,
            StreamSink::Server => FlowSink::Uplink,
        };
        FilterPlan::device(spec.modality, spec.granularity, spec.filter.clone())
            .sinking(sink)
            .coupled_to_osn(spec.effective_mode() == StreamMode::SocialEventBased)
    }

    /// Static analyses of every installed stream's plan, in stream-id
    /// order — this device's contribution to the deployment-wide analysis
    /// report (`sensocial-sim`'s `World::analysis_report`).
    pub fn plan_reports(&self) -> Vec<sensocial_analysis::report::PlanReport> {
        let device = self.device_id();
        let env = AnalysisEnv::new().with_privacy(&self.privacy);
        self.stream_specs()
            .into_iter()
            .map(|(id, spec)| {
                sensocial_analysis::report::PlanReport::for_plan(
                    "device_stream",
                    format!("{}/{id}", device.as_str()), // lint:allow(format) — cold path: one report label per installed plan
                    &Self::device_plan(&spec),
                    &env,
                )
            })
            .collect()
    }

    fn install_stream(
        &self,
        sched: &mut Scheduler,
        id: StreamId,
        spec: StreamSpec,
        origin: StreamOrigin,
    ) {
        // A redelivered Create command (QoS-1 at-least-once) must not leak
        // the previous incarnation's sensor subscriptions.
        if self.inner.borrow().streams.contains_key(&id) {
            self.destroy_stream(id);
        }
        self.memory
            .alloc("sensocial/stream", STREAM_OBJECTS, STREAM_BYTES);
        let mut state = StreamState::new(spec, origin);
        state.status = match self.privacy.screen(&state.spec) {
            Ok(()) => StreamStatus::Active,
            Err(_) => StreamStatus::PausedByPrivacy,
        };
        self.inner.borrow_mut().streams.insert(id, state);
        self.start_sampling(sched, id);
    }

    /// Destroys a stream, cancelling its sensor subscriptions. Returns
    /// whether it existed.
    pub fn destroy_stream(&self, id: StreamId) -> bool {
        let state = self.inner.borrow_mut().streams.remove(&id);
        let Some(state) = state else {
            return false;
        };
        self.stop_subscriptions(&state);
        self.inner.borrow_mut().listeners.remove(&id);
        self.memory
            .free("sensocial/stream", STREAM_OBJECTS, STREAM_BYTES);
        true
    }

    /// Replaces a stream's filter, re-screening privacy and re-arming
    /// conditional sampling. The new plan is statically verified first and
    /// the normalized filter is what gets installed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownStream`] if `id` does not exist, or
    /// [`Error::PlanRejected`] if the new filter fails verification (the
    /// previous filter stays in place).
    pub fn set_filter(
        &self,
        sched: &mut Scheduler,
        id: StreamId,
        filter: sensocial_types::filter::Filter,
    ) -> Result<()> {
        let candidate = {
            let inner = self.inner.borrow();
            let state = inner
                .streams
                .get(&id)
                .ok_or(Error::UnknownStream(id.value()))?;
            state.spec.clone().with_filter(filter)
        };
        let verified = self.analyze_spec(&candidate)?;
        {
            let mut inner = self.inner.borrow_mut();
            let state = inner
                .streams
                .get_mut(&id)
                .ok_or(Error::UnknownStream(id.value()))?;
            state.program = compile(&verified.filter);
            state.spec = verified;
        }
        self.restart_stream(sched, id);
        Ok(())
    }

    /// Changes a stream's duty cycle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownStream`] if `id` does not exist, or
    /// [`Error::InvalidConfig`] for a zero interval.
    pub fn set_interval(
        &self,
        sched: &mut Scheduler,
        id: StreamId,
        interval: SimDuration,
    ) -> Result<()> {
        check_interval(interval)?;
        {
            let mut inner = self.inner.borrow_mut();
            let state = inner
                .streams
                .get_mut(&id)
                .ok_or(Error::UnknownStream(id.value()))?;
            state.spec.interval = interval;
        }
        self.restart_stream(sched, id);
        Ok(())
    }

    /// Registers a listener for a stream's (filtered) events.
    pub fn register_listener<F>(&self, id: StreamId, listener: F)
    where
        F: Fn(&mut Scheduler, &StreamEvent) + 'static,
    {
        self.memory
            .alloc("sensocial/listener", LISTENER_OBJECTS, LISTENER_BYTES);
        self.inner
            .borrow_mut()
            .listeners
            .entry(id)
            .or_default()
            .push(Rc::new(listener));
    }

    /// Sets a privacy policy and immediately re-screens every stream,
    /// pausing newly non-compliant streams and resuming newly compliant
    /// ones.
    pub fn set_privacy_policy(&self, sched: &mut Scheduler, policy: PrivacyPolicy) {
        self.privacy.set_policy(policy);
        self.rescreen_all(sched);
    }

    /// Stream ids currently installed, sorted.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = self.inner.borrow_mut().streams.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// A stream's status, if it exists.
    pub fn stream_status(&self, id: StreamId) -> Option<StreamStatus> {
        self.inner.borrow_mut().streams.get(&id).map(|s| s.status)
    }

    /// A stream's origin, if it exists.
    pub fn stream_origin(&self, id: StreamId) -> Option<StreamOrigin> {
        self.inner.borrow_mut().streams.get(&id).map(|s| s.origin)
    }

    /// A stream's specification, if it exists.
    pub fn stream_spec(&self, id: StreamId) -> Option<StreamSpec> {
        self.inner
            .borrow_mut()
            .streams
            .get(&id)
            .map(|s| s.spec.clone())
    }

    /// Every installed stream's `(id, spec)`, sorted by id — the input the
    /// deployment-wide analysis report reads per device.
    pub fn stream_specs(&self) -> Vec<(StreamId, StreamSpec)> {
        let mut specs: Vec<(StreamId, StreamSpec)> = self
            .inner
            .borrow_mut()
            .streams
            .iter()
            .map(|(id, s)| (*id, s.spec.clone()))
            .collect();
        specs.sort_unstable_by_key(|(id, _)| *id);
        specs
    }

    // ------------------------------------------------------------------
    // Sampling machinery
    // ------------------------------------------------------------------

    fn start_sampling(&self, sched: &mut Scheduler, id: StreamId) {
        let spec = {
            let inner = self.inner.borrow();
            let Some(state) = inner.streams.get(&id) else {
                return;
            };
            if state.status != StreamStatus::Active {
                return;
            }
            state.spec.clone()
        };

        self.sensors
            .set_config(spec.modality, SensorConfig::with_interval(spec.interval));

        // Conditional modalities are sampled continuously and classified so
        // the snapshot stays evaluable.
        let mut conditional_subs = Vec::new();
        for modality in spec.filter.conditional_modalities(spec.modality) {
            self.sensors
                .set_config(modality, SensorConfig::with_interval(spec.interval));
            let mgr = self.clone();
            let sub = self.sensors.subscribe(sched, modality, move |s, raw| {
                mgr.record_conditional_sample(s, raw);
            });
            conditional_subs.push(sub);
        }

        // Conditions evaluable *before* sampling the stream's own modality
        // (other-modality context, time of day). When any exist, the
        // paper's energy rule applies: "the stream's required modality is
        // sampled only when the conditions are satisfied" — so the duty
        // cycle first checks the gate and only then pays for the sensor.
        let gating: Vec<sensocial_types::filter::Condition> = spec
            .filter
            .conditions
            .iter()
            .filter(|c| {
                !c.is_cross_user()
                    && !c.lhs.is_osn()
                    && c.lhs.required_modality() != Some(spec.modality)
            })
            .cloned()
            .collect();

        let (own_subscription, own_timer) = match spec.effective_mode() {
            StreamMode::Continuous if gating.is_empty() => {
                let mgr = self.clone();
                let sub = self.sensors.subscribe(sched, spec.modality, move |s, raw| {
                    mgr.handle_sample(s, id, raw, None);
                });
                (Some(sub), None)
            }
            StreamMode::Continuous => {
                let mgr = self.clone();
                let modality = spec.modality;
                // Lower the gate once; every tick runs the flat program
                // instead of re-inspecting the conditions' JSON values.
                let gate = compile(&sensocial_types::filter::Filter::new(gating));
                let timer = Timer::start(sched, spec.interval, move |s| {
                    let gate_passes = {
                        let mut inner = mgr.inner.borrow_mut();
                        let inner = &mut *inner;
                        let ctx = EvalContext {
                            snapshot: &inner.context,
                            now: s.now(),
                            osn_action: None,
                        };
                        match eval_local(&gate, &ctx) {
                            Ok(passes) => passes,
                            // Analyzer-vetted plans never hit this; an
                            // unvetted ill-typed gate fails closed.
                            Err(_) => {
                                mgr.record_filter_eval_error();
                                false
                            }
                        }
                    };
                    if gate_passes {
                        let raw = mgr.sensors.sample_once(s, modality);
                        mgr.handle_sample(s, id, raw, None);
                    }
                });
                (None, Some(timer))
            }
            StreamMode::SocialEventBased => (None, None),
        };

        let mut inner = self.inner.borrow_mut();
        if let Some(state) = inner.streams.get_mut(&id) {
            state.own_subscription = own_subscription;
            state.own_timer = own_timer;
            state.conditional_subscriptions = conditional_subs;
        }
    }

    fn stop_subscriptions(&self, state: &StreamState) {
        if let Some(sub) = state.own_subscription {
            self.sensors.unsubscribe(sub);
        }
        if let Some(timer) = &state.own_timer {
            timer.stop();
        }
        for sub in &state.conditional_subscriptions {
            self.sensors.unsubscribe(*sub);
        }
    }

    fn restart_stream(&self, sched: &mut Scheduler, id: StreamId) {
        let state_snapshot = {
            let mut inner = self.inner.borrow_mut();
            let Some(state) = inner.streams.get_mut(&id) else {
                return;
            };
            let old = StreamState {
                spec: state.spec.clone(),
                status: state.status,
                origin: state.origin,
                own_subscription: state.own_subscription.take(),
                own_timer: state.own_timer.take(),
                conditional_subscriptions: std::mem::take(&mut state.conditional_subscriptions),
                last_sample: None,
                program: state.program.clone(),
            };
            state.status = match self.privacy.screen(&state.spec) {
                Ok(()) => StreamStatus::Active,
                Err(_) => StreamStatus::PausedByPrivacy,
            };
            old
        };
        self.stop_subscriptions(&state_snapshot);
        self.start_sampling(sched, id);
    }

    fn rescreen_all(&self, sched: &mut Scheduler) {
        let ids = self.stream_ids();
        for id in ids {
            self.restart_stream(sched, id);
        }
    }

    /// Handles a conditional-modality sample: classify and record, nothing
    /// delivered.
    fn record_conditional_sample(&self, _sched: &mut Scheduler, raw: RawSample) {
        self.cpu.record(self.cpu_costs.sample_handling_ms);
        let at = _sched.now();
        let modality = raw.modality();
        if let Some(classified) = self.classifiers.classify(&raw) {
            self.cpu.record(self.cpu_costs.classify_ms);
            self.battery.charge(
                EnergyComponent::Classification(modality),
                self.energy_profile.classification_uah(modality),
            );
            let mut inner = self.inner.borrow_mut();
            inner.context.record(at, ContextData::Raw(raw));
            inner
                .context
                .record(at, ContextData::Classified(classified));
        } else {
            self.inner
                .borrow_mut()
                .context
                .record(at, ContextData::Raw(raw));
        }
    }

    /// Handles a sample for stream `id`: classify per granularity, update
    /// the snapshot, filter, deliver.
    fn handle_sample(
        &self,
        sched: &mut Scheduler,
        id: StreamId,
        raw: RawSample,
        osn_action: Option<&OsnAction>,
    ) {
        let at = sched.now();
        // `at` is the event's birth timestamp; every later stage records
        // its latency relative to it.
        self.telemetry.observe(Stage::Sense, 0);
        let spec = {
            let inner = self.inner.borrow();
            let Some(state) = inner.streams.get(&id) else {
                return;
            };
            if state.status != StreamStatus::Active {
                // Paused (privacy or otherwise): the sample dies at the
                // privacy gate.
                drop(inner);
                self.telemetry.count("drop.paused");
                return;
            }
            state.spec.clone()
        };
        self.telemetry
            .observe(Stage::Privacy, sched.now().as_millis() - at.as_millis());

        self.cpu.record(self.cpu_costs.sample_handling_ms);

        let modality = raw.modality();
        // Decide whether classification is needed: for classified delivery,
        // or because the filter inspects this modality's classified value.
        let needs_classified_for_filter = spec
            .filter
            .conditions
            .iter()
            .any(|c| !c.is_cross_user() && c.lhs.required_modality() == Some(modality));
        let classified =
            if spec.granularity == Granularity::Classified || needs_classified_for_filter {
                let c = self.classifiers.classify(&raw);
                if c.is_some() {
                    self.cpu.record(self.cpu_costs.classify_ms);
                    self.battery.charge(
                        EnergyComponent::Classification(modality),
                        self.energy_profile.classification_uah(modality),
                    );
                }
                c
            } else {
                None
            };

        // Update the device snapshot.
        {
            let mut inner = self.inner.borrow_mut();
            inner.context.record(at, ContextData::Raw(raw.clone()));
            if let Some(c) = classified.clone() {
                inner.context.record(at, ContextData::Classified(c));
            }
        }

        let data = match spec.granularity {
            Granularity::Raw => ContextData::Raw(raw),
            Granularity::Classified => match classified {
                Some(c) => ContextData::Classified(c),
                // No classifier installed: fall back to raw delivery.
                None => ContextData::Raw(raw),
            },
        };

        // Filter evaluation (own-user conditions; cross-user ones are the
        // server's job).
        self.cpu
            .record(self.cpu_costs.filter_condition_ms * spec.filter.conditions.len() as f64);
        // Nothing since the status check above can remove the stream.
        let Some(passes) = self.stream_passes(id, at, osn_action) else {
            return;
        };

        {
            let mut inner = self.inner.borrow_mut();
            if let Some(state) = inner.streams.get_mut(&id) {
                state.last_sample = Some((at, data.clone()));
            }
        }

        if !passes {
            self.telemetry.count("drop.filter");
            return;
        }
        self.telemetry
            .observe(Stage::Filter, sched.now().as_millis() - at.as_millis());
        self.deliver(sched, id, &spec, at, data, osn_action.cloned());
    }

    fn deliver(
        &self,
        sched: &mut Scheduler,
        id: StreamId,
        spec: &StreamSpec,
        at: Timestamp,
        data: ContextData,
        osn_action: Option<OsnAction>,
    ) {
        let (user, device, listeners, uplink_topic) = {
            let inner = self.inner.borrow();
            (
                inner.user.clone(),
                inner.device.clone(),
                inner.listeners.get(&id).cloned().unwrap_or_default(),
                inner.uplink_topic.clone(),
            )
        };
        let event = StreamEvent {
            stream: id,
            user,
            device: device.clone(),
            at,
            data,
            osn_action,
        };

        for listener in &listeners {
            self.cpu.record(self.cpu_costs.local_delivery_ms);
            listener(sched, &event);
        }

        if spec.sink == StreamSink::Server && self.broker.is_some() {
            let wire = event.to_wire();
            self.cpu.record(self.cpu_costs.serialize_transmit_ms);
            self.battery.charge(
                EnergyComponent::Transmission,
                self.energy_profile
                    .transmission_uah(event.data.payload_bytes()),
            );
            self.battery.charge(
                EnergyComponent::RadioTail,
                self.energy_profile.radio_tail_uah,
            );
            self.uplink_or_buffer(sched, uplink_topic, wire.into(), at);
        }
    }

    /// Sends one uplink event, or parks it while the broker session is
    /// unconfirmed (store-and-forward). The backlog is always drained
    /// first so events leave in arrival order. `birth` is the event's
    /// sample time: the uplink-stage latency recorded at publish time
    /// absorbs any store-and-forward delay.
    fn uplink_or_buffer(
        &self,
        sched: &mut Scheduler,
        topic: InternedTopic,
        payload: Payload,
        birth: Timestamp,
    ) {
        let Some(broker) = &self.broker else {
            return;
        };
        if broker.is_session_confirmed() {
            self.flush_uplink(sched);
            broker.publish(sched, topic, payload, QoS::AtMostOnce, false);
            self.telemetry.count("uplink.sent");
            self.telemetry
                .observe(Stage::Uplink, sched.now().as_millis() - birth.as_millis());
        } else {
            let mut inner = self.inner.borrow_mut();
            self.telemetry.count("uplink.buffered");
            if inner.uplink_buffer.len() >= inner.uplink_limit {
                inner.uplink_buffer.pop_front();
                self.telemetry.count("uplink.dropped");
            }
            inner.uplink_buffer.push_back((topic, payload, birth));
            let backlog = inner.uplink_buffer.len() as u64;
            drop(inner);
            self.telemetry.gauge_set("uplink_backlog", backlog);
        }
    }

    /// Drains the store-and-forward buffer towards the broker, oldest
    /// first, as one batch taken in a single borrow. Called on
    /// every confirmed (re)connect. Non-empty batch sizes land in the
    /// `client.uplink.batch_size` histogram.
    fn flush_uplink(&self, sched: &mut Scheduler) {
        let Some(broker) = &self.broker else {
            return;
        };
        let batch = std::mem::take(&mut self.inner.borrow_mut().uplink_buffer);
        if !batch.is_empty() {
            self.telemetry
                .observe_named("uplink.batch_size", batch.len() as u64);
        }
        for (topic, payload, birth) in batch {
            broker.publish(sched, topic, payload, QoS::AtMostOnce, false);
            self.telemetry.count("uplink.flushed");
            self.telemetry.count("uplink.sent");
            self.telemetry
                .observe(Stage::Uplink, sched.now().as_millis() - birth.as_millis());
        }
        self.telemetry.gauge_set(
            "uplink_backlog",
            self.inner.borrow().uplink_buffer.len() as u64,
        );
    }

    // ------------------------------------------------------------------
    // Broker message handling
    // ------------------------------------------------------------------

    fn on_trigger(&self, sched: &mut Scheduler, payload: &str) {
        self.battery.charge(
            EnergyComponent::TriggerReception,
            self.energy_profile.trigger_rx_uah,
        );
        let Ok(trigger) = TriggerPayload::from_wire(payload) else {
            self.telemetry.count("malformed_triggers");
            return;
        };
        let action = trigger.action;
        let now = sched.now();

        // Every active social-event-based stream senses once, or reuses the
        // last cycle's context when triggers arrive faster than sampling
        // can complete (the paper's §7 accuracy/energy trade-off). Streams
        // go in id order, not the map's hash order, so a seed replays the
        // same uplink sequence.
        type EventStream = (StreamId, StreamSpec, Option<(Timestamp, ContextData)>);
        let mut event_streams: Vec<EventStream> = {
            let inner = self.inner.borrow();
            inner
                .streams
                .iter()
                .filter(|(_, s)| {
                    s.status == StreamStatus::Active
                        && s.spec.effective_mode() == StreamMode::SocialEventBased
                })
                .map(|(id, s)| (*id, s.spec.clone(), s.last_sample.clone()))
                .collect()
        };
        event_streams.sort_unstable_by_key(|(id, _, _)| *id);

        for (id, spec, last) in event_streams {
            match last {
                Some((at, data)) if now.saturating_since(at) < spec.interval => {
                    // Too soon to sample again: couple the previous context
                    // with this action.
                    // A listener of an earlier stream in this loop may have
                    // destroyed this one.
                    let Some(passes) = self.stream_passes(id, now, Some(&action)) else {
                        continue;
                    };
                    if passes {
                        self.deliver(sched, id, &spec, at, data, Some(action.clone()));
                    }
                }
                _ => {
                    let raw = self.sensors.sample_once(sched, spec.modality);
                    self.handle_sample(sched, id, raw, Some(&action));
                }
            }
        }
    }

    fn on_config(&self, sched: &mut Scheduler, payload: &str) {
        let Ok(command) = ConfigCommand::from_wire(payload) else {
            self.telemetry.count("malformed_configs");
            return;
        };
        if *command.device() != self.device_id() {
            return;
        }
        // Occurrence-level idempotency: a campaign command whose token was
        // already applied is positively re-acked (the scheduler's attempt
        // must settle) but never applied twice — even when a post-crash
        // redispatch arrives under a fresh epoch.
        let token = command.token().map(str::to_owned);
        if let Some(token) = &token {
            if self.inner.borrow().applied_tokens.contains(token) {
                self.telemetry.count("campaign_duplicates");
                self.ack_config(
                    sched,
                    command.stream(),
                    command.epoch(),
                    Some(token.clone()),
                );
                return;
            }
        }
        // Convergence guard: QoS-1 redelivery and outage-queued pushes can
        // reorder commands; only an epoch strictly newer than the last one
        // applied for this stream may take effect. Epoch 0 (legacy wire
        // form) bypasses the guard.
        let epoch = command.epoch();
        if epoch != 0 {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let last = inner.config_epochs.entry(command.stream()).or_insert(0);
            if epoch <= *last {
                self.telemetry.count("stale_configs");
                return;
            }
            *last = epoch;
        }
        let stream = command.stream();
        let applied = match command {
            ConfigCommand::Create { stream, spec, .. } => match self.analyze_spec(&spec) {
                Ok(spec) => {
                    self.install_stream(sched, stream, spec, StreamOrigin::Remote);
                    true
                }
                Err(err) => {
                    self.nack_config(sched, stream, epoch, token.clone(), &err);
                    false
                }
            },
            ConfigCommand::Destroy { stream, .. } => {
                // Destroying an already-absent stream is idempotent: the
                // commanded end state holds either way.
                self.destroy_stream(stream);
                true
            }
            ConfigCommand::SetFilter { stream, filter, .. } => {
                match self.set_filter(sched, stream, filter) {
                    Ok(()) => true,
                    Err(err) => {
                        if matches!(err, Error::PlanRejected(_)) || token.is_some() {
                            self.nack_config(sched, stream, epoch, token.clone(), &err);
                        }
                        false
                    }
                }
            }
            ConfigCommand::SetInterval {
                stream,
                interval_ms,
                ..
            } => match self.set_interval(sched, stream, SimDuration::from_millis(interval_ms)) {
                Ok(()) => true,
                Err(err) => {
                    if token.is_some() {
                        self.nack_config(sched, stream, epoch, token.clone(), &err);
                    }
                    false
                }
            },
        };
        if applied {
            if let Some(token) = token {
                self.telemetry.count("campaign_applied");
                self.inner.borrow_mut().applied_tokens.insert(token.clone());
                self.ack_config(sched, stream, epoch, Some(token));
            }
        }
    }

    /// Publishes a positive configuration ack (campaign commands only —
    /// plain pushes stay fire-and-forget, so pre-campaign broker traffic
    /// is unchanged).
    fn ack_config(
        &self,
        sched: &mut Scheduler,
        stream: StreamId,
        epoch: u64,
        token: Option<String>,
    ) {
        let Some(broker) = &self.broker else {
            return;
        };
        let ack = ConfigAck {
            device: self.device_id(),
            stream,
            epoch,
            accepted: true,
            diagnostics: Vec::new(),
            token,
        };
        broker.publish(
            sched,
            Topic::Ack(ack.device.clone()),
            ack.to_wire(),
            QoS::AtLeastOnce,
            false,
        );
    }

    /// Publishes a negative configuration ack carrying the plan verifier's
    /// diagnostics back to the server, so a rejected push fails loudly
    /// instead of installing a stream that can never produce data.
    fn nack_config(
        &self,
        sched: &mut Scheduler,
        stream: StreamId,
        epoch: u64,
        token: Option<String>,
        err: &Error,
    ) {
        self.telemetry.count("configs_rejected");
        let Some(broker) = &self.broker else {
            return;
        };
        let ack = ConfigAck {
            device: self.device_id(),
            stream,
            epoch,
            accepted: false,
            diagnostics: err.plan_diagnostics().to_vec(),
            token,
        };
        broker.publish(
            sched,
            Topic::Ack(ack.device.clone()),
            ack.to_wire(),
            QoS::AtLeastOnce,
            false,
        );
    }
}
