//! The world: one deployment of the full stack under one virtual clock.

use std::collections::BTreeMap;

use sensocial::client::{ClientDeps, ClientManager};
use sensocial::server::{ServerDeps, ServerManager};
use sensocial::PrivacyPolicyManager;
use sensocial::{StreamId, StreamSpec};
use sensocial_broker::{Broker, BrokerClient, BrokerConfig};
use sensocial_classify::ClassifierRegistry;
use sensocial_energy::{
    BatteryMeter, CpuCosts, CpuMeter, EnergyComponent, EnergyProfile, MemoryProfiler,
};
use sensocial_net::{LatencyModel, LinkSpec, Network};
use sensocial_osn::{OsnPlatform, PollPlugin, PushPlugin};
use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timer};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_storage::StorageConfig;
use sensocial_types::{DeviceId, GeoPoint, Place, UserId};

use crate::device::VirtualDevice;

/// Deployment-wide knobs.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Link characteristics between every pair of endpoints (the paper
    /// measures on an uncongested WiFi network).
    pub link: LinkSpec,
    /// OSN push-plug-in notification delay (Table 3's dominant term).
    pub osn_push_delay: (f64, f64),
    /// Gazetteer for place classification.
    pub places: Vec<Place>,
    /// Poll interval for the Twitter-style plug-in.
    pub poll_interval: SimDuration,
    /// Whether devices charge the idle baseline to their battery meter.
    pub charge_idle: bool,
    /// Server storage configuration (backend, partition window, flush
    /// interval). The default reads the backend from the
    /// `SENSOCIAL_STORAGE_BACKEND` environment variable (columnar when it
    /// is unset), which is how CI runs the whole suite against both
    /// backends.
    pub storage: StorageConfig,
    /// Broker behaviour (QoS-1 retry policy, offline-queue limits, and
    /// the `batch_delivery` switch that coalesces same-instant fan-out
    /// into one scheduler event per subscriber). Tests flip
    /// `batch_delivery` off to pin that batching never changes results.
    pub broker: BrokerConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            link: LinkSpec::with_latency(LatencyModel::constant_ms(40)).bandwidth(20_000_000),
            osn_push_delay: (46.5, 2.8),
            places: vec![
                sensocial_types::geo::cities::paris_place(),
                sensocial_types::geo::cities::bordeaux_place(),
                sensocial_types::geo::cities::birmingham_place(),
            ],
            poll_interval: SimDuration::from_secs(30),
            charge_idle: true,
            storage: StorageConfig::from_env(),
            broker: BrokerConfig::default(),
        }
    }
}

/// A full SenSocial deployment under one virtual clock.
///
/// See the [crate-level example](crate).
pub struct World {
    /// The discrete-event scheduler (the clock).
    pub sched: Scheduler,
    /// The simulated network.
    pub net: Network,
    /// The broker (Mosquitto substitute).
    pub broker: Broker,
    /// The SenSocial server.
    pub server: ServerManager,
    /// The simulated OSN platform.
    pub platform: OsnPlatform,
    /// The Facebook-style push plug-in, wired to the server.
    pub push_plugin: PushPlugin,
    /// The Twitter-style poll plug-in, wired to the server.
    pub poll_plugin: PollPlugin,
    devices: BTreeMap<DeviceId, VirtualDevice>,
    config: WorldConfig,
    rng: SimRng,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("devices", &self.devices.len())
            .field("now", &self.sched.now())
            .finish_non_exhaustive()
    }
}

impl World {
    /// Builds the deployment: network, broker, server (connected), OSN
    /// platform with both plug-ins wired to the server.
    pub fn new(config: WorldConfig) -> Self {
        let mut sched = Scheduler::new();
        let mut rng = SimRng::seed_from(config.seed);
        let net = Network::new(rng.split("net").next_u64());
        net.set_default_link(config.link.clone());
        let broker = Broker::new(&net, "broker");
        broker.set_config(config.broker.clone());

        let server_client = BrokerClient::new(&net, "server-ep", "broker", "server");
        let server = ServerManager::new(ServerDeps::new(
            config.storage.open(),
            server_client,
            rng.split("server"),
        ));
        server.connect(&mut sched);

        let platform = OsnPlatform::new(rng.split("osn"));
        let push_plugin = PushPlugin::new(&platform);
        push_plugin.set_delay(config.osn_push_delay.0, config.osn_push_delay.1);
        server.connect_push_plugin(&push_plugin);
        let (poll_plugin, _poll_timer) =
            PollPlugin::start(&mut sched, &platform, config.poll_interval);
        server.connect_poll_plugin(&poll_plugin);

        World {
            sched,
            net,
            broker,
            server,
            platform,
            push_plugin,
            poll_plugin,
            devices: BTreeMap::new(),
            config,
            rng,
        }
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Adds a fully wired virtual phone: sensors over a fresh environment
    /// at `position`, a broker-connected client manager, server and
    /// platform registration, push-plug-in authorization, and (when
    /// configured) an idle-baseline battery drip.
    pub fn add_device(
        &mut self,
        user: impl Into<UserId>,
        device: impl Into<DeviceId>,
        position: GeoPoint,
    ) -> &mut VirtualDevice {
        let user = user.into();
        let device = device.into();
        let mut rng = self.rng.split(device.as_str());

        let env = DeviceEnvironment::new(position);
        let sensors = SensorManager::new(env.clone(), rng.split("sensors"));
        let battery = BatteryMeter::new();
        let cpu = CpuMeter::new();
        let memory = MemoryProfiler::new();
        let profile = EnergyProfile::default();
        sensors.attach_battery(battery.clone(), profile.clone());

        let broker_client = BrokerClient::new(
            &self.net,
            format!("{}-ep", device.as_str()),
            "broker",
            device.as_str(),
        );
        let manager = ClientManager::new(ClientDeps {
            user: user.clone(),
            device: device.clone(),
            sensors: sensors.clone(),
            classifiers: ClassifierRegistry::with_defaults(self.config.places.clone()),
            privacy: PrivacyPolicyManager::allow_all(),
            broker: Some(broker_client),
            battery: battery.clone(),
            cpu: cpu.clone(),
            memory: memory.clone(),
            energy_profile: profile.clone(),
            cpu_costs: CpuCosts::default(),
        });
        manager.connect(&mut self.sched);

        self.server.register_device(user.clone(), device.clone());
        self.platform.register_user(user.clone());
        // Devices default to the push (Facebook-style) plug-in only: a user
        // authorized on both plug-ins would have every action delivered to
        // the server twice. Authorize `poll_plugin` explicitly to model a
        // Twitter-connected user instead.
        self.push_plugin.authorize(&user);

        let idle_timer = if self.config.charge_idle {
            let b = battery.clone();
            let per_minute = profile.idle_per_hour_uah / 60.0;
            Some(Timer::start(
                &mut self.sched,
                SimDuration::from_secs(60),
                move |_| {
                    b.charge(EnergyComponent::Idle, per_minute);
                },
            ))
        } else {
            None
        };

        let virtual_device = VirtualDevice {
            user,
            device: device.clone(),
            env,
            manager,
            sensors,
            battery,
            cpu,
            memory,
            rng,
            mobility: None,
            activity: None,
            osn_activity: None,
            idle_timer,
        };
        self.devices.insert(device.clone(), virtual_device);
        self.devices.get_mut(&device).expect("just inserted") // lint:allow(expect) — entry inserted two lines above
    }

    /// Looks up a device by id.
    pub fn device(&mut self, device: &str) -> Option<&mut VirtualDevice> {
        self.devices.get_mut(&DeviceId::new(device))
    }

    /// Runs `f` with simultaneous access to the scheduler and one device —
    /// the split borrow needed to start drivers on a device.
    pub fn with_device<R>(
        &mut self,
        device: &str,
        f: impl FnOnce(&mut Scheduler, &mut VirtualDevice) -> R,
    ) -> Option<R> {
        let d = self.devices.get_mut(&DeviceId::new(device))?;
        Some(f(&mut self.sched, d))
    }

    /// All device ids, sorted.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        self.devices.keys().cloned().collect()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Convenience: creates a stream on a device through its manager,
    /// avoiding the scheduler/device double borrow.
    ///
    /// # Errors
    ///
    /// Returns [`sensocial::Error::UnknownDevice`] for an unknown device,
    /// or whatever the manager returns.
    pub fn create_stream(&mut self, device: &str, spec: StreamSpec) -> sensocial::Result<StreamId> {
        let manager = self
            .devices
            .get(&DeviceId::new(device))
            .ok_or_else(|| sensocial::Error::UnknownDevice(device.to_owned()))?
            .manager
            .clone();
        manager.create_stream(&mut self.sched, spec)
    }

    /// Convenience: the named user posts on the simulated OSN.
    pub fn post(&mut self, user: &str, content: &str) -> sensocial_types::OsnAction {
        let platform = self.platform.clone();
        platform.post(&mut self.sched, &UserId::new(user), content)
    }

    /// Convenience: a topic-tagged post.
    pub fn post_about(
        &mut self,
        user: &str,
        topic: &str,
        content: &str,
    ) -> sensocial_types::OsnAction {
        let platform = self.platform.clone();
        platform.post_about(&mut self.sched, &UserId::new(user), topic, content)
    }

    /// Convenience: the named user likes a page.
    pub fn like(&mut self, user: &str, page: &str) -> sensocial_types::OsnAction {
        let platform = self.platform.clone();
        platform.like(&mut self.sched, &UserId::new(user), page)
    }

    /// One merged, deterministic telemetry snapshot for the whole
    /// deployment: the server, its storage engine, the broker, the network
    /// and every device's client manager. Counter scopes keep the sources
    /// apart (`server.*`, `storage.*`, `broker.*`, `net.*`, `client.*` —
    /// client counters sum across the fleet), while the unscoped
    /// per-stage latency histograms
    /// (`stage.sense` … `stage.subscriber`) merge into one histogram per
    /// pipeline stage.
    ///
    /// Each registry folds into the result in place, so a device whose
    /// keys are already present costs no allocation.
    pub fn telemetry_snapshot(&self) -> sensocial::TelemetrySnapshot {
        let mut snap = sensocial::TelemetrySnapshot::new();
        self.server.telemetry().merge_into(&mut snap);
        self.server.storage().telemetry().merge_into(&mut snap);
        self.broker.telemetry().merge_into(&mut snap);
        self.net.telemetry().merge_into(&mut snap);
        for device in self.devices.values() {
            device.manager.telemetry().merge_into(&mut snap);
        }
        snap
    }

    /// The deployment-wide static analysis report: the flow verdict of
    /// every server-side plan (remote streams, subscriptions, aggregators,
    /// multicast templates) and of every device's installed streams, plus
    /// the cross-user dependency edges. Byte-stable: same deployment, same
    /// report.
    pub fn analysis_report(&self) -> sensocial_analysis::AnalysisReport {
        let mut plans = self.server.plan_reports();
        for device in self.devices.values() {
            plans.extend(device.manager.plan_reports());
        }
        sensocial_analysis::AnalysisReport::new(plans, &self.server.dependency_graph())
    }

    /// Advances the world by `span` of virtual time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sched.run_for(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial::{Granularity, Modality, StreamSink};
    use sensocial_types::geo::cities;

    #[test]
    fn world_builds_and_devices_uplink() {
        let mut world = World::new(WorldConfig::default());
        world.add_device("alice", "alice-phone", cities::paris());
        world.add_device("bob", "bob-phone", cities::bordeaux());
        assert_eq!(world.device_count(), 2);

        let spec = StreamSpec::continuous(Modality::Location, Granularity::Raw)
            .with_interval(SimDuration::from_secs(30))
            .with_sink(StreamSink::Server);
        world.create_stream("alice-phone", spec).unwrap();
        world.run_for(SimDuration::from_mins(3));
        let snap = world.telemetry_snapshot();
        assert!(snap.counter("server.uplink_events") >= 5);
        // Every pipeline stage up to the server saw traffic.
        for stage in ["sense", "filter", "uplink", "broker", "server"] {
            let hist = snap.histogram(&format!("stage.{stage}"));
            assert!(hist.is_some_and(|h| h.count >= 5), "stage {stage} empty");
        }
    }

    #[test]
    fn idle_baseline_accrues() {
        let mut world = World::new(WorldConfig::default());
        world.add_device("alice", "alice-phone", cities::paris());
        world.run_for(SimDuration::from_mins(60));
        let device = world.device("alice-phone").unwrap();
        let idle = device
            .battery
            .breakdown()
            .component_uah(sensocial_energy::EnergyComponent::Idle);
        let expected = EnergyProfile::default().idle_per_hour_uah;
        assert!((idle - expected).abs() < 0.5, "idle {idle} vs {expected}");
    }

    #[test]
    fn osn_post_reaches_server_via_push_plugin() {
        let mut world = World::new(WorldConfig::default());
        world.add_device("alice", "alice-phone", cities::paris());
        world.post("alice", "hello");
        world.run_for(SimDuration::from_mins(2));
        let snap = world.server.telemetry().snapshot();
        assert_eq!(snap.counter("server.osn_actions"), 1);
        assert_eq!(snap.counter("server.triggers_sent"), 1);
    }

    #[test]
    fn same_seed_worlds_produce_identical_snapshots() {
        let run = || {
            let mut world = World::new(WorldConfig::default());
            world.add_device("alice", "alice-phone", cities::paris());
            let spec = StreamSpec::continuous(Modality::Location, Granularity::Raw)
                .with_interval(SimDuration::from_secs(30))
                .with_sink(StreamSink::Server);
            world.create_stream("alice-phone", spec).unwrap();
            world.post("alice", "hello");
            world.run_for(SimDuration::from_mins(3));
            world.telemetry_snapshot().to_wire()
        };
        assert_eq!(run(), run());
    }
}
