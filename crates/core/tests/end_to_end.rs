//! End-to-end middleware tests: client + broker + server + OSN plug-ins
//! over the simulated network.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial::client::{ClientDeps, ClientManager, StreamOrigin, StreamStatus};
use sensocial::server::{MulticastSelector, ServerDeps, ServerManager, StreamSelector};
use sensocial::{
    Condition, ConditionLhs, Filter, Granularity, Modality, Operator, StreamEvent, StreamSink,
    StreamSpec,
};
use sensocial_broker::{Broker, BrokerClient};
use sensocial_energy::{BatteryMeter, CpuCosts, CpuMeter, EnergyProfile, MemoryProfiler};
use sensocial_net::{LatencyModel, LinkSpec, Network};
use sensocial_osn::{OsnPlatform, PushPlugin};
use sensocial_runtime::{Scheduler, SimDuration, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_storage::StorageConfig;
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, GeoFence, PhysicalActivity, UserId};

/// A complete deployment: network, broker, server, OSN platform + plug-in.
struct Deployment {
    sched: Scheduler,
    net: Network,
    server: ServerManager,
    platform: OsnPlatform,
    plugin: PushPlugin,
}

fn deployment(seed: u64) -> Deployment {
    let mut sched = Scheduler::new();
    let net = Network::new(seed);
    net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(40)));
    let _broker = Broker::new(&net, "broker");
    let server_client = BrokerClient::new(&net, "server-ep", "broker", "server");
    let server = ServerManager::new(ServerDeps::new(
        StorageConfig::from_env().open(),
        server_client,
        SimRng::seed_from(seed ^ 0xA5),
    ));
    server.connect(&mut sched);

    let platform = OsnPlatform::new(SimRng::seed_from(seed ^ 0x5A));
    let plugin = PushPlugin::new(&platform);
    server.connect_push_plugin(&plugin);

    Deployment {
        sched,
        net,
        server,
        platform,
        plugin,
    }
}

struct Device {
    manager: ClientManager,
    env: DeviceEnvironment,
}

fn add_device(
    d: &mut Deployment,
    user: &str,
    device: &str,
    at: sensocial_types::GeoPoint,
) -> Device {
    let env = DeviceEnvironment::new(at);
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(hash(device)));
    let broker_client = BrokerClient::new(&d.net, format!("{device}-ep"), "broker", device);
    let deps = ClientDeps {
        user: UserId::new(user),
        device: DeviceId::new(device),
        sensors,
        classifiers: sensocial_classify::ClassifierRegistry::with_defaults(vec![
            cities::paris_place(),
            cities::bordeaux_place(),
        ]),
        privacy: sensocial::PrivacyPolicyManager::allow_all(),
        broker: Some(broker_client),
        battery: BatteryMeter::new(),
        cpu: CpuMeter::new(),
        memory: MemoryProfiler::new(),
        energy_profile: EnergyProfile::default(),
        cpu_costs: CpuCosts::default(),
    };
    let manager = ClientManager::new(deps);
    manager.connect(&mut d.sched);
    d.server
        .register_device(UserId::new(user), DeviceId::new(device));
    d.platform.register_user(UserId::new(user));
    d.plugin.authorize(&UserId::new(user));
    Device { manager, env }
}

fn hash(s: &str) -> u64 {
    s.bytes().fold(1469598103934665603u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(1099511628211)
    })
}

type Events = Rc<RefCell<Vec<StreamEvent>>>;

fn collector() -> (Events, impl Fn(&mut Scheduler, &StreamEvent) + 'static) {
    let events: Events = Rc::new(RefCell::new(Vec::new()));
    let sink = events.clone();
    (events, move |_s: &mut Scheduler, e: &StreamEvent| {
        sink.borrow_mut().push(e.clone());
    })
}

#[test]
fn osn_action_triggers_coupled_sensing() {
    let mut d = deployment(1);
    let device = add_device(&mut d, "alice", "alice-phone", cities::paris());
    device.env.set_activity(PhysicalActivity::Walking);

    // A social-event-based classified activity stream, uplinked.
    let spec = StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Classified)
        .with_sink(StreamSink::Server);
    let stream = device.manager.create_stream(&mut d.sched, spec).unwrap();

    let (local_events, local_cb) = collector();
    device.manager.register_listener(stream, local_cb);

    let (server_events, server_cb) = collector();
    d.server
        .register_listener(StreamSelector::AllUplinks, Filter::pass_all(), server_cb)
        .unwrap();

    d.sched.run_for(SimDuration::from_secs(5));
    d.platform
        .post(&mut d.sched, &UserId::new("alice"), "out for a walk!");
    d.sched.run_for(SimDuration::from_mins(3));

    let local = local_events.borrow();
    assert_eq!(local.len(), 1, "one action → one coupled sample");
    let event = &local[0];
    assert_eq!(event.stream, stream);
    let action = event.osn_action.as_ref().expect("coupled action");
    assert_eq!(action.content, "out for a walk!");
    assert_eq!(
        event.data,
        sensocial::ContextData::Classified(sensocial_types::ClassifiedContext::Activity(
            PhysicalActivity::Walking
        ))
    );
    // The event also reached the server listener.
    assert_eq!(server_events.borrow().len(), 1);
    let snap = d.server.telemetry().snapshot();
    assert_eq!(snap.counter("server.osn_actions"), 1);
    assert_eq!(snap.counter("server.triggers_sent"), 1);
    assert_eq!(snap.counter("server.uplink_events"), 1);
}

#[test]
fn trigger_delay_decomposes_like_table3() {
    let mut d = deployment(2);
    let device = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let spec = StreamSpec::social_event_based(Modality::Microphone, Granularity::Classified)
        .with_sink(StreamSink::Server);
    let stream = device.manager.create_stream(&mut d.sched, spec).unwrap();
    let (events, cb) = collector();
    device.manager.register_listener(stream, cb);

    let post_at = SimDuration::from_secs(10);
    d.sched.run_for(post_at);
    d.platform.post(&mut d.sched, &UserId::new("alice"), "hi");
    d.sched.run_for(SimDuration::from_mins(5));

    // OSN → server delay ≈ 46.5 s.
    let log = d.server.action_log();
    assert_eq!(log.len(), 1);
    let osn_to_server = (log[0].1 - log[0].0).as_secs_f64();
    assert!((38.0..=56.0).contains(&osn_to_server), "{osn_to_server}");

    // OSN → mobile sensing ≈ +9 s more.
    let events = events.borrow();
    assert_eq!(events.len(), 1);
    let osn_to_mobile = (events[0].at - log[0].0).as_secs_f64();
    assert!(
        osn_to_mobile > osn_to_server + 5.0,
        "{osn_to_mobile} vs {osn_to_server}"
    );
    assert!(
        osn_to_mobile < osn_to_server + 15.0,
        "{osn_to_mobile} vs {osn_to_server}"
    );
}

#[test]
fn rapid_actions_share_one_sampling_cycle() {
    // Paper §7: "In case a user will perform more than one OSN action
    // between two sampling cycles, the contextual data that were previously
    // sampled will be mapped to these OSN actions."
    let mut d = deployment(3);
    let device = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let spec = StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Raw);
    let stream = device.manager.create_stream(&mut d.sched, spec).unwrap();
    let (events, cb) = collector();
    device.manager.register_listener(stream, cb);

    // Two posts 5 s apart; triggers land ~46 s later, still < 60 s apart.
    d.sched.run_for(SimDuration::from_secs(5));
    d.platform
        .post(&mut d.sched, &UserId::new("alice"), "first");
    d.sched.run_for(SimDuration::from_secs(5));
    d.platform
        .post(&mut d.sched, &UserId::new("alice"), "second");
    d.sched.run_for(SimDuration::from_mins(5));

    let events = events.borrow();
    assert_eq!(events.len(), 2, "both actions delivered");
    let contents: Vec<_> = events
        .iter()
        .map(|e| e.osn_action.as_ref().unwrap().content.clone())
        .collect();
    assert!(contents.contains(&"first".to_owned()));
    assert!(contents.contains(&"second".to_owned()));
    // Same context snapshot mapped to both actions.
    assert_eq!(events[0].data, events[1].data);
    assert_eq!(
        events[0].at, events[1].at,
        "second action reused the sample"
    );
}

#[test]
fn remote_stream_lifecycle() {
    let mut d = deployment(4);
    let device = add_device(&mut d, "carol", "carol-phone", cities::bordeaux());
    d.sched.run_for(SimDuration::from_secs(1));

    // The server creates a continuous classified location stream remotely.
    let spec = StreamSpec::continuous(Modality::Location, Granularity::Classified)
        .with_interval(SimDuration::from_secs(30));
    let stream = d
        .server
        .create_remote_stream(&mut d.sched, &DeviceId::new("carol-phone"), spec)
        .unwrap();

    let (server_events, cb) = collector();
    d.server
        .register_listener(StreamSelector::Stream(stream), Filter::pass_all(), cb)
        .unwrap();

    d.sched.run_for(SimDuration::from_mins(3));
    let count = server_events.borrow().len();
    assert!((4..=7).contains(&count), "expected ~6 cycles, got {count}");
    assert_eq!(
        device.manager.stream_origin(stream),
        Some(StreamOrigin::Remote)
    );

    // Destroying the stream stops the flow.
    d.server
        .destroy_remote_stream(&mut d.sched, stream)
        .unwrap();
    d.sched.run_for(SimDuration::from_secs(2));
    let settled = server_events.borrow().len();
    d.sched.run_for(SimDuration::from_mins(3));
    assert_eq!(server_events.borrow().len(), settled);
    assert_eq!(device.manager.stream_status(stream), None);
}

#[test]
fn remote_interval_reconfiguration() {
    let mut d = deployment(5);
    let _device = add_device(&mut d, "carol", "carol-phone", cities::bordeaux());
    d.sched.run_for(SimDuration::from_secs(1));
    let spec = StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
        .with_interval(SimDuration::from_secs(60));
    let stream = d
        .server
        .create_remote_stream(&mut d.sched, &DeviceId::new("carol-phone"), spec)
        .unwrap();
    let (events, cb) = collector();
    d.server
        .register_listener(StreamSelector::Stream(stream), Filter::pass_all(), cb)
        .unwrap();

    d.sched.run_for(SimDuration::from_mins(2));
    let slow = events.borrow().len();
    d.server
        .set_remote_interval(&mut d.sched, stream, SimDuration::from_secs(10))
        .unwrap();
    d.sched.run_for(SimDuration::from_mins(2));
    let fast = events.borrow().len() - slow;
    assert!(
        fast >= slow * 3,
        "tighter duty cycle should multiply events: {slow} then {fast}"
    );
}

#[test]
fn privacy_pauses_and_resumes_streams() {
    let mut d = deployment(6);
    let device = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let spec = StreamSpec::continuous(Modality::Microphone, Granularity::Raw)
        .with_interval(SimDuration::from_secs(10));
    let stream = device.manager.create_stream(&mut d.sched, spec).unwrap();
    let (events, cb) = collector();
    device.manager.register_listener(stream, cb);

    d.sched.run_for(SimDuration::from_secs(35));
    assert_eq!(events.borrow().len(), 3);
    assert_eq!(
        device.manager.stream_status(stream),
        Some(StreamStatus::Active)
    );

    // Deny raw microphone: the stream pauses automatically.
    device.manager.set_privacy_policy(
        &mut d.sched,
        sensocial::PrivacyPolicy {
            modality: Modality::Microphone,
            granularity: Granularity::Raw,
            allow: false,
        },
    );
    assert_eq!(
        device.manager.stream_status(stream),
        Some(StreamStatus::PausedByPrivacy)
    );
    d.sched.run_for(SimDuration::from_mins(2));
    assert_eq!(events.borrow().len(), 3, "no samples while paused");

    // Re-allow: the stream resumes.
    device.manager.set_privacy_policy(
        &mut d.sched,
        sensocial::PrivacyPolicy {
            modality: Modality::Microphone,
            granularity: Granularity::Raw,
            allow: true,
        },
    );
    assert_eq!(
        device.manager.stream_status(stream),
        Some(StreamStatus::Active)
    );
    d.sched.run_for(SimDuration::from_secs(35));
    assert_eq!(events.borrow().len(), 6);
}

#[test]
fn cross_user_filter_on_server() {
    // "One can create a filter that sends user's GPS data only when
    // another user is walking" (paper §3.1).
    let mut d = deployment(7);
    let alice = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let bob = add_device(&mut d, "bob", "bob-phone", cities::paris());
    bob.env.set_activity(PhysicalActivity::Still);

    // Bob's activity must reach the server for the condition to be
    // evaluable: a classified activity uplink stream.
    let bob_stream = StreamSpec::continuous(Modality::Accelerometer, Granularity::Classified)
        .with_interval(SimDuration::from_secs(20))
        .with_sink(StreamSink::Server);
    bob.manager.create_stream(&mut d.sched, bob_stream).unwrap();

    // Alice's GPS uplink stream.
    let alice_stream = StreamSpec::continuous(Modality::Location, Granularity::Raw)
        .with_interval(SimDuration::from_secs(20))
        .with_sink(StreamSink::Server);
    let alice_id = alice
        .manager
        .create_stream(&mut d.sched, alice_stream)
        .unwrap();

    // Server subscription: alice's stream, gated on bob walking.
    let gate = Filter::new(vec![Condition::new(
        ConditionLhs::PhysicalActivity,
        Operator::Equals,
        "walking",
    )
    .about(UserId::new("bob"))]);
    let (events, cb) = collector();
    d.server
        .register_listener(StreamSelector::Stream(alice_id), gate, cb)
        .unwrap();

    d.sched.run_for(SimDuration::from_mins(3));
    assert!(events.borrow().is_empty(), "bob still → nothing delivered");

    bob.env.set_activity(PhysicalActivity::Walking);
    d.sched.run_for(SimDuration::from_mins(3));
    assert!(
        !events.borrow().is_empty(),
        "bob walking → alice's GPS flows"
    );
}

#[test]
fn multicast_selects_by_geography_and_refreshes_on_movement() {
    let mut d = deployment(8);
    let _a = add_device(&mut d, "a", "a-phone", cities::paris());
    let _b = add_device(&mut d, "b", "b-phone", cities::paris());
    let c = add_device(&mut d, "c", "c-phone", cities::bordeaux());
    for (user, at) in [
        ("a", cities::paris()),
        ("b", cities::paris()),
        ("c", cities::bordeaux()),
    ] {
        d.server.seed_location(&UserId::new(user), at);
    }
    d.sched.run_for(SimDuration::from_secs(1));

    let paris_fence = GeoFence::new(cities::paris(), 20_000.0);
    let template = StreamSpec::continuous(Modality::Location, Granularity::Raw)
        .with_interval(SimDuration::from_secs(30));
    let multicast = d
        .server
        .create_multicast(
            &mut d.sched,
            MulticastSelector::WithinFence(paris_fence),
            template,
        )
        .unwrap();
    assert_eq!(
        d.server.multicast_members(multicast),
        vec![UserId::new("a"), UserId::new("b")]
    );

    let (events, cb) = collector();
    d.server.register_multicast_listener(multicast, cb);
    d.sched.run_for(SimDuration::from_mins(2));
    let users: std::collections::BTreeSet<String> = events
        .borrow_mut()
        .iter()
        .map(|e| e.user.as_str().to_owned())
        .collect();
    assert_eq!(users.len(), 2, "streams from both Paris users: {users:?}");

    // C moves to Paris; refresh picks them up.
    c.env.set_position(cities::paris());
    d.server.seed_location(&UserId::new("c"), cities::paris());
    d.server.refresh_multicast(&mut d.sched, multicast);
    assert_eq!(d.server.multicast_members(multicast).len(), 3);

    d.sched.run_for(SimDuration::from_mins(2));
    let users: std::collections::BTreeSet<String> = events
        .borrow_mut()
        .iter()
        .map(|e| e.user.as_str().to_owned())
        .collect();
    assert!(users.contains("c"), "joiner contributes: {users:?}");
}

#[test]
fn multicast_friends_of_and_filter_distribution() {
    let mut d = deployment(9);
    let _a = add_device(&mut d, "a", "a-phone", cities::paris());
    let c = add_device(&mut d, "c", "c-phone", cities::bordeaux());
    let _e = add_device(&mut d, "e", "e-phone", cities::bordeaux());
    d.server
        .record_friendship(&UserId::new("a"), &UserId::new("c"));
    d.sched.run_for(SimDuration::from_secs(1));

    let template = StreamSpec::continuous(Modality::Location, Granularity::Classified)
        .with_interval(SimDuration::from_secs(30));
    let multicast = d
        .server
        .create_multicast(
            &mut d.sched,
            MulticastSelector::FriendsOf(UserId::new("a")),
            template,
        )
        .unwrap();
    assert_eq!(
        d.server.multicast_members(multicast),
        vec![UserId::new("c")]
    );

    // Distribute a "only when in Paris" filter to all members.
    d.server
        .set_multicast_filter(
            &mut d.sched,
            multicast,
            Filter::new(vec![Condition::new(
                ConditionLhs::Place,
                Operator::Equals,
                "Paris",
            )]),
        )
        .unwrap();
    let (events, cb) = collector();
    d.server.register_multicast_listener(multicast, cb);

    d.sched.run_for(SimDuration::from_mins(3));
    assert!(events.borrow().is_empty(), "c is in Bordeaux: filtered out");

    c.env.set_position(cities::paris());
    d.sched.run_for(SimDuration::from_mins(3));
    assert!(!events.borrow().is_empty(), "c arrived in Paris: flows");
}

#[test]
fn aggregator_multiplexes_streams() {
    let mut d = deployment(10);
    let alice = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let bob = add_device(&mut d, "bob", "bob-phone", cities::bordeaux());

    let mk = |mgr: &ClientManager, sched: &mut Scheduler, modality| {
        mgr.create_stream(
            sched,
            StreamSpec::continuous(modality, Granularity::Classified)
                .with_interval(SimDuration::from_secs(25))
                .with_sink(StreamSink::Server),
        )
        .unwrap()
    };
    let s1 = mk(&alice.manager, &mut d.sched, Modality::Accelerometer);
    let s2 = mk(&bob.manager, &mut d.sched, Modality::Microphone);

    let agg = d.server.create_aggregator([s1, s2]);
    let (events, cb) = collector();
    d.server.register_aggregator_listener(agg, cb);

    d.sched.run_for(SimDuration::from_mins(2));
    let events = events.borrow();
    assert!(
        events.len() >= 6,
        "joined flow from both devices: {}",
        events.len()
    );
    let users: std::collections::BTreeSet<&str> = events.iter().map(|e| e.user.as_str()).collect();
    assert_eq!(users.len(), 2, "both sources present in the joined stream");
}

#[test]
fn uplink_updates_server_context_and_location_table() {
    let mut d = deployment(11);
    let device = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let spec = StreamSpec::continuous(Modality::Location, Granularity::Raw)
        .with_interval(SimDuration::from_secs(20))
        .with_sink(StreamSink::Server);
    device.manager.create_stream(&mut d.sched, spec).unwrap();
    d.sched.run_for(SimDuration::from_mins(2));

    let ctx = d.server.user_context(&UserId::new("alice")).unwrap();
    let pos = ctx.position().expect("server learned alice's position");
    assert!(pos.distance_m(cities::paris()) < 100.0);

    // The uplinked fix places alice in the position table, which geo
    // multicasts select from.
    let template = StreamSpec::continuous(Modality::Location, Granularity::Raw)
        .with_interval(SimDuration::from_secs(30));
    let multicast = d
        .server
        .create_multicast(
            &mut d.sched,
            MulticastSelector::WithinFence(GeoFence::new(cities::paris(), 1_000.0)),
            template,
        )
        .unwrap();
    assert_eq!(
        d.server.multicast_members(multicast),
        vec![UserId::new("alice")]
    );
}

#[test]
fn disconnected_device_receives_queued_trigger_on_reconnect() {
    let mut d = deployment(12);
    let device = add_device(&mut d, "alice", "alice-phone", cities::paris());
    let spec = StreamSpec::social_event_based(Modality::Wifi, Granularity::Raw)
        .with_sink(StreamSink::Server);
    let stream = device.manager.create_stream(&mut d.sched, spec).unwrap();
    let (events, cb) = collector();
    device.manager.register_listener(stream, cb);
    d.sched.run_for(SimDuration::from_secs(2));

    // The phone loses its broker connection (e.g. network outage).
    let broker_client = BrokerClient::new(&d.net, "alice-phone-ep2", "broker", "alice-phone");
    let _ = broker_client; // (documentation: sessions are per client id)
                           // Simulate by disconnecting the session directly through a throwaway
                           // client handle sharing the same id is not possible; instead we cut the
                           // downlink entirely while the action is processed.
    d.net.set_link(
        "broker".into(),
        "alice-phone-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(40)).lossy(1.0),
    );
    d.platform
        .post(&mut d.sched, &UserId::new("alice"), "missed?");
    d.sched.run_for(SimDuration::from_secs(70));
    assert!(events.borrow().is_empty(), "blackout: nothing arrives");

    // Link restored: QoS-1 retries deliver the trigger.
    d.net.set_link(
        "broker".into(),
        "alice-phone-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(40)),
    );
    d.sched.run_for(SimDuration::from_mins(2));
    assert_eq!(events.borrow().len(), 1, "trigger recovered by retries");
}
