//! Focused client-manager tests on a local-only deployment (no broker,
//! no server) — the configuration the paper's stub application uses for
//! on-device measurements.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sensocial::client::{ClientDeps, ClientManager, StreamOrigin, StreamStatus};
use sensocial::{
    Condition, ConditionLhs, Filter, Granularity, Modality, Operator, StreamEvent, StreamMode,
    StreamSink, StreamSpec, Topic, TriggerPayload, UPLINK_WILDCARD,
};
use sensocial_broker::{Broker, BrokerClient, QoS};
use sensocial_classify::ClassifierRegistry;
use sensocial_energy::{BatteryMeter, CpuCosts, CpuMeter, EnergyProfile, MemoryProfiler};
use sensocial_net::{LatencyModel, LinkSpec, Network};
use sensocial_runtime::{Scheduler, SimDuration, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_types::geo::cities;
use sensocial_types::{ContextData, DeviceId, OsnAction, PhysicalActivity, TriggerId, UserId};

fn manager_with(classifiers: ClassifierRegistry) -> (Scheduler, ClientManager, DeviceEnvironment) {
    let sched = Scheduler::new();
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(5));
    let deps = ClientDeps {
        classifiers,
        ..ClientDeps::local_only("u", "u-phone", sensors, vec![cities::paris_place()])
    };
    (sched, ClientManager::new(deps), env)
}

fn fixture() -> (Scheduler, ClientManager, DeviceEnvironment) {
    manager_with(ClassifierRegistry::with_defaults(vec![
        cities::paris_place(),
    ]))
}

type Seen = Rc<RefCell<Vec<ContextData>>>;

fn listen(manager: &ClientManager, stream: sensocial::StreamId) -> Seen {
    let seen: Seen = Rc::new(RefCell::new(Vec::new()));
    let sink = seen.clone();
    manager.register_listener(stream, move |_s, e| sink.borrow_mut().push(e.data.clone()));
    seen
}

#[test]
fn classified_stream_without_classifier_falls_back_to_raw() {
    // An empty registry: classification is requested but impossible.
    let (mut sched, manager, _env) = manager_with(ClassifierRegistry::new());
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Microphone, Granularity::Classified)
                .with_interval(SimDuration::from_secs(10)),
        )
        .unwrap();
    let seen = listen(&manager, stream);
    sched.run_for(SimDuration::from_secs(25));
    let seen = seen.borrow();
    assert_eq!(seen.len(), 2);
    assert!(
        matches!(seen[0], ContextData::Raw(_)),
        "no classifier → raw delivery, not silence"
    );
}

#[test]
fn multiple_listeners_each_receive_every_event() {
    let (mut sched, manager, _env) = fixture();
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(10)),
        )
        .unwrap();
    let a = listen(&manager, stream);
    let b = listen(&manager, stream);
    sched.run_for(SimDuration::from_secs(35));
    assert_eq!(a.borrow().len(), 3);
    assert_eq!(b.borrow().len(), 3);
}

#[test]
fn destroy_stops_sampling_and_forgets_stream() {
    let (mut sched, manager, _env) = fixture();
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Bluetooth, Granularity::Raw)
                .with_interval(SimDuration::from_secs(10)),
        )
        .unwrap();
    let seen = listen(&manager, stream);
    sched.run_for(SimDuration::from_secs(15));
    assert!(manager.destroy_stream(stream));
    assert!(!manager.destroy_stream(stream), "second destroy is a no-op");
    assert_eq!(manager.stream_status(stream), None);
    let settled = seen.borrow().len();
    sched.run_for(SimDuration::from_mins(5));
    assert_eq!(seen.borrow().len(), settled);
    assert!(manager.stream_ids().is_empty());
}

#[test]
fn set_interval_validates_and_applies() {
    let (mut sched, manager, _env) = fixture();
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(60)),
        )
        .unwrap();
    assert!(manager
        .set_interval(&mut sched, stream, SimDuration::ZERO)
        .is_err());
    assert!(manager
        .set_interval(
            &mut sched,
            sensocial::StreamId::new(999),
            SimDuration::from_secs(5)
        )
        .is_err());
    manager
        .set_interval(&mut sched, stream, SimDuration::from_secs(5))
        .unwrap();
    assert_eq!(
        manager.stream_spec(stream).unwrap().interval,
        SimDuration::from_secs(5)
    );
    let seen = listen(&manager, stream);
    sched.run_for(SimDuration::from_secs(26));
    assert_eq!(seen.borrow().len(), 5);
}

#[test]
fn set_filter_switches_stream_to_event_mode() {
    let (mut sched, manager, _env) = fixture();
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(10)),
        )
        .unwrap();
    let seen = listen(&manager, stream);
    sched.run_for(SimDuration::from_secs(25));
    assert_eq!(seen.borrow().len(), 2, "continuous before the filter");

    // An OSN-activity filter converts the stream to social-event mode: no
    // more duty-cycle samples (and no triggers in this local-only world).
    manager
        .set_filter(
            &mut sched,
            stream,
            Filter::new(vec![Condition::new(
                ConditionLhs::OsnActivity,
                Operator::Equals,
                "active",
            )]),
        )
        .unwrap();
    let spec = manager.stream_spec(stream).unwrap();
    assert_eq!(spec.mode, StreamMode::Continuous);
    assert_eq!(spec.effective_mode(), StreamMode::SocialEventBased);
    sched.run_for(SimDuration::from_mins(5));
    assert_eq!(seen.borrow().len(), 2, "no samples in event mode");
}

#[test]
fn conditional_modalities_charge_classification_energy() {
    let (mut sched, manager, env) = fixture();
    env.set_activity(PhysicalActivity::Still);
    manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Location, Granularity::Raw)
                .with_interval(SimDuration::from_secs(60))
                .with_filter(Filter::new(vec![Condition::new(
                    ConditionLhs::PhysicalActivity,
                    Operator::Equals,
                    "walking",
                )])),
        )
        .unwrap();
    sched.run_for(SimDuration::from_mins(5));
    let breakdown = manager.battery().breakdown();
    // The conditional accelerometer stream is sampled *and classified*
    // even though the GPS stream itself never passes the filter.
    assert!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Sampling(
            Modality::Accelerometer
        )) > 0.0
    );
    assert!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Classification(
            Modality::Accelerometer
        )) > 0.0
    );
    // And the context snapshot knows the activity.
    assert_eq!(
        manager.context_snapshot().activity(),
        Some(PhysicalActivity::Still)
    );
}

#[test]
fn gated_streams_skip_expensive_sampling_until_conditions_hold() {
    // Paper §4: "the stream's required modality is sampled only when the
    // conditions are satisfied" — GPS is not touched while the user is
    // still.
    let (mut sched, manager, env) = fixture();
    env.set_activity(PhysicalActivity::Still);
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Location, Granularity::Raw)
                .with_interval(SimDuration::from_secs(60))
                .with_filter(Filter::new(vec![Condition::new(
                    ConditionLhs::PhysicalActivity,
                    Operator::Equals,
                    "walking",
                )])),
        )
        .unwrap();
    let seen = listen(&manager, stream);

    sched.run_for(SimDuration::from_mins(10));
    let breakdown = manager.battery().breakdown();
    assert_eq!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Sampling(
            Modality::Location
        )),
        0.0,
        "GPS never sampled while still"
    );
    assert!(seen.borrow().is_empty());

    env.set_activity(PhysicalActivity::Walking);
    sched.run_for(SimDuration::from_mins(10));
    assert!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Sampling(
            Modality::Location
        )) == 0.0,
        "snapshot taken before walking is unchanged"
    );
    let breakdown = manager.battery().breakdown();
    assert!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Sampling(
            Modality::Location
        )) > 0.0,
        "GPS sampled once walking"
    );
    assert!(!seen.borrow().is_empty());
}

#[test]
fn own_modality_conditions_do_not_gate_sampling() {
    // A location stream filtered on Place must still sample location (the
    // condition is unevaluable without the fix).
    let (mut sched, manager, _env) = fixture();
    manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Location, Granularity::Classified)
                .with_interval(SimDuration::from_secs(60))
                .with_filter(Filter::new(vec![Condition::new(
                    ConditionLhs::Place,
                    Operator::Equals,
                    "Paris",
                )])),
        )
        .unwrap();
    sched.run_for(SimDuration::from_mins(5));
    let breakdown = manager.battery().breakdown();
    assert!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Sampling(
            Modality::Location
        )) > 0.0
    );
}

#[test]
fn local_streams_do_not_touch_the_network() {
    let (mut sched, manager, _env) = fixture();
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Microphone, Granularity::Classified)
                .with_interval(SimDuration::from_secs(30))
                .with_sink(StreamSink::Server), // requested, but no broker
        )
        .unwrap();
    let seen = listen(&manager, stream);
    sched.run_for(SimDuration::from_mins(2));
    assert_eq!(seen.borrow().len(), 4, "local delivery still works");
    let breakdown = manager.battery().breakdown();
    assert_eq!(
        breakdown.component_uah(sensocial_energy::EnergyComponent::Transmission),
        0.0,
        "no broker → nothing transmitted"
    );
}

#[test]
fn deps_struct_wiring_is_respected() {
    let sched = Scheduler::new();
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env, SimRng::seed_from(9));
    let battery = BatteryMeter::new();
    let cpu = CpuMeter::new();
    let memory = MemoryProfiler::new();
    let manager = ClientManager::new(ClientDeps {
        user: "zoe".into(),
        device: "zoe-phone".into(),
        sensors,
        classifiers: ClassifierRegistry::with_defaults(vec![]),
        privacy: sensocial::PrivacyPolicyManager::allow_all(),
        broker: None,
        battery: battery.clone(),
        cpu: cpu.clone(),
        memory: memory.clone(),
        energy_profile: EnergyProfile::default(),
        cpu_costs: CpuCosts::default(),
    });
    drop(sched);
    assert_eq!(manager.user_id().as_str(), "zoe");
    assert_eq!(manager.device_id().as_str(), "zoe-phone");
    // Construction registered the manager's memory footprint.
    assert!(memory.snapshot().total_objects() > 1_000);
}

#[test]
fn stream_accessors_report_state() {
    let (mut sched, manager, _env) = fixture();
    let spec = StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Classified);
    let stream = manager.create_stream(&mut sched, spec.clone()).unwrap();
    assert_eq!(manager.stream_origin(stream), Some(StreamOrigin::Local));
    assert_eq!(manager.stream_status(stream), Some(StreamStatus::Active));
    assert_eq!(manager.stream_spec(stream), Some(spec));
    assert_eq!(manager.stream_ids(), vec![stream]);
}

#[test]
fn trigger_skips_a_stream_destroyed_by_an_earlier_listener() {
    // Two event-based streams whose listeners each destroy the other on
    // their second event. The second trigger arrives within the sampling
    // interval, so both streams would reuse their last sample; whichever
    // runs first destroys the other, which must then be skipped, not
    // uplinked.
    let mut sched = Scheduler::new();
    let net = Network::new(1);
    let _broker = Broker::new(&net, "broker");
    let server = BrokerClient::new(&net, "server-ep", "broker", "server");
    server.connect(&mut sched);
    let uplinks = Rc::new(Cell::new(0u32));
    let count = uplinks.clone();
    server.subscribe(
        &mut sched,
        UPLINK_WILDCARD,
        QoS::AtMostOnce,
        move |_, _, _| {
            count.set(count.get() + 1);
        },
    );
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env, SimRng::seed_from(5));
    let manager = ClientManager::new(ClientDeps {
        broker: Some(BrokerClient::new(&net, "u-phone-ep", "broker", "u-phone")),
        ..ClientDeps::local_only("u", "u-phone", sensors, vec![cities::paris_place()])
    });
    manager.connect(&mut sched);

    let spec = StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Raw)
        .with_interval(SimDuration::from_mins(10))
        .with_sink(StreamSink::Server);
    let streams = [
        manager.create_stream(&mut sched, spec.clone()).unwrap(),
        manager.create_stream(&mut sched, spec).unwrap(),
    ];
    for (i, stream) in streams.into_iter().enumerate() {
        let (mgr, other, seen) = (manager.clone(), streams[1 - i], Cell::new(0));
        manager.register_listener(stream, move |_, _| {
            seen.set(seen.get() + 1);
            if seen.get() == 2 {
                mgr.destroy_stream(other);
            }
        });
    }
    let trigger = |sched: &mut Scheduler| {
        let payload = TriggerPayload {
            trigger: TriggerId::new(1),
            device: DeviceId::new("u-phone"),
            action: OsnAction::post(UserId::new("u"), "hi", sched.now()),
        };
        let topic = Topic::Trigger(DeviceId::new("u-phone"));
        server.publish(sched, topic, payload.to_wire(), QoS::AtLeastOnce, false);
        sched.run_for(SimDuration::from_secs(5));
    };
    sched.run_for(SimDuration::from_secs(5));

    trigger(&mut sched);
    assert_eq!(uplinks.get(), 2, "the first trigger samples both streams");
    trigger(&mut sched);
    assert_eq!(manager.stream_ids().len(), 1);
    assert_eq!(uplinks.get(), 3, "the destroyed stream uplinks nothing");
}

#[test]
fn a_trigger_uplinks_each_devices_streams_in_id_order() {
    // One trigger makes every social-event stream on a device sense and
    // uplink in a single pass over its streams. That pass must follow
    // stream ids, not a hash order that differs from map to map (and run
    // to run), so every fresh device below has to agree. A constant-latency
    // link delivers the uplinks in the order they leave.
    let mut sched = Scheduler::new();
    let net = Network::new(1);
    net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(10)));
    let _broker = Broker::new(&net, "broker");
    let server = BrokerClient::new(&net, "server-ep", "broker", "server");
    server.connect(&mut sched);
    let uplinks = Rc::new(RefCell::new(Vec::new()));
    let sink = uplinks.clone();
    server.subscribe(
        &mut sched,
        UPLINK_WILDCARD,
        QoS::AtMostOnce,
        move |_, _, payload| {
            let event = StreamEvent::from_wire(payload).expect("uplinks are stream events");
            sink.borrow_mut().push((event.device, event.stream));
        },
    );

    let devices: Vec<String> = (0..8).map(|i| format!("phone-{i}")).collect();
    let spec = StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Raw)
        .with_sink(StreamSink::Server);
    let mut managers = Vec::new();
    for device in &devices {
        let env = DeviceEnvironment::new(cities::paris());
        let sensors = SensorManager::new(env, SimRng::seed_from(5));
        let endpoint = format!("{device}-ep");
        let broker = BrokerClient::new(&net, endpoint.as_str(), "broker", device.as_str());
        let manager = ClientManager::new(ClientDeps {
            broker: Some(broker),
            ..ClientDeps::local_only("u", device.as_str(), sensors, vec![cities::paris_place()])
        });
        manager.connect(&mut sched);
        for _ in 0..2 {
            manager.create_stream(&mut sched, spec.clone()).unwrap();
        }
        managers.push(manager);
    }
    sched.run_for(SimDuration::from_secs(5));

    for device in &devices {
        let payload = TriggerPayload {
            trigger: TriggerId::new(1),
            device: DeviceId::new(device.as_str()),
            action: OsnAction::post(UserId::new("u"), "hi", sched.now()),
        };
        let topic = Topic::Trigger(DeviceId::new(device.as_str()));
        server.publish(
            &mut sched,
            topic,
            payload.to_wire(),
            QoS::AtLeastOnce,
            false,
        );
    }
    sched.run_for(SimDuration::from_secs(5));

    let uplinks = uplinks.borrow();
    assert_eq!(
        uplinks.len(),
        2 * devices.len(),
        "every stream uplinks once"
    );
    for device in &devices {
        let order: Vec<u64> = uplinks
            .iter()
            .filter(|(d, _)| d.as_str() == device)
            .map(|(_, stream)| stream.value())
            .collect();
        assert_eq!(
            order,
            [0, 1],
            "{device} uplinked its streams out of id order"
        );
    }
}
