//! The static plan verifier gating every register/multicast path, end to
//! end: rejections carry typed diagnostics, privacy denials pause instead
//! of rejecting, normalized filters are what gets installed, and rogue
//! configuration pushes are negatively acked back to the server.

use sensocial::client::{ClientDeps, ClientManager, StreamStatus};
use sensocial::server::{MulticastSelector, ServerDeps, ServerManager, StreamSelector};
use sensocial::{
    Condition, ConditionLhs, ConfigCommand, DiagnosticCode, Filter, Granularity, Modality,
    Operator, StreamSink, StreamSpec, Topic,
};
use sensocial_broker::{Broker, BrokerClient, QoS};
use sensocial_energy::{BatteryMeter, CpuCosts, CpuMeter, EnergyProfile, MemoryProfiler};
use sensocial_net::Network;
use sensocial_runtime::{Scheduler, SimDuration, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_storage::StorageConfig;
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, StreamId, UserId};

struct Deployment {
    sched: Scheduler,
    net: Network,
    broker: Broker,
    server: ServerManager,
}

fn deployment(seed: u64) -> Deployment {
    let mut sched = Scheduler::new();
    let net = Network::new(seed);
    let broker = Broker::new(&net, "broker");
    let server_client = BrokerClient::new(&net, "server-ep", "broker", "server");
    let server = ServerManager::new(ServerDeps::new(
        StorageConfig::from_env().open(),
        server_client,
        SimRng::seed_from(seed ^ 0xA5),
    ));
    server.connect(&mut sched);
    Deployment {
        sched,
        net,
        broker,
        server,
    }
}

fn add_device(
    d: &mut Deployment,
    user: &str,
    device: &str,
    privacy: sensocial::PrivacyPolicyManager,
) -> ClientManager {
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(7));
    let broker_client = BrokerClient::new(&d.net, format!("{device}-ep"), "broker", device);
    let manager = ClientManager::new(ClientDeps {
        user: UserId::new(user),
        device: DeviceId::new(device),
        sensors,
        classifiers: sensocial_classify::ClassifierRegistry::with_defaults(vec![
            cities::paris_place(),
        ]),
        privacy,
        broker: Some(broker_client),
        battery: BatteryMeter::new(),
        cpu: CpuMeter::new(),
        memory: MemoryProfiler::new(),
        energy_profile: EnergyProfile::default(),
        cpu_costs: CpuCosts::default(),
    });
    manager.connect(&mut d.sched);
    d.server
        .register_device(UserId::new(user), DeviceId::new(device));
    manager
}

fn spec_with(conditions: Vec<Condition>) -> StreamSpec {
    StreamSpec::continuous(Modality::Location, Granularity::Classified)
        .with_interval(SimDuration::from_secs(10))
        .with_filter(Filter::new(conditions))
        .with_sink(StreamSink::Server)
}

fn invalid_config<T>(result: Result<T, sensocial::Error>) -> bool {
    matches!(result, Err(sensocial::Error::InvalidConfig(_)))
}

fn first_code(err: &sensocial::Error) -> DiagnosticCode {
    err.plan_diagnostics()
        .first()
        .unwrap_or_else(|| panic!("expected plan diagnostics, got {err}"))
        .code
}

#[test]
fn create_stream_rejects_each_static_error_class() {
    let mut d = deployment(1);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );

    // Type mismatch: HourOfDay compared against a string.
    let err = manager
        .create_stream(
            &mut d.sched,
            spec_with(vec![Condition::new(
                ConditionLhs::HourOfDay,
                Operator::GreaterThan,
                "walking",
            )]),
        )
        .expect_err("ill-typed plan must be rejected");
    assert_eq!(first_code(&err), DiagnosticCode::TypeMismatch);

    // Unsatisfiable: the classic Hour > 20 ∧ Hour < 5 contradiction.
    let err = manager
        .create_stream(
            &mut d.sched,
            spec_with(vec![
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 20),
                Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 5),
            ]),
        )
        .expect_err("unsatisfiable plan must be rejected");
    assert_eq!(first_code(&err), DiagnosticCode::Unsatisfiable);

    // Misplaced: a cross-user condition can never be evaluated on-device.
    let err = manager
        .create_stream(
            &mut d.sched,
            spec_with(vec![Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::Equals,
                "walking",
            )
            .about(UserId::new("bob"))]),
        )
        .expect_err("cross-user device plan must be rejected");
    assert_eq!(first_code(&err), DiagnosticCode::MisplacedCondition);

    // Nothing leaked into the stream table.
    assert!(manager.stream_ids().is_empty());
}

#[test]
fn privacy_denial_pauses_instead_of_rejecting() {
    // The paper's semantics: privacy violations are not plan errors — the
    // stream installs but stays paused until the policy is relaxed.
    let mut d = deployment(2);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::deny_all(),
    );

    let stream = manager
        .create_stream(&mut d.sched, spec_with(Vec::new()))
        .expect("privacy-denied plan still installs");
    assert_eq!(
        manager.stream_status(stream),
        Some(StreamStatus::PausedByPrivacy)
    );
}

#[test]
fn normalized_filter_is_installed_and_never_eval_errors() {
    let mut d = deployment(3);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );

    // Hour > 8 implies Hour > 5: the verifier collapses the pair, and the
    // canonical plan is what the stream actually runs.
    let stream = manager
        .create_stream(
            &mut d.sched,
            spec_with(vec![
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 8),
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 5),
                Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
            ]),
        )
        .expect("sound plan");
    let installed = manager.stream_spec(stream).expect("spec is queryable");
    assert_eq!(
        installed.filter.conditions.len(),
        2,
        "{:?}",
        installed.filter
    );

    // An analyzer-vetted plan never hits a typed eval error at stream time.
    d.sched.run_for(SimDuration::from_mins(5));
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.filter_eval_errors"),
        0
    );
}

#[test]
fn set_filter_rejection_keeps_previous_filter() {
    let mut d = deployment(4);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );

    let good = vec![Condition::new(
        ConditionLhs::Place,
        Operator::Equals,
        "Paris",
    )];
    let stream = manager
        .create_stream(&mut d.sched, spec_with(good.clone()))
        .expect("sound plan");

    let err = manager
        .set_filter(
            &mut d.sched,
            stream,
            Filter::new(vec![
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 20),
                Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 5),
            ]),
        )
        .expect_err("unsatisfiable update must be rejected");
    assert_eq!(first_code(&err), DiagnosticCode::Unsatisfiable);

    let spec = manager.stream_spec(stream).expect("stream survives");
    assert_eq!(spec.filter, Filter::new(good));
}

#[test]
fn rogue_config_push_is_nacked_back_to_the_server() {
    // A configuration push that bypassed server-side verification (stale
    // controller, bug, hand-rolled tooling) is re-checked on-device and
    // negatively acked with the verifier's diagnostics.
    let mut d = deployment(5);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );
    d.sched.run_for(SimDuration::from_secs(2));

    let rogue = BrokerClient::new(&d.net, "rogue-ep", "broker", "rogue");
    rogue.connect(&mut d.sched);
    d.sched.run_for(SimDuration::from_secs(1));
    let device = DeviceId::new("alice-phone");
    let command = ConfigCommand::Create {
        device: device.clone(),
        stream: StreamId::new(5000),
        spec: spec_with(vec![
            Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 20),
            Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 5),
        ]),
        epoch: 1,
        token: None,
    };
    rogue.publish(
        &mut d.sched,
        Topic::Config(device.clone()),
        command.to_wire(),
        QoS::AtLeastOnce,
        false,
    );
    d.sched.run_for(SimDuration::from_secs(5));

    // The device refused the plan and told the server why.
    assert!(!manager.stream_ids().contains(&StreamId::new(5000)));
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.configs_rejected"),
        1
    );
    assert_eq!(
        d.server
            .telemetry()
            .snapshot()
            .counter("server.config_rejections"),
        1
    );
    let rejections = d.server.config_rejections();
    assert_eq!(rejections.len(), 1);
    let ack = &rejections[0];
    assert!(!ack.accepted);
    assert_eq!(ack.device, device);
    assert_eq!(ack.stream, StreamId::new(5000));
    assert_eq!(ack.epoch, 1);
    assert_eq!(ack.diagnostics[0].code, DiagnosticCode::Unsatisfiable);
    // The nack travels on the device's ack topic, which the server holds a
    // wildcard subscription for.
    assert!(Topic::Ack(device).to_string().starts_with("sensocial/ack/"));
}

#[test]
fn malformed_input_is_counted_on_every_receive_path() {
    // Bytes that do not decode are dropped where they land, and each
    // receive path counts them: a corrupted config push shows in the
    // snapshot instead of leaving a campaign waiting for its ack deadline.
    let mut d = deployment(5);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );
    d.sched.run_for(SimDuration::from_secs(2));
    let rogue = BrokerClient::new(&d.net, "rogue-ep", "broker", "rogue");
    rogue.connect(&mut d.sched);
    d.sched.run_for(SimDuration::from_secs(1));

    d.net
        .send(
            &mut d.sched,
            &"rogue-ep".into(),
            &"broker".into(),
            "not json",
        )
        .expect("the broker endpoint is registered");
    let device = DeviceId::new("alice-phone");
    for topic in [
        Topic::Register,
        Topic::Ack(device.clone()),
        Topic::Trigger(device.clone()),
        Topic::Config(device.clone()),
    ] {
        rogue.publish(&mut d.sched, topic, "not json", QoS::AtLeastOnce, false);
    }
    // An empty level matches the server's `+` wildcards but names no
    // device, so neither topic parses.
    for topic in ["sensocial/uplink/", "sensocial/ack/"] {
        rogue.publish(&mut d.sched, topic, "not json", QoS::AtLeastOnce, false);
    }
    rogue.publish(
        &mut d.sched,
        Topic::Uplink(device.clone()),
        "not json",
        QoS::AtLeastOnce,
        false,
    );
    d.sched.run_for(SimDuration::from_secs(5));

    let broker = d.broker.telemetry().snapshot();
    let server = d.server.telemetry().snapshot();
    let client = manager.telemetry().snapshot();
    assert_eq!(broker.counter("broker.malformed_packets"), 1);
    assert_eq!(server.counter("server.malformed_registrations"), 1);
    assert_eq!(server.counter("server.malformed_acks"), 1);
    assert_eq!(server.counter("server.malformed_topics"), 2);
    assert_eq!(server.counter("server.malformed_uplinks"), 1);
    assert_eq!(client.counter("client.malformed_triggers"), 1);
    assert_eq!(client.counter("client.malformed_configs"), 1);

    // The run goes on: well-formed input on the same paths still lands.
    let bob = sensocial::RegistrationPayload {
        user: UserId::new("bob"),
        device: DeviceId::new("bob-phone"),
    };
    rogue.publish(
        &mut d.sched,
        Topic::Register,
        bob.to_wire(),
        QoS::AtLeastOnce,
        false,
    );
    let command = ConfigCommand::Create {
        device: device.clone(),
        stream: StreamId::new(5000),
        spec: spec_with(vec![]),
        epoch: 1,
        token: None,
    };
    rogue.publish(
        &mut d.sched,
        Topic::Config(device),
        command.to_wire(),
        QoS::AtLeastOnce,
        false,
    );
    d.sched.run_for(SimDuration::from_secs(5));
    assert!(d.server.is_registered(&DeviceId::new("bob-phone")));
    assert!(manager.stream_ids().contains(&StreamId::new(5000)));
}

#[test]
fn zero_interval_push_is_nacked_back_to_the_server() {
    // `StreamSpec.interval` is a public field that decoding does not
    // check. A pushed zero duty cycle must be refused on-device, not
    // handed to a zero-period timer.
    let mut d = deployment(7);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );
    d.sched.run_for(SimDuration::from_secs(2));

    let rogue = BrokerClient::new(&d.net, "rogue-ep", "broker", "rogue");
    rogue.connect(&mut d.sched);
    d.sched.run_for(SimDuration::from_secs(1));
    let device = DeviceId::new("alice-phone");
    let command = ConfigCommand::Create {
        device: device.clone(),
        stream: StreamId::new(5000),
        spec: StreamSpec {
            interval: SimDuration::ZERO,
            ..spec_with(Vec::new())
        },
        epoch: 1,
        token: None,
    };
    rogue.publish(
        &mut d.sched,
        Topic::Config(device.clone()),
        command.to_wire(),
        QoS::AtLeastOnce,
        false,
    );
    d.sched.run_for(SimDuration::from_secs(5));

    assert!(!manager.stream_ids().contains(&StreamId::new(5000)));
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.configs_rejected"),
        1
    );
    assert_eq!(
        d.server
            .telemetry()
            .snapshot()
            .counter("server.config_rejections"),
        1
    );

    // The run continues: a sound stream still installs and samples.
    let stream = manager
        .create_stream(&mut d.sched, spec_with(Vec::new()))
        .expect("sound spec");
    d.sched.run_for(SimDuration::from_secs(60));
    assert_eq!(manager.stream_status(stream), Some(StreamStatus::Active));
}

#[test]
fn zero_interval_is_refused_at_every_entry_point() {
    let mut d = deployment(8);
    let manager = add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );
    d.sched.run_for(SimDuration::from_secs(2));
    let zero = StreamSpec {
        interval: SimDuration::ZERO,
        ..spec_with(Vec::new())
    };
    let device = DeviceId::new("alice-phone");

    assert!(invalid_config(
        manager.create_stream(&mut d.sched, zero.clone())
    ));
    assert!(invalid_config(d.server.create_remote_stream(
        &mut d.sched,
        &device,
        zero.clone()
    )));
    let remote = d
        .server
        .create_remote_stream(&mut d.sched, &device, spec_with(Vec::new()))
        .expect("sound spec");
    assert!(invalid_config(d.server.set_remote_interval(
        &mut d.sched,
        remote,
        SimDuration::ZERO
    )));
    assert!(invalid_config(d.server.create_multicast(
        &mut d.sched,
        MulticastSelector::FriendsOf(UserId::new("alice")),
        zero,
    )));

    // Nothing the device would refuse was pushed.
    d.sched.run_for(SimDuration::from_secs(5));
    assert_eq!(manager.stream_ids(), vec![remote]);
    assert_eq!(
        manager.stream_spec(remote).map(|s| s.interval),
        Some(SimDuration::from_secs(10))
    );
    assert!(d.server.config_rejections().is_empty());
}

#[test]
fn cyclic_multicast_dependency_is_rejected_at_admission() {
    let mut d = deployment(6);
    let alice = UserId::new("alice");
    let bob = UserId::new("bob");
    add_device(
        &mut d,
        "alice",
        "alice-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );
    add_device(
        &mut d,
        "bob",
        "bob-phone",
        sensocial::PrivacyPolicyManager::allow_all(),
    );
    d.server.record_friendship(&alice, &bob);

    // Multicast 1: bob (alice's friend) samples location gated on *alice's*
    // activity — bob's plan depends on alice.
    let template = spec_with(vec![Condition::new(
        ConditionLhs::PhysicalActivity,
        Operator::Equals,
        "walking",
    )
    .about(alice.clone())]);
    d.server
        .create_multicast(
            &mut d.sched,
            MulticastSelector::FriendsOf(alice.clone()),
            template,
        )
        .expect("first multicast is acyclic");

    // Multicast 2 would make alice depend on bob, closing the cycle.
    let template = spec_with(vec![Condition::new(
        ConditionLhs::PhysicalActivity,
        Operator::Equals,
        "walking",
    )
    .about(bob.clone())]);
    let err = d
        .server
        .create_multicast(&mut d.sched, MulticastSelector::FriendsOf(bob), template)
        .expect_err("cycle must be rejected");
    assert_eq!(first_code(&err), DiagnosticCode::DependencyCycle);
}

#[test]
fn server_subscription_plans_are_verified() {
    let d = deployment(7);
    let err = d
        .server
        .register_listener(
            StreamSelector::AllUplinks,
            Filter::new(vec![Condition::new(
                ConditionLhs::HourOfDay,
                Operator::GreaterThan,
                "noon",
            )]),
            |_s, _e| {},
        )
        .expect_err("ill-typed subscription filter must be rejected");
    assert_eq!(first_code(&err), DiagnosticCode::TypeMismatch);
}
