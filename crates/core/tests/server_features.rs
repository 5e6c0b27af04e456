//! Tests for the server-side extensions: filtered aggregators and OSN
//! text mining (the paper's §9 future work, implemented).

use std::cell::RefCell;
use std::rc::Rc;

use sensocial::client::{ClientDeps, ClientManager};
use sensocial::server::{ServerDeps, ServerManager};
use sensocial::{
    Condition, ConditionLhs, Filter, Granularity, Modality, Operator, StreamSink, StreamSpec,
};
use sensocial_broker::{Broker, BrokerClient};
use sensocial_energy::{BatteryMeter, CpuCosts, CpuMeter, EnergyProfile, MemoryProfiler};
use sensocial_net::{LatencyModel, LinkSpec, Network};
use sensocial_osn::{OsnPlatform, PushPlugin};
use sensocial_runtime::{Scheduler, SimDuration, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_storage::{Query, StorageConfig};
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, PhysicalActivity, UserId};

struct Rig {
    sched: Scheduler,
    net: Network,
    server: ServerManager,
    platform: OsnPlatform,
    plugin: PushPlugin,
}

fn rig() -> Rig {
    let mut sched = Scheduler::new();
    let net = Network::new(17);
    net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(40)));
    let _broker = Broker::new(&net, "broker");
    let server = ServerManager::new(ServerDeps::new(
        StorageConfig::from_env().open(),
        BrokerClient::new(&net, "server-ep", "broker", "server"),
        SimRng::seed_from(3),
    ));
    server.connect(&mut sched);
    let platform = OsnPlatform::new(SimRng::seed_from(4));
    let plugin = PushPlugin::new(&platform);
    plugin.set_delay(2.0, 0.1); // fast OSN for focused tests
    server.connect_push_plugin(&plugin);
    Rig {
        sched,
        net,
        server,
        platform,
        plugin,
    }
}

fn add_device(rig: &mut Rig, user: &str, device: &str) -> (ClientManager, DeviceEnvironment) {
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(user.len() as u64 + 11));
    let manager = ClientManager::new(ClientDeps {
        user: UserId::new(user),
        device: DeviceId::new(device),
        sensors,
        classifiers: sensocial_classify::ClassifierRegistry::with_defaults(vec![
            cities::paris_place(),
        ]),
        privacy: sensocial::PrivacyPolicyManager::allow_all(),
        broker: Some(BrokerClient::new(
            &rig.net,
            format!("{device}-ep"),
            "broker",
            device,
        )),
        battery: BatteryMeter::new(),
        cpu: CpuMeter::new(),
        memory: MemoryProfiler::new(),
        energy_profile: EnergyProfile::default(),
        cpu_costs: CpuCosts::default(),
    });
    manager.connect(&mut rig.sched);
    rig.server
        .register_device(UserId::new(user), DeviceId::new(device));
    rig.platform.register_user(UserId::new(user));
    rig.plugin.authorize(&UserId::new(user));
    (manager, env)
}

#[test]
fn aggregator_filter_gates_the_joined_stream() {
    let mut rig = rig();
    let (alice, alice_env) = add_device(&mut rig, "alice", "alice-phone");
    let (bob, bob_env) = add_device(&mut rig, "bob", "bob-phone");
    alice_env.set_activity(PhysicalActivity::Walking);
    bob_env.set_activity(PhysicalActivity::Still);

    let mk = |mgr: &ClientManager, sched: &mut Scheduler| {
        mgr.create_stream(
            sched,
            StreamSpec::continuous(Modality::Accelerometer, Granularity::Classified)
                .with_interval(SimDuration::from_secs(20))
                .with_sink(StreamSink::Server),
        )
        .unwrap()
    };
    let s1 = mk(&alice, &mut rig.sched);
    let s2 = mk(&bob, &mut rig.sched);

    let agg = rig.server.create_aggregator([s1, s2]);
    rig.server
        .set_aggregator_filter(
            agg,
            Filter::new(vec![Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::Equals,
                "walking",
            )]),
        )
        .unwrap();
    let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let sink = seen.clone();
        rig.server.register_aggregator_listener(agg, move |_s, e| {
            sink.borrow_mut().push(e.user.as_str().to_owned());
        });
    }

    rig.sched.run_for(SimDuration::from_mins(3));
    let seen = seen.borrow();
    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|u| u == "alice"),
        "only the walking user's events pass the aggregator filter: {seen:?}"
    );
}

#[test]
fn text_mining_extracts_topics_for_client_filters() {
    let mut rig = rig();
    rig.server.enable_text_mining();
    let (alice, _) = add_device(&mut rig, "alice", "alice-phone");

    // A stream gated on posts about football — but the user's platform
    // does not tag topics; the *server* must mine them from the text.
    let stream = alice
        .create_stream(
            &mut rig.sched,
            StreamSpec::social_event_based(Modality::Wifi, Granularity::Raw)
                .with_filter(Filter::new(vec![Condition::new(
                    ConditionLhs::OsnTopic,
                    Operator::Equals,
                    "football",
                )]))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let sink = seen.clone();
        alice.register_listener(stream, move |_s, e| {
            sink.borrow_mut()
                .push(e.osn_action.as_ref().unwrap().content.clone());
        });
    }

    // Untagged posts: one about football, one about food.
    rig.platform.post(
        &mut rig.sched,
        &UserId::new("alice"),
        "what a goal in the match!",
    );
    rig.sched.run_for(SimDuration::from_mins(2));
    rig.platform.post(
        &mut rig.sched,
        &UserId::new("alice"),
        "dinner at the bistro was lovely",
    );
    rig.sched.run_for(SimDuration::from_mins(2));

    let seen = seen.borrow();
    assert_eq!(seen.len(), 1, "{seen:?}");
    assert!(seen[0].contains("goal"));
}

#[test]
fn text_mining_stores_sentiment_for_researchers() {
    let mut rig = rig();
    rig.server.enable_text_mining();
    let (_alice, _) = add_device(&mut rig, "alice", "alice-phone");

    rig.platform.post(
        &mut rig.sched,
        &UserId::new("alice"),
        "I love this wonderful day",
    );
    rig.platform.post(
        &mut rig.sched,
        &UserId::new("alice"),
        "terrible, awful commute",
    );
    rig.sched.run_for(SimDuration::from_mins(2));

    let actions = rig.server.db().collection("actions");
    assert_eq!(actions.count(&Query::eq("sentiment", "positive")), 1);
    assert_eq!(actions.count(&Query::eq("sentiment", "negative")), 1);
}

#[test]
fn text_mining_off_by_default() {
    let mut rig = rig();
    let (_alice, _) = add_device(&mut rig, "alice", "alice-phone");
    rig.platform.post(
        &mut rig.sched,
        &UserId::new("alice"),
        "I love this wonderful day",
    );
    rig.sched.run_for(SimDuration::from_mins(2));
    let actions = rig.server.db().collection("actions");
    assert_eq!(actions.count(&Query::eq("sentiment", "positive")), 0);
    assert_eq!(actions.len(), 1, "action stored, just unannotated");
}
