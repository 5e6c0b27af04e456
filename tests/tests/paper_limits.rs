//! The paper's §7 limitations, reproduced as executable documentation.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial::client::{ClientDeps, ClientManager};
use sensocial::{Granularity, Modality, StreamSink, StreamSpec};
use sensocial_broker::BrokerClient;
use sensocial_runtime::{SimDuration, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_sim::{World, WorldConfig};
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, UserId};

/// §7: "The main limitation of the current implementation of SenSocial is
/// its inability to run as a single instance on a device, while supporting
/// multiple overlaying concurrent applications. … SenSocial runs in the
/// user space of the OS, and is imported as a library to each individual
/// application that uses it."
///
/// Reproduced: two applications on one phone each import their own
/// `ClientManager` over the same sensor hardware, and the hardware is
/// sampled once *per middleware instance* — duplicated work a shared
/// service would avoid.
#[test]
fn per_app_instances_duplicate_sensing() {
    let mut world = World::new(WorldConfig {
        charge_idle: false,
        ..WorldConfig::default()
    });
    world.add_device("alice", "alice-phone", cities::paris());

    // App 1 uses the device's built-in manager.
    let spec = StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
        .with_interval(SimDuration::from_secs(30));
    world.create_stream("alice-phone", spec.clone()).unwrap();

    // App 2 imports its own middleware instance over the same sensors
    // (same `SensorManager`, as both apps drive the same hardware).
    let (sensors, env) = {
        let device = world.device("alice-phone").unwrap();
        (device.sensors.clone(), device.env.clone())
    };
    let _ = env;
    let app2 = ClientManager::new(ClientDeps {
        broker: Some(BrokerClient::new(
            &world.net,
            "alice-phone-app2-ep",
            "broker",
            "alice-phone-app2",
        )),
        ..ClientDeps::local_only("alice", "alice-phone-app2", sensors.clone(), vec![])
    });
    app2.connect(&mut world.sched);
    app2.create_stream(&mut world.sched, spec).unwrap();

    let before = sensors.samples_taken();
    world.run_for(SimDuration::from_mins(5));
    let taken = sensors.samples_taken() - before;
    // 5 minutes at 30 s → 10 cycles, but TWO instances each sample: 20.
    assert_eq!(
        taken, 20,
        "each app's middleware instance samples independently"
    );
}

/// §7: "the time needed to complete successive sensor sampling cycles on
/// the mobile limits the granularity at which the OSN action–context pairs
/// can be captured" — actions between cycles share the previous context.
/// (The core suite tests the mechanism; this exercises it at scenario
/// scale with three rapid actions.)
#[test]
fn rapid_action_bursts_share_context_at_scenario_scale() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    let stream = world
        .create_stream(
            "alice-phone",
            StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Classified)
                .with_sink(StreamSink::Server),
        )
        .unwrap();

    let events = Rc::new(RefCell::new(Vec::new()));
    {
        let sink = events.clone();
        let manager = world.device("alice-phone").unwrap().manager.clone();
        manager.register_listener(stream, move |_s, e| {
            sink.borrow_mut().push((e.at, e.data.clone()));
        });
    }

    for i in 0..3 {
        world.run_for(SimDuration::from_secs(3));
        world.post("alice", &format!("burst {i}"));
    }
    world.run_for(SimDuration::from_mins(4));

    let events = events.borrow();
    assert_eq!(events.len(), 3, "every action delivered");
    let sampled_times: std::collections::BTreeSet<u64> =
        events.iter().map(|(at, _)| at.as_millis()).collect();
    assert_eq!(
        sampled_times.len(),
        1,
        "one sampling cycle served all three actions: {sampled_times:?}"
    );
}

/// The flip side of the single-instance limitation: one middleware
/// instance serves many *listeners* of one application without duplicated
/// sensing — that sharing is what the paper's design does provide.
#[test]
fn one_instance_shares_sensing_across_listeners() {
    let mut sched = sensocial_runtime::Scheduler::new();
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env, SimRng::seed_from(8));
    let manager = ClientManager::new(ClientDeps::local_only(
        UserId::new("u"),
        DeviceId::new("u-phone"),
        sensors.clone(),
        vec![],
    ));
    let stream = manager
        .create_stream(
            &mut sched,
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(30)),
        )
        .unwrap();
    let counts: Vec<Rc<RefCell<u32>>> = (0..4).map(|_| Rc::new(RefCell::new(0))).collect();
    for count in &counts {
        let count = count.clone();
        manager.register_listener(stream, move |_s, _e| *count.borrow_mut() += 1);
    }
    sched.run_for(SimDuration::from_mins(5));
    for count in &counts {
        assert_eq!(*count.borrow(), 10);
    }
    assert_eq!(
        sensors.samples_taken(),
        10,
        "one sampling stream feeds all four"
    );
}
