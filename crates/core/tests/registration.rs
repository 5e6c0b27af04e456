//! Tests for the over-the-broker device registration flow.

use sensocial::client::{ClientDeps, ClientManager};
use sensocial::server::{ServerDeps, ServerManager};
use sensocial::{Granularity, Modality, StreamSpec};
use sensocial_broker::{Broker, BrokerClient};
use sensocial_net::{LatencyModel, LinkSpec, Network};
use sensocial_runtime::{Scheduler, SimDuration, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_storage::StorageConfig;
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, UserId};

fn server_rig() -> (Scheduler, Network, ServerManager) {
    let mut sched = Scheduler::new();
    let net = Network::new(31);
    net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(40)));
    let _broker = Broker::new(&net, "broker");
    let server = ServerManager::new(ServerDeps::new(
        StorageConfig::from_env().open(),
        BrokerClient::new(&net, "server-ep", "broker", "server"),
        SimRng::seed_from(3),
    ));
    server.connect(&mut sched);
    (sched, net, server)
}

fn client(sched: &mut Scheduler, net: &Network, user: &str, device: &str) -> ClientManager {
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env, SimRng::seed_from(9));
    let deps = ClientDeps {
        broker: Some(BrokerClient::new(
            net,
            format!("{device}-ep"),
            "broker",
            device,
        )),
        ..ClientDeps::local_only(user, device, sensors, vec![])
    };
    let manager = ClientManager::new(deps);
    manager.connect(sched);
    manager
}

#[test]
fn devices_self_register_on_connect() {
    let (mut sched, net, server) = server_rig();
    assert!(!server.is_registered(&DeviceId::new("alice-phone")));

    let _manager = client(&mut sched, &net, "alice", "alice-phone");
    sched.run_for(SimDuration::from_secs(1));

    assert!(server.is_registered(&DeviceId::new("alice-phone")));
    assert_eq!(
        server.devices_of(&UserId::new("alice")),
        vec![DeviceId::new("alice-phone")]
    );
}

#[test]
fn reannouncement_does_not_duplicate() {
    let (mut sched, net, server) = server_rig();
    let manager = client(&mut sched, &net, "alice", "alice-phone");
    sched.run_for(SimDuration::from_secs(1));
    // A reconnect cycle re-announces; registry stays single.
    let _ = manager; // (connect() guards itself; exercise register_device directly)
    server.register_device(UserId::new("alice"), DeviceId::new("alice-phone"));
    server.register_device(UserId::new("alice"), DeviceId::new("alice-phone"));
    assert_eq!(server.devices_of(&UserId::new("alice")).len(), 1);
}

#[test]
fn self_registered_device_accepts_remote_streams() {
    let (mut sched, net, server) = server_rig();
    let manager = client(&mut sched, &net, "alice", "alice-phone");
    sched.run_for(SimDuration::from_secs(1));

    // No out-of-band register_device call happened; the broker-announced
    // registration alone is enough for remote stream management.
    let stream = server
        .create_remote_stream(
            &mut sched,
            &DeviceId::new("alice-phone"),
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(30)),
        )
        .expect("registered via broker");
    sched.run_for(SimDuration::from_mins(2));
    assert_eq!(manager.stream_ids(), vec![stream]);
    assert!(
        server
            .telemetry()
            .snapshot()
            .counter("server.uplink_events")
            >= 3
    );
}

#[test]
fn multiple_devices_per_user() {
    let (mut sched, net, server) = server_rig();
    let _phone = client(&mut sched, &net, "alice", "alice-phone");
    let _tablet = client(&mut sched, &net, "alice", "alice-tablet");
    sched.run_for(SimDuration::from_secs(1));
    let mut devices = server.devices_of(&UserId::new("alice"));
    devices.sort();
    assert_eq!(
        devices,
        vec![DeviceId::new("alice-phone"), DeviceId::new("alice-tablet")]
    );
}
