//! Failure-injection scenarios: the middleware under loss, churn and
//! outage.

use sensocial::server::StreamSelector;
use sensocial::{Filter, Granularity, Modality, StreamSink, StreamSpec};
use sensocial_net::{LatencyModel, LinkSpec};
use sensocial_runtime::SimDuration;
use sensocial_sim::{World, WorldConfig};
use sensocial_types::geo::cities;
use sensocial_types::UserId;
use std::cell::RefCell;
use std::rc::Rc;

fn lossy_link(p: f64) -> LinkSpec {
    LinkSpec::with_latency(LatencyModel::constant_ms(40)).lossy(p)
}

#[test]
fn triggers_survive_heavy_downlink_loss() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    let stream = world
        .create_stream(
            "alice-phone",
            StreamSpec::social_event_based(Modality::Bluetooth, Granularity::Raw)
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    let delivered = Rc::new(RefCell::new(0u32));
    {
        let sink = delivered.clone();
        let manager = world.device("alice-phone").unwrap().manager.clone();
        manager.register_listener(stream, move |_s, _e| {
            *sink.borrow_mut() += 1;
        });
    }

    // 50 % loss on the broker→device leg; QoS-1 retries must recover.
    // With the default 5 retries a trigger still dies with p = 0.5^6; give
    // the broker enough retries to make recovery effectively certain.
    world.broker.set_config(sensocial_broker::BrokerConfig {
        max_retries: 12,
        ..sensocial_broker::BrokerConfig::default()
    });
    world
        .net
        .set_link("broker".into(), "alice-phone-ep".into(), lossy_link(0.5));

    for i in 0..10 {
        world.run_for(SimDuration::from_secs(120));
        world.post("alice", &format!("post {i}"));
    }
    world.run_for(SimDuration::from_mins(5));
    assert_eq!(*delivered.borrow(), 10, "all triggers recovered");
}

#[test]
fn uplink_loss_degrades_but_does_not_break() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world
        .create_stream(
            "alice-phone",
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(30))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    // Bulk sensor uplink is QoS-0: loss loses data, the paper's stated
    // accuracy/energy trade-off for non-critical streams.
    world
        .net
        .set_link("alice-phone-ep".into(), "broker".into(), lossy_link(0.4));
    world.run_for(SimDuration::from_mins(60));
    let received = world
        .server
        .telemetry()
        .snapshot()
        .counter("server.uplink_events");
    assert!(received > 40, "most cycles arrive: {received}");
    assert!(received < 120, "losses visible: {received}");
}

#[test]
fn plugin_revocation_is_an_osn_outage() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world
        .create_stream(
            "alice-phone",
            StreamSpec::social_event_based(Modality::Wifi, Granularity::Raw)
                .with_sink(StreamSink::Server),
        )
        .unwrap();

    world.run_for(SimDuration::from_secs(2));
    world.post("alice", "while authorized");
    world.run_for(SimDuration::from_mins(2));
    assert_eq!(
        world
            .server
            .telemetry()
            .snapshot()
            .counter("server.osn_actions"),
        1
    );

    // The user revokes the Facebook plug-in; actions stop flowing.
    world.push_plugin.revoke(&UserId::new("alice"));
    world.post("alice", "while revoked");
    world.run_for(SimDuration::from_mins(2));
    assert_eq!(
        world
            .server
            .telemetry()
            .snapshot()
            .counter("server.osn_actions"),
        1,
        "no actions during outage"
    );

    // Re-authorization restores the pipeline.
    world.push_plugin.authorize(&UserId::new("alice"));
    world.post("alice", "after re-auth");
    world.run_for(SimDuration::from_mins(2));
    assert_eq!(
        world
            .server
            .telemetry()
            .snapshot()
            .counter("server.osn_actions"),
        2
    );
}

#[test]
fn device_churn_mid_multicast() {
    use sensocial::server::MulticastSelector;
    let mut world = World::new(WorldConfig::default());
    for user in ["a", "b", "c"] {
        world.add_device(user, format!("{user}-phone"), cities::paris());
        world
            .server
            .seed_location(&UserId::new(user), cities::paris());
    }
    world.run_for(SimDuration::from_secs(1));

    let template = StreamSpec::continuous(Modality::Location, Granularity::Raw)
        .with_interval(SimDuration::from_secs(30));
    let multicast = world
        .server
        .create_multicast(
            &mut world.sched,
            MulticastSelector::WithinFence(sensocial_types::GeoFence::new(
                cities::paris(),
                20_000.0,
            )),
            template,
        )
        .unwrap();
    assert_eq!(world.server.multicast_members(multicast).len(), 3);

    let events = Rc::new(RefCell::new(Vec::new()));
    {
        let sink = events.clone();
        world
            .server
            .register_multicast_listener(multicast, move |_s, e| {
                sink.borrow_mut().push(e.user.as_str().to_owned());
            });
    }
    world.run_for(SimDuration::from_mins(2));
    let before = events.borrow().len();
    assert!(before >= 6, "all three devices stream: {before}");

    // b leaves town; refresh churns the member set.
    world
        .device("b-phone")
        .unwrap()
        .env
        .set_position(cities::bordeaux());
    world
        .server
        .seed_location(&UserId::new("b"), cities::bordeaux());
    world.server.refresh_multicast(&mut world.sched, multicast);
    assert_eq!(world.server.multicast_members(multicast).len(), 2);

    world.run_for(SimDuration::from_secs(2));
    events.borrow_mut().clear();
    world.run_for(SimDuration::from_mins(2));
    let after: std::collections::BTreeSet<String> = events.borrow().iter().cloned().collect();
    assert!(!after.contains("b"), "b's stream was destroyed: {after:?}");
    assert!(after.contains("a") && after.contains("c"));
}

#[test]
fn malformed_broker_payloads_are_ignored() {
    use sensocial_broker::{BrokerClient, QoS};
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world
        .create_stream(
            "alice-phone",
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(30))
                .with_sink(StreamSink::Server),
        )
        .unwrap();

    // An attacker (or buggy peer) spams garbage on the device's control
    // topics and the server's uplink topic.
    let chaos = BrokerClient::new(&world.net, "chaos-ep", "broker", "chaos");
    chaos.connect(&mut world.sched);
    for i in 0..20 {
        chaos.publish(
            &mut world.sched,
            "sensocial/trigger/alice-phone",
            format!("garbage {i}"),
            QoS::AtMostOnce,
            false,
        );
        chaos.publish(
            &mut world.sched,
            "sensocial/config/alice-phone",
            "{\"command\":\"rm -rf\"}",
            QoS::AtMostOnce,
            false,
        );
        chaos.publish(
            &mut world.sched,
            "sensocial/uplink/alice-phone",
            "not json",
            QoS::AtMostOnce,
            false,
        );
    }

    let seen = Rc::new(RefCell::new(0u32));
    {
        let sink = seen.clone();
        world
            .server
            .register_listener(
                StreamSelector::AllUplinks,
                Filter::pass_all(),
                move |_s, _e| {
                    *sink.borrow_mut() += 1;
                },
            )
            .unwrap();
    }
    // A little slack past 5 minutes so the 10th cycle's uplink (which
    // pays two 40 ms network legs) lands inside the window.
    world.run_for(SimDuration::from_mins(5) + SimDuration::from_secs(1));
    // The legitimate stream still works; garbage neither crashed nor
    // produced phantom events (10 cycles in 5 min at 30 s).
    assert_eq!(*seen.borrow(), 10);
    assert_eq!(
        world
            .device("alice-phone")
            .unwrap()
            .manager
            .stream_ids()
            .len(),
        1,
        "no phantom streams from malformed configs"
    );
}
