//! The §3.2 collocation scenario: follow a moving person, churning
//! geo-fenced streams on whoever is currently nearby — plus topic-based
//! server subscriptions.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial::server::{MulticastSelector, StreamSelector};
use sensocial::{Filter, Granularity, Modality, StreamSink, StreamSpec};
use sensocial_runtime::SimDuration;
use sensocial_sensors::MobilityModel;
use sensocial_sim::{World, WorldConfig};
use sensocial_types::geo::cities;
use sensocial_types::UserId;

#[test]
fn collocation_multicast_follows_a_moving_person() {
    let mut world = World::new(WorldConfig::default());
    // The tracked person starts in Paris; two bystanders in Paris, two in
    // Bordeaux.
    world.add_device("vip", "vip-phone", cities::paris());
    world.add_device("p1", "p1-phone", cities::paris());
    world.add_device("p2", "p2-phone", cities::paris());
    world.add_device("b1", "b1-phone", cities::bordeaux());
    world.add_device("b2", "b2-phone", cities::bordeaux());
    for (user, at) in [
        ("vip", cities::paris()),
        ("p1", cities::paris()),
        ("p2", cities::paris()),
        ("b1", cities::bordeaux()),
        ("b2", cities::bordeaux()),
    ] {
        world.server.seed_location(&UserId::new(user), at);
    }
    // The VIP's own location stream keeps the server's fence anchored.
    world
        .create_stream(
            "vip-phone",
            StreamSpec::continuous(Modality::Location, Granularity::Raw)
                .with_interval(SimDuration::from_secs(30))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    world.run_for(SimDuration::from_secs(1));

    let template = StreamSpec::continuous(Modality::Location, Granularity::Raw)
        .with_interval(SimDuration::from_secs(30));
    let multicast = world
        .server
        .create_multicast(
            &mut world.sched,
            MulticastSelector::NearUser {
                user: UserId::new("vip"),
                radius_m: 30_000.0,
            },
            template,
        )
        .unwrap();
    assert_eq!(
        world.server.multicast_members(multicast),
        vec![UserId::new("p1"), UserId::new("p2")],
        "Paris bystanders are collocated; the VIP is not their own member"
    );

    // Follow the person with periodic refresh, then put them on a train
    // to Bordeaux.
    let refresh =
        world
            .server
            .auto_refresh_multicast(&mut world.sched, multicast, SimDuration::from_mins(2));
    world.with_device("vip-phone", |sched, device| {
        device.start_mobility(
            sched,
            MobilityModel::Route {
                waypoints: vec![cities::bordeaux()],
                speed_mps: 1_000.0, // ~8 min journey
            },
        );
    });
    world.run_for(SimDuration::from_mins(20));
    refresh.stop();

    let members = world.server.multicast_members(multicast);
    assert_eq!(
        members,
        vec![UserId::new("b1"), UserId::new("b2")],
        "arrival in Bordeaux swapped the member set: {members:?}"
    );
}

#[test]
fn topic_based_subscription_selects_by_modality() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    for modality in [Modality::Location, Modality::Microphone, Modality::Wifi] {
        world
            .create_stream(
                "alice-phone",
                StreamSpec::continuous(modality, Granularity::Raw)
                    .with_interval(SimDuration::from_secs(30))
                    .with_sink(StreamSink::Server),
            )
            .unwrap();
    }
    let seen = Rc::new(RefCell::new(Vec::new()));
    {
        let sink = seen.clone();
        world
            .server
            .register_listener(
                StreamSelector::Modality(Modality::Microphone),
                Filter::pass_all(),
                move |_s, e| sink.borrow_mut().push(e.data.modality()),
            )
            .unwrap();
    }
    // A second of slack so the t=180 s cycle's uplink clears the network.
    world.run_for(SimDuration::from_mins(3) + SimDuration::from_secs(1));
    let seen = seen.borrow();
    assert_eq!(seen.len(), 6, "only the microphone stream's 6 cycles");
    assert!(seen.iter().all(|m| *m == Modality::Microphone));
}
