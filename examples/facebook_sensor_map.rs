//! Facebook Sensor Map (paper §6.1) over a simulated user population.
//!
//! Five users move between Paris and Bordeaux, go about their physical
//! lives (Markov activity chains) and post/comment/like on the simulated
//! OSN (Poisson generators). The Sensor Map app couples every OSN action
//! with the physical context sensed at that moment and plots it.
//!
//! Run with `cargo run -p sensocial-examples --bin facebook_sensor_map`.

use sensocial_apps::sensor_map::with_middleware::{SensorMapMobile, SensorMapServer};
use sensocial_examples::section;
use sensocial_osn::UserActivityModel;
use sensocial_runtime::SimDuration;
use sensocial_sensors::ActivityModel;
use sensocial_sim::{World, WorldConfig};
use sensocial_types::geo::cities;

fn main() {
    let mut world = World::new(WorldConfig::default());

    section("Creating five users across Paris and Bordeaux");
    let homes = [
        ("amelie", cities::paris()),
        ("bruno", cities::paris()),
        ("claire", cities::bordeaux()),
        ("david", cities::bordeaux()),
        ("emma", cities::bordeaux()),
    ];
    for (user, home) in homes {
        world.add_device(user, format!("{user}-phone"), home);
    }

    section("Installing Facebook Sensor Map (mobile on every phone, one server app)");
    let server_app = SensorMapServer::install(&world.server).expect("pass-all plan is sound");
    for (user, _) in homes {
        let manager = world
            .device(&format!("{user}-phone"))
            .expect("device just added")
            .manager
            .clone();
        SensorMapMobile::install(&mut world.sched, &manager)
            .expect("stream creation with allow-all privacy");
    }

    section("Starting behaviour models (activity chains + OSN posting)");
    let platform = world.platform.clone();
    for (user, _) in homes {
        world.with_device(&format!("{user}-phone"), |sched, device| {
            device.start_activity_model(sched, ActivityModel::default());
            device.start_osn_activity(
                sched,
                &platform,
                UserActivityModel {
                    actions_per_hour: 4.0,
                    ..UserActivityModel::default()
                },
            );
        });
    }

    section("Simulating six hours of life");
    world.run_for(SimDuration::from_mins(6 * 60));

    section("The map");
    let markers = server_app.map.markers();
    println!("  {} OSN actions coupled with context:", markers.len());
    for marker in markers.iter().take(12) {
        println!(
            "  [{}] {:<8} {:<7} {:>8} | {}",
            marker.at,
            marker.user.as_str(),
            marker.action_kind,
            marker.activity.as_deref().unwrap_or("-"),
            marker.action_content,
        );
    }
    if markers.len() > 12 {
        println!("  … and {} more", markers.len() - 12);
    }

    section("Server-side querying (the Mongo-style store)");
    let walking = sensocial_storage::Query::eq("activity", "walking");
    println!(
        "  records captured while walking: {} of {}",
        server_app.records.count(&walking),
        server_app.records.len()
    );
    let snap = world.server.telemetry().snapshot();
    println!(
        "  OSN actions received by server: {}, triggers fired: {}",
        snap.counter("server.osn_actions"),
        snap.counter("server.triggers_sent")
    );
}
