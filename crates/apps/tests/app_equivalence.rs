//! The prototype applications run end-to-end — in both variants — and
//! produce the same observable behaviour, which is what makes Table 5's
//! LOC comparison meaningful.

use sensocial_apps::conweb::web::{ConWebBrowser, WebServer};
use sensocial_apps::conweb::with_middleware::{ConWebMobile, ConWebServer};
use sensocial_apps::conweb::without_middleware::{
    mobile::RawConWebPrivacy, RawConWebIngest, RawConWebMobile,
};
use sensocial_apps::geo_notify::GeoNotifyApp;
use sensocial_apps::sensor_map::with_middleware::{SensorMapMobile, SensorMapServer};
use sensocial_apps::sensor_map::without_middleware::{
    mobile::RawPrivacyChecklist, RawSensorMapMobile, RawSensorMapServer,
};
use sensocial_broker::BrokerClient;
use sensocial_energy::EnergyProfile;
use sensocial_runtime::{SimDuration, SimRng};
use sensocial_sim::{World, WorldConfig};
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, PhysicalActivity, UserId};

#[test]
fn sensor_map_with_middleware_end_to_end() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world
        .device("alice-phone")
        .unwrap()
        .env
        .set_activity(PhysicalActivity::Walking);

    let (mobile, server_app) = {
        let manager = world.device("alice-phone").unwrap().manager.clone();
        let mobile = SensorMapMobile::install(&mut world.sched, &manager).unwrap();
        let server_app = SensorMapServer::install(&world.server).unwrap();
        (mobile, server_app)
    };

    world.run_for(SimDuration::from_secs(5));
    world.post("alice", "walking to the match!");
    world.run_for(SimDuration::from_mins(3));

    // Three streams → three coupled markers locally (activity, audio,
    // location) and three on the server.
    assert_eq!(mobile.map.len(), 3, "local map: {:?}", mobile.map.markers());
    assert_eq!(server_app.map.len(), 3);
    let markers = server_app.map.markers();
    assert!(markers
        .iter()
        .any(|m| m.activity.as_deref() == Some("walking")));
    assert!(markers.iter().any(|m| m.position.is_some()));
    assert!(markers
        .iter()
        .all(|m| m.action_content == "walking to the match!"));
    assert_eq!(server_app.records.len(), 3);
}

#[test]
fn sensor_map_without_middleware_end_to_end() {
    // Same scenario, no middleware: manual wiring of every component.
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world
        .device("alice-phone")
        .unwrap()
        .env
        .set_activity(PhysicalActivity::Walking);

    let server_broker =
        BrokerClient::new(&world.net, "rawmap-server-ep", "broker", "rawmap-server");
    let server_app = RawSensorMapServer::install(
        &mut world.sched,
        server_broker,
        world.server.db(),
        &world.push_plugin, // takes over the plug-in receiver
        SimRng::seed_from(77),
    );
    server_app.register_device(UserId::new("alice"), DeviceId::new("alice-phone"));

    let (sensors, battery) = {
        let device = world.device("alice-phone").unwrap();
        (device.sensors.clone(), device.battery.clone())
    };
    let mobile_broker = BrokerClient::new(
        &world.net,
        "rawmap-alice-ep",
        "broker",
        "rawmap-alice-phone",
    );
    let mobile = RawSensorMapMobile::install(
        &mut world.sched,
        UserId::new("alice"),
        DeviceId::new("alice-phone"),
        sensors,
        mobile_broker,
        battery,
        EnergyProfile::default(),
        RawPrivacyChecklist::default(),
    );

    world.run_for(SimDuration::from_secs(5));
    world.post("alice", "walking to the match!");
    world.run_for(SimDuration::from_mins(3));

    assert_eq!(server_app.commands_sent(), 1);
    assert_eq!(mobile.reports_sent(), 1);
    assert_eq!(server_app.reports_received(), 1);
    // One combined marker carrying all three context dimensions.
    let markers = server_app.map.markers();
    assert_eq!(markers.len(), 1);
    assert_eq!(markers[0].activity.as_deref(), Some("walking"));
    assert!(markers[0].position.is_some());
    assert_eq!(markers[0].action_content, "walking to the match!");
    assert_eq!(server_app.records_for(&UserId::new("alice")), 1);
    assert_eq!(mobile.map.len(), 1);
}

#[test]
fn conweb_with_middleware_adapts_pages() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());

    let manager = world.device("alice-phone").unwrap().manager.clone();
    ConWebMobile::install(&mut world.sched, &manager).unwrap();
    let server_app = ConWebServer::install(&world.server).unwrap();

    let web = WebServer::start(&world.net, "web", server_app.context.clone());
    web.add_page(
        "news",
        "A long and detailed article about everything that happened today",
    );
    let browser = ConWebBrowser::open(
        &mut world.sched,
        &world.net,
        "alice-browser",
        "web",
        UserId::new("alice"),
        "news",
        SimDuration::from_secs(30),
    );

    // Still and quiet: normal contrast.
    world.run_for(SimDuration::from_mins(2));
    assert_eq!(browser.last_page().unwrap()["contrast"], "normal");

    // Start running somewhere loud: page re-renders high-contrast + terse.
    {
        let device = world.device("alice-phone").unwrap();
        device.env.set_activity(PhysicalActivity::Running);
        device.env.set_ambient_audio(0.6);
    }
    world.run_for(SimDuration::from_mins(3));
    let page = browser.last_page().unwrap();
    assert_eq!(page["contrast"], "high");
    assert!(page["body"].as_str().unwrap().ends_with('…'));

    // A topical post feeds the suggestion engine.
    world.post_about("alice", "music", "I love this new album!");
    world.run_for(SimDuration::from_mins(3));
    let page = browser.last_page().unwrap();
    assert!(page["suggestion"].as_str().unwrap().contains("music"));
    browser.close();
}

#[test]
fn conweb_without_middleware_adapts_pages() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());

    let context = world.server.db().collection("rawconweb_context");
    let ingest_broker = BrokerClient::new(
        &world.net,
        "rawconweb-ingest-ep",
        "broker",
        "rawconweb-ingest",
    );
    let _ingest = RawConWebIngest::install(
        &mut world.sched,
        ingest_broker,
        context.clone(),
        &world.push_plugin,
    );

    let (sensors, battery) = {
        let device = world.device("alice-phone").unwrap();
        (device.sensors.clone(), device.battery.clone())
    };
    let mobile_broker = BrokerClient::new(
        &world.net,
        "rawconweb-alice-ep",
        "broker",
        "rawconweb-alice",
    );
    let mobile = RawConWebMobile::install(
        &mut world.sched,
        UserId::new("alice"),
        DeviceId::new("alice-phone"),
        sensors,
        mobile_broker,
        battery,
        EnergyProfile::default(),
        RawConWebPrivacy::default(),
        vec![cities::paris_place(), cities::bordeaux_place()],
        SimDuration::from_secs(30),
    );
    assert!(mobile.is_running());

    let web = WebServer::start(&world.net, "rawweb", context);
    web.add_page(
        "news",
        "A long and detailed article about everything that happened today",
    );
    let browser = ConWebBrowser::open(
        &mut world.sched,
        &world.net,
        "alice-raw-browser",
        "rawweb",
        UserId::new("alice"),
        "news",
        SimDuration::from_secs(30),
    );

    world.run_for(SimDuration::from_mins(2));
    assert_eq!(browser.last_page().unwrap()["contrast"], "normal");

    {
        let device = world.device("alice-phone").unwrap();
        device.env.set_activity(PhysicalActivity::Running);
    }
    world.run_for(SimDuration::from_mins(3));
    assert_eq!(browser.last_page().unwrap()["contrast"], "high");

    world.post_about("alice", "music", "I love this new album!");
    world.run_for(SimDuration::from_mins(3));
    let page = browser.last_page().unwrap();
    assert!(page["suggestion"].as_str().unwrap().contains("music"));

    // Closing the browser pauses sampling (the paper's lifecycle).
    browser.close();
    mobile.pause();
    let sent = mobile.updates_sent();
    world.run_for(SimDuration::from_mins(5));
    assert_eq!(mobile.updates_sent(), sent);
}

#[test]
fn geo_notify_reproduces_figure2() {
    let mut world = World::new(WorldConfig::default());
    // Users A and B live in Paris; C, D and E in Bordeaux.
    world.add_device("a", "a-phone", cities::paris());
    world.add_device("b", "b-phone", cities::paris());
    world.add_device("c", "c-phone", cities::bordeaux());
    world.add_device("d", "d-phone", cities::bordeaux());
    world.add_device("e", "e-phone", cities::bordeaux());
    // A has OSN links with C and D.
    world
        .server
        .record_friendship(&UserId::new("a"), &UserId::new("c"));
    world
        .server
        .record_friendship(&UserId::new("a"), &UserId::new("d"));

    let app = GeoNotifyApp::install(
        &mut world.sched,
        &world.server,
        UserId::new("a"),
        "Paris",
        SimDuration::from_secs(60),
    )
    .unwrap();

    // Nobody travels for a while: no notifications.
    world.run_for(SimDuration::from_mins(10));
    assert!(app.notifications().is_empty());

    // C travels from Bordeaux to Paris.
    world
        .device("c-phone")
        .unwrap()
        .env
        .set_position(cities::paris());
    world.run_for(SimDuration::from_mins(10));

    let notifications = app.notifications();
    assert_eq!(notifications.len(), 1, "{notifications:?}");
    assert_eq!(notifications[0].friend, UserId::new("c"));
    assert_eq!(notifications[0].place, "Paris");
    assert_eq!(notifications[0].notified, UserId::new("a"));

    // E also goes to Paris, but E is not A's friend: still one notification.
    world
        .device("e-phone")
        .unwrap()
        .env
        .set_position(cities::paris());
    world.run_for(SimDuration::from_mins(10));
    let notifications = app.notifications();
    let friends_seen: Vec<&str> = notifications.iter().map(|n| n.friend.as_str()).collect();
    assert!(!friends_seen.contains(&"e"), "{friends_seen:?}");
}
