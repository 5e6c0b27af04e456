//! Remote stream management: the server creates, reconfigures, filters
//! and destroys streams on a phone it has never touched locally.
//!
//! This is the capability the paper's related-work section singles out:
//! "SenSocial remote stream management is not limited to sensing parameter
//! reconfiguration, but also supports dynamic sensor stream creation and
//! destruction."
//!
//! Run with `cargo run -p sensocial-examples --bin remote_management`.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial::server::StreamSelector;
use sensocial::{Condition, ConditionLhs, Filter, Granularity, Modality, Operator, StreamSpec};
use sensocial_examples::section;
use sensocial_runtime::SimDuration;
use sensocial_sim::{World, WorldConfig};
use sensocial_types::{geo::cities, PhysicalActivity};

fn main() {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world
        .device("alice-phone")
        .unwrap()
        .env
        .set_activity(PhysicalActivity::Walking);

    let received = Rc::new(RefCell::new(0u32));
    {
        let sink = received.clone();
        world
            .server
            .register_listener(
                StreamSelector::AllUplinks,
                Filter::pass_all(),
                move |s, e| {
                    *sink.borrow_mut() += 1;
                    println!("  [{}] server received {:?}", s.now(), e.data.modality());
                },
            )
            .expect("pass-all subscription is always sound");
    }

    section("The server creates a location stream on alice's phone (config push over MQTT)");
    let stream = world
        .server
        .create_remote_stream(
            &mut world.sched,
            &"alice-phone".into(),
            StreamSpec::continuous(Modality::Location, Granularity::Classified)
                .with_interval(SimDuration::from_secs(60)),
        )
        .expect("device is registered");
    world.run_for(SimDuration::from_mins(4));

    section("Tightening the duty cycle remotely: 60 s → 20 s");
    world
        .server
        .set_remote_interval(&mut world.sched, stream, SimDuration::from_secs(20))
        .unwrap();
    world.run_for(SimDuration::from_mins(2));

    section("Distributing a filter remotely: only while walking");
    world
        .server
        .set_remote_filter(
            &mut world.sched,
            stream,
            Filter::new(vec![Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::Equals,
                "walking",
            )]),
        )
        .unwrap();
    world.run_for(SimDuration::from_mins(2));
    println!("  (alice stops walking — the device-side filter silences the stream)");
    world
        .device("alice-phone")
        .unwrap()
        .env
        .set_activity(PhysicalActivity::Still);
    world.run_for(SimDuration::from_mins(2));

    section("Destroying the stream remotely");
    world
        .server
        .destroy_remote_stream(&mut world.sched, stream)
        .unwrap();
    world.run_for(SimDuration::from_mins(2));

    section("Summary");
    println!(
        "  uplinked events: {}, streams left on the phone: {}",
        received.borrow_mut(),
        world
            .device("alice-phone")
            .unwrap()
            .manager
            .stream_ids()
            .len()
    );
}
