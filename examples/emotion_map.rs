//! The paper's introduction scenario: "a social science research
//! application that captures emotions through the sentiment analysis of
//! OSN posts, senses the physical context as the relevant posts are made,
//! and maps the data to the social network".
//!
//! A small population posts sentiment-bearing content while living their
//! physical lives. Social-event-based streams couple each post with the
//! context at that moment; the server-side researcher code classifies the
//! text (the paper's §9 future-work classifiers, implemented here) and
//! aggregates emotion by place, activity, and across OSN links.
//!
//! Run with `cargo run -p sensocial-examples --bin emotion_map`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use sensocial::server::StreamSelector;
use sensocial::{Filter, Granularity, Modality, StreamSink, StreamSpec};
use sensocial_classify::{SentimentClassifier, TextSentiment};
use sensocial_examples::section;
use sensocial_osn::UserActivityModel;
use sensocial_runtime::SimDuration;
use sensocial_sensors::ActivityModel;
use sensocial_sim::{World, WorldConfig};
use sensocial_types::geo::cities;

fn main() {
    let mut world = World::new(WorldConfig::default());

    section("Population of six across two cities, with OSN links");
    let users = [
        ("amelie", cities::paris()),
        ("bruno", cities::paris()),
        ("claire", cities::paris()),
        ("david", cities::bordeaux()),
        ("emma", cities::bordeaux()),
        ("felix", cities::bordeaux()),
    ];
    for (user, home) in users {
        world.add_device(user, format!("{user}-phone"), home);
    }
    for (a, b) in [
        ("amelie", "bruno"),
        ("bruno", "claire"),
        ("david", "emma"),
        ("emma", "felix"),
    ] {
        world.server.record_friendship(&a.into(), &b.into());
    }

    section("Emotion-sensing streams: classified location, coupled to posts");
    for (user, _) in users {
        world
            .create_stream(
                &format!("{user}-phone"),
                StreamSpec::social_event_based(Modality::Location, Granularity::Classified)
                    .with_sink(StreamSink::Server),
            )
            .expect("stream install");
    }

    // The researcher's server-side code: classify each coupled post's
    // sentiment and bucket by place.
    type EmotionTable = Rc<RefCell<BTreeMap<(String, String), u32>>>;
    let emotions: EmotionTable = Rc::new(RefCell::new(BTreeMap::new()));
    let table = emotions.clone();
    let sentiment = SentimentClassifier::new();
    world
        .server
        .register_listener(
            StreamSelector::AllUplinks,
            Filter::pass_all(),
            move |_s, event| {
                let Some(action) = &event.osn_action else {
                    return;
                };
                let place = match &event.data {
                    sensocial::ContextData::Classified(c) => c.value_string(),
                    _ => "unknown".to_owned(),
                };
                let mood = match sentiment.classify(&action.content) {
                    TextSentiment::Positive => "positive",
                    TextSentiment::Negative => "negative",
                    TextSentiment::Neutral => "neutral",
                };
                *table
                    .borrow_mut()
                    .entry((place, mood.to_owned()))
                    .or_insert(0) += 1;
            },
        )
        .expect("pass-all subscription is always sound");

    section("Life happens for twelve simulated hours");
    let platform = world.platform.clone();
    for (user, _) in users {
        world.with_device(&format!("{user}-phone"), |sched, device| {
            device.start_activity_model(sched, ActivityModel::default());
            device.start_osn_activity(
                sched,
                &platform,
                UserActivityModel {
                    actions_per_hour: 3.0,
                    post_fraction: 0.8,
                    ..UserActivityModel::default()
                },
            );
        });
    }
    world.run_for(SimDuration::from_mins(12 * 60));

    section("Emotion by city");
    let table = emotions.borrow();
    let mut cities_seen: Vec<&str> = table.keys().map(|(p, _)| p.as_str()).collect();
    cities_seen.sort_unstable();
    cities_seen.dedup();
    for city in cities_seen {
        let count = |mood: &str| {
            table
                .get(&(city.to_owned(), mood.to_owned()))
                .copied()
                .unwrap_or(0)
        };
        println!(
            "  {city:<10} positive={:<4} negative={:<4} neutral={:<4}",
            count("positive"),
            count("negative"),
            count("neutral"),
        );
    }
    let total: u32 = table.values().sum();
    println!("  ({total} emotion-context pairs captured)");
    assert!(total > 0, "posts must have been captured");
}
