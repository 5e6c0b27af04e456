//! Batched delivery must be a pure scheduling optimization.
//!
//! PR 10 coalesces the broker's same-instant fan-out and the client's
//! uplink flushes into per-tick batches (one scheduler event per
//! subscriber/flush instead of one per message). These tests pin the
//! contract that makes that safe to ship:
//!
//! * batching on vs. off: identical drop-cause counters, identical
//!   delivery order and identical per-stage latency histograms — the
//!   batch flush fires at the *same virtual instant* the individual
//!   deliveries would have, so nothing observable moves;
//! * batching + interning enabled (the defaults): two same-seed runs
//!   produce byte-identical merged telemetry snapshots, partition and
//!   offline-queue requeue included.

use sensocial::server::StreamSelector;
use sensocial::{Filter, Granularity, Modality, StreamSink, StreamSpec};
use sensocial_broker::BrokerConfig;
use sensocial_runtime::{SimDuration, Timestamp};
use sensocial_sim::{World, WorldConfig};
use sensocial_types::{StreamId, UserId};
use std::cell::RefCell;
use std::rc::Rc;

/// One delivery as the server-side subscriber observed it: who, which
/// stream, sample birth time. Order matters — the whole point.
type Delivery = (UserId, StreamId, Timestamp);

/// Runs the shared chaos scenario (two phones, continuous + social-event
/// streams, a mid-run partition exercising the offline-queue requeue)
/// and returns the subscriber's delivery log plus the merged snapshot.
fn run_scenario(batch_delivery: bool) -> (Vec<Delivery>, sensocial::TelemetrySnapshot) {
    let config = WorldConfig {
        broker: BrokerConfig {
            batch_delivery,
            ..BrokerConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut world = World::new(config);
    world.add_device(
        "alice",
        "alice-phone",
        sensocial_types::geo::cities::paris(),
    );
    world.add_device("bob", "bob-phone", sensocial_types::geo::cities::bordeaux());

    world
        .create_stream(
            "alice-phone",
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(5))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    world
        .create_stream(
            "alice-phone",
            StreamSpec::social_event_based(Modality::Bluetooth, Granularity::Raw)
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    world
        .create_stream(
            "bob-phone",
            StreamSpec::continuous(Modality::Location, Granularity::Classified)
                .with_interval(SimDuration::from_secs(10))
                .with_sink(StreamSink::Server),
        )
        .unwrap();

    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = log.clone();
    world
        .server
        .register_listener(
            StreamSelector::AllUplinks,
            Filter::pass_all(),
            move |_s, e| {
                sink.borrow_mut().push((e.user.clone(), e.stream, e.at));
            },
        )
        .unwrap();

    world.run_for(SimDuration::from_secs(30));
    world.post("alice", "batching probe");
    // A 60-second partition: uplinks pile into the broker's offline queue
    // for the server session and are requeued on reconnect — the zero-copy
    // requeue path runs under both configurations.
    world.net.partition(
        &"alice-phone-ep".into(),
        &"broker".into(),
        Timestamp::from_secs(100),
    );
    world.run_for(SimDuration::from_secs(60));
    world.post("bob", "second probe");
    world.run_for(SimDuration::from_secs(150));

    let snap = world.telemetry_snapshot();
    let deliveries = log.borrow().clone();
    (deliveries, snap)
}

#[test]
fn batching_changes_neither_drop_causes_nor_delivery_order() {
    let (batched_log, batched) = run_scenario(true);
    let (inline_log, inline) = run_scenario(false);

    assert!(
        !batched_log.is_empty(),
        "scenario must actually deliver events"
    );
    assert_eq!(
        batched_log, inline_log,
        "delivery order must not depend on batching"
    );

    // Every drop-cause counter agrees: batching may not save (or lose) a
    // single message anywhere in the pipeline. The key set is the union of
    // both runs', so a cause appearing on only one side still fails.
    let drop_keys: std::collections::BTreeSet<&str> = batched
        .counters
        .keys()
        .chain(inline.counters.keys())
        .map(String::as_str)
        .filter(|k| k.contains("drop") || k.contains("abandoned") || k.contains("unrouted"))
        .collect();
    for key in drop_keys {
        assert_eq!(
            batched.counter(key),
            inline.counter(key),
            "drop-cause counter {key} differs between batched and inline delivery"
        );
    }

    // The batch flush fires at the same virtual instant as the inline
    // deliveries it replaces, so every per-stage latency histogram is
    // identical bucket for bucket.
    for stage in sensocial_telemetry::Stage::ALL {
        assert_eq!(
            batched.stage(stage),
            inline.stage(stage),
            "stage {} histogram differs between batched and inline delivery",
            stage.as_str()
        );
    }

    // Batching is observable where it should be — the broker's batch-size
    // histogram — and only there.
    let hist = batched
        .histogram("broker.batch_size")
        .expect("batched run records broker.batch_size");
    assert!(hist.count > 0);
    assert!(inline.histogram("broker.batch_size").is_none());
}

#[test]
fn same_seed_runs_are_byte_identical_with_batching_and_interning() {
    let (_, a) = run_scenario(true);
    let (_, b) = run_scenario(true);
    assert_eq!(
        a.to_wire(),
        b.to_wire(),
        "same-seed merged snapshots must stay byte-identical with \
         batching and interning enabled"
    );
}
