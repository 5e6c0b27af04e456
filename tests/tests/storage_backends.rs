//! Cross-backend equivalence: the same seeded world must produce the same
//! query results and a byte-identical merged telemetry snapshot whether
//! the server persists samples in the document store or the columnar
//! engine — plus the batch-ingest amortization guarantee.

use sensocial::server::StreamSelector;
use sensocial::{Filter, Granularity, Modality, StreamSink, StreamSpec};
use sensocial_runtime::{SimDuration, Timestamp};
use sensocial_sim::{World, WorldConfig};
use sensocial_storage::{SampleQuery, SampleRecord, StorageConfig};
use sensocial_types::geo::cities;
use sensocial_types::GeoFence;

/// A seeded deployment: two phones, three server-bound streams, ten
/// virtual minutes of life.
fn run_world(seed: u64, storage: StorageConfig) -> World {
    let mut world = World::new(WorldConfig {
        seed,
        storage,
        ..WorldConfig::default()
    });
    world.add_device("alice", "alice-phone", cities::paris());
    world.add_device("bob", "bob-phone", cities::bordeaux());
    world
        .create_stream(
            "alice-phone",
            StreamSpec::continuous(Modality::Location, Granularity::Raw)
                .with_interval(SimDuration::from_secs(15))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    world
        .create_stream(
            "alice-phone",
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(20))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    world
        .create_stream(
            "bob-phone",
            StreamSpec::continuous(Modality::Location, Granularity::Classified)
                .with_interval(SimDuration::from_secs(30))
                .with_sink(StreamSink::Server),
        )
        .unwrap();
    world
        .server
        .register_listener(StreamSelector::AllUplinks, Filter::pass_all(), |_s, _e| {})
        .unwrap();
    world.run_for(SimDuration::from_mins(10));
    world
}

/// The probe queries both backends must answer identically.
fn probes() -> Vec<SampleQuery> {
    vec![
        SampleQuery::all(),
        SampleQuery::all().for_user("alice"),
        SampleQuery::all().for_user("bob"),
        SampleQuery::all().for_user("nobody"),
        SampleQuery::all().with_modality(Modality::Location),
        SampleQuery::all()
            .for_user("alice")
            .with_modality(Modality::Wifi),
        SampleQuery::all().with_granularity(Granularity::Classified),
        SampleQuery::all().between(Timestamp::from_secs(120), Timestamp::from_secs(300)),
        SampleQuery::all()
            .for_user("alice")
            .between(Timestamp::from_secs(0), Timestamp::from_secs(60)),
        SampleQuery::all().within(GeoFence::new(cities::paris(), 50_000.0)),
    ]
}

/// Runs the identical scan sequence and returns (per-probe results, wire
/// snapshot taken *after* the scans, so scan counters are included too).
fn scan_and_snapshot(world: &World) -> (Vec<Vec<SampleRecord>>, String) {
    let results: Vec<Vec<SampleRecord>> = probes()
        .iter()
        .map(|q| world.server.storage().scan(q))
        .collect();
    (results, world.telemetry_snapshot().to_wire())
}

#[test]
fn backends_give_identical_results_and_snapshots() {
    let doc = run_world(42, StorageConfig::document());
    let col = run_world(42, StorageConfig::columnar());
    let (doc_results, doc_wire) = scan_and_snapshot(&doc);
    let (col_results, col_wire) = scan_and_snapshot(&col);

    for (i, (d, c)) in doc_results.iter().zip(&col_results).enumerate() {
        assert_eq!(d, c, "probe query {i} disagreed across backends");
    }
    // Something was actually persisted (the comparison is not vacuous).
    assert!(
        !doc_results[0].is_empty(),
        "full scan returned nothing: no samples reached storage"
    );
    assert_eq!(
        doc_wire, col_wire,
        "merged telemetry snapshots must be byte-identical across backends"
    );
}

#[test]
fn batch_ingest_amortizes_per_sample_writes() {
    // A long flush interval so each batch collects a full minute of
    // samples (~9 across the three streams).
    let mut storage = StorageConfig::columnar();
    storage.flush_interval = SimDuration::from_secs(60);
    let world = run_world(7, storage);
    let snap = world.telemetry_snapshot();
    let appended = snap.counter("storage.ingest.appended");
    let flushed = snap.counter("storage.ingest.flushed");
    let batches = snap
        .histogram("storage.ingest.batch_size")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(
        appended > 30,
        "too few samples to judge batching: {appended}"
    );
    assert!(batches > 0, "no batches were flushed");
    assert!(
        batches * 3 <= flushed,
        "batching is not amortizing: {batches} batches for {flushed} flushed samples"
    );
    // Nothing is lost: whatever was not flushed is still pending in the
    // buffer, and scans see it (read-your-writes).
    let rows = world.server.storage().scan(&SampleQuery::all());
    assert_eq!(rows.len() as u64, appended);
}

#[test]
fn partition_pruning_only_scans_matching_windows() {
    let world = run_world(3, StorageConfig::columnar());
    let storage = world.server.storage();
    // Flush everything pending so the partition universe is complete.
    let before = world.telemetry_snapshot();
    let created = before.counter("storage.partition.created");
    assert!(created > 1, "expected multiple partitions, got {created}");

    // A one-window query: candidates must be a strict subset.
    storage.scan(
        &SampleQuery::all()
            .for_user("alice")
            .between(Timestamp::from_secs(0), Timestamp::from_secs(30)),
    );
    let after = world.telemetry_snapshot();
    let scanned = after.counter("storage.scan.partitions_scanned")
        - before.counter("storage.scan.partitions_scanned");
    let pruned = after.counter("storage.scan.partitions_pruned")
        - before.counter("storage.scan.partitions_pruned");
    assert_eq!(scanned + pruned, created, "candidates + pruned = universe");
    assert!(pruned > 0, "narrow query should prune partitions");
    assert!(
        scanned < created,
        "narrow query must not scan every partition"
    );
}
