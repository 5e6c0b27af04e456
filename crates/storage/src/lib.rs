//! The storage layer of the SenSocial middleware.
//!
//! SenSocial's server keeps user registrations, friendships and locations
//! in MongoDB and persists every OSN-filtered sensor stream (paper §4–§5).
//! The [`StorageEngine`] holds both planes of that role:
//!
//! * the **document plane** — one [`Database`] of named [`Collection`]s of
//!   JSON [`Document`]s, queried with a Mongo-style [`Query`] (`$eq`-family
//!   comparisons, `$exists`, `$and`, and `$near`/`$within` on a
//!   `{lat, lon}` field). A collection keeps no indexes: every query is
//!   one walk over the stored bodies in id order, checking the predicate
//!   on each body where it is stored, so a query copies only the
//!   documents it returns. It holds the server's OSN actions and the
//!   applications' collections;
//! * the **sample plane** — the append-only sensor log behind a
//!   crate-private backend seam. The engine owns everything
//!   backend-independent: global sequencing, batch ingest, partition
//!   planning with predicate pushdown, and the `storage.*` telemetry
//!   scope. Two backends ship:
//!   * [`BackendKind::Columnar`], the default — samples as append-only
//!     column chunks partitioned by (user, virtual-time window), scanned
//!     column-first;
//!   * [`BackendKind::Document`] — samples as rows of a `samples`
//!     collection (the historical layout), still selectable with
//!     [`StorageConfig::document`] or `SENSOCIAL_STORAGE_BACKEND=document`.
//!
//! Because sequencing, pruning and telemetry live in the engine, a
//! same-seed simulation produces identical scan results and byte-identical
//! telemetry snapshots under either backend — CI runs the tier-1 suite
//! against both.
//!
//! Construction goes through the factory, [`StorageConfig::open`]; the
//! document database has no public constructor.
//!
//! # Example
//!
//! ```
//! use sensocial_runtime::Timestamp;
//! use sensocial_storage::{SampleQuery, StorageConfig};
//! use sensocial_types::{ContextData, GpsFix, RawSample};
//! use sensocial_types::GeoPoint;
//!
//! let storage = StorageConfig::columnar().open();
//! let fix = ContextData::Raw(RawSample::Location(GpsFix {
//!     position: GeoPoint::new(48.8566, 2.3522),
//!     accuracy_m: 5.0,
//!     speed_mps: 1.0,
//! }));
//! storage.append_context(
//!     "alice".into(),
//!     "phone-1".into(),
//!     sensocial_types::StreamId::new(1),
//!     Timestamp::from_secs(3),
//!     &fix,
//!     Timestamp::from_secs(3),
//! );
//! storage.flush(Timestamp::from_secs(10));
//!
//! let rows = storage.scan(&SampleQuery::all().for_user("alice"));
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].user.as_str(), "alice");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod collection;
mod columnar;
mod database;
mod document;
mod engine;
mod factory;
mod query;
mod sample;

pub use backend::{BackendKind, StorageFootprint};
pub use collection::Collection;
pub use database::Database;
pub use document::{Document, DocumentId};
pub use engine::{FlushSummary, StorageEngine};
pub use factory::{StorageConfig, BACKEND_ENV};
pub use query::{CmpOp, Query};
pub use sample::{PartitionKey, SampleQuery, SampleRecord};

#[cfg(test)]
mod tests {
    use sensocial_runtime::{SimRng, Timestamp};
    use sensocial_types::{
        AccelSample, AudioFrame, BluetoothScan, ClassifiedContext, ContextData, GeoFence, GeoPoint,
        GpsFix, Modality, PhysicalActivity, RawSample, StreamId, WifiScan,
    };

    use super::*;

    /// A deterministic mixed-modality workload across three users.
    fn workload(seed: u64, n: usize) -> Vec<(String, String, u64, u64, ContextData)> {
        let mut rng = SimRng::seed_from(seed);
        let users = ["alice", "bob", "carol"];
        (0..n)
            .map(|i| {
                let user = *rng.choose(&users).unwrap();
                let device = format!("{user}-phone");
                let at_ms = rng.uniform_u64(0, 600_000);
                let data = match rng.uniform_u64(0, 6) {
                    0 => ContextData::Raw(RawSample::Location(GpsFix {
                        position: GeoPoint::new(
                            48.8 + rng.uniform(-0.5, 0.5),
                            2.35 + rng.uniform(-0.5, 0.5),
                        ),
                        accuracy_m: 10.0,
                        speed_mps: rng.uniform(0.0, 3.0),
                    })),
                    1 => ContextData::Raw(RawSample::Accelerometer(vec![
                        AccelSample::new(
                            0.1, 0.2, 9.8
                        );
                        3
                    ])),
                    2 => ContextData::Raw(RawSample::Microphone(AudioFrame {
                        rms: rng.uniform(0.0, 1.0),
                        peak: 1.0,
                        duration_ms: 1000,
                    })),
                    3 => ContextData::Raw(RawSample::Wifi(WifiScan {
                        access_points: vec![("ap".into(), -40)],
                    })),
                    4 => ContextData::Raw(RawSample::Bluetooth(BluetoothScan {
                        nearby_devices: vec!["bt-1".into(), "bt-2".into()],
                    })),
                    _ => ContextData::Classified(ClassifiedContext::Activity(
                        PhysicalActivity::Walking,
                    )),
                };
                (user.to_owned(), device, i as u64, at_ms, data)
            })
            .collect()
    }

    fn load(
        config: StorageConfig,
        workload: &[(String, String, u64, u64, ContextData)],
    ) -> StorageEngine {
        let storage = config.open();
        for (user, device, stream, at_ms, data) in workload {
            storage.append_context(
                user.as_str().into(),
                device.as_str().into(),
                StreamId::new(*stream % 7),
                Timestamp::from_millis(*at_ms),
                data,
                Timestamp::from_millis(*at_ms),
            );
        }
        storage.flush(Timestamp::from_secs(600));
        storage
    }

    fn probe_queries() -> Vec<SampleQuery> {
        vec![
            SampleQuery::all(),
            SampleQuery::all().for_user("alice"),
            SampleQuery::all().for_user("nobody"),
            SampleQuery::all().for_device("bob-phone"),
            SampleQuery::all().with_modality(Modality::Location),
            SampleQuery::all()
                .for_user("carol")
                .with_modality(Modality::Microphone),
            SampleQuery::all().between(Timestamp::from_secs(100), Timestamp::from_secs(300)),
            SampleQuery::all()
                .for_user("alice")
                .between(Timestamp::from_secs(0), Timestamp::from_secs(60)),
            SampleQuery::all().within(GeoFence::new(GeoPoint::new(48.8, 2.35), 20_000.0)),
            SampleQuery::all().within(GeoFence::new(GeoPoint::new(0.9101, 20.0), 10_000.0)),
            SampleQuery::all().for_stream(StreamId::new(3)),
        ]
    }

    #[test]
    fn backends_agree_on_every_probe_query() {
        let mut work = workload(42, 300);
        // Just inside the northern edge of the 10 km fence around
        // (0.9101, 20.0) that `probe_queries` asks for.
        let edge = GpsFix {
            position: GeoPoint::new(1.00002, 20.0),
            accuracy_m: 10.0,
            speed_mps: 0.0,
        };
        work.push((
            "alice".to_owned(),
            "alice-phone".to_owned(),
            300,
            30_000,
            ContextData::Raw(RawSample::Location(edge)),
        ));
        let document = load(StorageConfig::document(), &work);
        let columnar = load(StorageConfig::columnar(), &work);
        for query in probe_queries() {
            let doc_rows = document.scan(&query);
            let col_rows = columnar.scan(&query);
            assert_eq!(doc_rows, col_rows, "backends disagree on {query:?}");
            // Both agree with the reference predicate over the full log.
            let reference: Vec<SampleRecord> = document
                .scan(&SampleQuery::all())
                .into_iter()
                .filter(|r| query.matches(r))
                .collect();
            assert_eq!(doc_rows, reference, "pushdown disagrees on {query:?}");
        }
    }

    #[test]
    fn telemetry_snapshots_are_byte_identical_across_backends() {
        let work = workload(7, 200);
        let document = load(StorageConfig::document(), &work);
        let columnar = load(StorageConfig::columnar(), &work);
        for query in probe_queries() {
            document.scan(&query);
            columnar.scan(&query);
        }
        let doc_wire = document.telemetry().snapshot().to_wire();
        let col_wire = columnar.telemetry().snapshot().to_wire();
        assert_eq!(doc_wire, col_wire);
    }

    #[test]
    fn batching_amortizes_inserts() {
        let work = workload(9, 500);
        let storage = load(StorageConfig::columnar(), &work);
        let snap = storage.telemetry().snapshot();
        assert_eq!(snap.counter("storage.ingest.appended"), 500);
        assert_eq!(snap.counter("storage.ingest.flushed"), 500);
        // One explicit flush: the whole workload landed as a single batch.
        assert_eq!(snap.counter("storage.ingest.batches"), 1);
        assert_eq!(storage.footprint().rows, 500);
    }

    #[test]
    fn pruning_skips_unmatching_partitions() {
        let work = workload(11, 300);
        let storage = load(StorageConfig::columnar(), &work);
        let total = storage
            .telemetry()
            .snapshot()
            .counter("storage.partition.created");
        assert!(total > 3, "workload should span several partitions");
        storage.scan(
            &SampleQuery::all()
                .for_user("alice")
                .between(Timestamp::from_secs(0), Timestamp::from_secs(60)),
        );
        let snap = storage.telemetry().snapshot();
        let scanned = snap.counter("storage.scan.partitions_scanned");
        let pruned = snap.counter("storage.scan.partitions_pruned");
        assert_eq!(scanned + pruned, total);
        assert!(pruned > 0, "narrow query should prune partitions");
        assert!(scanned < total);
    }

    #[test]
    fn scans_observe_unflushed_appends() {
        let storage = StorageConfig::columnar().open();
        let fix = ContextData::Raw(RawSample::Location(GpsFix {
            position: GeoPoint::new(48.85, 2.35),
            accuracy_m: 5.0,
            speed_mps: 0.0,
        }));
        let due = storage.append_context(
            "alice".into(),
            "phone".into(),
            StreamId::new(1),
            Timestamp::from_secs(1),
            &fix,
            Timestamp::from_secs(1),
        );
        assert!(due.is_some(), "first append schedules a flush");
        let rows = storage.scan(&SampleQuery::all());
        assert_eq!(rows.len(), 1);
        // Second append while a flush is pending does not reschedule.
        let again = storage.append_context(
            "alice".into(),
            "phone".into(),
            StreamId::new(1),
            Timestamp::from_secs(2),
            &fix,
            Timestamp::from_secs(2),
        );
        assert!(again.is_none());
        let summary = storage.flush(Timestamp::from_secs(11));
        assert_eq!(summary.samples, 2);
        assert_eq!(storage.scan(&SampleQuery::all()).len(), 2);
        // After the flush the next append schedules again.
        let due = storage.append_context(
            "alice".into(),
            "phone".into(),
            StreamId::new(1),
            Timestamp::from_secs(12),
            &fix,
            Timestamp::from_secs(12),
        );
        assert!(due.is_some());
    }
}
