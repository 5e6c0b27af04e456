//! The typed sensor-sample record, partition keys and the sample query.
//!
//! SenSocial's server persists every OSN-filtered sensor stream (paper §4,
//! "the server stores the sensor data arriving from mobile devices"). The
//! storage engine normalises each uplinked [`ContextData`] into a flat
//! [`SampleRecord`]: the columns every backend understands (who, where,
//! when, which modality) plus the canonical JSON payload for full fidelity.
//! Queries against the sample log are expressed as a [`SampleQuery`] — a
//! conjunction of per-column predicates — whose [`SampleQuery::matches`] is
//! the single arbiter of membership for *every* backend, so the document
//! and columnar paths cannot disagree.

use sensocial_runtime::json::{self, Map, Value};
use sensocial_runtime::Timestamp;
use sensocial_types::{
    ClassifiedContext, ContextData, DeviceId, GeoFence, GeoPoint, Granularity, Modality, RawSample,
    StreamId, UserId,
};

/// One persisted sensor sample, flattened into typed columns.
///
/// `seq` is a global ingest sequence number assigned by the storage engine;
/// it defines the canonical result order for scans, independent of which
/// backend served them.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Global ingest sequence number (canonical scan order).
    pub seq: u64,
    /// Owning user.
    pub user: UserId,
    /// Originating device.
    pub device: DeviceId,
    /// Stream the sample arrived on.
    pub stream: StreamId,
    /// Source modality.
    pub modality: Modality,
    /// Raw or classified.
    pub granularity: Granularity,
    /// Virtual sampling time.
    pub at: Timestamp,
    /// Position column: present for raw GPS fixes.
    pub position: Option<GeoPoint>,
    /// Scalar summary column, per modality (see [`SampleRecord::from_context`]).
    pub numeric: Option<f64>,
    /// Label column: the classified value string, when classified.
    pub label: Option<String>,
    /// Canonical JSON encoding of the full [`ContextData`] payload.
    pub payload: String,
}

impl SampleRecord {
    /// Flattens a context datum into a record.
    ///
    /// Column derivation is deterministic per modality:
    ///
    /// * `position` — the fix position for raw GPS samples, else absent;
    /// * `numeric` — speed (m/s) for GPS, mean vector magnitude for
    ///   accelerometer bursts, RMS amplitude for microphone frames, the
    ///   visible-entity count for WiFi/Bluetooth scans and density
    ///   classifications, absent for other classified values;
    /// * `label` — [`ClassifiedContext::value_string`] for classified data,
    ///   absent for raw.
    pub fn from_context(
        seq: u64,
        user: UserId,
        device: DeviceId,
        stream: StreamId,
        at: Timestamp,
        data: &ContextData,
    ) -> SampleRecord {
        let position = match data {
            ContextData::Raw(RawSample::Location(fix)) => Some(fix.position),
            _ => None,
        };
        let numeric = match data {
            ContextData::Raw(RawSample::Location(fix)) => Some(fix.speed_mps),
            ContextData::Raw(RawSample::Accelerometer(burst)) => {
                if burst.is_empty() {
                    None
                } else {
                    let sum: f64 = burst.iter().map(|s| s.magnitude()).sum();
                    Some(sum / burst.len() as f64)
                }
            }
            ContextData::Raw(RawSample::Microphone(frame)) => Some(frame.rms),
            ContextData::Raw(RawSample::Wifi(scan)) => Some(scan.access_points.len() as f64),
            ContextData::Raw(RawSample::Bluetooth(scan)) => Some(scan.nearby_devices.len() as f64),
            ContextData::Classified(
                ClassifiedContext::WifiDensity(n) | ClassifiedContext::BluetoothDensity(n),
            ) => Some(*n as f64),
            ContextData::Classified(_) => None,
        };
        let label = match data {
            ContextData::Raw(_) => None,
            ContextData::Classified(c) => Some(c.value_string()),
        };
        let payload = json::to_string(data);
        SampleRecord {
            seq,
            user,
            device,
            stream,
            modality: data.modality(),
            granularity: data.granularity(),
            at,
            position,
            numeric,
            label,
            payload,
        }
    }

    /// Decodes the canonical payload back into a [`ContextData`].
    pub fn context(&self) -> Option<ContextData> {
        json::from_str(&self.payload).ok()
    }

    /// The record as a store document: the object its JSON form decodes
    /// to, built member by member.
    pub(crate) fn to_document(&self) -> Value {
        let mut doc = Map::new();
        let mut put = |key: &str, value: Value| {
            doc.insert(key.to_owned(), value);
        };
        put("seq", self.seq.into());
        put("user", self.user.as_str().into());
        put("device", self.device.as_str().into());
        put("stream", self.stream.value().into());
        put("modality", self.modality.name().into());
        put("granularity", self.granularity.name().into());
        put("at", self.at.as_millis().into());
        if let Some(p) = self.position {
            let mut position = Map::new();
            position.insert("lat".to_owned(), p.lat.into());
            position.insert("lon".to_owned(), p.lon.into());
            put("position", Value::Object(position));
        }
        if let Some(numeric) = self.numeric {
            put("numeric", numeric.into());
        }
        if let Some(label) = &self.label {
            put("label", label.into());
        }
        put("payload", self.payload.as_str().into());
        Value::Object(doc)
    }

    /// Reads a record back from its stored document body; `None` when the
    /// document does not hold one. Ids are interned, so only the label
    /// and the payload are copied out of it.
    pub(crate) fn from_document(doc: &Value) -> Option<SampleRecord> {
        let doc = doc.as_object()?;
        let field = |key: &str| doc.get(key).filter(|v| !v.is_null());
        let seq = field("seq")?.as_u64()?;
        let user = UserId::new(field("user")?.as_str()?);
        let device = DeviceId::new(field("device")?.as_str()?);
        let stream = StreamId::new(field("stream")?.as_u64()?);
        let modality = field("modality")?.as_str()?.parse().ok()?;
        let granularity = field("granularity")?.as_str()?.parse().ok()?;
        let at = Timestamp::from_millis(field("at")?.as_u64()?);
        let position = match field("position") {
            Some(p) => Some(GeoPoint {
                lat: p.get("lat")?.as_f64()?,
                lon: p.get("lon")?.as_f64()?,
            }),
            None => None,
        };
        let numeric = match field("numeric") {
            Some(n) => Some(n.as_f64()?),
            None => None,
        };
        let label = match field("label") {
            Some(l) => Some(l.as_str()?.to_owned()),
            None => None,
        };
        let payload = field("payload")?.as_str()?.to_owned();
        Some(SampleRecord {
            seq,
            user,
            device,
            stream,
            modality,
            granularity,
            at,
            position,
            numeric,
            label,
            payload,
        })
    }
}

/// Partition window width in virtual milliseconds: one minute.
pub(crate) const WINDOW_MS: u64 = 60_000;

/// A partition identity: one user crossed with one virtual-time window.
///
/// Window `w` covers timestamps in `[w * WINDOW_MS, (w + 1) * WINDOW_MS)`,
/// one minute of virtual time.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionKey {
    /// Owning user.
    pub user: UserId,
    /// Window index (`at_ms / WINDOW_MS`).
    pub window: u64,
}

impl PartitionKey {
    /// The partition a sample at `at` for `user` lands in.
    pub fn for_sample(user: UserId, at: Timestamp) -> PartitionKey {
        PartitionKey {
            user,
            window: at.as_millis() / WINDOW_MS,
        }
    }

    /// Whether this partition can hold rows matching `query`. This is the
    /// pruning predicate: a `false` means no row in the partition can
    /// match, so the backend never touches it.
    pub fn may_match(&self, query: &SampleQuery) -> bool {
        if let Some(user) = &query.user {
            if user != &self.user {
                return false;
            }
        }
        let start = self.window.saturating_mul(WINDOW_MS);
        let end = start.saturating_add(WINDOW_MS);
        if let Some(from) = query.from {
            if end <= from.as_millis() {
                return false;
            }
        }
        if let Some(until) = query.until {
            if start > until.as_millis() {
                return false;
            }
        }
        true
    }
}

/// A conjunction of per-column predicates over the sample log.
///
/// Every constraint left `None` matches everything, so
/// [`SampleQuery::all`] is the full scan. Time bounds are inclusive on
/// both ends, matching the store's comparison-operator conventions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleQuery {
    /// Restrict to one user (enables partition pruning by user).
    pub user: Option<UserId>,
    /// Restrict to one device.
    pub device: Option<DeviceId>,
    /// Restrict to one stream.
    pub stream: Option<StreamId>,
    /// Restrict to one modality.
    pub modality: Option<Modality>,
    /// Restrict to raw or classified data.
    pub granularity: Option<Granularity>,
    /// Earliest admissible timestamp (inclusive).
    pub from: Option<Timestamp>,
    /// Latest admissible timestamp (inclusive).
    pub until: Option<Timestamp>,
    /// Restrict to samples whose position column lies inside the fence.
    /// Samples without a position never match a fenced query.
    pub fence: Option<GeoFence>,
}

impl SampleQuery {
    /// The unconstrained query: matches every sample.
    pub fn all() -> SampleQuery {
        SampleQuery::default()
    }

    /// Restricts to `user`.
    pub fn for_user(mut self, user: impl Into<UserId>) -> SampleQuery {
        self.user = Some(user.into());
        self
    }

    /// Restricts to `device`.
    pub fn for_device(mut self, device: impl Into<DeviceId>) -> SampleQuery {
        self.device = Some(device.into());
        self
    }

    /// Restricts to `stream`.
    pub fn for_stream(mut self, stream: StreamId) -> SampleQuery {
        self.stream = Some(stream);
        self
    }

    /// Restricts to `modality`.
    pub fn with_modality(mut self, modality: Modality) -> SampleQuery {
        self.modality = Some(modality);
        self
    }

    /// Restricts to `granularity`.
    pub fn with_granularity(mut self, granularity: Granularity) -> SampleQuery {
        self.granularity = Some(granularity);
        self
    }

    /// Restricts to `[from, until]` (both inclusive).
    pub fn between(mut self, from: Timestamp, until: Timestamp) -> SampleQuery {
        self.from = Some(from);
        self.until = Some(until);
        self
    }

    /// Restricts to positions inside (or on the boundary of) `fence`.
    pub fn within(mut self, fence: GeoFence) -> SampleQuery {
        self.fence = Some(fence);
        self
    }

    /// Whether `record` satisfies every constraint. The single membership
    /// arbiter shared by all backends.
    pub fn matches(&self, record: &SampleRecord) -> bool {
        if let Some(user) = &self.user {
            if user != &record.user {
                return false;
            }
        }
        if let Some(device) = &self.device {
            if device != &record.device {
                return false;
            }
        }
        if let Some(stream) = self.stream {
            if stream != record.stream {
                return false;
            }
        }
        if let Some(modality) = self.modality {
            if modality != record.modality {
                return false;
            }
        }
        if let Some(granularity) = self.granularity {
            if granularity != record.granularity {
                return false;
            }
        }
        if let Some(from) = self.from {
            if record.at < from {
                return false;
            }
        }
        if let Some(until) = self.until {
            if record.at > until {
                return false;
            }
        }
        if let Some(fence) = &self.fence {
            match record.position {
                Some(p) => {
                    if !fence.contains(p) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::{AudioFrame, GpsFix, WifiScan};

    fn gps(lat: f64, lon: f64, speed: f64) -> ContextData {
        ContextData::Raw(RawSample::Location(GpsFix {
            position: GeoPoint::new(lat, lon),
            accuracy_m: 10.0,
            speed_mps: speed,
        }))
    }

    fn record(seq: u64, user: &str, at_s: u64, data: &ContextData) -> SampleRecord {
        SampleRecord::from_context(
            seq,
            UserId::new(user),
            DeviceId::new("phone"),
            StreamId::new(1),
            Timestamp::from_secs(at_s),
            data,
        )
    }

    #[test]
    fn columns_are_derived_per_modality() {
        let loc = record(0, "alice", 1, &gps(48.85, 2.35, 1.5));
        assert_eq!(loc.numeric, Some(1.5));
        assert!(loc.position.is_some());
        assert_eq!(loc.label, None);

        let audio = record(
            1,
            "alice",
            2,
            &ContextData::Raw(RawSample::Microphone(AudioFrame {
                rms: 0.25,
                peak: 0.5,
                duration_ms: 1000,
            })),
        );
        assert_eq!(audio.numeric, Some(0.25));
        assert!(audio.position.is_none());

        let wifi = record(
            2,
            "alice",
            3,
            &ContextData::Raw(RawSample::Wifi(WifiScan {
                access_points: vec![("ap-1".into(), -40), ("ap-2".into(), -60)],
            })),
        );
        assert_eq!(wifi.numeric, Some(2.0));

        let place = record(
            3,
            "alice",
            4,
            &ContextData::Classified(ClassifiedContext::Place(Some("Paris".into()))),
        );
        assert_eq!(place.label.as_deref(), Some("Paris"));
        assert_eq!(place.numeric, None);
        assert_eq!(place.granularity, Granularity::Classified);
    }

    #[test]
    fn payload_round_trips() {
        let data = gps(48.85, 2.35, 0.0);
        let rec = record(0, "alice", 1, &data);
        assert_eq!(rec.context(), Some(data));
        assert_eq!(
            rec.payload,
            r#"{"granularity":"raw","modality":"location","sample":{"position":{"lat":48.85,"lon":2.35},"accuracy_m":10.0,"speed_mps":0.0}}"#
        );
    }

    #[test]
    fn documents_keep_their_stored_form_and_read_back() {
        let classified = ContextData::Classified(sensocial_types::ClassifiedContext::Place(Some(
            "Paris".into(),
        )));
        // Stored documents keep their format: absent columns are left
        // out and members come in key order.
        for (rec, stored) in [
            (
                record(0, "alice", 1, &gps(48.85, 2.35, 1.5)),
                r#"{"at":1000,"device":"phone","granularity":"raw","modality":"location","numeric":1.5,"payload":"{\"granularity\":\"raw\",\"modality\":\"location\",\"sample\":{\"position\":{\"lat\":48.85,\"lon\":2.35},\"accuracy_m\":10.0,\"speed_mps\":1.5}}","position":{"lat":48.85,"lon":2.35},"seq":0,"stream":1,"user":"alice"}"#,
            ),
            (
                record(7, "bob", 9, &classified),
                r#"{"at":9000,"device":"phone","granularity":"classified","label":"Paris","modality":"location","payload":"{\"granularity\":\"classified\",\"kind\":\"place\",\"value\":\"Paris\"}","seq":7,"stream":1,"user":"bob"}"#,
            ),
        ] {
            let doc = rec.to_document();
            assert_eq!(json::to_string(&doc), stored);
            assert_eq!(SampleRecord::from_document(&doc), Some(rec));
        }
        assert_eq!(SampleRecord::from_document(&Value::from("x")), None);
    }

    #[test]
    fn partition_windows_tile_time() {
        let key = |s| PartitionKey::for_sample(UserId::new("a"), Timestamp::from_secs(s));
        assert_eq!(key(0).window, 0);
        assert_eq!(key(59).window, 0);
        assert_eq!(key(60).window, 1);
        assert_eq!(key(61).window, 1);
    }

    #[test]
    fn pruning_respects_user_and_time() {
        let key = PartitionKey {
            user: UserId::new("alice"),
            window: 2, // covers [120s, 180s)
        };
        let q = SampleQuery::all().for_user("alice");
        assert!(key.may_match(&q));
        assert!(!key.may_match(&SampleQuery::all().for_user("bob")));
        let early = SampleQuery::all().between(Timestamp::from_secs(0), Timestamp::from_secs(100));
        assert!(!key.may_match(&early));
        let edge = SampleQuery::all().between(Timestamp::from_secs(0), Timestamp::from_secs(120));
        assert!(key.may_match(&edge));
        let late = SampleQuery::all().between(Timestamp::from_secs(180), Timestamp::from_secs(300));
        assert!(!key.may_match(&late));
    }

    #[test]
    fn query_predicates_conjoin() {
        let rec = record(0, "alice", 100, &gps(48.85, 2.35, 1.0));
        assert!(SampleQuery::all().matches(&rec));
        assert!(SampleQuery::all().for_user("alice").matches(&rec));
        assert!(!SampleQuery::all().for_user("bob").matches(&rec));
        assert!(SampleQuery::all()
            .with_modality(Modality::Location)
            .matches(&rec));
        assert!(!SampleQuery::all()
            .with_modality(Modality::Wifi)
            .matches(&rec));
        assert!(SampleQuery::all()
            .between(Timestamp::from_secs(100), Timestamp::from_secs(100))
            .matches(&rec));
        assert!(!SampleQuery::all()
            .between(Timestamp::from_secs(101), Timestamp::from_secs(200))
            .matches(&rec));
        let fence = GeoFence::new(GeoPoint::new(48.85, 2.35), 100.0);
        assert!(SampleQuery::all().within(fence).matches(&rec));
        let far = GeoFence::new(GeoPoint::new(44.84, -0.58), 100.0);
        assert!(!SampleQuery::all().within(far).matches(&rec));
    }

    #[test]
    fn fenced_queries_never_match_positionless_samples() {
        let rec = record(
            0,
            "alice",
            1,
            &ContextData::Classified(ClassifiedContext::WifiDensity(3)),
        );
        let fence = GeoFence::new(GeoPoint::new(0.0, 0.0), 1e9);
        assert!(!SampleQuery::all().within(fence).matches(&rec));
    }
}
