//! Sensor context data: raw samples, classified values and snapshots.
//!
//! Contextual data can be mined "in either its raw state (e.g. accelerometer
//! x-axis intensity values), or classified to high level inferred states
//! (e.g. activity classified as 'running')" (paper §3). This module defines
//! both representations plus [`ContextSnapshot`], the per-device cache of
//! the most recent context that filters evaluate against and that OSN
//! triggers pair with actions.

use std::collections::BTreeMap;
use std::fmt;

use sensocial_runtime::json::{Error, Json, Object, Reader, Writer};
use sensocial_runtime::{json_enum, json_struct, Timestamp};

use crate::geo::GeoPoint;
use crate::modality::{Granularity, Modality};

/// One tri-axial accelerometer reading, in m/s².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSample {
    /// X-axis acceleration.
    pub x: f64,
    /// Y-axis acceleration.
    pub y: f64,
    /// Z-axis acceleration.
    pub z: f64,
}

impl AccelSample {
    /// Creates a sample.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        AccelSample { x, y, z }
    }

    /// Euclidean magnitude of the acceleration vector.
    pub fn magnitude(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }
}

json_struct!(AccelSample { x, y, z });

/// A GPS fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Position of the fix.
    pub position: GeoPoint,
    /// Estimated accuracy radius in metres.
    pub accuracy_m: f64,
    /// Speed over ground in m/s, if known.
    pub speed_mps: f64,
}

json_struct!(GpsFix {
    position,
    accuracy_m,
    speed_mps,
});

/// A frame of microphone samples summarised by amplitude statistics.
///
/// The stock audio classifier only needs energy, so frames carry RMS and
/// peak amplitude (normalised to `[0, 1]`) plus the frame length, rather
/// than PCM payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AudioFrame {
    /// Root-mean-square amplitude, `0.0..=1.0`.
    pub rms: f64,
    /// Peak amplitude, `0.0..=1.0`.
    pub peak: f64,
    /// Frame duration in milliseconds.
    pub duration_ms: u64,
}

json_struct!(AudioFrame {
    rms,
    peak,
    duration_ms
});

/// A WiFi access-point scan: visible BSSIDs with signal strength.
#[derive(Debug, Clone, PartialEq)]
pub struct WifiScan {
    /// `(bssid, rssi_dbm)` pairs for each visible access point.
    pub access_points: Vec<(String, i32)>,
}

json_struct!(WifiScan { access_points });

/// A Bluetooth proximity scan: nearby device identifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct BluetoothScan {
    /// Addresses of devices in radio range.
    pub nearby_devices: Vec<String>,
}

json_struct!(BluetoothScan { nearby_devices });

/// A raw sample from one of the five modalities.
#[derive(Debug, Clone, PartialEq)]
pub enum RawSample {
    /// A GPS fix.
    Location(GpsFix),
    /// A burst of accelerometer readings (the paper samples 3-axis vectors
    /// every 20 ms for eight seconds per cycle).
    Accelerometer(Vec<AccelSample>),
    /// A microphone frame.
    Microphone(AudioFrame),
    /// A WiFi scan.
    Wifi(WifiScan),
    /// A Bluetooth scan.
    Bluetooth(BluetoothScan),
}

impl RawSample {
    /// The modality this sample came from.
    pub fn modality(&self) -> Modality {
        match self {
            RawSample::Location(_) => Modality::Location,
            RawSample::Accelerometer(_) => Modality::Accelerometer,
            RawSample::Microphone(_) => Modality::Microphone,
            RawSample::Wifi(_) => Modality::Wifi,
            RawSample::Bluetooth(_) => Modality::Bluetooth,
        }
    }

    /// Approximate on-the-wire payload size in bytes, used by the
    /// transmission-energy model. Accelerometer bursts dominate, as in the
    /// paper ("the transmission energy is high for accelerometer data as it
    /// contains a vector of acceleration values ... sampled every 20 ms for
    /// eight seconds").
    pub fn payload_bytes(&self) -> usize {
        match self {
            RawSample::Location(_) => 40,
            RawSample::Accelerometer(v) => 24 * v.len() + 16,
            RawSample::Microphone(_) => 32,
            RawSample::Wifi(s) => 16 + s.access_points.len() * 24,
            RawSample::Bluetooth(s) => 16 + s.nearby_devices.len() * 20,
        }
    }
}

/// The members a raw sample adds to its [`ContextData`] object:
/// `"modality":"location","sample":{..}`, the tag beside its content.
impl RawSample {
    fn write_members(&self, obj: &mut Object<'_, '_>) {
        obj.field("modality", &self.modality());
        let w = obj.key("sample");
        match self {
            RawSample::Location(fix) => fix.write_json(w),
            RawSample::Accelerometer(burst) => burst.write_json(w),
            RawSample::Microphone(frame) => frame.write_json(w),
            RawSample::Wifi(scan) => scan.write_json(w),
            RawSample::Bluetooth(scan) => scan.write_json(w),
        }
    }

    fn read_members(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.adjacent("modality", "sample", |r, modality| match modality {
            "location" => GpsFix::read_json(r).map(RawSample::Location),
            "accelerometer" => Vec::read_json(r).map(RawSample::Accelerometer),
            "microphone" => AudioFrame::read_json(r).map(RawSample::Microphone),
            "wifi" => WifiScan::read_json(r).map(RawSample::Wifi),
            "bluetooth" => BluetoothScan::read_json(r).map(RawSample::Bluetooth),
            other => Err(r.unknown_variant(
                other,
                &[
                    "location",
                    "accelerometer",
                    "microphone",
                    "wifi",
                    "bluetooth",
                ],
            )),
        })
    }
}

/// The physical activities inferred by the stock accelerometer classifier
/// (paper §4: "still", "walking" and "running").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalActivity {
    /// No significant movement.
    Still,
    /// Walking-level movement.
    Walking,
    /// Running-level movement.
    Running,
}

impl PhysicalActivity {
    /// Short lowercase name as used in filter conditions.
    pub fn name(self) -> &'static str {
        match self {
            PhysicalActivity::Still => "still",
            PhysicalActivity::Walking => "walking",
            PhysicalActivity::Running => "running",
        }
    }
}

impl fmt::Display for PhysicalActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

json_enum!(PhysicalActivity {
    Still = "still",
    Walking = "walking",
    Running = "running",
});

/// The audio environments inferred by the stock microphone classifier
/// (paper §4: "silent" or "not silent").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AudioEnvironment {
    /// Ambient level below the silence threshold.
    Silent,
    /// Ambient level above the silence threshold.
    NotSilent,
}

impl AudioEnvironment {
    /// Short lowercase name as used in filter conditions.
    pub fn name(self) -> &'static str {
        match self {
            AudioEnvironment::Silent => "silent",
            AudioEnvironment::NotSilent => "not_silent",
        }
    }
}

impl fmt::Display for AudioEnvironment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

json_enum!(AudioEnvironment {
    Silent = "silent",
    NotSilent = "not_silent",
});

/// A classified (high-level) context value.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifiedContext {
    /// Physical activity from accelerometer data.
    Activity(PhysicalActivity),
    /// Audio environment from microphone data.
    Audio(AudioEnvironment),
    /// Named place from a GPS fix (reverse geocoding), or `None` when the
    /// fix matched no place in the gazetteer.
    Place(Option<String>),
    /// Count of nearby WiFi access points (coarse crowding proxy).
    WifiDensity(usize),
    /// Count of nearby Bluetooth devices (collocation proxy).
    BluetoothDensity(usize),
}

impl ClassifiedContext {
    /// The modality the classification was derived from.
    pub fn modality(&self) -> Modality {
        match self {
            ClassifiedContext::Activity(_) => Modality::Accelerometer,
            ClassifiedContext::Audio(_) => Modality::Microphone,
            ClassifiedContext::Place(_) => Modality::Location,
            ClassifiedContext::WifiDensity(_) => Modality::Wifi,
            ClassifiedContext::BluetoothDensity(_) => Modality::Bluetooth,
        }
    }

    /// Classified payloads are small and fixed-size on the wire; this is
    /// the figure the transmission-energy model uses (classification exists
    /// precisely to shrink transmission, paper §5.3).
    pub fn payload_bytes(&self) -> usize {
        match self {
            ClassifiedContext::Place(Some(name)) => 16 + name.len(),
            _ => 16,
        }
    }

    /// A string form of the value, used by filter-condition comparisons
    /// (e.g. `physical_activity equals walking`).
    pub fn value_string(&self) -> String {
        match self {
            ClassifiedContext::Activity(a) => a.to_string(),
            ClassifiedContext::Audio(a) => a.to_string(),
            ClassifiedContext::Place(Some(p)) => p.clone(),
            ClassifiedContext::Place(None) => "unknown".to_owned(),
            ClassifiedContext::WifiDensity(n) | ClassifiedContext::BluetoothDensity(n) => {
                n.to_string()
            }
        }
    }
}

/// The members a classification adds to its [`ContextData`] object:
/// `"kind":"activity","value":"walking"`, the tag beside its content.
impl ClassifiedContext {
    fn write_members(&self, obj: &mut Object<'_, '_>) {
        let kind = match self {
            ClassifiedContext::Activity(_) => "activity",
            ClassifiedContext::Audio(_) => "audio",
            ClassifiedContext::Place(_) => "place",
            ClassifiedContext::WifiDensity(_) => "wifi_density",
            ClassifiedContext::BluetoothDensity(_) => "bluetooth_density",
        };
        obj.key("kind").str(kind);
        let w = obj.key("value");
        match self {
            ClassifiedContext::Activity(a) => a.write_json(w),
            ClassifiedContext::Audio(a) => a.write_json(w),
            ClassifiedContext::Place(p) => p.write_json(w),
            ClassifiedContext::WifiDensity(n) | ClassifiedContext::BluetoothDensity(n) => {
                n.write_json(w);
            }
        }
    }

    fn read_members(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.adjacent("kind", "value", |r, kind| match kind {
            "activity" => PhysicalActivity::read_json(r).map(ClassifiedContext::Activity),
            "audio" => AudioEnvironment::read_json(r).map(ClassifiedContext::Audio),
            "place" => Option::read_json(r).map(ClassifiedContext::Place),
            "wifi_density" => usize::read_json(r).map(ClassifiedContext::WifiDensity),
            "bluetooth_density" => usize::read_json(r).map(ClassifiedContext::BluetoothDensity),
            other => Err(r.unknown_variant(
                other,
                &[
                    "activity",
                    "audio",
                    "place",
                    "wifi_density",
                    "bluetooth_density",
                ],
            )),
        })
    }
}

/// A raw or classified piece of context, as delivered on a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextData {
    /// Raw sensor data.
    Raw(RawSample),
    /// Classified context.
    Classified(ClassifiedContext),
}

impl ContextData {
    /// The source modality.
    pub fn modality(&self) -> Modality {
        match self {
            ContextData::Raw(r) => r.modality(),
            ContextData::Classified(c) => c.modality(),
        }
    }

    /// The granularity of this datum.
    pub fn granularity(&self) -> Granularity {
        match self {
            ContextData::Raw(_) => Granularity::Raw,
            ContextData::Classified(_) => Granularity::Classified,
        }
    }

    /// Approximate transmission payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        match self {
            ContextData::Raw(r) => r.payload_bytes(),
            ContextData::Classified(c) => c.payload_bytes(),
        }
    }
}

/// Tagged by `granularity`, with the variant's own tag and content as
/// members of the same object, e.g.
/// `{"granularity":"raw","modality":"location","sample":{..}}`.
impl Json for ContextData {
    fn write_json(&self, w: &mut Writer<'_>) {
        let mut obj = w.object();
        obj.field("granularity", &self.granularity());
        match self {
            ContextData::Raw(raw) => raw.write_members(&mut obj),
            ContextData::Classified(classified) => classified.write_members(&mut obj),
        }
        obj.end();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        let granularity = r.tagged("granularity")?;
        match &*granularity {
            "raw" => RawSample::read_members(r).map(ContextData::Raw),
            "classified" => ClassifiedContext::read_members(r).map(ContextData::Classified),
            other => Err(r.unknown_variant(other, &["raw", "classified"])),
        }
    }
}

/// A timestamped context datum.
#[derive(Debug, Clone, PartialEq)]
pub struct TimestampedContext {
    /// When the datum was sampled (virtual time).
    pub at: Timestamp,
    /// The datum itself.
    pub data: ContextData,
}

/// The most recent context a device knows about itself, per modality.
///
/// Filters are evaluated against a snapshot ("obtain data from GPS only when
/// a user is walking" needs the latest classified accelerometer value), and
/// the trigger pipeline couples OSN actions with the snapshot current at
/// trigger time. The paper's §7 limitation — multiple OSN actions between
/// two sampling cycles map to the same previously-sampled context — falls
/// out of this design and is tested in the integration suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContextSnapshot {
    classified: BTreeMap<Modality, (Timestamp, ClassifiedContext)>,
    raw: BTreeMap<Modality, (Timestamp, RawSample)>,
}

impl ContextSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        ContextSnapshot::default()
    }

    /// Records a datum, replacing any previous value for its modality and
    /// granularity.
    pub fn record(&mut self, at: Timestamp, data: ContextData) {
        match data {
            ContextData::Raw(r) => {
                self.raw.insert(r.modality(), (at, r));
            }
            ContextData::Classified(c) => {
                self.classified.insert(c.modality(), (at, c));
            }
        }
    }

    /// The latest classified value for `modality`, with its timestamp.
    pub fn classified(&self, modality: Modality) -> Option<&(Timestamp, ClassifiedContext)> {
        self.classified.get(&modality)
    }

    /// The latest raw sample for `modality`, with its timestamp.
    pub fn raw(&self, modality: Modality) -> Option<&(Timestamp, RawSample)> {
        self.raw.get(&modality)
    }

    /// The latest known position, from the raw GPS fix if present.
    pub fn position(&self) -> Option<GeoPoint> {
        match self.raw.get(&Modality::Location) {
            Some((_, RawSample::Location(fix))) => Some(fix.position),
            _ => None,
        }
    }

    /// The latest classified activity, if any.
    pub fn activity(&self) -> Option<PhysicalActivity> {
        match self.classified.get(&Modality::Accelerometer) {
            Some((_, ClassifiedContext::Activity(a))) => Some(*a),
            _ => None,
        }
    }

    /// The latest classified place name, if any.
    pub fn place(&self) -> Option<&str> {
        match self.classified.get(&Modality::Location) {
            Some((_, ClassifiedContext::Place(Some(p)))) => Some(p.as_str()),
            _ => None,
        }
    }

    /// Whether the snapshot holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.classified.is_empty() && self.raw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::cities;
    use sensocial_runtime::json;

    fn fix(position: GeoPoint) -> GpsFix {
        GpsFix {
            position,
            accuracy_m: 10.0,
            speed_mps: 1.0,
        }
    }

    #[test]
    fn accel_magnitude() {
        let s = AccelSample::new(3.0, 4.0, 0.0);
        assert!((s.magnitude() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn raw_sample_modalities_and_sizes() {
        let burst = RawSample::Accelerometer(vec![AccelSample::new(0.0, 0.0, 9.8); 400]);
        assert_eq!(burst.modality(), Modality::Accelerometer);
        let loc = RawSample::Location(fix(cities::paris()));
        assert_eq!(loc.modality(), Modality::Location);
        // The accelerometer burst dwarfs a GPS fix, as in Figure 4.
        assert!(burst.payload_bytes() > 100 * loc.payload_bytes());
    }

    #[test]
    fn classification_shrinks_payload() {
        let burst = ContextData::Raw(RawSample::Accelerometer(vec![
            AccelSample::new(
                0.0, 0.0, 9.8
            );
            400
        ]));
        let classified =
            ContextData::Classified(ClassifiedContext::Activity(PhysicalActivity::Walking));
        assert!(classified.payload_bytes() * 10 < burst.payload_bytes());
        assert_eq!(classified.granularity(), Granularity::Classified);
        assert_eq!(burst.granularity(), Granularity::Raw);
    }

    #[test]
    fn snapshot_tracks_latest_per_modality() {
        let mut snap = ContextSnapshot::new();
        assert!(snap.is_empty());
        snap.record(
            Timestamp::from_secs(1),
            ContextData::Classified(ClassifiedContext::Activity(PhysicalActivity::Still)),
        );
        snap.record(
            Timestamp::from_secs(2),
            ContextData::Classified(ClassifiedContext::Activity(PhysicalActivity::Running)),
        );
        assert_eq!(snap.activity(), Some(PhysicalActivity::Running));
        let (at, _) = snap.classified(Modality::Accelerometer).unwrap();
        assert_eq!(*at, Timestamp::from_secs(2));
    }

    #[test]
    fn snapshot_position_and_place() {
        let mut snap = ContextSnapshot::new();
        assert_eq!(snap.position(), None);
        snap.record(
            Timestamp::from_secs(1),
            ContextData::Raw(RawSample::Location(fix(cities::paris()))),
        );
        snap.record(
            Timestamp::from_secs(1),
            ContextData::Classified(ClassifiedContext::Place(Some("Paris".into()))),
        );
        assert_eq!(snap.position().unwrap(), cities::paris());
        assert_eq!(snap.place(), Some("Paris"));
    }

    #[test]
    fn snapshot_raw_and_classified_are_independent() {
        let mut snap = ContextSnapshot::new();
        snap.record(
            Timestamp::from_secs(1),
            ContextData::Raw(RawSample::Microphone(AudioFrame {
                rms: 0.4,
                peak: 0.8,
                duration_ms: 1000,
            })),
        );
        assert!(snap.raw(Modality::Microphone).is_some());
        assert!(snap.classified(Modality::Microphone).is_none());
    }

    #[test]
    fn value_strings_for_filters() {
        assert_eq!(
            ClassifiedContext::Activity(PhysicalActivity::Walking).value_string(),
            "walking"
        );
        assert_eq!(
            ClassifiedContext::Audio(AudioEnvironment::NotSilent).value_string(),
            "not_silent"
        );
        assert_eq!(
            ClassifiedContext::Place(Some("Paris".into())).value_string(),
            "Paris"
        );
        assert_eq!(ClassifiedContext::Place(None).value_string(), "unknown");
        assert_eq!(ClassifiedContext::WifiDensity(7).value_string(), "7");
    }

    #[test]
    fn context_serializes_with_tags() {
        let d = ContextData::Classified(ClassifiedContext::Activity(PhysicalActivity::Walking));
        let wire = json::to_string(&d);
        assert_eq!(
            wire,
            r#"{"granularity":"classified","kind":"activity","value":"walking"}"#
        );
        let back: ContextData = json::from_str(&wire).unwrap();
        assert_eq!(back, d);
    }
}
