//! Hand-rolled wire protocol for the no-middleware Sensor Map.
//!
//! With SenSocial this entire module disappears: the middleware's trigger
//! and uplink formats are part of the platform. Without it, the
//! application defines, versions, serializes, validates and parses its own
//! message formats.

use sensocial_runtime::{json, json::Value};
use sensocial_types::{DeviceId, GeoPoint, UserId};

/// Protocol version stamped into every message so mismatched deployments
/// fail loudly instead of silently misparsing.
pub const PROTOCOL_VERSION: u32 = 1;

/// Topic carrying sensing commands for one device.
pub fn trigger_topic(device: &DeviceId) -> String {
    format!("rawmap/trigger/{}", device.as_str())
}

/// Topic carrying one device's context reports.
pub fn report_topic(device: &DeviceId) -> String {
    format!("rawmap/report/{}", device.as_str())
}

/// Wildcard over all devices' reports (the server's subscription).
pub const REPORT_WILDCARD: &str = "rawmap/report/+";

/// A sensing command: "the user just acted on the OSN — sample now".
#[derive(Debug, Clone, PartialEq)]
pub struct SenseCommand {
    /// Command sequence number (deduplication under QoS-1 redelivery).
    pub seq: u64,
    /// Acting user.
    pub user: UserId,
    /// Kind of OSN action ("post"/"comment"/"like").
    pub action_kind: String,
    /// OSN action content.
    pub action_content: String,
    /// Action timestamp, epoch milliseconds.
    pub action_at_ms: u64,
}

impl SenseCommand {
    /// Serializes to the wire.
    pub fn encode(&self) -> String {
        json!({
            "v": PROTOCOL_VERSION,
            "type": "sense",
            "seq": self.seq,
            "user": self.user.as_str(),
            "kind": self.action_kind,
            "content": self.action_content,
            "at_ms": self.action_at_ms,
        })
        .to_string()
    }

    /// Parses from the wire, rejecting unknown versions and malformed
    /// fields.
    pub fn decode(payload: &str) -> Option<SenseCommand> {
        let value: Value = json::from_str(payload).ok()?;
        if value.get("v")?.as_u64()? != u64::from(PROTOCOL_VERSION) {
            return None;
        }
        if value.get("type")?.as_str()? != "sense" {
            return None;
        }
        Some(SenseCommand {
            seq: value.get("seq")?.as_u64()?,
            user: UserId::new(value.get("user")?.as_str()?),
            action_kind: value.get("kind")?.as_str()?.to_owned(),
            action_content: value.get("content")?.as_str()?.to_owned(),
            action_at_ms: value.get("at_ms")?.as_u64()?,
        })
    }
}

/// A coupled context report uplinked by a device.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextReport {
    /// Echo of the command's sequence number.
    pub seq: u64,
    /// Reporting user.
    pub user: UserId,
    /// Reporting device.
    pub device: DeviceId,
    /// The OSN action this context was coupled with.
    pub action_kind: String,
    /// Its content.
    pub action_content: String,
    /// Classified activity, if sensed.
    pub activity: Option<String>,
    /// Classified audio environment, if sensed.
    pub audio: Option<String>,
    /// Raw position, if sensed.
    pub position: Option<GeoPoint>,
    /// When the context was sampled, epoch milliseconds.
    pub sensed_at_ms: u64,
}

impl ContextReport {
    /// Serializes to the wire.
    pub fn encode(&self) -> String {
        json!({
            "v": PROTOCOL_VERSION,
            "type": "report",
            "seq": self.seq,
            "user": self.user.as_str(),
            "device": self.device.as_str(),
            "kind": self.action_kind,
            "content": self.action_content,
            "activity": self.activity,
            "audio": self.audio,
            "lat": self.position.map(|p| p.lat),
            "lon": self.position.map(|p| p.lon),
            "sensed_at_ms": self.sensed_at_ms,
        })
        .to_string()
    }

    /// Parses from the wire.
    pub fn decode(payload: &str) -> Option<ContextReport> {
        let value: Value = json::from_str(payload).ok()?;
        if value.get("v")?.as_u64()? != u64::from(PROTOCOL_VERSION) {
            return None;
        }
        if value.get("type")?.as_str()? != "report" {
            return None;
        }
        let lat = value.get("lat").and_then(Value::as_f64);
        let lon = value.get("lon").and_then(Value::as_f64);
        let position = match (lat, lon) {
            (Some(lat), Some(lon))
                if (-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon) =>
            {
                Some(GeoPoint::new(lat, lon))
            }
            _ => None,
        };
        Some(ContextReport {
            seq: value.get("seq")?.as_u64()?,
            user: UserId::new(value.get("user")?.as_str()?),
            device: DeviceId::new(value.get("device")?.as_str()?),
            action_kind: value.get("kind")?.as_str()?.to_owned(),
            action_content: value.get("content")?.as_str()?.to_owned(),
            activity: value
                .get("activity")
                .and_then(Value::as_str)
                .map(str::to_owned),
            audio: value
                .get("audio")
                .and_then(Value::as_str)
                .map(str::to_owned),
            position,
            sensed_at_ms: value.get("sensed_at_ms")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::geo::cities;

    #[test]
    fn sense_command_round_trips() {
        let cmd = SenseCommand {
            seq: 7,
            user: UserId::new("alice"),
            action_kind: "post".into(),
            action_content: "hello".into(),
            action_at_ms: 1234,
        };
        assert_eq!(SenseCommand::decode(&cmd.encode()).unwrap(), cmd);
    }

    #[test]
    fn report_round_trips_with_and_without_position() {
        let mut report = ContextReport {
            seq: 1,
            user: UserId::new("alice"),
            device: DeviceId::new("alice-phone"),
            action_kind: "like".into(),
            action_content: "page".into(),
            activity: Some("walking".into()),
            audio: None,
            position: Some(cities::paris()),
            sensed_at_ms: 99,
        };
        assert_eq!(ContextReport::decode(&report.encode()).unwrap(), report);
        report.position = None;
        assert_eq!(ContextReport::decode(&report.encode()).unwrap(), report);
    }

    #[test]
    fn malformed_and_mismatched_messages_rejected() {
        assert!(SenseCommand::decode("not json").is_none());
        assert!(SenseCommand::decode("{\"v\":99,\"type\":\"sense\"}").is_none());
        let cmd = SenseCommand {
            seq: 1,
            user: UserId::new("u"),
            action_kind: "post".into(),
            action_content: "c".into(),
            action_at_ms: 0,
        };
        // A command is not a report.
        assert!(ContextReport::decode(&cmd.encode()).is_none());
    }

    #[test]
    fn invalid_coordinates_dropped() {
        let raw = "{\"v\":1,\"type\":\"report\",\"seq\":1,\"user\":\"u\",\"device\":\"d\",\
                   \"kind\":\"post\",\"content\":\"c\",\"lat\":200.0,\"lon\":0.0,\
                   \"sensed_at_ms\":5}";
        let report = ContextReport::decode(raw).unwrap();
        assert_eq!(report.position, None);
    }

    #[test]
    fn topics_are_per_device() {
        assert_ne!(
            trigger_topic(&DeviceId::new("a")),
            trigger_topic(&DeviceId::new("b"))
        );
        assert!(report_topic(&DeviceId::new("a")).starts_with("rawmap/report/"));
    }
}
