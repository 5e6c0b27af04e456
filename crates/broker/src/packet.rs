//! Wire packets exchanged between broker and clients.

use std::fmt;
use std::sync::Arc;

use sensocial_runtime::json::{self, Json, Reader, Writer};
use sensocial_runtime::{json_enum, json_members};
use sensocial_types::InternedTopic;

use crate::topic::TopicFilter;

/// An immutable, reference-counted message payload.
///
/// Fan-out used to clone the payload `String` once per subscriber; a
/// `Payload` clone is a refcount bump, so the broker's delivery targets,
/// offline queues, retained map and pending-retry table all share one
/// allocation per message. Payloads are UTF-8 (the middleware publishes
/// JSON documents), so the wire form stays a plain JSON string —
/// byte-identical to the `String` it replaced. Unlike topics, payloads
/// are unique per message and are *not* pooled in the interner.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Payload(Arc<str>);

impl Payload {
    /// Wraps a payload string in a shared allocation.
    pub fn new(payload: impl Into<Payload>) -> Self {
        payload.into()
    }

    /// The payload as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty (an empty retained publish clears the
    /// retained entry).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        Payload(Arc::from(s))
    }
}

impl From<String> for Payload {
    fn from(s: String) -> Self {
        Payload(Arc::from(s))
    }
}

impl From<&String> for Payload {
    fn from(s: &String) -> Self {
        Payload(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Payload {
    fn from(s: Arc<str>) -> Self {
        Payload(s)
    }
}

impl AsRef<str> for Payload {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A plain JSON string.
impl Json for Payload {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.str(&self.0);
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        r.str().map(|s| Payload(Arc::from(&*s)))
    }
}

/// One routable message: an interned topic, a shared payload and its QoS.
///
/// The single shape the broker's session offline queues, delivery batches
/// and retained-message handling all speak — replacing the ad-hoc
/// `(String, String, QoS)` tuples so Arc'd payloads and batching share
/// one type. Cloning an `Envelope` is two refcount bumps and a `Copy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Concrete topic the message was published to.
    pub topic: InternedTopic,
    /// The shared message payload.
    pub payload: Payload,
    /// Delivery QoS (already capped at the subscription's maximum where
    /// applicable).
    pub qos: QoS,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(topic: impl Into<InternedTopic>, payload: impl Into<Payload>, qos: QoS) -> Self {
        Envelope {
            topic: topic.into(),
            payload: payload.into(),
            qos,
        }
    }
}

/// MQTT-style quality-of-service level.
///
/// SenSocial's triggers and configuration pushes use at-least-once
/// delivery; bulk sensor uplink tolerates at-most-once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QoS {
    /// Fire-and-forget: no acknowledgement, lost messages stay lost.
    AtMostOnce,
    /// Acknowledged delivery with retransmission; duplicates possible.
    AtLeastOnce,
}

json_enum!(QoS {
    AtMostOnce = "at_most_once",
    AtLeastOnce = "at_least_once",
});

impl fmt::Display for QoS {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QoS::AtMostOnce => f.write_str("qos0"),
            QoS::AtLeastOnce => f.write_str("qos1"),
        }
    }
}

/// A broker protocol packet. Serialized as JSON on the simulated network
/// so payload sizes (and thus radio energy) are realistic: an object whose
/// `type` member names the variant, followed by the variant's fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Client → broker: open (or resume) a session.
    Connect {
        /// The client's stable identifier.
        client_id: String,
    },
    /// Broker → client: the session is open. `session_present` tells a
    /// reconnecting client whether the broker still holds its subscriptions
    /// (if not — e.g. after a broker restart — the client re-subscribes).
    ConnAck {
        /// The client's stable identifier.
        client_id: String,
        /// Whether the broker already knew this session.
        session_present: bool,
    },
    /// Client → broker: close the session's connection (the session and its
    /// subscriptions persist; deliveries queue until reconnect).
    Disconnect {
        /// The client's stable identifier.
        client_id: String,
    },
    /// Client → broker: keepalive probe. The broker answers with
    /// [`Packet::PingResp`] only while it considers the session connected,
    /// so missing responses signal a dead connection (or a broker that has
    /// given up on us).
    PingReq {
        /// The client's stable identifier.
        client_id: String,
    },
    /// Broker → client: keepalive response.
    PingResp {
        /// The client's stable identifier.
        client_id: String,
    },
    /// Client → broker: add a subscription.
    Subscribe {
        /// The client's stable identifier.
        client_id: String,
        /// Topic filter to subscribe to.
        filter: TopicFilter,
        /// Delivery QoS for matched messages.
        qos: QoS,
    },
    /// Client → broker: remove a subscription.
    Unsubscribe {
        /// The client's stable identifier.
        client_id: String,
        /// The filter to remove (exact string match).
        filter: TopicFilter,
    },
    /// Either direction: publish a message.
    Publish {
        /// Concrete topic the message is published to (interned: the
        /// broker re-uses one allocation per distinct topic).
        topic: InternedTopic,
        /// UTF-8 payload (the middleware publishes JSON documents),
        /// shared across every fan-out leg.
        payload: Payload,
        /// Delivery QoS.
        qos: QoS,
        /// Message id, present iff `qos` requires acknowledgement.
        message_id: Option<u64>,
        /// Whether the broker should retain this message for future
        /// subscribers.
        retain: bool,
        /// Publishing client id (set on client → broker legs).
        sender: Option<String>,
    },
    /// Either direction: acknowledge a QoS-1 publish.
    PubAck {
        /// The acknowledged message id.
        message_id: u64,
        /// Acknowledging client id (set on client → broker legs).
        client_id: Option<String>,
    },
}

/// Upper bound on an accepted wire frame. Anything larger is rejected
/// before JSON parsing — a corrupted length or a hostile peer must not make
/// the broker buffer unbounded input.
pub const MAX_WIRE_LEN: usize = 256 * 1024;

impl Json for Packet {
    fn write_json(&self, w: &mut Writer<'_>) {
        let mut obj = w.object();
        match self {
            Packet::Connect { client_id } => {
                obj.key("type").str("connect");
                json_members!(write obj; client_id);
            }
            Packet::ConnAck {
                client_id,
                session_present,
            } => {
                obj.key("type").str("conn_ack");
                json_members!(write obj; client_id, session_present);
            }
            Packet::Disconnect { client_id } => {
                obj.key("type").str("disconnect");
                json_members!(write obj; client_id);
            }
            Packet::PingReq { client_id } => {
                obj.key("type").str("ping_req");
                json_members!(write obj; client_id);
            }
            Packet::PingResp { client_id } => {
                obj.key("type").str("ping_resp");
                json_members!(write obj; client_id);
            }
            Packet::Subscribe {
                client_id,
                filter,
                qos,
            } => {
                obj.key("type").str("subscribe");
                json_members!(write obj; client_id, filter, qos);
            }
            Packet::Unsubscribe { client_id, filter } => {
                obj.key("type").str("unsubscribe");
                json_members!(write obj; client_id, filter);
            }
            Packet::Publish {
                topic,
                payload,
                qos,
                message_id,
                retain,
                sender,
            } => {
                obj.key("type").str("publish");
                json_members!(write obj; topic, payload, qos, message_id, retain, sender);
            }
            Packet::PubAck {
                message_id,
                client_id,
            } => {
                obj.key("type").str("pub_ack");
                json_members!(write obj; message_id, client_id);
            }
        }
        obj.end();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let kind = r.tagged("type")?;
        match &*kind {
            "connect" => json_members!(read r; Packet::Connect { client_id }),
            "conn_ack" => json_members!(read r; Packet::ConnAck { client_id, session_present }),
            "disconnect" => json_members!(read r; Packet::Disconnect { client_id }),
            "ping_req" => json_members!(read r; Packet::PingReq { client_id }),
            "ping_resp" => json_members!(read r; Packet::PingResp { client_id }),
            "subscribe" => json_members!(read r; Packet::Subscribe { client_id, filter, qos }),
            "unsubscribe" => json_members!(read r; Packet::Unsubscribe { client_id, filter }),
            "publish" => json_members!(read r; Packet::Publish {
                topic,
                payload,
                qos,
                message_id,
                retain,
                sender,
            }),
            "pub_ack" => json_members!(read r; Packet::PubAck { message_id, client_id }),
            other => Err(r.unknown_variant(
                other,
                &[
                    "connect",
                    "conn_ack",
                    "disconnect",
                    "ping_req",
                    "ping_resp",
                    "subscribe",
                    "unsubscribe",
                    "publish",
                    "pub_ack",
                ],
            )),
        }
    }
}

impl Packet {
    /// Serializes the packet to its JSON wire form.
    pub fn to_wire(&self) -> Vec<u8> {
        json::to_string(self).into_bytes()
    }

    /// Parses a packet from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns an error for frames larger than [`MAX_WIRE_LEN`], and for
    /// malformed (e.g. truncated) bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, json::Error> {
        if bytes.len() > MAX_WIRE_LEN {
            let len = bytes.len();
            let why = format!("wire frame of {len} bytes exceeds MAX_WIRE_LEN ({MAX_WIRE_LEN})"); // lint:allow(format) — cold path: error for an oversized frame
            return Err(json::Error::new(0, why));
        }
        json::from_slice(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_round_trip_the_wire() {
        let packets = vec![
            Packet::Connect {
                client_id: "phone".into(),
            },
            Packet::Subscribe {
                client_id: "phone".into(),
                filter: "a/+/b".parse().unwrap(),
                qos: QoS::AtLeastOnce,
            },
            Packet::Publish {
                topic: "a/x/b".into(),
                payload: "{\"k\":1}".into(),
                qos: QoS::AtLeastOnce,
                message_id: Some(42),
                retain: true,
                sender: Some("server".into()),
            },
            Packet::PubAck {
                message_id: 42,
                client_id: Some("phone".into()),
            },
            Packet::ConnAck {
                client_id: "phone".into(),
                session_present: true,
            },
            Packet::Disconnect {
                client_id: "phone".into(),
            },
            Packet::PingReq {
                client_id: "phone".into(),
            },
            Packet::PingResp {
                client_id: "phone".into(),
            },
        ];
        for p in packets {
            let wire = p.to_wire();
            assert_eq!(Packet::from_wire(&wire).unwrap(), p);
        }
    }

    #[test]
    fn malformed_wire_is_an_error() {
        assert!(Packet::from_wire(b"not json").is_err());
        assert!(Packet::from_wire(b"{\"type\":\"bogus\"}").is_err());
    }

    #[test]
    fn truncated_wire_is_an_error() {
        let wire = Packet::Publish {
            topic: "a/b".into(),
            payload: "payload".into(),
            qos: QoS::AtLeastOnce,
            message_id: Some(7),
            retain: false,
            sender: Some("phone".into()),
        }
        .to_wire();
        // Every strict prefix must fail to parse, not mis-parse.
        for cut in 0..wire.len() {
            assert!(
                Packet::from_wire(&wire[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn oversized_wire_is_rejected() {
        let huge = Packet::Publish {
            topic: "a".into(),
            payload: "x".repeat(MAX_WIRE_LEN).into(),
            qos: QoS::AtMostOnce,
            message_id: None,
            retain: false,
            sender: None,
        }
        .to_wire();
        assert!(huge.len() > MAX_WIRE_LEN);
        let err = Packet::from_wire(&huge).unwrap_err();
        assert!(err.to_string().contains("MAX_WIRE_LEN"));
        // At the boundary itself parsing still works.
        let garbage = vec![b'x'; MAX_WIRE_LEN];
        assert!(
            Packet::from_wire(&garbage).is_err(),
            "garbage, but not oversized"
        );
    }

    #[test]
    fn qos_display() {
        assert_eq!(QoS::AtMostOnce.to_string(), "qos0");
        assert_eq!(QoS::AtLeastOnce.to_string(), "qos1");
    }

    /// Wire strings that predate this codec, pinned so the bytes never move.
    #[test]
    fn packet_wire_matches_the_pinned_strings() {
        let cases = [
            (
                Packet::PubAck {
                    message_id: 5,
                    client_id: None,
                },
                r#"{"type":"pub_ack","message_id":5,"client_id":null}"#,
            ),
            (
                Packet::Subscribe {
                    client_id: "phone".into(),
                    filter: "a/+/b/#".parse().unwrap(),
                    qos: QoS::AtLeastOnce,
                },
                r#"{"type":"subscribe","client_id":"phone","filter":"a/+/b/#","qos":"at_least_once"}"#,
            ),
            (
                Packet::Publish {
                    topic: "a".into(),
                    payload: "{\"k\":\"v\"}".into(),
                    qos: QoS::AtMostOnce,
                    message_id: None,
                    retain: false,
                    sender: None,
                },
                r#"{"type":"publish","topic":"a","payload":"{\"k\":\"v\"}","qos":"at_most_once","message_id":null,"retain":false,"sender":null}"#,
            ),
        ];
        for (packet, wire) in cases {
            assert_eq!(String::from_utf8(packet.to_wire()).unwrap(), wire);
            assert_eq!(Packet::from_wire(wire.as_bytes()).unwrap(), packet);
        }
    }

    #[test]
    fn typed_publish_wire_matches_the_plain_string_form() {
        // The Arc-backed newtypes must be wire-invisible: topics and
        // payloads stay plain JSON strings.
        let wire = Packet::Publish {
            topic: "a/b".into(),
            payload: "{\"k\":1}".into(),
            qos: QoS::AtMostOnce,
            message_id: None,
            retain: false,
            sender: None,
        }
        .to_wire();
        let doc: json::Value = json::from_slice(&wire).unwrap();
        assert_eq!(doc["topic"], "a/b");
        assert_eq!(doc["payload"], "{\"k\":1}");
    }

    #[test]
    fn envelope_clone_shares_allocations() {
        let e = Envelope::new("sensocial/uplink/phone", "{\"v\":1}", QoS::AtMostOnce);
        let f = e.clone();
        assert!(e.topic.ptr_eq(&f.topic));
        assert_eq!(e, f);
        assert_eq!(e.payload.len(), 7);
        assert!(!e.payload.is_empty());
    }
}
