//! Endpoints and message envelopes.

use std::fmt;
use std::rc::Rc;

use sensocial_runtime::Timestamp;

/// Names a network endpoint — a mobile device, the SenSocial server, or the
/// OSN platform front-end.
///
/// The name is shared, not owned: cloning an id (as every send does, for
/// the link lookup and the message envelope) bumps a reference count
/// instead of copying the string. Equality, hashing and ordering are the
/// name's.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(Rc<str>);

impl EndpointId {
    /// Creates an endpoint id.
    pub fn new(name: impl AsRef<str>) -> Self {
        EndpointId(Rc::from(name.as_ref()))
    }

    /// The endpoint name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "endpoint:{}", self.0)
    }
}

impl From<&str> for EndpointId {
    fn from(s: &str) -> Self {
        EndpointId(Rc::from(s))
    }
}

impl From<String> for EndpointId {
    fn from(s: String) -> Self {
        EndpointId(Rc::from(s))
    }
}

impl AsRef<str> for EndpointId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A message in flight (or delivered) on the simulated network.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending endpoint.
    pub from: EndpointId,
    /// Receiving endpoint.
    pub to: EndpointId,
    /// Opaque payload bytes (the broker and middleware serialize JSON into
    /// these, giving realistic per-message sizes for the energy model).
    pub payload: Vec<u8>,
    /// Virtual time at which the payload was handed to the network.
    pub sent_at: Timestamp,
}

impl Message {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_conversions() {
        let a = EndpointId::new("server");
        assert_eq!(a, EndpointId::from("server"));
        assert_eq!(a, EndpointId::from(String::from("server")));
        assert_eq!(a.as_str(), "server");
        assert_eq!(a.to_string(), "endpoint:server");
        assert_eq!(format!("{a:?}"), "EndpointId(\"server\")");
    }

    #[test]
    fn clones_share_the_name_and_order_by_it() {
        let a = EndpointId::from("dev-0002-ep");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let mut ids: Vec<EndpointId> = ["server", "broker", "dev-0002-ep", "dev-0001-ep"]
            .into_iter()
            .map(EndpointId::from)
            .collect();
        ids.sort();
        let names: Vec<&str> = ids.iter().map(EndpointId::as_str).collect();
        assert_eq!(names, ["broker", "dev-0001-ep", "dev-0002-ep", "server"]);
    }

    #[test]
    fn message_len() {
        let m = Message {
            from: "a".into(),
            to: "b".into(),
            payload: b"xyz".to_vec(),
            sent_at: Timestamp::ZERO,
        };
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }
}
