//! Stream specifications and remotely-pushed configuration commands.
//!
//! The paper encapsulates remote stream management "in an XML file, which
//! is pushed from the server to mobile devices", carrying "the required
//! context modality, granularity of the required data, filtering
//! conditions, and the identification code of the device". We keep the
//! same push–merge lifecycle with JSON as the serialization (see
//! `DESIGN.md`, substitutions).

use sensocial_runtime::json::{self, Json, Reader, Writer};
use sensocial_runtime::{json_enum, json_members, json_struct, SimDuration};
use sensocial_types::filter::Filter;
use sensocial_types::{DeviceId, Error, Granularity, Modality, StreamId};

/// Whether a stream samples on a duty cycle or on OSN triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamMode {
    /// "Sensor data are sampled periodically with a given rate."
    Continuous,
    /// "Sensor data are pulled from the sensors and streamed when social
    /// activity is detected."
    SocialEventBased,
}

json_enum!(StreamMode {
    Continuous = "continuous",
    SocialEventBased = "social_event_based",
});

/// Where a stream's (filtered) data is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamSink {
    /// Consumed on the device by local listeners only.
    Local,
    /// Additionally transmitted to the server (where it can feed server
    /// listeners, aggregators and multicast streams).
    Server,
}

json_enum!(StreamSink {
    Local = "local",
    Server = "server",
});

/// Everything needed to create a stream, locally or remotely.
///
/// # Example
///
/// ```
/// use sensocial::{Condition, ConditionLhs, Filter, Granularity, Operator,
///     StreamSink, StreamSpec};
/// use sensocial_runtime::SimDuration;
/// use sensocial_types::Modality;
///
/// // The paper's filter example: GPS only while walking, uplinked.
/// let spec = StreamSpec::continuous(Modality::Location, Granularity::Raw)
///     .with_interval(SimDuration::from_secs(60))
///     .with_filter(Filter::new(vec![Condition::new(
///         ConditionLhs::PhysicalActivity,
///         Operator::Equals,
///         "walking",
///     )]))
///     .with_sink(StreamSink::Server);
/// assert_eq!(spec.mode, sensocial::StreamMode::Continuous);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// The sensed modality.
    pub modality: Modality,
    /// Raw samples or classified context.
    pub granularity: Granularity,
    /// Duty-cycled or OSN-triggered.
    pub mode: StreamMode,
    /// Sampling interval for continuous streams (the duty cycle; default
    /// 60 s, the paper's evaluation setting).
    pub interval: SimDuration,
    /// Filter conditions; empty passes everything.
    pub filter: Filter,
    /// Local-only or uplinked to the server.
    pub sink: StreamSink,
}

json_struct!(StreamSpec {
    modality,
    granularity,
    mode,
    interval,
    filter,
    sink,
});

impl StreamSpec {
    /// A continuous stream with the default 60 s duty cycle, no filter,
    /// local sink.
    #[must_use]
    pub fn continuous(modality: Modality, granularity: Granularity) -> Self {
        StreamSpec {
            modality,
            granularity,
            mode: StreamMode::Continuous,
            interval: SimDuration::from_secs(60),
            filter: Filter::pass_all(),
            sink: StreamSink::Local,
        }
    }

    /// A social-event-based stream: samples once per OSN trigger.
    #[must_use]
    pub fn social_event_based(modality: Modality, granularity: Granularity) -> Self {
        StreamSpec {
            mode: StreamMode::SocialEventBased,
            ..StreamSpec::continuous(modality, granularity)
        }
    }

    /// Sets the duty cycle (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "stream interval must be non-zero");
        self.interval = interval;
        self
    }

    /// Sets the filter (builder-style).
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the sink (builder-style).
    #[must_use]
    pub fn with_sink(mut self, sink: StreamSink) -> Self {
        self.sink = sink;
        self
    }

    /// The mode the stream *effectively* runs in: a nominally continuous
    /// stream whose filter has OSN conditions is driven by triggers
    /// (that's how the Facebook Sensor Map snippet turns three continuous
    /// streams into social-event streams just by setting a filter).
    pub fn effective_mode(&self) -> StreamMode {
        if self.filter.has_osn_condition() {
            StreamMode::SocialEventBased
        } else {
            self.mode
        }
    }
}

/// Rejects a zero duty cycle: no timer can run at period zero. Every
/// entry point that accepts an interval checks it, because
/// [`StreamSpec::interval`] is a public field that decoding does not
/// check.
pub(crate) fn check_interval(interval: SimDuration) -> sensocial_types::Result<()> {
    if interval.is_zero() {
        return Err(Error::InvalidConfig("interval must be non-zero".into()));
    }
    Ok(())
}

/// A configuration command pushed from the server to a device over the
/// broker (the paper's config-file download + `FilterMerge`).
///
/// Every variant carries a server-assigned `epoch`: a monotonically
/// increasing stamp that lets devices converge on the *latest* command per
/// stream even when QoS-1 redelivery or an outage reorders pushes. Epoch
/// `0` (what an absent `epoch` decodes as) marks a legacy command that is
/// always applied — old wire forms without the field keep parsing.
///
/// Commands dispatched by the campaign scheduler additionally carry a
/// `token` — a scheduler-assigned occurrence identity. Token-carrying
/// commands are acknowledged *positively* by devices on success, and a
/// device remembers which tokens it has applied so a redispatch of the
/// same occurrence (a fresh epoch after a scheduler crash) is acked
/// without being applied twice: exactly-once effect per occurrence. A
/// `None` token (the default; skipped on the wire) is the pre-campaign
/// behaviour — no positive ack, no dedup — so existing traffic is
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigCommand {
    /// Create a stream with a server-assigned id.
    Create {
        /// Target device.
        device: DeviceId,
        /// Server-assigned stream id.
        stream: StreamId,
        /// The stream to create.
        spec: StreamSpec,
        /// Convergence stamp (see the enum docs).
        epoch: u64,
        /// Campaign occurrence identity (see the enum docs).
        token: Option<String>,
    },
    /// Destroy a stream.
    Destroy {
        /// Target device.
        device: DeviceId,
        /// Stream to destroy.
        stream: StreamId,
        /// Convergence stamp (see the enum docs).
        epoch: u64,
        /// Campaign occurrence identity (see the enum docs).
        token: Option<String>,
    },
    /// Replace a stream's filter (the distributed-filter update path).
    SetFilter {
        /// Target device.
        device: DeviceId,
        /// Stream whose filter changes.
        stream: StreamId,
        /// The new filter.
        filter: Filter,
        /// Convergence stamp (see the enum docs).
        epoch: u64,
        /// Campaign occurrence identity (see the enum docs).
        token: Option<String>,
    },
    /// Change a stream's duty cycle.
    SetInterval {
        /// Target device.
        device: DeviceId,
        /// Stream whose interval changes.
        stream: StreamId,
        /// New interval in milliseconds.
        interval_ms: u64,
        /// Convergence stamp (see the enum docs).
        epoch: u64,
        /// Campaign occurrence identity (see the enum docs).
        token: Option<String>,
    },
}

/// An object whose `command` member names the variant, followed by the
/// variant's fields; a `None` token is left out.
impl Json for ConfigCommand {
    fn write_json(&self, w: &mut Writer<'_>) {
        let mut obj = w.object();
        match self {
            ConfigCommand::Create {
                device,
                stream,
                spec,
                epoch,
                token,
            } => {
                obj.key("command").str("create");
                json_members!(write obj; device, stream, spec, epoch, token: omit_none);
            }
            ConfigCommand::Destroy {
                device,
                stream,
                epoch,
                token,
            } => {
                obj.key("command").str("destroy");
                json_members!(write obj; device, stream, epoch, token: omit_none);
            }
            ConfigCommand::SetFilter {
                device,
                stream,
                filter,
                epoch,
                token,
            } => {
                obj.key("command").str("set_filter");
                json_members!(write obj; device, stream, filter, epoch, token: omit_none);
            }
            ConfigCommand::SetInterval {
                device,
                stream,
                interval_ms,
                epoch,
                token,
            } => {
                obj.key("command").str("set_interval");
                json_members!(write obj; device, stream, interval_ms, epoch, token: omit_none);
            }
        }
        obj.end();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let command = r.tagged("command")?;
        match &*command {
            "create" => json_members!(read r; ConfigCommand::Create {
                device,
                stream,
                spec,
                epoch: default,
                token: omit_none,
            }),
            "destroy" => json_members!(read r; ConfigCommand::Destroy {
                device,
                stream,
                epoch: default,
                token: omit_none,
            }),
            "set_filter" => json_members!(read r; ConfigCommand::SetFilter {
                device,
                stream,
                filter,
                epoch: default,
                token: omit_none,
            }),
            "set_interval" => json_members!(read r; ConfigCommand::SetInterval {
                device,
                stream,
                interval_ms,
                epoch: default,
                token: omit_none,
            }),
            other => {
                Err(r.unknown_variant(other, &["create", "destroy", "set_filter", "set_interval"]))
            }
        }
    }
}

impl ConfigCommand {
    /// Serializes to the JSON wire form used on the config topic.
    pub fn to_wire(&self) -> String {
        json::to_string(self)
    }

    /// Parses the JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns the decoding error on malformed input.
    pub fn from_wire(payload: &str) -> Result<Self, json::Error> {
        json::from_str(payload)
    }

    /// The device the command addresses.
    pub fn device(&self) -> &DeviceId {
        match self {
            ConfigCommand::Create { device, .. }
            | ConfigCommand::Destroy { device, .. }
            | ConfigCommand::SetFilter { device, .. }
            | ConfigCommand::SetInterval { device, .. } => device,
        }
    }

    /// The stream the command addresses.
    pub fn stream(&self) -> StreamId {
        match self {
            ConfigCommand::Create { stream, .. }
            | ConfigCommand::Destroy { stream, .. }
            | ConfigCommand::SetFilter { stream, .. }
            | ConfigCommand::SetInterval { stream, .. } => *stream,
        }
    }

    /// The command's convergence epoch (`0` = legacy, always applied).
    pub fn epoch(&self) -> u64 {
        match self {
            ConfigCommand::Create { epoch, .. }
            | ConfigCommand::Destroy { epoch, .. }
            | ConfigCommand::SetFilter { epoch, .. }
            | ConfigCommand::SetInterval { epoch, .. } => *epoch,
        }
    }

    /// Returns the command restamped with `epoch` (builder-style; used by
    /// the server just before pushing).
    #[must_use]
    pub fn with_epoch(mut self, new_epoch: u64) -> Self {
        match &mut self {
            ConfigCommand::Create { epoch, .. }
            | ConfigCommand::Destroy { epoch, .. }
            | ConfigCommand::SetFilter { epoch, .. }
            | ConfigCommand::SetInterval { epoch, .. } => *epoch = new_epoch,
        }
        self
    }

    /// The campaign occurrence token, when the command carries one.
    pub fn token(&self) -> Option<&str> {
        match self {
            ConfigCommand::Create { token, .. }
            | ConfigCommand::Destroy { token, .. }
            | ConfigCommand::SetFilter { token, .. }
            | ConfigCommand::SetInterval { token, .. } => token.as_deref(),
        }
    }

    /// Returns the command stamped with a campaign occurrence token
    /// (builder-style; used by the campaign dispatcher just before
    /// pushing).
    #[must_use]
    pub fn with_token(mut self, new_token: impl Into<String>) -> Self {
        match &mut self {
            ConfigCommand::Create { token, .. }
            | ConfigCommand::Destroy { token, .. }
            | ConfigCommand::SetFilter { token, .. }
            | ConfigCommand::SetInterval { token, .. } => *token = Some(new_token.into()),
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::filter::{Condition, ConditionLhs, Operator};

    #[test]
    fn builders_set_fields() {
        let spec = StreamSpec::continuous(Modality::Microphone, Granularity::Classified)
            .with_interval(SimDuration::from_secs(30))
            .with_sink(StreamSink::Server);
        assert_eq!(spec.interval, SimDuration::from_secs(30));
        assert_eq!(spec.sink, StreamSink::Server);
        assert_eq!(spec.effective_mode(), StreamMode::Continuous);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        let _ = StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
            .with_interval(SimDuration::ZERO);
    }

    #[test]
    fn osn_filter_makes_stream_event_based() {
        let spec = StreamSpec::continuous(Modality::Location, Granularity::Raw).with_filter(
            Filter::new(vec![Condition::new(
                ConditionLhs::OsnActivity,
                Operator::Equals,
                "active",
            )]),
        );
        assert_eq!(spec.mode, StreamMode::Continuous);
        assert_eq!(spec.effective_mode(), StreamMode::SocialEventBased);
    }

    #[test]
    fn commands_round_trip_the_wire() {
        let cmds = vec![
            ConfigCommand::Create {
                device: DeviceId::new("p1"),
                stream: StreamId::new(4),
                spec: StreamSpec::social_event_based(
                    Modality::Accelerometer,
                    Granularity::Classified,
                ),
                epoch: 1,
                token: None,
            },
            ConfigCommand::Destroy {
                device: DeviceId::new("p1"),
                stream: StreamId::new(4),
                epoch: 2,
                token: None,
            },
            ConfigCommand::SetFilter {
                device: DeviceId::new("p1"),
                stream: StreamId::new(4),
                filter: Filter::new(vec![Condition::new(
                    ConditionLhs::Place,
                    Operator::Equals,
                    "Paris",
                )]),
                epoch: 3,
                token: None,
            },
            ConfigCommand::SetInterval {
                device: DeviceId::new("p1"),
                stream: StreamId::new(4),
                interval_ms: 30_000,
                epoch: 4,
                token: None,
            },
        ];
        for (i, cmd) in cmds.into_iter().enumerate() {
            let wire = cmd.to_wire();
            assert_eq!(ConfigCommand::from_wire(&wire).unwrap(), cmd);
            assert_eq!(cmd.device().as_str(), "p1");
            assert_eq!(cmd.stream(), StreamId::new(4));
            assert_eq!(cmd.epoch(), i as u64 + 1);
        }
        assert!(ConfigCommand::from_wire("{}").is_err());
    }

    #[test]
    fn epoch_is_restamped_and_legacy_wire_parses_as_epoch_zero() {
        let cmd = ConfigCommand::Destroy {
            device: DeviceId::new("p1"),
            stream: StreamId::new(9),
            epoch: 0,
            token: None,
        };
        assert_eq!(cmd.clone().with_epoch(17).epoch(), 17);
        // A pre-epoch wire form (no `epoch` key) still parses — as the
        // always-applied legacy epoch 0.
        let legacy = r#"{"command":"destroy","device":"p1","stream":9}"#;
        let parsed = ConfigCommand::from_wire(legacy).unwrap();
        assert_eq!(parsed.epoch(), 0);
        assert_eq!(parsed.stream(), StreamId::new(9));
        assert_eq!(parsed.token(), None);
    }

    /// Wire strings that predate this codec, pinned so the bytes never move.
    #[test]
    fn command_wire_matches_the_pinned_strings() {
        let filter = Filter::new(vec![
            Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
            Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 7),
            Condition::new(ConditionLhs::WifiDensity, Operator::LessThan, 2.5)
                .about(sensocial_types::UserId::new("bob")),
            Condition::new(ConditionLhs::OsnTopic, Operator::NotEquals, -3),
        ]);
        let set_filter = ConfigCommand::SetFilter {
            device: DeviceId::new("d"),
            stream: StreamId::new(4),
            filter,
            epoch: 3,
            token: Some("t".into()),
        };
        let wire = r#"{"command":"set_filter","device":"d","stream":4,"filter":{"conditions":[{"lhs":"physical_activity","op":"equals","value":"walking","subject":null},{"lhs":"hour_of_day","op":"greater_than","value":7,"subject":null},{"lhs":"wifi_density","op":"less_than","value":2.5,"subject":"bob"},{"lhs":"osn_topic","op":"not_equals","value":-3,"subject":null}]},"epoch":3,"token":"t"}"#;
        assert_eq!(set_filter.to_wire(), wire);
        assert_eq!(ConfigCommand::from_wire(wire).unwrap(), set_filter);

        let create = ConfigCommand::Create {
            device: DeviceId::new("d"),
            stream: StreamId::new(3),
            spec: StreamSpec::social_event_based(Modality::Microphone, Granularity::Classified),
            epoch: 0,
            token: None,
        };
        assert_eq!(
            create.to_wire(),
            r#"{"command":"create","device":"d","stream":3,"spec":{"modality":"microphone","granularity":"classified","mode":"social_event_based","interval":60000,"filter":{"conditions":[]},"sink":"local"},"epoch":0}"#
        );
        // The tag may come last, after the members it governs.
        let late_tag = r#"{"device":"d","stream":4,"interval_ms":30000,"command":"set_interval"}"#;
        assert_eq!(
            ConfigCommand::from_wire(late_tag).unwrap(),
            ConfigCommand::SetInterval {
                device: DeviceId::new("d"),
                stream: StreamId::new(4),
                interval_ms: 30_000,
                epoch: 0,
                token: None,
            }
        );
    }

    #[test]
    fn tokenless_wire_is_unchanged_and_tokens_round_trip() {
        let cmd = ConfigCommand::SetInterval {
            device: DeviceId::new("p1"),
            stream: StreamId::new(2),
            interval_ms: 5_000,
            epoch: 3,
            token: None,
        };
        // A `None` token never appears on the wire, so pre-campaign
        // traffic stays byte-identical.
        assert!(!cmd.to_wire().contains("token"));

        let stamped = cmd.with_token("camp-a/occ-4");
        assert_eq!(stamped.token(), Some("camp-a/occ-4"));
        let wire = stamped.to_wire();
        assert!(wire.contains(r#""token":"camp-a/occ-4""#));
        assert_eq!(ConfigCommand::from_wire(&wire).unwrap(), stamped);
        // Restamping the epoch (a redispatch) keeps the token: the
        // occurrence identity survives scheduler crash + redispatch.
        assert_eq!(stamped.with_epoch(99).token(), Some("camp-a/occ-4"));
    }
}
