//! ConWeb built **on** SenSocial — the paper's 23-line mobile app plus a
//! small server app.
//!
//! The mobile side is nothing but stream creation: SenSocial's remote
//! management, classification, filtering and uplink do the rest. The
//! server side subscribes once and writes each user's latest context into
//! the `conweb_context` collection the Web server renders from.

use sensocial::client::ClientManager;
use sensocial::server::{ServerManager, StreamSelector};
use sensocial::{Filter, Granularity, Modality, StreamId, StreamSink, StreamSpec};
use sensocial_runtime::json;
use sensocial_runtime::Scheduler;
use sensocial_storage::{Collection, Query};
use sensocial_types::{ContextData, UserId};

/// The mobile part: three context streams plus one OSN-coupled stream,
/// all uplinked. That's all — "the ConWeb application can be configured to
/// receive data streams only related to physical context or the OSN
/// actions associated to it as well" (paper §6.2); this is the latter
/// configuration.
#[derive(Debug)]
pub struct ConWebMobile {
    /// The created streams.
    pub streams: [StreamId; 4],
}

impl ConWebMobile {
    /// Installs the streams (the paper's entire mobile implementation).
    pub fn install(sched: &mut Scheduler, manager: &ClientManager) -> sensocial::Result<Self> {
        let s1 = manager.create_stream(
            sched,
            StreamSpec::continuous(Modality::Accelerometer, Granularity::Classified)
                .with_sink(StreamSink::Server),
        )?;
        let s2 = manager.create_stream(
            sched,
            StreamSpec::continuous(Modality::Microphone, Granularity::Classified)
                .with_sink(StreamSink::Server),
        )?;
        let s3 = manager.create_stream(
            sched,
            StreamSpec::continuous(Modality::Location, Granularity::Classified)
                .with_sink(StreamSink::Server),
        )?;
        // The OSN-coupled stream: senses once per OSN action, so the
        // action (and its topic) reaches the server paired with context.
        let s4 = manager.create_stream(
            sched,
            StreamSpec::social_event_based(Modality::Accelerometer, Granularity::Classified)
                .with_sink(StreamSink::Server),
        )?;
        Ok(ConWebMobile {
            streams: [s1, s2, s3, s4],
        })
    }
}

/// The server part: one listener overwriting each user's context row
/// ("the SenSocial server component directs the incoming data streams to
/// the database where it overwrites the latest context information").
#[derive(Debug)]
pub struct ConWebServer {
    /// The context rows the Web server renders from.
    pub context: Collection,
}

impl ConWebServer {
    /// Installs the server-side application.
    ///
    /// # Errors
    ///
    /// Returns [`sensocial::Error::PlanRejected`] if the subscription plan
    /// fails the server's static verification.
    pub fn install(server: &ServerManager) -> sensocial::Result<Self> {
        let context = server.db().collection("conweb_context");
        let rows = context.clone();
        server.register_listener(
            StreamSelector::AllUplinks,
            Filter::pass_all(),
            move |_s, event| {
                let field = match &event.data {
                    ContextData::Classified(c) => match c.modality() {
                        Modality::Accelerometer => Some(("activity", c.value_string())),
                        Modality::Microphone => Some(("audio", c.value_string())),
                        Modality::Location => Some(("place", c.value_string())),
                        _ => None,
                    },
                    ContextData::Raw(_) => None,
                };
                let topic = event
                    .osn_action
                    .as_ref()
                    .and_then(|a| a.topic.clone())
                    .map(|t| ("last_topic", t));
                upsert(&rows, &event.user, field.into_iter().chain(topic));
            },
        )?;
        Ok(ConWebServer { context })
    }
}

/// Writes fields into the user's single context row, creating it if
/// needed.
fn upsert(rows: &Collection, user: &UserId, fields: impl Iterator<Item = (&'static str, String)>) {
    let fields: Vec<(&str, json::Value)> =
        fields.map(|(k, v)| (k, json::Value::String(v))).collect();
    if fields.is_empty() {
        return;
    }
    let query = Query::eq("user", user.as_str());
    if rows.update_set(&query, &fields) == 0 {
        let mut doc = json!({"user": user.as_str()});
        for (k, v) in fields {
            doc[k] = v;
        }
        let _ = rows.insert(doc);
    }
}
