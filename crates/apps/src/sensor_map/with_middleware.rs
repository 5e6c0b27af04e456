//! Facebook Sensor Map built **on** SenSocial.
//!
//! This is the paper's Figure 7 code, transliterated: three streams
//! (classified accelerometer, classified microphone, raw location), all
//! filtered on `facebook_activity equals active`, so the middleware samples
//! and couples context exactly when the user acts on the OSN. The mobile
//! side renders coupled events onto a local map and the stream sink also
//! uplinks them; the server side stores every coupled record in the
//! database for multi-user querying and keeps a global map.

use sensocial::client::ClientManager;
use sensocial::server::{ServerManager, StreamSelector};
use sensocial::{
    Condition, ConditionLhs, Filter, Granularity, Modality, Operator, StreamEvent, StreamId,
    StreamSink, StreamSpec,
};
use sensocial_analysis::{analyze, AnalysisEnv, FilterPlan};
use sensocial_runtime::json;
use sensocial_runtime::Scheduler;
use sensocial_storage::Collection;
use sensocial_types::{ContextData, RawSample};

use crate::map::{MapView, Marker};

/// The mobile part: the paper's `FacebookSensorMapService`.
#[derive(Debug)]
pub struct SensorMapMobile {
    /// The three streams created on the device.
    pub streams: [StreamId; 3],
    /// The local map the app renders into.
    pub map: MapView,
}

impl SensorMapMobile {
    /// Installs the app on a device — the direct equivalent of the
    /// paper's Figure 7 snippet.
    pub fn install(sched: &mut Scheduler, manager: &ClientManager) -> sensocial::Result<Self> {
        // Create list of filter condition(s): facebook_activity == active.
        // The plan is pre-flighted through the static verifier so a typo in
        // the filter surfaces here as diagnostics, not as a stream that
        // silently never fires; all three streams share the normalized form.
        let plan = FilterPlan::device(
            Modality::Accelerometer,
            Granularity::Classified,
            Filter::new(vec![Condition::new(
                ConditionLhs::OsnActivity,
                Operator::Equals,
                "active",
            )]),
        );
        let filter = analyze(&plan, &AnalysisEnv::new())
            .map_err(sensocial::Error::from)?
            .filter;

        // Three streams — classified accelerometer, classified microphone,
        // raw location — with the filter set on each.
        let s1 = manager.create_stream(
            sched,
            StreamSpec::continuous(Modality::Accelerometer, Granularity::Classified)
                .with_filter(filter.clone())
                .with_sink(StreamSink::Server),
        )?;
        let s2 = manager.create_stream(
            sched,
            StreamSpec::continuous(Modality::Microphone, Granularity::Classified)
                .with_filter(filter.clone())
                .with_sink(StreamSink::Server),
        )?;
        let s3 = manager.create_stream(
            sched,
            StreamSpec::continuous(Modality::Location, Granularity::Raw)
                .with_filter(filter)
                .with_sink(StreamSink::Server),
        )?;

        // Subscribe and render coupled events onto the local map.
        let map = MapView::new();
        for stream in [s1, s2, s3] {
            let map = map.clone();
            manager.register_listener(stream, move |_s, event| {
                map.add(event_to_marker(event));
            });
        }

        Ok(SensorMapMobile {
            streams: [s1, s2, s3],
            map,
        })
    }
}

/// The server part: stores coupled records and keeps a global map.
#[derive(Debug)]
pub struct SensorMapServer {
    /// Global map over all users.
    pub map: MapView,
    /// The `sensor_map` collection holding every coupled record.
    pub records: Collection,
}

impl SensorMapServer {
    /// Installs the server-side application.
    ///
    /// # Errors
    ///
    /// Returns [`sensocial::Error::PlanRejected`] if the subscription plan
    /// fails the server's static verification (it cannot: `pass_all` is
    /// trivially sound — the `Result` exists for signature honesty).
    pub fn install(server: &ServerManager) -> sensocial::Result<Self> {
        let map = MapView::new();
        let records = server.db().collection("sensor_map");
        let (m, r) = (map.clone(), records.clone());
        server.register_listener(
            StreamSelector::AllUplinks,
            Filter::pass_all(),
            move |_s, event| {
                // Only OSN-coupled events belong on the sensor map.
                if event.osn_action.is_none() {
                    return;
                }
                m.add(event_to_marker(event));
                let marker = event_to_marker(event);
                let _ = r.insert(json!({
                    "user": event.user.as_str(),
                    "kind": marker.action_kind,
                    "content": marker.action_content,
                    "activity": marker.activity,
                    "audio": marker.audio,
                    "lat": marker.position.map(|p| p.lat),
                    "lon": marker.position.map(|p| p.lon),
                    "at_ms": event.at.as_millis(),
                }));
            },
        )?;
        Ok(SensorMapServer { map, records })
    }
}

/// Projects a coupled stream event onto a map marker.
fn event_to_marker(event: &StreamEvent) -> Marker {
    let action = event.osn_action.as_ref();
    let mut marker = Marker {
        user: event.user.clone(),
        position: None,
        activity: None,
        audio: None,
        action_kind: action.map(|a| a.kind.name().to_owned()).unwrap_or_default(),
        action_content: action.map(|a| a.content.clone()).unwrap_or_default(),
        at: event.at,
    };
    match &event.data {
        ContextData::Raw(RawSample::Location(fix)) => marker.position = Some(fix.position),
        ContextData::Classified(c) => match c.modality() {
            Modality::Accelerometer => marker.activity = Some(c.value_string()),
            Modality::Microphone => marker.audio = Some(c.value_string()),
            _ => {}
        },
        _ => {}
    }
    marker
}
