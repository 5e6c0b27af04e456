//! Deterministic event schedules: the intermediate form between a
//! [`ScenarioSpec`](super::ScenarioSpec) and a running [`World`].
//!
//! A schedule is plain data — population, streams, mobility hand-offs,
//! OSN posts and fault windows, each pinned to a virtual-clock instant —
//! produced by a *pure* function of `(spec, seed)`. Replaying it against
//! a [`World`](crate::World) is the only side-effectful step, so the same
//! spec generates byte-identical schedules forever (a property the test
//! suite enforces through [`Schedule::to_wire`]).

use sensocial::{StreamMode, StreamSink, StreamSpec};
use sensocial_runtime::{SimDuration, Timestamp};
use sensocial_sensors::MobilityModel;
use sensocial_types::{Granularity, Modality};

/// One scripted action, pinned to a virtual instant by [`ScheduledEvent`].
#[derive(Debug, Clone)]
pub enum ScheduledAction {
    /// Provision a fully wired virtual phone at a position.
    AddDevice {
        /// Owning user id.
        user: String,
        /// Device id (its network endpoint is `<device>-ep`).
        device: String,
        /// Initial latitude, degrees.
        lat: f64,
        /// Initial longitude, degrees.
        lon: f64,
    },
    /// Turn on the supervised broker-client lifecycle (keepalive probing
    /// plus capped-exponential reconnect) for a device.
    Supervise {
        /// Device to supervise.
        device: String,
        /// Keepalive probe interval, milliseconds.
        keepalive_ms: u64,
    },
    /// Create a server-sinked stream on a device.
    CreateStream {
        /// Device the stream samples on.
        device: String,
        /// Context modality.
        modality: Modality,
        /// Sample granularity.
        granularity: Granularity,
        /// Duty-cycled or OSN-triggered.
        mode: StreamMode,
        /// Sampling interval for continuous streams, milliseconds.
        interval_ms: u64,
    },
    /// Hand a device a new mobility model (flash-crowd convergence and
    /// commute flows are scripted as mid-run `Route` hand-offs).
    StartMobility {
        /// Device to move.
        device: String,
        /// The model the mobility driver follows from this instant.
        model: MobilityModel,
    },
    /// A topic-tagged OSN post (seed posts and cascade re-shares alike).
    Post {
        /// Posting user.
        user: String,
        /// Topic tag.
        topic: String,
        /// Post body.
        content: String,
    },
    /// A staggered square-wave churn wave over a set of devices, composed
    /// through [`Network::churn_wave`](sensocial_net::Network::churn_wave).
    ChurnWave {
        /// Devices whose endpoints flap (in stagger order).
        devices: Vec<String>,
        /// Wave start, virtual milliseconds.
        from_ms: u64,
        /// Wave end (exclusive), virtual milliseconds.
        until_ms: u64,
        /// Down phase length, milliseconds.
        down_ms: u64,
        /// Up phase length, milliseconds.
        up_ms: u64,
        /// Per-device stagger offset, milliseconds.
        stagger_ms: u64,
    },
    /// A single hard outage window for one device's endpoint.
    Outage {
        /// Device whose endpoint goes dark.
        device: String,
        /// Outage start, virtual milliseconds.
        from_ms: u64,
        /// Outage end (exclusive), virtual milliseconds.
        until_ms: u64,
    },
    /// Register one reconfiguration campaign per provisioned device on
    /// the campaign scheduler (all under the `"scenario"` app), targeting
    /// each device's continuous stream.
    LaunchCampaigns {
        /// First occurrence due time, virtual milliseconds.
        start_ms: u64,
        /// Gap between occurrences, milliseconds.
        period_ms: u64,
        /// Occurrences per campaign.
        occurrences: u32,
        /// Sampling interval each occurrence pushes, milliseconds.
        interval_ms: u64,
    },
    /// Kill the live campaign-scheduler instance: it stops dispatching
    /// and ignores every ack from this instant (simulating process
    /// death; its journal survives in server storage).
    CrashScheduler,
    /// Stand up a replacement campaign scheduler recovered from the
    /// journal and start it (redriving whatever timed out while dead).
    RecoverScheduler,
}

/// An action and the virtual instant it fires.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the runner applies the action.
    pub at: Timestamp,
    /// What happens.
    pub action: ScheduledAction,
}

/// A complete, time-ordered scenario script.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Total virtual time the scenario runs for.
    pub duration: SimDuration,
    /// How many backlog probe slices the runner samples.
    pub probe_slices: usize,
    events: Vec<ScheduledEvent>,
}

impl Schedule {
    /// Builds a schedule from unordered events, sorting them stably by
    /// timestamp (generation order breaks ties, so generation stays
    /// deterministic).
    pub fn new(
        duration: SimDuration,
        probe_slices: usize,
        mut events: Vec<ScheduledEvent>,
    ) -> Self {
        events.sort_by_key(|e| e.at);
        Schedule {
            duration,
            probe_slices,
            events,
        }
    }

    /// The events, in non-decreasing time order.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script is empty (a zero-device scenario still runs —
    /// the world just idles under the virtual clock).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scripted OSN posts — the floor the acceptance harness
    /// puts under `server.osn_actions`.
    pub fn post_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.action, ScheduledAction::Post { .. }))
            .count() as u64
    }

    /// Number of `AddDevice` events — the population the script provisions.
    pub fn device_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, ScheduledAction::AddDevice { .. }))
            .count()
    }

    /// Canonical byte-stable text form: one line per event, preceded by a
    /// header. Two schedules are identical iff their wire forms are equal,
    /// which is how the same-seed determinism property is asserted.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "schedule v1 duration_ms={} probe_slices={} events={}\n",
            self.duration.as_millis(),
            self.probe_slices,
            self.events.len()
        ));
        for event in &self.events {
            out.push_str(&format!(
                "{:012} {}\n",
                event.at.as_millis(),
                encode_action(&event.action)
            ));
        }
        out
    }
}

/// Renders one action as a canonical single line (floats at fixed
/// precision so the encoding is byte-stable).
fn encode_action(action: &ScheduledAction) -> String {
    match action {
        ScheduledAction::AddDevice {
            user,
            device,
            lat,
            lon,
        } => format!("add-device user={user} device={device} lat={lat:.7} lon={lon:.7}"),
        ScheduledAction::Supervise {
            device,
            keepalive_ms,
        } => format!("supervise device={device} keepalive_ms={keepalive_ms}"),
        ScheduledAction::CreateStream {
            device,
            modality,
            granularity,
            mode,
            interval_ms,
        } => format!(
            "create-stream device={device} modality={modality:?} granularity={granularity:?} mode={mode:?} interval_ms={interval_ms}"
        ),
        ScheduledAction::StartMobility { device, model } => {
            format!("start-mobility device={device} model={}", encode_model(model))
        }
        ScheduledAction::Post {
            user,
            topic,
            content,
        } => format!("post user={user} topic={topic} content={content}"),
        ScheduledAction::ChurnWave {
            devices,
            from_ms,
            until_ms,
            down_ms,
            up_ms,
            stagger_ms,
        } => format!(
            "churn-wave from_ms={from_ms} until_ms={until_ms} down_ms={down_ms} up_ms={up_ms} stagger_ms={stagger_ms} devices={}",
            devices.join(",")
        ),
        ScheduledAction::Outage {
            device,
            from_ms,
            until_ms,
        } => format!("outage device={device} from_ms={from_ms} until_ms={until_ms}"),
        ScheduledAction::LaunchCampaigns {
            start_ms,
            period_ms,
            occurrences,
            interval_ms,
        } => format!(
            "launch-campaigns start_ms={start_ms} period_ms={period_ms} occurrences={occurrences} interval_ms={interval_ms}"
        ),
        ScheduledAction::CrashScheduler => "crash-scheduler".to_owned(),
        ScheduledAction::RecoverScheduler => "recover-scheduler".to_owned(),
    }
}

fn encode_model(model: &MobilityModel) -> String {
    match model {
        MobilityModel::Stationary => "stationary".to_owned(),
        MobilityModel::RandomWaypoint {
            center,
            radius_m,
            speed_mps,
        } => format!(
            "waypoint lat={:.7} lon={:.7} radius_m={radius_m:.2} speed_mps={speed_mps:.2}",
            center.lat, center.lon
        ),
        MobilityModel::Route {
            waypoints,
            speed_mps,
        } => {
            let points: Vec<String> = waypoints
                .iter()
                .map(|p| format!("{:.7},{:.7}", p.lat, p.lon))
                .collect();
            format!(
                "route speed_mps={speed_mps:.2} waypoints={}",
                points.join(";")
            )
        }
    }
}

/// Builds the [`StreamSpec`] a `CreateStream` action describes. All
/// scenario streams sink to the server (that is the traffic under test);
/// a zero interval is clamped to one millisecond because
/// [`StreamSpec::with_interval`] rejects zero.
pub(crate) fn build_stream_spec(
    modality: Modality,
    granularity: Granularity,
    mode: StreamMode,
    interval_ms: u64,
) -> StreamSpec {
    let spec = match mode {
        StreamMode::Continuous => StreamSpec::continuous(modality, granularity)
            .with_interval(SimDuration::from_millis(interval_ms.max(1))),
        StreamMode::SocialEventBased => StreamSpec::social_event_based(modality, granularity),
    };
    spec.with_sink(StreamSink::Server)
}
