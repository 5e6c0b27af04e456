//! The no-middleware server side.
//!
//! Without SenSocial the server application must itself: keep a
//! user/device registry; receive the OSN plug-in callback; model the
//! processing pipeline; compile, sequence and publish sensing commands per
//! device; subscribe to and parse every device's reports; keep the global
//! map and persist records for querying. Compare with the middleware
//! variant's single `register_listener` call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_broker::{BrokerClient, QoS};
use sensocial_net::LatencyModel;
use sensocial_osn::PushPlugin;
use sensocial_runtime::json;
use sensocial_runtime::{Scheduler, SimRng, Timestamp};
use sensocial_storage::{Collection, Database, Query};
use sensocial_types::{DeviceId, OsnAction, UserId};

use crate::map::{MapView, Marker};

use super::protocol::{trigger_topic, ContextReport, SenseCommand, REPORT_WILDCARD};

struct ServerState {
    devices_by_user: HashMap<UserId, Vec<DeviceId>>,
    next_seq: u64,
    commands_sent: u64,
    reports_received: u64,
    processing_delay: LatencyModel,
    rng: SimRng,
    action_log: Vec<(Timestamp, Timestamp)>,
}

/// The no-middleware Facebook Sensor Map server app.
pub struct RawSensorMapServer {
    broker: BrokerClient,
    /// The global map over all users.
    pub map: MapView,
    /// Persistent coupled records (for the "complex OSN and context-based
    /// multiuser querying" the paper mentions).
    pub records: Collection,
    state: Rc<RefCell<ServerState>>,
}

impl std::fmt::Debug for RawSensorMapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("RawSensorMapServer")
            .field("commands_sent", &state.commands_sent)
            .field("reports_received", &state.reports_received)
            .finish_non_exhaustive()
    }
}

impl RawSensorMapServer {
    /// Installs the server app: connects the broker session, subscribes to
    /// all report topics and hooks the OSN push plug-in.
    pub fn install(
        sched: &mut Scheduler,
        broker: BrokerClient,
        db: &Database,
        plugin: &PushPlugin,
        rng: SimRng,
    ) -> Rc<Self> {
        let app = Rc::new(RawSensorMapServer {
            broker: broker.clone(),
            map: MapView::new(),
            records: db.collection("raw_sensor_map"),
            state: Rc::new(RefCell::new(ServerState {
                devices_by_user: HashMap::new(),
                next_seq: 0,
                commands_sent: 0,
                reports_received: 0,
                processing_delay: LatencyModel::Normal {
                    mean_s: 8.8,
                    std_s: 0.9,
                    min_s: 0.5,
                },
                rng,
                action_log: Vec::new(),
            })),
        });

        broker.connect(sched);
        let handler = app.clone();
        broker.subscribe(
            sched,
            REPORT_WILDCARD,
            QoS::AtMostOnce,
            move |s, _topic, payload| {
                handler.on_report(s, payload);
            },
        );
        let handler = app.clone();
        plugin.set_receiver(move |s, action| {
            handler.on_osn_action(s, action);
        });
        app
    }

    /// Registers a user's device so actions can be routed to it.
    pub fn register_device(&self, user: UserId, device: DeviceId) {
        self.state
            .borrow_mut()
            .devices_by_user
            .entry(user)
            .or_default()
            .push(device);
    }

    /// Commands published so far.
    pub fn commands_sent(&self) -> u64 {
        self.state.borrow().commands_sent
    }

    /// Reports parsed so far.
    pub fn reports_received(&self) -> u64 {
        self.state.borrow().reports_received
    }

    /// The `(action time, receive time)` log, as the middleware server
    /// keeps for Table 3.
    pub fn action_log(&self) -> Vec<(Timestamp, Timestamp)> {
        self.state.borrow().action_log.clone()
    }

    /// Coupled records for one user (the multi-user query path).
    pub fn records_for(&self, user: &UserId) -> usize {
        self.records.count(&Query::eq("user", user.as_str()))
    }

    fn on_osn_action(&self, sched: &mut Scheduler, action: OsnAction) {
        let now = sched.now();
        let delay = {
            let mut state = self.state.borrow_mut();
            state.action_log.push((action.at, now));
            let mut rng = state.rng.split("processing");
            state.processing_delay.sample(&mut rng)
        };
        let this = self.state.clone();
        let broker = self.broker.clone();
        sched.schedule_after(delay, move |s| {
            let commands: Vec<(DeviceId, SenseCommand)> = {
                let mut state = this.borrow_mut();
                let devices = state
                    .devices_by_user
                    .get(&action.user)
                    .cloned()
                    .unwrap_or_default();
                devices
                    .into_iter()
                    .map(|device| {
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        state.commands_sent += 1;
                        (
                            device,
                            SenseCommand {
                                seq,
                                user: action.user.clone(),
                                action_kind: action.kind.name().to_owned(),
                                action_content: action.content.clone(),
                                action_at_ms: action.at.as_millis(),
                            },
                        )
                    })
                    .collect()
            };
            for (device, command) in commands {
                broker.publish(
                    s,
                    trigger_topic(&device),
                    command.encode(),
                    QoS::AtLeastOnce,
                    false,
                );
            }
        });
    }

    fn on_report(&self, _sched: &mut Scheduler, payload: &str) {
        let Some(report) = ContextReport::decode(payload) else {
            return;
        };
        self.state.borrow_mut().reports_received += 1;
        self.map.add(Marker {
            user: report.user.clone(),
            position: report.position,
            activity: report.activity.clone(),
            audio: report.audio.clone(),
            action_kind: report.action_kind.clone(),
            action_content: report.action_content.clone(),
            at: Timestamp::from_millis(report.sensed_at_ms),
        });
        let _ = self.records.insert(json!({
            "user": report.user.as_str(),
            "device": report.device.as_str(),
            "kind": report.action_kind,
            "content": report.action_content,
            "activity": report.activity,
            "audio": report.audio,
            "lat": report.position.map(|p| p.lat),
            "lon": report.position.map(|p| p.lon),
            "sensed_at_ms": report.sensed_at_ms,
        }));
    }
}
