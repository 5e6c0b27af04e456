//! The no-middleware mobile side.
//!
//! Without SenSocial the app must itself: keep the broker session and the
//! trigger subscription; deduplicate redelivered commands; check its own
//! privacy checklist before touching each sensor; run one-off sampling and
//! invoke the classifiers by hand; decide, with its own staleness rule,
//! whether to re-sense or reuse cached context; build the uplink payload;
//! meter its own energy; and render the local map. Compare with
//! [`with_middleware`](crate::sensor_map::with_middleware), where all of
//! this is three `create_stream` calls and a filter.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use sensocial_broker::{BrokerClient, QoS};
use sensocial_classify::{ActivityClassifier, AudioClassifier, Classifier};
use sensocial_energy::{BatteryMeter, EnergyComponent, EnergyProfile};
use sensocial_runtime::{Scheduler, SimDuration, Timestamp};
use sensocial_sensors::SensorManager;
use sensocial_types::{ClassifiedContext, DeviceId, Modality, RawSample, UserId};

use crate::map::{MapView, Marker};

use super::context_cache::RawContextCache;
use super::protocol::{report_topic, trigger_topic, ContextReport, SenseCommand};

/// A manually maintained per-modality privacy checklist (what the
/// middleware's PrivacyPolicyManager screens automatically).
#[derive(Debug, Clone)]
pub struct RawPrivacyChecklist {
    /// Allow accelerometer sampling + activity classification.
    pub allow_activity: bool,
    /// Allow microphone sampling + audio classification.
    pub allow_audio: bool,
    /// Allow raw GPS sampling.
    pub allow_location: bool,
}

impl Default for RawPrivacyChecklist {
    fn default() -> Self {
        RawPrivacyChecklist {
            allow_activity: true,
            allow_audio: true,
            allow_location: true,
        }
    }
}

struct MobileState {
    cache: RawContextCache,
    seen_seqs: HashSet<u64>,
    privacy: RawPrivacyChecklist,
    reports_sent: u64,
}

/// The no-middleware Facebook Sensor Map mobile app.
pub struct RawSensorMapMobile {
    user: UserId,
    device: DeviceId,
    sensors: SensorManager,
    broker: BrokerClient,
    battery: BatteryMeter,
    profile: EnergyProfile,
    activity_classifier: ActivityClassifier,
    audio_classifier: AudioClassifier,
    /// The local map, as in the middleware variant.
    pub map: MapView,
    state: Rc<RefCell<MobileState>>,
    /// Staleness bound below which cached context is coupled instead of
    /// re-sensing (the trade-off §7 of the paper describes).
    max_context_age: SimDuration,
}

impl std::fmt::Debug for RawSensorMapMobile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawSensorMapMobile")
            .field("user", &self.user)
            .field("device", &self.device)
            .finish_non_exhaustive()
    }
}

impl RawSensorMapMobile {
    /// Installs the app: connects the broker session and subscribes to the
    /// device's trigger topic.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        sched: &mut Scheduler,
        user: UserId,
        device: DeviceId,
        sensors: SensorManager,
        broker: BrokerClient,
        battery: BatteryMeter,
        profile: EnergyProfile,
        privacy: RawPrivacyChecklist,
    ) -> Rc<Self> {
        let app = Rc::new(RawSensorMapMobile {
            user,
            device: device.clone(),
            sensors,
            broker: broker.clone(),
            battery,
            profile,
            activity_classifier: ActivityClassifier::default(),
            audio_classifier: AudioClassifier::default(),
            map: MapView::new(),
            state: Rc::new(RefCell::new(MobileState {
                cache: RawContextCache::new(),
                seen_seqs: HashSet::new(),
                privacy,
                reports_sent: 0,
            })),
            max_context_age: SimDuration::from_secs(60),
        });

        broker.connect(sched);
        let handler = app.clone();
        broker.subscribe(
            sched,
            trigger_topic(&device).as_str(),
            QoS::AtLeastOnce,
            move |s, _topic, payload| {
                handler.on_trigger(s, payload);
            },
        );
        app
    }

    /// Reports uplinked so far.
    pub fn reports_sent(&self) -> u64 {
        self.state.borrow().reports_sent
    }

    /// Updates the privacy checklist (no automatic stream pause/resume
    /// here — the next trigger simply skips denied sensors).
    pub fn set_privacy(&self, privacy: RawPrivacyChecklist) {
        self.state.borrow_mut().privacy = privacy;
    }

    fn on_trigger(&self, sched: &mut Scheduler, payload: &str) {
        self.battery.charge(
            EnergyComponent::TriggerReception,
            self.profile.trigger_rx_uah,
        );
        let Some(command) = SenseCommand::decode(payload) else {
            return;
        };
        // Deduplicate QoS-1 redelivery by sequence number.
        {
            let mut state = self.state.borrow_mut();
            if !state.seen_seqs.insert(command.seq) {
                return;
            }
            // Bound memory: forget far-past sequence numbers.
            if state.seen_seqs.len() > 4_096 {
                let min = command.seq.saturating_sub(2_048);
                state.seen_seqs.retain(|s| *s >= min);
            }
        }
        // Wrong-user commands (e.g. stale retained messages) are ignored.
        if command.user != self.user {
            return;
        }

        let now = sched.now();
        let fresh_enough = self
            .state
            .borrow_mut()
            .cache
            .is_fresh(now, self.max_context_age);
        let sensed_at = if fresh_enough {
            self.state
                .borrow_mut()
                .cache
                .coherent_since()
                .unwrap_or(now)
        } else {
            self.sense_all(sched, now);
            now
        };

        let (activity, audio, position) = {
            let state = self.state.borrow();
            (
                state.cache.activity().map(str::to_owned),
                state.cache.audio().map(str::to_owned),
                state.cache.position(),
            )
        };

        // Render locally.
        self.map.add(Marker {
            user: self.user.clone(),
            position,
            activity: activity.clone(),
            audio: audio.clone(),
            action_kind: command.action_kind.clone(),
            action_content: command.action_content.clone(),
            at: sensed_at,
        });

        // Build and uplink the report.
        let report = ContextReport {
            seq: command.seq,
            user: self.user.clone(),
            device: self.device.clone(),
            action_kind: command.action_kind,
            action_content: command.action_content,
            activity,
            audio,
            position,
            sensed_at_ms: sensed_at.as_millis(),
        };
        let wire = report.encode();
        self.battery.charge(
            EnergyComponent::Transmission,
            self.profile.transmission_uah(wire.len()),
        );
        self.battery
            .charge(EnergyComponent::RadioTail, self.profile.radio_tail_uah);
        self.broker.publish(
            sched,
            report_topic(&self.device),
            &wire,
            QoS::AtMostOnce,
            false,
        );
        self.state.borrow_mut().reports_sent += 1;
    }

    /// One-off senses every allowed modality, classifies by hand, updates
    /// the cache.
    fn sense_all(&self, sched: &mut Scheduler, now: Timestamp) {
        let privacy = self.state.borrow_mut().privacy.clone();

        if privacy.allow_activity {
            let burst = self.sensors.sample_once(sched, Modality::Accelerometer);
            self.battery.charge(
                EnergyComponent::Classification(Modality::Accelerometer),
                self.profile.classification_uah(Modality::Accelerometer),
            );
            if let Some(ClassifiedContext::Activity(a)) = self.activity_classifier.classify(&burst)
            {
                self.state
                    .borrow_mut()
                    .cache
                    .record_activity(now, a.name().to_owned());
            }
        }
        if privacy.allow_audio {
            let frame = self.sensors.sample_once(sched, Modality::Microphone);
            self.battery.charge(
                EnergyComponent::Classification(Modality::Microphone),
                self.profile.classification_uah(Modality::Microphone),
            );
            if let Some(ClassifiedContext::Audio(a)) = self.audio_classifier.classify(&frame) {
                self.state
                    .borrow_mut()
                    .cache
                    .record_audio(now, a.name().to_owned());
            }
        }
        if privacy.allow_location {
            let fix = self.sensors.sample_once(sched, Modality::Location);
            if let RawSample::Location(fix) = fix {
                self.state
                    .borrow_mut()
                    .cache
                    .record_position(now, fix.position);
            }
        }
    }
}
