//! The no-middleware ConWeb mobile side.
//!
//! Everything SenSocial's three `create_stream` calls imply is spelled out
//! here: per-modality sampling timers with their own duty cycles, manual
//! classifier construction and invocation, manual change detection (only
//! transmit when the classified value changed, to keep the data plan
//! alive), manual energy accounting, manual privacy gates, and manual
//! pause/resume so sampling stops when the browser closes.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial_broker::{BrokerClient, QoS};
use sensocial_classify::{ActivityClassifier, AudioClassifier, Classifier, PlaceClassifier};
use sensocial_energy::{BatteryMeter, EnergyComponent, EnergyProfile};
use sensocial_runtime::{Scheduler, SimDuration};
use sensocial_sensors::{SensorConfig, SensorManager, SensorSubscriptionId};
use sensocial_types::{DeviceId, Modality, Place, UserId};

use super::protocol::{context_topic, ContextUpdate};

/// Manual privacy gates per modality.
#[derive(Debug, Clone)]
pub struct RawConWebPrivacy {
    /// Allow activity sensing.
    pub allow_activity: bool,
    /// Allow audio sensing.
    pub allow_audio: bool,
    /// Allow place sensing.
    pub allow_place: bool,
}

impl Default for RawConWebPrivacy {
    fn default() -> Self {
        RawConWebPrivacy {
            allow_activity: true,
            allow_audio: true,
            allow_place: true,
        }
    }
}

struct MobileState {
    last_activity: Option<String>,
    last_audio: Option<String>,
    last_place: Option<String>,
    subscriptions: Vec<SensorSubscriptionId>,
    updates_sent: u64,
    running: bool,
}

/// The no-middleware ConWeb mobile service.
pub struct RawConWebMobile {
    user: UserId,
    device: DeviceId,
    sensors: SensorManager,
    broker: BrokerClient,
    battery: BatteryMeter,
    profile: EnergyProfile,
    state: Rc<RefCell<MobileState>>,
}

impl std::fmt::Debug for RawConWebMobile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawConWebMobile")
            .field("user", &self.user)
            .field("updates_sent", &self.state.borrow_mut().updates_sent)
            .finish_non_exhaustive()
    }
}

impl RawConWebMobile {
    /// Installs the service and starts sampling.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        sched: &mut Scheduler,
        user: UserId,
        device: DeviceId,
        sensors: SensorManager,
        broker: BrokerClient,
        battery: BatteryMeter,
        profile: EnergyProfile,
        privacy: RawConWebPrivacy,
        places: Vec<Place>,
        interval: SimDuration,
    ) -> Rc<Self> {
        let app = Rc::new(RawConWebMobile {
            user,
            device,
            sensors,
            broker: broker.clone(),
            battery,
            profile,
            state: Rc::new(RefCell::new(MobileState {
                last_activity: None,
                last_audio: None,
                last_place: None,
                subscriptions: Vec::new(),
                updates_sent: 0,
                running: false,
            })),
        });
        broker.connect(sched);
        app.resume(sched, &privacy, places, interval);
        app
    }

    /// Context updates transmitted so far.
    pub fn updates_sent(&self) -> u64 {
        self.state.borrow().updates_sent
    }

    /// Whether sampling is currently running.
    pub fn is_running(&self) -> bool {
        self.state.borrow().running
    }

    /// Stops all sampling (the browser was closed).
    pub fn pause(&self) {
        let mut state = self.state.borrow_mut();
        for sub in state.subscriptions.drain(..) {
            self.sensors.unsubscribe(sub);
        }
        state.running = false;
    }

    /// (Re)starts sampling with the given gates, gazetteer and duty cycle.
    pub fn resume(
        &self,
        sched: &mut Scheduler,
        privacy: &RawConWebPrivacy,
        places: Vec<Place>,
        interval: SimDuration,
    ) {
        self.pause();
        let mut subs = Vec::new();

        if privacy.allow_activity {
            self.sensors.set_config(
                Modality::Accelerometer,
                SensorConfig::with_interval(interval),
            );
            let this = self.handle();
            let classifier = ActivityClassifier::default();
            subs.push(
                self.sensors
                    .subscribe(sched, Modality::Accelerometer, move |s, raw| {
                        this.battery.charge(
                            EnergyComponent::Classification(Modality::Accelerometer),
                            this.profile.classification_uah(Modality::Accelerometer),
                        );
                        let Some(c) = classifier.classify(&raw) else {
                            return;
                        };
                        let value = c.value_string();
                        let changed = {
                            let mut state = this.state.borrow_mut();
                            if state.last_activity.as_deref() != Some(value.as_str()) {
                                state.last_activity = Some(value.clone());
                                true
                            } else {
                                false
                            }
                        };
                        if changed {
                            this.transmit(s, "activity", &value);
                        }
                    }),
            );
        }

        if privacy.allow_audio {
            self.sensors
                .set_config(Modality::Microphone, SensorConfig::with_interval(interval));
            let this = self.handle();
            let classifier = AudioClassifier::default();
            subs.push(
                self.sensors
                    .subscribe(sched, Modality::Microphone, move |s, raw| {
                        this.battery.charge(
                            EnergyComponent::Classification(Modality::Microphone),
                            this.profile.classification_uah(Modality::Microphone),
                        );
                        let Some(c) = classifier.classify(&raw) else {
                            return;
                        };
                        let value = c.value_string();
                        let changed = {
                            let mut state = this.state.borrow_mut();
                            if state.last_audio.as_deref() != Some(value.as_str()) {
                                state.last_audio = Some(value.clone());
                                true
                            } else {
                                false
                            }
                        };
                        if changed {
                            this.transmit(s, "audio", &value);
                        }
                    }),
            );
        }

        if privacy.allow_place {
            self.sensors
                .set_config(Modality::Location, SensorConfig::with_interval(interval));
            let this = self.handle();
            let classifier = PlaceClassifier::new(places);
            subs.push(
                self.sensors
                    .subscribe(sched, Modality::Location, move |s, raw| {
                        this.battery.charge(
                            EnergyComponent::Classification(Modality::Location),
                            this.profile.classification_uah(Modality::Location),
                        );
                        let Some(c) = classifier.classify(&raw) else {
                            return;
                        };
                        let value = c.value_string();
                        let changed = {
                            let mut state = this.state.borrow_mut();
                            if state.last_place.as_deref() != Some(value.as_str()) {
                                state.last_place = Some(value.clone());
                                true
                            } else {
                                false
                            }
                        };
                        if changed {
                            this.transmit(s, "place", &value);
                        }
                    }),
            );
        }

        let mut state = self.state.borrow_mut();
        state.subscriptions = subs;
        state.running = true;
    }

    /// Shares the app's meters/state into a sampling closure. (With the
    /// middleware this plumbing does not exist.)
    fn handle(&self) -> Rc<RawConWebMobileHandle> {
        Rc::new(RawConWebMobileHandle {
            user: self.user.clone(),
            device: self.device.clone(),
            broker: self.broker.clone(),
            battery: self.battery.clone(),
            profile: self.profile.clone(),
            state: self.state.clone(),
        })
    }
}

/// The cloneable inner handle used by sampling closures.
struct RawConWebMobileHandle {
    user: UserId,
    device: DeviceId,
    broker: BrokerClient,
    battery: BatteryMeter,
    profile: EnergyProfile,
    state: Rc<RefCell<MobileState>>,
}

impl RawConWebMobileHandle {
    fn transmit(&self, sched: &mut Scheduler, field: &str, value: &str) {
        let update = ContextUpdate {
            user: self.user.clone(),
            field: field.to_owned(),
            value: value.to_owned(),
            at_ms: sched.now().as_millis(),
        };
        let wire = update.encode();
        self.battery.charge(
            EnergyComponent::Transmission,
            self.profile.transmission_uah(wire.len()),
        );
        self.battery
            .charge(EnergyComponent::RadioTail, self.profile.radio_tail_uah);
        self.broker.publish(
            sched,
            context_topic(&self.device),
            &wire,
            QoS::AtMostOnce,
            false,
        );
        self.state.borrow_mut().updates_sent += 1;
    }
}
