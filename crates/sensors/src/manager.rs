//! The ESSensorManager-shaped sensor manager.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_energy::{BatteryMeter, EnergyComponent, EnergyProfile};
use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timer, TimerHandle};
use sensocial_types::{Modality, RawSample};

use crate::environment::DeviceEnvironment;
use crate::synth;

/// Identifies a subscription created by [`SensorManager::subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SensorSubscriptionId(u64);

/// Per-modality sampling configuration: the "duty cycle and sample rate …
/// in a key-value object" the paper's API exposes and forwards to
/// ESSensorManager.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfig {
    /// Interval between sensing cycles — the duty cycle (the paper's
    /// evaluation uses 60 s).
    pub interval: SimDuration,
    /// Accelerometer burst length in milliseconds (paper default: 8 s).
    pub accel_burst_ms: u64,
    /// Accelerometer intra-burst sampling period in milliseconds (paper
    /// default: one 3-axis vector every 20 ms → 50 Hz).
    pub accel_sample_interval_ms: f64,
    /// Microphone frame length in milliseconds.
    pub audio_frame_ms: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            interval: SimDuration::from_secs(60),
            accel_burst_ms: 8_000,
            accel_sample_interval_ms: 20.0,
            audio_frame_ms: 1_000,
        }
    }
}

impl SensorConfig {
    /// A config with the given duty cycle and default sample rates.
    pub fn with_interval(interval: SimDuration) -> Self {
        SensorConfig {
            interval,
            ..SensorConfig::default()
        }
    }

    /// Samples per accelerometer burst under this config.
    pub fn accel_burst_samples(&self) -> usize {
        ((self.accel_burst_ms as f64 / self.accel_sample_interval_ms).round() as usize).max(1)
    }
}

struct Inner {
    env: DeviceEnvironment,
    rng: SimRng,
    configs: HashMap<Modality, SensorConfig>,
    subscriptions: HashMap<SensorSubscriptionId, (Modality, TimerHandle)>,
    next_sub: u64,
    battery: Option<BatteryMeter>,
    profile: EnergyProfile,
    samples_taken: u64,
}

/// Samples virtual sensors in one-off or subscription mode, charging the
/// battery meter for every cycle.
///
/// Cloneable handle. See the [crate-level example](crate).
#[derive(Clone)]
pub struct SensorManager {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for SensorManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("SensorManager")
            .field("subscriptions", &inner.subscriptions.len())
            .field("samples_taken", &inner.samples_taken)
            .finish()
    }
}

impl SensorManager {
    /// Creates a manager over `env` with default configs and no battery
    /// accounting.
    pub fn new(env: DeviceEnvironment, rng: SimRng) -> Self {
        SensorManager {
            inner: Rc::new(RefCell::new(Inner {
                env,
                rng,
                configs: HashMap::new(),
                subscriptions: HashMap::new(),
                next_sub: 0,
                battery: None,
                profile: EnergyProfile::default(),
                samples_taken: 0,
            })),
        }
    }

    /// Attaches a battery meter; subsequent samples charge their sampling
    /// cost to it.
    pub fn attach_battery(&self, battery: BatteryMeter, profile: EnergyProfile) {
        let mut inner = self.inner.borrow_mut();
        inner.battery = Some(battery);
        inner.profile = profile;
    }

    /// Sets the sampling configuration for `modality` (applies to
    /// subscriptions created afterwards).
    pub fn set_config(&self, modality: Modality, config: SensorConfig) {
        self.inner.borrow_mut().configs.insert(modality, config);
    }

    /// The effective configuration for `modality`.
    pub fn config(&self, modality: Modality) -> SensorConfig {
        self.inner
            .borrow_mut()
            .configs
            .get(&modality)
            .cloned()
            .unwrap_or_default()
    }

    /// Total samples taken (all modalities, both modes).
    pub fn samples_taken(&self) -> u64 {
        self.inner.borrow().samples_taken
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.borrow().subscriptions.len()
    }

    /// One-off sensing: samples `modality` immediately and returns the raw
    /// sample. Used for OSN-triggered (social event-based) streams, "in
    /// order to save the energy, sensing is triggered once, remotely, only
    /// if an OSN action is observed" (paper §4).
    pub fn sample_once(&self, _sched: &mut Scheduler, modality: Modality) -> RawSample {
        let mut inner = self.inner.borrow_mut();
        inner.samples_taken += 1;
        if let Some(battery) = &inner.battery {
            battery.charge(
                EnergyComponent::Sampling(modality),
                inner.profile.sampling_uah(modality),
            );
        }
        let config = inner.configs.get(&modality).cloned().unwrap_or_default();
        // Splitting re-seats the parent RNG so successive one-off samples
        // differ.
        let (env, mut rng) = (inner.env.clone(), inner.rng.split("sample"));
        synthesize(modality, &config, &env, &mut rng)
    }

    /// Subscription-based sensing: samples `modality` every `interval`
    /// (from its config) and invokes `callback` with each raw sample. The
    /// first cycle fires after one full interval.
    pub fn subscribe<F>(
        &self,
        sched: &mut Scheduler,
        modality: Modality,
        callback: F,
    ) -> SensorSubscriptionId
    where
        F: Fn(&mut Scheduler, RawSample) + 'static,
    {
        let interval = self.config(modality).interval;
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = SensorSubscriptionId(inner.next_sub);
            inner.next_sub += 1;
            id
        };
        let manager = self.clone();
        let handle = Timer::start(sched, interval, move |s| {
            let sample = manager.sample_once(s, modality);
            callback(s, sample);
        });
        self.inner
            .borrow_mut()
            .subscriptions
            .insert(id, (modality, handle));
        id
    }

    /// Cancels a subscription. Returns `true` if it existed.
    pub fn unsubscribe(&self, id: SensorSubscriptionId) -> bool {
        if let Some((_, handle)) = self.inner.borrow_mut().subscriptions.remove(&id) {
            handle.stop();
            true
        } else {
            false
        }
    }

    /// Cancels all subscriptions (device shutdown).
    pub fn unsubscribe_all(&self) {
        let mut inner = self.inner.borrow_mut();
        for (_, (_, handle)) in inner.subscriptions.drain() {
            handle.stop();
        }
    }
}

fn synthesize(
    modality: Modality,
    config: &SensorConfig,
    env: &DeviceEnvironment,
    rng: &mut SimRng,
) -> RawSample {
    match modality {
        Modality::Location => synth::gps_fix(env, rng),
        Modality::Accelerometer => synth::accel_burst(config, env, rng),
        Modality::Microphone => synth::audio_frame(config, env, rng),
        Modality::Wifi => synth::wifi_scan(env, rng),
        Modality::Bluetooth => synth::bluetooth_scan(env, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::geo::cities;

    fn fixture() -> (Scheduler, SensorManager, DeviceEnvironment) {
        let sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::paris());
        let mgr = SensorManager::new(env.clone(), SimRng::seed_from(3));
        (sched, mgr, env)
    }

    #[test]
    fn sample_once_returns_right_modality() {
        let (mut sched, mgr, _) = fixture();
        for m in Modality::ALL {
            assert_eq!(mgr.sample_once(&mut sched, m).modality(), m);
        }
        assert_eq!(mgr.samples_taken(), 5);
    }

    #[test]
    fn sample_once_charges_battery() {
        let (mut sched, mgr, _) = fixture();
        let battery = BatteryMeter::new();
        let profile = EnergyProfile::default();
        mgr.attach_battery(battery.clone(), profile.clone());
        mgr.sample_once(&mut sched, Modality::Location);
        assert_eq!(
            battery
                .breakdown()
                .component_uah(EnergyComponent::Sampling(Modality::Location)),
            profile.gps_sample_uah
        );
    }

    #[test]
    fn subscription_samples_at_duty_cycle() {
        let (mut sched, mgr, _) = fixture();
        mgr.set_config(
            Modality::Microphone,
            SensorConfig::with_interval(SimDuration::from_secs(10)),
        );
        let samples = Rc::new(RefCell::new(Vec::new()));
        let sink = samples.clone();
        mgr.subscribe(&mut sched, Modality::Microphone, move |s, sample| {
            sink.borrow_mut().push((s.now().as_secs(), sample));
        });
        sched.run_for(SimDuration::from_secs(35));
        let got = samples.borrow();
        let times: Vec<u64> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert!(got
            .iter()
            .all(|(_, s)| s.modality() == Modality::Microphone));
    }

    #[test]
    fn unsubscribe_stops_sampling() {
        let (mut sched, mgr, _) = fixture();
        mgr.set_config(
            Modality::Wifi,
            SensorConfig::with_interval(SimDuration::from_secs(5)),
        );
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let id = mgr.subscribe(&mut sched, Modality::Wifi, move |_s, _| {
            *c.borrow_mut() += 1;
        });
        sched.run_for(SimDuration::from_secs(12));
        assert!(mgr.unsubscribe(id));
        assert!(!mgr.unsubscribe(id));
        sched.run_for(SimDuration::from_secs(30));
        assert_eq!(*count.borrow(), 2);
        assert_eq!(mgr.subscription_count(), 0);
    }

    #[test]
    fn unsubscribe_all() {
        let (mut sched, mgr, _) = fixture();
        for m in Modality::ALL {
            mgr.subscribe(&mut sched, m, |_s, _| {});
        }
        assert_eq!(mgr.subscription_count(), 5);
        mgr.unsubscribe_all();
        assert_eq!(mgr.subscription_count(), 0);
        let before = mgr.samples_taken();
        sched.run_for(SimDuration::from_mins(5));
        assert_eq!(mgr.samples_taken(), before);
    }

    #[test]
    fn samples_track_a_moving_environment() {
        let (mut sched, mgr, env) = fixture();
        let RawSample::Location(fix1) = mgr.sample_once(&mut sched, Modality::Location) else {
            unreachable!()
        };
        env.set_position(cities::bordeaux());
        let RawSample::Location(fix2) = mgr.sample_once(&mut sched, Modality::Location) else {
            unreachable!()
        };
        assert!(fix1.position.distance_m(cities::paris()) < 20.0);
        assert!(fix2.position.distance_m(cities::bordeaux()) < 20.0);
    }

    #[test]
    fn sample_rate_config_changes_burst_size() {
        let (mut sched, mgr, _) = fixture();
        let default_burst = match mgr.sample_once(&mut sched, Modality::Accelerometer) {
            RawSample::Accelerometer(v) => v.len(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(default_burst, 400, "8 s at 50 Hz");
        // Halve the burst length, quarter the rate: 4 s at 12.5 Hz → 50.
        mgr.set_config(
            Modality::Accelerometer,
            SensorConfig {
                accel_burst_ms: 4_000,
                accel_sample_interval_ms: 80.0,
                ..SensorConfig::default()
            },
        );
        let reconfigured = match mgr.sample_once(&mut sched, Modality::Accelerometer) {
            RawSample::Accelerometer(v) => v.len(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(reconfigured, 50);
        // Microphone frame length follows its config too.
        mgr.set_config(
            Modality::Microphone,
            SensorConfig {
                audio_frame_ms: 250,
                ..SensorConfig::default()
            },
        );
        match mgr.sample_once(&mut sched, Modality::Microphone) {
            RawSample::Microphone(f) => assert_eq!(f.duration_ms, 250),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn successive_samples_differ() {
        let (mut sched, mgr, _) = fixture();
        let RawSample::Location(a) = mgr.sample_once(&mut sched, Modality::Location) else {
            unreachable!()
        };
        let RawSample::Location(b) = mgr.sample_once(&mut sched, Modality::Location) else {
            unreachable!()
        };
        assert_ne!(a.position, b.position, "noise should differ draw to draw");
    }
}
