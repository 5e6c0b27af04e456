//! Per-modality signal synthesis from the ground truth.
//!
//! The synthesised raw signals carry enough realistic structure that the
//! stock classifiers (`sensocial-classify`) must genuinely discriminate:
//! accelerometer bursts differ in magnitude variance by activity, audio
//! frames in RMS by ambience, and scans jitter and drop entries.

use sensocial_runtime::SimRng;
use sensocial_types::{
    AccelSample, AudioFrame, BluetoothScan, GpsFix, PhysicalActivity, RawSample, WifiScan,
};

use crate::environment::DeviceEnvironment;
use crate::manager::SensorConfig;

/// Standard gravity, m/s².
const G: f64 = 9.81;

/// Synthesises a GPS fix: true position blurred by the fix accuracy.
pub(crate) fn gps_fix(env: &DeviceEnvironment, rng: &mut SimRng) -> RawSample {
    let accuracy_m = rng.uniform(4.0, 12.0);
    let error = rng.uniform(0.0, accuracy_m);
    let bearing = rng.uniform(0.0, 360.0);
    let position = env.position().offset(error, bearing);
    RawSample::Location(GpsFix {
        position,
        accuracy_m,
        speed_mps: env.ground_speed_mps() + rng.normal(0.0, 0.1),
    })
}

/// Synthesises an accelerometer burst (length and rate from the sensor
/// configuration; paper default 8 s at 50 Hz) whose oscillation amplitude
/// and cadence depend on the true activity.
///
/// This is the hot path of any deployment whose filters gate on activity:
/// every axis's noise is a ziggurat normal, and the oscillation
/// `sin(2π·f·t + phase)` is stepped as a rotation of its `(sin, cos)` pair,
/// so a sample takes no transcendental call.
pub(crate) fn accel_burst(
    config: &SensorConfig,
    env: &DeviceEnvironment,
    rng: &mut SimRng,
) -> RawSample {
    let activity = env.activity();
    let (amplitude, cadence_hz) = match activity {
        PhysicalActivity::Still => (0.05, 0.0),
        PhysicalActivity::Walking => (1.8, 1.9),
        PhysicalActivity::Running => (5.5, 2.9),
    };
    let n = config.accel_burst_samples();
    let mut samples = Vec::with_capacity(n);
    let phase = rng.uniform(0.0, std::f64::consts::TAU);
    // A still burst has no oscillation: the zero pair stays zero.
    let (mut sin, mut cos) = if cadence_hz > 0.0 {
        phase.sin_cos()
    } else {
        (0.0, 0.0)
    };
    let step = std::f64::consts::TAU * cadence_hz * config.accel_sample_interval_ms / 1_000.0;
    let (step_sin, step_cos) = step.sin_cos();
    for _ in 0..n {
        let osc = sin * amplitude;
        (sin, cos) = (
            sin * step_cos + cos * step_sin,
            cos * step_cos - sin * step_sin,
        );
        samples.push(AccelSample::new(
            0.08 * rng.standard_normal() + osc * 0.35,
            0.08 * rng.standard_normal() + osc * 0.25,
            G + 0.08 * rng.standard_normal() + osc,
        ));
    }
    RawSample::Accelerometer(samples)
}

/// Synthesises a microphone frame (length from the sensor configuration)
/// around the ambient level.
pub(crate) fn audio_frame(
    config: &SensorConfig,
    env: &DeviceEnvironment,
    rng: &mut SimRng,
) -> RawSample {
    let ambient = env.ambient_audio();
    let rms = (ambient + rng.normal(0.0, 0.02)).clamp(0.0, 1.0);
    let peak = (rms * rng.uniform(1.5, 3.0)).clamp(rms, 1.0);
    RawSample::Microphone(AudioFrame {
        rms,
        peak,
        duration_ms: config.audio_frame_ms,
    })
}

/// Synthesises a WiFi scan: each truly-visible AP appears with 90 %
/// probability and ±4 dBm RSSI jitter.
pub(crate) fn wifi_scan(env: &DeviceEnvironment, rng: &mut SimRng) -> RawSample {
    let mut aps = Vec::new();
    for (bssid, rssi) in env.visible_aps() {
        if rng.chance(0.9) {
            let jitter = rng.uniform(-4.0, 4.0) as i32;
            aps.push((bssid, rssi + jitter));
        }
    }
    RawSample::Wifi(WifiScan { access_points: aps })
}

/// Synthesises a Bluetooth scan: each truly-nearby device discovered with
/// 85 % probability (inquiry scans miss devices routinely).
pub(crate) fn bluetooth_scan(env: &DeviceEnvironment, rng: &mut SimRng) -> RawSample {
    let mut found = Vec::new();
    for addr in env.nearby_bluetooth() {
        if rng.chance(0.85) {
            found.push(addr);
        }
    }
    RawSample::Bluetooth(BluetoothScan {
        nearby_devices: found,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::geo::cities;
    use sensocial_types::Modality;

    fn fixture() -> (DeviceEnvironment, SimRng) {
        (
            DeviceEnvironment::new(cities::paris()),
            SimRng::seed_from(7),
        )
    }

    fn config() -> SensorConfig {
        SensorConfig::default()
    }

    fn burst_magnitude_std(samples: &[AccelSample]) -> f64 {
        let mags: Vec<f64> = samples.iter().map(|s| s.magnitude()).collect();
        let mean = mags.iter().sum::<f64>() / mags.len() as f64;
        (mags.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / mags.len() as f64).sqrt()
    }

    #[test]
    fn gps_fix_is_near_truth_and_typed() {
        let (env, mut rng) = fixture();
        let s = gps_fix(&env, &mut rng);
        assert_eq!(s.modality(), Modality::Location);
        let RawSample::Location(fix) = s else {
            unreachable!()
        };
        assert!(fix.position.distance_m(cities::paris()) < 15.0);
        assert!(fix.accuracy_m >= 4.0 && fix.accuracy_m <= 12.0);
    }

    #[test]
    fn accel_variance_orders_by_activity() {
        let (env, mut rng) = fixture();
        let mut stds = Vec::new();
        for a in [
            PhysicalActivity::Still,
            PhysicalActivity::Walking,
            PhysicalActivity::Running,
        ] {
            env.set_activity(a);
            let RawSample::Accelerometer(samples) = accel_burst(&config(), &env, &mut rng) else {
                unreachable!()
            };
            assert_eq!(samples.len(), config().accel_burst_samples());
            stds.push(burst_magnitude_std(&samples));
        }
        assert!(stds[0] < 0.3, "still std {}", stds[0]);
        assert!(stds[1] > stds[0] * 3.0, "walking should be much noisier");
        assert!(stds[2] > stds[1] * 1.5, "running noisier than walking");
    }

    #[test]
    fn audio_tracks_ambience() {
        let (env, mut rng) = fixture();
        env.set_ambient_audio(0.02);
        let RawSample::Microphone(quiet) = audio_frame(&config(), &env, &mut rng) else {
            unreachable!()
        };
        env.set_ambient_audio(0.6);
        let RawSample::Microphone(loud) = audio_frame(&config(), &env, &mut rng) else {
            unreachable!()
        };
        assert!(loud.rms > quiet.rms + 0.3);
        assert!(loud.peak >= loud.rms);
    }

    #[test]
    fn scans_reflect_environment_with_dropout() {
        let (env, mut rng) = fixture();
        env.set_visible_aps((0..20).map(|i| (format!("ap{i}"), -50)).collect());
        env.set_nearby_bluetooth((0..20).map(|i| format!("bt{i}")).collect());
        let RawSample::Wifi(w) = wifi_scan(&env, &mut rng) else {
            unreachable!()
        };
        let RawSample::Bluetooth(b) = bluetooth_scan(&env, &mut rng) else {
            unreachable!()
        };
        assert!(!w.access_points.is_empty() && w.access_points.len() <= 20);
        assert!(!b.nearby_devices.is_empty() && b.nearby_devices.len() <= 20);
        // Over many scans, dropout must actually occur.
        let mut total = 0;
        for _ in 0..50 {
            let RawSample::Wifi(w) = wifi_scan(&env, &mut rng) else {
                unreachable!()
            };
            total += w.access_points.len();
        }
        assert!(total < 50 * 20, "no dropout observed");
    }

    #[test]
    fn empty_environment_gives_empty_scans() {
        let (env, mut rng) = fixture();
        let RawSample::Wifi(w) = wifi_scan(&env, &mut rng) else {
            unreachable!()
        };
        assert!(w.access_points.is_empty());
        let RawSample::Bluetooth(b) = bluetooth_scan(&env, &mut rng) else {
            unreachable!()
        };
        assert!(b.nearby_devices.is_empty());
    }
}
