//! Property-based tests for the stock classifiers.

use sensocial_classify::{
    magnitude_mean, magnitude_std, ActivityClassifier, AudioClassifier, Classifier, PlaceClassifier,
};
use sensocial_runtime::prop::check;
use sensocial_runtime::{Scheduler, SimRng};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_types::geo::{cities, GeoFence};
use sensocial_types::{
    AccelSample, AudioFrame, ClassifiedContext, GpsFix, Modality, PhysicalActivity, Place,
    RawSample,
};

fn burst(amplitude: f64, n: usize) -> RawSample {
    RawSample::Accelerometer(
        (0..n)
            .map(|i| AccelSample::new(0.0, 0.0, 9.81 + (i as f64 * 0.37).sin() * amplitude))
            .collect(),
    )
}

/// The activity label is monotone in oscillation amplitude: more
/// movement never maps to a "calmer" class.
#[test]
fn activity_is_monotone_in_amplitude() {
    check(256, |rng| {
        let a = rng.uniform(0.0, 8.0);
        let b = rng.uniform(0.0, 8.0);
        let n = rng.uniform_u64(50, 400) as usize;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let classifier = ActivityClassifier::default();
        let rank = |s: &RawSample| match classifier.classify(s) {
            Some(ClassifiedContext::Activity(PhysicalActivity::Still)) => 0,
            Some(ClassifiedContext::Activity(PhysicalActivity::Walking)) => 1,
            Some(ClassifiedContext::Activity(PhysicalActivity::Running)) => 2,
            other => panic!("unexpected {other:?}"),
        };
        assert!(rank(&burst(lo, n)) <= rank(&burst(hi, n)));
    });
}

/// The bursts the sensor substrate synthesises, as the stock activity
/// classifier sees them. Per activity, the magnitude mean and std averaged
/// over 500 bursts stay where the Box–Muller synthesis put them (mean
/// within 0.01 m/s², std within 2%), and every burst's std keeps 0.25 m/s²
/// from both thresholds, so no label turns on which normal sampler made
/// the noise.
#[test]
fn substrate_bursts_keep_their_statistics_and_margins() {
    let mut sched = Scheduler::new();
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(11));
    let classifier = ActivityClassifier::default();
    let bursts = 500;
    // The averages Box–Muller noise gave these same bursts.
    for (truth, box_muller_mean, box_muller_std) in [
        (PhysicalActivity::Still, 9.811, 0.0798),
        (PhysicalActivity::Walking, 9.826, 1.2720),
        (PhysicalActivity::Running, 9.993, 3.7845),
    ] {
        env.set_activity(truth);
        let (mut mean_sum, mut std_sum) = (0.0, 0.0);
        for _ in 0..bursts {
            let RawSample::Accelerometer(burst) =
                sensors.sample_once(&mut sched, Modality::Accelerometer)
            else {
                panic!("{truth:?}: the accelerometer gave no burst");
            };
            let std = magnitude_std(&burst);
            for threshold in [classifier.still_threshold, classifier.running_threshold] {
                assert!(
                    (std - threshold).abs() >= 0.25,
                    "{truth:?}: burst std {std} within 0.25 of threshold {threshold}"
                );
            }
            mean_sum += magnitude_mean(&burst);
            std_sum += std;
        }
        let mean = mean_sum / f64::from(bursts);
        let std = std_sum / f64::from(bursts);
        assert!(
            (mean - box_muller_mean).abs() < 0.01,
            "{truth:?}: average magnitude mean {mean}, Box–Muller {box_muller_mean}"
        );
        assert!(
            (std / box_muller_std - 1.0).abs() < 0.02,
            "{truth:?}: average magnitude std {std}, Box–Muller {box_muller_std}"
        );
    }
}

/// The two-pass variance of a burst's magnitudes that `magnitude_std`
/// used to take: the mean magnitude first, then the mean squared
/// deviation from it.
fn two_pass_variance(burst: &[AccelSample]) -> f64 {
    let n = burst.len() as f64;
    let mean = burst.iter().map(AccelSample::magnitude).sum::<f64>() / n;
    burst
        .iter()
        .map(|s| (s.magnitude() - mean).powi(2))
        .sum::<f64>()
        / n
}

/// `magnitude_std` takes one pass and one square root per sample. Its
/// variance agrees with the two-pass reference within 1e-9 (m/s²)², and
/// the stock classifier gives the label the reference std would, on the
/// bursts the substrate synthesises for each activity and on arbitrary
/// bursts with components in ±50 m/s².
#[test]
fn one_pass_std_matches_the_two_pass_reference() {
    let classifier = ActivityClassifier::default();
    let agree = |burst: Vec<AccelSample>| {
        let reference = two_pass_variance(&burst);
        let std = magnitude_std(&burst);
        assert!(
            (std * std - reference).abs() <= 1e-9,
            "variance {} against the reference {reference}",
            std * std
        );
        let std = reference.sqrt();
        let want = if std < classifier.still_threshold {
            PhysicalActivity::Still
        } else if std < classifier.running_threshold {
            PhysicalActivity::Walking
        } else {
            PhysicalActivity::Running
        };
        assert_eq!(
            classifier.classify(&RawSample::Accelerometer(burst)),
            Some(ClassifiedContext::Activity(want)),
            "reference std {std}"
        );
    };

    let mut sched = Scheduler::new();
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(23));
    for truth in [
        PhysicalActivity::Still,
        PhysicalActivity::Walking,
        PhysicalActivity::Running,
    ] {
        env.set_activity(truth);
        for _ in 0..100 {
            let RawSample::Accelerometer(burst) =
                sensors.sample_once(&mut sched, Modality::Accelerometer)
            else {
                panic!("{truth:?}: the accelerometer gave no burst");
            };
            agree(burst);
        }
    }

    // Each arbitrary burst scatters its samples up to `spread` around a
    // centre, so its std falls on either side of both thresholds.
    check(256, |rng| {
        let centre = [0; 3].map(|_| rng.uniform(-40.0, 40.0));
        let spread = rng.uniform(0.0, 10.0);
        let n = rng.uniform_u64(1, 400) as usize;
        let mut axis = |c: f64| c + rng.uniform(-spread, spread);
        let burst = (0..n)
            .map(|_| AccelSample::new(axis(centre[0]), axis(centre[1]), axis(centre[2])))
            .collect();
        agree(burst);
    });
}

/// Audio classification is a threshold function of RMS.
#[test]
fn audio_threshold_is_sharp() {
    check(256, |rng| {
        let rms = rng.uniform(0.0, 1.0);
        let classifier = AudioClassifier::default();
        let frame = RawSample::Microphone(AudioFrame {
            rms,
            peak: rms.min(1.0),
            duration_ms: 1000,
        });
        let got = classifier.classify(&frame).unwrap();
        let expected = if rms < classifier.silence_threshold {
            "silent"
        } else {
            "not_silent"
        };
        assert_eq!(got.value_string(), expected);
    });
}

/// Place classification returns a place containing the fix, or None
/// when no place contains it.
#[test]
fn place_result_actually_contains_fix() {
    check(256, |rng| {
        let lat = rng.uniform(40.0, 55.0);
        let lon = rng.uniform(-5.0, 8.0);
        let places = vec![
            cities::paris_place(),
            cities::bordeaux_place(),
            Place::new("TinyCenter", GeoFence::new(cities::paris(), 1_000.0)),
        ];
        let classifier = PlaceClassifier::new(places.clone());
        let position = sensocial_types::GeoPoint::new(lat, lon);
        let fix = RawSample::Location(GpsFix {
            position,
            accuracy_m: 5.0,
            speed_mps: 0.0,
        });
        match classifier.classify(&fix).unwrap() {
            ClassifiedContext::Place(Some(name)) => {
                let place = places.iter().find(|p| p.name == name).unwrap();
                assert!(place.contains(position));
                // Smallest-containing-place rule.
                for other in &places {
                    if other.contains(position) {
                        assert!(place.fence.radius_m <= other.fence.radius_m);
                    }
                }
            }
            ClassifiedContext::Place(None) => {
                assert!(places.iter().all(|p| !p.contains(position)));
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// Every classifier ignores samples of foreign modalities.
#[test]
fn classifiers_reject_foreign_modalities() {
    check(256, |rng| {
        let rms = rng.uniform(0.0, 1.0);
        let frame = RawSample::Microphone(AudioFrame {
            rms,
            peak: rms,
            duration_ms: 100,
        });
        assert_eq!(ActivityClassifier::default().classify(&frame), None);
        assert_eq!(PlaceClassifier::new(vec![]).classify(&frame), None);
        let fix = RawSample::Location(GpsFix {
            position: cities::paris(),
            accuracy_m: 5.0,
            speed_mps: 0.0,
        });
        assert_eq!(AudioClassifier::default().classify(&fix), None);
    });
}
