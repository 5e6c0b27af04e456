//! The stock physical-activity classifier.

use sensocial_types::{ClassifiedContext, Modality, PhysicalActivity, RawSample};

use crate::features::magnitude_std;
use crate::registry::Classifier;

/// Classifies accelerometer bursts into still / walking / running by
/// thresholding the magnitude standard deviation.
///
/// The paper implemented its classifiers "as proofs of concept, and did not
/// focus on maximizing the classification accuracy"; we follow suit with a
/// simple but genuinely discriminative two-threshold rule, validated against
/// the sensor substrate's synthesis in the integration tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityClassifier {
    /// Magnitude std below this is "still" (m/s²).
    pub still_threshold: f64,
    /// Magnitude std above this is "running" (m/s²); between the two is
    /// "walking".
    pub running_threshold: f64,
}

impl Default for ActivityClassifier {
    fn default() -> Self {
        ActivityClassifier {
            still_threshold: 0.4,
            running_threshold: 2.5,
        }
    }
}

impl Classifier for ActivityClassifier {
    fn modality(&self) -> Modality {
        Modality::Accelerometer
    }

    fn classify(&self, sample: &RawSample) -> Option<ClassifiedContext> {
        let RawSample::Accelerometer(burst) = sample else {
            return None;
        };
        let std = magnitude_std(burst);
        let activity = if std < self.still_threshold {
            PhysicalActivity::Still
        } else if std < self.running_threshold {
            PhysicalActivity::Walking
        } else {
            PhysicalActivity::Running
        };
        Some(ClassifiedContext::Activity(activity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::AccelSample;

    fn burst(amplitude: f64) -> RawSample {
        RawSample::Accelerometer(
            (0..400)
                .map(|i| AccelSample::new(0.0, 0.0, 9.81 + (i as f64 * 0.37).sin() * amplitude))
                .collect(),
        )
    }

    #[test]
    fn quiet_burst_is_still() {
        let c = ActivityClassifier::default();
        assert_eq!(
            c.classify(&burst(0.05)),
            Some(ClassifiedContext::Activity(PhysicalActivity::Still))
        );
    }

    #[test]
    fn moderate_burst_is_walking() {
        let c = ActivityClassifier::default();
        assert_eq!(
            c.classify(&burst(1.8)),
            Some(ClassifiedContext::Activity(PhysicalActivity::Walking))
        );
    }

    #[test]
    fn violent_burst_is_running() {
        let c = ActivityClassifier::default();
        assert_eq!(
            c.classify(&burst(5.5)),
            Some(ClassifiedContext::Activity(PhysicalActivity::Running))
        );
    }

    #[test]
    fn wrong_modality_is_none() {
        let c = ActivityClassifier::default();
        let frame = RawSample::Microphone(sensocial_types::AudioFrame {
            rms: 0.5,
            peak: 0.9,
            duration_ms: 1000,
        });
        assert_eq!(c.classify(&frame), None);
    }

    #[test]
    fn classifies_real_synthetic_bursts() {
        // End-to-end against the sensor substrate's actual synthesis.
        use sensocial_runtime::{Scheduler, SimRng};
        use sensocial_sensors::{DeviceEnvironment, SensorManager};
        use sensocial_types::geo::cities;

        let mut sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::paris());
        let sensors = SensorManager::new(env.clone(), SimRng::seed_from(21));
        let c = ActivityClassifier::default();
        for truth in [
            PhysicalActivity::Still,
            PhysicalActivity::Walking,
            PhysicalActivity::Running,
        ] {
            env.set_activity(truth);
            let mut correct = 0;
            for _ in 0..10 {
                let sample = sensors.sample_once(&mut sched, Modality::Accelerometer);
                if c.classify(&sample) == Some(ClassifiedContext::Activity(truth)) {
                    correct += 1;
                }
            }
            assert!(correct >= 9, "{truth:?}: only {correct}/10 correct");
        }
    }
}
