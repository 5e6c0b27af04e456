//! Activity and ambience models driving the ground truth over time.

use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timer, TimerHandle};
use sensocial_types::PhysicalActivity;

use crate::environment::DeviceEnvironment;

/// A first-order Markov chain over {still, walking, running}, stepped at a
/// fixed period, optionally coupling the ambient audio level to activity.
///
/// The default transition matrix keeps users mostly still (as phone users
/// are) with realistic walk/run episodes, so duty-cycled classification
/// sees state changes at plausible rates.
#[derive(Debug, Clone)]
pub struct ActivityModel {
    /// Row-stochastic transition matrix indexed `[from][to]` with states
    /// ordered still, walking, running.
    pub transitions: [[f64; 3]; 3],
    /// Seconds between chain steps.
    pub step: SimDuration,
    /// Whether movement also raises the ambient audio level.
    pub couple_audio: bool,
}

impl Default for ActivityModel {
    fn default() -> Self {
        ActivityModel {
            transitions: [
                [0.85, 0.13, 0.02], // still → …
                [0.30, 0.60, 0.10], // walking → …
                [0.25, 0.25, 0.50], // running → …
            ],
            step: SimDuration::from_secs(30),
            couple_audio: true,
        }
    }
}

impl ActivityModel {
    /// Validates that each row sums to ~1 and contains no negatives.
    pub fn is_valid(&self) -> bool {
        self.transitions.iter().all(|row| {
            row.iter().all(|p| *p >= 0.0) && (row.iter().sum::<f64>() - 1.0).abs() < 1e-9
        })
    }
}

fn index_of(activity: PhysicalActivity) -> usize {
    match activity {
        PhysicalActivity::Still => 0,
        PhysicalActivity::Walking => 1,
        PhysicalActivity::Running => 2,
    }
}

const STATES: [PhysicalActivity; 3] = [
    PhysicalActivity::Still,
    PhysicalActivity::Walking,
    PhysicalActivity::Running,
];

/// Drives a [`DeviceEnvironment`]'s activity along an [`ActivityModel`].
#[derive(Debug)]
pub struct ActivityDriver {
    handle: TimerHandle,
}

impl ActivityDriver {
    /// Starts stepping the chain.
    ///
    /// # Panics
    ///
    /// Panics if the model's transition matrix is not row-stochastic.
    pub fn start(
        sched: &mut Scheduler,
        env: DeviceEnvironment,
        model: ActivityModel,
        mut rng: SimRng,
    ) -> Self {
        assert!(
            model.is_valid(),
            "activity transition matrix must be row-stochastic"
        );
        let handle = Timer::start(sched, model.step, move |_s| {
            let row = model.transitions[index_of(env.activity())];
            let next = rng
                .weighted_index(&row)
                .map(|i| STATES[i])
                .unwrap_or(PhysicalActivity::Still);
            env.set_activity(next);
            if model.couple_audio {
                let base = match next {
                    PhysicalActivity::Still => 0.05,
                    PhysicalActivity::Walking => 0.25,
                    PhysicalActivity::Running => 0.45,
                };
                env.set_ambient_audio(base + rng.uniform(0.0, 0.05));
            }
        });
        ActivityDriver { handle }
    }

    /// Stops the chain; the device keeps its last activity.
    pub fn stop(&self) {
        self.handle.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::geo::cities;
    use std::collections::BTreeMap;

    #[test]
    fn default_model_is_stochastic() {
        assert!(ActivityModel::default().is_valid());
    }

    #[test]
    fn invalid_model_detected() {
        let mut m = ActivityModel::default();
        m.transitions[0][0] = 0.5; // row no longer sums to 1
        assert!(!m.is_valid());
    }

    #[test]
    #[should_panic(expected = "row-stochastic")]
    fn driver_rejects_invalid_model() {
        let mut sched = Scheduler::new();
        let mut m = ActivityModel::default();
        m.transitions[1][1] = 0.0;
        ActivityDriver::start(
            &mut sched,
            DeviceEnvironment::new(cities::paris()),
            m,
            SimRng::seed_from(1),
        );
    }

    #[test]
    fn long_run_visits_all_states_with_plausible_frequencies() {
        let mut sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::paris());
        let driver = ActivityDriver::start(
            &mut sched,
            env.clone(),
            ActivityModel::default(),
            SimRng::seed_from(42),
        );
        let mut histogram: BTreeMap<&'static str, u32> = BTreeMap::new();
        for _ in 0..2_000 {
            sched.run_for(SimDuration::from_secs(30));
            *histogram.entry(env.activity().name()).or_insert(0) += 1;
        }
        driver.stop();
        let still = histogram["still"] as f64 / 2_000.0;
        assert!(histogram.len() == 3, "visited {histogram:?}");
        assert!(still > 0.45 && still < 0.85, "still fraction {still}");
    }

    #[test]
    fn audio_coupling_raises_level_when_moving() {
        let mut sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::paris());
        // Deterministic chain: always running.
        let model = ActivityModel {
            transitions: [[0.0, 0.0, 1.0]; 3],
            step: SimDuration::from_secs(10),
            couple_audio: true,
        };
        let driver = ActivityDriver::start(&mut sched, env.clone(), model, SimRng::seed_from(1));
        sched.run_for(SimDuration::from_secs(30));
        driver.stop();
        assert_eq!(env.activity(), PhysicalActivity::Running);
        assert!(env.ambient_audio() > 0.4);
    }
}
