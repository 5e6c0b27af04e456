//! User activity generators: the workload side of the OSN.

use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timer, TimerHandle};
use sensocial_types::UserId;

use crate::content::{generate_post, Sentiment, TOPICS};
use crate::platform::OsnPlatform;

/// A Poisson-process model of one user's OSN activity.
#[derive(Debug, Clone)]
pub struct UserActivityModel {
    /// Mean actions per hour.
    pub actions_per_hour: f64,
    /// Probability an action is a post (vs. comment vs. like; posts then
    /// comments then likes share the remainder equally).
    pub post_fraction: f64,
    /// Probability a post is positive / negative (remainder neutral).
    pub positive_fraction: f64,
    /// Probability a post is negative.
    pub negative_fraction: f64,
}

impl Default for UserActivityModel {
    fn default() -> Self {
        UserActivityModel {
            actions_per_hour: 2.0,
            post_fraction: 0.5,
            positive_fraction: 0.35,
            negative_fraction: 0.25,
        }
    }
}

/// Handle to a running activity driver.
#[derive(Debug)]
pub struct ActivityDriverHandle {
    timer: TimerHandle,
}

impl ActivityDriverHandle {
    /// Stops generating activity.
    pub fn stop(&self) {
        self.timer.stop();
    }
}

impl UserActivityModel {
    /// Starts generating actions for `user` on `platform`.
    ///
    /// The driver ticks once a minute and draws from a Poisson distribution
    /// with the per-minute mean, so bursts are possible, as on real OSNs.
    pub fn start(
        &self,
        sched: &mut Scheduler,
        platform: &OsnPlatform,
        user: UserId,
        mut rng: SimRng,
    ) -> ActivityDriverHandle {
        let model = self.clone();
        let platform = platform.clone();
        let timer = Timer::start(sched, SimDuration::from_secs(60), move |s| {
            let n = rng.poisson(model.actions_per_hour / 60.0);
            for _ in 0..n {
                model.perform_one(s, &platform, &user, &mut rng);
            }
        });
        ActivityDriverHandle { timer }
    }

    fn perform_one(
        &self,
        sched: &mut Scheduler,
        platform: &OsnPlatform,
        user: &UserId,
        rng: &mut SimRng,
    ) {
        let topic = rng.choose(&TOPICS).copied().unwrap_or("weather");
        let r = rng.uniform(0.0, 1.0);
        if r < self.post_fraction {
            let sr = rng.uniform(0.0, 1.0);
            let sentiment = if sr < self.positive_fraction {
                Sentiment::Positive
            } else if sr < self.positive_fraction + self.negative_fraction {
                Sentiment::Negative
            } else {
                Sentiment::Neutral
            };
            let content = generate_post(rng, topic, sentiment);
            platform.post_about(sched, user, topic, &content);
        } else if r < self.post_fraction + (1.0 - self.post_fraction) / 2.0 {
            let content = generate_post(rng, topic, Sentiment::Neutral);
            platform.comment(sched, user, &content);
        } else {
            platform.like(sched, user, &format!("{topic} fan page"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::OsnActionKind;

    #[test]
    fn generates_roughly_poisson_volume() {
        let mut sched = Scheduler::new();
        let platform = OsnPlatform::new(SimRng::seed_from(8));
        let alice = UserId::new("alice");
        platform.register_user(alice.clone());
        let model = UserActivityModel {
            actions_per_hour: 6.0,
            ..UserActivityModel::default()
        };
        let handle = model.start(&mut sched, &platform, alice, SimRng::seed_from(9));
        sched.run_for(SimDuration::from_mins(60 * 10)); // 10 hours
        handle.stop();
        let n = platform.feed().len() as f64;
        assert!((40.0..=80.0).contains(&n), "expected ~60 actions, got {n}");
    }

    #[test]
    fn mixes_action_kinds() {
        let mut sched = Scheduler::new();
        let platform = OsnPlatform::new(SimRng::seed_from(8));
        let alice = UserId::new("alice");
        platform.register_user(alice.clone());
        let model = UserActivityModel {
            actions_per_hour: 60.0,
            ..UserActivityModel::default()
        };
        let handle = model.start(&mut sched, &platform, alice, SimRng::seed_from(10));
        sched.run_for(SimDuration::from_mins(240));
        handle.stop();
        let feed = platform.feed();
        let posts = feed
            .iter()
            .filter(|a| a.kind == OsnActionKind::Post)
            .count();
        let likes = feed
            .iter()
            .filter(|a| a.kind == OsnActionKind::Like)
            .count();
        let comments = feed
            .iter()
            .filter(|a| a.kind == OsnActionKind::Comment)
            .count();
        assert!(
            posts > 0 && likes > 0 && comments > 0,
            "p={posts} l={likes} c={comments}"
        );
        // Posts carry topics for content-based filters.
        assert!(feed
            .iter()
            .filter(|a| a.kind == OsnActionKind::Post)
            .all(|a| a.topic.is_some()));
    }

    #[test]
    fn stopped_driver_stays_quiet() {
        let mut sched = Scheduler::new();
        let platform = OsnPlatform::new(SimRng::seed_from(8));
        let alice = UserId::new("alice");
        platform.register_user(alice.clone());
        let handle =
            UserActivityModel::default().start(&mut sched, &platform, alice, SimRng::seed_from(11));
        handle.stop();
        sched.run_for(SimDuration::from_mins(120));
        assert!(platform.feed().is_empty());
    }
}
