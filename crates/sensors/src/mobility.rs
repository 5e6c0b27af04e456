//! Mobility models driving the ground-truth position.

use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timer, TimerHandle};
use sensocial_types::GeoPoint;

use crate::environment::DeviceEnvironment;

/// How a device moves through space over virtual time.
#[derive(Debug, Clone)]
pub enum MobilityModel {
    /// The device never moves.
    Stationary,
    /// Random waypoint within a disc: pick a point in the disc, move there
    /// at the given speed, repeat. The classic mobility model for
    /// city-scale simulations.
    RandomWaypoint {
        /// Disc centre.
        center: GeoPoint,
        /// Disc radius in metres.
        radius_m: f64,
        /// Movement speed in m/s.
        speed_mps: f64,
    },
    /// Follow a fixed route of waypoints at the given speed, then stop.
    /// This is user C's Bordeaux→Paris trip in the paper's Figure 2.
    Route {
        /// Waypoints visited in order.
        waypoints: Vec<GeoPoint>,
        /// Movement speed in m/s.
        speed_mps: f64,
    },
}

/// Drives a [`DeviceEnvironment`]'s position along a [`MobilityModel`].
///
/// Only a driver that can still move the device keeps a timer: a
/// stationary device schedules nothing, and a route's timer ends with its
/// last leg.
#[derive(Debug)]
pub struct MobilityDriver {
    handle: Option<TimerHandle>,
}

/// Update cadence for positions; 1 s gives smooth city-scale movement.
const TICK: SimDuration = SimDuration::from_secs(1);

impl MobilityDriver {
    /// Starts driving `env` along `model`. Dropping the driver does not
    /// stop it; call [`MobilityDriver::stop`].
    pub fn start(
        sched: &mut Scheduler,
        env: DeviceEnvironment,
        model: MobilityModel,
        mut rng: SimRng,
    ) -> Self {
        let mut leg: Option<(GeoPoint, GeoPoint, f64, f64)> = None; // (from, to, total_s, done_s)
        let handle = match model {
            MobilityModel::Stationary => None,
            MobilityModel::RandomWaypoint {
                center,
                radius_m,
                speed_mps,
            } => Some(Timer::start(sched, TICK, move |_s| {
                if leg.is_none() {
                    let from = env.position();
                    let bearing = rng.uniform(0.0, 360.0);
                    let dist = rng.uniform(0.0, radius_m);
                    let to = center.offset(dist, bearing);
                    let total_s = (from.distance_m(to) / speed_mps.max(0.1)).max(1.0);
                    leg = Some((from, to, total_s, 0.0));
                }
                advance_leg(&env, &mut leg, TICK.as_secs_f64());
            })),
            MobilityModel::Route {
                waypoints,
                speed_mps,
            } => {
                let mut route_idx = 0usize;
                // Ticks after the last leg would change nothing, so the
                // timer ends with it.
                Some(Timer::start_while(sched, TICK, move |_s| {
                    if leg.is_none() && route_idx < waypoints.len() {
                        let from = env.position();
                        let to = waypoints[route_idx];
                        route_idx += 1;
                        let total_s = (from.distance_m(to) / speed_mps.max(0.1)).max(1.0);
                        leg = Some((from, to, total_s, 0.0));
                    }
                    advance_leg(&env, &mut leg, TICK.as_secs_f64());
                    leg.is_some() || route_idx < waypoints.len()
                }))
            }
        };
        MobilityDriver { handle }
    }

    /// Stops the driver; the device keeps its last position.
    pub fn stop(&self) {
        if let Some(handle) = &self.handle {
            handle.stop();
        }
    }

    /// Whether the driver is still moving the device: false once it is
    /// stopped, once a route is complete, and always for a stationary
    /// device.
    pub fn is_active(&self) -> bool {
        self.handle.as_ref().is_some_and(TimerHandle::is_active)
    }
}

/// Moves one tick along the current leg, clearing it when complete.
fn advance_leg(
    env: &DeviceEnvironment,
    leg: &mut Option<(GeoPoint, GeoPoint, f64, f64)>,
    dt_s: f64,
) {
    if let Some((from, to, total_s, done_s)) = leg {
        *done_s += dt_s;
        let f = (*done_s / *total_s).min(1.0);
        env.set_position(from.lerp(*to, f));
        if f >= 1.0 {
            *leg = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::geo::cities;

    #[test]
    fn stationary_never_moves() {
        let mut sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::paris());
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::Stationary,
            SimRng::seed_from(1),
        );
        assert_eq!(sched.pending(), 0, "a stationary device schedules nothing");
        assert!(!driver.is_active());
        sched.run_for(SimDuration::from_mins(10));
        driver.stop();
        assert_eq!(env.position(), cities::paris());
        assert_eq!(sched.events_executed(), 0);
    }

    #[test]
    fn route_ends_its_timer_at_the_last_waypoint() {
        let mut sched = Scheduler::new();
        let start = cities::bordeaux();
        let (via, goal) = (cities::paris(), cities::bordeaux());
        let env = DeviceEnvironment::new(start);
        // Two ~500 km legs at 5 km/s: ~100 ticks each.
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::Route {
                waypoints: vec![via, goal],
                speed_mps: 5_000.0,
            },
            SimRng::seed_from(1),
        );
        sched.run_for(SimDuration::from_secs(60));
        assert!(driver.is_active(), "still on the first leg");
        assert_eq!(sched.pending(), 1);
        sched.run_for(SimDuration::from_mins(10));
        assert!(!driver.is_active(), "route complete");
        assert_eq!(sched.pending(), 0, "no tick left after the last leg");
        let ticks = sched.events_executed();
        assert!((150..=250).contains(&ticks), "{ticks} ticks for two legs");
        // Each leg ends on its waypoint exactly as a timer that kept
        // ticking would have left it.
        assert_eq!(env.position(), start.lerp(via, 1.0).lerp(goal, 1.0));
    }

    #[test]
    fn random_waypoint_keeps_ticking() {
        let mut sched = Scheduler::new();
        let center = cities::paris();
        let env = DeviceEnvironment::new(center);
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::RandomWaypoint {
                center,
                radius_m: 2_000.0,
                speed_mps: 30.0,
            },
            SimRng::seed_from(5),
        );
        sched.run_for(SimDuration::from_mins(30));
        assert!(driver.is_active());
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.events_executed(), 30 * 60);
        let before = env.position();
        sched.run_for(SimDuration::from_mins(1));
        assert_ne!(env.position(), before, "still moving");
        driver.stop();
    }

    #[test]
    fn route_reaches_destination() {
        let mut sched = Scheduler::new();
        let start = cities::bordeaux();
        let goal = cities::paris();
        let env = DeviceEnvironment::new(start);
        // 500 km at 5 km/s of simulated travel (fast train of the gods):
        // finishes in ~100 s of virtual time.
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::Route {
                waypoints: vec![goal],
                speed_mps: 5_000.0,
            },
            SimRng::seed_from(1),
        );
        sched.run_for(SimDuration::from_secs(200));
        driver.stop();
        assert!(
            env.position().distance_m(goal) < 10_000.0,
            "ended {} from goal",
            env.position().distance_m(goal)
        );
    }

    #[test]
    fn route_passes_through_intermediate_territory() {
        let mut sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::bordeaux());
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::Route {
                waypoints: vec![cities::paris()],
                speed_mps: 2_500.0,
            },
            SimRng::seed_from(1),
        );
        sched.run_for(SimDuration::from_secs(100));
        let midway = env.position();
        assert!(midway.distance_m(cities::bordeaux()) > 100_000.0);
        assert!(midway.distance_m(cities::paris()) > 100_000.0);
        driver.stop();
    }

    #[test]
    fn random_waypoint_stays_in_disc() {
        let mut sched = Scheduler::new();
        let center = cities::paris();
        let env = DeviceEnvironment::new(center);
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::RandomWaypoint {
                center,
                radius_m: 2_000.0,
                speed_mps: 30.0,
            },
            SimRng::seed_from(5),
        );
        for _ in 0..30 {
            sched.run_for(SimDuration::from_mins(1));
            // Allow a small excursion: legs interpolate between in-disc
            // points, so positions stay within the disc up to lerp error.
            assert!(env.position().distance_m(center) <= 2_100.0);
        }
        driver.stop();
    }

    #[test]
    fn stop_freezes_motion() {
        let mut sched = Scheduler::new();
        let env = DeviceEnvironment::new(cities::bordeaux());
        let driver = MobilityDriver::start(
            &mut sched,
            env.clone(),
            MobilityModel::Route {
                waypoints: vec![cities::paris()],
                speed_mps: 1_000.0,
            },
            SimRng::seed_from(1),
        );
        sched.run_for(SimDuration::from_secs(30));
        driver.stop();
        assert!(!driver.is_active());
        let frozen = env.position();
        sched.run_for(SimDuration::from_mins(5));
        assert_eq!(env.position(), frozen);
    }
}
