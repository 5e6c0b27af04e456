//! Workload model generators: mobility shapes, OSN activity shapes and
//! fault shapes, composed into one deterministic [`Schedule`].
//!
//! Everything here is a pure function of the spec and the seeded
//! [`SimRng`] streams split off it — no wall clock, no global RNG — so a
//! spec generates the same schedule on every run and every machine with
//! the same float libm (the determinism gates compare runs within one
//! environment).

use sensocial::StreamMode;
use sensocial_runtime::{SimDuration, SimRng, Timestamp};
use sensocial_sensors::MobilityModel;
use sensocial_types::{GeoPoint, Granularity, Modality};

use super::schedule::{Schedule, ScheduledAction, ScheduledEvent};
use super::{ScenarioName, ScenarioSpec};

/// Walking pace used for pre-egress milling inside the stadium fence.
const MILL_SPEED_MPS: f64 = 1.4;

/// Generates the full deterministic schedule for a spec. Pure: two calls
/// with the same spec yield byte-identical [`Schedule::to_wire`] output.
pub(crate) fn generate(spec: &ScenarioSpec) -> Schedule {
    let mut rng = SimRng::seed_from(spec.seed);
    let mut events: Vec<ScheduledEvent> = Vec::new();

    let users: Vec<String> = (0..spec.devices).map(|i| format!("user-{i:03}")).collect();
    let devices: Vec<String> = (0..spec.devices).map(|i| format!("dev-{i:03}")).collect();

    let positions = placements(spec, &mut rng.split("placement"));
    population(spec, &users, &devices, &positions, &mut events);

    let mut mobility_rng = rng.split("mobility");
    match spec.name {
        ScenarioName::StadiumEgress => {
            flash_crowd(spec, &devices, &mut mobility_rng, &mut events);
        }
        ScenarioName::CommuteCascade => {
            commute(spec, &devices, &positions, &mut mobility_rng, &mut events);
        }
        ScenarioName::ChurnWave
        | ScenarioName::Soak
        | ScenarioName::CampaignStorm
        | ScenarioName::CampaignQuota
        | ScenarioName::CampaignCrash => {}
    }

    osn_activity(spec, &users, &mut rng.split("osn"), &mut events);
    faults(spec, &devices, &mut events);
    campaigns(spec, &mut events);

    Schedule::new(spec.duration, spec.probe_slices, events)
}

/// Campaign workload events: one registration burst at t=0 (the due
/// times live in the campaign scenario itself), plus the scripted
/// scheduler crash and journal recovery when the scenario has them.
/// Zero-device populations register zero campaigns, so the events are
/// only emitted for populated fleets.
fn campaigns(spec: &ScenarioSpec, events: &mut Vec<ScheduledEvent>) {
    let Some(c) = spec.campaign else {
        return;
    };
    if spec.devices == 0 {
        return;
    }
    events.push(ScheduledEvent {
        at: Timestamp::ZERO,
        action: ScheduledAction::LaunchCampaigns {
            start_ms: c.start_ms,
            period_ms: c.period_ms,
            occurrences: c.occurrences,
            interval_ms: c.interval_ms,
        },
    });
    if let Some(at) = c.crash_ms {
        events.push(ScheduledEvent {
            at: Timestamp::from_millis(at),
            action: ScheduledAction::CrashScheduler,
        });
    }
    if let Some(at) = c.recover_ms {
        events.push(ScheduledEvent {
            at: Timestamp::from_millis(at),
            action: ScheduledAction::RecoverScheduler,
        });
    }
}

/// Initial device positions: a uniform disc around the scenario center,
/// or a suburb ring for commute flows.
fn placements(spec: &ScenarioSpec, rng: &mut SimRng) -> Vec<GeoPoint> {
    (0..spec.devices)
        .map(|_| match spec.name {
            ScenarioName::CommuteCascade => {
                let bearing = rng.uniform(0.0, 360.0);
                let distance = 6_000.0 + rng.uniform(0.0, 4_000.0);
                spec.center.offset(distance, bearing)
            }
            _ => scatter(spec.center, spec.spread_m, rng),
        })
        .collect()
}

/// A uniform sample inside the disc of radius `radius_m` around `center`
/// (`sqrt` keeps the density uniform by area). Degenerate radii collapse
/// to the center so zero-spread scenarios stay panic-free.
fn scatter(center: GeoPoint, radius_m: f64, rng: &mut SimRng) -> GeoPoint {
    if radius_m <= 0.0 || !radius_m.is_finite() {
        return center;
    }
    let bearing = rng.uniform(0.0, 360.0);
    let distance = radius_m * rng.uniform(0.0, 1.0).sqrt();
    center.offset(distance, bearing)
}

/// Provisioning at t=0: devices, supervision, and their streams.
fn population(
    spec: &ScenarioSpec,
    users: &[String],
    devices: &[String],
    positions: &[GeoPoint],
    events: &mut Vec<ScheduledEvent>,
) {
    let t0 = Timestamp::ZERO;
    for (i, device) in devices.iter().enumerate() {
        let position = positions.get(i).copied().unwrap_or(spec.center);
        events.push(ScheduledEvent {
            at: t0,
            action: ScheduledAction::AddDevice {
                user: users[i].clone(),
                device: device.clone(),
                lat: position.lat,
                lon: position.lon,
            },
        });
        if spec.supervised {
            events.push(ScheduledEvent {
                at: t0,
                action: ScheduledAction::Supervise {
                    device: device.clone(),
                    keepalive_ms: spec.keepalive.as_millis().max(1),
                },
            });
        }
        events.push(ScheduledEvent {
            at: t0,
            action: ScheduledAction::CreateStream {
                device: device.clone(),
                modality: Modality::Location,
                granularity: Granularity::Raw,
                mode: StreamMode::Continuous,
                interval_ms: spec.stream_interval.as_millis().max(1),
            },
        });
        if spec.event_stream_every > 0 && i % spec.event_stream_every == 0 {
            events.push(ScheduledEvent {
                at: t0,
                action: ScheduledAction::CreateStream {
                    device: device.clone(),
                    modality: Modality::Bluetooth,
                    granularity: Granularity::Raw,
                    mode: StreamMode::SocialEventBased,
                    interval_ms: spec.stream_interval.as_millis().max(1),
                },
            });
        }
    }
}

/// Correlated flash-crowd convergence: the crowd mills inside the venue,
/// then at the egress instant every device routes through one gate and
/// disperses to a personal "home" point — the worst-case correlated
/// mobility burst for location streams.
fn flash_crowd(
    spec: &ScenarioSpec,
    devices: &[String],
    rng: &mut SimRng,
    events: &mut Vec<ScheduledEvent>,
) {
    let egress = Timestamp::ZERO + spec.duration / 3;
    let gate = spec.center.offset(spec.spread_m.max(1.0), 90.0);
    for device in devices {
        events.push(ScheduledEvent {
            at: Timestamp::ZERO,
            action: ScheduledAction::StartMobility {
                device: device.clone(),
                model: MobilityModel::RandomWaypoint {
                    center: spec.center,
                    radius_m: spec.spread_m.max(1.0),
                    speed_mps: MILL_SPEED_MPS,
                },
            },
        });
        let home = gate.offset(1_500.0 + rng.uniform(0.0, 3_500.0), rng.uniform(0.0, 360.0));
        events.push(ScheduledEvent {
            at: egress,
            action: ScheduledAction::StartMobility {
                device: device.clone(),
                model: MobilityModel::Route {
                    waypoints: vec![gate, home],
                    speed_mps: spec.speed_mps.max(0.5),
                },
            },
        });
    }
}

/// Commute flow: staggered departures from the suburb ring toward the
/// center during the first third of the run.
fn commute(
    spec: &ScenarioSpec,
    devices: &[String],
    positions: &[GeoPoint],
    rng: &mut SimRng,
    events: &mut Vec<ScheduledEvent>,
) {
    let window_ms = (spec.duration.as_millis() / 3).max(1);
    for (i, device) in devices.iter().enumerate() {
        let departure = Timestamp::from_millis(rng.uniform_u64(0, window_ms));
        let start = positions.get(i).copied().unwrap_or(spec.center);
        let office = scatter(spec.center, 500.0, rng);
        events.push(ScheduledEvent {
            at: departure,
            action: ScheduledAction::StartMobility {
                device: device.clone(),
                model: MobilityModel::Route {
                    waypoints: vec![start, office],
                    speed_mps: spec.speed_mps.max(0.5),
                },
            },
        });
    }
}

/// OSN activity: geo-correlated post bursts plus power-law re-share
/// cascades. The first seed post always comes from `user-000` (the
/// "celebrity" whose cascade the commute scenario measures); later seed
/// posts and every re-sharer are drawn from the whole population.
///
/// All posts are clamped to the first three quarters of the run so the
/// OSN plug-in's push delay cannot carry deliveries past the end of the
/// scenario — which is what lets the acceptance harness put an exact
/// floor under `server.osn_actions`.
fn osn_activity(
    spec: &ScenarioSpec,
    users: &[String],
    rng: &mut SimRng,
    events: &mut Vec<ScheduledEvent>,
) {
    if spec.osn_seed_posts == 0 || users.is_empty() {
        return;
    }
    let n = users.len() as u64;
    let topic = spec.name.topic();
    let burst_at = Timestamp::ZERO
        + match spec.name {
            ScenarioName::StadiumEgress
            | ScenarioName::ChurnWave
            | ScenarioName::CampaignStorm
            | ScenarioName::CampaignQuota
            | ScenarioName::CampaignCrash => spec.duration / 3,
            ScenarioName::CommuteCascade => spec.duration / 4,
            ScenarioName::Soak => SimDuration::from_secs(60),
        };
    let post_gap = match spec.name {
        // Soak posts spread across the whole (clamped) run instead of
        // bursting, so steady-state behaviour is what gets soaked.
        ScenarioName::Soak => spec.duration / (spec.osn_seed_posts as u64 + 1),
        _ => SimDuration::from_secs(20),
    };
    for p in 0..spec.osn_seed_posts {
        let poster = if p == 0 {
            users[0].clone()
        } else {
            users[rng.uniform_u64(0, n) as usize].clone()
        };
        let at = clamp_to_run(burst_at + post_gap * (p as u64), spec.duration);
        events.push(ScheduledEvent {
            at,
            action: ScheduledAction::Post {
                user: poster.clone(),
                topic: topic.to_owned(),
                content: format!("{topic} update #{p}"),
            },
        });
        cascade(spec, users, poster.as_str(), p, at, rng, events);
    }
}

/// Power-law re-share waves for one seed post: wave `w` carries
/// `fanout / w²` re-sharers, each delayed by the wave offset plus an
/// exponential think-time jitter.
fn cascade(
    spec: &ScenarioSpec,
    users: &[String],
    poster: &str,
    post_index: usize,
    post_at: Timestamp,
    rng: &mut SimRng,
    events: &mut Vec<ScheduledEvent>,
) {
    let n = users.len() as u64;
    let topic = spec.name.topic();
    for wave in 1u64..=4 {
        let resharers = spec.reshare_fanout as u64 / (wave * wave);
        for _ in 0..resharers {
            let sharer = users[rng.uniform_u64(0, n) as usize].clone();
            let jitter = SimDuration::from_secs_f64(rng.exponential(0.1));
            let at = clamp_to_run(
                post_at + SimDuration::from_secs(45) * wave + jitter,
                spec.duration,
            );
            events.push(ScheduledEvent {
                at,
                action: ScheduledAction::Post {
                    user: sharer,
                    topic: topic.to_owned(),
                    content: format!("RT {poster} {topic} update #{post_index}"),
                },
            });
        }
    }
}

/// Caps an instant at three quarters of the run so downstream delivery
/// (plug-in push delay, transit) completes before the scenario ends.
fn clamp_to_run(at: Timestamp, duration: SimDuration) -> Timestamp {
    at.min(Timestamp::from_millis(duration.as_millis() * 3 / 4))
}

/// Fault shapes: a staggered churn wave through `churn_fraction` of the
/// fleet, or (soak) a rotating single-device outage every six virtual
/// hours with a fault-free tail so backlogs drain before the final probe.
fn faults(spec: &ScenarioSpec, devices: &[String], events: &mut Vec<ScheduledEvent>) {
    match spec.name {
        // The quota scenario rides the same churn-wave fault shape: the
        // wave is what forces ack timeouts and quota-burning retries.
        ScenarioName::ChurnWave | ScenarioName::CampaignQuota => {
            if devices.is_empty() || spec.churn_fraction <= 0.0 || spec.churn_fraction.is_nan() {
                return;
            }
            let fraction = spec.churn_fraction.clamp(0.0, 1.0);
            let churners =
                ((devices.len() as f64 * fraction).ceil() as usize).clamp(1, devices.len());
            // Stride selection spreads churners across the id space
            // deterministically; for fraction = 1.0 it is the whole fleet.
            let chosen: Vec<String> = (0..churners)
                .map(|j| devices[j * devices.len() / churners].clone())
                .collect();
            let from = spec.duration.as_millis() / 4;
            let until = spec.duration.as_millis() * 3 / 4;
            let stagger = (until - from) / (4 * churners as u64).max(1);
            events.push(ScheduledEvent {
                at: Timestamp::from_millis(from),
                action: ScheduledAction::ChurnWave {
                    devices: chosen,
                    from_ms: from,
                    until_ms: until,
                    down_ms: spec.churn_down.as_millis().max(1),
                    up_ms: spec.churn_up.as_millis().max(1),
                    stagger_ms: stagger,
                },
            });
        }
        ScenarioName::Soak => {
            if devices.is_empty() {
                return;
            }
            let cycle = SimDuration::from_secs(6 * 3_600);
            let outage = spec.churn_down;
            // No outage may start in the final tenth of the run: the soak's
            // bounded-backlog assertion needs a quiet drain tail.
            let last_start = spec.duration.as_millis().saturating_mul(9) / 10;
            let cycles = spec.duration.as_millis() / cycle.as_millis().max(1);
            for c in 0..cycles {
                let from = c * cycle.as_millis() + 3_600_000;
                if from >= last_start {
                    break;
                }
                let device = devices[(c as usize) % devices.len()].clone();
                events.push(ScheduledEvent {
                    at: Timestamp::from_millis(from),
                    action: ScheduledAction::Outage {
                        device,
                        from_ms: from,
                        until_ms: from + outage.as_millis().max(1),
                    },
                });
            }
        }
        ScenarioName::StadiumEgress
        | ScenarioName::CommuteCascade
        | ScenarioName::CampaignStorm
        | ScenarioName::CampaignCrash => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ScenarioSpec;

    #[test]
    fn generation_is_pure() {
        for name in super::super::ScenarioName::ALL {
            let spec = ScenarioSpec::named(name);
            assert_eq!(
                generate(&spec).to_wire(),
                generate(&spec).to_wire(),
                "{name} schedule must be a pure function of the spec"
            );
        }
    }

    #[test]
    fn events_are_time_ordered() {
        let schedule = generate(&ScenarioSpec::commute_cascade());
        assert!(schedule.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ScenarioSpec::stadium_egress();
        let other = spec.clone().reseeded(spec.seed + 1);
        assert_ne!(generate(&spec).to_wire(), generate(&other).to_wire());
    }

    #[test]
    fn zero_devices_generates_empty_population() {
        for name in super::super::ScenarioName::ALL {
            let schedule = generate(&ScenarioSpec::named(name).sized(0));
            assert_eq!(schedule.device_count(), 0);
            assert_eq!(schedule.post_count(), 0, "no users, no posts");
        }
    }

    #[test]
    fn full_churn_hits_every_device() {
        let mut spec = ScenarioSpec::churn_wave().sized(5);
        spec.churn_fraction = 1.0;
        let schedule = generate(&spec);
        let wave_devices: Vec<String> = schedule
            .events()
            .iter()
            .find_map(|e| match &e.action {
                ScheduledAction::ChurnWave { devices, .. } => Some(devices.clone()),
                _ => None,
            })
            .unwrap_or_default();
        assert_eq!(wave_devices.len(), 5);
    }

    #[test]
    fn stadium_schedules_egress_handoff_and_burst() {
        let schedule = generate(&ScenarioSpec::stadium_egress());
        let handoffs = schedule
            .events()
            .iter()
            .filter(|e| {
                matches!(e.action, ScheduledAction::StartMobility { .. }) && e.at > Timestamp::ZERO
            })
            .count();
        assert_eq!(handoffs, 24, "every device gets an egress route");
        assert!(schedule.post_count() > 3, "burst plus cascade re-shares");
    }
}
