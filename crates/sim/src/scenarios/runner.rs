//! Replays a [`Schedule`] against a fresh [`World`] and collects the
//! evidence the acceptance harness judges: the final merged telemetry
//! snapshot (and its canonical wire form), subscriber-side delivery
//! counts, and per-slice backlog probes for the soak's bounded-backlog
//! criterion.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use sensocial::server::StreamSelector;
use sensocial::{Filter, StreamId, StreamMode, TelemetrySnapshot};
use sensocial_broker::ReconnectPolicy;
use sensocial_campaign::{CampaignPolicies, CampaignScheduler, CampaignSpec, Journal};
use sensocial_net::{EndpointId, FaultWindow};
use sensocial_runtime::{SimDuration, Timestamp};
use sensocial_types::{DeviceId, GeoPoint};

use super::acceptance::total_backlog;
use super::schedule::{build_stream_spec, Schedule, ScheduledAction};
use super::{ScenarioError, ScenarioSpec};
use crate::{World, WorldConfig};

/// The campaign-scheduler side of a scenario run: every instance ever
/// stood up (crashed ones keep their telemetry, which merges into the
/// outcome), the journal and policies/seed a recovery must be handed
/// again, and the continuous stream each device's campaign reconfigures.
struct CampaignRig {
    /// Outlives every instance, as the deployment's durable state.
    journal: Journal,
    policies: CampaignPolicies,
    seed: u64,
    /// All instances in stand-up order; the live one is last.
    instances: Vec<CampaignScheduler>,
    /// Each device's continuous stream (the campaign target).
    streams: BTreeMap<String, StreamId>,
}

/// Everything a scenario run produces, ready for threshold checks.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The final merged deployment snapshot.
    pub snapshot: TelemetrySnapshot,
    /// Canonical wire form of `snapshot` — two same-seed runs must agree
    /// on these bytes exactly.
    pub wire: String,
    /// Total backlog (client uplink + broker offline queues) sampled at
    /// each probe-slice boundary, in time order.
    pub backlog_samples: Vec<u64>,
    /// Events the server-side pass-all subscriber received.
    pub subscriber_deliveries: u64,
    /// Devices provisioned by the schedule.
    pub device_count: usize,
    /// Virtual time the scenario covered.
    pub duration: SimDuration,
    /// Whole-deployment static analysis: per-plan flow verdicts and the
    /// cross-user dependency edges. Two same-seed runs must agree on its
    /// canonical JSON byte-for-byte.
    pub analysis: sensocial_analysis::AnalysisReport,
}

/// Replays `schedule` against a fresh world seeded from `spec`.
///
/// Probe slices and scripted events are interleaved on the single
/// virtual clock: the world never advances past an event's instant
/// before the event is applied, and backlog probes land at exact slice
/// boundaries regardless of what the schedule is doing.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the schedule references a device the
/// world does not know or the middleware rejects a stream.
pub fn run_schedule(
    spec: &ScenarioSpec,
    schedule: &Schedule,
) -> Result<ScenarioOutcome, ScenarioError> {
    let mut world = World::new(WorldConfig {
        seed: spec.seed,
        ..WorldConfig::default()
    });

    let mut rig = spec.campaign.map(|c| {
        let journal = Journal::new();
        CampaignRig {
            instances: vec![CampaignScheduler::new(
                &world.server,
                &journal,
                c.policies(),
                spec.seed,
            )],
            journal,
            policies: c.policies(),
            seed: spec.seed,
            streams: BTreeMap::new(),
        }
    });

    let deliveries = Rc::new(Cell::new(0));
    {
        let deliveries = deliveries.clone();
        world.server.register_listener(
            StreamSelector::AllUplinks,
            Filter::pass_all(),
            move |_s, _e| {
                deliveries.set(deliveries.get() + 1);
            },
        )?;
    }

    let probes = schedule.probe_slices.max(1);
    let slice = schedule.duration / probes as u64;
    let mut samples: Vec<u64> = Vec::with_capacity(probes);
    let mut next_probe = Timestamp::ZERO + slice;

    for event in schedule.events() {
        while samples.len() < probes && next_probe < event.at {
            world.sched.run_until(next_probe);
            samples.push(total_backlog(&world.telemetry_snapshot()));
            next_probe += slice;
        }
        if event.at > world.sched.now() {
            world.sched.run_until(event.at);
        }
        apply(&mut world, &mut rig, &event.action)?;
    }
    while samples.len() < probes {
        world.sched.run_until(next_probe);
        samples.push(total_backlog(&world.telemetry_snapshot()));
        next_probe += slice;
    }
    // Zero-length slices (duration shorter than the probe count) leave
    // the clock short of the full duration; finish the run either way.
    world.sched.run_until(Timestamp::ZERO + schedule.duration);

    let mut snapshot = world.telemetry_snapshot();
    if let Some(rig) = &rig {
        // Every instance that ever ran contributes: a crashed scheduler's
        // dispatches happened, and zero-lost/zero-dup accounting needs
        // them alongside the replacement's.
        for instance in &rig.instances {
            snapshot.merge(&instance.snapshot());
        }
    }
    let wire = snapshot.to_wire();
    let analysis = world.analysis_report();
    Ok(ScenarioOutcome {
        snapshot,
        wire,
        backlog_samples: samples,
        subscriber_deliveries: deliveries.get(),
        device_count: schedule.device_count(),
        duration: schedule.duration,
        analysis,
    })
}

/// Applies one scripted action to the live world.
fn apply(
    world: &mut World,
    rig: &mut Option<CampaignRig>,
    action: &ScheduledAction,
) -> Result<(), ScenarioError> {
    match action {
        ScheduledAction::AddDevice {
            user,
            device,
            lat,
            lon,
        } => {
            world.add_device(user.as_str(), device.as_str(), GeoPoint::new(*lat, *lon));
        }
        ScheduledAction::Supervise {
            device,
            keepalive_ms,
        } => {
            let client = world
                .device(device)
                .ok_or_else(|| ScenarioError::UnknownDevice(device.clone()))?
                .manager
                .broker_client()
                .ok_or_else(|| ScenarioError::NoBrokerClient(device.clone()))?
                .clone();
            client.set_keepalive(SimDuration::from_millis((*keepalive_ms).max(1)));
            client.set_reconnect_policy(ReconnectPolicy {
                initial_backoff: SimDuration::from_secs(1),
                max_backoff: SimDuration::from_secs(8),
                jitter: 0.1,
            });
        }
        ScheduledAction::CreateStream {
            device,
            modality,
            granularity,
            mode,
            interval_ms,
        } => {
            let stream = world.create_stream(
                device,
                build_stream_spec(*modality, *granularity, *mode, *interval_ms),
            )?;
            // The first continuous stream on each device is what its
            // campaign reconfigures.
            if let Some(rig) = rig {
                if matches!(mode, StreamMode::Continuous) {
                    rig.streams.entry(device.clone()).or_insert(stream);
                }
            }
        }
        ScheduledAction::StartMobility { device, model } => {
            let model = model.clone();
            world
                .with_device(device, |sched, d| d.start_mobility(sched, model))
                .ok_or_else(|| ScenarioError::UnknownDevice(device.clone()))?;
        }
        ScheduledAction::Post {
            user,
            topic,
            content,
        } => {
            world.post_about(user, topic, content);
        }
        ScheduledAction::ChurnWave {
            devices,
            from_ms,
            until_ms,
            down_ms,
            up_ms,
            stagger_ms,
        } => {
            let endpoints: Vec<EndpointId> = devices
                .iter()
                .map(|d| EndpointId::from(format!("{d}-ep")))
                .collect();
            world.net.churn_wave(
                &endpoints,
                FaultWindow::new(
                    Timestamp::from_millis(*from_ms),
                    Timestamp::from_millis(*until_ms),
                ),
                SimDuration::from_millis(*down_ms),
                SimDuration::from_millis(*up_ms),
                SimDuration::from_millis(*stagger_ms),
            );
        }
        ScheduledAction::Outage {
            device,
            from_ms,
            until_ms,
        } => {
            world.net.set_endpoint_down(
                &EndpointId::from(format!("{device}-ep")),
                FaultWindow::new(
                    Timestamp::from_millis(*from_ms),
                    Timestamp::from_millis(*until_ms),
                ),
            );
        }
        ScheduledAction::LaunchCampaigns {
            start_ms,
            period_ms,
            occurrences,
            interval_ms,
        } => {
            let Some(rig) = rig else {
                return Ok(());
            };
            let Some(scheduler) = rig.instances.last().cloned() else {
                return Ok(());
            };
            for (device, stream) in &rig.streams {
                scheduler.register(
                    &mut world.sched,
                    CampaignSpec {
                        id: format!("camp-{device}"),
                        app: "scenario".to_owned(),
                        device: DeviceId::new(device.as_str()),
                        stream: *stream,
                        start: Timestamp::from_millis(*start_ms),
                        period: SimDuration::from_millis((*period_ms).max(1)),
                        occurrences: *occurrences,
                        interval_ms: *interval_ms,
                    },
                )?;
            }
        }
        ScheduledAction::CrashScheduler => {
            if let Some(rig) = rig {
                if let Some(instance) = rig.instances.last() {
                    instance.crash();
                }
            }
        }
        ScheduledAction::RecoverScheduler => {
            if let Some(rig) = rig {
                let recovered =
                    CampaignScheduler::recover(&world.server, &rig.journal, rig.policies, rig.seed);
                recovered.start(&mut world.sched);
                rig.instances.push(recovered);
            }
        }
    }
    Ok(())
}
