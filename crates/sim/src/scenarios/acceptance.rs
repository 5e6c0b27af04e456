//! Committed acceptance thresholds: what each named scenario must show
//! in its final [`TelemetrySnapshot`] — drop-cause counters, per-stage
//! latency histogram bounds, and backlog high-water marks — plus the
//! soak's bounded-backlog (no monotone growth) criterion.
//!
//! Thresholds are derived deterministically from the spec and its
//! generated schedule, so they scale with population and duration; the
//! table in `EXPERIMENTS.md` documents the committed defaults.

use sensocial::TelemetrySnapshot;
use sensocial_telemetry::Stage;

use super::runner::ScenarioOutcome;
use super::schedule::Schedule;
use super::{ScenarioName, ScenarioSpec};

/// The gauges that constitute "backlog" for probes and thresholds:
/// client store-and-forward buffers and broker offline queues. The
/// storage ingest buffer is deliberately excluded — it is a
/// read-your-writes batching detail that drains on a fixed tick, not
/// queueing pressure.
pub const BACKLOG_GAUGES: [&str; 2] = ["client.uplink_backlog", "broker.offline_backlog"];

/// Total current backlog across [`BACKLOG_GAUGES`] in a merged snapshot.
pub fn total_backlog(snapshot: &TelemetrySnapshot) -> u64 {
    BACKLOG_GAUGES
        .iter()
        .filter_map(|k| snapshot.gauge(k))
        .map(|g| g.value)
        .sum()
}

/// Total backlog high-water mark across [`BACKLOG_GAUGES`]. Merged
/// high-water marks take the per-source maximum, so this is a sum of
/// per-subsystem worst cases, not a fleet-wide instant.
pub fn backlog_high_water(snapshot: &TelemetrySnapshot) -> u64 {
    BACKLOG_GAUGES
        .iter()
        .filter_map(|k| snapshot.gauge(k))
        .map(|g| g.high_water)
        .sum()
}

/// A per-stage latency requirement: at least `min_count` observations,
/// and (when any exist) a mean no worse than `max_mean_ms`.
#[derive(Debug, Clone)]
pub struct StageBound {
    /// The pipeline stage the bound applies to.
    pub stage: Stage,
    /// Minimum number of observations the stage must have seen.
    pub min_count: u64,
    /// Ceiling on the stage's mean latency-since-birth, milliseconds.
    pub max_mean_ms: f64,
}

/// Delivery-guarantee bounds for campaign scenarios, checked against the
/// merged snapshot (which sums every scheduler instance that ran, so the
/// accounting spans crashes).
#[derive(Debug, Clone)]
pub struct CampaignBounds {
    /// Total occurrences the scenario's campaigns owe (fleet-wide).
    pub occurrences: u64,
    /// When set, `campaign.acked` and `client.campaign_applied` must both
    /// equal this exactly — the zero-lost / zero-duplicated criterion.
    pub exact_acked: Option<u64>,
    /// Whether dead letters are forbidden outright.
    pub zero_dead_letters: bool,
    /// Whether the quota must actually run out
    /// (`campaign.quota_exhausted > 0`).
    pub expect_quota_exhaustion: bool,
    /// Whether journal recovery must have run and device-side dedup must
    /// have engaged (`campaign.recovered_records` and
    /// `client.campaign_duplicates` both positive).
    pub expect_recovery: bool,
}

/// Everything a scenario outcome is judged against.
#[derive(Debug, Clone)]
pub struct AcceptanceThresholds {
    /// Floor on `server.uplink_events`.
    pub min_server_uplinks: u64,
    /// Floor on `server.osn_actions` (the scripted post count — every
    /// post is clamped early enough to be delivered before the end).
    pub min_osn_actions: u64,
    /// Counters that must be exactly zero (e.g. drop causes a fault-free
    /// scenario must never hit).
    pub zero_counters: Vec<&'static str>,
    /// Counters that must be strictly positive (evidence the scenario's
    /// faults actually bit).
    pub nonzero_counters: Vec<&'static str>,
    /// Per-stage latency bounds.
    pub stage_bounds: Vec<StageBound>,
    /// Ceiling on the final backlog probe (scenarios end healed).
    pub max_final_backlog: u64,
    /// Floor on the summed backlog high-water marks (0 = no check) —
    /// proves store-and-forward actually engaged.
    pub min_backlog_high_water: u64,
    /// Ceiling on the summed backlog high-water marks, when bounded.
    pub max_backlog_high_water: Option<u64>,
    /// Bounded-backlog criterion: the probe series must not be strictly
    /// monotone increasing, and at least a quarter of the probes must be
    /// at or below `max_final_backlog` (the system keeps draining).
    pub require_backlog_drain: bool,
    /// Campaign delivery-guarantee bounds (campaign scenarios only).
    pub campaign: Option<CampaignBounds>,
}

impl AcceptanceThresholds {
    /// Judges an outcome; the report lists every violated threshold.
    pub fn check(&self, outcome: &ScenarioOutcome) -> AcceptanceReport {
        let mut violations = Vec::new();
        let snap = &outcome.snapshot;

        let uplinks = snap.counter("server.uplink_events");
        if uplinks < self.min_server_uplinks {
            violations.push(format!(
                "server.uplink_events = {uplinks}, need >= {}",
                self.min_server_uplinks
            ));
        }
        let osn = snap.counter("server.osn_actions");
        if osn < self.min_osn_actions {
            violations.push(format!(
                "server.osn_actions = {osn}, need >= {}",
                self.min_osn_actions
            ));
        }
        for key in &self.zero_counters {
            let value = snap.counter(key);
            if value != 0 {
                violations.push(format!("{key} = {value}, must be 0"));
            }
        }
        for key in &self.nonzero_counters {
            if snap.counter(key) == 0 {
                violations.push(format!("{key} = 0, must be > 0"));
            }
        }
        for bound in &self.stage_bounds {
            match snap.histogram(bound.stage.metric_key()) {
                None => {
                    if bound.min_count > 0 {
                        violations.push(format!(
                            "stage {} saw no samples, need >= {}",
                            bound.stage.as_str(),
                            bound.min_count
                        ));
                    }
                }
                Some(h) => {
                    if h.count < bound.min_count {
                        violations.push(format!(
                            "stage {} count = {}, need >= {}",
                            bound.stage.as_str(),
                            h.count,
                            bound.min_count
                        ));
                    }
                    if h.count > 0 && h.mean_ms() > bound.max_mean_ms {
                        violations.push(format!(
                            "stage {} mean = {:.1} ms, cap {} ms",
                            bound.stage.as_str(),
                            h.mean_ms(),
                            bound.max_mean_ms
                        ));
                    }
                }
            }
        }

        let final_backlog = outcome.backlog_samples.last().copied().unwrap_or(0);
        if final_backlog > self.max_final_backlog {
            violations.push(format!(
                "final backlog = {final_backlog}, cap {}",
                self.max_final_backlog
            ));
        }
        let high_water = backlog_high_water(snap);
        if self.min_backlog_high_water > 0 && high_water < self.min_backlog_high_water {
            violations.push(format!(
                "backlog high-water = {high_water}, need >= {} (buffering never engaged)",
                self.min_backlog_high_water
            ));
        }
        if let Some(cap) = self.max_backlog_high_water {
            if high_water > cap {
                violations.push(format!("backlog high-water = {high_water}, cap {cap}"));
            }
        }
        if self.require_backlog_drain {
            let samples = &outcome.backlog_samples;
            if samples.len() >= 3 && samples.windows(2).all(|w| w[1] > w[0]) {
                violations.push(format!(
                    "backlog grows monotonically across probes: {samples:?}"
                ));
            }
            if !samples.is_empty() {
                let drained = samples
                    .iter()
                    .filter(|s| **s <= self.max_final_backlog)
                    .count();
                if drained < samples.len().div_ceil(4) {
                    violations.push(format!(
                        "backlog drained in only {drained}/{} probes: {samples:?}",
                        samples.len()
                    ));
                }
            }
        }

        if let Some(bounds) = &self.campaign {
            let acked = snap.counter("campaign.acked");
            let dead = snap.counter("campaign.dead_lettered");
            let applied = snap.counter("client.campaign_applied");
            if acked + dead != bounds.occurrences {
                violations.push(format!(
                    "campaign settlement: acked {acked} + dead-lettered {dead} != {} occurrences due",
                    bounds.occurrences
                ));
            }
            match bounds.exact_acked {
                Some(exact) => {
                    if acked != exact {
                        violations.push(format!(
                            "campaign.acked = {acked}, must be exactly {exact} (zero lost)"
                        ));
                    }
                    if applied != exact {
                        violations.push(format!(
                            "client.campaign_applied = {applied}, must be exactly {exact} (zero duplicated)"
                        ));
                    }
                }
                None => {
                    // Quota pressure can dead-letter an occurrence whose
                    // command a device already applied (the ack raced the
                    // retry budget), so the exact-once bound widens to:
                    // every applied occurrence is acked or dead-lettered.
                    if applied < acked || applied > acked + dead {
                        violations.push(format!(
                            "client.campaign_applied = {applied} outside [{acked}, {}]",
                            acked + dead
                        ));
                    }
                }
            }
            if bounds.zero_dead_letters && dead != 0 {
                violations.push(format!("campaign.dead_lettered = {dead}, must be 0"));
            }
            if bounds.expect_quota_exhaustion && snap.counter("campaign.quota_exhausted") == 0 {
                violations.push("campaign.quota_exhausted = 0, quota never bit".to_owned());
            }
            if bounds.expect_recovery {
                if snap.counter("campaign.recovered_records") == 0 {
                    violations
                        .push("campaign.recovered_records = 0, recovery never replayed".to_owned());
                }
                if snap.counter("client.campaign_duplicates") == 0 {
                    violations.push(
                        "client.campaign_duplicates = 0, device-side dedup never engaged"
                            .to_owned(),
                    );
                }
            }
        }

        AcceptanceReport { violations }
    }
}

/// The verdict of [`AcceptanceThresholds::check`].
#[derive(Debug, Clone)]
pub struct AcceptanceReport {
    /// Human-readable descriptions of every violated threshold.
    pub violations: Vec<String>,
}

impl AcceptanceReport {
    /// Whether every threshold held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for AcceptanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.violations.is_empty() {
            return f.write_str("acceptance: pass");
        }
        writeln!(f, "acceptance: {} violation(s)", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// The committed thresholds for a spec, scaled to its population and
/// schedule. The divisors are deliberately generous: thresholds assert
/// the *shape* of the outcome (traffic arrived, the right drop causes
/// fired or stayed silent, backlogs drained), not exact counts, so they
/// survive parameter tweaks without being vacuous.
pub(crate) fn thresholds(spec: &ScenarioSpec, schedule: &Schedule) -> AcceptanceThresholds {
    let per_device = spec.duration.as_millis() / spec.stream_interval.as_millis().max(1);
    let continuous_floor = schedule.device_count() as u64 * per_device;

    match spec.name {
        ScenarioName::StadiumEgress | ScenarioName::CommuteCascade => AcceptanceThresholds {
            min_server_uplinks: continuous_floor / 2,
            min_osn_actions: schedule.post_count(),
            zero_counters: vec![
                "net.dropped.loss",
                "net.dropped.partition",
                "net.dropped.endpoint_down",
                "client.uplink.dropped",
                "broker.offline_dropped",
            ],
            nonzero_counters: Vec::new(),
            stage_bounds: vec![
                StageBound {
                    stage: Stage::Server,
                    min_count: continuous_floor / 2,
                    max_mean_ms: 2_500.0,
                },
                StageBound {
                    stage: Stage::Subscriber,
                    min_count: continuous_floor / 2,
                    max_mean_ms: 2_500.0,
                },
            ],
            max_final_backlog: 0,
            min_backlog_high_water: 0,
            max_backlog_high_water: None,
            require_backlog_drain: false,
            campaign: None,
        },
        ScenarioName::ChurnWave => AcceptanceThresholds {
            min_server_uplinks: continuous_floor / 4,
            min_osn_actions: schedule.post_count(),
            zero_counters: vec!["net.dropped.loss", "net.dropped.partition"],
            nonzero_counters: vec![
                "net.dropped.endpoint_down",
                "client.uplink.buffered",
                "client.uplink.flushed",
            ],
            stage_bounds: vec![
                StageBound {
                    stage: Stage::Server,
                    min_count: continuous_floor / 4,
                    max_mean_ms: 10_000.0,
                },
                StageBound {
                    stage: Stage::Subscriber,
                    min_count: continuous_floor / 4,
                    max_mean_ms: 10_000.0,
                },
            ],
            max_final_backlog: 4,
            min_backlog_high_water: 1,
            max_backlog_high_water: Some(128),
            require_backlog_drain: true,
            campaign: None,
        },
        ScenarioName::Soak => AcceptanceThresholds {
            min_server_uplinks: continuous_floor / 4,
            min_osn_actions: schedule.post_count(),
            zero_counters: vec!["net.dropped.loss", "net.dropped.partition"],
            nonzero_counters: vec!["net.dropped.endpoint_down", "client.uplink.flushed"],
            stage_bounds: vec![
                StageBound {
                    stage: Stage::Server,
                    min_count: continuous_floor / 4,
                    max_mean_ms: 15_000.0,
                },
                StageBound {
                    stage: Stage::Subscriber,
                    min_count: continuous_floor / 4,
                    max_mean_ms: 15_000.0,
                },
            ],
            max_final_backlog: 4,
            min_backlog_high_water: 1,
            max_backlog_high_water: Some(256),
            require_backlog_drain: true,
            campaign: None,
        },
        ScenarioName::CampaignStorm | ScenarioName::CampaignQuota | ScenarioName::CampaignCrash => {
            campaign_thresholds(spec, schedule)
        }
    }
}

/// Thresholds for the three campaign scenarios. The uplink floor uses
/// the campaign's *pushed* interval (streams start at `stream_interval`
/// but every campaign reconfigures them within the first occurrence
/// period), and the delivery bounds come from the campaign workload:
/// fleet-wide occurrence settlement, the zero-lost / zero-duplicated
/// exactness for storm and crash, quota-exhaustion evidence for quota,
/// and recovery/dedup evidence for crash.
fn campaign_thresholds(spec: &ScenarioSpec, schedule: &Schedule) -> AcceptanceThresholds {
    let slow_interval_ms = spec
        .campaign
        .map(|c| c.interval_ms)
        .unwrap_or(0)
        .max(spec.stream_interval.as_millis())
        .max(1);
    let continuous_floor =
        schedule.device_count() as u64 * (spec.duration.as_millis() / slow_interval_ms);
    let total_occurrences = spec
        .campaign
        .map(|c| schedule.device_count() as u64 * u64::from(c.occurrences))
        .unwrap_or(0);
    let faulted = spec.name == ScenarioName::CampaignQuota;
    let divisor = if faulted { 4 } else { 2 };
    let mean_cap = if faulted { 10_000.0 } else { 2_500.0 };

    let (zero_counters, nonzero_counters): (Vec<&'static str>, Vec<&'static str>) = match spec.name
    {
        ScenarioName::CampaignStorm => (
            vec![
                "net.dropped.loss",
                "net.dropped.partition",
                "net.dropped.endpoint_down",
                "client.uplink.dropped",
                "broker.offline_dropped",
                "campaign.dead_lettered",
                "campaign.retried",
                "campaign.quota_exhausted",
                "client.campaign_duplicates",
            ],
            vec!["campaign.dispatched", "campaign.acked"],
        ),
        ScenarioName::CampaignQuota => (
            vec!["net.dropped.loss", "net.dropped.partition"],
            vec![
                "net.dropped.endpoint_down",
                "client.uplink.buffered",
                "client.uplink.flushed",
                "campaign.quota_exhausted",
                "campaign.dead_lettered",
            ],
        ),
        _ => (
            vec![
                "net.dropped.loss",
                "net.dropped.partition",
                "net.dropped.endpoint_down",
                "client.uplink.dropped",
                "broker.offline_dropped",
                "campaign.dead_lettered",
                "campaign.quota_exhausted",
            ],
            vec![
                "campaign.crashed",
                "campaign.retried",
                "campaign.recovered_records",
                "client.campaign_duplicates",
            ],
        ),
    };

    AcceptanceThresholds {
        min_server_uplinks: continuous_floor / divisor,
        min_osn_actions: schedule.post_count(),
        zero_counters,
        nonzero_counters,
        stage_bounds: vec![
            StageBound {
                stage: Stage::Server,
                min_count: continuous_floor / divisor,
                max_mean_ms: mean_cap,
            },
            StageBound {
                stage: Stage::Subscriber,
                min_count: continuous_floor / divisor,
                max_mean_ms: mean_cap,
            },
        ],
        max_final_backlog: if faulted { 4 } else { 0 },
        min_backlog_high_water: u64::from(faulted),
        max_backlog_high_water: if faulted { Some(128) } else { None },
        require_backlog_drain: faulted,
        campaign: spec.campaign.map(|c| {
            let exact = match spec.name {
                ScenarioName::CampaignQuota => None,
                _ => Some(total_occurrences),
            };
            CampaignBounds {
                occurrences: total_occurrences,
                exact_acked: exact,
                zero_dead_letters: exact.is_some(),
                expect_quota_exhaustion: c.quota < total_occurrences,
                expect_recovery: c.crash_ms.is_some() && c.recover_ms.is_some(),
            }
        }),
    }
}
