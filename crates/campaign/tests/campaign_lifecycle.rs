//! End-to-end campaign lifecycle tests against a full deployment (broker,
//! simulated network, client manager, server manager, storage): delivery,
//! duplicate registration, quotas, rate limits, negative acks, the two
//! crash/failover shapes — ack lost while the scheduler is dead
//! (redispatch + device-side dedup) and immediate failover (the
//! replacement settles the in-flight ack without redispatching) — and
//! recovery of every transition kind the journal holds.

use sensocial::client::{ClientDeps, ClientManager};
use sensocial::server::{ServerDeps, ServerManager};
use sensocial::{
    Granularity, Modality, PrivacyPolicyManager, StorageConfig, StreamSink, StreamSpec,
};
use sensocial_broker::{Broker, BrokerClient};
use sensocial_campaign::{
    AttemptState, CampaignError, CampaignPolicies, CampaignScheduler, CampaignSpec, Journal,
    RateLimitPolicy,
};
use sensocial_energy::{BatteryMeter, CpuCosts, CpuMeter, EnergyProfile, MemoryProfiler};
use sensocial_net::Network;
use sensocial_runtime::{Scheduler, SimDuration, SimRng, Timestamp};
use sensocial_sensors::{DeviceEnvironment, SensorManager};
use sensocial_types::geo::cities;
use sensocial_types::{DeviceId, StreamId, UserId};

/// A deployment whose journal outlives any scheduler instance, as the
/// server's process state would.
struct Deployment {
    sched: Scheduler,
    net: Network,
    server: ServerManager,
    journal: Journal,
}

fn deployment(seed: u64) -> Deployment {
    let mut sched = Scheduler::new();
    let net = Network::new(seed);
    let _broker = Broker::new(&net, "broker");
    let server_client = BrokerClient::new(&net, "server-ep", "broker", "server");
    let server = ServerManager::new(ServerDeps::new(
        StorageConfig::from_env().open(),
        server_client,
        SimRng::seed_from(seed ^ 0xA5),
    ));
    server.connect(&mut sched);
    Deployment {
        sched,
        net,
        server,
        journal: Journal::new(),
    }
}

fn add_device(d: &mut Deployment, user: &str, device: &str) -> ClientManager {
    let env = DeviceEnvironment::new(cities::paris());
    let sensors = SensorManager::new(env.clone(), SimRng::seed_from(7));
    let broker_client = BrokerClient::new(&d.net, format!("{device}-ep"), "broker", device);
    let manager = ClientManager::new(ClientDeps {
        user: UserId::new(user),
        device: DeviceId::new(device),
        sensors,
        classifiers: sensocial_classify::ClassifierRegistry::with_defaults(vec![
            cities::paris_place(),
        ]),
        privacy: PrivacyPolicyManager::allow_all(),
        broker: Some(broker_client),
        battery: BatteryMeter::new(),
        cpu: CpuMeter::new(),
        memory: MemoryProfiler::new(),
        energy_profile: EnergyProfile::default(),
        cpu_costs: CpuCosts::default(),
    });
    manager.connect(&mut d.sched);
    d.server
        .register_device(UserId::new(user), DeviceId::new(device));
    manager
}

fn sensing_stream(d: &mut Deployment, manager: &ClientManager) -> StreamId {
    let spec = StreamSpec::continuous(Modality::Location, Granularity::Classified)
        .with_interval(SimDuration::from_secs(10))
        .with_sink(StreamSink::Server);
    manager
        .create_stream(&mut d.sched, spec)
        .expect("stream creation")
}

fn campaign(
    id: &str,
    device: &str,
    stream: StreamId,
    start_s: u64,
    period_s: u64,
    n: u32,
) -> CampaignSpec {
    CampaignSpec {
        id: id.into(),
        app: "birdwatch".into(),
        device: DeviceId::new(device),
        stream,
        start: Timestamp::from_secs(start_s),
        period: SimDuration::from_secs(period_s),
        occurrences: n,
        interval_ms: 30_000,
    }
}

#[test]
fn every_occurrence_is_applied_exactly_once() {
    let mut d = deployment(11);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, CampaignPolicies::default(), 11);
    campaigns
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 10, 60, 3))
        .expect("register");
    d.sched.run_until(Timestamp::from_secs(300));

    assert!(campaigns.is_settled());
    assert_eq!(campaigns.acked(), 3);
    assert_eq!(campaigns.dead_lettered(), 0);
    for occ in 0..3 {
        assert!(matches!(
            campaigns.state("camp-a", occ),
            Some(AttemptState::Acked { .. })
        ));
    }
    let snap = manager.telemetry().snapshot();
    assert_eq!(snap.counter("client.campaign_applied"), 3);
    assert_eq!(snap.counter("client.campaign_duplicates"), 0);
    let csnap = campaigns.snapshot();
    assert_eq!(csnap.counter("campaign.dispatched"), 3);
    assert_eq!(csnap.counter("campaign.acked"), 3);
    assert_eq!(csnap.counter("campaign.retried"), 0);
}

#[test]
fn duplicate_campaign_ids_are_rejected() {
    let mut d = deployment(3);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, CampaignPolicies::default(), 3);
    campaigns
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 10, 60, 1))
        .expect("first registration");
    assert_eq!(
        campaigns.register(&mut d.sched, campaign("camp-a", "p1", stream, 20, 60, 1)),
        Err(CampaignError::DuplicateCampaign("camp-a".into()))
    );
}

#[test]
fn quota_exhaustion_dead_letters_the_rest() {
    let mut d = deployment(5);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let policies = CampaignPolicies {
        quota_per_app: 2,
        ..CampaignPolicies::default()
    };
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, policies, 5);
    campaigns
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 5, 20, 4))
        .expect("register");
    d.sched.run_until(Timestamp::from_secs(200));

    assert!(campaigns.is_settled());
    assert_eq!(campaigns.acked(), 2, "quota admits exactly two dispatches");
    assert_eq!(campaigns.dead_lettered(), 2);
    let csnap = campaigns.snapshot();
    assert_eq!(csnap.counter("campaign.quota_exhausted"), 2);
    assert_eq!(csnap.counter("campaign.dispatched"), 2);
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.campaign_applied"),
        2
    );
    // The dead letters carry the typed reason.
    match campaigns.state("camp-a", 3) {
        Some(AttemptState::DeadLettered { reason }) => {
            assert!(reason.contains("quota"), "reason was: {reason}");
        }
        other => panic!("expected a dead letter, got {other:?}"),
    }
}

#[test]
fn rate_limit_defers_without_dropping() {
    let mut d = deployment(9);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let policies = CampaignPolicies {
        rate: RateLimitPolicy::new(1, 30_000),
        ..CampaignPolicies::default()
    };
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, policies, 9);
    campaigns
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 5, 1, 3))
        .expect("register");
    d.sched.run_until(Timestamp::from_secs(200));

    assert!(campaigns.is_settled());
    assert_eq!(campaigns.acked(), 3, "deferred, never dropped");
    assert_eq!(campaigns.dead_lettered(), 0);
    let csnap = campaigns.snapshot();
    assert!(
        csnap.counter("campaign.rate_limited") >= 2,
        "occurrences due inside the refill window were throttled"
    );
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.campaign_applied"),
        3
    );
}

#[test]
fn admission_probe_surfaces_typed_errors() {
    let d = deployment(2);
    let zero_quota = CampaignPolicies {
        quota_per_app: 0,
        ..CampaignPolicies::default()
    };
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, zero_quota, 2);
    assert!(matches!(
        campaigns.admission(Timestamp::ZERO, "birdwatch"),
        Err(CampaignError::QuotaExhausted { quota: 0, .. })
    ));

    let throttled = CampaignPolicies {
        rate: RateLimitPolicy::new(0, 100),
        ..CampaignPolicies::default()
    };
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, throttled, 2);
    match campaigns.admission(Timestamp::from_millis(50), "birdwatch") {
        Err(CampaignError::RateLimited { retry_at_ms, .. }) => assert!(retry_at_ms > 50),
        other => panic!("expected RateLimited, got {other:?}"),
    }
    // Probing consumed nothing; a second probe answers the same.
    assert!(campaigns
        .admission(Timestamp::from_millis(50), "birdwatch")
        .is_err());
    drop(d);
}

#[test]
fn rejected_commands_retry_then_dead_letter() {
    let mut d = deployment(21);
    let manager = add_device(&mut d, "alice", "p1");
    let _stream = sensing_stream(&mut d, &manager);
    let policies = CampaignPolicies {
        max_attempts: 2,
        ..CampaignPolicies::default()
    };
    let campaigns = CampaignScheduler::new(&d.server, &d.journal, policies, 21);
    // Stream 999 does not exist on the device: every dispatch is nacked.
    campaigns
        .register(
            &mut d.sched,
            campaign("camp-bad", "p1", StreamId::new(999), 5, 60, 1),
        )
        .expect("register");
    d.sched.run_until(Timestamp::from_secs(300));

    assert!(campaigns.is_settled());
    assert_eq!(campaigns.acked(), 0);
    assert_eq!(campaigns.dead_lettered(), 1);
    let csnap = campaigns.snapshot();
    assert_eq!(csnap.counter("campaign.nacked"), 2, "one nack per attempt");
    assert_eq!(csnap.counter("campaign.dispatched"), 2);
    match campaigns.state("camp-bad", 0) {
        Some(AttemptState::DeadLettered { reason }) => {
            assert!(reason.contains("rejected"), "reason was: {reason}");
        }
        other => panic!("expected a dead letter, got {other:?}"),
    }
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.campaign_applied"),
        0
    );
}

/// The crash shape the acceptance scenarios commit to: the scheduler dies
/// with an attempt in flight, the device's ack lands while no instance is
/// listening (lost), and the recovered instance redrives the attempt. The
/// device deduplicates by occurrence token, so nothing is lost and
/// nothing is applied twice.
fn run_crash_failover(seed: u64) -> (u64, u64, u64, String) {
    let mut d = deployment(seed);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let policies = CampaignPolicies::default();
    let primary = CampaignScheduler::new(&d.server, &d.journal, policies, seed);
    primary
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 5, 30, 5))
        .expect("register");

    // Run just past the first dispatch (timer at t=5 s) but well inside
    // the broker round trip (40 ms per network hop), then crash.
    d.sched.run_until(Timestamp::from_millis(5_010));
    assert!(matches!(
        primary.state("camp-a", 0),
        Some(AttemptState::Dispatched { .. })
    ));
    primary.crash();
    assert!(!primary.is_alive());

    // The device still applies occurrence 0 and acks — into the void.
    d.sched.run_until(Timestamp::from_secs(20));
    assert_eq!(
        manager
            .telemetry()
            .snapshot()
            .counter("client.campaign_applied"),
        1,
        "only the scheduler died; the device applied occurrence 0"
    );
    assert!(
        matches!(
            primary.state("camp-a", 0),
            Some(AttemptState::Dispatched { .. })
        ),
        "the dead instance never saw the ack"
    );

    // Failover: rebuild from the journal. The in-flight attempt comes
    // back with its absolute deadline (already past), so start() redrives
    // it; the device re-acks without re-applying.
    let replacement = CampaignScheduler::recover(&d.server, &d.journal, policies, seed);
    assert!(matches!(
        replacement.state("camp-a", 0),
        Some(AttemptState::Dispatched { .. })
    ));
    replacement.start(&mut d.sched);
    d.sched.run_until(Timestamp::from_secs(400));

    assert!(replacement.is_settled());
    let snap = manager.telemetry().snapshot();
    let mut merged = primary.snapshot();
    merged.merge(&replacement.snapshot());
    merged.merge(&snap);
    (
        replacement.acked(),
        snap.counter("client.campaign_applied"),
        snap.counter("client.campaign_duplicates"),
        merged.to_wire(),
    )
}

#[test]
fn crash_recovery_loses_nothing_and_duplicates_nothing() {
    let (acked, applied, duplicates, _wire) = run_crash_failover(17);
    assert_eq!(acked, 5, "zero lost config epochs");
    assert_eq!(applied, 5, "zero duplicated reconfigurations");
    assert_eq!(
        duplicates, 1,
        "the redispatched occurrence was deduped by token, not re-applied"
    );
}

#[test]
fn same_seed_crash_runs_are_byte_identical() {
    let a = run_crash_failover(17);
    let b = run_crash_failover(17);
    assert_eq!(a.3, b.3, "merged telemetry wire form is byte-identical");
    assert_eq!((a.0, a.1, a.2), (b.0, b.1, b.2));
}

#[test]
fn immediate_failover_settles_in_flight_acks_without_redispatch() {
    let mut d = deployment(23);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let policies = CampaignPolicies::default();
    let primary = CampaignScheduler::new(&d.server, &d.journal, policies, 23);
    primary
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 5, 30, 5))
        .expect("register");

    // occ 0 (t=5 s) and occ 1 (t=35 s) settle; occ 2 dispatches at t=65 s.
    // Crash with occ 2 in flight and fail over immediately.
    d.sched.run_until(Timestamp::from_millis(65_010));
    primary.crash();
    let replacement = CampaignScheduler::recover(&d.server, &d.journal, policies, 23);
    assert!(matches!(
        replacement.state("camp-a", 0),
        Some(AttemptState::Acked { .. })
    ));
    assert_eq!(
        replacement.acked(),
        2,
        "journal replay dedups settled occurrences"
    );
    assert!(matches!(
        replacement.state("camp-a", 2),
        Some(AttemptState::Dispatched { .. })
    ));
    replacement.start(&mut d.sched);
    d.sched.run_until(Timestamp::from_secs(400));

    assert!(replacement.is_settled());
    assert_eq!(replacement.acked(), 5);
    let csnap = replacement.snapshot();
    assert_eq!(
        csnap.counter("campaign.dispatched"),
        2,
        "only occurrences 3 and 4 needed dispatching; occ 2's ack settled in flight"
    );
    let snap = manager.telemetry().snapshot();
    assert_eq!(snap.counter("client.campaign_applied"), 5, "zero lost");
    assert_eq!(
        snap.counter("client.campaign_duplicates"),
        0,
        "zero duplicated"
    );
}

/// Runs one scheduler to `crash_ms` over a healthy campaign and one whose
/// every dispatch is nacked, crashes it and recovers a replacement from
/// the same journal. Returns both instances and the crash instant.
fn crash_and_recover(
    policies: CampaignPolicies,
    crash_ms: u64,
) -> (CampaignScheduler, CampaignScheduler, Timestamp) {
    let mut d = deployment(31);
    let manager = add_device(&mut d, "alice", "p1");
    let stream = sensing_stream(&mut d, &manager);
    let primary = CampaignScheduler::new(&d.server, &d.journal, policies, 31);
    primary
        .register(&mut d.sched, campaign("camp-a", "p1", stream, 5, 10, 4))
        .expect("register");
    // Stream 999 does not exist on the device: every dispatch is nacked.
    primary
        .register(
            &mut d.sched,
            campaign("camp-bad", "p1", StreamId::new(999), 5, 10, 3),
        )
        .expect("register");
    d.sched.run_until(Timestamp::from_millis(crash_ms));
    primary.crash();
    let replacement = CampaignScheduler::recover(&d.server, &d.journal, policies, 31);
    (primary, replacement, d.sched.now())
}

/// The replacement answers every query exactly as the crashed instance
/// would have: each occurrence's state, the terminal counts, and the
/// admission verdict (quota spend and token-bucket state) now and later.
fn assert_recovered(primary: &CampaignScheduler, replacement: &CampaignScheduler, now: Timestamp) {
    for (campaign, occurrences) in [("camp-a", 4), ("camp-bad", 3)] {
        for occ in 0..occurrences {
            assert_eq!(
                replacement.state(campaign, occ),
                primary.state(campaign, occ),
                "{campaign}/{occ} at {now:?}"
            );
        }
    }
    assert_eq!(replacement.acked(), primary.acked());
    assert_eq!(replacement.dead_lettered(), primary.dead_lettered());
    for later_ms in [0, 1, 6_999, 7_000, 10_000, 20_000, 40_000] {
        let at = now + SimDuration::from_millis(later_ms);
        assert_eq!(
            replacement.admission(at, "birdwatch"),
            primary.admission(at, "birdwatch"),
            "admission at {at:?} after a crash at {now:?}"
        );
    }
}

#[test]
fn recovery_rebuilds_every_transition_kind() {
    let policies = CampaignPolicies {
        max_attempts: 2,
        quota_per_app: 5,
        rate: RateLimitPolicy::new(1, 20_000),
        ..CampaignPolicies::default()
    };
    let mut last = None;
    for crash_ms in [5_500, 31_000, 90_000, 300_000] {
        let (primary, replacement, now) = crash_and_recover(policies, crash_ms);
        assert_recovered(&primary, &replacement, now);
        last = Some(primary);
    }
    let snap = last.expect("at least one crash instant").snapshot();
    for key in [
        "rate_limited",
        "retried",
        "quota_exhausted",
        "nacked",
        "acked",
    ] {
        assert!(
            snap.counter(&format!("campaign.{key}")) > 0,
            "campaign.{key} never fired"
        );
    }
}

#[test]
fn recovery_keeps_a_zero_capacity_limiter_refusing() {
    let policies = CampaignPolicies {
        rate: RateLimitPolicy::new(0, 7_000),
        ..CampaignPolicies::default()
    };
    for crash_ms in [5_500, 31_000] {
        let (primary, replacement, now) = crash_and_recover(policies, crash_ms);
        assert!(primary.snapshot().counter("campaign.rate_limited") > 0);
        assert_eq!(primary.snapshot().counter("campaign.dispatched"), 0);
        assert_recovered(&primary, &replacement, now);
    }
}
