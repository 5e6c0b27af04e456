//! Scenario acceptance harness: the seven named city-scale workloads
//! from `sensocial_sim::scenarios` replayed end to end, each checked
//! against its committed thresholds ([`ScenarioSpec::thresholds`]) on
//! the merged telemetry snapshot — drop-cause counters, per-stage
//! latency means, backlog high-water marks, store-and-forward drain for
//! the churn and soak shapes, and the campaign scheduler's delivery
//! guarantees (exact occurrence settlement, zero lost / zero duplicated
//! reconfigurations across a scheduler crash) for the campaign shapes.
//!
//! Determinism is enforced twice over: schedule generation is proven a
//! pure function of the spec under randomly drawn parameters, and every
//! fast scenario is run twice with the same seed asserting byte-identical
//! snapshot wire forms. The virtual-weeks soak rides behind `--ignored`
//! so the default suite stays fast; CI's cron job runs it in release
//! mode.

use sensocial::server::StreamSelector;
use sensocial::{Filter, Granularity, Modality, StreamSink, StreamSpec};
use sensocial_runtime::prop::check;
use sensocial_runtime::SimDuration;
use sensocial_sim::scenarios::{ScenarioName, ScenarioOutcome, ScenarioSpec};
use sensocial_sim::{World, WorldConfig};
use sensocial_telemetry::Snapshot;
use sensocial_types::geo::cities;

/// Runs one spec and asserts every committed threshold holds, printing
/// the violation list on failure.
fn run_and_check(spec: &ScenarioSpec) -> ScenarioOutcome {
    let outcome = spec.run().expect("scenario schedule replays");
    let report = spec.thresholds().check(&outcome);
    assert!(
        report.passed(),
        "{} acceptance violated:\n{report}",
        spec.name
    );
    outcome
}

/// Stadium-egress flash crowd: fault-free correlated load. Nothing may
/// drop anywhere in the pipeline, every OSN post must land, and the
/// server + subscriber stages must carry at least half the nominal
/// continuous-stream sample budget.
#[test]
fn stadium_egress_meets_thresholds() {
    let outcome = run_and_check(&ScenarioSpec::stadium_egress());
    assert!(
        outcome.subscriber_deliveries > 0,
        "the pass-all subscriber saw traffic"
    );
}

/// Commute-morning cascade: staggered departures plus a power-law
/// re-share cascade. Same zero-loss contract as the stadium.
#[test]
fn commute_cascade_meets_thresholds() {
    run_and_check(&ScenarioSpec::commute_cascade());
}

/// 10%-churn wave: the staggered flap schedule must actually bite
/// (endpoint-down drops, buffered uplinks) and the store-and-forward
/// backlog must fully drain by the end of the run.
#[test]
fn churn_wave_meets_thresholds() {
    let outcome = run_and_check(&ScenarioSpec::churn_wave());
    assert!(
        outcome.snapshot.counter("net.dropped.endpoint_down") > 0,
        "keepalive probes died inside the down windows"
    );
    assert!(
        outcome.snapshot.counter("client.uplink.flushed") > 0,
        "parked samples flushed after the wave passed"
    );
}

/// Campaign storm: six fleet-wide reconfiguration rounds over a
/// fault-free 12-device fleet. The committed thresholds assert exact
/// delivery — 72 occurrences due, 72 acked, 72 applied, zero retries,
/// zero dead letters, zero duplicates.
#[test]
fn campaign_storm_meets_thresholds() {
    let outcome = run_and_check(&ScenarioSpec::campaign_storm());
    assert_eq!(outcome.snapshot.counter("campaign.acked"), 72);
    assert_eq!(outcome.snapshot.counter("client.campaign_applied"), 72);
}

/// Campaign quota exhaustion under churn: the scenario app's quota (40)
/// cannot cover the fleet's demand (60 occurrences plus churn-forced
/// retries), so the quota error must fire, dead letters must appear, and
/// settlement must stay exact: every occurrence ends acked or
/// dead-lettered, nothing in between.
#[test]
fn campaign_quota_meets_thresholds() {
    let outcome = run_and_check(&ScenarioSpec::campaign_quota());
    let acked = outcome.snapshot.counter("campaign.acked");
    let dead = outcome.snapshot.counter("campaign.dead_lettered");
    assert_eq!(acked + dead, 60, "every occurrence settled");
    assert!(
        outcome.snapshot.counter("campaign.quota_exhausted") > 0,
        "the quota actually ran out"
    );
}

/// Mid-storm scheduler crash and journal failover: the first fleet-wide
/// dispatch's acks land in a dead scheduler, the replacement recovers
/// from the journal and redrives, and devices dedup the redispatch by
/// occurrence token. Zero lost, zero duplicated: 40 occurrences due, 40
/// acked, 40 applied, with the dedup and recovery counters as evidence
/// the crash actually bit.
#[test]
fn campaign_crash_recovery_loses_and_duplicates_nothing() {
    let outcome = run_and_check(&ScenarioSpec::campaign_crash());
    assert_eq!(outcome.snapshot.counter("campaign.acked"), 40, "zero lost");
    assert_eq!(
        outcome.snapshot.counter("client.campaign_applied"),
        40,
        "zero duplicated"
    );
    assert!(
        outcome.snapshot.counter("client.campaign_duplicates") > 0,
        "the redispatched occurrences were deduped, not re-applied"
    );
    assert!(
        outcome.snapshot.counter("campaign.recovered_records") > 0,
        "the replacement replayed the journal"
    );
}

/// FNV-1a 64 digest of a canonical snapshot, the fold the host
/// benchmark's `check` prints.
fn digest(wire: &str) -> u64 {
    wire.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Same-seed determinism, enforced to the byte: generation produces the
/// same schedule wire form twice, and two full world replays of each
/// fast scenario agree on the canonical snapshot wire form exactly.
/// The campaign-crash replay makes this a crash-recovery determinism
/// gate: both runs crash and recover the scheduler at the same virtual
/// instants, so the merged snapshots must match to the byte.
///
/// Two runs of one build agree even when a change reorders events in
/// both, so each snapshot's digest is also pinned. The values are those
/// of `sensocial-bench --scenario <s> --snapshot-out`; a change that
/// moves a snapshot on purpose updates them and gives its reason in
/// CHANGES.md.
#[test]
fn fast_scenarios_are_deterministic() {
    for (name, pinned) in [
        (ScenarioName::StadiumEgress, 0xaf19_eac4_6eaa_b289),
        (ScenarioName::CommuteCascade, 0x7799_18ca_505e_18ee),
        (ScenarioName::ChurnWave, 0xcd71_010e_5bc9_bd39),
        (ScenarioName::CampaignStorm, 0xe1d5_513f_5955_6c9b),
        (ScenarioName::CampaignQuota, 0xb958_6daa_af54_3535),
        (ScenarioName::CampaignCrash, 0x0c9a_8632_e83d_7600),
    ] {
        let spec = ScenarioSpec::named(name);
        assert_eq!(
            spec.generate().to_wire(),
            spec.generate().to_wire(),
            "{name}: schedule generation must be pure"
        );
        let a = spec.run().expect("first replay");
        let b = spec.run().expect("second replay");
        assert_eq!(
            a.wire, b.wire,
            "{name}: same-seed replays must produce byte-identical snapshots"
        );
        assert_eq!(
            digest(&a.wire),
            pinned,
            "{name}: the snapshot moved from its pinned digest {pinned:016x}"
        );
        assert_eq!(a.backlog_samples, b.backlog_samples, "{name}");
        assert_eq!(a.subscriber_deliveries, b.subscriber_deliveries, "{name}");
        assert_eq!(
            a.analysis.to_json(),
            b.analysis.to_json(),
            "{name}: same-seed replays must produce byte-identical analysis reports"
        );
    }
}

/// Virtual-weeks soak: two weeks of steady sampling under a rotating
/// six-hourly outage. The committed thresholds assert bounded backlog —
/// no monotone growth across the 56 probe slices and a drained tail —
/// and a same-seed re-run must agree to the byte. Ignored by default
/// (about a million scheduler events per replay); CI's cron job runs it
/// with `--release -- --ignored`.
#[test]
#[ignore = "virtual-weeks soak; run via cargo test --release -- --ignored (CI cron)"]
fn soak_virtual_weeks_bounded_backlog_deterministic() {
    let spec = ScenarioSpec::soak();
    let outcome = run_and_check(&spec);
    let peak = outcome.backlog_samples.iter().copied().max().unwrap_or(0);
    assert!(
        peak <= 256,
        "probe-slice backlog peak stays bounded: {peak}"
    );
    let again = spec.run().expect("second soak replay");
    assert_eq!(outcome.wire, again.wire, "soak replays agree to the byte");
}

/// Edge: an empty fleet is inert but legal — generation, replay and
/// thresholds all hold with zero devices and zero traffic.
#[test]
fn zero_devices_is_inert() {
    let spec = ScenarioSpec::stadium_egress()
        .sized(0)
        .lasting(SimDuration::from_secs(60));
    let schedule = spec.generate();
    assert_eq!(schedule.device_count(), 0);
    let outcome = spec.run().expect("empty scenario replays");
    assert_eq!(outcome.device_count, 0);
    assert_eq!(outcome.snapshot.counter("server.uplink_events"), 0);
}

/// Edge: a population of one still produces a coherent run (the churn
/// wave clamps to hitting that single device).
#[test]
fn single_device_population_runs_clean() {
    let spec = ScenarioSpec::churn_wave()
        .sized(1)
        .lasting(SimDuration::from_secs(300));
    let outcome = spec.run().expect("single-device scenario replays");
    assert_eq!(outcome.device_count, 1);
    assert!(
        outcome.snapshot.counter("server.uplink_events") > 0,
        "the lone device streamed"
    );
}

/// Edge: 100% churn — every device flaps — and the fleet still recovers:
/// traffic flows, the backlog drains to (near) nothing by the end.
#[test]
fn full_churn_still_recovers() {
    let mut spec = ScenarioSpec::churn_wave()
        .sized(5)
        .lasting(SimDuration::from_secs(480));
    spec.churn_fraction = 1.0;
    let outcome = spec.run().expect("full-churn scenario replays");
    assert!(
        outcome.snapshot.counter("net.dropped.endpoint_down") > 0,
        "every endpoint flapped"
    );
    assert!(
        outcome.snapshot.counter("server.uplink_events") > 0,
        "traffic still flowed between flaps"
    );
    let final_backlog = outcome.backlog_samples.last().copied().unwrap_or(0);
    assert!(
        final_backlog <= 8,
        "backlog drained after the wave: {final_backlog}"
    );
}

/// Edge: a soak with an empty OSN (zero seed posts) is pure sensing —
/// no triggers, no cascade, no panic. Shortened to one virtual day.
#[test]
fn soak_with_empty_osn_is_pure_sensing() {
    let mut spec = ScenarioSpec::soak().lasting(SimDuration::from_secs(86_400));
    spec.osn_seed_posts = 0;
    spec.probe_slices = 8;
    let outcome = spec.run().expect("empty-OSN soak replays");
    assert_eq!(outcome.snapshot.counter("server.osn_actions"), 0);
    assert!(
        outcome.snapshot.counter("server.uplink_events") > 0,
        "sensing continued without the OSN"
    );
}

/// Schedule generation is a pure function of the spec: the same seed
/// yields byte-identical wire forms across the whole parameter space
/// (all seven shapes, populations down to zero, churn up to 100%).
#[test]
fn schedule_generation_same_seed_byte_identity() {
    check(24, |rng| {
        let name_idx = rng.uniform_u64(0, 7) as usize;
        let seed = rng.uniform_u64(0, 1_000_000);
        let devices = rng.uniform_u64(0, 40) as usize;
        // `uniform` excludes its upper bound; widen it by one ulp so that a
        // churn of exactly 100% stays in the domain.
        let churn = rng.uniform(0.0, 1.0 + f64::EPSILON).min(1.0);
        let duration_s = rng.uniform_u64(60, 7_200);
        let mut spec = ScenarioSpec::named(ScenarioName::ALL[name_idx])
            .sized(devices)
            .reseeded(seed)
            .lasting(SimDuration::from_secs(duration_s));
        spec.churn_fraction = churn;
        assert_eq!(spec.generate().to_wire(), spec.generate().to_wire());
        assert!(spec
            .generate()
            .events()
            .windows(2)
            .all(|w| w[0].at <= w[1].at));
    });
}

/// Merging per-component snapshot shards — in any rotation and any
/// chunk grouping — equals the single-world merged snapshot, byte
/// for byte. This is what licenses sharding telemetry collection.
#[test]
fn sharded_snapshot_merge_matches_single_world() {
    check(24, |rng| {
        let devices = rng.uniform_u64(1, 5) as usize;
        let rot = rng.uniform_u64(0, 16) as usize;
        let chunk = rng.uniform_u64(1, 5) as usize;
        let mut world = World::new(WorldConfig::default());
        for i in 0..devices {
            let user = format!("user-{i:03}");
            let device = format!("dev-{i:03}");
            world.add_device(user.as_str(), device.as_str(), cities::paris());
            world
                .create_stream(
                    device.as_str(),
                    StreamSpec::continuous(Modality::Location, Granularity::Raw)
                        .with_interval(SimDuration::from_secs(7))
                        .with_sink(StreamSink::Server),
                )
                .expect("stream installs");
        }
        world
            .server
            .register_listener(StreamSelector::AllUplinks, Filter::pass_all(), |_s, _e| {})
            .expect("listener installs");
        world.post("user-000", "merge probe");
        world.run_for(SimDuration::from_secs(120));

        let single = world.telemetry_snapshot();

        let mut shards = vec![
            world.server.telemetry().snapshot(),
            world.server.storage().telemetry().snapshot(),
            world.broker.telemetry().snapshot(),
            world.net.telemetry().snapshot(),
        ];
        for i in 0..devices {
            let device = format!("dev-{i:03}");
            let manager = world
                .device(device.as_str())
                .expect("device exists")
                .manager
                .clone();
            shards.push(manager.telemetry().snapshot());
        }
        let len = shards.len();
        shards.rotate_left(rot % len);

        let mut merged = Snapshot::default();
        for group in shards.chunks(chunk) {
            let mut partial = Snapshot::default();
            for shard in group {
                partial.merge(shard);
            }
            merged.merge(&partial);
        }
        assert_eq!(merged.to_wire(), single.to_wire());
    });
}
