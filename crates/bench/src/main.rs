//! `cargo run -p sensocial-bench` — the storage + telemetry benchmark.
//!
//! Drives one deterministic chaos scenario (two phones, continuous +
//! social-event streams, a mid-run partition) and emits `BENCH_10.json`:
//! per-stage pipeline latency summaries (sense → privacy → filter →
//! uplink → broker → server → subscriber), every drop-cause counter, the
//! backlog gauges' high-water marks, the hot-path batching profile
//! (broker fan-out and client uplink batch-size histograms), and the
//! storage engine's ingest / scan profile (batch-size and flush-wait
//! histograms, partition pruning counters, backend footprint) — all read
//! from the merged deployment-wide telemetry snapshot.
//!
//! Every figure in the report is virtual-time and therefore exact: the
//! committed `BENCH_10.json` at the repository root is the default run's
//! report, and a unit test fails when a fresh run differs from it in any
//! field but the storage backend's name and footprint. A deliberate change
//! re-blesses it: run `cargo run --release -p sensocial-bench` at the root
//! and commit the rewritten file.
//!
//! With `--snapshot-out <path>` the canonical wire form of the merged
//! snapshot is also written there; CI runs the binary twice with the same
//! (fixed) seed and fails if the two files differ by a single byte.
//!
//! With `--scenario <name>` the run replays one of the named city-scale
//! scenarios from `sensocial_sim::scenarios` (stadium-egress,
//! commute-cascade, churn-wave, soak, campaign-storm, campaign-quota,
//! campaign-crash) instead of the default two-phone chaos scenario,
//! checks its committed acceptance thresholds, and adds a `"scenario"`
//! section to the report; threshold violations fail the run.
//! Per-stage latencies are virtual-time figures, so every number in the
//! report is machine-independent.
//!
//! With `--analysis-report <path>` the whole-deployment static analysis
//! report (per-plan information-flow verdicts and the cross-user
//! dependency edges) is written there as canonical JSON; CI runs the
//! binary twice and `cmp`s the two files for byte identity.

use sensocial::server::StreamSelector;
use sensocial::{Filter, Granularity, Modality, SampleQuery, StreamSink, StreamSpec};
use sensocial_runtime::json;
use sensocial_runtime::json::Value;
use sensocial_runtime::{SimDuration, Timestamp};
use sensocial_sim::metrics::summarize_histogram;
use sensocial_sim::scenarios::{run_schedule, ScenarioName, ScenarioSpec};
use sensocial_sim::{World, WorldConfig};
use sensocial_telemetry::{Snapshot, Stage};
use sensocial_types::geo::cities;

/// One full run of the benchmark scenario, returning the merged
/// deployment-wide telemetry snapshot, the storage section of the
/// report (which needs the live engine for its footprint), and the
/// canonical JSON of the static analysis report.
fn run_scenario() -> (Snapshot, Value, String) {
    let mut world = World::new(WorldConfig::default());
    world.add_device("alice", "alice-phone", cities::paris());
    world.add_device("bob", "bob-phone", cities::bordeaux());

    world
        .create_stream(
            "alice-phone",
            StreamSpec::continuous(Modality::Wifi, Granularity::Raw)
                .with_interval(SimDuration::from_secs(5))
                .with_sink(StreamSink::Server),
        )
        .expect("continuous stream installs");
    world
        .create_stream(
            "alice-phone",
            StreamSpec::social_event_based(Modality::Bluetooth, Granularity::Raw)
                .with_sink(StreamSink::Server),
        )
        .expect("event stream installs");
    world
        .create_stream(
            "bob-phone",
            StreamSpec::continuous(Modality::Location, Granularity::Classified)
                .with_interval(SimDuration::from_secs(10))
                .with_sink(StreamSink::Server),
        )
        .expect("classified stream installs");

    // A server-side subscriber, so the last pipeline stage sees traffic.
    world
        .server
        .register_listener(StreamSelector::AllUplinks, Filter::pass_all(), |_s, _e| {})
        .expect("pass-all listener installs");

    world.run_for(SimDuration::from_secs(30));
    world.post("alice", "benchmark post");
    // A 60-second partition mid-stream exercises store-and-forward
    // buffering, drop counters and the backlog gauges.
    world.net.partition(
        &"alice-phone-ep".into(),
        &"broker".into(),
        Timestamp::from_secs(100),
    );
    world.run_for(SimDuration::from_secs(60));
    world.post("bob", "second post");
    world.run_for(SimDuration::from_secs(150));

    // Exercise the scan path (partition pruning shows up in the
    // telemetry): one per-user scan and one narrow time-window scan.
    let storage = world.server.storage();
    let all_alice = storage.scan(&SampleQuery::all().for_user("alice"));
    let windowed = storage.scan(
        &SampleQuery::all()
            .for_user("bob")
            .between(Timestamp::from_secs(60), Timestamp::from_secs(120)),
    );

    let snap = world.telemetry_snapshot();
    let footprint = storage.footprint();
    let storage_section = json!({
        "backend": storage.kind().name(),
        "samples_appended": snap.counter("storage.ingest.appended"),
        "batches_flushed": snap.counter("storage.ingest.batches"),
        "samples_flushed": snap.counter("storage.ingest.flushed"),
        "partitions_created": snap.counter("storage.partition.created"),
        "batch_size": histogram_summary(&snap, "storage.ingest.batch_size"),
        "flush_wait_ms": histogram_summary(&snap, "storage.ingest.flush_wait_ms"),
        "scan": {
            "requests": snap.counter("storage.scan.requests"),
            "partitions_scanned": snap.counter("storage.scan.partitions_scanned"),
            "partitions_pruned": snap.counter("storage.scan.partitions_pruned"),
            "rows": snap.counter("storage.scan.rows"),
            "probe_rows_user": all_alice.len(),
            "probe_rows_windowed": windowed.len(),
        },
        "footprint": {
            "rows": footprint.rows,
            "chunks": footprint.chunks,
            "payload_bytes": footprint.payload_bytes,
        },
    });
    let analysis = world.analysis_report().to_json();
    (snap, storage_section, analysis)
}

/// Summary of one named histogram, `null` if it never recorded.
fn histogram_summary(snap: &Snapshot, name: &str) -> Value {
    match snap.histogram(name) {
        Some(hist) => {
            let summary = summarize_histogram(hist);
            json!({
                "mean": summary.mean,
                "std_dev": summary.std_dev,
                "min": summary.min,
                "max": summary.max,
                "count": summary.count,
            })
        }
        None => Value::Null,
    }
}

/// Per-stage latency summaries in pipeline order.
fn stage_summaries(snap: &Snapshot) -> Value {
    let mut stages = json::Map::new();
    for stage in Stage::ALL {
        let summary = snap
            .stage(stage)
            .map(summarize_histogram)
            .unwrap_or_default();
        stages.insert(
            stage.as_str().to_owned(),
            json!({
                "mean_ms": summary.mean,
                "std_dev_ms": summary.std_dev,
                "min_ms": summary.min,
                "max_ms": summary.max,
                "count": summary.count,
            }),
        );
    }
    Value::Object(stages)
}

/// Every drop-cause counter (counters whose key names a drop, an abandoned
/// retry budget, or an unroutable publish).
fn drop_counters(snap: &Snapshot) -> Value {
    let mut drops = json::Map::new();
    for (key, value) in &snap.counters {
        if key.contains("drop") || key.contains("abandoned") || key.contains("unrouted") {
            drops.insert(key.clone(), json!(*value));
        }
    }
    Value::Object(drops)
}

/// Backlog gauges: final value and high-water mark.
fn backlog_high_water(snap: &Snapshot) -> Value {
    let mut backlogs = json::Map::new();
    for (key, gauge) in &snap.gauges {
        backlogs.insert(
            key.clone(),
            json!({"value": gauge.value, "high_water": gauge.high_water}),
        );
    }
    Value::Object(backlogs)
}

/// Runs one named city-scale scenario and checks its committed acceptance
/// thresholds. Returns the merged snapshot, a storage section (counters
/// only — the runner owns the world, so no live footprint probe), the
/// `"scenario"` report section, the canonical static-analysis JSON, and
/// whether acceptance failed.
fn run_named_scenario(name: &str) -> (Snapshot, Value, Value, String, bool) {
    let scenario: ScenarioName = name
        .parse()
        .unwrap_or_else(|err| panic!("--scenario: {err}"));
    let spec = ScenarioSpec::named(scenario);
    let schedule = spec.generate();
    let outcome = run_schedule(&spec, &schedule).expect("scenario schedule replays");
    let report = spec.thresholds().check(&outcome);
    let snap = outcome.snapshot.clone();
    let storage_section = json!({
        "samples_appended": snap.counter("storage.ingest.appended"),
        "batches_flushed": snap.counter("storage.ingest.batches"),
        "samples_flushed": snap.counter("storage.ingest.flushed"),
        "partitions_created": snap.counter("storage.partition.created"),
        "batch_size": histogram_summary(&snap, "storage.ingest.batch_size"),
        "flush_wait_ms": histogram_summary(&snap, "storage.ingest.flush_wait_ms"),
    });
    let scenario_section = json!({
        "name": scenario.as_str(),
        "seed": spec.seed,
        "devices": outcome.device_count,
        "duration_s": outcome.duration.as_secs(),
        "schedule_events": schedule.len(),
        "posts": schedule.post_count(),
        "subscriber_deliveries": outcome.subscriber_deliveries,
        "backlog_probes": outcome.backlog_samples,
        "acceptance": {
            "passed": report.passed(),
            "violations": report.violations,
        },
    });
    let analysis = outcome.analysis.to_json();
    (
        snap,
        storage_section,
        scenario_section,
        analysis,
        !report.passed(),
    )
}

/// The report: per-stage latency summaries, drop causes, backlogs,
/// batching, the storage section, totals, and the scenario section when
/// one ran.
fn report(snap: &Snapshot, storage_section: Value, scenario_section: Value) -> Value {
    let mut report = json!({
        "benchmark": "BENCH_10",
        "description": "per-stage pipeline latency, drop causes, backlog high-water marks, hot-path batching profile and storage engine profile",
        "stages": stage_summaries(snap),
        "drops": drop_counters(snap),
        "backlogs": backlog_high_water(snap),
        "batching": {
            "broker_batch_size": histogram_summary(snap, "broker.batch_size"),
            "uplink_batch_size": histogram_summary(snap, "client.uplink.batch_size"),
        },
        "storage": storage_section,
        "totals": {
            "uplink_events": snap.counter("server.uplink_events"),
            "triggers_sent": snap.counter("server.triggers_sent"),
            "broker_published": snap.counter("broker.published"),
            "net_delivered": snap.counter("net.delivered"),
        },
    });
    if !scenario_section.is_null() {
        report["scenario"] = scenario_section;
    }
    report
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut snapshot_out: Option<String> = None;
    let mut scenario_name: Option<String> = None;
    let mut analysis_out: Option<String> = None;
    let mut report_out = "BENCH_10.json".to_owned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--snapshot-out" => {
                snapshot_out = Some(args.next().expect("--snapshot-out needs a path"));
            }
            "--analysis-report" => {
                analysis_out = Some(args.next().expect("--analysis-report needs a path"));
            }
            "--scenario" => {
                scenario_name = Some(args.next().expect("--scenario needs a name"));
            }
            "--out" => {
                report_out = args.next().expect("--out needs a path");
            }
            other => panic!(
                "unknown argument {other:?} (expected --snapshot-out <path>, \
                 --analysis-report <path>, --scenario <name> or --out <path>)"
            ),
        }
    }

    let (snap, storage_section, scenario_section, analysis_json, acceptance_failed) =
        match &scenario_name {
            Some(name) => run_named_scenario(name),
            None => {
                let (snap, storage_section, analysis_json) = run_scenario();
                (snap, storage_section, Value::Null, analysis_json, false)
            }
        };
    if let Some(path) = &snapshot_out {
        std::fs::write(path, snap.to_wire()).expect("write snapshot wire file");
        eprintln!("wrote canonical snapshot to {path}");
    }
    if let Some(path) = &analysis_out {
        std::fs::write(path, &analysis_json).expect("write analysis report");
        eprintln!("wrote static analysis report to {path}");
    }

    let rendered = json::to_string_pretty(&report(&snap, storage_section, scenario_section));
    std::fs::write(&report_out, &rendered).expect("write benchmark report");
    println!("{rendered}");

    if acceptance_failed {
        eprintln!("scenario acceptance: thresholds violated (see report \"scenario\" section)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default run's report, as committed at the repository root.
    const COMMITTED: &str = include_str!("../../../BENCH_10.json");

    /// Virtual time has no jitter: a fresh default run reproduces every
    /// committed figure exactly. The backend's name and its physical
    /// footprint are the only fields that differ between storage
    /// backends, so they are taken from the committed file.
    #[test]
    fn default_run_matches_the_committed_report() {
        let (snap, storage_section, _) = run_scenario();
        let mut fresh = report(&snap, storage_section, Value::Null);
        let committed: Value = json::from_str(COMMITTED).expect("BENCH_10.json parses");
        for field in ["backend", "footprint"] {
            fresh["storage"][field] = committed["storage"][field].clone();
        }
        assert_eq!(
            json::to_string_pretty(&fresh),
            COMMITTED,
            "the default run no longer reproduces BENCH_10.json; if the change is \
             deliberate, rerun `cargo run --release -p sensocial-bench` and commit the file"
        );
    }
}
