//! Allocation counts on the storage ingest path, which must pay only for
//! the rows it stores; on the read paths, which must pay only for what
//! they return; on the network's send path and the world's telemetry
//! fold, which must not copy the names they only read; and on a running
//! timer's tick, which re-arms the box it already has.
//!
//! A counting global allocator wraps `System`. The file holds a single
//! `#[test]`, so no other test runs in the process while a count is taken.
//! Each read check runs its operation once to warm up (first-use
//! telemetry keys, interner entries) and then counts a second run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use sensocial::{
    compile, eval_local, Condition, ConditionLhs, EvalContext, Filter, Granularity, Modality,
    Operator, StreamSink, StreamSpec,
};
use sensocial_net::{EndpointId, Network};
use sensocial_runtime::json;
use sensocial_runtime::{Scheduler, SimDuration, Timer, Timestamp};
use sensocial_sim::{World, WorldConfig};
use sensocial_storage::{Collection, Query, SampleQuery, StorageConfig, StorageEngine};
use sensocial_types::geo::cities;
use sensocial_types::{
    ClassifiedContext, ContextData, ContextSnapshot, DeviceId, GeoFence, GpsFix, PhysicalActivity,
    RawSample, StreamId, UserId,
};

/// Forwards to the system allocator and counts allocation events.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counter is a plain atomic that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `op` once to warm up, then again, returning the second run's
/// result and the allocations it made.
fn counted<T>(mut op: impl FnMut() -> T) -> (T, u64) {
    drop(op());
    let before = ALLOCS.load(Relaxed);
    let out = op();
    (out, ALLOCS.load(Relaxed) - before)
}

const ROWS: u64 = 2_000;

/// Allocations per row of filling a document-backend engine: the stored
/// document and the buffered record, with no index entry beside them.
/// The rows alone take 21.5 a row; an ordered index entry per row on
/// user, modality and time would take 25.
const DOCUMENT_INGEST_ALLOCS_PER_ROW: u64 = 23;

/// Allocations per row of filling a columnar engine with the same rows:
/// the buffered record and its share of the column chunks, 16.5 a row.
const COLUMNAR_INGEST_ALLOCS_PER_ROW: u64 = 17;

/// Sends counted on a warm network, and the allocations they may make:
/// one scheduled delivery each, with room for the scheduler's queue.
/// Copying each endpoint name for the link key and the envelope would
/// make it five a send.
const SENDS: u64 = 999;
const SEND_ALLOCS: u64 = 1_010;

/// Timers of one period ticking in a counted run.
const TIMERS: u64 = 1_000;

/// Appends `ROWS` location rows from 20 users and devices into a fresh
/// engine and flushes them, returning the engine and the allocations the
/// appends and the flush made.
fn fill(config: StorageConfig) -> (StorageEngine, u64) {
    let storage = config.open();
    let users: Vec<UserId> = (0..20).map(|u| UserId::new(format!("user-{u}"))).collect();
    let devices: Vec<DeviceId> = (0..20).map(|d| DeviceId::new(format!("dev-{d}"))).collect();
    let before = ALLOCS.load(Relaxed);
    for i in 0..ROWS {
        let at = Timestamp::from_secs(i * 3);
        let fix = ContextData::Raw(RawSample::Location(GpsFix {
            position: cities::paris().offset(10.0 * (i % 100) as f64, (i % 360) as f64),
            accuracy_m: 10.0,
            speed_mps: 1.0,
        }));
        let who = (i % 20) as usize;
        storage.append_context(
            users[who].clone(),
            devices[who].clone(),
            StreamId::new(1),
            at,
            &fix,
            at,
        );
    }
    storage.flush(Timestamp::from_secs(ROWS * 3));
    let allocs = ALLOCS.load(Relaxed) - before;
    (storage, allocs)
}

/// A world of `devices` phones, each streaming raw location to the
/// server every 10 s for a virtual minute, so every device registry
/// holds counters and stage histograms.
fn streaming_world(devices: usize) -> World {
    let mut world = World::new(WorldConfig::default());
    for d in 0..devices {
        let device = format!("dev-{d}");
        world.add_device(format!("user-{d}"), device.as_str(), cities::paris());
        let spec = StreamSpec::continuous(Modality::Location, Granularity::Raw)
            .with_interval(SimDuration::from_secs(10))
            .with_sink(StreamSink::Server);
        world.create_stream(&device, spec).unwrap();
    }
    world.run_for(SimDuration::from_mins(1));
    world
}

#[test]
fn read_paths_allocate_only_for_what_they_return() {
    // Appending and flushing location rows allocates for the rows alone,
    // on either backend.
    let (storage, allocs) = fill(StorageConfig::document());
    assert!(
        allocs <= DOCUMENT_INGEST_ALLOCS_PER_ROW * ROWS,
        "ingesting {ROWS} rows into the document backend allocated {allocs} times"
    );
    let (columnar, allocs) = fill(StorageConfig::columnar());
    assert!(
        allocs <= COLUMNAR_INGEST_ALLOCS_PER_ROW * ROWS,
        "ingesting {ROWS} rows into the columnar backend allocated {allocs} times"
    );

    // A scan whose fence holds none of the stored rows copies and parses
    // none of them, on either backend.
    let far = SampleQuery::all().within(GeoFence::new(cities::bordeaux(), 1_000.0));
    for (name, engine) in [("document", &storage), ("columnar", &columnar)] {
        let (rows, allocs) = counted(|| engine.scan(&far));
        assert!(rows.is_empty());
        assert!(
            allocs < 64,
            "a {name} scan returning no rows of {ROWS} allocated {allocs} times"
        );
    }

    // Counting the matches of a query copies none of them.
    let journal = Collection::new("journal");
    for seq in 0..ROWS {
        journal
            .insert(json!({"seq": seq, "event": "dispatched"}))
            .unwrap();
    }
    let every = Query::exists("seq");
    let (n, allocs) = counted(|| journal.count(&every));
    assert_eq!(n, ROWS as usize);
    assert_eq!(allocs, 0, "counting {ROWS} documents allocated");

    // The Sensor Map filter passes a walking user at 19:01 without an
    // allocation, compiled or interpreted.
    let filter = Filter::new(vec![
        Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
        Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 7),
        Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 20),
    ]);
    let program = compile(&filter);
    let mut snapshot = ContextSnapshot::new();
    snapshot.record(
        Timestamp::from_secs(19 * 3_600),
        ContextData::Classified(ClassifiedContext::Activity(PhysicalActivity::Walking)),
    );
    let ctx = EvalContext {
        snapshot: &snapshot,
        now: Timestamp::from_secs(19 * 3_600 + 60),
        osn_action: None,
    };
    let (verdict, allocs) = counted(|| eval_local(&program, &ctx));
    assert_eq!(verdict, Ok(true));
    assert_eq!(allocs, 0, "the compiled map filter allocated");
    let (verdict, allocs) = counted(|| filter.evaluate_local(&ctx));
    assert_eq!(verdict, Ok(true));
    assert_eq!(allocs, 0, "the interpreted map filter allocated");

    // A send keys the link lookup and fills the envelope with shared
    // endpoint names: the one allocation left per send is the scheduled
    // delivery. An empty payload allocates nothing, so the count is the
    // network's own.
    let net = Network::new(1);
    let (phone, server) = (EndpointId::from("phone-ep"), EndpointId::from("server-ep"));
    net.register(phone.clone(), |_, _| {});
    net.register(server.clone(), |_, _| {});
    let mut sched = Scheduler::new();
    let ((), allocs) = counted(|| {
        for _ in 0..SENDS {
            net.send(&mut sched, &phone, &server, Vec::new()).unwrap();
        }
        sched.run();
    });
    assert_eq!(net.telemetry().counter("delivered"), 2 * SENDS);
    assert!(
        allocs <= SEND_ALLOCS,
        "{SENDS} sends allocated {allocs} times"
    );

    // A warm tick re-arms its timer's boxed body at the back of the
    // period's lane: 1 000 timers and a phased one, whose first tick has
    // moved it into the lane, tick 100 times each without an allocation.
    let mut sched = Scheduler::new();
    let ticks = Rc::new(Cell::new(0u64));
    let second = SimDuration::from_secs(1);
    for _ in 0..TIMERS {
        let t = ticks.clone();
        Timer::start(&mut sched, second, move |_| t.set(t.get() + 1));
    }
    let t = ticks.clone();
    Timer::start_with_phase(&mut sched, SimDuration::ZERO, second, move |_| {
        t.set(t.get() + 1)
    });
    let ((), allocs) = counted(|| sched.run_for(SimDuration::from_secs(100)));
    assert_eq!(ticks.get(), (TIMERS + 1) * 200 + 1);
    assert_eq!(allocs, 0, "100 warm ticks of each timer allocated");

    // The deployment's telemetry folds each registry in place, so a warm
    // snapshot of 100 devices allocates no more than one of 10: each
    // device adds only keys that an earlier one already brought.
    let (small, large) = (streaming_world(10), streaming_world(100));
    let (snap, small_allocs) = counted(|| small.telemetry_snapshot());
    assert!(snap.counter("server.uplink_events") > 0);
    let (_, large_allocs) = counted(|| large.telemetry_snapshot());
    assert!(
        large_allocs <= small_allocs,
        "a snapshot of 100 devices allocated {large_allocs} times, one of 10 {small_allocs}"
    );
}
