//! Allocation counts on the storage ingest path, which must pay only for
//! the rows it stores, and on the read paths, which must pay only for
//! what they return.
//!
//! A counting global allocator wraps `System`. The file holds a single
//! `#[test]`, so no other test runs in the process while a count is taken.
//! Each read check runs its operation once to warm up (first-use
//! telemetry keys, interner entries) and then counts a second run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use sensocial::{compile, eval_local, Condition, ConditionLhs, EvalContext, Filter, Operator};
use sensocial_runtime::json;
use sensocial_runtime::Timestamp;
use sensocial_storage::{Collection, Query, SampleQuery, StorageConfig};
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
const INGEST_ALLOCS_PER_ROW: u64 = 23;

#[test]
fn read_paths_allocate_only_for_what_they_return() {
    // Appending and flushing location rows into the document backend
    // allocates for the rows alone.
    let storage = StorageConfig::document().open();
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
    assert!(
        allocs <= INGEST_ALLOCS_PER_ROW * ROWS,
        "ingesting {ROWS} rows allocated {allocs} times"
    );

    // A document-backend scan whose fence holds none of the stored rows
    // copies and parses none of them.
    let far = SampleQuery::all().within(GeoFence::new(cities::bordeaux(), 1_000.0));
    let (rows, allocs) = counted(|| storage.scan(&far));
    assert!(rows.is_empty());
    assert!(
        allocs < 64,
        "a scan returning no rows of {ROWS} allocated {allocs} times"
    );

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
}
