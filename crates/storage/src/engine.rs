//! The storage engine: the backend-independent half of the storage layer.
//!
//! The engine owns everything that must behave identically regardless of
//! which [`StorageBackend`] is plugged in:
//!
//! * **sequencing** — every appended sample gets a global `seq`, defining
//!   the canonical scan order;
//! * **batching** — appends buffer in memory and flush as one batch per
//!   flush interval, amortising per-sample inserts into per-tick batches
//!   (the uplink handler schedules the flush; see `ServerManager`);
//! * **partition planning** — the engine tracks every partition it has
//!   created and computes the pruned candidate list for each scan, so the
//!   `partition.*` and `scan.*` counters are identical by construction
//!   under every backend;
//! * **telemetry** — all storage metrics (scope `storage`) are recorded
//!   here and only here. Backends record nothing, which is what makes
//!   same-seed snapshots byte-identical across backends;
//! * **the document plane** — the one [`Database`] of the deployment,
//!   holding the server's OSN actions and the applications' collections.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use sensocial_runtime::{SimDuration, Timestamp};
use sensocial_telemetry::Registry;
use sensocial_types::{ContextData, DeviceId, StreamId, UserId};

use crate::backend::{BackendKind, StorageBackend, StorageFootprint};
use crate::database::Database;
use crate::sample::{PartitionKey, SampleQuery, SampleRecord};

/// What one flush wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushSummary {
    /// Samples written.
    pub samples: u64,
    /// Distinct partitions touched.
    pub partitions: u64,
}

/// Mutable engine state behind one `RefCell`.
struct EngineState {
    next_seq: u64,
    /// Appends awaiting the next flush, in sequence order.
    pending: Vec<SampleRecord>,
    /// Append time of the oldest buffered sample (flush-wait telemetry).
    pending_since: Option<Timestamp>,
    /// Whether a flush is already scheduled; at most one is in flight.
    flush_scheduled: bool,
    /// Every partition ever written, in key order — the pruning universe.
    partitions: BTreeSet<PartitionKey>,
}

struct EngineInner {
    backend: Box<dyn StorageBackend>,
    docs: Database,
    flush_interval: SimDuration,
    telemetry: Registry,
    state: RefCell<EngineState>,
}

/// A cheaply clonable handle to the storage engine.
#[derive(Clone)]
pub struct StorageEngine {
    inner: Rc<EngineInner>,
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.borrow();
        f.debug_struct("StorageEngine")
            .field("backend", &self.inner.backend.kind())
            .field("pending", &state.pending.len())
            .field("partitions", &state.partitions.len())
            .finish()
    }
}

impl StorageEngine {
    /// Assembles an engine around a backend. Crate-internal: the public
    /// construction path is the factory, [`crate::StorageConfig::open`].
    pub(crate) fn assemble(
        backend: Box<dyn StorageBackend>,
        flush_interval: SimDuration,
    ) -> StorageEngine {
        StorageEngine {
            inner: Rc::new(EngineInner {
                backend,
                docs: Database::new(),
                flush_interval,
                telemetry: Registry::new("storage"),
                state: RefCell::new(EngineState {
                    next_seq: 0,
                    pending: Vec::new(),
                    pending_since: None,
                    flush_scheduled: false,
                    partitions: BTreeSet::new(),
                }),
            }),
        }
    }

    /// Which backend is plugged in.
    pub fn kind(&self) -> BackendKind {
        self.inner.backend.kind()
    }

    /// The storage telemetry registry (counters and histograms under
    /// `storage.*`).
    pub fn telemetry(&self) -> &Registry {
        &self.inner.telemetry
    }

    /// The document plane: OSN actions and application collections.
    pub fn docs(&self) -> &Database {
        &self.inner.docs
    }

    /// Buffers one uplinked context datum for the next flush.
    ///
    /// Returns `Some(delay)` when the caller should schedule a
    /// [`StorageEngine::flush`] `delay` from now — i.e. when this append
    /// found no flush pending. At most one flush is in flight at a time.
    pub fn append_context(
        &self,
        user: UserId,
        device: DeviceId,
        stream: StreamId,
        at: Timestamp,
        data: &ContextData,
        now: Timestamp,
    ) -> Option<SimDuration> {
        let mut state = self.inner.state.borrow_mut();
        let seq = state.next_seq;
        state.next_seq += 1;
        let record = SampleRecord::from_context(seq, user, device, stream, at, data);
        state.pending.push(record);
        if state.pending_since.is_none() {
            state.pending_since = Some(now);
        }
        let buffered = state.pending.len() as u64;
        let schedule = if state.flush_scheduled {
            None
        } else {
            state.flush_scheduled = true;
            Some(self.inner.flush_interval)
        };
        drop(state);
        self.inner.telemetry.count("ingest.appended");
        self.inner.telemetry.gauge_set("ingest.buffer", buffered);
        schedule
    }

    /// Writes every buffered sample to the backend, one batch per
    /// partition, and clears the buffer. Idempotent when the buffer is
    /// empty. `now` is virtual time, for the flush-wait histogram.
    pub fn flush(&self, now: Timestamp) -> FlushSummary {
        let (batches, samples, waited_ms) = {
            let mut state = self.inner.state.borrow_mut();
            state.flush_scheduled = false;
            if state.pending.is_empty() {
                state.pending_since = None;
                return FlushSummary::default();
            }
            let pending = std::mem::take(&mut state.pending);
            let waited_ms = state
                .pending_since
                .take()
                .map(|since| now.saturating_since(since).as_millis())
                .unwrap_or(0);
            let samples = pending.len() as u64;
            let mut batches: BTreeMap<PartitionKey, Vec<SampleRecord>> = BTreeMap::new();
            for record in pending {
                let key = PartitionKey::for_sample(record.user.clone(), record.at);
                batches.entry(key).or_default().push(record);
            }
            for key in batches.keys() {
                if state.partitions.insert(key.clone()) {
                    self.inner.telemetry.count("partition.created");
                }
            }
            (batches, samples, waited_ms)
        };
        let partitions = batches.len() as u64;
        for (key, records) in &batches {
            self.inner.backend.ingest(key, records);
        }
        let telemetry = &self.inner.telemetry;
        telemetry.count("ingest.batches");
        telemetry.count_by("ingest.flushed", samples);
        telemetry.observe_named("ingest.batch_size", samples);
        telemetry.observe_named("ingest.flush_wait_ms", waited_ms);
        telemetry.gauge_set("ingest.buffer", 0);
        FlushSummary {
            samples,
            partitions,
        }
    }

    /// Scans the sample log.
    ///
    /// The engine prunes the partition universe down to the candidates
    /// that may hold a match (by user and time window) and hands only
    /// those to the backend; the backend narrows further by columns or
    /// by document query. Buffered (not yet flushed) samples are included, so
    /// reads observe writes regardless of flush timing. Results are in
    /// global ingest order.
    pub fn scan(&self, query: &SampleQuery) -> Vec<SampleRecord> {
        let (candidates, pruned, mut unflushed) = {
            let state = self.inner.state.borrow();
            let total = state.partitions.len();
            let candidates: Vec<PartitionKey> = state
                .partitions
                .iter()
                .filter(|key| key.may_match(query))
                .cloned()
                .collect();
            let pruned = (total - candidates.len()) as u64;
            let unflushed: Vec<SampleRecord> = state
                .pending
                .iter()
                .filter(|record| query.matches(record))
                .cloned()
                .collect();
            (candidates, pruned, unflushed)
        };
        let telemetry = &self.inner.telemetry;
        telemetry.count("scan.requests");
        telemetry.count_by("scan.partitions_scanned", candidates.len() as u64);
        telemetry.count_by("scan.partitions_pruned", pruned);
        let mut rows = self.inner.backend.scan(query, &candidates);
        rows.append(&mut unflushed);
        rows.sort_by_key(|r| r.seq);
        telemetry.count_by("scan.rows", rows.len() as u64);
        rows
    }

    /// Physical layout statistics from the backend (bench/debug only —
    /// deliberately backend-specific, not part of the snapshot).
    pub fn footprint(&self) -> StorageFootprint {
        self.inner.backend.footprint()
    }
}
