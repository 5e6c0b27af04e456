//! The live metrics registry.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::snapshot::{update, GaugeSnapshot, HistogramSnapshot, Snapshot};
use crate::stage::Stage;
use crate::trace::{SpanGuard, TraceEvent, TRACE_CAPACITY};

/// A cheaply clonable handle to one component's metrics.
///
/// Each component (a device's client manager, the server, the network, the
/// broker) owns a registry created with a *scope* — `"client"`, `"server"`,
/// `"net"`, `"broker"` — that prefixes every counter and gauge key, so
/// snapshots from different components merge without collisions. Pipeline
/// latency histograms recorded through [`Registry::observe`] are keyed by
/// [`Stage`] *without* the scope prefix: merging a fleet of snapshots
/// yields one histogram per pipeline stage, the end-to-end latency profile.
///
/// The registry holds no clock: callers pass virtual-time milliseconds from
/// the scheduler, keeping snapshots deterministic (see the crate docs).
#[derive(Debug, Clone)]
pub struct Registry {
    scope: Rc<str>,
    inner: Rc<RefCell<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeSnapshot>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    trace: VecDeque<TraceEvent>,
    /// Reused buffer for `scope.name` lookup keys, so looking up a key
    /// that already exists allocates nothing.
    key: String,
}

/// Writes `scope.name` into `buf`, reusing its allocation.
fn scoped<'a>(buf: &'a mut String, scope: &str, name: &str) -> &'a str {
    buf.clear();
    buf.push_str(scope);
    buf.push('.');
    buf.push_str(name);
    buf
}

impl Registry {
    /// Creates an empty registry for the given scope.
    pub fn new(scope: &str) -> Self {
        Registry {
            scope: Rc::from(scope),
            inner: Rc::new(RefCell::new(Inner::default())),
        }
    }

    /// The scope prefix applied to counter and gauge keys.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Adds 1 to the counter `scope.name`.
    pub fn count(&self, name: &str) {
        self.count_by(name, 1);
    }

    /// Adds `n` to the counter `scope.name`.
    pub fn count_by(&self, name: &str, n: u64) {
        let mut inner = self.inner.borrow_mut();
        let Inner { counters, key, .. } = &mut *inner;
        update(counters, scoped(key, &self.scope, name), |c| *c += n);
    }

    /// The current value of the counter `scope.name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let Inner { counters, key, .. } = &mut *inner;
        counters
            .get(scoped(key, &self.scope, name))
            .copied()
            .unwrap_or(0)
    }

    /// Sets the gauge `scope.name`, advancing its high-water mark.
    pub fn gauge_set(&self, name: &str, value: u64) {
        let mut inner = self.inner.borrow_mut();
        let Inner { gauges, key, .. } = &mut *inner;
        update(gauges, scoped(key, &self.scope, name), |gauge| {
            gauge.value = value;
            gauge.high_water = gauge.high_water.max(value);
        });
    }

    /// The gauge `scope.name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        let mut inner = self.inner.borrow_mut();
        let Inner { gauges, key, .. } = &mut *inner;
        gauges.get(scoped(key, &self.scope, name)).copied()
    }

    /// Records a pipeline-stage latency observation: `latency_ms` is the
    /// virtual time elapsed since the sample's birth timestamp.
    pub fn observe(&self, stage: Stage, latency_ms: u64) {
        update(
            &mut self.inner.borrow_mut().histograms,
            stage.metric_key(),
            |h| h.observe(latency_ms),
        );
    }

    /// Records a latency observation into the scope-local histogram
    /// `scope.name` (for component-internal latencies that are not one of
    /// the seven pipeline stages, e.g. per-hop network transit).
    pub fn observe_named(&self, name: &str, latency_ms: u64) {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            histograms, key, ..
        } = &mut *inner;
        update(histograms, scoped(key, &self.scope, name), |h| {
            h.observe(latency_ms)
        });
    }

    /// Appends a trace event at virtual time `at_ms`.
    ///
    /// The trace is a bounded ring (capacity [`TRACE_CAPACITY`]); once
    /// full, the oldest event is evicted and the counter
    /// `scope.trace.dropped` is incremented. Trace events are a debugging
    /// surface and are *not* part of [`Snapshot`].
    pub fn trace(&self, at_ms: u64, label: impl Into<String>) {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            counters,
            trace,
            key,
            ..
        } = &mut *inner;
        if trace.len() == TRACE_CAPACITY {
            trace.pop_front();
            update(counters, scoped(key, &self.scope, "trace.dropped"), |c| {
                *c += 1
            });
        }
        trace.push_back(TraceEvent {
            at_ms,
            label: label.into(),
        });
    }

    /// Opens a span starting at `start_ms`; finishing it records the
    /// duration into the histogram `scope.span.<name>` plus a trace event.
    pub fn span(&self, name: impl Into<String>, start_ms: u64) -> SpanGuard {
        SpanGuard::new(self.clone(), name.into(), start_ms)
    }

    /// The most recent trace events, oldest first.
    pub fn recent_traces(&self) -> Vec<TraceEvent> {
        self.inner.borrow().trace.iter().cloned().collect()
    }

    /// Folds the live counters, gauges and histograms into `into`, with
    /// the same result as `into.merge(&self.snapshot())` but without
    /// copying the registry first: a key `into` already holds costs no
    /// allocation.
    pub fn merge_into(&self, into: &mut Snapshot) {
        let inner = self.inner.borrow();
        into.fold(&inner.counters, &inner.gauges, &inner.histograms);
    }

    /// Freezes the registry into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_scoped_and_additive() {
        let reg = Registry::new("client");
        reg.count("uplink.sent");
        reg.count_by("uplink.sent", 4);
        assert_eq!(reg.counter("uplink.sent"), 5);
        assert_eq!(reg.snapshot().counter("client.uplink.sent"), 5);
    }

    #[test]
    fn gauges_track_high_water() {
        let reg = Registry::new("net");
        reg.gauge_set("parked", 7);
        reg.gauge_set("parked", 2);
        let gauge = reg.gauge("parked").unwrap();
        assert_eq!(gauge.value, 2);
        assert_eq!(gauge.high_water, 7);
    }

    #[test]
    fn stage_histograms_are_unscoped() {
        let client = Registry::new("client");
        let server = Registry::new("server");
        client.observe(Stage::Uplink, 0);
        server.observe(Stage::Server, 80);
        let mut merged = client.snapshot();
        merged.merge(&server.snapshot());
        assert_eq!(merged.stage(Stage::Uplink).unwrap().count, 1);
        assert_eq!(merged.stage(Stage::Server).unwrap().max_ms, 80);
    }

    #[test]
    fn keys_built_in_the_shared_buffer_do_not_bleed() {
        let reg = Registry::new("broker");
        reg.observe_named("batch_size", 3);
        reg.count("delivered");
        reg.observe(Stage::Broker, 7);
        reg.gauge_set("offline_backlog", 2);
        reg.observe_named("batch_size", 5);
        reg.count("delivered");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            ["broker.delivered"]
        );
        assert_eq!(
            snap.histograms.keys().collect::<Vec<_>>(),
            ["broker.batch_size", "stage.broker"]
        );
        assert_eq!(snap.counter("broker.delivered"), 2);
        assert_eq!(snap.histogram("broker.batch_size").unwrap().sum_ms, 8);
        assert_eq!(reg.gauge("offline_backlog").unwrap().value, 2);
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new("broker");
        let other = reg.clone();
        other.count("published");
        assert_eq!(reg.counter("published"), 1);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let reg = Registry::new("client");
        for i in 0..(TRACE_CAPACITY as u64 + 10) {
            reg.trace(i, "tick");
        }
        let traces = reg.recent_traces();
        assert_eq!(traces.len(), TRACE_CAPACITY);
        assert_eq!(traces[0].at_ms, 10);
        assert_eq!(reg.counter("trace.dropped"), 10);
    }

    #[test]
    fn spans_record_durations() {
        let reg = Registry::new("server");
        let span = reg.span("db_insert", 100);
        span.finish(140);
        let snap = reg.snapshot();
        let h = snap.histogram("server.span.db_insert").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_ms, 40);
        assert_eq!(reg.recent_traces().len(), 1);
    }
}
