//! Frozen, wire-serializable registry state.

use std::collections::BTreeMap;

use sensocial_runtime::json::Writer;

use crate::stage::Stage;

/// Fixed latency-histogram bucket upper bounds, in milliseconds.
///
/// An observation lands in the first bucket whose bound it does not
/// exceed; anything above the last bound lands in the overflow bucket.
/// The bounds are part of the wire format and identical for every
/// histogram, which is what makes merges across devices well-defined.
pub(crate) const BUCKET_BOUNDS_MS: [u64; 15] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 30_000, 60_000,
];

/// Applies `f` to the value under `key`, inserting a default first if it
/// is absent. Only that first touch allocates the owned key.
pub(crate) fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(value) => f(value),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

/// A gauge frozen at snapshot time: current value plus the largest value
/// ever set (the high-water mark — backlog peaks survive the backlog
/// draining).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSnapshot {
    /// The most recently set value.
    pub value: u64,
    /// The largest value ever set.
    pub high_water: u64,
}

/// A fixed-bucket latency histogram with exact integer moments.
///
/// Alongside the bucket counts the histogram keeps `count`, `sum_ms` and
/// `sum_sq_ms` as integers, so the mean and (population) standard
/// deviation are exact and — crucially — independent of observation
/// order: merging is plain addition, making the histogram commutative and
/// associative under [`HistogramSnapshot::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds in milliseconds (shared by all histograms).
    pub bounds_ms: Vec<u64>,
    /// Per-bucket observation counts; one extra overflow bucket at the end.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (ms).
    pub sum_ms: u64,
    /// Sum of squares of all observed values (ms²).
    pub sum_sq_ms: u128,
    /// Smallest observed value, 0 when empty.
    pub min_ms: u64,
    /// Largest observed value, 0 when empty.
    pub max_ms: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            bounds_ms: BUCKET_BOUNDS_MS.to_vec(),
            buckets: vec![0; BUCKET_BOUNDS_MS.len() + 1],
            count: 0,
            sum_ms: 0,
            sum_sq_ms: 0,
            min_ms: 0,
            max_ms: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one latency observation.
    pub fn observe(&mut self, ms: u64) {
        let idx = self
            .bounds_ms
            .iter()
            .position(|bound| ms <= *bound)
            .unwrap_or(self.bounds_ms.len());
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket += 1;
        }
        if self.count == 0 {
            self.min_ms = ms;
            self.max_ms = ms;
        } else {
            self.min_ms = self.min_ms.min(ms);
            self.max_ms = self.max_ms.max(ms);
        }
        self.count += 1;
        self.sum_ms = self.sum_ms.saturating_add(ms);
        self.sum_sq_ms = self
            .sum_sq_ms
            .saturating_add(u128::from(ms) * u128::from(ms));
    }

    /// Folds `other` into `self` (bucket-wise addition).
    ///
    /// Merging is commutative and associative. Histograms always share the
    /// crate-wide bucket bounds; should a foreign snapshot disagree, the
    /// overlapping bucket prefix is merged and the rest of `other` is
    /// folded into the overflow bucket so no observation is lost.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let shared = self
            .buckets
            .len()
            .min(other.buckets.len())
            .saturating_sub(1);
        let mut spill = 0u64;
        for (idx, n) in other.buckets.iter().enumerate() {
            if idx < shared && self.bounds_ms.get(idx) == other.bounds_ms.get(idx) {
                self.buckets[idx] += n;
            } else {
                spill += n;
            }
        }
        if let Some(overflow) = self.buckets.last_mut() {
            *overflow += spill;
        }
        if self.count == 0 {
            self.min_ms = other.min_ms;
            self.max_ms = other.max_ms;
        } else {
            self.min_ms = self.min_ms.min(other.min_ms);
            self.max_ms = self.max_ms.max(other.max_ms);
        }
        self.count += other.count;
        self.sum_ms = self.sum_ms.saturating_add(other.sum_ms);
        self.sum_sq_ms = self.sum_sq_ms.saturating_add(other.sum_sq_ms);
    }

    /// Mean observed latency in milliseconds (0.0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms as f64 / self.count as f64
        }
    }

    /// Population standard deviation in milliseconds (0.0 when empty).
    pub fn std_dev_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum_ms as f64 / n;
        let var = (self.sum_sq_ms as f64 / n) - mean * mean;
        var.max(0.0).sqrt()
    }
}

/// A frozen registry: every counter, gauge and histogram at one virtual
/// instant, in deterministic (sorted) order.
///
/// Snapshots are plain values: fold fleets together with
/// [`Snapshot::merge`] and compare runs by their [`Snapshot::to_wire`]
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Monotonic event counters, keyed `scope.name`.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (current + high-water), keyed `scope.name`.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Latency histograms: pipeline stages under `stage.<name>`, plus any
    /// scope-local histograms under `scope.name`.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// An empty snapshot (useful as a merge identity).
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// The value of a counter, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge under `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    /// The histogram under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The latency histogram for a pipeline stage, if any samples reached
    /// that stage.
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.histograms.get(stage.metric_key())
    }

    /// Folds `other` into `self`: counters and histograms add, gauge
    /// current values add (a fleet's backlog is the sum of device
    /// backlogs) and high-water marks take the maximum.
    ///
    /// Merging is commutative and associative, so folding a fleet of
    /// device snapshots in any order yields the same result.
    pub fn merge(&mut self, other: &Snapshot) {
        self.fold(&other.counters, &other.gauges, &other.histograms);
    }

    /// [`Snapshot::merge`] over borrowed maps, so a live registry folds
    /// in without being frozen first. A key is copied only when `self`
    /// lacks it.
    pub(crate) fn fold(
        &mut self,
        counters: &BTreeMap<String, u64>,
        gauges: &BTreeMap<String, GaugeSnapshot>,
        histograms: &BTreeMap<String, HistogramSnapshot>,
    ) {
        for (name, value) in counters {
            update(&mut self.counters, name, |c| *c += value);
        }
        for (name, gauge) in gauges {
            update(&mut self.gauges, name, |entry| {
                entry.value += gauge.value;
                entry.high_water = entry.high_water.max(gauge.high_water);
            });
        }
        for (name, histogram) in histograms {
            update(&mut self.histograms, name, |h| h.merge(histogram));
        }
    }

    /// Serializes to the canonical wire form: JSON with alphabetically
    /// ordered keys and integer-only values. Byte-identical across runs of
    /// the same seeded scenario.
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut w = Writer::compact(&mut out);
        let mut snapshot = w.object();
        let mut counters = snapshot.key("counters").object();
        for (name, value) in &self.counters {
            counters.field(name, value);
        }
        counters.end();
        let mut gauges = snapshot.key("gauges").object();
        for (name, gauge) in &self.gauges {
            let mut fields = gauges.key(name).object();
            fields.field("high_water", &gauge.high_water);
            fields.field("value", &gauge.value);
            fields.end();
        }
        gauges.end();
        let mut histograms = snapshot.key("histograms").object();
        for (name, h) in &self.histograms {
            let mut fields = histograms.key(name).object();
            fields.field("bounds_ms", &h.bounds_ms);
            fields.field("buckets", &h.buckets);
            fields.field("count", &h.count);
            fields.field("max_ms", &h.max_ms);
            fields.field("min_ms", &h.min_ms);
            fields.field("sum_ms", &h.sum_ms);
            fields.key("sum_sq_ms").u128(h.sum_sq_ms);
            fields.end();
        }
        histograms.end();
        snapshot.end();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for v in values {
            h.observe(*v);
        }
        h
    }

    #[test]
    fn observe_tracks_moments_exactly() {
        let h = hist(&[3, 50, 7]);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ms, 60);
        assert_eq!(h.sum_sq_ms, 9 + 2500 + 49);
        assert_eq!(h.min_ms, 3);
        assert_eq!(h.max_ms, 50);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        assert!((h.mean_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let h = hist(&[1_000_000]);
        assert_eq!(*h.buckets.last().unwrap(), 1);
    }

    #[test]
    fn merge_matches_combined_observation() {
        let mut a = hist(&[1, 10, 100]);
        let b = hist(&[5, 50_000]);
        let combined = hist(&[1, 10, 100, 5, 50_000]);
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = hist(&[4, 9]);
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
        let mut e = HistogramSnapshot::default();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn snapshot_merge_adds_and_high_waters() {
        let mut a = Snapshot::new();
        a.counters.insert("client.sent".into(), 2);
        a.gauges.insert(
            "client.backlog".into(),
            GaugeSnapshot {
                value: 1,
                high_water: 5,
            },
        );
        let mut b = Snapshot::new();
        b.counters.insert("client.sent".into(), 3);
        b.gauges.insert(
            "client.backlog".into(),
            GaugeSnapshot {
                value: 2,
                high_water: 3,
            },
        );
        a.merge(&b);
        assert_eq!(a.counter("client.sent"), 5);
        assert_eq!(
            a.gauge("client.backlog"),
            Some(GaugeSnapshot {
                value: 3,
                high_water: 5
            })
        );
    }

    #[test]
    fn wire_escapes_odd_keys() {
        let mut snap = Snapshot::new();
        snap.counters
            .insert("weird\"key\\with\ncontrol\t\r\u{7}\u{8}\u{c}".into(), 1);
        // Backspace and form feed take their short escapes, as in every
        // other JSON the workspace writes.
        assert_eq!(
            snap.to_wire(),
            r#"{"counters":{"weird\"key\\with\ncontrol\t\r\u0007\b\f":1},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    fn empty_snapshot_wire_form() {
        assert_eq!(
            Snapshot::new().to_wire(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
