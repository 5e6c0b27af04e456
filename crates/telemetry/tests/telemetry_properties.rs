//! Property-based tests for the telemetry layer: histogram merging is a
//! commutative, associative monoid with the empty histogram as identity,
//! the canonical wire form carries every snapshot field, it is
//! byte-stable, and folding a live registry in place equals merging its
//! snapshot.

use sensocial_runtime::prop::{check, string_of, vec_of};
use sensocial_runtime::SimRng;
use sensocial_telemetry::{HistogramSnapshot, Registry, Snapshot, Stage};

fn histogram(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.observe(v);
    }
    h
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Latency samples spanning every bucket, including the overflow bucket.
fn samples(rng: &mut SimRng) -> Vec<u64> {
    vec_of(rng, 0..50, |r| r.uniform_u64(0, 200_000))
}

/// A counter or gauge name.
fn name(rng: &mut SimRng) -> String {
    string_of(rng, "a-z.", 1..=12)
}

/// merge(a, b) == merge(b, a).
#[test]
fn histogram_merge_commutes() {
    check(256, |rng| {
        let (a, b) = (samples(rng), samples(rng));
        let (ha, hb) = (histogram(&a), histogram(&b));
        assert_eq!(merged(&ha, &hb), merged(&hb, &ha));
    });
}

/// merge(merge(a, b), c) == merge(a, merge(b, c)).
#[test]
fn histogram_merge_is_associative() {
    check(256, |rng| {
        let (a, b, c) = (samples(rng), samples(rng), samples(rng));
        let (ha, hb, hc) = (histogram(&a), histogram(&b), histogram(&c));
        assert_eq!(
            merged(&merged(&ha, &hb), &hc),
            merged(&ha, &merged(&hb, &hc))
        );
    });
}

/// The empty histogram is the merge identity, and merging equals
/// observing the concatenated sample set directly.
#[test]
fn histogram_merge_identity_and_concat() {
    check(256, |rng| {
        let (a, b) = (samples(rng), samples(rng));
        let ha = histogram(&a);
        assert_eq!(merged(&ha, &HistogramSnapshot::default()), ha.clone());
        assert_eq!(merged(&HistogramSnapshot::default(), &ha), ha.clone());

        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged(&ha, &histogram(&b)), histogram(&concat));
    });
}

/// Adds one to the `k`-th integer field of `snap`: counters, then gauge
/// values and high-water marks, then each histogram's bounds, buckets,
/// moments and extremes. Returns `false` if `snap` has no `k`-th field.
fn bump_field(snap: &mut Snapshot, k: usize) -> bool {
    let mut narrow: Vec<&mut u64> = snap.counters.values_mut().collect();
    let mut wide: Vec<&mut u128> = Vec::new();
    for g in snap.gauges.values_mut() {
        narrow.extend([&mut g.value, &mut g.high_water]);
    }
    for h in snap.histograms.values_mut() {
        narrow.extend(h.bounds_ms.iter_mut().chain(h.buckets.iter_mut()));
        narrow.extend([&mut h.count, &mut h.sum_ms, &mut h.min_ms, &mut h.max_ms]);
        wide.push(&mut h.sum_sq_ms);
    }
    let n = narrow.len();
    if let Some(field) = narrow.get_mut(k) {
        **field += 1;
    } else if let Some(field) = k.checked_sub(n).and_then(|w| wide.get_mut(w)) {
        **field += 1;
    } else {
        return false;
    }
    true
}

/// Bumping any one counter, gauge or histogram field changes the wire
/// bytes, so the snapshot digests that gate determinism see every field;
/// and two registries fed the same observations write the same bytes.
#[test]
fn snapshot_wire_carries_every_field() {
    check(256, |rng| {
        let counters = vec_of(rng, 0..8, |r| (name(r), r.uniform_u64(0, 1_000_000)));
        let gauges = vec_of(rng, 0..4, |r| (name(r), r.uniform_u64(0, 10_000)));
        let observations = samples(rng);
        let build = || {
            let reg = Registry::new("client");
            for (name, n) in &counters {
                reg.count_by(name, *n);
            }
            for (name, v) in &gauges {
                reg.gauge_set(name, *v);
            }
            for (i, ms) in observations.iter().enumerate() {
                let stage = Stage::ALL[i % Stage::ALL.len()];
                reg.observe(stage, *ms);
            }
            reg.snapshot()
        };
        let snap = build();
        let wire = snap.to_wire();
        assert_eq!(build().to_wire(), wire);
        for k in 0.. {
            let mut bumped = snap.clone();
            if !bump_field(&mut bumped, k) {
                break;
            }
            assert_ne!(bumped.to_wire(), wire, "field {k} is not on the wire");
        }
    });
}

/// Merging snapshots built from the same observations in any
/// interleaving yields identical wire bytes — the property that makes
/// fleet-merged snapshots deterministic.
#[test]
fn snapshot_merge_order_is_irrelevant() {
    check(256, |rng| {
        let (a, b) = (samples(rng), samples(rng));
        let build = |values: &[u64], scope: &str| {
            let reg = Registry::new(scope);
            for &ms in values {
                reg.observe(Stage::Uplink, ms);
                reg.count("uplink.sent");
            }
            reg.snapshot()
        };
        let (sa, sb) = (build(&a, "client"), build(&b, "client"));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab.to_wire(), ba.to_wire());
    });
}

/// A registry fed arbitrary counters, gauges, and stage and named
/// histograms. Scopes and names come from small pools, so two registries
/// often share keys.
fn registry(rng: &mut SimRng) -> Registry {
    const NAMES: [&str; 4] = ["uplink.sent", "drop.filter", "backlog", "transit_ms"];
    let reg = Registry::new(if rng.chance(0.5) { "client" } else { "server" });
    let pick = |r: &mut SimRng| r.choose(&NAMES).copied().unwrap_or("backlog");
    for _ in 0..rng.uniform_u64(0, 6) {
        let name = pick(rng);
        reg.count_by(name, rng.uniform_u64(0, 1_000));
    }
    for _ in 0..rng.uniform_u64(0, 4) {
        let name = pick(rng);
        reg.gauge_set(name, rng.uniform_u64(0, 10_000));
    }
    for (i, ms) in samples(rng).into_iter().enumerate() {
        if i % 3 == 0 {
            let name = pick(rng);
            reg.observe_named(name, ms);
        } else {
            reg.observe(Stage::ALL[i % Stage::ALL.len()], ms);
        }
    }
    reg
}

/// Folding a live registry in place gives what merging its snapshot
/// gives, whether or not the target already holds the registry's keys.
#[test]
fn merge_into_equals_merging_the_snapshot() {
    check(256, |rng| {
        let mut into = if rng.chance(0.2) {
            Snapshot::new()
        } else {
            registry(rng).snapshot()
        };
        let reg = registry(rng);
        let mut expected = into.clone();
        expected.merge(&reg.snapshot());
        reg.merge_into(&mut into);
        assert_eq!(into, expected);
        assert_eq!(into.to_wire(), expected.to_wire());
    });
}
