//! Query edge cases: empty collections and geo boundary radii.

use sensocial_runtime::json;
use sensocial_storage::{CmpOp, Collection, Query};
use sensocial_types::geo::cities;

#[test]
fn empty_collection_answers_every_query_shape() {
    let c = Collection::new("empty");
    assert_eq!(c.len(), 0);
    assert!(c.find(&Query::All).is_empty());
    assert!(c.find(&Query::eq("home", "Paris")).is_empty());
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Gt,
        CmpOp::Gte,
        CmpOp::Lt,
        CmpOp::Lte,
    ] {
        assert!(c.find(&Query::cmp("age", op, 30)).is_empty());
    }
    assert!(c
        .find(&Query::near("loc", cities::paris(), 1_000_000.0))
        .is_empty());
    assert!(c
        .find(&Query::and(vec![
            Query::eq("home", "Paris"),
            Query::cmp("age", CmpOp::Gte, 0),
        ]))
        .is_empty());
    assert_eq!(c.update_set(&Query::All, &[("home", json!("x"))]), 0);
}

/// The geo predicate is inclusive: a point at *exactly* the query radius
/// is inside, a hair beyond is out.
#[test]
fn geo_radius_boundary_is_inclusive() {
    let center = cities::paris();
    let on_ring = center.offset(5_000.0, 90.0);
    let exact = center.distance_m(on_ring);

    let c = Collection::new("ring");
    c.insert(json!({"who": "ring", "loc": {"lat": on_ring.lat, "lon": on_ring.lon}}))
        .unwrap();

    assert_eq!(
        c.count(&Query::near("loc", center, exact)),
        1,
        "exact-radius point must be included"
    );
    assert_eq!(
        c.count(&Query::near("loc", center, exact - 0.001)),
        0,
        "point beyond the fence must be excluded"
    );
}

#[test]
fn zero_radius_fence_contains_only_its_center() {
    let center = cities::bordeaux();
    let c = Collection::new("pin");
    c.insert(json!({"who": "pin", "loc": {"lat": center.lat, "lon": center.lon}}))
        .unwrap();
    c.insert(json!({
        "who": "near",
        "loc": {"lat": center.lat, "lon": center.lon + 1e-4},
    }))
    .unwrap();

    let hits = c.find(&Query::near("loc", center, 0.0));
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].body["who"], json!("pin"));
}
