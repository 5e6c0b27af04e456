//! Index consistency under mutation: updates and deletes must keep every
//! index in sync with the documents (the bug class that silently corrupts
//! query results).

use sensocial_runtime::json;
use sensocial_store::{Collection, Query};
use sensocial_types::geo::cities;

#[test]
fn geo_index_follows_location_updates() {
    let c = Collection::new("locations");
    c.create_geo_index("loc");
    let paris = cities::paris();
    let bordeaux = cities::bordeaux();
    c.insert(json!({"user": "c", "loc": {"lat": bordeaux.lat, "lon": bordeaux.lon}}))
        .unwrap();

    // Initially near Bordeaux only.
    assert_eq!(c.count(&Query::near("loc", bordeaux, 10_000.0)), 1);
    assert_eq!(c.count(&Query::near("loc", paris, 10_000.0)), 0);

    // The user moves to Paris; the update must re-index.
    c.update_set(
        &Query::eq("user", "c"),
        &[("loc", json!({"lat": paris.lat, "lon": paris.lon}))],
    );
    assert_eq!(c.count(&Query::near("loc", bordeaux, 10_000.0)), 0);
    assert_eq!(c.count(&Query::near("loc", paris, 10_000.0)), 1);
}

#[test]
fn field_index_follows_repeated_updates() {
    let c = Collection::new("users");
    c.create_index("city");
    c.insert(json!({"user": "x", "city": "A"})).unwrap();
    for city in ["B", "C", "D", "A", "B"] {
        c.update_set(&Query::eq("user", "x"), &[("city", json!(city))]);
    }
    assert_eq!(c.count(&Query::eq("city", "B")), 1);
    for city in ["A", "C", "D"] {
        assert_eq!(
            c.count(&Query::eq("city", city)),
            0,
            "stale index for {city}"
        );
    }
}

#[test]
fn delete_purges_all_indices() {
    let c = Collection::new("mixed");
    c.create_index("kind");
    c.create_geo_index("loc");
    let paris = cities::paris();
    for i in 0..20 {
        c.insert(json!({
            "i": i,
            "kind": if i % 2 == 0 { "even" } else { "odd" },
            "loc": {"lat": paris.lat, "lon": paris.lon},
        }))
        .unwrap();
    }
    assert_eq!(c.delete(&Query::eq("kind", "even")), 10);
    assert_eq!(c.count(&Query::eq("kind", "even")), 0);
    assert_eq!(c.count(&Query::near("loc", paris, 1_000.0)), 10);
    assert_eq!(c.len(), 10);
}

#[test]
fn index_created_after_data_backfills() {
    let c = Collection::new("late");
    for i in 0..50 {
        c.insert(json!({"n": i})).unwrap();
    }
    c.create_index("n");
    let hits = c.find(&Query::cmp("n", sensocial_store::CmpOp::Gte, 40));
    assert_eq!(hits.len(), 10);
    assert!(c.stats().index_scans >= 1, "backfilled index was used");
}

#[test]
fn update_that_adds_indexed_field_indexes_it() {
    let c = Collection::new("sparse");
    c.create_index("tag");
    c.insert(json!({"user": "u"})).unwrap();
    assert_eq!(c.count(&Query::eq("tag", "hot")), 0);
    c.update_set(&Query::eq("user", "u"), &[("tag", json!("hot"))]);
    assert_eq!(c.count(&Query::eq("tag", "hot")), 1);
}
