//! Consistency under mutation: after repeated updates, late inserts and
//! updates that add a field, every query answers from the bodies as they
//! now are (the bug class that silently corrupts query results).

use sensocial_runtime::json;
use sensocial_storage::{CmpOp, Collection, Query};

#[test]
fn field_index_follows_repeated_updates() {
    let c = Collection::new("users");
    c.insert(json!({"user": "x", "city": "A"})).unwrap();
    for city in ["B", "C", "D", "A", "B"] {
        c.update_set(&Query::eq("user", "x"), &[("city", json!(city))]);
    }
    assert_eq!(c.count(&Query::eq("city", "B")), 1);
    for city in ["A", "C", "D"] {
        assert_eq!(
            c.count(&Query::eq("city", city)),
            0,
            "stale answer for {city}"
        );
    }
}

#[test]
fn index_created_after_data_backfills() {
    let c = Collection::new("late");
    for i in 0..50 {
        c.insert(json!({"n": i})).unwrap();
    }
    let hits: Vec<_> = c
        .find(&Query::cmp("n", CmpOp::Gte, 40))
        .iter()
        .map(|d| d.body["n"].as_u64())
        .collect();
    assert_eq!(hits, (40..50).map(Some).collect::<Vec<_>>());
}

#[test]
fn update_that_adds_indexed_field_indexes_it() {
    let c = Collection::new("sparse");
    c.insert(json!({"user": "u"})).unwrap();
    assert_eq!(c.count(&Query::eq("tag", "hot")), 0);
    c.update_set(&Query::eq("user", "u"), &[("tag", json!("hot"))]);
    assert_eq!(c.count(&Query::eq("tag", "hot")), 1);
}
