//! Index consistency under mutation: updates must keep every index in
//! sync with the documents (the bug class that silently corrupts query
//! results).

use sensocial_runtime::json;
use sensocial_storage::{CmpOp, Collection, Query};

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
fn index_created_after_data_backfills() {
    let c = Collection::new("late");
    for i in 0..50 {
        c.insert(json!({"n": i})).unwrap();
    }
    c.create_index("n");
    let hits = c.find(&Query::cmp("n", CmpOp::Gte, 40));
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
