//! Property-based tests: indexed query plans return exactly the full-scan
//! result, for every supported operator.

use sensocial_runtime::json;
use sensocial_runtime::json::Value;
use sensocial_runtime::prop::{check, string_of, vec_of};
use sensocial_runtime::SimRng;
use sensocial_storage::{CmpOp, Collection, Document, Query};

#[derive(Debug, Clone)]
struct Row {
    home: String,
    age: i64,
    lat: f64,
    lon: f64,
}

fn arb_row(rng: &mut SimRng) -> Row {
    let home = match rng.uniform_u64(0, 4) {
        0 => "Paris".to_owned(),
        1 => "Bordeaux".to_owned(),
        2 => "Birmingham".to_owned(),
        _ => string_of(rng, "a-z", 3..=8),
    };
    Row {
        home,
        age: rng.uniform_u64(0, 100) as i64,
        lat: rng.uniform(44.0, 52.0),
        lon: rng.uniform(-1.0, 3.0),
    }
}

fn build(rows: &[Row], indexed: bool) -> Collection {
    let c = Collection::new("rows");
    if indexed {
        c.create_index("home");
        c.create_index("age");
    }
    for r in rows {
        c.insert(json!({
            "home": r.home,
            "age": r.age,
            "loc": {"lat": r.lat, "lon": r.lon},
        }))
        .unwrap();
    }
    c
}

fn ids(docs: Vec<Document>) -> Vec<u64> {
    docs.into_iter().map(|d| d.id.value()).collect()
}

fn arb_cmp_op(rng: &mut SimRng) -> CmpOp {
    *rng.choose(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Gt,
        CmpOp::Gte,
        CmpOp::Lt,
        CmpOp::Lte,
    ])
    .unwrap()
}

fn numeric_range_plan_matches_scan(rows: &[Row], pivot: i64, op: CmpOp) {
    let plain = build(rows, false);
    let indexed = build(rows, true);
    let q = Query::cmp("age", op, pivot);
    assert_eq!(ids(plain.find(&q)), ids(indexed.find(&q)));
}

#[test]
fn string_eq_plans_match_scans() {
    check(64, |rng| {
        let rows = vec_of(rng, 0..60, arb_row);
        let plain = build(&rows, false);
        let indexed = build(&rows, true);
        for city in ["Paris", "Bordeaux", "nowhere"] {
            let q = Query::eq("home", city);
            assert_eq!(ids(plain.find(&q)), ids(indexed.find(&q)));
        }
    });
}

#[test]
fn numeric_range_plans_match_scans() {
    check(64, |rng| {
        let rows = vec_of(rng, 0..60, arb_row);
        let pivot = rng.uniform_u64(0, 100) as i64;
        numeric_range_plan_matches_scan(&rows, pivot, arb_cmp_op(rng));
    });
}

/// A case once recorded as failing: two rows at one point, one aged
/// exactly the `Lte` pivot.
#[test]
fn recorded_case_lte_pivot_equal_to_an_age() {
    let row = |age| Row {
        home: "Paris".to_owned(),
        age,
        lat: 44.0,
        lon: 0.0,
    };
    numeric_range_plan_matches_scan(&[row(22), row(0)], 22, CmpOp::Lte);
}

#[test]
fn and_plans_match_scans() {
    check(64, |rng| {
        let rows = vec_of(rng, 0..60, arb_row);
        let pivot = rng.uniform_u64(0, 100) as i64;
        let plain = build(&rows, false);
        let indexed = build(&rows, true);
        let q = Query::and(vec![
            Query::eq("home", "Paris"),
            Query::cmp("age", CmpOp::Gte, pivot),
        ]);
        assert_eq!(ids(plain.find(&q)), ids(indexed.find(&q)));
    });
}

#[test]
fn update_moves_documents_between_query_results() {
    check(64, |rng| {
        let rows = vec_of(rng, 1..40, arb_row);
        let c = build(&rows, true);
        let from = Query::eq("home", rows[0].home.clone());
        let before = c.count(&from);
        let moved = c.update_set(&from, &[("home", Value::from("Atlantis"))]);
        assert_eq!(before, moved);
        assert_eq!(c.count(&from), 0);
        assert_eq!(c.count(&Query::eq("home", "Atlantis")), moved);
    });
}
