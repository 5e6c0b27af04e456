//! Property-based tests: every read answers exactly what a walk of the
//! stored documents answers. Comparisons on typed rows are held against
//! the same comparison made in Rust on each row; arbitrary queries on
//! arbitrary bodies are held against a walk of every stored document
//! through [`Query::matches`].

use sensocial_runtime::json;
use sensocial_runtime::json::Value;
use sensocial_runtime::prop::{check, string_of, vec_of};
use sensocial_runtime::SimRng;
use sensocial_storage::{CmpOp, Collection, Document, Query};
use sensocial_types::{GeoFence, GeoPoint};

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

fn build(rows: &[Row]) -> Collection {
    let c = Collection::new("rows");
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

/// The ids of the rows `keep` accepts, in insert order: the answer a walk
/// of the rows gives.
fn walk_rows(rows: &[Row], keep: impl Fn(&Row) -> bool) -> Vec<u64> {
    (0..)
        .zip(rows)
        .filter(|(_, r)| keep(r))
        .map(|(id, _)| id)
        .collect()
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

fn numeric_range_matches_a_walk(rows: &[Row], pivot: i64, op: CmpOp) {
    let c = build(rows);
    let q = Query::cmp("age", op, pivot);
    let expected = walk_rows(rows, |r| match op {
        CmpOp::Eq => r.age == pivot,
        CmpOp::Ne => r.age != pivot,
        CmpOp::Gt => r.age > pivot,
        CmpOp::Gte => r.age >= pivot,
        CmpOp::Lt => r.age < pivot,
        CmpOp::Lte => r.age <= pivot,
    });
    assert_eq!(ids(c.find(&q)), expected, "{q:?}");
}

#[test]
fn string_eq_plans_match_scans() {
    check(64, |rng| {
        let rows = vec_of(rng, 0..60, arb_row);
        let c = build(&rows);
        for city in ["Paris", "Bordeaux", "nowhere"] {
            let q = Query::eq("home", city);
            assert_eq!(ids(c.find(&q)), walk_rows(&rows, |r| r.home == city));
        }
    });
}

#[test]
fn numeric_range_plans_match_scans() {
    check(64, |rng| {
        let rows = vec_of(rng, 0..60, arb_row);
        let pivot = rng.uniform_u64(0, 100) as i64;
        numeric_range_matches_a_walk(&rows, pivot, arb_cmp_op(rng));
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
    numeric_range_matches_a_walk(&[row(22), row(0)], 22, CmpOp::Lte);
}

#[test]
fn and_plans_match_scans() {
    check(64, |rng| {
        let rows = vec_of(rng, 0..60, arb_row);
        let pivot = rng.uniform_u64(0, 100) as i64;
        let c = build(&rows);
        let q = Query::and(vec![
            Query::eq("home", "Paris"),
            Query::cmp("age", CmpOp::Gte, pivot),
        ]);
        let expected = walk_rows(&rows, |r| r.home == "Paris" && r.age >= pivot);
        assert_eq!(ids(c.find(&q)), expected);
    });
}

#[test]
fn update_moves_documents_between_query_results() {
    check(64, |rng| {
        let rows = vec_of(rng, 1..40, arb_row);
        let c = build(&rows);
        let from = Query::eq("home", rows[0].home.clone());
        let before = c.count(&from);
        let moved = c.update_set(&from, &[("home", Value::from("Atlantis"))]);
        assert_eq!(before, moved);
        assert_eq!(c.count(&from), 0);
        assert_eq!(c.count(&Query::eq("home", "Atlantis")), moved);
    });
}

/// A body whose `age` is a number, a string or missing and whose `tag`
/// may be missing, so queries meet absent fields and incomparable values.
fn arb_body(rng: &mut SimRng) -> Value {
    let row = arb_row(rng);
    let mut body = json!({"home": row.home, "loc": {"lat": row.lat, "lon": row.lon}});
    let fields = body.as_object_mut().unwrap();
    match rng.uniform_u64(0, 4) {
        0 => {}
        1 => {
            fields.insert("age".to_owned(), Value::from(row.age.to_string()));
        }
        _ => {
            fields.insert("age".to_owned(), Value::from(row.age));
        }
    }
    if rng.chance(0.5) {
        fields.insert("tag".to_owned(), Value::from(rng.chance(0.5)));
    }
    body
}

fn arb_value(rng: &mut SimRng) -> Value {
    match rng.uniform_u64(0, 5) {
        0 => Value::from(*rng.choose(&["Paris", "Bordeaux", "m"]).unwrap()),
        1 => Value::from(rng.uniform_u64(0, 100) as i64),
        2 => Value::from(rng.uniform(44.0, 52.0)),
        3 => Value::from(rng.chance(0.5)),
        _ => Value::Null,
    }
}

/// Any query the language has: comparisons and existence checks on
/// present, nested and missing fields, `near` and `within` fences, and
/// conjunctions (empty ones included) nested up to `depth`.
fn arb_query(rng: &mut SimRng, depth: u32) -> Query {
    const FIELDS: [&str; 6] = ["home", "age", "tag", "loc", "loc.lat", "missing"];
    let field = *rng.choose(&FIELDS).unwrap();
    let kinds = if depth == 0 { 5 } else { 6 };
    match rng.uniform_u64(0, kinds) {
        0 => Query::All,
        1 => Query::cmp(field, arb_cmp_op(rng), arb_value(rng)),
        2 => Query::exists(field),
        3 => {
            let center = GeoPoint::new(rng.uniform(44.0, 52.0), rng.uniform(-1.0, 3.0));
            Query::near("loc", center, rng.uniform(0.0, 300_000.0))
        }
        4 => {
            let center = GeoPoint::new(rng.uniform(44.0, 52.0), rng.uniform(-1.0, 3.0));
            Query::within("loc", GeoFence::new(center, rng.uniform(0.0, 300_000.0)))
        }
        _ => Query::and(vec_of(rng, 0..4, |rng| arb_query(rng, depth - 1))),
    }
}

/// Stores `bodies`, returning the collection and each document as it was
/// inserted.
fn stored(bodies: &[Value]) -> (Collection, Vec<Document>) {
    let c = Collection::new("docs");
    let docs = bodies
        .iter()
        .map(|body| Document {
            id: c.insert(body.clone()).unwrap(),
            body: body.clone(),
        })
        .collect();
    (c, docs)
}

/// The reference answer: every document, in id order, through
/// [`Query::matches`].
fn walk(docs: &[Document], q: &Query) -> Vec<Document> {
    docs.iter().filter(|d| q.matches(d)).cloned().collect()
}

#[test]
fn find_equals_a_walk_of_every_document() {
    check(128, |rng| {
        let bodies = vec_of(rng, 0..50, arb_body);
        let (c, docs) = stored(&bodies);
        for _ in 0..16 {
            let q = arb_query(rng, 2);
            assert_eq!(c.find(&q), walk(&docs, &q), "{q:?}");
        }
    });
}

#[test]
fn count_and_find_one_agree_with_find() {
    check(128, |rng| {
        let bodies = vec_of(rng, 0..50, arb_body);
        let (c, _) = stored(&bodies);
        for _ in 0..8 {
            let q = arb_query(rng, 2);
            let found = c.find(&q);
            assert_eq!(c.count(&q), found.len(), "{q:?}");
            assert_eq!(c.find_one(&q), found.first().cloned(), "{q:?}");
        }
    });
}

#[test]
fn update_set_changes_exactly_the_matching_documents() {
    check(128, |rng| {
        let bodies = vec_of(rng, 0..40, arb_body);
        let (c, docs) = stored(&bodies);
        let q = arb_query(rng, 2);
        let matched: Vec<_> = walk(&docs, &q).into_iter().map(|d| d.id).collect();
        let updated = c.update_set(
            &q,
            &[
                ("home", Value::from("Atlantis")),
                ("mark.by", Value::from(1)),
            ],
        );
        assert_eq!(updated, matched.len(), "{q:?}");
        let after: Vec<Document> = docs.iter().map(|d| c.get(d.id).unwrap()).collect();
        for (before, after) in docs.iter().zip(&after) {
            let mut expected = before.body.clone();
            if matched.contains(&before.id) {
                let fields = expected.as_object_mut().unwrap();
                fields.insert("home".to_owned(), Value::from("Atlantis"));
                fields.insert("mark".to_owned(), json!({"by": 1}));
            }
            assert_eq!(after.body, expected, "{q:?}");
        }
        // Later queries read the rewritten bodies.
        for q in [Query::eq("home", "Atlantis"), Query::exists("mark")] {
            assert_eq!(c.find(&q), walk(&after, &q), "{q:?}");
        }
    });
}
