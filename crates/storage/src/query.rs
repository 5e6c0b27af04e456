//! The query language and its evaluator.

use std::cmp::Ordering;

use sensocial_runtime::json::Value;
use sensocial_types::{GeoFence, GeoPoint};

use crate::document::{lookup_path, Document};

/// Comparison operators, mirroring MongoDB's `$eq`, `$ne`, `$gt`, `$gte`,
/// `$lt` and `$lte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal (also true when the field is missing, as in MongoDB).
    Ne,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Gte,
    /// Less than.
    Lt,
    /// Less than or equal.
    Lte,
}

/// A query predicate over documents.
///
/// Build with the constructor helpers ([`Query::eq`], [`Query::cmp`],
/// [`Query::and`], [`Query::near`], …) and evaluate with
/// [`Query::matches`] or hand to [`Collection::find`](crate::Collection::find).
///
/// # Example
///
/// ```
/// use sensocial_storage::{CmpOp, Collection, Query};
/// use sensocial_runtime::json;
///
/// let users = Collection::new("users");
/// users.insert(json!({"name": "alice", "age": 30})).unwrap();
/// users.insert(json!({"name": "bob", "age": 24})).unwrap();
///
/// let adults = Query::and(vec![
///     Query::cmp("age", CmpOp::Gte, 25),
///     Query::exists("name"),
/// ]);
/// assert_eq!(users.count(&adults), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Matches every document.
    All,
    /// Field comparison.
    Cmp {
        /// Dotted field path.
        field: String,
        /// Comparison operator.
        op: CmpOp,
        /// Value to compare against.
        value: Value,
    },
    /// Field exists (`$exists: true`).
    Exists {
        /// Dotted field path.
        field: String,
    },
    /// All sub-queries match (`$and`).
    And(Vec<Query>),
    /// Geospatial: the field (an object `{lat, lon}`) lies within
    /// `max_distance_m` of `center` (`$near` with `$maxDistance`).
    Near {
        /// Dotted field path holding `{lat, lon}`.
        field: String,
        /// Query centre.
        center: GeoPoint,
        /// Maximum great-circle distance in metres.
        max_distance_m: f64,
    },
}

impl Query {
    /// Equality comparison: `field == value`.
    pub fn eq(field: impl Into<String>, value: impl Into<Value>) -> Query {
        Query::Cmp {
            field: field.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// General comparison.
    pub fn cmp(field: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Query {
        Query::Cmp {
            field: field.into(),
            op,
            value: value.into(),
        }
    }

    /// Existence check.
    pub fn exists(field: impl Into<String>) -> Query {
        Query::Exists {
            field: field.into(),
        }
    }

    /// Conjunction.
    pub fn and(queries: Vec<Query>) -> Query {
        Query::And(queries)
    }

    /// Geospatial proximity: documents whose `field` lies within
    /// `max_distance_m` metres of `center`.
    pub fn near(field: impl Into<String>, center: GeoPoint, max_distance_m: f64) -> Query {
        Query::Near {
            field: field.into(),
            center,
            max_distance_m,
        }
    }

    /// Geospatial containment in a fence (`$within` on a circle).
    pub fn within(field: impl Into<String>, fence: GeoFence) -> Query {
        Query::Near {
            field: field.into(),
            center: fence.center,
            max_distance_m: fence.radius_m,
        }
    }

    /// Evaluates the predicate against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        self.matches_body(&doc.body)
    }

    /// Evaluates the predicate against a document body where it is
    /// stored, so a collection copies only the bodies that match.
    pub(crate) fn matches_body(&self, body: &Value) -> bool {
        match self {
            Query::All => true,
            Query::Cmp { field, op, value } => {
                let found = lookup_path(body, field);
                match (op, found) {
                    // Mongo semantics: $ne matches documents missing the field.
                    (CmpOp::Ne, None) => true,
                    (_, None) => false,
                    (op, Some(actual)) => compare(actual, value)
                        .map(|ord| match op {
                            CmpOp::Eq => ord == Ordering::Equal,
                            CmpOp::Ne => ord != Ordering::Equal,
                            CmpOp::Gt => ord == Ordering::Greater,
                            CmpOp::Gte => ord != Ordering::Less,
                            CmpOp::Lt => ord == Ordering::Less,
                            CmpOp::Lte => ord != Ordering::Greater,
                        })
                        // Incomparable types: only $ne is satisfied.
                        .unwrap_or(*op == CmpOp::Ne),
                }
            }
            Query::Exists { field } => lookup_path(body, field).is_some(),
            Query::And(qs) => qs.iter().all(|q| q.matches_body(body)),
            Query::Near {
                field,
                center,
                max_distance_m,
            } => extract_point(lookup_path(body, field))
                .map(|p| center.distance_m(p) <= *max_distance_m)
                .unwrap_or(false),
        }
    }
}

/// Reads a `{lat, lon}` object into a [`GeoPoint`].
fn extract_point(value: Option<&Value>) -> Option<GeoPoint> {
    let obj = value?.as_object()?;
    let lat = obj.get("lat")?.as_f64()?;
    let lon = obj.get("lon")?.as_f64()?;
    if (-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon) {
        Some(GeoPoint::new(lat, lon))
    } else {
        None
    }
}

/// Total-ish ordering over JSON scalars: numbers compare numerically,
/// strings lexicographically, booleans false < true. Mixed or non-scalar
/// types are incomparable except for exact equality.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            let (x, y) = (x.as_f64()?, y.as_f64()?);
            x.partial_cmp(&y)
        }
        (Value::String(x), Value::String(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::Null, Value::Null) => Some(Ordering::Equal),
        _ => {
            if a == b {
                Some(Ordering::Equal)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocumentId;
    use sensocial_runtime::json;

    fn doc(body: Value) -> Document {
        Document {
            id: DocumentId(0),
            body,
        }
    }

    #[test]
    fn comparisons() {
        let d = doc(json!({"age": 30, "name": "alice"}));
        assert!(Query::eq("age", 30).matches(&d));
        assert!(Query::cmp("age", CmpOp::Gt, 20).matches(&d));
        assert!(Query::cmp("age", CmpOp::Lte, 30).matches(&d));
        assert!(!Query::cmp("age", CmpOp::Lt, 30).matches(&d));
        assert!(Query::eq("name", "alice").matches(&d));
        assert!(!Query::eq("name", "bob").matches(&d));
    }

    #[test]
    fn ne_matches_missing_field_like_mongo() {
        let d = doc(json!({"a": 1}));
        assert!(Query::cmp("missing", CmpOp::Ne, 5).matches(&d));
        assert!(!Query::eq("missing", 5).matches(&d));
        assert!(!Query::cmp("missing", CmpOp::Gt, 5).matches(&d));
    }

    #[test]
    fn incomparable_types() {
        let d = doc(json!({"a": "text"}));
        assert!(!Query::cmp("a", CmpOp::Gt, 5).matches(&d));
        assert!(Query::cmp("a", CmpOp::Ne, 5).matches(&d));
    }

    #[test]
    fn in_and_exists() {
        let d = doc(json!({"home": "Paris"}));
        assert!(Query::exists("home").matches(&d));
        assert!(!Query::exists("work").matches(&d));
    }

    #[test]
    fn logical_combinators() {
        let d = doc(json!({"a": 1, "b": 2}));
        assert!(Query::and(vec![Query::eq("a", 1), Query::eq("b", 2)]).matches(&d));
        assert!(!Query::and(vec![Query::eq("a", 1), Query::eq("b", 3)]).matches(&d));
        assert!(
            Query::And(vec![]).matches(&d),
            "empty $and is vacuous truth"
        );
    }

    #[test]
    fn near_queries() {
        use sensocial_types::geo::cities;
        let paris = cities::paris();
        let d = doc(json!({"loc": {"lat": paris.lat, "lon": paris.lon}}));
        assert!(Query::near("loc", paris, 1_000.0).matches(&d));
        assert!(!Query::near("loc", cities::bordeaux(), 1_000.0).matches(&d));
        assert!(Query::within("loc", GeoFence::new(paris, 500.0)).matches(&d));
        // Malformed location objects never match.
        let bad = doc(json!({"loc": {"lat": 200.0, "lon": 0.0}}));
        assert!(!Query::near("loc", paris, 1e9).matches(&bad));
        let missing = doc(json!({"x": 1}));
        assert!(!Query::near("loc", paris, 1e9).matches(&missing));
    }

    #[test]
    fn dotted_paths_in_queries() {
        let d = doc(json!({"profile": {"city": "Paris"}}));
        assert!(Query::eq("profile.city", "Paris").matches(&d));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        let d = doc(json!({"x": 1.5}));
        assert!(Query::cmp("x", CmpOp::Gt, 1).matches(&d));
        assert!(Query::cmp("x", CmpOp::Lt, 2).matches(&d));
    }
}
