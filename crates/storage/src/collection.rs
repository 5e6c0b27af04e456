//! Collections: documents + indices + the query planner.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::rc::Rc;

use sensocial_runtime::json::Value;
use sensocial_types::{Error, Result};

use crate::document::{lookup_path, Document, DocumentId};
use crate::index::FieldIndex;
use crate::query::Query;

/// Counters describing collection activity, used to assert that the
/// planner actually uses indices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Queries answered via an index.
    pub index_scans: u64,
    /// Queries answered by scanning every document.
    pub full_scans: u64,
}

struct Inner {
    name: String,
    docs: BTreeMap<DocumentId, Value>,
    next_id: u64,
    field_indices: BTreeMap<String, FieldIndex>,
    stats: CollectionStats,
}

/// A named collection of JSON documents.
///
/// Cloneable handle (clones share the collection). See the
/// [`Query`] example for the query language.
///
/// # Example
///
/// ```
/// use sensocial_runtime::json;
/// use sensocial_storage::{Collection, Query};
///
/// let users = Collection::new("users");
/// users.insert(json!({"name": "alice", "home": "Paris", "age": 30})).unwrap();
/// users.insert(json!({"name": "bob", "home": "Bordeaux", "age": 24})).unwrap();
///
/// let parisians = users.find(&Query::eq("home", "Paris"));
/// assert_eq!(parisians.len(), 1);
/// assert_eq!(parisians[0].body["name"], "alice");
/// ```
#[derive(Clone)]
pub struct Collection {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Collection")
            .field("name", &inner.name)
            .field("len", &inner.docs.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Collection {
    /// Creates a standalone collection (outside any [`Database`]).
    ///
    /// [`Database`]: crate::Database
    pub fn new(name: impl Into<String>) -> Self {
        Collection {
            inner: Rc::new(RefCell::new(Inner {
                name: name.into(),
                docs: BTreeMap::new(),
                next_id: 0,
                field_indices: BTreeMap::new(),
                stats: CollectionStats::default(),
            })),
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.borrow().docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Activity counters.
    pub fn stats(&self) -> CollectionStats {
        self.inner.borrow().stats
    }

    /// Creates an ordered index on a (dotted) field path and backfills it.
    /// Idempotent.
    pub fn create_index(&self, field: &str) {
        let mut inner = self.inner.borrow_mut();
        if inner.field_indices.contains_key(field) {
            return;
        }
        let mut index = FieldIndex::new();
        for (id, body) in &inner.docs {
            if let Some(value) = lookup_path(body, field) {
                index.insert(value, *id);
            }
        }
        inner.field_indices.insert(field.to_owned(), index);
    }

    /// Inserts a document, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] if `body` is not a JSON object —
    /// collections hold objects, as in MongoDB.
    pub fn insert(&self, body: Value) -> Result<DocumentId> {
        if !body.is_object() {
            return Err(Error::InvalidQuery(
                "documents must be JSON objects".to_owned(),
            ));
        }
        let mut inner = self.inner.borrow_mut();
        let id = DocumentId(inner.next_id);
        inner.next_id += 1;
        index_doc(&mut inner.field_indices, id, &body, true);
        inner.docs.insert(id, body);
        Ok(id)
    }

    /// Fetches a document by id.
    pub fn get(&self, id: DocumentId) -> Option<Document> {
        self.inner.borrow().docs.get(&id).map(|body| Document {
            id,
            body: body.clone(),
        })
    }

    /// Finds all documents matching `query`, in id order.
    pub fn find(&self, query: &Query) -> Vec<Document> {
        let mut found = Vec::new();
        self.for_each_match(query, |id, body| {
            found.push(Document {
                id,
                body: body.clone(),
            });
            ControlFlow::Continue(())
        });
        found
    }

    /// Finds the first matching document (lowest id).
    pub fn find_one(&self, query: &Query) -> Option<Document> {
        let mut first = None;
        self.for_each_match(query, |id, body| {
            first = Some(Document {
                id,
                body: body.clone(),
            });
            ControlFlow::Break(())
        });
        first
    }

    /// Number of documents matching `query`.
    pub fn count(&self, query: &Query) -> usize {
        let mut n = 0;
        self.for_each_match(query, |_, _| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// Sets `fields` (dotted paths) on every document matching `query`,
    /// creating intermediate objects as needed. Returns the number of
    /// documents updated.
    pub fn update_set(&self, query: &Query, fields: &[(&str, Value)]) -> usize {
        let mut ids = Vec::new();
        self.for_each_match(query, |id, _| {
            ids.push(id);
            ControlFlow::Continue(())
        });
        let mut inner = self.inner.borrow_mut();
        let Inner {
            docs,
            field_indices,
            ..
        } = &mut *inner;
        for id in &ids {
            if let Some(body) = docs.get_mut(id) {
                index_doc(field_indices, *id, body, false);
                for (path, value) in fields {
                    set_path(body, path, value.clone());
                }
                index_doc(field_indices, *id, body, true);
            }
        }
        ids.len()
    }

    /// Calls `visit` on the id and stored body of each document matching
    /// `query`, in id order, until it breaks. Every query runs here: the
    /// planner narrows, the full predicate is checked on each candidate
    /// where it is stored, and nothing is copied unless `visit` copies it.
    /// `visit` runs while the collection is borrowed, so it must not call
    /// back into it.
    pub(crate) fn for_each_match(
        &self,
        query: &Query,
        mut visit: impl FnMut(DocumentId, &Value) -> ControlFlow<()>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let mut check = |id: DocumentId, body: &Value| {
            if query.matches_body(body) {
                visit(id, body)
            } else {
                ControlFlow::Continue(())
            }
        };
        match plan(&inner, query) {
            Some(mut candidates) => {
                inner.stats.index_scans += 1;
                // Index candidates arrive in key order; results are
                // promised in id order.
                candidates.sort_unstable();
                candidates.dedup();
                for id in candidates {
                    if let Some(body) = inner.docs.get(&id) {
                        if check(id, body).is_break() {
                            return;
                        }
                    }
                }
            }
            None => {
                inner.stats.full_scans += 1;
                for (id, body) in &inner.docs {
                    if check(*id, body).is_break() {
                        return;
                    }
                }
            }
        }
    }
}

/// Adds (`add = true`) or removes a document from every index.
fn index_doc(
    field_indices: &mut BTreeMap<String, FieldIndex>,
    id: DocumentId,
    body: &Value,
    add: bool,
) {
    for (field, index) in field_indices.iter_mut() {
        if let Some(value) = lookup_path(body, field) {
            if add {
                index.insert(value, id);
            } else {
                index.remove(value, id);
            }
        }
    }
}

/// Returns candidate ids if some field index can narrow the query, else
/// `None` (full scan). Candidates are always *verified* against the full
/// query, so a plan only needs to be a superset of the true matches
/// **restricted to the planned predicate**; for `And` we plan on the first
/// conjunct that has an index.
fn plan(inner: &Inner, query: &Query) -> Option<Vec<DocumentId>> {
    match query {
        Query::Cmp { field, op, value } => inner
            .field_indices
            .get(field)
            .and_then(|idx| idx.candidates(*op, value)),
        Query::And(qs) => qs.iter().find_map(|q| plan(inner, q)),
        _ => None,
    }
}

/// Sets a dotted path inside a JSON object, creating objects along the way.
fn set_path(body: &mut Value, path: &str, value: Value) {
    let mut current = body;
    let parts: Vec<&str> = path.split('.').collect();
    for (i, part) in parts.iter().enumerate() {
        if i == parts.len() - 1 {
            if let Some(obj) = current.as_object_mut() {
                obj.insert((*part).to_owned(), value);
            }
            return;
        }
        if !current.is_object() {
            return;
        }
        let obj = current.as_object_mut().expect("checked above"); // lint:allow(expect) — is_object checked above
        current = obj
            .entry((*part).to_owned())
            .or_insert_with(|| Value::Object(Default::default()));
        if !current.is_object() {
            *current = Value::Object(Default::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::CmpOp;
    use sensocial_runtime::json;

    fn seeded() -> Collection {
        let c = Collection::new("users");
        c.insert(json!({"name": "alice", "home": "Paris", "age": 30}))
            .unwrap();
        c.insert(json!({"name": "bob", "home": "Bordeaux", "age": 24}))
            .unwrap();
        c.insert(json!({"name": "carol", "home": "Paris", "age": 41}))
            .unwrap();
        c
    }

    #[test]
    fn insert_find_get() {
        let c = seeded();
        assert_eq!(c.len(), 3);
        let parisians = c.find(&Query::eq("home", "Paris"));
        assert_eq!(parisians.len(), 2);
        let first = c.find_one(&Query::eq("name", "bob")).unwrap();
        assert_eq!(c.get(first.id).unwrap().body["home"], "Bordeaux");
    }

    #[test]
    fn non_object_rejected() {
        let c = Collection::new("x");
        assert!(c.insert(json!(42)).is_err());
        assert!(c.insert(json!([1, 2])).is_err());
    }

    #[test]
    fn indexed_and_unindexed_agree() {
        let c = seeded();
        let unindexed = c.find(&Query::eq("home", "Paris"));
        c.create_index("home");
        let indexed = c.find(&Query::eq("home", "Paris"));
        assert_eq!(unindexed, indexed);
        let stats = c.stats();
        assert_eq!(stats.index_scans, 1);
        assert_eq!(stats.full_scans, 1);
    }

    #[test]
    fn range_queries_use_index() {
        let c = seeded();
        c.create_index("age");
        let adults = c.find(&Query::cmp("age", CmpOp::Gte, 30));
        assert_eq!(adults.len(), 2);
        assert_eq!(c.stats().index_scans, 1);
    }

    #[test]
    fn and_plans_on_any_indexed_conjunct() {
        let c = seeded();
        c.create_index("home");
        let q = Query::and(vec![
            Query::cmp("age", CmpOp::Lt, 40),
            Query::eq("home", "Paris"),
        ]);
        let got = c.find(&q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].body["name"], "alice");
        assert_eq!(c.stats().index_scans, 1);
    }

    #[test]
    fn update_set_rewrites_and_reindexes() {
        let c = seeded();
        c.create_index("home");
        let n = c.update_set(&Query::eq("name", "bob"), &[("home", json!("Paris"))]);
        assert_eq!(n, 1);
        assert_eq!(c.count(&Query::eq("home", "Paris")), 3);
        assert_eq!(c.count(&Query::eq("home", "Bordeaux")), 0);
    }

    #[test]
    fn update_set_creates_nested_paths() {
        let c = seeded();
        c.update_set(
            &Query::eq("name", "alice"),
            &[("profile.city", json!("Paris"))],
        );
        let alice = c.find_one(&Query::eq("name", "alice")).unwrap();
        assert_eq!(alice.body["profile"]["city"], "Paris");
    }

    #[test]
    fn count_matches_find_len() {
        let c = seeded();
        assert_eq!(c.count(&Query::All), 3);
        assert_eq!(c.count(&Query::eq("home", "Paris")), 2);
    }
}
