//! Collections: documents in id order, each query one walk over them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::rc::Rc;

use sensocial_runtime::json::Value;
use sensocial_types::{Error, Result};

use crate::document::{Document, DocumentId};
use crate::query::Query;

struct Inner {
    name: String,
    docs: BTreeMap<DocumentId, Value>,
    next_id: u64,
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
        let mut updated = 0;
        for body in self.inner.borrow_mut().docs.values_mut() {
            if query.matches_body(body) {
                for (path, value) in fields {
                    set_path(body, path, value.clone());
                }
                updated += 1;
            }
        }
        updated
    }

    /// Calls `visit` on the id and stored body of each document matching
    /// `query`, in id order, until it breaks. Every query runs here: the
    /// predicate is checked on each body where it is stored, and nothing
    /// is copied unless `visit` copies it. `visit` runs while the
    /// collection is borrowed, so it must not write to it.
    pub(crate) fn for_each_match(
        &self,
        query: &Query,
        mut visit: impl FnMut(DocumentId, &Value) -> ControlFlow<()>,
    ) {
        let inner = self.inner.borrow();
        for (id, body) in &inner.docs {
            if query.matches_body(body) && visit(*id, body).is_break() {
                return;
            }
        }
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
    fn update_set_rewrites_and_reindexes() {
        let c = seeded();
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
