//! Named collections under one database.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::collection::Collection;

/// A database: a namespace of [`Collection`]s.
///
/// Collections are created lazily on first access, like MongoDB's. The
/// storage engine owns the only one; reach it through
/// [`StorageEngine::docs`](crate::StorageEngine::docs).
///
/// # Example
///
/// ```
/// use sensocial_runtime::json;
/// use sensocial_storage::StorageConfig;
///
/// let storage = StorageConfig::document().open();
/// storage.docs().collection("users").insert(json!({"name": "alice"})).unwrap();
///
/// // Every handle to a collection shares its documents.
/// assert_eq!(storage.docs().collection("users").len(), 1);
/// ```
pub struct Database {
    collections: RefCell<BTreeMap<String, Collection>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("collections", &self.collections.borrow().len())
            .finish()
    }
}

impl Database {
    /// Creates an empty database.
    pub(crate) fn new() -> Self {
        Database {
            collections: RefCell::new(BTreeMap::new()),
        }
    }

    /// Returns the collection called `name`, creating it if absent. The
    /// returned handle shares state with all other handles to the same
    /// collection.
    pub fn collection(&self, name: &str) -> Collection {
        if let Some(collection) = self.collections.borrow().get(name) {
            return collection.clone();
        }
        let collection = Collection::new(name);
        self.collections
            .borrow_mut()
            .insert(name.to_owned(), collection.clone());
        collection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_runtime::json;

    #[test]
    fn collections_are_shared_between_handles() {
        let db = Database::new();
        let a = db.collection("c");
        let b = db.collection("c");
        a.insert(json!({"x": 1})).unwrap();
        assert_eq!(b.len(), 1);
    }
}
