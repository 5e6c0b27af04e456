//! Documents, and the document backend that stores samples as them.
//!
//! A [`Document`] is one JSON object in a [`Collection`], under the id the
//! collection assigned at insert. The document backend keeps every sample
//! as one document of its own `samples` collection; a scan is one walk of
//! that collection with the sample query pushed down into the collection's
//! query language.
//!
//! [`Collection`]: crate::Collection

use std::fmt;
use std::ops::ControlFlow;

use sensocial_runtime::json::Value;

use crate::backend::{BackendKind, StorageBackend, StorageFootprint};
use crate::collection::Collection;
use crate::query::{CmpOp, Query};
use crate::sample::{PartitionKey, SampleQuery, SampleRecord};

/// Identifies a document within its collection, assigned at insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocumentId(pub(crate) u64);

impl DocumentId {
    /// The numeric value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocumentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// A stored document: an id plus a JSON object body.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// The document's id within its collection.
    pub id: DocumentId,
    /// The JSON object body.
    pub body: Value,
}

impl Document {
    /// Reads a (possibly dotted) field path from the body, e.g.
    /// `"profile.city"`. Returns `None` when any path component is missing
    /// or a non-object is traversed.
    pub fn field(&self, path: &str) -> Option<&Value> {
        lookup_path(&self.body, path)
    }
}

/// Resolves a dotted path inside a JSON value.
pub(crate) fn lookup_path<'v>(value: &'v Value, path: &str) -> Option<&'v Value> {
    let mut current = value;
    for part in path.split('.') {
        current = current.as_object()?.get(part)?;
    }
    Some(current)
}

/// Samples stored as documents of one collection.
#[derive(Debug)]
pub struct DocumentBackend {
    samples: Collection,
}

impl DocumentBackend {
    /// Creates the backend around an empty `samples` collection.
    pub(crate) fn create() -> DocumentBackend {
        DocumentBackend {
            samples: Collection::new("samples"),
        }
    }

    /// Translates a sample query into the collection's query language.
    /// The collection checks it on each stored body, so a row that fails
    /// any clause, the fence included, is dropped before it is copied or
    /// parsed by [`SampleRecord::from_document`].
    fn pushdown(query: &SampleQuery) -> Query {
        let mut clauses = Vec::new();
        if let Some(user) = &query.user {
            clauses.push(Query::eq("user", user.as_str()));
        }
        if let Some(device) = &query.device {
            clauses.push(Query::eq("device", device.as_str()));
        }
        if let Some(stream) = query.stream {
            clauses.push(Query::eq("stream", stream.value()));
        }
        if let Some(modality) = query.modality {
            clauses.push(Query::eq("modality", modality.name()));
        }
        if let Some(granularity) = query.granularity {
            clauses.push(Query::eq("granularity", granularity.name()));
        }
        if let Some(from) = query.from {
            clauses.push(Query::cmp("at", CmpOp::Gte, from.as_millis()));
        }
        if let Some(until) = query.until {
            clauses.push(Query::cmp("at", CmpOp::Lte, until.as_millis()));
        }
        if let Some(fence) = &query.fence {
            clauses.push(Query::within("position", *fence));
        }
        if clauses.is_empty() {
            Query::All
        } else {
            Query::And(clauses)
        }
    }
}

impl StorageBackend for DocumentBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Document
    }

    fn ingest(&self, _partition: &PartitionKey, records: &[SampleRecord]) {
        for record in records {
            let _ = self.samples.insert(record.to_document());
        }
    }

    fn scan(&self, query: &SampleQuery, candidates: &[PartitionKey]) -> Vec<SampleRecord> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let mut rows = Vec::new();
        self.samples
            .for_each_match(&DocumentBackend::pushdown(query), |_, body| {
                if let Some(record) = SampleRecord::from_document(body) {
                    if query.matches(&record) {
                        rows.push(record);
                    }
                }
                ControlFlow::Continue(())
            });
        rows.sort_by_key(|r| r.seq);
        rows
    }

    fn footprint(&self) -> StorageFootprint {
        let rows = self.samples.len() as u64;
        let mut payload_bytes = 0;
        self.samples.for_each_match(&Query::All, |_, body| {
            if let Some(payload) = body.get("payload").and_then(Value::as_str) {
                payload_bytes += payload.len() as u64;
            }
            ControlFlow::Continue(())
        });
        StorageFootprint {
            rows,
            chunks: u64::from(rows > 0),
            payload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_runtime::json;

    #[test]
    fn field_paths_resolve() {
        let doc = Document {
            id: DocumentId(1),
            body: json!({"a": {"b": {"c": 7}}, "top": "x"}),
        };
        assert_eq!(doc.field("top"), Some(&json!("x")));
        assert_eq!(doc.field("a.b.c"), Some(&json!(7)));
        assert_eq!(doc.field("a.b"), Some(&json!({"c": 7})));
        assert_eq!(doc.field("a.missing"), None);
        assert_eq!(doc.field("top.deeper"), None);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(DocumentId(4).to_string(), "doc#4");
    }
}
