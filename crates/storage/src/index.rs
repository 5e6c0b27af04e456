//! Ordered field indices.

use std::collections::{BTreeMap, BTreeSet};

use sensocial_runtime::json::Value;

use crate::document::DocumentId;
use crate::query::CmpOp;

/// An indexable key: a totally ordered projection of JSON scalars.
///
/// Numbers order by `f64::total_cmp`, which agrees with the query
/// evaluator's `partial_cmp` on all non-NaN values (NaN cannot appear in
/// JSON documents).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OrderedKey {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
}

impl Eq for OrderedKey {}

impl PartialOrd for OrderedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use OrderedKey::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Num(a), Num(b)) => a.total_cmp(b),
            (Num(_), _) => Ordering::Less,
            (_, Num(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

impl OrderedKey {
    /// Projects a JSON value onto an index key; arrays/objects are not
    /// indexable and return `None` (such documents simply don't appear in
    /// the index, and the planner's residual verification keeps results
    /// correct).
    pub(crate) fn from_value(value: &Value) -> Option<OrderedKey> {
        match value {
            Value::Null => Some(OrderedKey::Null),
            Value::Bool(b) => Some(OrderedKey::Bool(*b)),
            Value::Number(n) => n.as_f64().map(OrderedKey::Num),
            Value::String(s) => Some(OrderedKey::Str(s.clone())),
            _ => None,
        }
    }
}

/// An ordered index over one (dotted) field path.
#[derive(Debug, Default)]
pub(crate) struct FieldIndex {
    entries: BTreeMap<OrderedKey, BTreeSet<DocumentId>>,
}

impl FieldIndex {
    pub(crate) fn new() -> Self {
        FieldIndex::default()
    }

    pub(crate) fn insert(&mut self, key: &Value, id: DocumentId) {
        if let Some(k) = OrderedKey::from_value(key) {
            self.entries.entry(k).or_default().insert(id);
        }
    }

    pub(crate) fn remove(&mut self, key: &Value, id: DocumentId) {
        if let Some(k) = OrderedKey::from_value(key) {
            if let Some(set) = self.entries.get_mut(&k) {
                set.remove(&id);
                if set.is_empty() {
                    self.entries.remove(&k);
                }
            }
        }
    }

    /// Candidate ids for `op value`, or `None` when the operator cannot use
    /// an ordered index (`$ne` must consider missing fields too).
    pub(crate) fn candidates(&self, op: CmpOp, value: &Value) -> Option<Vec<DocumentId>> {
        use std::ops::Bound::*;
        let key = OrderedKey::from_value(value)?;
        let range: Box<dyn Iterator<Item = (&OrderedKey, &BTreeSet<DocumentId>)>> = match op {
            CmpOp::Eq => {
                return Some(
                    self.entries
                        .get(&key)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default(),
                )
            }
            CmpOp::Ne => return None,
            CmpOp::Gt => Box::new(self.entries.range((Excluded(key.clone()), Unbounded))),
            CmpOp::Gte => Box::new(self.entries.range((Included(key.clone()), Unbounded))),
            CmpOp::Lt => Box::new(self.entries.range((Unbounded, Excluded(key.clone())))),
            CmpOp::Lte => Box::new(self.entries.range((Unbounded, Included(key.clone())))),
        };
        // Range scans must not cross type boundaries: a `$gt 5` query only
        // compares against numbers (strings are incomparable with numbers
        // in the evaluator). Filter to same-variant keys.
        let same_type = |k: &OrderedKey| std::mem::discriminant(k) == std::mem::discriminant(&key);
        Some(
            range
                .filter(|(k, _)| same_type(k))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_runtime::json;

    fn id(n: u64) -> DocumentId {
        DocumentId(n)
    }

    #[test]
    fn eq_candidates() {
        let mut idx = FieldIndex::new();
        idx.insert(&json!("paris"), id(1));
        idx.insert(&json!("paris"), id(2));
        idx.insert(&json!("bordeaux"), id(3));
        assert_eq!(
            idx.candidates(CmpOp::Eq, &json!("paris")).unwrap(),
            vec![id(1), id(2)]
        );
        assert!(idx
            .candidates(CmpOp::Eq, &json!("lyon"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn range_candidates_respect_type_boundaries() {
        let mut idx = FieldIndex::new();
        idx.insert(&json!(1), id(1));
        idx.insert(&json!(5), id(5));
        idx.insert(&json!(9), id(9));
        idx.insert(&json!("zzz"), id(100)); // string sorts after numbers
        let got = idx.candidates(CmpOp::Gt, &json!(3)).unwrap();
        assert_eq!(
            got,
            vec![id(5), id(9)],
            "string key must not leak into numeric range"
        );
        let got = idx.candidates(CmpOp::Lte, &json!(5)).unwrap();
        assert_eq!(got, vec![id(1), id(5)]);
    }

    #[test]
    fn ne_declines_index() {
        let idx = FieldIndex::new();
        assert!(idx.candidates(CmpOp::Ne, &json!(1)).is_none());
    }

    #[test]
    fn remove_cleans_up() {
        let mut idx = FieldIndex::new();
        idx.insert(&json!(1), id(1));
        idx.remove(&json!(1), id(1));
        assert!(idx.candidates(CmpOp::Eq, &json!(1)).unwrap().is_empty());
    }

    #[test]
    fn arrays_are_not_indexed() {
        let mut idx = FieldIndex::new();
        idx.insert(&json!([1, 2]), id(1));
        assert!(idx.candidates(CmpOp::Eq, &json!(1)).unwrap().is_empty());
    }
}
