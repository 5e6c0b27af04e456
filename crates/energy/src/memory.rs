//! Live-object memory accounting (Android DDMS substitute).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A point-in-time view of tracked allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemorySnapshot {
    /// Live object count per tag.
    pub objects_by_tag: BTreeMap<String, u64>,
    /// Live bytes per tag.
    pub bytes_by_tag: BTreeMap<String, u64>,
}

impl MemorySnapshot {
    /// Total live objects.
    pub fn total_objects(&self) -> u64 {
        self.objects_by_tag.values().sum()
    }

    /// Total live bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_tag.values().sum()
    }
}

#[derive(Debug, Default)]
struct Inner {
    objects: BTreeMap<String, u64>,
    bytes: BTreeMap<String, u64>,
}

/// Tracks live objects and bytes per component tag.
///
/// Middleware components register their allocations (streams, filters,
/// buffers, listener registrations) so the Table 2 harness can report the
/// heap footprint the way DDMS does: total allocated bytes and live object
/// count.
///
/// # Example
///
/// ```
/// use sensocial_energy::MemoryProfiler;
///
/// let mem = MemoryProfiler::new();
/// mem.alloc("stream", 1, 480);
/// mem.alloc("filter", 2, 160);
/// assert_eq!(mem.snapshot().total_objects(), 3);
/// mem.free("filter", 1, 80);
/// assert_eq!(mem.snapshot().total_objects(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryProfiler {
    inner: Rc<RefCell<Inner>>,
}

impl MemoryProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        MemoryProfiler::default()
    }

    /// Records the allocation of `count` objects totalling `bytes` under
    /// `tag`.
    pub fn alloc(&self, tag: &str, count: u64, bytes: u64) {
        let mut inner = self.inner.borrow_mut();
        *inner.objects.entry(tag.to_owned()).or_insert(0) += count;
        *inner.bytes.entry(tag.to_owned()).or_insert(0) += bytes;
    }

    /// Records the release of `count` objects totalling `bytes` under
    /// `tag`, saturating at zero (freeing more than was allocated is a
    /// modelling bug, caught by a debug assertion).
    pub fn free(&self, tag: &str, count: u64, bytes: u64) {
        let mut inner = self.inner.borrow_mut();
        let objs = inner.objects.entry(tag.to_owned()).or_insert(0);
        debug_assert!(
            *objs >= count,
            "freeing more `{tag}` objects than allocated"
        );
        *objs = objs.saturating_sub(count);
        let b = inner.bytes.entry(tag.to_owned()).or_insert(0);
        debug_assert!(*b >= bytes, "freeing more `{tag}` bytes than allocated");
        *b = b.saturating_sub(bytes);
    }

    /// A snapshot of the current live set.
    pub fn snapshot(&self) -> MemorySnapshot {
        let inner = self.inner.borrow();
        MemorySnapshot {
            objects_by_tag: inner.objects.clone(),
            bytes_by_tag: inner.bytes.clone(),
        }
    }

    /// Live objects under `tag`.
    pub fn objects(&self, tag: &str) -> u64 {
        self.inner.borrow().objects.get(tag).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip() {
        let mem = MemoryProfiler::new();
        mem.alloc("buf", 4, 1024);
        assert_eq!(mem.objects("buf"), 4);
        mem.free("buf", 4, 1024);
        let snap = mem.snapshot();
        assert_eq!(snap.total_objects(), 0);
        assert_eq!(snap.total_bytes(), 0);
    }

    #[test]
    fn snapshot_totals_span_tags() {
        let mem = MemoryProfiler::new();
        mem.alloc("a", 1, 10);
        mem.alloc("b", 2, 20);
        let snap = mem.snapshot();
        assert_eq!(snap.total_objects(), 3);
        assert_eq!(snap.total_bytes(), 30);
        assert_eq!(snap.objects_by_tag["b"], 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "freeing more"))]
    fn over_free_is_caught() {
        let mem = MemoryProfiler::new();
        mem.alloc("x", 1, 8);
        mem.free("x", 2, 8);
        // In release builds the free saturates at zero.
        assert_eq!(mem.objects("x"), 0);
    }

    #[test]
    fn unknown_tag_reads_zero() {
        assert_eq!(MemoryProfiler::new().objects("nothing"), 0);
    }
}
