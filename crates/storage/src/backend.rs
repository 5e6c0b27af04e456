//! The `Storage` backend contract.
//!
//! A backend owns the append-only sensor-sample log: it ingests records in
//! per-partition batches and scans them with pushed-down predicates. The
//! document plane (the server's OSN actions and application collections)
//! is not a backend's concern; the engine owns the one [`Database`].
//!
//! Backends differ only in how the sample log is laid out. The engine
//! (not the backend) assigns sequence numbers, plans partitions, prunes
//! candidates and records telemetry, which is what makes same-seed runs
//! produce byte-identical snapshots regardless of the backend in use.
//!
//! [`Database`]: crate::Database

use std::fmt;
use std::str::FromStr;

use sensocial_types::Error;

use crate::sample::{PartitionKey, SampleQuery, SampleRecord};

/// The storage backends shipped with the middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Samples live as documents in a `samples` collection, each scan
    /// one walk over them in insert order.
    Document,
    /// Samples live in append-only column chunks partitioned by
    /// (user, virtual-time window). The default.
    #[default]
    Columnar,
}

impl BackendKind {
    /// Short lowercase name, as accepted by [`BackendKind::from_str`] and
    /// the `SENSOCIAL_STORAGE_BACKEND` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Document => "document",
            BackendKind::Columnar => "columnar",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "document" => Ok(BackendKind::Document),
            "columnar" => Ok(BackendKind::Columnar),
            other => Err(Error::InvalidConfig(format!(
                "unknown storage backend {other:?}; expected \"document\" or \"columnar\""
            ))),
        }
    }
}

/// Physical layout statistics, for bench reports and debugging.
///
/// Figures are backend-specific by design (a document backend has one
/// "chunk" per collection, a columnar backend one per partition) and are
/// deliberately **not** part of the telemetry snapshot, which must stay
/// identical across backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Total sample rows persisted.
    pub rows: u64,
    /// Physical chunks holding those rows.
    pub chunks: u64,
    /// Approximate resident payload size in bytes.
    pub payload_bytes: u64,
}

/// The engine's internal seam to a sample-log layout. It is
/// crate-private: [`StorageConfig::open`] builds the two backends that
/// ship, and no other crate can plug one in.
///
/// [`StorageConfig::open`]: crate::StorageConfig::open
pub(crate) trait StorageBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Appends one batch of records belonging to a single partition.
    ///
    /// Records arrive in ingest (sequence) order; partitions within one
    /// flush arrive in key order. Backends append blindly — deduplication
    /// is not part of the contract, the engine never re-ingests.
    fn ingest(&self, partition: &PartitionKey, records: &[SampleRecord]);

    /// Scans the sample log for rows matching `query`.
    ///
    /// `candidates` is the engine's pruned partition list, in key order:
    /// every partition that *may* hold a match. A backend may narrow
    /// further (column or document pushdown) but must apply
    /// [`SampleQuery::matches`] as the final membership test and must
    /// return rows in ingest (`seq`) order.
    fn scan(&self, query: &SampleQuery, candidates: &[PartitionKey]) -> Vec<SampleRecord>;

    /// Physical layout statistics.
    fn footprint(&self) -> StorageFootprint;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in [BackendKind::Document, BackendKind::Columnar] {
            assert_eq!(kind.name().parse::<BackendKind>().ok(), Some(kind));
        }
        assert!("mongo".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Columnar);
        assert_eq!(BackendKind::Columnar.to_string(), "columnar");
    }
}
