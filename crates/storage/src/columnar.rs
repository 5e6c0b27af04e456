//! The columnar backend: append-only column chunks partitioned by
//! (user, virtual-time window).
//!
//! Each partition owns one [`ColumnChunk`]: parallel per-column vectors in
//! ingest order. Scans touch only the engine's candidate partitions
//! (partition pruning) and, within a chunk, test the cheap fixed-width
//! columns (timestamp, modality, granularity, stream, device) before ever
//! looking at the geo columns or materialising the string payload —
//! column-first predicate evaluation, the point of the layout. Device ids
//! are dictionary-encoded per backend, since a deployment has few devices
//! and many samples.

use std::cell::RefCell;
use std::collections::BTreeMap;

use sensocial_runtime::Timestamp;
use sensocial_types::{DeviceId, GeoPoint, Granularity, Modality, StreamId};

use crate::backend::{BackendKind, StorageBackend, StorageFootprint};
use crate::sample::{PartitionKey, SampleQuery, SampleRecord};

/// One partition's worth of samples, as parallel column vectors.
///
/// The partition key carries the user, so there is no user column. The
/// position column is split into `lat`/`lon`/`has_position` so the common
/// (positionless) case stays fixed-width.
#[derive(Debug, Default)]
struct ColumnChunk {
    seq: Vec<u64>,
    device: Vec<u32>,
    stream: Vec<u64>,
    modality: Vec<Modality>,
    granularity: Vec<Granularity>,
    at_ms: Vec<u64>,
    lat: Vec<f64>,
    lon: Vec<f64>,
    has_position: Vec<bool>,
    numeric: Vec<f64>,
    has_numeric: Vec<bool>,
    label: Vec<Option<String>>,
    payload: Vec<String>,
}

impl ColumnChunk {
    fn len(&self) -> usize {
        self.seq.len()
    }

    fn push(&mut self, device: u32, record: &SampleRecord) {
        self.seq.push(record.seq);
        self.device.push(device);
        self.stream.push(record.stream.value());
        self.modality.push(record.modality);
        self.granularity.push(record.granularity);
        self.at_ms.push(record.at.as_millis());
        match record.position {
            Some(p) => {
                self.lat.push(p.lat);
                self.lon.push(p.lon);
                self.has_position.push(true);
            }
            None => {
                self.lat.push(0.0);
                self.lon.push(0.0);
                self.has_position.push(false);
            }
        }
        match record.numeric {
            Some(n) => {
                self.numeric.push(n);
                self.has_numeric.push(true);
            }
            None => {
                self.numeric.push(0.0);
                self.has_numeric.push(false);
            }
        }
        self.label.push(record.label.clone());
        self.payload.push(record.payload.clone());
    }
}

/// The mutable column state behind one `RefCell`: the device dictionary plus
/// every partition chunk.
#[derive(Debug, Default)]
struct Columns {
    devices: Vec<DeviceId>,
    device_codes: BTreeMap<DeviceId, u32>,
    chunks: BTreeMap<PartitionKey, ColumnChunk>,
}

impl Columns {
    fn device_code(&mut self, device: &DeviceId) -> u32 {
        if let Some(code) = self.device_codes.get(device) {
            return *code;
        }
        let code = self.devices.len() as u32;
        self.devices.push(device.clone());
        self.device_codes.insert(device.clone(), code);
        code
    }
}

/// Samples in append-only column chunks, one per (user, time window).
#[derive(Debug, Default)]
pub struct ColumnarBackend {
    columns: RefCell<Columns>,
}

impl ColumnarBackend {
    /// Scans one chunk, appending matching rows to `out`. Cheap
    /// fixed-width columns are tested first; rows are materialised only
    /// after every columnar predicate passes.
    fn scan_chunk(
        query: &SampleQuery,
        key: &PartitionKey,
        chunk: &ColumnChunk,
        devices: &[DeviceId],
        device_filter: Option<u32>,
        out: &mut Vec<SampleRecord>,
    ) {
        let from_ms = query.from.map(|t| t.as_millis());
        let until_ms = query.until.map(|t| t.as_millis());
        for row in 0..chunk.len() {
            if let Some(from) = from_ms {
                if chunk.at_ms[row] < from {
                    continue;
                }
            }
            if let Some(until) = until_ms {
                if chunk.at_ms[row] > until {
                    continue;
                }
            }
            if let Some(modality) = query.modality {
                if chunk.modality[row] != modality {
                    continue;
                }
            }
            if let Some(granularity) = query.granularity {
                if chunk.granularity[row] != granularity {
                    continue;
                }
            }
            if let Some(stream) = query.stream {
                if chunk.stream[row] != stream.value() {
                    continue;
                }
            }
            if let Some(code) = device_filter {
                if chunk.device[row] != code {
                    continue;
                }
            }
            let position = if chunk.has_position[row] {
                Some(GeoPoint::new(chunk.lat[row], chunk.lon[row]))
            } else {
                None
            };
            if let Some(fence) = &query.fence {
                match position {
                    Some(p) => {
                        if !fence.contains(p) {
                            continue;
                        }
                    }
                    None => continue,
                }
            }
            let device = match devices.get(chunk.device[row] as usize) {
                Some(d) => d.clone(),
                None => continue,
            };
            let record = SampleRecord {
                seq: chunk.seq[row],
                user: key.user.clone(),
                device,
                stream: StreamId::new(chunk.stream[row]),
                modality: chunk.modality[row],
                granularity: chunk.granularity[row],
                at: Timestamp::from_millis(chunk.at_ms[row]),
                position,
                numeric: chunk.has_numeric[row].then_some(chunk.numeric[row]),
                label: chunk.label[row].clone(),
                payload: chunk.payload[row].clone(),
            };
            debug_assert!(query.matches(&record), "columnar pushdown disagrees");
            out.push(record);
        }
    }
}

impl StorageBackend for ColumnarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Columnar
    }

    fn ingest(&self, partition: &PartitionKey, records: &[SampleRecord]) {
        let mut columns = self.columns.borrow_mut();
        for record in records {
            let code = columns.device_code(&record.device);
            columns
                .chunks
                .entry(partition.clone())
                .or_default()
                .push(code, record);
        }
    }

    fn scan(&self, query: &SampleQuery, candidates: &[PartitionKey]) -> Vec<SampleRecord> {
        let columns = self.columns.borrow();
        // A query for an unknown device matches nothing; resolving the
        // device to its dictionary code up front keeps the row loop on
        // integer comparisons.
        let device_filter = match &query.device {
            Some(device) => match columns.device_codes.get(device) {
                Some(code) => Some(*code),
                None => return Vec::new(),
            },
            None => None,
        };
        let mut rows = Vec::new();
        for key in candidates {
            if let Some(chunk) = columns.chunks.get(key) {
                ColumnarBackend::scan_chunk(
                    query,
                    key,
                    chunk,
                    &columns.devices,
                    device_filter,
                    &mut rows,
                );
            }
        }
        // Candidates come in key order (user-major); the canonical result
        // order is global ingest order.
        rows.sort_by_key(|r| r.seq);
        rows
    }

    fn footprint(&self) -> StorageFootprint {
        let columns = self.columns.borrow();
        let mut rows = 0u64;
        let mut payload_bytes = 0u64;
        for chunk in columns.chunks.values() {
            rows += chunk.len() as u64;
            payload_bytes += chunk.payload.iter().map(|p| p.len() as u64).sum::<u64>();
        }
        StorageFootprint {
            rows,
            chunks: columns.chunks.len() as u64,
            payload_bytes,
        }
    }
}
