//! The storage factory: configuration in, engine out.
//!
//! All storage construction funnels through [`StorageConfig::open`]: the
//! document database's constructor is private to this crate, so no caller
//! can wire up storage behind the trait's back. The backend can be
//! selected per-process with the `SENSOCIAL_STORAGE_BACKEND` environment
//! variable (CI runs the tier-1 suite once per backend through it); a
//! value that names no backend stops the process instead of falling back.

use std::str::FromStr;

use sensocial_runtime::SimDuration;

use crate::backend::{BackendKind, StorageBackend};
use crate::columnar::ColumnarBackend;
use crate::document::DocumentBackend;
use crate::engine::StorageEngine;

/// Environment variable selecting the backend (`document` or `columnar`).
pub const BACKEND_ENV: &str = "SENSOCIAL_STORAGE_BACKEND";

/// Storage engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Which backend to open.
    pub backend: BackendKind,
    /// How long uplinked samples may buffer before a flush (virtual
    /// time). Default: ten seconds — one batch per flush interval instead
    /// of one insert per sample.
    pub flush_interval: SimDuration,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendKind::default(),
            flush_interval: SimDuration::from_secs(10),
        }
    }
}

impl StorageConfig {
    /// The default configuration over the given backend.
    pub fn new(backend: BackendKind) -> StorageConfig {
        StorageConfig {
            backend,
            ..StorageConfig::default()
        }
    }

    /// Document-backend configuration.
    pub fn document() -> StorageConfig {
        StorageConfig::new(BackendKind::Document)
    }

    /// Columnar-backend configuration.
    pub fn columnar() -> StorageConfig {
        StorageConfig::new(BackendKind::Columnar)
    }

    /// Reads the backend from [`BACKEND_ENV`], defaulting to the columnar
    /// backend when the variable is unset or empty.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable, when it is set to anything that does
    /// not name a backend: a misspelt value must not run the default
    /// backend under another backend's label.
    pub fn from_env() -> StorageConfig {
        let value = std::env::var_os(BACKEND_ENV).map(|v| v.to_string_lossy().into_owned());
        StorageConfig::new(backend_for(value.as_deref()))
    }

    /// Opens a fresh storage engine over the configured backend: the one
    /// sanctioned construction path for storage.
    pub fn open(&self) -> StorageEngine {
        let backend: Box<dyn StorageBackend> = match self.backend {
            BackendKind::Document => Box::new(DocumentBackend::create()),
            BackendKind::Columnar => Box::new(ColumnarBackend::default()),
        };
        StorageEngine::assemble(backend, self.flush_interval)
    }
}

/// The backend a [`BACKEND_ENV`] value selects: unset or blank means the
/// default (columnar); anything else, trimmed, must name a backend.
///
/// # Panics
///
/// Panics, naming the variable and quoting the parse error, on a value
/// that names no backend.
fn backend_for(value: Option<&str>) -> BackendKind {
    match value.map(str::trim) {
        None | Some("") => BackendKind::default(),
        Some(name) => BackendKind::from_str(name).unwrap_or_else(|e| panic!("{BACKEND_ENV}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_opens_both_backends() {
        assert_eq!(
            StorageConfig::document().open().kind(),
            BackendKind::Document
        );
        assert_eq!(
            StorageConfig::columnar().open().kind(),
            BackendKind::Columnar
        );
    }

    #[test]
    fn backend_variable_selects_a_backend() {
        assert_eq!(backend_for(None), BackendKind::Columnar);
        assert_eq!(backend_for(Some("")), BackendKind::Columnar);
        assert_eq!(backend_for(Some("document")), BackendKind::Document);
        assert_eq!(backend_for(Some("columnar")), BackendKind::Columnar);
        assert_eq!(backend_for(Some(" columnar ")), BackendKind::Columnar);
    }

    #[test]
    #[should_panic(expected = "SENSOCIAL_STORAGE_BACKEND: invalid stream configuration: \
                               unknown storage backend \"columar\"")]
    fn misspelt_backend_variable_panics() {
        backend_for(Some("columar"));
    }

    #[test]
    fn defaults_batch_rather_than_stream() {
        let config = StorageConfig::default();
        assert_eq!(config.backend, BackendKind::Columnar);
        assert!(!config.flush_interval.is_zero());
        assert!(crate::sample::WINDOW_MS >= config.flush_interval.as_millis());
    }
}
