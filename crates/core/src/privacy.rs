//! Privacy policy management.
//!
//! "Whenever a stream is created or modified, or the privacy settings are
//! changed, Privacy Policy Manager is invoked to compare all the stream
//! configurations with the latest privacy policies … In case a stream does
//! not clear this privacy check, it is automatically paused … Such a
//! stream is moved back to the working state later when it clears the
//! privacy check according to the modified privacy policies" (paper §4).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_types::{Error, Granularity, Modality, Result};

use crate::config::StreamSpec;

/// One policy entry: whether data of a given modality and granularity may
/// be sampled and shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivacyPolicy {
    /// The governed modality.
    pub modality: Modality,
    /// The governed granularity.
    pub granularity: Granularity,
    /// Whether sampling at this modality × granularity is allowed.
    pub allow: bool,
}

/// The privacy descriptor: a decision per (modality, granularity), with a
/// configurable default for unlisted pairs.
///
/// Cloneable handle; the client manager, its streams and the application
/// share one. Policies "can be dynamically defined by the developer or
/// exposed as settings to the users".
///
/// # Example
///
/// ```
/// use sensocial::PrivacyPolicyManager;
/// use sensocial_types::{Granularity, Modality};
///
/// let privacy = PrivacyPolicyManager::allow_all();
/// privacy.deny(Modality::Location, Granularity::Raw);
/// assert!(!privacy.is_allowed(Modality::Location, Granularity::Raw));
/// assert!(privacy.is_allowed(Modality::Location, Granularity::Classified));
/// ```
#[derive(Clone)]
pub struct PrivacyPolicyManager {
    inner: Rc<RefCell<Inner>>,
}

struct Inner {
    policies: HashMap<(Modality, Granularity), bool>,
    default_allow: bool,
    revision: u64,
}

impl std::fmt::Debug for PrivacyPolicyManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("PrivacyPolicyManager")
            .field("policies", &inner.policies.len())
            .field("default_allow", &inner.default_allow)
            .field("revision", &inner.revision)
            .finish()
    }
}

impl PrivacyPolicyManager {
    /// A manager that allows everything not explicitly denied.
    #[must_use]
    pub fn allow_all() -> Self {
        PrivacyPolicyManager {
            inner: Rc::new(RefCell::new(Inner {
                policies: HashMap::new(),
                default_allow: true,
                revision: 0,
            })),
        }
    }

    /// A manager that denies everything not explicitly allowed.
    #[must_use]
    pub fn deny_all() -> Self {
        PrivacyPolicyManager {
            inner: Rc::new(RefCell::new(Inner {
                policies: HashMap::new(),
                default_allow: false,
                revision: 0,
            })),
        }
    }

    /// Sets one policy entry.
    pub fn set_policy(&self, policy: PrivacyPolicy) {
        let mut inner = self.inner.borrow_mut();
        inner
            .policies
            .insert((policy.modality, policy.granularity), policy.allow);
        inner.revision += 1;
    }

    /// Allows a (modality, granularity) pair.
    pub fn allow(&self, modality: Modality, granularity: Granularity) {
        self.set_policy(PrivacyPolicy {
            modality,
            granularity,
            allow: true,
        });
    }

    /// Denies a (modality, granularity) pair.
    pub fn deny(&self, modality: Modality, granularity: Granularity) {
        self.set_policy(PrivacyPolicy {
            modality,
            granularity,
            allow: false,
        });
    }

    /// Whether sampling `modality` at `granularity` is currently allowed.
    pub fn is_allowed(&self, modality: Modality, granularity: Granularity) -> bool {
        let inner = self.inner.borrow();
        inner
            .policies
            .get(&(modality, granularity))
            .copied()
            .unwrap_or(inner.default_allow)
    }

    /// Monotonic revision counter, bumped on every policy change; the
    /// client manager uses it to re-screen streams.
    pub fn revision(&self) -> u64 {
        self.inner.borrow().revision
    }

    /// Screens a stream specification: the stream's own modality ×
    /// granularity must be allowed, **and** every conditional modality its
    /// filter needs must be allowed at `Classified` granularity (the
    /// middleware classifies conditional streams on-device; raw conditional
    /// data never leaves the sensor manager).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PrivacyDenied`] naming the first denied pair.
    pub fn screen(&self, spec: &StreamSpec) -> Result<()> {
        if !self.is_allowed(spec.modality, spec.granularity) {
            return Err(Error::PrivacyDenied {
                modality: spec.modality.name().to_owned(),
                granularity: spec.granularity.name().to_owned(),
            });
        }
        for m in spec.filter.conditional_modalities(spec.modality) {
            if !self.is_allowed(m, Granularity::Classified) {
                return Err(Error::PrivacyDenied {
                    modality: m.name().to_owned(),
                    granularity: Granularity::Classified.name().to_owned(),
                });
            }
        }
        Ok(())
    }
}

impl Default for PrivacyPolicyManager {
    /// Equivalent to [`PrivacyPolicyManager::allow_all`].
    fn default() -> Self {
        PrivacyPolicyManager::allow_all()
    }
}

/// The static plan verifier screens conditional modalities through the
/// same policy table the runtime pause/resume machinery consults, so the
/// registration-time verdict and the stream-time behaviour cannot drift.
impl sensocial_analysis::PrivacyView for PrivacyPolicyManager {
    fn is_allowed(&self, modality: Modality, granularity: Granularity) -> bool {
        PrivacyPolicyManager::is_allowed(self, modality, granularity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::filter::{Condition, ConditionLhs, Filter, Operator};

    #[test]
    fn default_policies() {
        let allow = PrivacyPolicyManager::allow_all();
        assert!(allow.is_allowed(Modality::Microphone, Granularity::Raw));
        let deny = PrivacyPolicyManager::deny_all();
        assert!(!deny.is_allowed(Modality::Microphone, Granularity::Raw));
    }

    #[test]
    fn explicit_policies_override_default() {
        let p = PrivacyPolicyManager::deny_all();
        p.allow(Modality::Accelerometer, Granularity::Classified);
        assert!(p.is_allowed(Modality::Accelerometer, Granularity::Classified));
        assert!(!p.is_allowed(Modality::Accelerometer, Granularity::Raw));
        assert_eq!(p.revision(), 1);
    }

    #[test]
    fn screen_checks_stream_modality() {
        let p = PrivacyPolicyManager::allow_all();
        p.deny(Modality::Location, Granularity::Raw);
        let raw_gps = StreamSpec::continuous(Modality::Location, Granularity::Raw);
        let err = p.screen(&raw_gps).unwrap_err();
        assert_eq!(
            err,
            Error::PrivacyDenied {
                modality: "location".into(),
                granularity: "raw".into()
            }
        );
        let classified_gps = StreamSpec::continuous(Modality::Location, Granularity::Classified);
        assert!(p.screen(&classified_gps).is_ok());
    }

    #[test]
    fn screen_checks_conditional_modalities_too() {
        // The paper: "Privacy Policy Manager screens for both the modality
        // required by the stream and its filtering conditions."
        let p = PrivacyPolicyManager::allow_all();
        p.deny(Modality::Accelerometer, Granularity::Classified);
        let gps_when_walking = StreamSpec::continuous(Modality::Location, Granularity::Raw)
            .with_filter(Filter::new(vec![Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::Equals,
                "walking",
            )]));
        let err = p.screen(&gps_when_walking).unwrap_err();
        assert_eq!(
            err,
            Error::PrivacyDenied {
                modality: "accelerometer".into(),
                granularity: "classified".into()
            }
        );
    }

    #[test]
    fn policy_changes_bump_revision_and_flip_decisions() {
        let p = PrivacyPolicyManager::allow_all();
        let spec = StreamSpec::continuous(Modality::Microphone, Granularity::Raw);
        assert!(p.screen(&spec).is_ok());
        p.deny(Modality::Microphone, Granularity::Raw);
        assert!(p.screen(&spec).is_err());
        p.allow(Modality::Microphone, Granularity::Raw);
        assert!(p.screen(&spec).is_ok());
        assert_eq!(p.revision(), 2);
    }

    #[test]
    fn clones_share_policies() {
        let p = PrivacyPolicyManager::allow_all();
        p.clone().deny(Modality::Wifi, Granularity::Raw);
        assert!(!p.is_allowed(Modality::Wifi, Granularity::Raw));
    }
}
