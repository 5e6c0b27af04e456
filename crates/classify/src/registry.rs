//! The classifier trait and per-modality registry.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_types::{ClassifiedContext, Modality, Place, RawSample};

use crate::activity::ActivityClassifier;
use crate::audio::AudioClassifier;
use crate::density::{BluetoothDensityClassifier, WifiDensityClassifier};
use crate::place::PlaceClassifier;

/// A raw-sample → classified-context classifier for one modality.
///
/// External classifiers implement this trait and are installed with
/// [`ClassifierRegistry::register`], reproducing the paper's "integration
/// of external classifiers is possible by registering listeners".
pub trait Classifier {
    /// The modality this classifier consumes.
    fn modality(&self) -> Modality;

    /// Classifies a raw sample, or `None` when the sample is from another
    /// modality.
    fn classify(&self, sample: &RawSample) -> Option<ClassifiedContext>;
}

/// Dispatches raw samples to the registered classifier for their modality.
///
/// Cloneable handle. See the [crate-level example](crate).
#[derive(Clone)]
pub struct ClassifierRegistry {
    classifiers: Rc<RefCell<HashMap<Modality, Rc<dyn Classifier>>>>,
}

impl std::fmt::Debug for ClassifierRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassifierRegistry")
            .field("modalities", &self.classifiers.borrow().len())
            .finish()
    }
}

impl ClassifierRegistry {
    /// Creates an empty registry (no modality classifiable).
    pub fn new() -> Self {
        ClassifierRegistry {
            classifiers: Rc::new(RefCell::new(HashMap::new())),
        }
    }

    /// Creates a registry with the stock classifiers installed: activity,
    /// audio, place (over the given gazetteer) and the two densities.
    pub fn with_defaults(places: Vec<Place>) -> Self {
        let registry = ClassifierRegistry::new();
        registry.register(Rc::new(ActivityClassifier::default()));
        registry.register(Rc::new(AudioClassifier::default()));
        registry.register(Rc::new(PlaceClassifier::new(places)));
        registry.register(Rc::new(WifiDensityClassifier));
        registry.register(Rc::new(BluetoothDensityClassifier));
        registry
    }

    /// Installs (or replaces) the classifier for its modality.
    pub fn register(&self, classifier: Rc<dyn Classifier>) {
        self.classifiers
            .borrow_mut()
            .insert(classifier.modality(), classifier);
    }

    /// Removes the classifier for `modality`, returning whether one was
    /// installed.
    pub fn unregister(&self, modality: Modality) -> bool {
        self.classifiers.borrow_mut().remove(&modality).is_some()
    }

    /// Whether `modality` can be classified.
    pub fn supports(&self, modality: Modality) -> bool {
        self.classifiers.borrow().contains_key(&modality)
    }

    /// Classifies a raw sample with the classifier registered for its
    /// modality, or `None` when none is installed.
    pub fn classify(&self, sample: &RawSample) -> Option<ClassifiedContext> {
        let classifier = self.classifiers.borrow().get(&sample.modality()).cloned()?;
        classifier.classify(sample)
    }
}

impl Default for ClassifierRegistry {
    fn default() -> Self {
        ClassifierRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::geo::cities;
    use sensocial_types::{AudioFrame, PhysicalActivity};

    #[test]
    fn defaults_cover_all_modalities() {
        let r = ClassifierRegistry::with_defaults(vec![cities::paris_place()]);
        for m in Modality::ALL {
            assert!(r.supports(m), "{m} unsupported");
        }
    }

    #[test]
    fn empty_registry_classifies_nothing() {
        let r = ClassifierRegistry::new();
        let frame = RawSample::Microphone(AudioFrame {
            rms: 0.5,
            peak: 0.8,
            duration_ms: 1000,
        });
        assert_eq!(r.classify(&frame), None);
        assert!(!r.supports(Modality::Microphone));
    }

    #[test]
    fn register_replaces_and_unregister_removes() {
        /// An "external classifier" that calls everything running.
        struct AlwaysRunning;
        impl Classifier for AlwaysRunning {
            fn modality(&self) -> Modality {
                Modality::Accelerometer
            }
            fn classify(&self, _: &RawSample) -> Option<ClassifiedContext> {
                Some(ClassifiedContext::Activity(PhysicalActivity::Running))
            }
        }

        let r = ClassifierRegistry::with_defaults(vec![]);
        r.register(Rc::new(AlwaysRunning));
        let still_burst =
            RawSample::Accelerometer(vec![sensocial_types::AccelSample::new(0.0, 0.0, 9.81); 400]);
        assert_eq!(
            r.classify(&still_burst),
            Some(ClassifiedContext::Activity(PhysicalActivity::Running)),
            "external classifier replaced the stock one"
        );
        assert!(r.unregister(Modality::Accelerometer));
        assert_eq!(r.classify(&still_burst), None);
    }

    #[test]
    fn dispatch_picks_by_modality() {
        let r = ClassifierRegistry::with_defaults(vec![cities::paris_place()]);
        let frame = RawSample::Microphone(AudioFrame {
            rms: 0.01,
            peak: 0.02,
            duration_ms: 1000,
        });
        assert_eq!(
            r.classify(&frame),
            Some(ClassifiedContext::Audio(
                sensocial_types::AudioEnvironment::Silent
            ))
        );
    }
}
