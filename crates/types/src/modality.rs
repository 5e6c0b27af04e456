//! Sensing modalities and data granularity.

use std::fmt;
use std::str::FromStr;

use sensocial_runtime::json_enum;

use crate::error::Error;

/// The five sensor modalities SenSocial supports, matching the set pulled
/// from the ESSensorManager library (paper §4: GPS, accelerometer,
/// microphone, WiFi, Bluetooth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Modality {
    /// GPS location fixes.
    Location,
    /// Tri-axial accelerometer bursts.
    Accelerometer,
    /// Microphone audio frames.
    Microphone,
    /// WiFi access-point scans.
    Wifi,
    /// Bluetooth device-proximity scans.
    Bluetooth,
}

json_enum!(Modality {
    Location = "location",
    Accelerometer = "accelerometer",
    Microphone = "microphone",
    Wifi = "wifi",
    Bluetooth = "bluetooth",
});

impl Modality {
    /// All supported modalities, in a stable order.
    pub const ALL: [Modality; 5] = [
        Modality::Location,
        Modality::Accelerometer,
        Modality::Microphone,
        Modality::Wifi,
        Modality::Bluetooth,
    ];

    /// Short lowercase name, stable across serialization.
    pub fn name(self) -> &'static str {
        match self {
            Modality::Location => "location",
            Modality::Accelerometer => "accelerometer",
            Modality::Microphone => "microphone",
            Modality::Wifi => "wifi",
            Modality::Bluetooth => "bluetooth",
        }
    }

    /// Whether this modality has a high-level classifier in the stock
    /// middleware (paper §4 ships activity and audio classifiers; location
    /// is classified to a place name by the server-side geocoder).
    pub fn has_stock_classifier(self) -> bool {
        matches!(
            self,
            Modality::Accelerometer | Modality::Microphone | Modality::Location
        )
    }

    /// Whether raw samples of this modality are privacy-sensitive enough
    /// that the information-flow verifier refuses to let them reach an
    /// external sink through an OSN-coupled plan without an authorized
    /// pass through the privacy stage (paper §3.3 singles out location
    /// traces and audio as the data users most want screened).
    pub fn is_sensitive(self) -> bool {
        matches!(self, Modality::Location | Modality::Microphone)
    }
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Modality {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "location" | "gps" => Ok(Modality::Location),
            "accelerometer" | "accel" => Ok(Modality::Accelerometer),
            "microphone" | "mic" => Ok(Modality::Microphone),
            "wifi" => Ok(Modality::Wifi),
            "bluetooth" | "bt" => Ok(Modality::Bluetooth),
            other => Err(Error::UnknownModality(other.to_owned())),
        }
    }
}

/// The granularity at which a stream delivers data: raw samples or
/// high-level classified descriptions.
///
/// Granularity is both an application choice (streams are created with a
/// requested granularity) and a privacy lever (policies admit or deny
/// specific modality × granularity pairs), mirroring the paper's privacy
/// descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// Raw sensor samples (e.g. accelerometer x/y/z vectors).
    Raw,
    /// High-level classified context (e.g. activity = "walking").
    Classified,
}

json_enum!(Granularity {
    Raw = "raw",
    Classified = "classified",
});

impl Granularity {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Raw => "raw",
            Granularity::Classified => "classified",
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Granularity {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "raw" => Ok(Granularity::Raw),
            "classified" => Ok(Granularity::Classified),
            other => Err(Error::InvalidConfig(format!(
                "unknown granularity `{other}` (expected `raw` or `classified`)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_runtime::json;

    #[test]
    fn all_lists_every_variant_once() {
        assert_eq!(Modality::ALL.len(), 5);
        let mut names: Vec<_> = Modality::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!("gps".parse::<Modality>().unwrap(), Modality::Location);
        assert_eq!(
            "accel".parse::<Modality>().unwrap(),
            Modality::Accelerometer
        );
        assert_eq!("bt".parse::<Modality>().unwrap(), Modality::Bluetooth);
        assert!("thermometer".parse::<Modality>().is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for m in Modality::ALL {
            assert_eq!(m.to_string().parse::<Modality>().unwrap(), m);
        }
        for g in [Granularity::Raw, Granularity::Classified] {
            assert_eq!(g.to_string().parse::<Granularity>().unwrap(), g);
        }
    }

    #[test]
    fn wire_names_are_snake_case() {
        assert_eq!(json::to_string(&Modality::Wifi), "\"wifi\"");
        assert_eq!(json::to_string(&Granularity::Classified), "\"classified\"");
        for m in Modality::ALL {
            assert_eq!(json::from_str::<Modality>(&json::to_string(&m)).unwrap(), m);
        }
    }

    #[test]
    fn stock_classifiers_cover_paper_set() {
        assert!(Modality::Accelerometer.has_stock_classifier());
        assert!(Modality::Microphone.has_stock_classifier());
        assert!(Modality::Location.has_stock_classifier());
        assert!(!Modality::Wifi.has_stock_classifier());
        assert!(!Modality::Bluetooth.has_stock_classifier());
    }

    #[test]
    fn sensitive_modalities_are_location_and_microphone() {
        assert!(Modality::Location.is_sensitive());
        assert!(Modality::Microphone.is_sensitive());
        assert!(!Modality::Accelerometer.is_sensitive());
        assert!(!Modality::Wifi.is_sensitive());
        assert!(!Modality::Bluetooth.is_sensitive());
    }
}
