//! Geographic primitives.
//!
//! The paper's flagship scenario (Figure 2) is geo-social: "notify user A
//! when an OSN friend enters Paris". Geography therefore appears throughout
//! the system — in the ground-truth mobility models, the GPS sensor, the
//! location classifier (raw fix → city name), the server's geospatial
//! queries and the multicast-stream membership rules.

use std::fmt;

use sensocial_runtime::json_struct;

/// Mean Earth radius in metres, used by the haversine distance.
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A WGS-84 latitude/longitude pair, in degrees.
///
/// # Example
///
/// ```
/// use sensocial_types::GeoPoint;
///
/// let paris = GeoPoint::new(48.8566, 2.3522);
/// let bordeaux = GeoPoint::new(44.8378, -0.5792);
/// let km = paris.distance_m(bordeaux) / 1_000.0;
/// assert!((km - 499.0).abs() < 10.0, "Paris–Bordeaux is ~499 km, got {km}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

json_struct!(GeoPoint { lat, lon });

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinates are outside
    /// `[-90, 90] × [-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        debug_assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in metres (haversine formula).
    pub fn distance_m(self, other: GeoPoint) -> f64 {
        let phi1 = self.lat.to_radians();
        let phi2 = other.lat.to_radians();
        let dphi = (other.lat - self.lat).to_radians();
        let dlambda = (other.lon - self.lon).to_radians();
        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Returns the point reached by moving `distance_m` metres along the
    /// given `bearing_deg` (clockwise from north). Uses a local flat-earth
    /// approximation, adequate for the city-scale movements simulated here.
    pub fn offset(self, distance_m: f64, bearing_deg: f64) -> GeoPoint {
        let bearing = bearing_deg.to_radians();
        let dlat = distance_m * bearing.cos() / EARTH_RADIUS_M;
        let dlon =
            distance_m * bearing.sin() / (EARTH_RADIUS_M * self.lat.to_radians().cos().max(1e-9));
        GeoPoint {
            lat: (self.lat + dlat.to_degrees()).clamp(-90.0, 90.0),
            lon: wrap_lon(self.lon + dlon.to_degrees()),
        }
    }

    /// Linear interpolation between two points (`f` in `[0, 1]`), used by
    /// mobility models to move devices along a leg.
    pub fn lerp(self, other: GeoPoint, f: f64) -> GeoPoint {
        let f = f.clamp(0.0, 1.0);
        GeoPoint {
            lat: self.lat + (other.lat - self.lat) * f,
            lon: self.lon + (other.lon - self.lon) * f,
        }
    }
}

fn wrap_lon(lon: f64) -> f64 {
    let mut l = lon;
    while l > 180.0 {
        l -= 360.0;
    }
    while l < -180.0 {
        l += 360.0;
    }
    l
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// A circular geographic fence: a centre and a radius in metres.
///
/// Geo-fenced location streams (paper §3.2: "every time the person moves, a
/// new geo-fenced location stream is created") and multicast-stream
/// membership queries are expressed as fences.
///
/// # Example
///
/// ```
/// use sensocial_types::{GeoFence, GeoPoint};
///
/// let fence = GeoFence::new(GeoPoint::new(48.8566, 2.3522), 20_000.0);
/// assert!(fence.contains(GeoPoint::new(48.86, 2.34)));
/// assert!(!fence.contains(GeoPoint::new(44.84, -0.58)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoFence {
    /// Fence centre.
    pub center: GeoPoint,
    /// Fence radius in metres.
    pub radius_m: f64,
}

impl GeoFence {
    /// Creates a fence.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` is negative or non-finite.
    pub fn new(center: GeoPoint, radius_m: f64) -> Self {
        assert!(
            radius_m.is_finite() && radius_m >= 0.0,
            "fence radius must be a non-negative finite number"
        );
        GeoFence { center, radius_m }
    }

    /// Whether `point` lies inside (or on the boundary of) the fence.
    pub fn contains(&self, point: GeoPoint) -> bool {
        self.center.distance_m(point) <= self.radius_m
    }
}

impl fmt::Display for GeoFence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fence[{} r={:.0}m]", self.center, self.radius_m)
    }
}

/// A named place: the unit of the location classifier's output.
///
/// Raw GPS coordinates are "classified to a descriptive address, i.e. the
/// name of the city that the user is in" (paper §4). Scenarios register a
/// gazetteer of `Place`s; the classifier reverse-geocodes fixes against it.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Human-readable place name, e.g. `"Paris"`.
    pub name: String,
    /// The place's extent.
    pub fence: GeoFence,
}

impl Place {
    /// Creates a named place covering `fence`.
    pub fn new(name: impl Into<String>, fence: GeoFence) -> Self {
        Place {
            name: name.into(),
            fence,
        }
    }

    /// Whether the place contains `point`.
    pub fn contains(&self, point: GeoPoint) -> bool {
        self.fence.contains(point)
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.fence)
    }
}

/// Well-known city coordinates used across examples, tests and benches.
///
/// The paper's running example is set in Paris and Bordeaux (the Middleware
/// 2014 host city); we keep the same geography.
pub mod cities {
    use super::{GeoFence, GeoPoint, Place};

    /// Central Paris.
    pub fn paris() -> GeoPoint {
        GeoPoint::new(48.8566, 2.3522)
    }

    /// Central Bordeaux.
    pub fn bordeaux() -> GeoPoint {
        GeoPoint::new(44.8378, -0.5792)
    }

    /// Central Birmingham (the authors' institution).
    pub fn birmingham() -> GeoPoint {
        GeoPoint::new(52.4862, -1.8904)
    }

    /// Paris as a 15 km-radius place.
    pub fn paris_place() -> Place {
        Place::new("Paris", GeoFence::new(paris(), 15_000.0))
    }

    /// Bordeaux as a 15 km-radius place.
    pub fn bordeaux_place() -> Place {
        Place::new("Bordeaux", GeoFence::new(bordeaux(), 15_000.0))
    }

    /// Birmingham as a 15 km-radius place.
    pub fn birmingham_place() -> Place {
        Place::new("Birmingham", GeoFence::new(birmingham(), 15_000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = cities::paris();
        let b = cities::bordeaux();
        assert_eq!(a.distance_m(a), 0.0);
        assert!((a.distance_m(b) - b.distance_m(a)).abs() < 1e-6);
    }

    #[test]
    fn known_distance_paris_bordeaux() {
        let d = cities::paris().distance_m(cities::bordeaux());
        assert!((d - 499_000.0).abs() < 10_000.0, "got {d}");
    }

    #[test]
    fn offset_moves_roughly_the_requested_distance() {
        let start = cities::paris();
        for bearing in [0.0, 45.0, 90.0, 180.0, 270.0] {
            let end = start.offset(1_000.0, bearing);
            let d = start.distance_m(end);
            assert!((d - 1_000.0).abs() < 20.0, "bearing {bearing}: {d}");
        }
    }

    #[test]
    fn offset_wraps_longitude() {
        let p = GeoPoint::new(0.0, 179.999);
        let q = p.offset(1_000.0, 90.0);
        assert!(q.lon < -179.0, "crossed the antimeridian: {}", q.lon);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert_eq!(mid, GeoPoint::new(5.0, 10.0));
        // f is clamped.
        assert_eq!(a.lerp(b, 2.0), b);
    }

    #[test]
    fn fence_contains_boundary() {
        let fence = GeoFence::new(cities::paris(), 5_000.0);
        assert!(fence.contains(cities::paris()));
        let edge = cities::paris().offset(4_999.0, 10.0);
        assert!(fence.contains(edge));
        let outside = cities::paris().offset(5_200.0, 10.0);
        assert!(!fence.contains(outside));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_panics() {
        GeoFence::new(cities::paris(), -1.0);
    }

    #[test]
    fn places_classify_points() {
        let paris = cities::paris_place();
        assert!(paris.contains(cities::paris()));
        assert!(!paris.contains(cities::bordeaux()));
        assert_eq!(paris.name, "Paris");
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!cities::paris().to_string().is_empty());
        assert!(!cities::paris_place().to_string().is_empty());
    }
}
