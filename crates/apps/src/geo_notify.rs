//! Geo-aware social notifications — the paper's Figure 2 running example.
//!
//! "The application notifies a user when one of his/her OSN friends visit
//! his/her home town": the server tracks every friend's location through a
//! multicast stream over the user's OSN links, filtered to the home town;
//! when a friend's stream reports the home place, a notification is
//! delivered to the user's phone.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial::server::{MulticastId, MulticastSelector, ServerManager};
use sensocial::{
    Condition, ConditionLhs, Filter, Granularity, Modality, Operator, StreamSink, StreamSpec,
};
use sensocial_analysis::{analyze, AnalysisEnv, FilterPlan};
use sensocial_runtime::{Scheduler, SimDuration, Timestamp};
use sensocial_types::UserId;

/// One delivered notification.
#[derive(Debug, Clone, PartialEq)]
pub struct FriendArrival {
    /// The user being notified.
    pub notified: UserId,
    /// The friend who arrived.
    pub friend: UserId,
    /// The place they arrived at.
    pub place: String,
    /// When the arrival was sensed.
    pub at: Timestamp,
}

/// The geo-notification app, installed on the server for one user.
pub struct GeoNotifyApp {
    /// The user this instance notifies.
    pub user: UserId,
    /// Their home town.
    pub home: String,
    multicast: MulticastId,
    notifications: Rc<RefCell<Vec<FriendArrival>>>,
}

impl std::fmt::Debug for GeoNotifyApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeoNotifyApp")
            .field("user", &self.user)
            .field("home", &self.home)
            .field("notifications", &self.notifications.borrow().len())
            .finish_non_exhaustive()
    }
}

impl GeoNotifyApp {
    /// Installs the app: a multicast stream over `user`'s OSN friends,
    /// sampling classified location every `interval`, filtered (on the
    /// devices, by the distributed filter) to reports from `home`.
    ///
    /// # Errors
    ///
    /// Returns [`sensocial::Error::PlanRejected`] if the home-town filter
    /// plan fails static verification or the multicast would close a
    /// cross-user dependency cycle.
    pub fn install(
        sched: &mut Scheduler,
        server: &ServerManager,
        user: UserId,
        home: impl Into<String>,
        interval: SimDuration,
    ) -> sensocial::Result<Self> {
        let home = home.into();
        // Pre-flight the distributed plan through the static verifier: the
        // multicast template is exactly what every member device will run.
        let plan = FilterPlan::multicast(
            Modality::Location,
            Granularity::Classified,
            Filter::new(vec![Condition::new(
                ConditionLhs::Place,
                Operator::Equals,
                home.clone(),
            )]),
        );
        let filter = analyze(&plan, &AnalysisEnv::new())
            .map_err(sensocial::Error::from)?
            .filter;
        let template = StreamSpec::continuous(Modality::Location, Granularity::Classified)
            .with_interval(interval)
            .with_filter(filter)
            .with_sink(StreamSink::Server);
        let multicast =
            server.create_multicast(sched, MulticastSelector::FriendsOf(user.clone()), template)?;

        let notifications: Rc<RefCell<Vec<FriendArrival>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = notifications.clone();
        let notified = user.clone();
        let place = home.clone();
        let own = user.clone();
        // A visit is continuous while reports keep arriving within a few
        // sampling cycles of each other; a gap means the friend left and a
        // later report is a *new* arrival.
        let visit_gap = interval * 4;
        let last_seen: Rc<RefCell<std::collections::HashMap<UserId, Timestamp>>> =
            Rc::new(RefCell::new(std::collections::HashMap::new()));
        server.register_multicast_listener(multicast, move |_s, event| {
            // A friend's device reported the home place (device-side filter
            // already guaranteed the place matches).
            if event.user == own {
                return;
            }
            let arrived = {
                let mut seen = last_seen.borrow_mut();
                let arrived = seen
                    .get(&event.user)
                    .is_none_or(|t| event.at.saturating_since(*t) > visit_gap);
                seen.insert(event.user.clone(), event.at);
                arrived
            };
            if arrived {
                sink.borrow_mut().push(FriendArrival {
                    notified: notified.clone(),
                    friend: event.user.clone(),
                    place: place.clone(),
                    at: event.at,
                });
            }
        });

        Ok(GeoNotifyApp {
            user,
            home,
            multicast,
            notifications,
        })
    }

    /// Re-evaluates the friend set (call after OSN link changes).
    pub fn refresh(&self, sched: &mut Scheduler, server: &ServerManager) {
        server.refresh_multicast(sched, self.multicast);
    }

    /// Notifications delivered so far.
    pub fn notifications(&self) -> Vec<FriendArrival> {
        self.notifications.borrow().clone()
    }
}
