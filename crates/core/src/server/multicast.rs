//! Multicast streams.
//!
//! "The multicast stream abstracts related streams of multiple clients
//! into a single entity … the multicast stream can tap into the
//! information about the geographic location of the users, or their OSN
//! interconnectivity, and through a query that takes geo or OSN attributes
//! into account, select a subgroup of users whose data will be collected.
//! Furthermore, filters set upon a multicast stream are transparently
//! distributed to all the users encompassed by the multicast stream"
//! (paper §3.1).

use std::collections::BTreeMap;

use sensocial_analysis::{compile, PredicateProgram};
use sensocial_types::filter::Filter;
use sensocial_types::{GeoFence, StreamId, UserId};

use crate::config::StreamSpec;

/// Identifies a multicast stream created with
/// [`ServerManager::create_multicast`](super::ServerManager::create_multicast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MulticastId(pub(crate) u64);

impl std::fmt::Display for MulticastId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "multicast#{}", self.0)
    }
}

/// How a multicast stream selects its member users.
#[derive(Debug, Clone, PartialEq)]
pub enum MulticastSelector {
    /// OSN friends of a user (the Figure 2 scenario selects A's friends).
    FriendsOf(UserId),
    /// Users whose last known position lies within a fence.
    WithinFence(GeoFence),
    /// Users currently collocated with a specific person — §3.2: "every
    /// time the person moves, a new geo-fenced location stream is created
    /// on the mobile devices of all the users who are currently nearby,
    /// and the previously created streams are removed." Pair with
    /// [`ServerManager::auto_refresh_multicast`](super::ServerManager::auto_refresh_multicast)
    /// to follow the person.
    NearUser {
        /// The person being followed.
        user: UserId,
        /// Collocation radius in metres.
        radius_m: f64,
    },
    /// Users in *both* sub-selections (e.g. friends of A currently near
    /// Paris).
    Intersection(Box<MulticastSelector>, Box<MulticastSelector>),
    /// An explicit user set (escape hatch for applications with their own
    /// selection logic).
    Explicit(Vec<UserId>),
}

/// A live multicast stream: the selector, the per-member remote streams it
/// owns, and the template they were created from.
#[derive(Debug)]
pub struct MulticastStream {
    pub(crate) selector: MulticastSelector,
    pub(crate) template: StreamSpec,
    /// member user → the remote stream created on their device.
    pub(crate) members: BTreeMap<UserId, StreamId>,
    /// The locally-evaluable part of the template filter — what gets
    /// pushed to member devices. Cached at filter-install time so
    /// membership refreshes don't re-partition.
    pub(crate) local_filter: Filter,
    /// The cross-user part of the template filter, lowered to predicate
    /// bytecode once at install time; the server's filter manager runs it
    /// on every member uplink event instead of re-partitioning and
    /// tree-walking per event.
    pub(crate) cross_program: PredicateProgram,
}

impl MulticastStream {
    pub(crate) fn new(selector: MulticastSelector, template: StreamSpec) -> Self {
        let (local_filter, cross) = template.filter.partition_cross_user();
        MulticastStream {
            selector,
            template,
            members: BTreeMap::new(),
            local_filter,
            cross_program: compile(&cross),
        }
    }

    /// Installs a new template filter, re-deriving the cached device-local
    /// part and the compiled cross-user program. The single sanctioned way
    /// to change the filter after construction — assigning
    /// `template.filter` directly would leave the caches stale.
    pub(crate) fn set_template_filter(&mut self, filter: Filter) {
        self.template.filter = filter;
        let (local, cross) = self.template.filter.partition_cross_user();
        self.local_filter = local;
        self.cross_program = compile(&cross);
    }

    /// Current member users, sorted.
    pub fn member_users(&self) -> Vec<UserId> {
        self.members.keys().cloned().collect()
    }

    /// The remote stream ids this multicast owns.
    pub fn member_streams(&self) -> Vec<StreamId> {
        self.members.values().copied().collect()
    }

    /// Whether `stream` belongs to this multicast.
    pub fn owns_stream(&self, stream: StreamId) -> bool {
        self.members.values().any(|s| *s == stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::{geo::cities, Granularity, Modality};

    #[test]
    fn membership_accessors() {
        let mut m = MulticastStream::new(
            MulticastSelector::WithinFence(GeoFence::new(cities::paris(), 10_000.0)),
            StreamSpec::continuous(Modality::Location, Granularity::Classified),
        );
        m.members.insert(UserId::new("c"), StreamId::new(5));
        m.members.insert(UserId::new("d"), StreamId::new(6));
        assert_eq!(m.member_users(), vec![UserId::new("c"), UserId::new("d")]);
        assert!(m.owns_stream(StreamId::new(5)));
        assert!(!m.owns_stream(StreamId::new(7)));
    }

    #[test]
    fn display() {
        assert_eq!(MulticastId(1).to_string(), "multicast#1");
    }
}
