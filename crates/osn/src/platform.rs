//! The simulated OSN platform.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial_runtime::{Scheduler, SimRng, Timestamp};
use sensocial_types::{OsnAction, OsnActionKind, OsnPlatformKind, UserId};

use crate::graph::SocialGraph;

/// Listener invoked synchronously on every action (plug-ins wrap this with
/// their own delivery semantics).
type ActionListener = Rc<dyn Fn(&mut Scheduler, OsnAction)>;

struct Inner {
    graph: SocialGraph,
    feed: Vec<OsnAction>,
    listeners: Vec<ActionListener>,
    rng: SimRng,
}

/// A simulated online social network: users, a social graph, a global
/// action feed and plug-in notification.
///
/// Cloneable handle. See the [crate-level example](crate).
#[derive(Clone)]
pub struct OsnPlatform {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for OsnPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("OsnPlatform")
            .field("users", &inner.graph.len())
            .field("feed_len", &inner.feed.len())
            .field("listeners", &inner.listeners.len())
            .finish()
    }
}

impl OsnPlatform {
    /// Creates an empty platform.
    pub fn new(rng: SimRng) -> Self {
        OsnPlatform {
            inner: Rc::new(RefCell::new(Inner {
                graph: SocialGraph::new(),
                feed: Vec::new(),
                listeners: Vec::new(),
                rng,
            })),
        }
    }

    /// Registers a user account. Idempotent.
    pub fn register_user(&self, user: UserId) {
        self.inner.borrow_mut().graph.add_user(user);
    }

    /// A snapshot of the social graph.
    pub fn graph(&self) -> SocialGraph {
        self.inner.borrow().graph.clone()
    }

    /// Registers a raw action listener (used by plug-ins). Listeners are
    /// invoked synchronously when an action is performed; delivery delays
    /// are the plug-in's concern.
    pub(crate) fn add_listener(&self, listener: ActionListener) {
        self.inner.borrow_mut().listeners.push(listener);
    }

    /// Splits an RNG stream off the platform's seed (used by plug-ins and
    /// activity models so all OSN randomness derives from one seed).
    pub fn split_rng(&self, tag: &str) -> SimRng {
        self.inner.borrow_mut().rng.split(tag)
    }

    /// The global feed (all actions, oldest first).
    pub fn feed(&self) -> Vec<OsnAction> {
        self.inner.borrow().feed.clone()
    }

    /// Actions strictly after `since` (for poll-style plug-ins).
    pub fn feed_since(&self, since: Timestamp) -> Vec<OsnAction> {
        self.inner
            .borrow_mut()
            .feed
            .iter()
            .filter(|a| a.at > since)
            .cloned()
            .collect()
    }

    /// Performs an arbitrary action on behalf of `action.user`.
    ///
    /// Unknown users' actions are silently dropped (the platform rejects
    /// them), mirroring an unauthenticated API call.
    pub fn perform(&self, sched: &mut Scheduler, action: OsnAction) {
        let listeners: Vec<ActionListener> = {
            let mut inner = self.inner.borrow_mut();
            if !inner.graph.contains(&action.user) {
                return;
            }
            // Friendship changes mutate the graph as a side effect, the way
            // the server later re-derives them from the action stream.
            if action.kind == OsnActionKind::FriendshipChange {
                let other = UserId::new(action.content.clone());
                if inner.graph.are_friends(&action.user, &other) {
                    inner.graph.remove_friendship(&action.user, &other);
                } else {
                    inner.graph.add_friendship(&action.user, &other);
                }
            }
            inner.feed.push(action.clone());
            inner.listeners.clone()
        };
        for listener in listeners {
            listener(sched, action.clone());
        }
    }

    /// Posts a status update, returning the action recorded.
    pub fn post(&self, sched: &mut Scheduler, user: &UserId, content: &str) -> OsnAction {
        let action = OsnAction {
            user: user.clone(),
            kind: OsnActionKind::Post,
            content: content.to_owned(),
            topic: None,
            at: sched.now(),
            platform: OsnPlatformKind::Push,
        };
        self.perform(sched, action.clone());
        action
    }

    /// Posts a topic-tagged status update.
    pub fn post_about(
        &self,
        sched: &mut Scheduler,
        user: &UserId,
        topic: &str,
        content: &str,
    ) -> OsnAction {
        let action = OsnAction {
            user: user.clone(),
            kind: OsnActionKind::Post,
            content: content.to_owned(),
            topic: Some(topic.to_owned()),
            at: sched.now(),
            platform: OsnPlatformKind::Push,
        };
        self.perform(sched, action.clone());
        action
    }

    /// Comments on something.
    pub fn comment(&self, sched: &mut Scheduler, user: &UserId, content: &str) -> OsnAction {
        let action = OsnAction {
            user: user.clone(),
            kind: OsnActionKind::Comment,
            content: content.to_owned(),
            topic: None,
            at: sched.now(),
            platform: OsnPlatformKind::Push,
        };
        self.perform(sched, action.clone());
        action
    }

    /// Likes a page.
    pub fn like(&self, sched: &mut Scheduler, user: &UserId, page: &str) -> OsnAction {
        let action = OsnAction {
            user: user.clone(),
            kind: OsnActionKind::Like,
            content: page.to_owned(),
            topic: None,
            at: sched.now(),
            platform: OsnPlatformKind::Push,
        };
        self.perform(sched, action.clone());
        action
    }

    /// Creates (or toggles) a friendship between `a` and `b`, emitting the
    /// FriendshipChange action plug-ins observe.
    pub fn befriend(&self, sched: &mut Scheduler, a: &UserId, b: &UserId) {
        let action = OsnAction {
            user: a.clone(),
            kind: OsnActionKind::FriendshipChange,
            content: b.as_str().to_owned(),
            topic: None,
            at: sched.now(),
            platform: OsnPlatformKind::Push,
        };
        self.perform(sched, action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Scheduler, OsnPlatform, UserId) {
        let sched = Scheduler::new();
        let platform = OsnPlatform::new(SimRng::seed_from(1));
        let alice = UserId::new("alice");
        platform.register_user(alice.clone());
        (sched, platform, alice)
    }

    #[test]
    fn actions_land_in_feed_and_notify_listeners() {
        let (mut sched, platform, alice) = fixture();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        platform.add_listener(Rc::new(move |_s, a| sink.borrow_mut().push(a)));
        platform.post(&mut sched, &alice, "hi");
        platform.like(&mut sched, &alice, "Middleware 2014");
        assert_eq!(platform.feed().len(), 2);
        assert_eq!(seen.borrow().len(), 2);
        assert_eq!(seen.borrow()[1].kind, OsnActionKind::Like);
    }

    #[test]
    fn unknown_user_actions_are_dropped() {
        let (mut sched, platform, _) = fixture();
        platform.post(&mut sched, &UserId::new("stranger"), "spam");
        assert!(platform.feed().is_empty());
    }

    #[test]
    fn befriend_updates_graph_and_feed() {
        let (mut sched, platform, alice) = fixture();
        let bob = UserId::new("bob");
        platform.register_user(bob.clone());
        platform.befriend(&mut sched, &alice, &bob);
        assert!(platform.graph().are_friends(&alice, &bob));
        // Toggling removes.
        platform.befriend(&mut sched, &alice, &bob);
        assert!(!platform.graph().are_friends(&alice, &bob));
        assert_eq!(platform.feed().len(), 2);
    }

    #[test]
    fn feed_since_filters_by_time() {
        let (mut sched, platform, alice) = fixture();
        platform.post(&mut sched, &alice, "early");
        sched.run_for(sensocial_runtime::SimDuration::from_secs(10));
        platform.post(&mut sched, &alice, "late");
        let recent = platform.feed_since(Timestamp::from_secs(5));
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].content, "late");
        assert!(
            platform.feed_since(Timestamp::from_secs(10)).is_empty(),
            "boundary is strict"
        );
    }

    #[test]
    fn topic_tagged_posts() {
        let (mut sched, platform, alice) = fixture();
        let a = platform.post_about(&mut sched, &alice, "football", "what a match");
        assert_eq!(a.topic.as_deref(), Some("football"));
    }
}
