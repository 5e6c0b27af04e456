//! Online-social-network actions as the middleware sees them.
//!
//! "A plug-in registers actions that SenSocial users perform on an OSN …
//! irrespective of the device and the means of OSN access" (paper §2). The
//! action model here carries exactly what the trigger pipeline needs: who
//! acted, what kind of action, its content, and when.

use std::fmt;

use sensocial_runtime::Timestamp;
use sensocial_runtime::{json_enum, json_struct};

use crate::ids::UserId;

/// Which simulated OSN platform an action originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsnPlatformKind {
    /// Push-style platform: the platform notifies the plug-in (with a
    /// platform-dependent delay), modelled on the paper's Facebook plug-in.
    Push,
    /// Poll-style platform: the plug-in periodically queries for new
    /// actions, modelled on the paper's Twitter plug-in.
    Poll,
}

json_enum!(OsnPlatformKind {
    Push = "push",
    Poll = "poll",
});

impl fmt::Display for OsnPlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsnPlatformKind::Push => f.write_str("push"),
            OsnPlatformKind::Poll => f.write_str("poll"),
        }
    }
}

/// The kinds of OSN actions SenSocial reacts to (paper §1: "OSN actions
/// such as comments, posts, and likes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsnActionKind {
    /// A status post / tweet.
    Post,
    /// A comment on another item.
    Comment,
    /// A like of a page or item.
    Like,
    /// A friendship/link change (used by the server to keep the OSN graph
    /// fresh: "the server component classifies OSN actions to infer any
    /// change in the OSN", paper §4).
    FriendshipChange,
}

json_enum!(OsnActionKind {
    Post = "post",
    Comment = "comment",
    Like = "like",
    FriendshipChange = "friendship_change",
});

impl OsnActionKind {
    /// Short lowercase name, as used in filter conditions.
    pub fn name(self) -> &'static str {
        match self {
            OsnActionKind::Post => "post",
            OsnActionKind::Comment => "comment",
            OsnActionKind::Like => "like",
            OsnActionKind::FriendshipChange => "friendship_change",
        }
    }
}

impl fmt::Display for OsnActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single action performed by a user on an OSN.
#[derive(Debug, Clone, PartialEq)]
pub struct OsnAction {
    /// The acting user.
    pub user: UserId,
    /// What kind of action it was.
    pub kind: OsnActionKind,
    /// Free-text content (post/comment text; the liked page's name for
    /// likes; the befriended user's id for friendship changes).
    pub content: String,
    /// Content topic, when the platform's (simulated) feed tagged one;
    /// topic-conditioned filters ("when the user posts about football")
    /// compare against this.
    pub topic: Option<String>,
    /// When the action happened on the platform (virtual time).
    pub at: Timestamp,
    /// The platform it happened on.
    pub platform: OsnPlatformKind,
}

json_struct!(OsnAction {
    user,
    kind,
    content,
    topic,
    at,
    platform,
});

impl OsnAction {
    /// Creates a post action.
    pub fn post(user: UserId, content: impl Into<String>, at: Timestamp) -> Self {
        OsnAction {
            user,
            kind: OsnActionKind::Post,
            content: content.into(),
            topic: None,
            at,
            platform: OsnPlatformKind::Push,
        }
    }

    /// Sets the topic tag (builder-style).
    pub fn with_topic(mut self, topic: impl Into<String>) -> Self {
        self.topic = Some(topic.into());
        self
    }

    /// Sets the platform (builder-style).
    pub fn on_platform(mut self, platform: OsnPlatformKind) -> Self {
        self.platform = platform;
        self
    }
}

impl fmt::Display for OsnAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}: {:?}",
            self.user, self.kind, self.at, self.content
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let a = OsnAction::post(
            UserId::new("alice"),
            "match tonight!",
            Timestamp::from_secs(5),
        )
        .with_topic("football")
        .on_platform(OsnPlatformKind::Poll);
        assert_eq!(a.kind, OsnActionKind::Post);
        assert_eq!(a.topic.as_deref(), Some("football"));
        assert_eq!(a.platform, OsnPlatformKind::Poll);
        assert_eq!(a.at, Timestamp::from_secs(5));
    }

    #[test]
    fn action_serializes_round_trip() {
        let a = OsnAction::post(UserId::new("bob"), "hello", Timestamp::from_secs(1));
        let wire = sensocial_runtime::json::to_string(&a);
        let back: OsnAction = sensocial_runtime::json::from_str(&wire).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(OsnActionKind::Post.name(), "post");
        assert_eq!(
            OsnActionKind::FriendshipChange.to_string(),
            "friendship_change"
        );
    }

    #[test]
    fn display_mentions_user_and_kind() {
        let a = OsnAction::post(UserId::new("carol"), "hi", Timestamp::ZERO);
        let s = a.to_string();
        assert!(s.contains("carol") && s.contains("post"), "{s}");
    }
}
