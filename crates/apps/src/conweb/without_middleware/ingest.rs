//! The no-middleware ConWeb server-side ingest.
//!
//! Parses the hand-rolled context protocol, validates rows, resolves
//! out-of-order updates by timestamp, maintains the context table the Web
//! server renders from, and hooks the OSN plug-in to feed post topics in —
//! all of which the middleware variant gets from one `register_listener`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_broker::{BrokerClient, QoS};
use sensocial_osn::PushPlugin;
use sensocial_runtime::json;
use sensocial_runtime::Scheduler;
use sensocial_storage::{Collection, Query};
use sensocial_types::{OsnActionKind, UserId};

use super::protocol::{ContextUpdate, CONTEXT_WILDCARD};

struct IngestState {
    /// Last-applied timestamp per (user, field): stale updates dropped.
    last_applied: HashMap<(UserId, String), u64>,
    updates_applied: u64,
    updates_dropped: u64,
}

/// The no-middleware ConWeb ingest service.
pub struct RawConWebIngest {
    /// The context rows the Web server renders from.
    pub context: Collection,
    state: Rc<RefCell<IngestState>>,
}

impl std::fmt::Debug for RawConWebIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("RawConWebIngest")
            .field("applied", &state.updates_applied)
            .field("dropped", &state.updates_dropped)
            .finish_non_exhaustive()
    }
}

impl RawConWebIngest {
    /// Installs the ingest: broker subscription plus OSN plug-in hook.
    pub fn install(
        sched: &mut Scheduler,
        broker: BrokerClient,
        context: Collection,
        plugin: &PushPlugin,
    ) -> Rc<Self> {
        let ingest = Rc::new(RawConWebIngest {
            context,
            state: Rc::new(RefCell::new(IngestState {
                last_applied: HashMap::new(),
                updates_applied: 0,
                updates_dropped: 0,
            })),
        });

        broker.connect(sched);
        let handler = ingest.clone();
        broker.subscribe(
            sched,
            CONTEXT_WILDCARD,
            QoS::AtMostOnce,
            move |_s, _topic, payload| {
                handler.on_update(payload);
            },
        );

        // Manual OSN integration: topics of posts feed the suggestion
        // engine.
        let handler = ingest.clone();
        plugin.set_receiver(move |s, action| {
            if action.kind == OsnActionKind::Post {
                if let Some(topic) = &action.topic {
                    handler.apply(&ContextUpdate {
                        user: action.user.clone(),
                        field: "last_topic".into(),
                        value: topic.clone(),
                        at_ms: s.now().as_millis(),
                    });
                }
            }
        });
        ingest
    }

    /// Updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.state.borrow().updates_applied
    }

    /// Stale/malformed updates dropped so far.
    pub fn updates_dropped(&self) -> u64 {
        self.state.borrow().updates_dropped
    }

    fn on_update(&self, payload: &str) {
        match ContextUpdate::decode(payload) {
            Some(update) => self.apply(&update),
            None => {
                self.state.borrow_mut().updates_dropped += 1;
            }
        }
    }

    fn apply(&self, update: &ContextUpdate) {
        {
            let mut state = self.state.borrow_mut();
            let key = (update.user.clone(), update.field.clone());
            match state.last_applied.get(&key) {
                Some(last) if *last > update.at_ms => {
                    state.updates_dropped += 1;
                    return; // Out-of-order: a newer value already applied.
                }
                _ => {
                    state.last_applied.insert(key, update.at_ms);
                    state.updates_applied += 1;
                }
            }
        }
        let query = Query::eq("user", update.user.as_str());
        let value = json::Value::String(update.value.clone());
        if self
            .context
            .update_set(&query, &[(update.field.as_str(), value.clone())])
            == 0
        {
            let mut doc = json!({"user": update.user.as_str()});
            doc[update.field.as_str()] = value;
            let _ = self.context.insert(doc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_ingest() -> RawConWebIngest {
        RawConWebIngest {
            context: Collection::new("ctx"),
            state: Rc::new(RefCell::new(IngestState {
                last_applied: HashMap::new(),
                updates_applied: 0,
                updates_dropped: 0,
            })),
        }
    }

    #[test]
    fn applies_updates_and_upserts_rows() {
        let ingest = bare_ingest();
        ingest.apply(&ContextUpdate {
            user: UserId::new("alice"),
            field: "activity".into(),
            value: "walking".into(),
            at_ms: 10,
        });
        ingest.apply(&ContextUpdate {
            user: UserId::new("alice"),
            field: "audio".into(),
            value: "silent".into(),
            at_ms: 11,
        });
        assert_eq!(ingest.updates_applied(), 2);
        let row = ingest
            .context
            .find_one(&Query::eq("user", "alice"))
            .unwrap();
        assert_eq!(row.body["activity"], "walking");
        assert_eq!(row.body["audio"], "silent");
        assert_eq!(ingest.context.len(), 1, "single row per user");
    }

    #[test]
    fn stale_updates_dropped() {
        let ingest = bare_ingest();
        ingest.apply(&ContextUpdate {
            user: UserId::new("alice"),
            field: "activity".into(),
            value: "running".into(),
            at_ms: 100,
        });
        ingest.apply(&ContextUpdate {
            user: UserId::new("alice"),
            field: "activity".into(),
            value: "still".into(),
            at_ms: 50, // Older than what's applied.
        });
        assert_eq!(ingest.updates_dropped(), 1);
        let row = ingest
            .context
            .find_one(&Query::eq("user", "alice"))
            .unwrap();
        assert_eq!(row.body["activity"], "running");
    }

    #[test]
    fn malformed_payloads_counted_as_dropped() {
        let ingest = bare_ingest();
        ingest.on_update("not json at all");
        assert_eq!(ingest.updates_dropped(), 1);
        assert_eq!(ingest.updates_applied(), 0);
    }
}
