//! The append-only attempt journal.
//!
//! Every state transition the scheduler makes — campaign registration,
//! dispatch, rate-limit deferral, retry scheduling, ack, dead-letter — is
//! journaled as one JSON document in the `campaign_journal` collection at
//! the instant it happens. The journal is the scheduler's *only* durable
//! state: a replacement instance rebuilds in-flight attempts, absolute
//! backoff deadlines, per-app quota spend and token-bucket state by
//! replaying the records in sequence order (see
//! [`CampaignScheduler::recover`](crate::CampaignScheduler::recover)).
//!
//! Records go through [`sensocial_storage::StorageEngine`]'s document
//! plane, a collection of the deployment's one document database.

use sensocial_runtime::json::{self, Json, Reader, Value, Writer};
use sensocial_runtime::{json_members, json_struct};
use sensocial_storage::{Collection, Query, StorageEngine};

/// The collection holding the journal.
pub const JOURNAL_COLLECTION: &str = "campaign_journal";

/// One journaled state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotone sequence number; replay order.
    pub seq: u64,
    /// Virtual time of the transition, in ms.
    pub at_ms: u64,
    /// The transition itself.
    pub event: RecordKind,
}

json_struct!(JournalRecord { seq, at_ms, event });

/// The journaled transition kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// A campaign was registered (carries the full spec so recovery needs
    /// no other source of truth).
    Registered {
        /// Campaign id.
        campaign: String,
        /// Owning application.
        app: String,
        /// Target device id (raw string form).
        device: String,
        /// Target stream id.
        stream: u64,
        /// First occurrence due time, ms.
        start_ms: u64,
        /// Gap between occurrences, ms.
        period_ms: u64,
        /// Occurrence count.
        occurrences: u32,
        /// The duty-cycle interval each occurrence pushes, ms.
        interval_ms: u64,
    },
    /// A dispatch left the scheduler (quota spent, bucket token taken).
    Dispatched {
        /// Campaign id.
        campaign: String,
        /// Occurrence index (0-based).
        occurrence: u32,
        /// Dispatch attempt number (1-based).
        attempt: u32,
        /// The config epoch the server stamped on the command.
        epoch: u64,
        /// Absolute ack deadline, ms.
        deadline_ms: u64,
    },
    /// A dispatch was deferred by the rate limiter (bucket state advanced
    /// but no token was taken; replay repeats the failed take).
    RateLimited {
        /// Campaign id.
        campaign: String,
        /// Occurrence index.
        occurrence: u32,
        /// The attempt number the deferred dispatch will carry.
        attempt: u32,
        /// Absolute redispatch time, ms.
        next_ms: u64,
    },
    /// A dispatch failed (ack timeout or rejection) and a retry is
    /// scheduled.
    Retrying {
        /// Campaign id.
        campaign: String,
        /// Occurrence index.
        occurrence: u32,
        /// The attempt number the retry will carry.
        next_attempt: u32,
        /// Absolute redispatch time, ms.
        next_ms: u64,
    },
    /// The device positively acknowledged the occurrence; terminal.
    Acked {
        /// Campaign id.
        campaign: String,
        /// Occurrence index.
        occurrence: u32,
        /// The epoch of the dispatch that won.
        epoch: u64,
    },
    /// The occurrence was abandoned; terminal.
    DeadLettered {
        /// Campaign id.
        campaign: String,
        /// Occurrence index.
        occurrence: u32,
        /// Why (quota, attempts exhausted, rejection).
        reason: String,
    },
}

/// An object whose `kind` member names the variant, followed by the
/// variant's fields.
impl Json for RecordKind {
    fn write_json(&self, w: &mut Writer<'_>) {
        let mut obj = w.object();
        match self {
            RecordKind::Registered {
                campaign,
                app,
                device,
                stream,
                start_ms,
                period_ms,
                occurrences,
                interval_ms,
            } => {
                obj.key("kind").str("registered");
                json_members!(write obj;
                    campaign, app, device, stream, start_ms, period_ms, occurrences, interval_ms);
            }
            RecordKind::Dispatched {
                campaign,
                occurrence,
                attempt,
                epoch,
                deadline_ms,
            } => {
                obj.key("kind").str("dispatched");
                json_members!(write obj; campaign, occurrence, attempt, epoch, deadline_ms);
            }
            RecordKind::RateLimited {
                campaign,
                occurrence,
                attempt,
                next_ms,
            } => {
                obj.key("kind").str("rate_limited");
                json_members!(write obj; campaign, occurrence, attempt, next_ms);
            }
            RecordKind::Retrying {
                campaign,
                occurrence,
                next_attempt,
                next_ms,
            } => {
                obj.key("kind").str("retrying");
                json_members!(write obj; campaign, occurrence, next_attempt, next_ms);
            }
            RecordKind::Acked {
                campaign,
                occurrence,
                epoch,
            } => {
                obj.key("kind").str("acked");
                json_members!(write obj; campaign, occurrence, epoch);
            }
            RecordKind::DeadLettered {
                campaign,
                occurrence,
                reason,
            } => {
                obj.key("kind").str("dead_lettered");
                json_members!(write obj; campaign, occurrence, reason);
            }
        }
        obj.end();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let kind = r.tagged("kind")?;
        match &*kind {
            "registered" => json_members!(read r; RecordKind::Registered {
                campaign,
                app,
                device,
                stream,
                start_ms,
                period_ms,
                occurrences,
                interval_ms,
            }),
            "dispatched" => json_members!(read r; RecordKind::Dispatched {
                campaign,
                occurrence,
                attempt,
                epoch,
                deadline_ms,
            }),
            "rate_limited" => json_members!(read r; RecordKind::RateLimited {
                campaign,
                occurrence,
                attempt,
                next_ms,
            }),
            "retrying" => json_members!(read r; RecordKind::Retrying {
                campaign,
                occurrence,
                next_attempt,
                next_ms,
            }),
            "acked" => json_members!(read r; RecordKind::Acked {
                campaign,
                occurrence,
                epoch,
            }),
            "dead_lettered" => json_members!(read r; RecordKind::DeadLettered {
                campaign,
                occurrence,
                reason,
            }),
            other => Err(r.unknown_variant(
                other,
                &[
                    "registered",
                    "dispatched",
                    "rate_limited",
                    "retrying",
                    "acked",
                    "dead_lettered",
                ],
            )),
        }
    }
}

/// Append/replay handle over the journal collection. Cloneable; clones
/// share the underlying collection.
#[derive(Clone)]
pub struct Journal {
    collection: Collection,
}

impl Journal {
    /// Opens the journal inside `storage`, creating its collection on
    /// first use.
    pub fn open(storage: &StorageEngine) -> Self {
        Journal {
            collection: storage.docs().collection(JOURNAL_COLLECTION),
        }
    }

    /// Appends one record: its document is its JSON form, an object of
    /// plain fields the document store accepts unconditionally, so there
    /// is no failure path to surface.
    pub fn append(&self, record: &JournalRecord) {
        if let Ok(body) = json::from_str::<Value>(&json::to_string(record)) {
            let _ = self.collection.insert(body);
        }
    }

    /// All records, in sequence order.
    pub fn replay(&self) -> Vec<JournalRecord> {
        let mut records: Vec<JournalRecord> = self
            .collection
            .find(&Query::exists("seq"))
            .into_iter()
            .filter_map(|doc| json::from_str(&doc.body.to_string()).ok())
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Number of records written so far.
    pub fn len(&self) -> usize {
        self.collection.count(&Query::exists("seq"))
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use sensocial_storage::StorageConfig;

    use super::*;

    fn record(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            at_ms: seq * 10,
            event: RecordKind::Dispatched {
                campaign: "c".into(),
                occurrence: 2,
                attempt: 1,
                epoch: seq,
                deadline_ms: seq * 10 + 500,
            },
        }
    }

    #[test]
    fn records_round_trip_through_storage() {
        let storage = StorageConfig::from_env().open();
        let journal = Journal::open(&storage);
        assert!(journal.is_empty());
        let r = JournalRecord {
            seq: 0,
            at_ms: 5,
            event: RecordKind::Registered {
                campaign: "camp-a".into(),
                app: "birdwatch".into(),
                device: "p1".into(),
                stream: 7,
                start_ms: 1_000,
                period_ms: 60_000,
                occurrences: 4,
                interval_ms: 30_000,
            },
        };
        journal.append(&r);
        journal.append(&record(1));
        assert_eq!(journal.replay(), vec![r, record(1)]);
    }

    #[test]
    fn replay_sorts_by_sequence() {
        let storage = StorageConfig::from_env().open();
        let journal = Journal::open(&storage);
        for seq in [3u64, 0, 2, 1] {
            journal.append(&record(seq));
        }
        let seqs: Vec<u64> = journal.replay().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_record_kind_survives_the_journal_document() {
        let kinds = vec![
            RecordKind::RateLimited {
                campaign: "c".into(),
                occurrence: 0,
                attempt: 1,
                next_ms: 99,
            },
            RecordKind::Retrying {
                campaign: "c".into(),
                occurrence: 0,
                next_attempt: 2,
                next_ms: 120,
            },
            RecordKind::Acked {
                campaign: "c".into(),
                occurrence: 0,
                epoch: 11,
            },
            RecordKind::DeadLettered {
                campaign: "c".into(),
                occurrence: 0,
                reason: "quota".into(),
            },
        ];
        for kind in kinds {
            let r = JournalRecord {
                seq: 9,
                at_ms: 1,
                event: kind,
            };
            let wire = json::to_string(&r);
            assert_eq!(json::from_str::<JournalRecord>(&wire).unwrap(), r);
        }
        let registered = JournalRecord {
            seq: 9,
            at_ms: 1,
            event: RecordKind::Registered {
                campaign: "c".into(),
                app: "a".into(),
                device: "d".into(),
                stream: 1,
                start_ms: 2,
                period_ms: 3,
                occurrences: 4,
                interval_ms: 5,
            },
        };
        // The journal's documents predate this codec: the bytes must not move.
        assert_eq!(
            json::to_string(&registered),
            r#"{"seq":9,"at_ms":1,"event":{"kind":"registered","campaign":"c","app":"a","device":"d","stream":1,"start_ms":2,"period_ms":3,"occurrences":4,"interval_ms":5}}"#
        );
    }
}
