//! The append-only attempt journal.
//!
//! Every state transition the scheduler makes — campaign registration,
//! dispatch, rate-limit deferral, retry scheduling, ack, dead-letter — is
//! journaled as one typed record at the instant it happens. The journal is
//! the scheduler's *only* durable state: the deployment holds the
//! [`Journal`] handle, which outlives any one scheduler instance, and a
//! replacement handed the same handle rebuilds in-flight attempts,
//! absolute backoff deadlines, per-app quota spend and token-bucket state
//! by replaying the records in sequence order (see
//! [`CampaignScheduler::recover`](crate::CampaignScheduler::recover)).

use std::cell::RefCell;
use std::rc::Rc;

use sensocial_runtime::Timestamp;

use crate::scheduler::{AttemptState, CampaignSpec};

/// One journaled state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotone sequence number; replay order.
    pub seq: u64,
    /// Virtual time of the transition.
    pub at: Timestamp,
    /// The transition itself.
    pub event: RecordKind,
}

/// The journaled transition kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// A campaign was registered (the full spec, so recovery needs no
    /// other source of truth).
    Registered(CampaignSpec),
    /// An occurrence entered a new delivery state.
    Transition {
        /// Campaign id.
        campaign: String,
        /// Occurrence index (0-based).
        occurrence: u32,
        /// The state entered.
        state: AttemptState,
    },
}

/// Append/replay handle over one journal. Cloneable; clones share the
/// records.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    records: Rc<RefCell<Vec<JournalRecord>>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends one record.
    pub fn append(&self, record: JournalRecord) {
        self.records.borrow_mut().push(record);
    }

    /// All records, in sequence order.
    pub fn replay(&self) -> Vec<JournalRecord> {
        let mut records = self.records.borrow().clone();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Number of records written so far.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_sorts_by_sequence() {
        let journal = Journal::new();
        assert!(journal.is_empty());
        for seq in [3u64, 0, 2, 1] {
            journal.append(JournalRecord {
                seq,
                at: Timestamp::from_millis(seq * 10),
                event: RecordKind::Transition {
                    campaign: "c".into(),
                    occurrence: 2,
                    state: AttemptState::Acked { epoch: seq },
                },
            });
        }
        assert_eq!(journal.len(), 4);
        let seqs: Vec<u64> = journal.replay().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }
}
