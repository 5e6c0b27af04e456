//! The durable campaign scheduler.
//!
//! A [`CampaignScheduler`] owns *campaigns* — recurring trigger schedules
//! that push stream reconfigurations through the server's config-epoch
//! pipeline — and supervises every delivery attempt as a state machine:
//!
//! ```text
//! (due) ──dispatch──▶ Dispatched ──ack──▶ Acked
//!                        │  ▲
//!              timeout / │  │ redispatch
//!                  nack  ▼  │
//!                      Retrying ──attempts exhausted / quota──▶ DeadLettered
//! ```
//!
//! Attempts are settled by *occurrence token* (`"<campaign>/<occ>"`), not
//! by epoch: the device echoes the token in its [`ConfigAck`] and applies
//! each token at most once, so a post-crash redispatch under a fresh
//! epoch settles the attempt without reconfiguring twice.
//!
//! Every transition is journaled (see [`crate::journal`]); an instance
//! that crashes mid-storm is replaced via [`CampaignScheduler::recover`]
//! over the same [`Journal`], which rebuilds in-flight attempts, absolute
//! backoff deadlines, quota spend and token-bucket state from it. Backoff
//! jitter is derived statelessly from `(seed, campaign, occurrence,
//! attempt)`, so the recovered instance's deadlines are byte-identical to
//! the ones the dead instance would have computed.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use sensocial::server::ServerManager;
use sensocial::{ConfigAck, ConfigCommand};
use sensocial_runtime::{Scheduler, SimDuration, Timestamp};
use sensocial_telemetry::{Registry, Snapshot};
use sensocial_types::{DeviceId, StreamId};

use crate::error::CampaignError;
use crate::journal::{Journal, JournalRecord, RecordKind};
use crate::policy::{CampaignPolicies, TokenBucket};

/// One campaign: a recurring schedule of stream reconfigurations pushed
/// to a single device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Unique campaign id; namespaces the journal and occurrence tokens.
    pub id: String,
    /// Owning application — the quota and rate-limit accounting unit.
    pub app: String,
    /// Target device.
    pub device: DeviceId,
    /// Target stream on that device.
    pub stream: StreamId,
    /// Due time of the first occurrence.
    pub start: Timestamp,
    /// Gap between consecutive occurrences.
    pub period: SimDuration,
    /// Number of occurrences.
    pub occurrences: u32,
    /// The reconfiguration each occurrence pushes: the stream's new
    /// duty-cycle interval, in milliseconds.
    pub interval_ms: u64,
}

impl CampaignSpec {
    /// Due time of occurrence `occ` (0-based).
    pub fn due(&self, occ: u32) -> Timestamp {
        self.start
            + SimDuration::from_millis(self.period.as_millis().saturating_mul(u64::from(occ)))
    }

    /// The occurrence token: `"<campaign>/<occ>"`.
    pub fn token(&self, occ: u32) -> String {
        format!("{}/{}", self.id, occ)
    }
}

/// The supervised delivery state of one campaign occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptState {
    /// A command is in flight, awaiting the device's ack.
    Dispatched {
        /// Dispatch attempt number (1-based).
        attempt: u32,
        /// The config epoch the server stamped on the command.
        epoch: u64,
        /// When the dispatch left the scheduler.
        at: Timestamp,
        /// Absolute ack deadline; the attempt is redriven past it.
        deadline: Timestamp,
    },
    /// Waiting out a backoff or rate-limit deadline before redispatching.
    Retrying {
        /// The attempt number the next dispatch will carry.
        next_attempt: u32,
        /// Absolute redispatch time.
        next_at: Timestamp,
    },
    /// Positively acknowledged; terminal.
    Acked {
        /// The epoch of the dispatch that won.
        epoch: u64,
    },
    /// Abandoned; terminal.
    DeadLettered {
        /// Why (quota, attempts exhausted, rejection).
        reason: String,
    },
}

impl AttemptState {
    /// Whether the occurrence has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            AttemptState::Acked { .. } | AttemptState::DeadLettered { .. }
        )
    }
}

/// Work the pump found due at the current instant.
enum DueAction {
    Dispatch {
        campaign: String,
        occ: u32,
        attempt: u32,
    },
    Timeout {
        campaign: String,
        occ: u32,
    },
}

struct Inner {
    /// Cleared by [`CampaignScheduler::crash`]; a dead instance's timers
    /// and ack listener become inert no-ops.
    alive: bool,
    campaigns: BTreeMap<String, CampaignSpec>,
    attempts: BTreeMap<(String, u32), AttemptState>,
    /// Occurrence token → attempt key, for settling acks.
    tokens: HashMap<String, (String, u32)>,
    /// Per-app lifetime dispatch counts (the quota ledger).
    dispatch_counts: BTreeMap<String, u64>,
    /// Per-app token buckets (the rate-limit state).
    buckets: BTreeMap<String, TokenBucket>,
    next_seq: u64,
    /// The earliest armed wake-up, to avoid timer storms.
    next_wake: Option<Timestamp>,
}

/// The durable campaign scheduler. Cloneable handle; clones share state.
///
/// See the [module docs](self) for the delivery state machine and the
/// crash-recovery contract.
#[derive(Clone)]
pub struct CampaignScheduler {
    server: ServerManager,
    policies: CampaignPolicies,
    seed: u64,
    journal: Journal,
    telemetry: Registry,
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for CampaignScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CampaignScheduler")
            .field("alive", &inner.alive)
            .field("campaigns", &inner.campaigns.len())
            .field("attempts", &inner.attempts.len())
            .finish()
    }
}

impl CampaignScheduler {
    /// Creates a fresh scheduler journaling to `journal` (which holds no
    /// records yet), hooked into `server`'s config-ack stream. The caller
    /// keeps `journal` to hand to [`CampaignScheduler::recover`] after a
    /// crash.
    pub fn new(
        server: &ServerManager,
        journal: &Journal,
        policies: CampaignPolicies,
        seed: u64,
    ) -> Self {
        Self::build(server, journal, policies, seed, false)
    }

    /// Creates a replacement scheduler that rebuilds its state from the
    /// `journal` a crashed predecessor appended to, then hooks into
    /// `server`'s config-ack stream. Call [`CampaignScheduler::start`] to
    /// resume driving: overdue deadlines are redriven immediately, and
    /// already-acked occurrences are never redispatched.
    ///
    /// `policies` and `seed` must match the predecessor's — they are
    /// deployment configuration, not journaled state — which is what makes
    /// the recovered run byte-identical under the same seed.
    pub fn recover(
        server: &ServerManager,
        journal: &Journal,
        policies: CampaignPolicies,
        seed: u64,
    ) -> Self {
        Self::build(server, journal, policies, seed, true)
    }

    fn build(
        server: &ServerManager,
        journal: &Journal,
        policies: CampaignPolicies,
        seed: u64,
        replay: bool,
    ) -> Self {
        let scheduler = CampaignScheduler {
            server: server.clone(),
            policies,
            seed,
            journal: journal.clone(),
            telemetry: Registry::new("campaign"),
            inner: Rc::new(RefCell::new(Inner {
                alive: true,
                campaigns: BTreeMap::new(),
                attempts: BTreeMap::new(),
                tokens: HashMap::new(),
                dispatch_counts: BTreeMap::new(),
                buckets: BTreeMap::new(),
                next_seq: 0,
                next_wake: None,
            })),
        };
        if replay {
            scheduler.replay_journal();
        }
        let hook = scheduler.clone();
        server.register_ack_listener(move |sched, ack| {
            hook.on_ack(sched, ack);
            hook.is_alive()
        });
        scheduler
    }

    /// Registers a campaign, journals it, and begins driving its
    /// occurrences.
    ///
    /// # Errors
    ///
    /// [`CampaignError::DuplicateCampaign`] if the id is already taken.
    pub fn register(&self, sched: &mut Scheduler, spec: CampaignSpec) -> Result<(), CampaignError> {
        let now = sched.now();
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            if inner.campaigns.contains_key(&spec.id) {
                return Err(CampaignError::DuplicateCampaign(spec.id));
            }
            self.journal.append(JournalRecord {
                seq: take_seq(inner),
                at: now,
                event: RecordKind::Registered(spec.clone()),
            });
            inner
                .buckets
                .entry(spec.app.clone())
                .or_insert_with(|| TokenBucket::new(self.policies.rate, now.as_millis()));
            inner.campaigns.insert(spec.id.clone(), spec);
        }
        self.telemetry.count("registered");
        self.pump(sched);
        Ok(())
    }

    /// Begins (or resumes, after [`CampaignScheduler::recover`]) driving:
    /// processes everything already due and arms the wake-up timer.
    pub fn start(&self, sched: &mut Scheduler) {
        self.pump(sched);
    }

    /// Kills this instance: its ack listener and pending timers become
    /// inert. The journal outlives it; a replacement rebuilds from it via
    /// [`CampaignScheduler::recover`].
    pub fn crash(&self) {
        self.inner.borrow_mut().alive = false;
        self.telemetry.count("crashed");
    }

    /// Whether this instance is still driving.
    pub fn is_alive(&self) -> bool {
        self.inner.borrow().alive
    }

    /// Probes admission for `app` at `now` without consuming quota or
    /// rate-limit tokens (the real admission check runs at dispatch time).
    ///
    /// # Errors
    ///
    /// [`CampaignError::QuotaExhausted`] or [`CampaignError::RateLimited`]
    /// exactly as a dispatch at `now` would fail.
    pub fn admission(&self, now: Timestamp, app: &str) -> Result<(), CampaignError> {
        let inner = self.inner.borrow();
        let spent = inner.dispatch_counts.get(app).copied().unwrap_or(0);
        if spent >= self.policies.quota_per_app {
            return Err(CampaignError::QuotaExhausted {
                app: app.to_owned(),
                quota: self.policies.quota_per_app,
            });
        }
        let mut probe = inner
            .buckets
            .get(app)
            .cloned()
            .unwrap_or_else(|| TokenBucket::new(self.policies.rate, now.as_millis()));
        match probe.try_take(now.as_millis()) {
            Ok(()) => Ok(()),
            Err(retry_at_ms) => Err(CampaignError::RateLimited {
                app: app.to_owned(),
                retry_at_ms,
            }),
        }
    }

    /// The delivery state of one occurrence, if it has been touched.
    pub fn state(&self, campaign: &str, occ: u32) -> Option<AttemptState> {
        self.inner
            .borrow_mut()
            .attempts
            .get(&(campaign.to_owned(), occ))
            .cloned()
    }

    /// The registered spec for `campaign`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnknownCampaign`] if no such campaign exists.
    pub fn spec(&self, campaign: &str) -> Result<CampaignSpec, CampaignError> {
        self.inner
            .borrow_mut()
            .campaigns
            .get(campaign)
            .cloned()
            .ok_or_else(|| CampaignError::UnknownCampaign(campaign.to_owned()))
    }

    /// Whether every occurrence of every campaign has reached a terminal
    /// state (acked or dead-lettered).
    pub fn is_settled(&self) -> bool {
        let inner = self.inner.borrow();
        inner.campaigns.iter().all(|(id, spec)| {
            (0..spec.occurrences).all(|occ| {
                inner
                    .attempts
                    .get(&(id.clone(), occ))
                    .is_some_and(AttemptState::is_terminal)
            })
        })
    }

    /// Occurrences currently in the [`AttemptState::Acked`] state.
    pub fn acked(&self) -> u64 {
        self.count_states(|s| matches!(s, AttemptState::Acked { .. }))
    }

    /// Occurrences currently in the [`AttemptState::DeadLettered`] state.
    pub fn dead_lettered(&self) -> u64 {
        self.count_states(|s| matches!(s, AttemptState::DeadLettered { .. }))
    }

    /// Total occurrences across all registered campaigns.
    pub fn total_occurrences(&self) -> u64 {
        self.inner
            .borrow_mut()
            .campaigns
            .values()
            .map(|spec| u64::from(spec.occurrences))
            .sum()
    }

    /// This instance's telemetry registry (`campaign.*` keys).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// This instance's telemetry snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    fn count_states(&self, pred: impl Fn(&AttemptState) -> bool) -> u64 {
        self.inner
            .borrow_mut()
            .attempts
            .values()
            .filter(|s| pred(s))
            .count() as u64
    }

    // ------------------------------------------------------------------
    // The drive loop
    // ------------------------------------------------------------------

    /// Processes everything due at the current instant, one action at a
    /// time (each action strictly advances some occurrence's state, so the
    /// loop terminates), then arms the next wake-up.
    fn pump(&self, sched: &mut Scheduler) {
        if !self.inner.borrow_mut().alive {
            return;
        }
        loop {
            let now = sched.now();
            let Some(action) = self.next_due_action(now) else {
                break;
            };
            match action {
                DueAction::Dispatch {
                    campaign,
                    occ,
                    attempt,
                } => {
                    self.dispatch(sched, &campaign, occ, attempt);
                }
                DueAction::Timeout { campaign, occ } => {
                    self.redrive(sched, &campaign, occ, "ack timeout");
                }
            }
        }
        self.arm_timer(sched);
    }

    /// The first actionable item at `now`, in deterministic key order:
    /// overdue in-flight dispatches and due retries first, then untouched
    /// occurrences that have come due.
    fn next_due_action(&self, now: Timestamp) -> Option<DueAction> {
        let inner = self.inner.borrow();
        for ((campaign, occ), state) in &inner.attempts {
            match state {
                AttemptState::Dispatched { deadline, .. } if *deadline <= now => {
                    return Some(DueAction::Timeout {
                        campaign: campaign.clone(),
                        occ: *occ,
                    });
                }
                AttemptState::Retrying {
                    next_at,
                    next_attempt,
                } if *next_at <= now => {
                    return Some(DueAction::Dispatch {
                        campaign: campaign.clone(),
                        occ: *occ,
                        attempt: *next_attempt,
                    });
                }
                _ => {}
            }
        }
        for (id, spec) in &inner.campaigns {
            for occ in 0..spec.occurrences {
                if inner.attempts.contains_key(&(id.clone(), occ)) {
                    continue;
                }
                if spec.due(occ) <= now {
                    return Some(DueAction::Dispatch {
                        campaign: id.clone(),
                        occ,
                        attempt: 1,
                    });
                }
                // Occurrence due times are monotone in `occ`: nothing
                // after the first untouched, not-yet-due one can be due.
                break;
            }
        }
        None
    }

    /// Runs admission control and, if admitted, pushes the occurrence's
    /// reconfiguration through the server's config pipeline.
    fn dispatch(&self, sched: &mut Scheduler, campaign: &str, occ: u32, attempt: u32) {
        let now = sched.now();
        let key = (campaign.to_owned(), occ);
        let spec = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(spec) = inner.campaigns.get(campaign).cloned() else {
                return;
            };
            match self.admit(inner, now.as_millis(), &spec.app) {
                Ok(()) => {}
                Err(CampaignError::QuotaExhausted { app, quota }) => {
                    let reason =
                        format!("quota exhausted: app `{app}` spent its {quota} dispatches");
                    self.enter(inner, now, key, AttemptState::DeadLettered { reason });
                    self.telemetry.count("quota_exhausted");
                    self.telemetry.count("dead_lettered");
                    self.update_in_flight(inner);
                    return;
                }
                Err(CampaignError::RateLimited { retry_at_ms, .. }) => {
                    self.enter(
                        inner,
                        now,
                        key,
                        AttemptState::Retrying {
                            next_attempt: attempt,
                            next_at: Timestamp::from_millis(retry_at_ms),
                        },
                    );
                    self.telemetry.count("rate_limited");
                    return;
                }
                Err(_) => return,
            }
            spec
        };
        // The push itself runs outside our borrow: it borrows the server
        // and broker, and nothing on that path re-enters this scheduler
        // (acks arrive later, in virtual time).
        let command = ConfigCommand::SetInterval {
            device: spec.device.clone(),
            stream: spec.stream,
            interval_ms: spec.interval_ms,
            epoch: 0,
            token: Some(spec.token(occ)),
        };
        let epoch = self.server.dispatch_campaign_config(sched, command);
        let at = sched.now();
        let deadline = at + self.policies.ack_timeout;
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            inner.tokens.insert(spec.token(occ), key.clone());
            self.enter(
                inner,
                now,
                key,
                AttemptState::Dispatched {
                    attempt,
                    epoch,
                    at,
                    deadline,
                },
            );
            self.update_in_flight(inner);
        }
        self.telemetry.count("dispatched");
    }

    /// Admission control for one dispatch: quota first (permanent), then
    /// the rate limiter (transient). On success the quota is spent and a
    /// bucket token is taken.
    fn admit(&self, inner: &mut Inner, now_ms: u64, app: &str) -> Result<(), CampaignError> {
        let spent = inner.dispatch_counts.get(app).copied().unwrap_or(0);
        if spent >= self.policies.quota_per_app {
            return Err(CampaignError::QuotaExhausted {
                app: app.to_owned(),
                quota: self.policies.quota_per_app,
            });
        }
        let bucket = inner
            .buckets
            .entry(app.to_owned())
            .or_insert_with(|| TokenBucket::new(self.policies.rate, now_ms));
        match bucket.try_take(now_ms) {
            Ok(()) => {
                *inner.dispatch_counts.entry(app.to_owned()).or_insert(0) += 1;
                Ok(())
            }
            Err(retry_at_ms) => Err(CampaignError::RateLimited {
                app: app.to_owned(),
                retry_at_ms,
            }),
        }
    }

    /// Fails the current in-flight attempt of `(campaign, occ)`: schedules
    /// a backoff retry, or dead-letters once attempts are exhausted.
    fn redrive(&self, sched: &mut Scheduler, campaign: &str, occ: u32, cause: &str) {
        let now = sched.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let key = (campaign.to_owned(), occ);
        let Some(AttemptState::Dispatched { attempt, .. }) = inner.attempts.get(&key).cloned()
        else {
            return;
        };
        if attempt >= self.policies.max_attempts {
            let reason = format!("{cause} after {attempt} attempts");
            self.enter(inner, now, key, AttemptState::DeadLettered { reason });
            self.telemetry.count("dead_lettered");
        } else {
            let next_at = now
                + self
                    .policies
                    .backoff
                    .delay(self.seed, campaign, occ, attempt);
            self.enter(
                inner,
                now,
                key,
                AttemptState::Retrying {
                    next_attempt: attempt + 1,
                    next_at,
                },
            );
            self.telemetry.count("retried");
        }
        self.update_in_flight(inner);
    }

    /// Settles attempts from the server's config-ack stream. Registered as
    /// an ack listener on construction; inert once this instance crashed,
    /// and unregistered at the first ack after that.
    fn on_ack(&self, sched: &mut Scheduler, ack: &ConfigAck) {
        let Some(token) = &ack.token else {
            // Plain (non-campaign) config traffic; not ours.
            return;
        };
        // The redrive for a negative ack must run without the state
        // borrowed, so the match records it instead of acting inline.
        let mut nack: Option<(String, u32)> = None;
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            if !inner.alive {
                return;
            }
            let Some(key) = inner.tokens.get(token).cloned() else {
                return;
            };
            let state = inner.attempts.get(&key).cloned();
            match state {
                Some(AttemptState::Acked { .. }) => {
                    self.telemetry.count("duplicate_acks");
                    return;
                }
                Some(AttemptState::DeadLettered { .. }) | None => return,
                Some(AttemptState::Dispatched { at, .. }) if ack.accepted => {
                    self.telemetry
                        .observe_named("ack_ms", sched.now().saturating_since(at).as_millis());
                    self.settle_ack(inner, sched.now(), key, ack.epoch);
                }
                Some(AttemptState::Retrying { .. }) if ack.accepted => {
                    // A late ack beat the pending retry: the device did
                    // apply the command. Settle; the retry never fires.
                    self.settle_ack(inner, sched.now(), key, ack.epoch);
                }
                Some(AttemptState::Dispatched { .. }) => {
                    // Negative ack: the device rejected the command.
                    self.telemetry.count("nacked");
                    nack = Some(key);
                }
                Some(AttemptState::Retrying { .. }) => {
                    // Stale nack for an attempt already being retried.
                }
            }
        }
        if let Some((campaign, occ)) = nack {
            self.redrive(sched, &campaign, occ, "rejected by device");
        }
        self.pump(sched);
    }

    /// Marks `key` acked, journaling the transition.
    fn settle_ack(&self, inner: &mut Inner, now: Timestamp, key: (String, u32), epoch: u64) {
        self.enter(inner, now, key, AttemptState::Acked { epoch });
        self.telemetry.count("acked");
        self.update_in_flight(inner);
    }

    /// Moves `key` into `state`: journals the transition, then records it.
    fn enter(&self, inner: &mut Inner, at: Timestamp, key: (String, u32), state: AttemptState) {
        self.journal.append(JournalRecord {
            seq: take_seq(inner),
            at,
            event: RecordKind::Transition {
                campaign: key.0.clone(),
                occurrence: key.1,
                state: state.clone(),
            },
        });
        inner.attempts.insert(key, state);
    }

    /// Arms (or tightens) the wake-up timer to the earliest future event:
    /// an ack deadline, a retry time, or an untouched occurrence's due
    /// time.
    fn arm_timer(&self, sched: &mut Scheduler) {
        let now = sched.now();
        let at = {
            let mut inner = self.inner.borrow_mut();
            if !inner.alive {
                return;
            }
            if inner.next_wake.is_some_and(|w| w <= now) {
                // That wake already fired (or is firing); forget it.
                inner.next_wake = None;
            }
            let mut next: Option<Timestamp> = None;
            for state in inner.attempts.values() {
                match state {
                    AttemptState::Dispatched { deadline, .. } => next = min_opt(next, *deadline),
                    AttemptState::Retrying { next_at, .. } => next = min_opt(next, *next_at),
                    _ => {}
                }
            }
            for (id, spec) in &inner.campaigns {
                for occ in 0..spec.occurrences {
                    if !inner.attempts.contains_key(&(id.clone(), occ)) {
                        next = min_opt(next, spec.due(occ));
                        break;
                    }
                }
            }
            let Some(at) = next else { return };
            if inner.next_wake.is_some_and(|w| w <= at) {
                // An earlier-or-equal wake is already armed.
                return;
            }
            inner.next_wake = Some(at);
            at
        };
        let this = self.clone();
        sched.schedule_at(at, move |s| this.on_timer(s));
    }

    fn on_timer(&self, sched: &mut Scheduler) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.alive {
                return;
            }
            if inner.next_wake.is_some_and(|w| w <= sched.now()) {
                inner.next_wake = None;
            }
        }
        self.pump(sched);
    }

    fn update_in_flight(&self, inner: &Inner) {
        let in_flight = inner
            .attempts
            .values()
            .filter(|s| matches!(s, AttemptState::Dispatched { .. }))
            .count() as u64;
        self.telemetry.gauge_set("in_flight", in_flight);
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Rebuilds all volatile state from the journal, in sequence order:
    /// the journaled specs and states go back in as they are, and each
    /// dispatch repeats its bucket take and quota spend.
    ///
    /// Telemetry is *not* replayed — counters describe what an instance
    /// did, and the crashed instance already counted its own actions; an
    /// outcome merge across instances sums them without double counting.
    fn replay_journal(&self) {
        let records = self.journal.replay();
        let replayed = records.len() as u64;
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for record in records {
            inner.next_seq = inner.next_seq.max(record.seq + 1);
            let at_ms = record.at.as_millis();
            match record.event {
                RecordKind::Registered(spec) => {
                    inner
                        .buckets
                        .entry(spec.app.clone())
                        .or_insert_with(|| TokenBucket::new(self.policies.rate, at_ms));
                    inner.campaigns.insert(spec.id.clone(), spec);
                }
                RecordKind::Transition {
                    campaign,
                    occurrence,
                    state,
                } => {
                    let key = (campaign, occurrence);
                    if matches!(state, AttemptState::Dispatched { .. }) {
                        self.replay_bucket_take(inner, &key.0, at_ms);
                    }
                    if matches!(
                        state,
                        AttemptState::Dispatched { .. } | AttemptState::Acked { .. }
                    ) {
                        inner
                            .tokens
                            .insert(format!("{}/{}", key.0, key.1), key.clone());
                    }
                    inner.attempts.insert(key, state);
                }
            }
        }
        self.update_in_flight(inner);
        self.telemetry.count_by("recovered_records", replayed);
    }

    /// Repeats a journaled dispatch's admission: one bucket take and one
    /// quota spend, so the bucket's refill accounting advances exactly as
    /// it did in the original instance. A rate-limited dispatch needs no
    /// replay: a refused take leaves nothing a later take or probe reads.
    fn replay_bucket_take(&self, inner: &mut Inner, campaign: &str, at_ms: u64) {
        let Some(app) = inner.campaigns.get(campaign).map(|s| s.app.clone()) else {
            return;
        };
        if let Some(bucket) = inner.buckets.get_mut(&app) {
            let _ = bucket.try_take(at_ms);
        }
        *inner.dispatch_counts.entry(app).or_insert(0) += 1;
    }
}

fn take_seq(inner: &mut Inner) -> u64 {
    let seq = inner.next_seq;
    inner.next_seq += 1;
    seq
}

fn min_opt(current: Option<Timestamp>, candidate: Timestamp) -> Option<Timestamp> {
    match current {
        Some(t) if t <= candidate => Some(t),
        _ => Some(candidate),
    }
}
