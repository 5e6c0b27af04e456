//! Distributed stream filters.
//!
//! A filter "consists of a set of conditions where each condition comprises
//! of a modality, a comparison operator, and a value" (paper §3.1).
//! Conditions can reference physical context ("when the user is walking"),
//! time intervals, and OSN activity ("when the user likes a page") — and,
//! on the server, context belonging to *another* user ("send A's GPS only
//! while B is walking").
//!
//! The model lives in `sensocial-types` (rather than the core crate) so the
//! static plan verifier in `sensocial-analysis` can speak the same
//! vocabulary without depending on the middleware runtime. Evaluation is
//! *typed*: an operator/value mismatch (e.g. `HourOfDay > "walking"`)
//! returns an [`EvalError`] instead of silently evaluating false, so the
//! runtime verdict always agrees with the static analyzer's.

use sensocial_runtime::json::Value;
use sensocial_runtime::{json_enum, json_struct, Timestamp};

use crate::{ClassifiedContext, ContextSnapshot, Modality, OsnAction, UserId};

/// Comparison operators available in filter conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operator {
    /// Values are equal.
    Equals,
    /// Values differ.
    NotEquals,
    /// Left value is numerically greater.
    GreaterThan,
    /// Left value is numerically smaller.
    LessThan,
}

json_enum!(Operator {
    Equals = "equals",
    NotEquals = "not_equals",
    GreaterThan = "greater_than",
    LessThan = "less_than",
});

impl Operator {
    /// A short human-readable symbol for diagnostics (`==`, `!=`, `>`, `<`).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Operator::Equals => "==",
            Operator::NotEquals => "!=",
            Operator::GreaterThan => ">",
            Operator::LessThan => "<",
        }
    }

    /// Whether the operator imposes a numeric ordering rather than an
    /// (in)equality test.
    #[must_use]
    pub fn is_ordering(self) -> bool {
        matches!(self, Operator::GreaterThan | Operator::LessThan)
    }
}

/// What a condition inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConditionLhs {
    /// The classified physical activity (`still`/`walking`/`running`).
    PhysicalActivity,
    /// The classified audio environment (`silent`/`not_silent`).
    AudioEnvironment,
    /// The classified place name (e.g. `Paris`), `unknown` when outside
    /// the gazetteer.
    Place,
    /// The classified WiFi access-point count.
    WifiDensity,
    /// The classified Bluetooth neighbour count.
    BluetoothDensity,
    /// Hour of (virtual) day, 0–23 — the paper's time-interval conditions.
    HourOfDay,
    /// Whether an OSN action is currently being processed (`active` /
    /// `inactive`) — the Facebook Sensor Map filter.
    OsnActivity,
    /// The kind of the OSN action being processed (`post`/`comment`/`like`).
    OsnActionKind,
    /// The topic of the OSN action being processed (e.g. `football`).
    OsnTopic,
}

json_enum!(ConditionLhs {
    PhysicalActivity = "physical_activity",
    AudioEnvironment = "audio_environment",
    Place = "place",
    WifiDensity = "wifi_density",
    BluetoothDensity = "bluetooth_density",
    HourOfDay = "hour_of_day",
    OsnActivity = "osn_activity",
    OsnActionKind = "osn_action_kind",
    OsnTopic = "osn_topic",
});

impl ConditionLhs {
    /// The sensing modality this condition needs sampled (and classified)
    /// to be evaluable, if any. Conditions over modalities other than the
    /// stream's own cause those *conditional modalities* to be sampled
    /// continuously (paper §4, "Sensor Sampling") and are screened by the
    /// privacy manager alongside the stream's modality.
    #[must_use]
    pub fn required_modality(self) -> Option<Modality> {
        match self {
            ConditionLhs::PhysicalActivity => Some(Modality::Accelerometer),
            ConditionLhs::AudioEnvironment => Some(Modality::Microphone),
            ConditionLhs::Place => Some(Modality::Location),
            ConditionLhs::WifiDensity => Some(Modality::Wifi),
            ConditionLhs::BluetoothDensity => Some(Modality::Bluetooth),
            ConditionLhs::HourOfDay
            | ConditionLhs::OsnActivity
            | ConditionLhs::OsnActionKind
            | ConditionLhs::OsnTopic => None,
        }
    }

    /// Whether this condition inspects OSN activity rather than physical
    /// or temporal context.
    #[must_use]
    pub fn is_osn(self) -> bool {
        matches!(
            self,
            ConditionLhs::OsnActivity | ConditionLhs::OsnActionKind | ConditionLhs::OsnTopic
        )
    }

    /// A stable display name used in diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ConditionLhs::PhysicalActivity => "physical_activity",
            ConditionLhs::AudioEnvironment => "audio_environment",
            ConditionLhs::Place => "place",
            ConditionLhs::WifiDensity => "wifi_density",
            ConditionLhs::BluetoothDensity => "bluetooth_density",
            ConditionLhs::HourOfDay => "hour_of_day",
            ConditionLhs::OsnActivity => "osn_activity",
            ConditionLhs::OsnActionKind => "osn_action_kind",
            ConditionLhs::OsnTopic => "osn_topic",
        }
    }

    /// Whether this left-hand side lives in the numeric value domain
    /// (densities, hour of day) rather than the categorical one.
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ConditionLhs::WifiDensity | ConditionLhs::BluetoothDensity | ConditionLhs::HourOfDay
        )
    }

    /// Fetches the categorical actual value this lhs inspects from `ctx`
    /// (`None` = no data recorded yet). The single fetch point shared by
    /// the tree-walking interpreter ([`Condition::evaluate`]) and the
    /// compiled `PredicateProgram` evaluator in `sensocial-core`, so the
    /// two agree by construction. Numeric left-hand sides return `None`;
    /// use [`ConditionLhs::fetch_number`] for those.
    ///
    /// The value borrows from the snapshot, the OSN action or a static
    /// name, so a check allocates nothing.
    #[must_use]
    pub fn fetch_string<'c>(self, ctx: &EvalContext<'c>) -> Option<&'c str> {
        match self {
            ConditionLhs::PhysicalActivity => ctx.snapshot.activity().map(|a| a.name()),
            ConditionLhs::AudioEnvironment => match ctx.snapshot.classified(Modality::Microphone) {
                Some((_, ClassifiedContext::Audio(a))) => Some(a.name()),
                _ => None,
            },
            ConditionLhs::Place => Some(ctx.snapshot.place().unwrap_or("unknown")),
            ConditionLhs::OsnActivity => Some(if ctx.osn_action.is_some() {
                "active"
            } else {
                "inactive"
            }),
            ConditionLhs::OsnActionKind => ctx.osn_action.map(|a| a.kind.name()),
            ConditionLhs::OsnTopic => ctx.osn_action.and_then(|a| a.topic.as_deref()),
            ConditionLhs::WifiDensity
            | ConditionLhs::BluetoothDensity
            | ConditionLhs::HourOfDay => None,
        }
    }

    /// Fetches the numeric actual value this lhs inspects from `ctx`
    /// (`None` = no data recorded yet, or a categorical lhs). Shared by
    /// the interpreter and the compiled evaluator; see
    /// [`ConditionLhs::fetch_string`].
    #[must_use]
    pub fn fetch_number(self, ctx: &EvalContext<'_>) -> Option<f64> {
        match self {
            ConditionLhs::WifiDensity => ctx
                .snapshot
                .classified(Modality::Wifi)
                .and_then(|(_, c)| c.value_string().parse::<f64>().ok()),
            ConditionLhs::BluetoothDensity => ctx
                .snapshot
                .classified(Modality::Bluetooth)
                .and_then(|(_, c)| c.value_string().parse::<f64>().ok()),
            ConditionLhs::HourOfDay => Some(f64::from(ctx.now.hour_of_day())),
            _ => None,
        }
    }
}

/// Why a condition could not be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// A numeric left-hand side was compared against a non-numeric value.
    NonNumericValue,
    /// A categorical left-hand side was compared against a non-string value.
    NonStringValue,
    /// `>` / `<` applied to a categorical left-hand side, which has no
    /// meaningful ordering.
    OrderingOnCategorical,
}

/// A typed evaluation error: the condition's value does not fit the
/// left-hand side's domain, so no boolean verdict exists. The static
/// analyzer rejects exactly the plans whose conditions can return this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// What the condition inspected.
    pub lhs: ConditionLhs,
    /// The operator applied.
    pub op: Operator,
    /// The offending comparison value, rendered as JSON.
    pub value: String,
    /// Why evaluation failed.
    pub kind: EvalErrorKind,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let why = match self.kind {
            EvalErrorKind::NonNumericValue => "expects a numeric value",
            EvalErrorKind::NonStringValue => "expects a string value",
            EvalErrorKind::OrderingOnCategorical => "has no ordering",
        };
        write!(
            f,
            "cannot evaluate `{} {} {}`: {} {}",
            self.lhs.name(),
            self.op.symbol(),
            self.value,
            self.lhs.name(),
            why
        )
    }
}

impl std::error::Error for EvalError {}

/// Everything a condition evaluation can see.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// The device's latest context snapshot.
    pub snapshot: &'a ContextSnapshot,
    /// Current virtual time (for [`ConditionLhs::HourOfDay`]).
    pub now: Timestamp,
    /// The OSN action being processed, when evaluation happens on the
    /// trigger path.
    pub osn_action: Option<&'a OsnAction>,
}

/// One `(lhs, operator, value)` condition, optionally about another user.
///
/// # Example
///
/// ```
/// use sensocial_types::filter::{Condition, ConditionLhs, Operator};
///
/// // The paper's example: obtain GPS data only when the user is walking.
/// let c = Condition::new(
///     ConditionLhs::PhysicalActivity,
///     Operator::Equals,
///     "walking",
/// );
/// assert_eq!(
///     c.lhs.required_modality(),
///     Some(sensocial_types::Modality::Accelerometer),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// What is inspected.
    pub lhs: ConditionLhs,
    /// How it is compared.
    pub op: Operator,
    /// The comparison value: a string for categorical conditions, a number
    /// for [`ConditionLhs::HourOfDay`] and the density conditions.
    pub value: Value,
    /// When set, the condition is about *that* user's context and can only
    /// be evaluated by the server's filter manager ("one can create a
    /// filter that sends user's GPS data only when another user is
    /// walking", paper §3.1). `None` means the stream's own user.
    pub subject: Option<UserId>,
}

json_struct!(Condition {
    lhs,
    op,
    value,
    subject,
});

impl Condition {
    /// Creates a condition about the stream's own user.
    #[must_use]
    pub fn new(lhs: ConditionLhs, op: Operator, value: impl Into<Value>) -> Self {
        Condition {
            lhs,
            op,
            value: value.into(),
            subject: None,
        }
    }

    /// Makes the condition about another user's context (builder-style).
    #[must_use]
    pub fn about(mut self, subject: UserId) -> Self {
        self.subject = Some(subject);
        self
    }

    /// Whether this condition references another user's context.
    pub fn is_cross_user(&self) -> bool {
        self.subject.is_some()
    }

    /// Evaluates the condition against `ctx`.
    ///
    /// Context conditions with no recorded value evaluate to `Ok(false)`
    /// (the conditional modality has not produced data yet, so the guard
    /// cannot be known to hold). OSN conditions evaluate against the
    /// in-flight action; with no action in flight, `OsnActivity equals
    /// active` is `false` and `… equals inactive` is `true`.
    ///
    /// A value that does not fit the left-hand side's domain — a string
    /// compared against [`ConditionLhs::HourOfDay`], an ordering operator
    /// on a categorical lhs — returns an [`EvalError`] rather than a silent
    /// `false`; plans vetted by `sensocial-analysis` never produce one.
    pub fn evaluate(&self, ctx: &EvalContext<'_>) -> Result<bool, EvalError> {
        if self.lhs.is_numeric() {
            self.compare_number(self.lhs.fetch_number(ctx))
        } else {
            self.compare_string(self.lhs.fetch_string(ctx))
        }
    }

    fn eval_error(&self, kind: EvalErrorKind) -> EvalError {
        EvalError {
            lhs: self.lhs,
            op: self.op,
            value: self.value.to_string(),
            kind,
        }
    }

    fn compare_string(&self, actual: Option<&str>) -> Result<bool, EvalError> {
        let expected = match &self.value {
            Value::String(s) => s.as_str(),
            _ => return Err(self.eval_error(EvalErrorKind::NonStringValue)),
        };
        if self.op.is_ordering() {
            return Err(self.eval_error(EvalErrorKind::OrderingOnCategorical));
        }
        let Some(actual) = actual else {
            return Ok(false);
        };
        Ok(match self.op {
            Operator::Equals => actual == expected,
            Operator::NotEquals => actual != expected,
            Operator::GreaterThan | Operator::LessThan => unreachable!("checked above"),
        })
    }

    fn compare_number(&self, actual: Option<f64>) -> Result<bool, EvalError> {
        let Some(expected) = self.value.as_f64() else {
            return Err(self.eval_error(EvalErrorKind::NonNumericValue));
        };
        let Some(actual) = actual else {
            return Ok(false);
        };
        Ok(match self.op {
            Operator::Equals => (actual - expected).abs() < f64::EPSILON,
            Operator::NotEquals => (actual - expected).abs() >= f64::EPSILON,
            Operator::GreaterThan => actual > expected,
            Operator::LessThan => actual < expected,
        })
    }
}

/// A conjunction of [`Condition`]s attached to a stream.
///
/// An empty filter passes everything. Filters are serializable because they
/// travel inside remotely-pushed stream configurations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    /// The conditions, all of which must hold.
    pub conditions: Vec<Condition>,
}

json_struct!(Filter { conditions });

impl Filter {
    /// Creates a filter from conditions.
    #[must_use]
    pub fn new(conditions: Vec<Condition>) -> Self {
        Filter { conditions }
    }

    /// The always-pass filter.
    #[must_use]
    pub fn pass_all() -> Self {
        Filter::default()
    }

    /// Whether the filter has no conditions.
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }

    /// Evaluates the *local* (own-user) conditions; cross-user conditions
    /// are skipped here and enforced by the server's filter manager.
    ///
    /// A definitive `false` from an evaluable condition short-circuits
    /// before any later ill-typed condition can error, mirroring `&&`.
    ///
    /// No shipping path calls this interpreter: the middleware runs the
    /// compiled program (`sensocial::eval_local`). It stays as the
    /// reference the compiled == interpreted tests compare against.
    pub fn evaluate_local(&self, ctx: &EvalContext<'_>) -> Result<bool, EvalError> {
        for c in self.conditions.iter().filter(|c| !c.is_cross_user()) {
            if !c.evaluate(ctx)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluates every condition, resolving cross-user subjects through
    /// `lookup` (the server's per-user context table). A cross-user
    /// condition whose subject has no context yet fails.
    ///
    /// Like [`Filter::evaluate_local`], this is the reference for the
    /// compiled evaluator (`sensocial::eval_full`), not a shipping path.
    pub fn evaluate_full(
        &self,
        ctx: &EvalContext<'_>,
        lookup: &dyn Fn(&UserId) -> Option<ContextSnapshot>,
    ) -> Result<bool, EvalError> {
        for c in &self.conditions {
            let holds = match &c.subject {
                None => c.evaluate(ctx)?,
                Some(user) => match lookup(user) {
                    Some(snapshot) => {
                        let sub_ctx = EvalContext {
                            snapshot: &snapshot,
                            now: ctx.now,
                            osn_action: ctx.osn_action,
                        };
                        c.evaluate(&sub_ctx)?
                    }
                    None => false,
                },
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Splits the filter into its own-user (device-evaluable) part and its
    /// cross-user part. The server uses this to distribute multicast
    /// templates: the local part travels to each member device, the
    /// cross-user part stays behind and is enforced on the uplink path.
    #[must_use]
    pub fn partition_cross_user(&self) -> (Filter, Filter) {
        let (cross, local): (Vec<Condition>, Vec<Condition>) = self
            .conditions
            .iter()
            .cloned()
            .partition(Condition::is_cross_user);
        (Filter::new(local), Filter::new(cross))
    }

    /// Modalities that must be sampled continuously for the filter to be
    /// evaluable on the device (own-user conditions only), excluding
    /// `own_modality` which the stream samples anyway.
    pub fn conditional_modalities(&self, own_modality: Modality) -> Vec<Modality> {
        let mut out: Vec<Modality> = self
            .conditions
            .iter()
            .filter(|c| !c.is_cross_user())
            .filter_map(|c| c.lhs.required_modality())
            .filter(|m| *m != own_modality)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether any condition inspects OSN activity — such streams are
    /// driven by OSN triggers rather than the duty cycle.
    pub fn has_osn_condition(&self) -> bool {
        self.conditions.iter().any(|c| c.lhs.is_osn())
    }

    /// Whether any condition references another user's context.
    pub fn has_cross_user_condition(&self) -> bool {
        self.conditions.iter().any(Condition::is_cross_user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifiedContext, ContextData, PhysicalActivity};
    use sensocial_runtime::Timestamp;

    fn snapshot_with_activity(activity: PhysicalActivity) -> ContextSnapshot {
        let mut s = ContextSnapshot::new();
        s.record(
            Timestamp::from_secs(1),
            ContextData::Classified(ClassifiedContext::Activity(activity)),
        );
        s
    }

    fn ctx<'a>(snapshot: &'a ContextSnapshot, action: Option<&'a OsnAction>) -> EvalContext<'a> {
        EvalContext {
            snapshot,
            now: Timestamp::from_secs(10 * 3600),
            osn_action: action,
        }
    }

    fn passes(filter: &Filter, ctx: &EvalContext<'_>) -> bool {
        filter.evaluate_local(ctx).expect("well-typed filter")
    }

    #[test]
    fn paper_example_gps_when_walking() {
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::PhysicalActivity,
            Operator::Equals,
            "walking",
        )]);
        let walking = snapshot_with_activity(PhysicalActivity::Walking);
        let still = snapshot_with_activity(PhysicalActivity::Still);
        assert!(passes(&filter, &ctx(&walking, None)));
        assert!(!passes(&filter, &ctx(&still, None)));
        assert_eq!(
            filter.conditional_modalities(Modality::Location),
            vec![Modality::Accelerometer],
            "the unrelated accelerometer stream has to be sensed"
        );
    }

    #[test]
    fn missing_context_fails_condition() {
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::PhysicalActivity,
            Operator::Equals,
            "walking",
        )]);
        let empty = ContextSnapshot::new();
        assert!(!passes(&filter, &ctx(&empty, None)));
    }

    #[test]
    fn hour_of_day_conditions() {
        let business_hours = Filter::new(vec![
            Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 8),
            Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 17),
        ]);
        let snapshot = ContextSnapshot::new();
        let at = |hour: u64| EvalContext {
            snapshot: &snapshot,
            now: Timestamp::from_secs(hour * 3600),
            osn_action: None,
        };
        assert!(passes(&business_hours, &at(10)));
        assert!(!passes(&business_hours, &at(7)));
        assert!(!passes(&business_hours, &at(20)));
    }

    #[test]
    fn osn_activity_condition() {
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::OsnActivity,
            Operator::Equals,
            "active",
        )]);
        assert!(filter.has_osn_condition());
        let snapshot = ContextSnapshot::new();
        let action = OsnAction::post(UserId::new("u"), "hi", Timestamp::ZERO);
        assert!(passes(&filter, &ctx(&snapshot, Some(&action))));
        assert!(!passes(&filter, &ctx(&snapshot, None)));
    }

    #[test]
    fn osn_topic_and_kind_conditions() {
        let football_posts = Filter::new(vec![
            Condition::new(ConditionLhs::OsnActionKind, Operator::Equals, "post"),
            Condition::new(ConditionLhs::OsnTopic, Operator::Equals, "football"),
        ]);
        let snapshot = ContextSnapshot::new();
        let on_topic =
            OsnAction::post(UserId::new("u"), "goal!", Timestamp::ZERO).with_topic("football");
        let off_topic =
            OsnAction::post(UserId::new("u"), "song", Timestamp::ZERO).with_topic("music");
        assert!(passes(&football_posts, &ctx(&snapshot, Some(&on_topic))));
        assert!(!passes(&football_posts, &ctx(&snapshot, Some(&off_topic))));
        assert!(!passes(&football_posts, &ctx(&snapshot, None)));
    }

    #[test]
    fn cross_user_conditions_skipped_locally_enforced_fully() {
        let other = UserId::new("bob");
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::PhysicalActivity,
            Operator::Equals,
            "walking",
        )
        .about(other.clone())]);
        assert!(filter.has_cross_user_condition());

        let own = ContextSnapshot::new();
        // Locally the condition is ignored: passes.
        assert!(passes(&filter, &ctx(&own, None)));

        // Fully: depends on bob's context.
        let bob_walking = snapshot_with_activity(PhysicalActivity::Walking);
        let found = filter
            .evaluate_full(&ctx(&own, None), &|u| {
                (u == &other).then(|| bob_walking.clone())
            })
            .expect("well-typed filter");
        assert!(found);
        let missing = filter
            .evaluate_full(&ctx(&own, None), &|_| None)
            .expect("well-typed filter");
        assert!(!missing);
    }

    #[test]
    fn numeric_density_conditions() {
        let crowded = Filter::new(vec![Condition::new(
            ConditionLhs::BluetoothDensity,
            Operator::GreaterThan,
            3,
        )]);
        let mut snapshot = ContextSnapshot::new();
        snapshot.record(
            Timestamp::from_secs(1),
            ContextData::Classified(ClassifiedContext::BluetoothDensity(5)),
        );
        assert!(passes(&crowded, &ctx(&snapshot, None)));
        let mut sparse = ContextSnapshot::new();
        sparse.record(
            Timestamp::from_secs(1),
            ContextData::Classified(ClassifiedContext::BluetoothDensity(1)),
        );
        assert!(!passes(&crowded, &ctx(&sparse, None)));
    }

    #[test]
    fn empty_filter_passes() {
        let snapshot = ContextSnapshot::new();
        assert!(passes(&Filter::pass_all(), &ctx(&snapshot, None)));
        assert!(Filter::pass_all().is_empty());
    }

    #[test]
    fn not_equals_operator() {
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::Place,
            Operator::NotEquals,
            "Paris",
        )]);
        let mut in_paris = ContextSnapshot::new();
        in_paris.record(
            Timestamp::from_secs(1),
            ContextData::Classified(ClassifiedContext::Place(Some("Paris".into()))),
        );
        assert!(!passes(&filter, &ctx(&in_paris, None)));
        let nowhere = ContextSnapshot::new();
        // Place defaults to "unknown" ≠ "Paris".
        assert!(passes(&filter, &ctx(&nowhere, None)));
    }

    #[test]
    fn ill_typed_comparison_is_a_typed_error_not_false() {
        // The bug class the analyzer prevents: ordering a number against a
        // string used to evaluate silently false.
        let bad = Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, "walking");
        let snapshot = ContextSnapshot::new();
        let err = bad
            .evaluate(&ctx(&snapshot, None))
            .expect_err("must not produce a verdict");
        assert_eq!(err.kind, EvalErrorKind::NonNumericValue);
        assert_eq!(err.lhs, ConditionLhs::HourOfDay);

        let bad_order = Condition::new(ConditionLhs::Place, Operator::LessThan, "Paris");
        let err = bad_order
            .evaluate(&ctx(&snapshot, None))
            .expect_err("ordering on categorical lhs");
        assert_eq!(err.kind, EvalErrorKind::OrderingOnCategorical);

        let bad_value = Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, 3);
        let err = bad_value
            .evaluate(&ctx(&snapshot, None))
            .expect_err("non-string value on categorical lhs");
        assert_eq!(err.kind, EvalErrorKind::NonStringValue);
    }

    #[test]
    fn definitive_false_short_circuits_before_later_type_error() {
        // Conjunction semantics mirror `&&`: once an evaluable condition is
        // false the filter is false, even if a later condition is ill-typed.
        let filter = Filter::new(vec![
            Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
            Condition::new(ConditionLhs::HourOfDay, Operator::Equals, "noon"),
        ]);
        let still = snapshot_with_activity(PhysicalActivity::Still);
        assert_eq!(filter.evaluate_local(&ctx(&still, None)), Ok(false));
        let walking = snapshot_with_activity(PhysicalActivity::Walking);
        assert!(filter.evaluate_local(&ctx(&walking, None)).is_err());
    }

    #[test]
    fn partition_cross_user_splits_conditions() {
        let filter = Filter::new(vec![
            Condition::new(ConditionLhs::Place, Operator::Equals, "Paris"),
            Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking")
                .about(UserId::new("bob")),
        ]);
        let (local, cross) = filter.partition_cross_user();
        assert_eq!(local.conditions.len(), 1);
        assert_eq!(cross.conditions.len(), 1);
        assert!(!local.has_cross_user_condition());
        assert!(cross.has_cross_user_condition());
    }

    #[test]
    fn filters_serialize_round_trip() {
        let filter = Filter::new(vec![
            Condition::new(ConditionLhs::Place, Operator::Equals, "Paris"),
            Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 22)
                .about(UserId::new("carol")),
        ]);
        let wire = sensocial_runtime::json::to_string(&filter);
        assert_eq!(
            wire,
            r#"{"conditions":[{"lhs":"place","op":"equals","value":"Paris","subject":null},{"lhs":"hour_of_day","op":"less_than","value":22,"subject":"carol"}]}"#
        );
        let back: Filter = sensocial_runtime::json::from_str(&wire).expect("filters decode");
        assert_eq!(back, filter);
    }
}
