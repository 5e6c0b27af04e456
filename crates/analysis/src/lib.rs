//! Static verification of SenSocial filter/subscription/multicast plans.
//!
//! SenSocial's distributed filters (paper §3.1) are `(modality, operator,
//! value)` triples that historically were only exercised when a sample
//! arrived — an ill-typed comparison, an unsatisfiable condition set or a
//! privacy-violating conditional modality failed silently at stream time.
//! This crate moves those failures to registration time. [`analyze`] runs
//! five passes over a [`FilterPlan`]:
//!
//! 1. **Type checking** ([`typeck`]): every condition's operator/value pair
//!    must fit the left-hand side's [`domain::ValueDomain`].
//! 2. **Satisfiability + normalization** ([`sat`]): interval/set reasoning
//!    per `(subject, lhs)` group rejects provably-empty condition sets and
//!    emits a canonical, semantics-preserving plan.
//! 3. **Placement** ([`placement`]): cross-user conditions must live
//!    server-side, and every conditional modality must be samplable and
//!    privacy-permitted at the granularity it needs.
//! 4. **Information flow** ([`flow`]): sensitivity labels
//!    (`{aggregated, privacy_filtered, raw}`) propagate from every sensor
//!    source through the plan to its sink; a raw sensitive modality
//!    reaching an external sink through an OSN-coupled plan without an
//!    authorized privacy stage rejects with
//!    [`DiagnosticCode::PrivacyFlow`].
//! 5. **Dependency cycles** ([`graph`]): the server feeds multicast and
//!    subscription plans into a cross-user [`DependencyGraph`] and rejects
//!    plans that would close a cycle.
//!
//! Two consumers sit downstream of verification: [`compile`] lowers
//! admitted (normalized) filters into the flat
//! [`compile::PredicateProgram`] bytecode the runtime evaluates per
//! sample instead of tree-walking, and [`report`] renders every plan's
//! flow verdict plus the dependency edges as a byte-stable JSON
//! [`report::AnalysisReport`].
//!
//! Findings are [`PlanDiagnostic`]s (defined in `sensocial-types` so they
//! travel over the wire inside configuration acks); rejection surfaces as
//! [`sensocial_types::Error::PlanRejected`] through [`AnalysisError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod domain;
pub mod flow;
pub mod graph;
pub mod placement;
pub mod report;
pub mod sat;
pub mod typeck;

use sensocial_types::filter::Filter;
use sensocial_types::{Error, Granularity, Modality, PlanDiagnostic};

pub use compile::{compile, PredicateProgram};
pub use flow::{FlowLabel, FlowSink, FlowSource, FlowVerdict};
pub use graph::DependencyGraph;
pub use report::AnalysisReport;
pub use sensocial_types::{DiagnosticCode, DiagnosticSeverity};

/// Where a filter plan will be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On the device, gating a locally-sunk stream.
    DeviceLocal,
    /// On the device, gating a stream uplinked to the server.
    DeviceUplinked,
    /// On the server: a subscription or aggregator filter over uplinks.
    Server,
    /// A multicast template: distributed to member devices with the
    /// cross-user part retained and enforced server-side.
    MulticastTemplate,
}

impl Placement {
    /// Whether cross-user conditions can be evaluated under this placement.
    /// Only the server's filter manager sees other users' context.
    #[must_use]
    pub fn allows_cross_user(self) -> bool {
        matches!(self, Placement::Server | Placement::MulticastTemplate)
    }
}

/// A filter plan submitted for verification: the filter, where it will
/// run, and — for device placements — what the stream samples. The flow
/// fields ([`FilterPlan::sink`], [`FilterPlan::osn_coupled`],
/// [`FilterPlan::sources`], [`FilterPlan::aggregated`]) refine the
/// information-flow pass; admission paths set them through the builders,
/// and conservative defaults are derived from the placement otherwise.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    /// The conjunction of conditions to verify.
    pub filter: Filter,
    /// Where the filter will be evaluated.
    pub placement: Placement,
    /// The stream's own `(modality, granularity)` when the plan drives
    /// device sampling; `None` for pure server-side subscriptions.
    pub sampling: Option<(Modality, Granularity)>,
    /// Where the plan's output goes; `None` derives the placement's
    /// natural sink (device-local, uplink, subscriber).
    pub sink: Option<FlowSink>,
    /// Whether the plan is OSN-coupled; `None` derives it from the
    /// filter's OSN conditions. Clients pass the stream's effective mode
    /// here, which also covers social-event-based sampling without an OSN
    /// condition in the filter.
    pub osn_coupled: Option<bool>,
    /// Upstream sources feeding the plan beyond its own sampling — the
    /// server passes the specs of the uplinked streams a subscription or
    /// aggregator reads from.
    pub sources: Vec<FlowSource>,
    /// Whether the plan's output is aggregated across streams/users before
    /// the sink (lowers screened labels to `aggregated` in the flow pass).
    pub aggregated: bool,
}

impl FilterPlan {
    /// A plan for a device stream (uplinked or local — cross-user
    /// conditions are misplaced either way).
    #[must_use]
    pub fn device(modality: Modality, granularity: Granularity, filter: Filter) -> Self {
        FilterPlan {
            filter,
            placement: Placement::DeviceUplinked,
            sampling: Some((modality, granularity)),
            sink: None,
            osn_coupled: None,
            sources: Vec::new(),
            aggregated: false,
        }
    }

    /// A plan for a server-side subscription or aggregator filter.
    #[must_use]
    pub fn server(filter: Filter) -> Self {
        FilterPlan {
            filter,
            placement: Placement::Server,
            sampling: None,
            sink: None,
            osn_coupled: None,
            sources: Vec::new(),
            aggregated: false,
        }
    }

    /// A plan for a multicast template: sampled on member devices, with
    /// cross-user conditions allowed (they stay server-side when the
    /// template is distributed).
    #[must_use]
    pub fn multicast(modality: Modality, granularity: Granularity, filter: Filter) -> Self {
        FilterPlan {
            filter,
            placement: Placement::MulticastTemplate,
            sampling: Some((modality, granularity)),
            sink: None,
            osn_coupled: None,
            sources: Vec::new(),
            aggregated: false,
        }
    }

    /// Overrides the sink the flow pass checks against.
    #[must_use]
    pub fn sinking(mut self, sink: FlowSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Overrides the OSN-coupling the flow pass assumes (clients pass the
    /// stream's effective mode; the default derives it from the filter).
    #[must_use]
    pub fn coupled_to_osn(mut self, coupled: bool) -> Self {
        self.osn_coupled = Some(coupled);
        self
    }

    /// Adds an upstream source feeding the plan.
    #[must_use]
    pub fn with_source(mut self, source: FlowSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Marks the plan's output as aggregated before the sink.
    #[must_use]
    pub fn aggregating(mut self) -> Self {
        self.aggregated = true;
        self
    }
}

/// Read-only view of a privacy policy, implemented by
/// `sensocial::PrivacyPolicyManager` (kept as a trait so this crate does
/// not depend on the middleware runtime).
pub trait PrivacyView {
    /// Whether `modality` may be disclosed at `granularity`.
    fn is_allowed(&self, modality: Modality, granularity: Granularity) -> bool;
}

/// The environment a plan is verified against.
#[derive(Default, Clone, Copy)]
pub struct AnalysisEnv<'a> {
    /// The device's privacy policy, when known.
    pub privacy: Option<&'a dyn PrivacyView>,
    /// The modalities the target device can sample, when known (`None`
    /// means "assume all").
    pub samplable: Option<&'a [Modality]>,
}

impl<'a> AnalysisEnv<'a> {
    /// An environment that checks types, satisfiability and placement
    /// only.
    #[must_use]
    pub fn new() -> Self {
        AnalysisEnv::default()
    }

    /// Adds a privacy policy to screen sampled modalities against.
    #[must_use]
    pub fn with_privacy(mut self, privacy: &'a dyn PrivacyView) -> Self {
        self.privacy = Some(privacy);
        self
    }

    /// Restricts the modalities the target device can sample.
    #[must_use]
    pub fn with_samplable(mut self, samplable: &'a [Modality]) -> Self {
        self.samplable = Some(samplable);
        self
    }
}

impl std::fmt::Debug for AnalysisEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisEnv")
            .field("privacy", &self.privacy.is_some())
            .field("samplable", &self.samplable)
            .finish()
    }
}

/// A verified, normalized plan.
#[derive(Debug, Clone)]
#[must_use = "the normalized filter replaces the submitted one"]
pub struct Analysis {
    /// Canonical form of the submitted filter; install this, not the
    /// original.
    pub filter: Filter,
    /// Warning-severity findings (redundant or always-true conditions).
    pub warnings: Vec<PlanDiagnostic>,
    /// Privacy-policy violations. The plan is otherwise sound; SenSocial's
    /// client pauses such streams instead of rejecting them (the policy
    /// may later be relaxed), so these are reported separately. Strict
    /// callers use [`Analysis::require_privacy`].
    pub privacy_violations: Vec<PlanDiagnostic>,
    /// The information-flow verdict: per-source sensitivity labels at the
    /// plan's sink. Flow *violations* reject the plan outright (unlike
    /// `privacy_violations`, there is no pause-and-resume path that would
    /// re-run this analysis), so an `Analysis` always carries a clean
    /// verdict.
    pub flow: FlowVerdict,
}

impl Analysis {
    /// Whether the privacy policy permits the plan as submitted.
    pub fn passes_privacy(&self) -> bool {
        self.privacy_violations.is_empty()
    }

    /// Promotes privacy violations to a rejection.
    pub fn require_privacy(self) -> Result<Analysis, AnalysisError> {
        if self.privacy_violations.is_empty() {
            Ok(self)
        } else {
            Err(AnalysisError {
                diagnostics: self.privacy_violations,
            })
        }
    }
}

/// A rejected plan, carrying every error-severity diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// What was wrong, most fundamental findings first.
    pub diagnostics: Vec<PlanDiagnostic>,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "filter plan rejected")?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            let sep = if i == 0 { ": " } else { "; " };
            write!(f, "{sep}{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalysisError {}

impl From<AnalysisError> for Error {
    fn from(e: AnalysisError) -> Self {
        Error::PlanRejected(e.diagnostics)
    }
}

/// Verifies `plan` against `env`.
///
/// Returns the normalized [`Analysis`] when the plan is type-correct,
/// satisfiable and correctly placed. Privacy violations do *not* reject on
/// their own (see [`Analysis::privacy_violations`]) — but when the plan is
/// rejected for other reasons they are included in the diagnostics so the
/// author sees everything at once.
pub fn analyze(plan: &FilterPlan, env: &AnalysisEnv<'_>) -> Result<Analysis, AnalysisError> {
    let type_errors = typeck::check(&plan.filter);
    if !type_errors.is_empty() {
        // Satisfiability arithmetic assumes well-typed values; stop here.
        return Err(AnalysisError {
            diagnostics: type_errors,
        });
    }

    let placed = placement::check(plan, env);
    let mut errors = placed.errors;
    let (filter, warnings) = match sat::normalize(&plan.filter) {
        Ok(outcome) => (outcome.filter, outcome.warnings),
        Err(diags) => {
            errors.extend(diags);
            (Filter::pass_all(), Vec::new())
        }
    };

    // The flow pass describes the plan as it will be installed, so it runs
    // over the normalized filter (normalization preserves OSN presence
    // gates, so the coupling derivation sees the same truth either way).
    let flow_plan = FilterPlan {
        filter: filter.clone(),
        ..plan.clone()
    };
    let (flow, flow_errors) = flow::check(&flow_plan, env);
    errors.extend(flow_errors);

    if errors.is_empty() {
        Ok(Analysis {
            filter,
            warnings,
            privacy_violations: placed.privacy,
            flow,
        })
    } else {
        errors.extend(placed.privacy);
        Err(AnalysisError {
            diagnostics: errors,
        })
    }
}

/// Like [`analyze`], but privacy violations also reject the plan. Used by
/// server-side paths that have no pause semantics to fall back on.
pub fn analyze_strict(plan: &FilterPlan, env: &AnalysisEnv<'_>) -> Result<Analysis, AnalysisError> {
    analyze(plan, env).and_then(Analysis::require_privacy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::filter::{Condition, ConditionLhs, Operator};
    use sensocial_types::UserId;

    struct DenyAll;
    impl PrivacyView for DenyAll {
        fn is_allowed(&self, _m: Modality, _g: Granularity) -> bool {
            false
        }
    }

    fn device_plan(conditions: Vec<Condition>) -> FilterPlan {
        FilterPlan::device(
            Modality::Location,
            Granularity::Raw,
            Filter::new(conditions),
        )
    }

    #[test]
    fn accepts_and_normalizes_a_sound_plan() {
        let analysis = analyze(
            &device_plan(vec![
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 8),
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 5),
                Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
            ]),
            &AnalysisEnv::new(),
        )
        .expect("sound plan");
        assert_eq!(analysis.filter.conditions.len(), 2);
        assert!(analysis.passes_privacy());
        assert!(analysis
            .warnings
            .iter()
            .any(|w| w.code == DiagnosticCode::Redundant));
    }

    #[test]
    fn rejects_type_mismatch() {
        let err = analyze(
            &device_plan(vec![Condition::new(
                ConditionLhs::HourOfDay,
                Operator::GreaterThan,
                "walking",
            )]),
            &AnalysisEnv::new(),
        )
        .expect_err("ill-typed");
        assert_eq!(err.diagnostics[0].code, DiagnosticCode::TypeMismatch);
    }

    #[test]
    fn rejects_unsatisfiable_plan() {
        let err = analyze(
            &device_plan(vec![
                Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 20),
                Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 5),
            ]),
            &AnalysisEnv::new(),
        )
        .expect_err("unsatisfiable");
        assert_eq!(err.diagnostics[0].code, DiagnosticCode::Unsatisfiable);
    }

    #[test]
    fn rejects_misplaced_cross_user_condition() {
        let err = analyze(
            &device_plan(vec![Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::Equals,
                "walking",
            )
            .about(UserId::new("bob"))]),
            &AnalysisEnv::new(),
        )
        .expect_err("misplaced");
        assert_eq!(err.diagnostics[0].code, DiagnosticCode::MisplacedCondition);
    }

    #[test]
    fn privacy_violations_separate_from_rejection() {
        let deny = DenyAll;
        let env = AnalysisEnv::new().with_privacy(&deny);
        let analysis = analyze(&device_plan(Vec::new()), &env).expect("otherwise sound");
        assert!(!analysis.passes_privacy());
        assert_eq!(
            analysis.privacy_violations[0].code,
            DiagnosticCode::PrivacyViolation
        );
        let err = analyze_strict(&device_plan(Vec::new()), &env).expect_err("strict rejects");
        assert_eq!(err.diagnostics[0].code, DiagnosticCode::PrivacyViolation);
        let wire: Error = err.into();
        assert!(matches!(wire, Error::PlanRejected(_)));
    }

    #[test]
    fn privacy_flow_rejects_coupled_sensitive_plan_under_denying_policy() {
        struct AllowAll;
        impl PrivacyView for AllowAll {
            fn is_allowed(&self, _m: Modality, _g: Granularity) -> bool {
                true
            }
        }
        let osn_plan = || {
            FilterPlan::device(
                Modality::Location,
                Granularity::Raw,
                Filter::new(vec![Condition::new(
                    ConditionLhs::OsnActivity,
                    Operator::Equals,
                    "active",
                )]),
            )
            .sinking(FlowSink::Uplink)
            .coupled_to_osn(true)
        };

        let deny = DenyAll;
        let err = analyze(&osn_plan(), &AnalysisEnv::new().with_privacy(&deny))
            .expect_err("denying policy must fail the flow check, not pause");
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::PrivacyFlow));

        let allow = AllowAll;
        let analysis = analyze(&osn_plan(), &AnalysisEnv::new().with_privacy(&allow))
            .expect("allowing policy authorizes the coupling");
        assert!(analysis.flow.osn_coupled);
        assert_eq!(analysis.flow.peak_label(), Some(FlowLabel::PrivacyFiltered));
    }

    #[test]
    fn cyclic_multicast_dependency_is_rejected() {
        // Multicast 1: alice's members depend on bob; multicast 2 would
        // make bob depend on alice — the graph closes and must reject.
        let mut g = DependencyGraph::new();
        g.depend(&UserId::new("alice"), &UserId::new("bob"));
        g.depend(&UserId::new("bob"), &UserId::new("alice"));
        let diag = g.cycle_diagnostic().expect("cycle");
        assert_eq!(diag.code, DiagnosticCode::DependencyCycle);
    }
}
