//! Information-flow (taint) verification over filter plans.
//!
//! The passes in [`typeck`](crate::typeck), [`sat`](crate::sat) and
//! [`placement`](crate::placement) prove a plan well-formed in isolation;
//! this pass proves something about the *composition*: that no raw
//! sensitive modality can travel from a sensor source through an
//! OSN-coupled plan to an external sink without an authorized pass through
//! the privacy stage. Labels form a three-point lattice
//!
//! ```text
//! Aggregated  <  PrivacyFiltered  <  Raw      (ascending sensitivity)
//! ```
//!
//! and are propagated from every [`FlowSource`] through the plan's stages
//! (privacy screen, filter, optional aggregation) to its [`FlowSink`].
//! A `Raw` label at an external sink — or a merely `PrivacyFiltered`
//! sensitive label at the OSN-publish sink — is a
//! [`DiagnosticCode::PrivacyFlow`] error and rejects the plan, fail-closed.
//!
//! Who may authorize the privacy transition depends on where the plan is
//! admitted ([`PrivacyAuthority`]): client admission screens against the
//! device's live policy; a server-pushed device plan defers to the device,
//! which re-verifies at install time and nacks; a server-side plan over
//! uplinks has only *upstream* authority — the devices' screens ran before
//! this plan's OSN coupling existed, so they cannot have authorized it.

use sensocial_runtime::{json_enum, json_struct};
use sensocial_types::{DiagnosticCode, Granularity, Modality, PlanDiagnostic};

use crate::{AnalysisEnv, FilterPlan, Placement};

/// Sensitivity label of data flowing through a plan. `Ord` follows
/// ascending sensitivity, so [`FlowLabel::join`] is `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowLabel {
    /// Aggregated/joined data: safe for any sink, including OSN publish.
    Aggregated,
    /// Data that passed an authorized privacy screen.
    PrivacyFiltered,
    /// Raw sensor samples, unscreened.
    Raw,
}

json_enum!(FlowLabel {
    Aggregated = "aggregated",
    PrivacyFiltered = "privacy_filtered",
    Raw = "raw",
});

impl FlowLabel {
    /// Least upper bound: the more sensitive of the two labels.
    #[must_use]
    pub fn join(self, other: FlowLabel) -> FlowLabel {
        self.max(other)
    }

    /// Short lowercase name, stable across serialization.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlowLabel::Aggregated => "aggregated",
            FlowLabel::PrivacyFiltered => "privacy_filtered",
            FlowLabel::Raw => "raw",
        }
    }
}

/// A pipeline stage a label passes through on its way to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// The privacy screen (paper §3.3): lowers `Raw` to `PrivacyFiltered`
    /// when an authority vouches for the plan's coupling.
    Privacy,
    /// Condition evaluation: labels pass through unchanged.
    Filter,
    /// Aggregation/join across streams: anything already screened becomes
    /// `Aggregated`; `Raw` stays `Raw` (aggregation is not laundering).
    Aggregate,
}

impl FlowStage {
    /// Transfer function of the stage. Monotone in `label` for any fixed
    /// `authorized` (the lattice property tests pin this down).
    #[must_use]
    pub fn apply(self, label: FlowLabel, authorized: bool) -> FlowLabel {
        match self {
            FlowStage::Privacy => {
                if label == FlowLabel::Raw && authorized {
                    FlowLabel::PrivacyFiltered
                } else {
                    label
                }
            }
            FlowStage::Filter => label,
            FlowStage::Aggregate => {
                if label <= FlowLabel::PrivacyFiltered {
                    FlowLabel::Aggregated
                } else {
                    label
                }
            }
        }
    }
}

/// Where a plan's output ends up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowSink {
    /// Consumed on the device that sampled it; never leaves.
    DeviceLocal,
    /// Uplinked to the SenSocial server.
    Uplink,
    /// Delivered to a server-side subscriber (application callback).
    Subscriber,
    /// Published back to the online social network.
    OsnPublish,
}

json_enum!(FlowSink {
    DeviceLocal = "device_local",
    Uplink = "uplink",
    Subscriber = "subscriber",
    OsnPublish = "osn_publish",
});

impl FlowSink {
    /// Whether data leaves the device that sampled it.
    #[must_use]
    pub fn is_external(self) -> bool {
        !matches!(self, FlowSink::DeviceLocal)
    }

    /// Short lowercase name, stable across serialization.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlowSink::DeviceLocal => "device_local",
            FlowSink::Uplink => "uplink",
            FlowSink::Subscriber => "subscriber",
            FlowSink::OsnPublish => "osn_publish",
        }
    }
}

/// One sensor-modality source feeding a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowSource {
    /// The modality sampled.
    pub modality: Modality,
    /// The granularity it is sampled at.
    pub granularity: Granularity,
}

json_struct!(FlowSource {
    modality,
    granularity,
});

impl FlowSource {
    /// Creates a source.
    #[must_use]
    pub fn new(modality: Modality, granularity: Granularity) -> Self {
        FlowSource {
            modality,
            granularity,
        }
    }

    /// The label data carries when it enters the pipeline: raw samples are
    /// `Raw`; classified context already went through an on-device
    /// classifier and carries no raw payload.
    #[must_use]
    pub fn entry_label(self) -> FlowLabel {
        match self.granularity {
            Granularity::Raw => FlowLabel::Raw,
            Granularity::Classified => FlowLabel::PrivacyFiltered,
        }
    }
}

/// Who can vouch for a plan's privacy transition at this admission path.
#[derive(Clone, Copy)]
pub enum PrivacyAuthority<'a> {
    /// Client admission: the device's live policy screens the plan here
    /// and now. An OSN-coupled sensitive source is authorized only if the
    /// policy allows its raw disclosure — fail-closed, because the
    /// pause→resume path re-screens without re-running this analysis.
    Screened(&'a dyn crate::PrivacyView),
    /// A server-pushed device plan: the receiving device re-verifies at
    /// install time (and nacks on failure), so admission defers to it.
    DeferredToDevice,
    /// A server-side plan over existing uplinks: device screens ran before
    /// this plan's OSN coupling existed, so they cannot have authorized it.
    Upstream,
    /// No privacy stage exists on the path at all.
    Absent,
}

impl std::fmt::Debug for PrivacyAuthority<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PrivacyAuthority::Screened(_) => "Screened",
            PrivacyAuthority::DeferredToDevice => "DeferredToDevice",
            PrivacyAuthority::Upstream => "Upstream",
            PrivacyAuthority::Absent => "Absent",
        })
    }
}

impl PrivacyAuthority<'_> {
    /// Whether this authority vouches for `source` flowing through an
    /// OSN-coupled plan (`osn_coupled`). Uncoupled or non-sensitive
    /// sources are always authorized: the plain privacy screen already
    /// governs them (pause-don't-reject semantics).
    #[must_use]
    pub fn authorizes(&self, source: FlowSource, osn_coupled: bool) -> bool {
        let coupled_sensitive = osn_coupled && source.modality.is_sensitive();
        match self {
            PrivacyAuthority::Absent => false,
            PrivacyAuthority::DeferredToDevice => true,
            PrivacyAuthority::Screened(view) => {
                !coupled_sensitive || view.is_allowed(source.modality, Granularity::Raw)
            }
            PrivacyAuthority::Upstream => !coupled_sensitive,
        }
    }
}

/// The label one source ends up with at the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTrace {
    /// The source.
    pub source: FlowSource,
    /// Its label on entry.
    pub entry: FlowLabel,
    /// Its label at the sink, after every stage.
    pub label: FlowLabel,
}

json_struct!(FlowTrace {
    source,
    entry,
    label,
});

/// The flow verdict for one plan: every source's final label at the sink.
/// Recorded on accepted plans (and in the [`crate::report::AnalysisReport`])
/// so the taint result is auditable, not just pass/fail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowVerdict {
    /// Where the plan's output goes.
    pub sink: Option<FlowSink>,
    /// Whether the plan is OSN-coupled (social-event-based sampling or an
    /// OSN condition gating delivery).
    pub osn_coupled: bool,
    /// Per-source final labels, in source order.
    pub traces: Vec<FlowTrace>,
}

json_struct!(FlowVerdict {
    sink,
    osn_coupled,
    traces,
});

impl FlowVerdict {
    /// The most sensitive label reaching the sink, if any source exists.
    #[must_use]
    pub fn peak_label(&self) -> Option<FlowLabel> {
        self.traces.iter().map(|t| t.label).reduce(FlowLabel::join)
    }
}

/// Derives the plan's sink: an explicit override wins, otherwise the
/// placement's natural sink.
fn sink_of(plan: &FilterPlan) -> FlowSink {
    plan.sink.unwrap_or(match plan.placement {
        Placement::DeviceLocal => FlowSink::DeviceLocal,
        Placement::DeviceUplinked => FlowSink::Uplink,
        Placement::Server | Placement::MulticastTemplate => FlowSink::Subscriber,
    })
}

/// Derives whether the plan is OSN-coupled: an explicit override wins
/// (clients pass the stream's effective mode), otherwise the filter's OSN
/// conditions decide. For a multicast template only the *cross-user* part
/// counts: the local part is re-verified by each member device at install.
fn coupling_of(plan: &FilterPlan) -> bool {
    if let Some(coupled) = plan.osn_coupled {
        return coupled;
    }
    match plan.placement {
        Placement::MulticastTemplate => plan.filter.partition_cross_user().1.has_osn_condition(),
        _ => plan.filter.has_osn_condition(),
    }
}

/// Derives the authority that can vouch for the privacy transition at this
/// plan's admission path.
fn authority_of<'a>(plan: &FilterPlan, env: &AnalysisEnv<'a>) -> PrivacyAuthority<'a> {
    match plan.placement {
        Placement::DeviceLocal | Placement::DeviceUplinked => match env.privacy {
            Some(view) => PrivacyAuthority::Screened(view),
            None => PrivacyAuthority::DeferredToDevice,
        },
        Placement::Server => PrivacyAuthority::Upstream,
        Placement::MulticastTemplate => {
            if coupling_of(plan) {
                PrivacyAuthority::Upstream
            } else {
                PrivacyAuthority::DeferredToDevice
            }
        }
    }
}

/// Propagates labels from every source of `plan` to its sink.
///
/// Returns the verdict (always, so accepted plans carry an auditable
/// record) together with the error-severity [`DiagnosticCode::PrivacyFlow`]
/// diagnostics for sources whose label is still too sensitive at the sink.
pub fn check(plan: &FilterPlan, env: &AnalysisEnv<'_>) -> (FlowVerdict, Vec<PlanDiagnostic>) {
    let sink = sink_of(plan);
    let osn_coupled = coupling_of(plan);
    let authority = authority_of(plan, env);

    let mut sources: Vec<FlowSource> = Vec::new();
    if let Some((modality, granularity)) = plan.sampling {
        sources.push(FlowSource::new(modality, granularity));
    }
    sources.extend(plan.sources.iter().copied());
    sources.sort_unstable();
    sources.dedup();

    let mut traces = Vec::with_capacity(sources.len());
    let mut errors = Vec::new();
    for source in sources {
        let entry = source.entry_label();
        let authorized = authority.authorizes(source, osn_coupled);
        let mut label = FlowStage::Privacy.apply(entry, authorized);
        label = FlowStage::Filter.apply(label, authorized);
        if plan.aggregated {
            label = FlowStage::Aggregate.apply(label, authorized);
        }
        traces.push(FlowTrace {
            source,
            entry,
            label,
        });

        if sink.is_external() && label == FlowLabel::Raw {
            errors.push(PlanDiagnostic::error(
                DiagnosticCode::PrivacyFlow,
                format!(
                    "raw {} data reaches the {} sink through an OSN-coupled plan \
                     without an authorized pass through the privacy stage",
                    source.modality,
                    sink.name(),
                ),
            ));
        } else if sink == FlowSink::OsnPublish
            && source.modality.is_sensitive()
            && label == FlowLabel::PrivacyFiltered
        {
            errors.push(PlanDiagnostic::error(
                DiagnosticCode::PrivacyFlow,
                format!(
                    "{} data must be aggregated before the {} sink; \
                     privacy-filtered samples still identify the user",
                    source.modality,
                    sink.name(),
                ),
            ));
        }
    }

    (
        FlowVerdict {
            sink: Some(sink),
            osn_coupled,
            traces,
        },
        errors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::filter::{Condition, ConditionLhs, Filter, Operator};

    struct DenyAll;
    impl crate::PrivacyView for DenyAll {
        fn is_allowed(&self, _m: Modality, _g: Granularity) -> bool {
            false
        }
    }

    struct AllowAll;
    impl crate::PrivacyView for AllowAll {
        fn is_allowed(&self, _m: Modality, _g: Granularity) -> bool {
            true
        }
    }

    fn osn_filter() -> Filter {
        Filter::new(vec![Condition::new(
            ConditionLhs::OsnActivity,
            Operator::Equals,
            "active",
        )])
    }

    #[test]
    fn join_is_max() {
        assert_eq!(FlowLabel::Raw.join(FlowLabel::Aggregated), FlowLabel::Raw);
        assert_eq!(
            FlowLabel::Aggregated.join(FlowLabel::PrivacyFiltered),
            FlowLabel::PrivacyFiltered
        );
        assert!(FlowLabel::Aggregated < FlowLabel::PrivacyFiltered);
        assert!(FlowLabel::PrivacyFiltered < FlowLabel::Raw);
    }

    #[test]
    fn screened_allowing_policy_authorizes_coupled_sensitive_source() {
        let allow = AllowAll;
        let plan = FilterPlan::device(Modality::Location, Granularity::Raw, osn_filter())
            .sinking(FlowSink::Uplink);
        let env = AnalysisEnv::new().with_privacy(&allow);
        let (verdict, errors) = check(&plan, &env);
        assert!(errors.is_empty(), "{errors:?}");
        assert!(verdict.osn_coupled);
        assert_eq!(verdict.peak_label(), Some(FlowLabel::PrivacyFiltered));
    }

    #[test]
    fn screened_denying_policy_rejects_coupled_sensitive_source() {
        let deny = DenyAll;
        let plan = FilterPlan::device(Modality::Location, Granularity::Raw, osn_filter())
            .sinking(FlowSink::Uplink);
        let env = AnalysisEnv::new().with_privacy(&deny);
        let (verdict, errors) = check(&plan, &env);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].code, DiagnosticCode::PrivacyFlow);
        assert_eq!(verdict.peak_label(), Some(FlowLabel::Raw));
    }

    #[test]
    fn uncoupled_raw_sensitive_stream_is_governed_by_the_plain_screen() {
        // No OSN coupling: the ordinary privacy screen (pause semantics)
        // governs; the flow pass must not reject.
        let deny = DenyAll;
        let plan = FilterPlan::device(Modality::Microphone, Granularity::Raw, Filter::pass_all());
        let env = AnalysisEnv::new().with_privacy(&deny);
        let (_, errors) = check(&plan, &env);
        assert!(errors.is_empty());
    }

    #[test]
    fn server_plan_over_raw_sensitive_uplink_is_rejected_when_coupled() {
        let plan = FilterPlan::server(osn_filter())
            .with_source(FlowSource::new(Modality::Location, Granularity::Raw));
        let (verdict, errors) = check(&plan, &AnalysisEnv::new());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].code, DiagnosticCode::PrivacyFlow);
        assert_eq!(verdict.sink, Some(FlowSink::Subscriber));
    }

    #[test]
    fn server_plan_over_classified_uplink_is_fine() {
        let plan = FilterPlan::server(osn_filter())
            .with_source(FlowSource::new(Modality::Location, Granularity::Classified));
        let (_, errors) = check(&plan, &AnalysisEnv::new());
        assert!(errors.is_empty());
    }

    #[test]
    fn device_local_sink_never_flows_externally() {
        let deny = DenyAll;
        let plan = FilterPlan::device(Modality::Location, Granularity::Raw, osn_filter())
            .sinking(FlowSink::DeviceLocal);
        let env = AnalysisEnv::new().with_privacy(&deny);
        let (_, errors) = check(&plan, &env);
        assert!(errors.is_empty());
    }

    #[test]
    fn osn_publish_needs_aggregation_for_sensitive_modalities() {
        let allow = AllowAll;
        let env = AnalysisEnv::new().with_privacy(&allow);
        let plan = FilterPlan::device(Modality::Location, Granularity::Raw, Filter::pass_all())
            .sinking(FlowSink::OsnPublish);
        let (_, errors) = check(&plan, &env);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].code, DiagnosticCode::PrivacyFlow);

        let aggregated =
            FilterPlan::device(Modality::Location, Granularity::Raw, Filter::pass_all())
                .sinking(FlowSink::OsnPublish)
                .aggregating();
        let (verdict, errors) = check(&aggregated, &env);
        assert!(errors.is_empty());
        assert_eq!(verdict.peak_label(), Some(FlowLabel::Aggregated));
    }

    #[test]
    fn aggregation_does_not_launder_raw_labels() {
        assert_eq!(
            FlowStage::Aggregate.apply(FlowLabel::Raw, true),
            FlowLabel::Raw
        );
        assert_eq!(
            FlowStage::Aggregate.apply(FlowLabel::PrivacyFiltered, false),
            FlowLabel::Aggregated
        );
    }

    #[test]
    fn multicast_cross_user_osn_coupling_is_upstream_and_rejected() {
        let cross_osn = Filter::new(vec![Condition::new(
            ConditionLhs::OsnActivity,
            Operator::Equals,
            "active",
        )
        .about(sensocial_types::UserId::new("bob"))]);
        let plan = FilterPlan::multicast(Modality::Location, Granularity::Raw, cross_osn);
        let (_, errors) = check(&plan, &AnalysisEnv::new());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].code, DiagnosticCode::PrivacyFlow);
    }

    #[test]
    fn multicast_local_osn_coupling_defers_to_member_devices() {
        // The OSN condition lands in the local part, which every member
        // device re-verifies against its own policy at install time.
        let plan = FilterPlan::multicast(Modality::Location, Granularity::Raw, osn_filter());
        let (_, errors) = check(&plan, &AnalysisEnv::new());
        assert!(errors.is_empty());
    }
}
