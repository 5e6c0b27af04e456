//! Placement checking: proves the client/server filter split preserves
//! semantics, and screens conditional modalities against device
//! capabilities and the privacy policy.

use sensocial_types::{DiagnosticCode, Granularity, PlanDiagnostic};

use crate::{AnalysisEnv, FilterPlan};

/// Placement findings, split by kind: hard errors versus privacy findings
/// (which the client manager maps to the paper's pause-don't-reject
/// semantics).
#[derive(Debug, Default)]
pub struct PlacementOutcome {
    /// Misplaced cross-user conditions and unsamplable modalities.
    pub errors: Vec<PlanDiagnostic>,
    /// Privacy-policy violations for the stream or conditional modalities.
    pub privacy: Vec<PlanDiagnostic>,
}

/// Checks `plan` against its placement, the device's samplable modalities
/// and the privacy policy in `env`.
pub fn check(plan: &FilterPlan, env: &AnalysisEnv<'_>) -> PlacementOutcome {
    let mut out = PlacementOutcome::default();

    for (i, c) in plan.filter.conditions.iter().enumerate() {
        if c.is_cross_user() && !plan.placement.allows_cross_user() {
            out.errors.push(
                PlanDiagnostic::error(
                    DiagnosticCode::MisplacedCondition,
                    format!(
                        "condition about user `{}` references another user's context and can \
                         only be evaluated by the server's filter manager; attach it to a \
                         server subscription or a multicast template",
                        c.subject
                            .as_ref()
                            .map(ToString::to_string)
                            .unwrap_or_default()
                    ),
                )
                .at(i),
            );
        }
    }

    let Some((modality, granularity)) = plan.sampling else {
        return out;
    };

    if let Some(samplable) = env.samplable {
        if !samplable.contains(&modality) {
            out.errors.push(PlanDiagnostic::error(
                DiagnosticCode::UnsamplableModality,
                format!("stream modality {modality} cannot be sampled on this device"),
            ));
        }
    }
    if let Some(privacy) = env.privacy {
        if !privacy.is_allowed(modality, granularity) {
            out.privacy.push(PlanDiagnostic::error(
                DiagnosticCode::PrivacyViolation,
                format!("privacy policy denies {granularity} data from {modality}"),
            ));
        }
    }

    // Own-user conditions over other modalities force those *conditional
    // modalities* to be sampled and classified on the device (paper §4):
    // they must be samplable and privacy-permitted at Classified
    // granularity. Cross-user conditions are evaluated server-side against
    // the subject's uplinked context and are screened by the subject's own
    // device, not this one.
    for (i, c) in plan.filter.conditions.iter().enumerate() {
        if c.is_cross_user() {
            continue;
        }
        let Some(m) = c.lhs.required_modality() else {
            continue;
        };
        if m == modality {
            continue;
        }
        if let Some(samplable) = env.samplable {
            if !samplable.contains(&m) {
                out.errors.push(
                    PlanDiagnostic::error(
                        DiagnosticCode::UnsamplableModality,
                        format!(
                            "conditional modality {m} (required by `{}`) cannot be sampled \
                             on this device",
                            c.lhs.name()
                        ),
                    )
                    .at(i),
                );
            }
        }
        if let Some(privacy) = env.privacy {
            if !privacy.is_allowed(m, Granularity::Classified) {
                out.privacy.push(
                    PlanDiagnostic::error(
                        DiagnosticCode::PrivacyViolation,
                        format!(
                            "privacy policy denies classified data from conditional \
                             modality {m} (required by `{}`)",
                            c.lhs.name()
                        ),
                    )
                    .at(i),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrivacyView;
    use sensocial_types::filter::{Condition, ConditionLhs, Filter, Operator};
    use sensocial_types::{Modality, UserId};

    struct DenyMicrophone;
    impl PrivacyView for DenyMicrophone {
        fn is_allowed(&self, modality: Modality, _granularity: Granularity) -> bool {
            modality != Modality::Microphone
        }
    }

    fn walking_about(user: &str) -> Condition {
        Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking")
            .about(UserId::new(user))
    }

    #[test]
    fn cross_user_condition_on_device_plan_is_misplaced() {
        let plan = FilterPlan::device(
            Modality::Location,
            Granularity::Raw,
            Filter::new(vec![walking_about("bob")]),
        );
        let out = check(&plan, &AnalysisEnv::new());
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].code, DiagnosticCode::MisplacedCondition);
        assert_eq!(out.errors[0].condition, Some(0));
    }

    #[test]
    fn cross_user_condition_is_fine_server_side() {
        let plan = FilterPlan::server(Filter::new(vec![walking_about("bob")]));
        let out = check(&plan, &AnalysisEnv::new());
        assert!(out.errors.is_empty());
        assert!(out.privacy.is_empty());
    }

    #[test]
    fn denied_conditional_modality_is_a_privacy_violation() {
        let deny = DenyMicrophone;
        let plan = FilterPlan::device(
            Modality::Location,
            Granularity::Raw,
            Filter::new(vec![Condition::new(
                ConditionLhs::AudioEnvironment,
                Operator::Equals,
                "silent",
            )]),
        );
        let env = AnalysisEnv::new().with_privacy(&deny);
        let out = check(&plan, &env);
        assert!(out.errors.is_empty());
        assert_eq!(out.privacy.len(), 1);
        assert_eq!(out.privacy[0].code, DiagnosticCode::PrivacyViolation);
    }

    #[test]
    fn unsamplable_conditional_modality_is_an_error() {
        let samplable = [Modality::Location, Modality::Accelerometer];
        let plan = FilterPlan::device(
            Modality::Location,
            Granularity::Raw,
            Filter::new(vec![Condition::new(
                ConditionLhs::WifiDensity,
                Operator::GreaterThan,
                3,
            )]),
        );
        let env = AnalysisEnv::new().with_samplable(&samplable);
        let out = check(&plan, &env);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].code, DiagnosticCode::UnsamplableModality);
    }
}
