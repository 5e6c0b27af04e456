//! Satisfiability and normalization of well-typed condition sets.
//!
//! Conditions are grouped by `(subject, lhs)`; each group is solved over
//! its value domain — set intersection for categorical domains, integer
//! interval reasoning for the hour of day and the density counts — and
//! re-emitted in a canonical form. The pass rejects a plan only when
//! emptiness is *provable*; anything merely suspicious is a warning.
//!
//! One subtlety keeps normalization honest: a condition over a modality
//! that may have produced no context yet (`WifiDensity`, `BluetoothDensity`,
//! OSN kind/topic) evaluates to `false` while the context is missing, so
//! even a tautological condition acts as a *presence gate*. The normalizer
//! therefore never drops the last condition of such a group — it only
//! rewrites within the group, which preserves the gate.

use std::collections::{BTreeMap, BTreeSet};

use sensocial_runtime::json::Value;
use sensocial_types::filter::{Condition, ConditionLhs, Filter, Operator};
use sensocial_types::{DiagnosticCode, PlanDiagnostic, UserId};

use crate::domain::{always_evaluable, domain_of, ValueDomain};

/// The normalized filter plus any warning-severity findings.
#[derive(Debug, Clone)]
pub struct SatOutcome {
    /// Canonical, semantics-preserving form of the input filter.
    pub filter: Filter,
    /// `Redundant` / `AlwaysTrue` warnings raised while normalizing.
    pub warnings: Vec<PlanDiagnostic>,
}

/// Solves each `(subject, lhs)` group of a *well-typed* filter.
///
/// Returns the canonical plan, or `Unsatisfiable` diagnostics if any group
/// is provably empty. Must run after [`crate::typeck::check`] — ill-typed
/// values here would panic the arithmetic below.
pub fn normalize(filter: &Filter) -> Result<SatOutcome, Vec<PlanDiagnostic>> {
    let mut groups: BTreeMap<(Option<UserId>, ConditionLhs), Vec<Condition>> = BTreeMap::new();
    for c in &filter.conditions {
        groups
            .entry((c.subject.clone(), c.lhs))
            .or_default()
            .push(c.clone());
    }

    let mut out = Vec::new();
    let mut warnings = Vec::new();
    let mut errors = Vec::new();
    for ((subject, lhs), conditions) in groups {
        match normalize_group(subject.as_ref(), lhs, &conditions) {
            Ok(group) => {
                if group.conditions.len() < conditions.len() {
                    warnings.push(PlanDiagnostic::warning(
                        DiagnosticCode::Redundant,
                        format!(
                            "{} of {} conditions on {} were implied by the rest and were dropped",
                            conditions.len() - group.conditions.len(),
                            conditions.len(),
                            describe(subject.as_ref(), lhs),
                        ),
                    ));
                }
                warnings.extend(group.warnings);
                out.extend(group.conditions);
            }
            Err(diag) => errors.push(diag),
        }
    }
    if errors.is_empty() {
        Ok(SatOutcome {
            filter: Filter::new(out),
            warnings,
        })
    } else {
        Err(errors)
    }
}

struct GroupOutcome {
    conditions: Vec<Condition>,
    warnings: Vec<PlanDiagnostic>,
}

fn describe(subject: Option<&UserId>, lhs: ConditionLhs) -> String {
    match subject {
        Some(u) => format!("`{}` of user `{u}`", lhs.name()),
        None => format!("`{}`", lhs.name()),
    }
}

fn unsat(subject: Option<&UserId>, lhs: ConditionLhs, why: &str) -> PlanDiagnostic {
    PlanDiagnostic::error(
        DiagnosticCode::Unsatisfiable,
        format!("conditions on {} {why}", describe(subject, lhs)),
    )
}

fn cond(subject: Option<&UserId>, lhs: ConditionLhs, op: Operator, value: Value) -> Condition {
    let mut c = Condition::new(lhs, op, value);
    c.subject = subject.cloned();
    c
}

fn normalize_group(
    subject: Option<&UserId>,
    lhs: ConditionLhs,
    conditions: &[Condition],
) -> Result<GroupOutcome, PlanDiagnostic> {
    match domain_of(lhs) {
        ValueDomain::Enum(values) => normalize_enum(subject, lhs, conditions, values),
        ValueDomain::Text => normalize_text(subject, lhs, conditions),
        ValueDomain::Hour => normalize_numeric(subject, lhs, conditions, Some(23)),
        ValueDomain::Count => normalize_numeric(subject, lhs, conditions, None),
    }
}

fn str_value(c: &Condition) -> &str {
    match &c.value {
        Value::String(s) => s.as_str(),
        _ => "", // unreachable for well-typed filters; harmless fallback
    }
}

fn normalize_enum(
    subject: Option<&UserId>,
    lhs: ConditionLhs,
    conditions: &[Condition],
    values: &'static [&'static str],
) -> Result<GroupOutcome, PlanDiagnostic> {
    let full: BTreeSet<&str> = values.iter().copied().collect();
    let mut allowed = full.clone();
    for c in conditions {
        let v = str_value(c);
        match c.op {
            Operator::Equals => allowed.retain(|a| *a == v),
            Operator::NotEquals => {
                allowed.remove(v);
            }
            _ => {}
        }
    }
    if allowed.is_empty() {
        return Err(unsat(subject, lhs, "exclude every possible value"));
    }
    let conditions = if allowed.len() == full.len() {
        // Cannot happen for a non-empty, well-typed group, but stay sound.
        conditions.to_vec()
    } else if allowed.len() == 1 {
        let only = allowed.iter().next().copied().unwrap_or_default();
        vec![cond(subject, lhs, Operator::Equals, Value::from(only))]
    } else {
        full.difference(&allowed)
            .map(|v| cond(subject, lhs, Operator::NotEquals, Value::from(*v)))
            .collect()
    };
    Ok(GroupOutcome {
        conditions,
        warnings: Vec::new(),
    })
}

fn normalize_text(
    subject: Option<&UserId>,
    lhs: ConditionLhs,
    conditions: &[Condition],
) -> Result<GroupOutcome, PlanDiagnostic> {
    let mut eq: Option<&str> = None;
    let mut neq: BTreeSet<&str> = BTreeSet::new();
    for c in conditions {
        let v = str_value(c);
        match c.op {
            Operator::Equals => match eq {
                Some(prev) if prev != v => {
                    return Err(unsat(subject, lhs, "require two different values at once"));
                }
                _ => eq = Some(v),
            },
            Operator::NotEquals => {
                neq.insert(v);
            }
            _ => {}
        }
    }
    let conditions = if let Some(v) = eq {
        if neq.contains(v) {
            return Err(unsat(
                subject,
                lhs,
                "require and exclude the same value at once",
            ));
        }
        vec![cond(subject, lhs, Operator::Equals, Value::from(v))]
    } else {
        neq.iter()
            .map(|v| cond(subject, lhs, Operator::NotEquals, Value::from(*v)))
            .collect()
    };
    Ok(GroupOutcome {
        conditions,
        warnings: Vec::new(),
    })
}

/// Integer interval reasoning over `[0, dom_max]` (`dom_max = None` means
/// unbounded counts). Runtime comparison is on `f64`, but every actual
/// value is a non-negative integer, so `x > 2.5` is exactly `x >= 3`.
#[allow(clippy::too_many_lines)]
fn normalize_numeric(
    subject: Option<&UserId>,
    lhs: ConditionLhs,
    conditions: &[Condition],
    dom_max: Option<i64>,
) -> Result<GroupOutcome, PlanDiagnostic> {
    let dom_hi = dom_max.unwrap_or(i64::MAX);
    let mut lo: i64 = 0;
    let mut hi: i64 = dom_hi;
    let mut eq: Option<i64> = None;
    let mut neq: BTreeSet<i64> = BTreeSet::new();
    let mut warnings = Vec::new();

    for c in conditions {
        let v = c.value.as_f64().unwrap_or(f64::NAN);
        match c.op {
            Operator::GreaterThan => {
                // Integer actuals: `x > v` is `x >= floor(v) + 1`.
                let candidate = float_floor(v) + 1;
                lo = lo.max(candidate);
            }
            Operator::LessThan => {
                // `x < v` is `x <= ceil(v) - 1`.
                let candidate = float_ceil(v) - 1;
                hi = hi.min(candidate);
            }
            Operator::Equals => {
                let Some(n) = as_exact_int(v).filter(|n| *n >= 0 && *n <= dom_hi) else {
                    return Err(unsat(
                        subject,
                        lhs,
                        &format!("can never equal `{}`", c.value),
                    ));
                };
                if let Some(prev) = eq {
                    if prev != n {
                        return Err(unsat(subject, lhs, "require two different values at once"));
                    }
                }
                eq = Some(n);
            }
            Operator::NotEquals => {
                // Excluding a value outside the domain excludes nothing.
                if let Some(n) = as_exact_int(v).filter(|n| *n >= 0 && *n <= dom_hi) {
                    neq.insert(n);
                }
            }
        }
    }

    if let Some(n) = eq {
        if n < lo || n > hi {
            return Err(unsat(
                subject,
                lhs,
                "pin a value outside the allowed interval",
            ));
        }
        if neq.contains(&n) {
            return Err(unsat(
                subject,
                lhs,
                "require and exclude the same value at once",
            ));
        }
        return Ok(GroupOutcome {
            conditions: vec![cond(subject, lhs, Operator::Equals, Value::from(n))],
            warnings,
        });
    }

    if lo > hi {
        return Err(unsat(subject, lhs, "describe an empty interval"));
    }
    let neq_in: BTreeSet<i64> = neq.into_iter().filter(|n| *n >= lo && *n <= hi).collect();
    // A small, fully-excluded interval is empty too (e.g. 0 < x < 2, x != 1).
    if hi != i64::MAX && (hi - lo) < 1024 && ((hi - lo + 1) as usize) == neq_in.len() {
        return Err(unsat(
            subject,
            lhs,
            "exclude every value of the allowed interval",
        ));
    }

    let constrained = lo > 0 || hi < dom_hi || !neq_in.is_empty();
    if !constrained {
        // A cross-user group additionally gates on the *subject's* snapshot
        // being known to the server (`evaluate_full` fails the condition
        // when the lookup misses), so it can never be dropped outright —
        // only own-user, always-evaluable groups can.
        if subject.is_none() && always_evaluable(lhs) {
            // The hour always has a value: a vacuous group constrains
            // nothing and is dropped outright.
            warnings.push(PlanDiagnostic::warning(
                DiagnosticCode::AlwaysTrue,
                format!(
                    "conditions on {} hold at every hour and were dropped",
                    describe(subject, lhs)
                ),
            ));
            return Ok(GroupOutcome {
                conditions: Vec::new(),
                warnings,
            });
        }
        // Counts gate on context presence even when tautological: keep the
        // (deduplicated) conditions so the gate survives, but tell the
        // author the comparison itself constrains nothing.
        warnings.push(PlanDiagnostic::warning(
            DiagnosticCode::AlwaysTrue,
            format!(
                "conditions on {} hold for every recorded value; they only gate on the \
                 modality having produced context",
                describe(subject, lhs)
            ),
        ));
        let mut seen = BTreeSet::new();
        let kept: Vec<Condition> = conditions
            .iter()
            .filter(|c| seen.insert((c.op, c.value.to_string())))
            .cloned()
            .collect();
        return Ok(GroupOutcome {
            conditions: kept,
            warnings,
        });
    }

    let mut out = Vec::new();
    if lo > 0 {
        out.push(cond(
            subject,
            lhs,
            Operator::GreaterThan,
            Value::from(lo - 1),
        ));
    }
    if hi < dom_hi {
        out.push(cond(subject, lhs, Operator::LessThan, Value::from(hi + 1)));
    }
    for n in neq_in {
        out.push(cond(subject, lhs, Operator::NotEquals, Value::from(n)));
    }
    Ok(GroupOutcome {
        conditions: out,
        warnings,
    })
}

fn float_floor(v: f64) -> i64 {
    let f = v.floor();
    if f >= i64::MAX as f64 {
        i64::MAX - 1
    } else if f <= i64::MIN as f64 {
        i64::MIN + 1
    } else {
        f as i64
    }
}

fn float_ceil(v: f64) -> i64 {
    let c = v.ceil();
    if c >= i64::MAX as f64 {
        i64::MAX - 1
    } else if c <= i64::MIN as f64 {
        i64::MIN + 1
    } else {
        c as i64
    }
}

fn as_exact_int(v: f64) -> Option<i64> {
    (v.is_finite() && v.fract() == 0.0 && v.abs() < 2f64.powi(53)).then_some(v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour(op: Operator, v: impl Into<Value>) -> Condition {
        Condition::new(ConditionLhs::HourOfDay, op, v)
    }

    fn normalized(conditions: Vec<Condition>) -> SatOutcome {
        normalize(&Filter::new(conditions)).expect("satisfiable")
    }

    fn rejected(conditions: Vec<Condition>) -> Vec<PlanDiagnostic> {
        normalize(&Filter::new(conditions)).expect_err("unsatisfiable")
    }

    #[test]
    fn contradictory_hour_interval_is_unsatisfiable() {
        // The issue's acceptance example: Hour > 20 ∧ Hour < 5.
        let diags = rejected(vec![
            hour(Operator::GreaterThan, 20),
            hour(Operator::LessThan, 5),
        ]);
        assert_eq!(diags[0].code, DiagnosticCode::Unsatisfiable);
        assert!(diags[0].message.contains("empty interval"));
    }

    #[test]
    fn contradictory_enum_equalities_are_unsatisfiable() {
        let diags = rejected(vec![
            Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
            Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "running"),
        ]);
        assert_eq!(diags[0].code, DiagnosticCode::Unsatisfiable);
    }

    #[test]
    fn excluding_the_whole_enum_is_unsatisfiable() {
        let diags = rejected(vec![
            Condition::new(
                ConditionLhs::AudioEnvironment,
                Operator::NotEquals,
                "silent",
            ),
            Condition::new(
                ConditionLhs::AudioEnvironment,
                Operator::NotEquals,
                "not_silent",
            ),
        ]);
        assert_eq!(diags[0].code, DiagnosticCode::Unsatisfiable);
    }

    #[test]
    fn negative_count_is_unsatisfiable() {
        let diags = rejected(vec![Condition::new(
            ConditionLhs::WifiDensity,
            Operator::LessThan,
            0,
        )]);
        assert_eq!(diags[0].code, DiagnosticCode::Unsatisfiable);
    }

    #[test]
    fn weaker_bound_is_dropped_as_redundant() {
        let out = normalized(vec![
            hour(Operator::GreaterThan, 8),
            hour(Operator::GreaterThan, 5),
        ]);
        assert_eq!(out.filter.conditions, vec![hour(Operator::GreaterThan, 8)]);
        assert_eq!(out.warnings.len(), 1);
        assert_eq!(out.warnings[0].code, DiagnosticCode::Redundant);
    }

    #[test]
    fn vacuous_hour_condition_is_dropped_as_always_true() {
        let out = normalized(vec![hour(Operator::GreaterThan, -5)]);
        assert!(out.filter.conditions.is_empty());
        assert!(out
            .warnings
            .iter()
            .any(|w| w.code == DiagnosticCode::AlwaysTrue));
    }

    #[test]
    fn vacuous_count_condition_is_kept_as_presence_gate() {
        // WifiDensity > -1 holds for every recorded count, but it is false
        // while WiFi has produced no context — dropping it would change
        // semantics. It must survive, with a warning.
        let gate = Condition::new(ConditionLhs::WifiDensity, Operator::GreaterThan, -1);
        let out = normalized(vec![gate.clone()]);
        assert_eq!(out.filter.conditions, vec![gate]);
        assert!(out
            .warnings
            .iter()
            .any(|w| w.code == DiagnosticCode::AlwaysTrue));
    }

    #[test]
    fn excluding_all_but_one_enum_value_becomes_an_equality() {
        let out = normalized(vec![
            Condition::new(ConditionLhs::PhysicalActivity, Operator::NotEquals, "still"),
            Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::NotEquals,
                "walking",
            ),
        ]);
        assert_eq!(
            out.filter.conditions,
            vec![Condition::new(
                ConditionLhs::PhysicalActivity,
                Operator::Equals,
                "running"
            )]
        );
    }

    #[test]
    fn fully_excluded_small_interval_is_unsatisfiable() {
        let diags = rejected(vec![
            hour(Operator::GreaterThan, 10),
            hour(Operator::LessThan, 13),
            hour(Operator::NotEquals, 11),
            hour(Operator::NotEquals, 12),
        ]);
        assert_eq!(diags[0].code, DiagnosticCode::Unsatisfiable);
    }

    #[test]
    fn fractional_bounds_normalize_to_integers() {
        let out = normalized(vec![hour(Operator::GreaterThan, 8.5)]);
        // hour > 8.5 over integers is hour >= 9, canonically `> 8`.
        assert_eq!(out.filter.conditions, vec![hour(Operator::GreaterThan, 8)]);
    }

    #[test]
    fn cross_user_groups_are_solved_independently() {
        let bob = UserId::new("bob");
        let own = Condition::new(ConditionLhs::HourOfDay, Operator::GreaterThan, 8);
        let theirs =
            Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 5).about(bob.clone());
        // Own-user `> 8` and bob's `< 5` do NOT contradict: different users.
        let out = normalized(vec![own.clone(), theirs.clone()]);
        assert_eq!(out.filter.conditions, vec![own, theirs]);
    }

    #[test]
    fn vacuous_cross_user_hour_condition_is_kept() {
        // `Hour > -5 about bob` holds at every hour, but `evaluate_full`
        // still fails it while bob's snapshot is unknown to the server —
        // the condition gates on the subject's presence and must survive.
        let c = hour(Operator::GreaterThan, -5).about(UserId::new("bob"));
        let out = normalized(vec![c.clone()]);
        assert_eq!(out.filter.conditions, vec![c]);
        assert!(out
            .warnings
            .iter()
            .any(|w| w.code == DiagnosticCode::AlwaysTrue));
    }

    #[test]
    fn normalization_is_idempotent_on_examples() {
        let cases = vec![
            vec![
                hour(Operator::GreaterThan, 8),
                hour(Operator::LessThan, 17),
                hour(Operator::NotEquals, 12),
            ],
            vec![
                Condition::new(ConditionLhs::PhysicalActivity, Operator::NotEquals, "still"),
                Condition::new(ConditionLhs::Place, Operator::Equals, "Paris"),
            ],
            vec![Condition::new(
                ConditionLhs::BluetoothDensity,
                Operator::GreaterThan,
                3,
            )],
        ];
        for conditions in cases {
            let once = normalized(conditions);
            let twice = normalized(once.filter.conditions.clone());
            assert_eq!(once.filter, twice.filter);
            assert!(twice.warnings.is_empty(), "canonical form re-checks clean");
        }
    }
}
