//! Condition type checking: every operator/value pair must fit its
//! left-hand side's value domain.

use sensocial_runtime::json::Value;
use sensocial_types::filter::{Condition, Filter};
use sensocial_types::{DiagnosticCode, PlanDiagnostic};

use crate::domain::{domain_of, ValueDomain};

/// Checks every condition in `filter`, returning one [`PlanDiagnostic`]
/// per ill-typed condition (empty when the filter is well-typed).
///
/// A well-typed condition is exactly one whose runtime
/// [`Condition::evaluate`] can never return an
/// [`sensocial_types::EvalError`]; the satisfiability pass assumes this.
pub fn check(filter: &Filter) -> Vec<PlanDiagnostic> {
    filter
        .conditions
        .iter()
        .enumerate()
        .filter_map(|(i, c)| check_condition(c).map(|d| d.at(i)))
        .collect()
}

fn check_condition(c: &Condition) -> Option<PlanDiagnostic> {
    match domain_of(c.lhs) {
        ValueDomain::Enum(values) => check_categorical(c, Some(values)),
        ValueDomain::Text => check_categorical(c, None),
        ValueDomain::Hour | ValueDomain::Count => check_numeric(c),
    }
}

fn check_categorical(
    c: &Condition,
    values: Option<&'static [&'static str]>,
) -> Option<PlanDiagnostic> {
    let s = match &c.value {
        Value::String(s) => s.as_str(),
        other => {
            return Some(mismatch(
                c,
                format!(
                    "`{}` is categorical and expects a string value, got `{other}`",
                    c.lhs.name()
                ),
            ));
        }
    };
    if c.op.is_ordering() {
        return Some(mismatch(
            c,
            format!(
                "`{}` is categorical and has no ordering; `{}` is not applicable",
                c.lhs.name(),
                c.op.symbol()
            ),
        ));
    }
    if let Some(values) = values {
        if !values.contains(&s) {
            return Some(mismatch(
                c,
                format!(
                    "`{s}` is not a possible value of `{}` (expected one of: {})",
                    c.lhs.name(),
                    values.join(", ")
                ),
            ));
        }
    }
    None
}

fn check_numeric(c: &Condition) -> Option<PlanDiagnostic> {
    match c.value.as_f64() {
        Some(v) if v.is_finite() => None,
        _ => Some(mismatch(
            c,
            format!(
                "`{}` is numeric and expects a finite number, got `{}`",
                c.lhs.name(),
                c.value
            ),
        )),
    }
}

fn mismatch(_c: &Condition, message: String) -> PlanDiagnostic {
    PlanDiagnostic::error(DiagnosticCode::TypeMismatch, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_types::filter::{ConditionLhs, Operator};

    #[test]
    fn hour_compared_to_string_is_a_type_mismatch() {
        let f = Filter::new(vec![Condition::new(
            ConditionLhs::HourOfDay,
            Operator::GreaterThan,
            "walking",
        )]);
        let diags = check(&f);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagnosticCode::TypeMismatch);
        assert_eq!(diags[0].condition, Some(0));
    }

    #[test]
    fn ordering_on_categorical_is_a_type_mismatch() {
        let f = Filter::new(vec![Condition::new(
            ConditionLhs::Place,
            Operator::LessThan,
            "Paris",
        )]);
        assert_eq!(check(&f)[0].code, DiagnosticCode::TypeMismatch);
    }

    #[test]
    fn out_of_domain_enum_value_is_a_type_mismatch() {
        let f = Filter::new(vec![Condition::new(
            ConditionLhs::PhysicalActivity,
            Operator::Equals,
            "flying",
        )]);
        let diags = check(&f);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("still, walking, running"));
    }

    #[test]
    fn well_typed_filter_passes() {
        let f = Filter::new(vec![
            Condition::new(ConditionLhs::PhysicalActivity, Operator::Equals, "walking"),
            Condition::new(ConditionLhs::HourOfDay, Operator::LessThan, 22),
            Condition::new(ConditionLhs::WifiDensity, Operator::GreaterThan, 3),
            Condition::new(ConditionLhs::Place, Operator::NotEquals, "unknown"),
        ]);
        assert!(check(&f).is_empty());
    }

    #[test]
    fn non_finite_number_is_a_type_mismatch() {
        // f64::NAN serializes to JSON null, which is also not a number.
        let f = Filter::new(vec![Condition::new(
            ConditionLhs::WifiDensity,
            Operator::Equals,
            Value::Null,
        )]);
        assert_eq!(check(&f).len(), 1);
    }
}
