//! Evaluation of compiled predicate programs.
//!
//! `sensocial-analysis` lowers an admitted [`Filter`] into a flat
//! [`PredicateProgram`] once, at admission time
//! ([`sensocial_analysis::compile`]); the hot paths here — every sample of
//! a filtered stream, every gating tick, every server-side uplink — then
//! run the pre-decoded instructions instead of re-inspecting the filter's
//! `json::Value`s. [`eval_local`] and [`eval_full`] are the only
//! evaluators the middleware runs. The interpreters
//! [`Filter::evaluate_local`] and [`Filter::evaluate_full`] remain as
//! their reference: identical verdicts, identical typed errors, identical
//! short-circuiting. A property test below pins the equivalence over
//! arbitrary (including ill-typed) filters and contexts.
//!
//! [`Filter`]: sensocial_types::Filter
//! [`Filter::evaluate_local`]: sensocial_types::Filter::evaluate_local
//! [`Filter::evaluate_full`]: sensocial_types::Filter::evaluate_full

use sensocial_analysis::compile::{PredicateOp, PredicateProgram};
use sensocial_types::filter::{EvalContext, EvalError, Operator};
use sensocial_types::{ContextSnapshot, UserId};

/// Runs one pre-decoded instruction against `ctx`.
///
/// Mirrors the interpreter exactly: a missing actual value is `Ok(false)`
/// (the guard cannot be known to hold), and a statically ill-typed
/// condition ([`PredicateOp::Fail`]) reproduces the interpreter's
/// [`EvalError`] — including its precedence, because the interpreter also
/// errors on such conditions before looking at the actual value.
fn eval_op(op: &PredicateOp, ctx: &EvalContext<'_>) -> Result<bool, EvalError> {
    match op {
        PredicateOp::Str {
            lhs,
            expect,
            negate,
        } => Ok(match lhs.fetch_string(ctx) {
            Some(actual) => (actual == *expect) != *negate,
            None => false,
        }),
        PredicateOp::Num { lhs, op, rhs } => Ok(match lhs.fetch_number(ctx) {
            Some(actual) => match op {
                Operator::Equals => (actual - rhs).abs() < f64::EPSILON,
                Operator::NotEquals => (actual - rhs).abs() >= f64::EPSILON,
                Operator::GreaterThan => actual > *rhs,
                Operator::LessThan => actual < *rhs,
            },
            None => false,
        }),
        PredicateOp::Fail {
            lhs,
            op,
            rendered,
            kind,
        } => Err(EvalError {
            lhs: *lhs,
            op: *op,
            value: rendered.clone(),
            kind: *kind,
        }),
    }
}

/// Evaluates the *local* (own-user) instructions of `program`;
/// cross-user instructions are skipped here and enforced by the server's
/// filter manager.
///
/// A definitive `false` short-circuits before any later ill-typed
/// instruction can error, mirroring `&&` (and the interpreter).
///
/// # Errors
///
/// Returns the [`EvalError`] the source condition would produce — only
/// possible for filters the analyzer did not vet.
pub fn eval_local(program: &PredicateProgram, ctx: &EvalContext<'_>) -> Result<bool, EvalError> {
    for inst in program.insts.iter().filter(|i| !i.is_cross_user()) {
        if !eval_op(&inst.op, ctx)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates every instruction of `program`, resolving cross-user
/// subjects through `lookup` (the server's per-user context table). A
/// cross-user instruction whose subject has no context yet is `false` —
/// before its comparison (or its [`PredicateOp::Fail`]) runs, exactly as
/// the interpreter never evaluates a condition for an unknown subject.
///
/// # Errors
///
/// Returns the [`EvalError`] the source condition would produce — only
/// possible for filters the analyzer did not vet.
pub fn eval_full(
    program: &PredicateProgram,
    ctx: &EvalContext<'_>,
    lookup: &dyn Fn(&UserId) -> Option<ContextSnapshot>,
) -> Result<bool, EvalError> {
    for inst in &program.insts {
        let holds = match &inst.subject {
            None => eval_op(&inst.op, ctx)?,
            Some(user) => match lookup(user) {
                Some(snapshot) => {
                    let sub_ctx = EvalContext {
                        snapshot: &snapshot,
                        now: ctx.now,
                        osn_action: ctx.osn_action,
                    };
                    eval_op(&inst.op, &sub_ctx)?
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

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_analysis::compile;
    use sensocial_runtime::json::Value;
    use sensocial_runtime::prop::{check, vec_of};
    use sensocial_runtime::{SimRng, Timestamp};
    use sensocial_types::filter::{Condition, ConditionLhs, Filter};
    use sensocial_types::{
        ClassifiedContext, ContextData, OsnAction, OsnActionKind, OsnPlatformKind, PhysicalActivity,
    };
    use std::collections::BTreeMap;

    fn ctx_with<'a>(snapshot: &'a ContextSnapshot, osn: Option<&'a OsnAction>) -> EvalContext<'a> {
        EvalContext {
            snapshot,
            now: Timestamp::from_secs(10 * 3600),
            osn_action: osn,
        }
    }

    #[test]
    fn compiled_matches_interpreter_on_the_paper_example() {
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::PhysicalActivity,
            Operator::Equals,
            "walking",
        )]);
        let program = compile(&filter);

        let mut walking = ContextSnapshot::new();
        walking.record(
            Timestamp::ZERO,
            ContextData::Classified(ClassifiedContext::Activity(PhysicalActivity::Walking)),
        );
        let empty = ContextSnapshot::new();

        for snapshot in [&walking, &empty] {
            let ctx = ctx_with(snapshot, None);
            assert_eq!(eval_local(&program, &ctx), filter.evaluate_local(&ctx));
        }
    }

    #[test]
    fn ill_typed_program_reproduces_the_interpreter_error() {
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::HourOfDay,
            Operator::Equals,
            "noon",
        )]);
        let program = compile(&filter);
        let snapshot = ContextSnapshot::new();
        let ctx = ctx_with(&snapshot, None);
        assert_eq!(eval_local(&program, &ctx), filter.evaluate_local(&ctx));
        assert!(eval_local(&program, &ctx).is_err());
    }

    #[test]
    fn unknown_cross_user_subject_is_false_not_an_error() {
        // The interpreter never evaluates a condition for an unknown
        // subject, even an ill-typed one; neither may we.
        let filter = Filter::new(vec![Condition::new(
            ConditionLhs::Place,
            Operator::LessThan,
            3,
        )
        .about(UserId::new("ghost"))]);
        let program = compile(&filter);
        let snapshot = ContextSnapshot::new();
        let ctx = ctx_with(&snapshot, None);
        let lookup = |_: &UserId| None;
        assert_eq!(eval_full(&program, &ctx, &lookup), Ok(false));
        assert_eq!(
            eval_full(&program, &ctx, &lookup),
            filter.evaluate_full(&ctx, &lookup)
        );
    }

    // ---- compiled == interpreted, over the whole plan space ----

    fn arb_lhs(rng: &mut SimRng) -> ConditionLhs {
        *rng.choose(&[
            ConditionLhs::PhysicalActivity,
            ConditionLhs::AudioEnvironment,
            ConditionLhs::Place,
            ConditionLhs::WifiDensity,
            ConditionLhs::BluetoothDensity,
            ConditionLhs::HourOfDay,
            ConditionLhs::OsnActivity,
            ConditionLhs::OsnActionKind,
            ConditionLhs::OsnTopic,
        ])
        .unwrap()
    }

    fn arb_op(rng: &mut SimRng) -> Operator {
        *rng.choose(&[
            Operator::Equals,
            Operator::NotEquals,
            Operator::GreaterThan,
            Operator::LessThan,
        ])
        .unwrap()
    }

    /// A small integer, drawn alike for comparison values, the hour and
    /// the densities, so boundary ties (`actual == rhs`) are common.
    fn arb_small(rng: &mut SimRng) -> u64 {
        rng.uniform_u64(0, 3)
    }

    /// Well-typed, ill-typed and nonsensical comparison values alike: the
    /// equivalence must hold on every filter, not just vetted ones.
    fn arb_value(rng: &mut SimRng) -> Value {
        let words = [
            "walking", "still", "silent", "active", "inactive", "post", "Paris", "unknown",
            "football",
        ];
        match rng.uniform_u64(0, 8) {
            0 => Value::from(*rng.choose(&words).unwrap()),
            1 => Value::from(rng.uniform(0.0, 24.0)),
            2 => Value::Bool(true),
            3 => Value::Null,
            _ => Value::from(arb_small(rng) as i64),
        }
    }

    fn arb_condition(rng: &mut SimRng) -> Condition {
        let c = Condition::new(arb_lhs(rng), arb_op(rng), arb_value(rng));
        match *rng.choose(&[None, Some("bob"), Some("ghost")]).unwrap() {
            Some(user) => c.about(UserId::new(user)),
            None => c,
        }
    }

    fn arb_snapshot(rng: &mut SimRng) -> ContextSnapshot {
        let activities = [
            PhysicalActivity::Still,
            PhysicalActivity::Walking,
            PhysicalActivity::Running,
        ];
        let activity = rng.chance(0.5).then(|| *rng.choose(&activities).unwrap());
        let place = rng.chance(0.5).then(|| {
            rng.chance(0.5)
                .then(|| rng.choose(&["Paris", "London"]).unwrap().to_string())
        });
        let wifi = rng.chance(0.5).then(|| arb_small(rng) as usize);
        let bluetooth = rng.chance(0.5).then(|| arb_small(rng) as usize);

        let mut snapshot = ContextSnapshot::new();
        if let Some(a) = activity {
            snapshot.record(
                Timestamp::ZERO,
                ContextData::Classified(ClassifiedContext::Activity(a)),
            );
        }
        if let Some(p) = place {
            snapshot.record(
                Timestamp::ZERO,
                ContextData::Classified(ClassifiedContext::Place(p)),
            );
        }
        if let Some(n) = wifi {
            snapshot.record(
                Timestamp::ZERO,
                ContextData::Classified(ClassifiedContext::WifiDensity(n)),
            );
        }
        if let Some(n) = bluetooth {
            snapshot.record(
                Timestamp::ZERO,
                ContextData::Classified(ClassifiedContext::BluetoothDensity(n)),
            );
        }
        snapshot
    }

    fn arb_osn_action(rng: &mut SimRng) -> Option<OsnAction> {
        rng.chance(0.5).then(|| {
            let kind = *rng
                .choose(&[OsnActionKind::Post, OsnActionKind::Like])
                .unwrap();
            let topic = rng
                .chance(0.5)
                .then(|| rng.choose(&["football", "weather"]).unwrap().to_string());
            OsnAction {
                user: UserId::new("alice"),
                kind,
                content: "hello".to_owned(),
                topic,
                at: Timestamp::ZERO,
                platform: OsnPlatformKind::Push,
            }
        })
    }

    /// A boundary tie needs a numeric left-hand side, an ordering
    /// operator and a small-integer value at once, about one case in 200,
    /// so this property runs more cases than the others.
    #[test]
    fn compiled_equals_interpreted() {
        check(2048, |rng| {
            let conditions = vec_of(rng, 0..4, arb_condition);
            let snapshot = arb_snapshot(rng);
            let bob = rng.chance(0.5).then(|| arb_snapshot(rng));
            let osn = arb_osn_action(rng);
            let hour = arb_small(rng);
            let filter = Filter::new(conditions);
            let program = compile(&filter);
            let ctx = EvalContext {
                snapshot: &snapshot,
                now: Timestamp::from_secs(hour * 3600),
                osn_action: osn.as_ref(),
            };
            let mut contexts: BTreeMap<UserId, ContextSnapshot> = BTreeMap::new();
            if let Some(b) = bob {
                contexts.insert(UserId::new("bob"), b);
            }
            let lookup = |user: &UserId| contexts.get(user).cloned();

            assert_eq!(eval_local(&program, &ctx), filter.evaluate_local(&ctx));
            assert_eq!(
                eval_full(&program, &ctx, &lookup),
                filter.evaluate_full(&ctx, &lookup)
            );
        });
    }
}
