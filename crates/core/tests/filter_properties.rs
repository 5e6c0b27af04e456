//! Property-based tests for the filter algebra.

use sensocial::{Condition, ConditionLhs, EvalContext, Filter, Operator};
use sensocial_runtime::json;
use sensocial_runtime::prop::{check, vec_of};
use sensocial_runtime::{SimRng, Timestamp};
use sensocial_types::{
    AudioEnvironment, ClassifiedContext, ContextData, ContextSnapshot, OsnAction, PhysicalActivity,
    UserId,
};

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

fn arb_value(rng: &mut SimRng) -> json::Value {
    if rng.chance(0.5) {
        let words = [
            "walking", "still", "running", "silent", "Paris", "active", "post", "football",
        ];
        json::Value::String(rng.choose(&words).unwrap().to_string())
    } else {
        json::Value::from(rng.uniform_u64(0, 30) as i64)
    }
}

fn arb_condition(rng: &mut SimRng) -> Condition {
    let mut c = Condition::new(arb_lhs(rng), arb_op(rng), arb_value(rng));
    if rng.chance(0.5) {
        c = c.about(UserId::new("other"));
    }
    c
}

fn arb_filter(rng: &mut SimRng) -> Filter {
    Filter::new(vec_of(rng, 0..6, arb_condition))
}

fn arb_snapshot(rng: &mut SimRng) -> ContextSnapshot {
    let activities = [
        PhysicalActivity::Still,
        PhysicalActivity::Walking,
        PhysicalActivity::Running,
    ];
    let activity = rng.chance(0.5).then(|| *rng.choose(&activities).unwrap());
    let audios = [AudioEnvironment::Silent, AudioEnvironment::NotSilent];
    let audio = rng.chance(0.5).then(|| *rng.choose(&audios).unwrap());
    let places = [Some("Paris"), Some("Bordeaux"), None];
    let place = rng
        .chance(0.5)
        .then(|| rng.choose(&places).unwrap().map(str::to_owned));
    let density = rng.chance(0.5).then(|| rng.uniform_u64(0, 20) as usize);

    let mut snapshot = ContextSnapshot::new();
    let at = Timestamp::from_secs(1);
    if let Some(a) = activity {
        snapshot.record(at, ContextData::Classified(ClassifiedContext::Activity(a)));
    }
    if let Some(a) = audio {
        snapshot.record(at, ContextData::Classified(ClassifiedContext::Audio(a)));
    }
    if let Some(p) = place {
        snapshot.record(at, ContextData::Classified(ClassifiedContext::Place(p)));
    }
    if let Some(d) = density {
        snapshot.record(
            at,
            ContextData::Classified(ClassifiedContext::WifiDensity(d)),
        );
    }
    snapshot
}

fn arb_action(rng: &mut SimRng) -> Option<OsnAction> {
    rng.chance(0.5).then(|| {
        let mut action = OsnAction::post(UserId::new("u"), "content", Timestamp::ZERO);
        let topics = [Some("football"), Some("music"), None];
        if let Some(t) = *rng.choose(&topics).unwrap() {
            action = action.with_topic(t);
        }
        action
    })
}

/// Conjunction is monotone: adding conditions can only shrink the set
/// of passing contexts.
#[test]
fn adding_conditions_never_widens() {
    check(256, |rng| {
        let filter = arb_filter(rng);
        let extra = arb_condition(rng);
        let snapshot = arb_snapshot(rng);
        let action = arb_action(rng);
        let hour = rng.uniform_u64(0, 24);
        let ctx = EvalContext {
            snapshot: &snapshot,
            now: Timestamp::from_secs(hour * 3600),
            osn_action: action.as_ref(),
        };
        let base = filter.evaluate_local(&ctx);
        let mut bigger = filter.clone();
        bigger.conditions.push(extra);
        let stricter = bigger.evaluate_local(&ctx);
        assert!(
            base == Ok(true) || stricter != Ok(true),
            "adding a condition widened the filter"
        );
    });
}

/// Local and full evaluation agree when no cross-user conditions exist.
#[test]
fn local_equals_full_without_cross_user() {
    check(256, |rng| {
        let filter = arb_filter(rng);
        let snapshot = arb_snapshot(rng);
        let action = arb_action(rng);
        let own_only = Filter::new(
            filter
                .conditions
                .iter()
                .filter(|c| !c.is_cross_user())
                .cloned()
                .collect(),
        );
        let ctx = EvalContext {
            snapshot: &snapshot,
            now: Timestamp::from_secs(12 * 3600),
            osn_action: action.as_ref(),
        };
        assert_eq!(
            own_only.evaluate_local(&ctx),
            own_only.evaluate_full(&ctx, &|_| None)
        );
    });
}

/// With cross-user conditions present and no context table, full
/// evaluation can only be stricter than local evaluation.
#[test]
fn full_is_stricter_with_unresolvable_subjects() {
    check(256, |rng| {
        let filter = arb_filter(rng);
        let snapshot = arb_snapshot(rng);
        let ctx = EvalContext {
            snapshot: &snapshot,
            now: Timestamp::from_secs(12 * 3600),
            osn_action: None,
        };
        let full = filter.evaluate_full(&ctx, &|_| None);
        let local = filter.evaluate_local(&ctx);
        assert!(local == Ok(true) || full != Ok(true));
    });
}

/// Filters survive the serialization round trip.
#[test]
fn filters_round_trip_json() {
    check(256, |rng| {
        let filter = arb_filter(rng);
        let wire = json::to_string(&filter);
        let back: Filter = json::from_str(&wire).unwrap();
        assert_eq!(filter, back);
    });
}

/// Conditional modalities never include the stream's own modality and
/// never include modalities of cross-user conditions.
#[test]
fn conditional_modalities_are_sane() {
    check(256, |rng| {
        let filter = arb_filter(rng);
        for own in sensocial_types::Modality::ALL {
            let conditionals = filter.conditional_modalities(own);
            assert!(!conditionals.contains(&own));
            let mut sorted = conditionals.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(&sorted, &conditionals, "sorted and deduped");
            for m in conditionals {
                let justified = filter
                    .conditions
                    .iter()
                    .any(|c| !c.is_cross_user() && c.lhs.required_modality() == Some(m));
                assert!(justified, "unjustified conditional modality {}", m);
            }
        }
    });
}

/// Equals and NotEquals partition outcomes whenever the inspected
/// value is present.
#[test]
fn eq_and_ne_are_complementary_when_value_present() {
    check(256, |rng| {
        // PhysicalActivity is present only in some snapshots; redraw until
        // it is, so every case checks the partition.
        let snapshot = loop {
            let snapshot = arb_snapshot(rng);
            if snapshot.activity().is_some() {
                break snapshot;
            }
        };
        let value = arb_value(rng);
        let ctx = EvalContext {
            snapshot: &snapshot,
            now: Timestamp::ZERO,
            osn_action: None,
        };
        let eq = Condition::new(
            ConditionLhs::PhysicalActivity,
            Operator::Equals,
            value.clone(),
        );
        let ne = Condition::new(ConditionLhs::PhysicalActivity, Operator::NotEquals, value);
        assert_ne!(eq.evaluate(&ctx), ne.evaluate(&ctx));
    });
}
