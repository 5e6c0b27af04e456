//! Property tests for the static plan verifier.
//!
//! The two load-bearing guarantees:
//!
//! 1. **No runtime escape**: any plan accepted by `analyze()` never
//!    produces a runtime type/eval error, for any context snapshot, hour
//!    of day or in-flight OSN action.
//! 2. **Normalization is a fixpoint and preserves semantics**: re-analyzing
//!    a normalized plan returns it unchanged, and the normalized filter
//!    agrees with the original on every context.
//!
//! PR 9 adds the information-flow layer's guarantees:
//!
//! 3. **The taint lattice is a lattice**: `join` is commutative,
//!    associative and idempotent, and every stage transfer function is
//!    monotone — so the verifier's verdict cannot depend on the order
//!    sources or stages are visited in.
//! 4. **Normalization never changes the flow verdict**: the flow check
//!    over a normalized filter agrees with the original, so the analyzer
//!    may normalize first without weakening the privacy guarantee.

use sensocial_analysis::{analyze, flow, Analysis, AnalysisEnv, FilterPlan, FlowLabel, FlowSource};
use sensocial_runtime::json;
use sensocial_runtime::prop::{check, vec_of};
use sensocial_runtime::{SimRng, Timestamp};
use sensocial_types::filter::{Condition, ConditionLhs, EvalContext, Filter, Operator};
use sensocial_types::{
    AudioEnvironment, ClassifiedContext, ContextData, ContextSnapshot, OsnAction, PhysicalActivity,
    UserId,
};
use sensocial_types::{Granularity, Modality};

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

/// A grab-bag of values: domain-correct strings, junk strings, integers
/// and fractional numbers — so the generator produces both plans the
/// analyzer accepts and plans it must reject.
fn arb_value(rng: &mut SimRng) -> json::Value {
    let words = [
        "still",
        "walking",
        "running",
        "silent",
        "not_silent",
        "active",
        "inactive",
        "post",
        "comment",
        "like",
        "friendship_change",
        "Paris",
        "unknown",
        "football",
    ];
    match rng.uniform_u64(0, 3) {
        0 => json::Value::from(*rng.choose(&words).unwrap()),
        1 => json::Value::from(rng.uniform_u64(0, 70) as i64 - 30),
        _ => json::Value::from(rng.uniform(-5.0, 30.0)),
    }
}

fn arb_condition(rng: &mut SimRng) -> Condition {
    let c = Condition::new(arb_lhs(rng), arb_op(rng), arb_value(rng));
    // Bias toward own-user conditions; a few about other users.
    if rng.uniform_u64(0, 4) == 0 {
        c.about(UserId::new("bob"))
    } else {
        c
    }
}

fn arb_filter(rng: &mut SimRng) -> Filter {
    Filter::new(vec_of(rng, 0..6, arb_condition))
}

/// A filter the analyzer accepts at server placement, with its analysis.
/// Rejected draws are redrawn, so every case exercises an accepted plan.
fn accepted_filter(rng: &mut SimRng) -> (Filter, Analysis) {
    loop {
        let filter = arb_filter(rng);
        if let Ok(analysis) = analyze(&FilterPlan::server(filter.clone()), &AnalysisEnv::new()) {
            return (filter, analysis);
        }
    }
}

/// A random device context: each classified modality present or absent.
fn arb_snapshot(rng: &mut SimRng) -> ContextSnapshot {
    let activity = rng.chance(0.5).then(|| rng.uniform_u64(0, 3) as usize);
    let audio = rng.chance(0.5).then(|| rng.uniform_u64(0, 2) as usize);
    let place = rng
        .chance(0.5)
        .then(|| *rng.choose(&[None, Some("Paris"), Some("home")]).unwrap());
    let wifi = rng.chance(0.5).then(|| rng.uniform_u64(0, 12) as usize);
    let bt = rng.chance(0.5).then(|| rng.uniform_u64(0, 12) as usize);

    let mut s = ContextSnapshot::new();
    let at = Timestamp::from_secs(1);
    if let Some(a) = activity {
        let a = [
            PhysicalActivity::Still,
            PhysicalActivity::Walking,
            PhysicalActivity::Running,
        ][a];
        s.record(at, ContextData::Classified(ClassifiedContext::Activity(a)));
    }
    if let Some(a) = audio {
        let a = [AudioEnvironment::Silent, AudioEnvironment::NotSilent][a];
        s.record(at, ContextData::Classified(ClassifiedContext::Audio(a)));
    }
    if let Some(p) = place {
        s.record(
            at,
            ContextData::Classified(ClassifiedContext::Place(p.map(str::to_owned))),
        );
    }
    if let Some(n) = wifi {
        s.record(
            at,
            ContextData::Classified(ClassifiedContext::WifiDensity(n)),
        );
    }
    if let Some(n) = bt {
        s.record(
            at,
            ContextData::Classified(ClassifiedContext::BluetoothDensity(n)),
        );
    }
    s
}

fn arb_action(rng: &mut SimRng) -> Option<OsnAction> {
    rng.chance(0.5).then(|| {
        let action = OsnAction::post(UserId::new("bob"), "hi", Timestamp::ZERO);
        if rng.chance(0.5) {
            action.with_topic("football")
        } else {
            action
        }
    })
}

fn arb_label(rng: &mut SimRng) -> FlowLabel {
    *rng.choose(&[
        FlowLabel::Aggregated,
        FlowLabel::PrivacyFiltered,
        FlowLabel::Raw,
    ])
    .unwrap()
}

fn arb_stage(rng: &mut SimRng) -> flow::FlowStage {
    *rng.choose(&[
        flow::FlowStage::Privacy,
        flow::FlowStage::Filter,
        flow::FlowStage::Aggregate,
    ])
    .unwrap()
}

fn arb_source(rng: &mut SimRng) -> FlowSource {
    let modality = *rng
        .choose(&[
            Modality::Location,
            Modality::Accelerometer,
            Modality::Microphone,
            Modality::Wifi,
            Modality::Bluetooth,
        ])
        .unwrap();
    let granularity = *rng
        .choose(&[Granularity::Raw, Granularity::Classified])
        .unwrap();
    FlowSource::new(modality, granularity)
}

/// A policy that allows no raw disclosure at all — the adversarial
/// setting for the flow-verdict invariance property.
struct DenyAll;
impl sensocial_analysis::PrivacyView for DenyAll {
    fn is_allowed(&self, _m: Modality, _g: Granularity) -> bool {
        false
    }
}

/// Guarantee 1: accepted plans never hit a runtime eval error, on any
/// context — neither the normalized filter nor the original.
#[test]
fn accepted_plans_never_eval_error() {
    check(256, |rng| {
        // Server placement accepts cross-user conditions, exercising the
        // full evaluation path.
        let (filter, analysis) = accepted_filter(rng);
        let snapshot = arb_snapshot(rng);
        let subject_snapshot = rng.chance(0.5).then(|| arb_snapshot(rng));
        let action = arb_action(rng);
        let hour = rng.uniform_u64(0, 24);
        let ctx = EvalContext {
            snapshot: &snapshot,
            now: Timestamp::from_secs(hour * 3600),
            osn_action: action.as_ref(),
        };
        let lookup = |_: &UserId| subject_snapshot.clone();
        assert!(analysis.filter.evaluate_full(&ctx, &lookup).is_ok());
        assert!(filter.evaluate_full(&ctx, &lookup).is_ok());
        assert!(analysis.filter.evaluate_local(&ctx).is_ok());
    });
}

/// Guarantee 2a: normalization is idempotent.
#[test]
fn normalization_is_idempotent() {
    check(256, |rng| {
        let (_, first) = accepted_filter(rng);
        let again = analyze(
            &FilterPlan::server(first.filter.clone()),
            &AnalysisEnv::new(),
        );
        let second = again.expect("canonical plans re-verify");
        assert_eq!(first.filter, second.filter);
    });
}

/// Guarantee 2b: the normalized filter is observationally equivalent
/// to the original on every context.
#[test]
fn normalization_preserves_semantics() {
    check(256, |rng| {
        let (filter, analysis) = accepted_filter(rng);
        let snapshot = arb_snapshot(rng);
        let subject_snapshot = rng.chance(0.5).then(|| arb_snapshot(rng));
        let action = arb_action(rng);
        let hour = rng.uniform_u64(0, 24);
        let ctx = EvalContext {
            snapshot: &snapshot,
            now: Timestamp::from_secs(hour * 3600),
            osn_action: action.as_ref(),
        };
        let lookup = |_: &UserId| subject_snapshot.clone();
        let original = filter.evaluate_full(&ctx, &lookup);
        let normalized = analysis.filter.evaluate_full(&ctx, &lookup);
        assert_eq!(original, normalized);
    });
}

/// Guarantee 3a: `join` is a semilattice operation — commutative,
/// associative, idempotent — so folding source labels in any order
/// yields the same peak label.
#[test]
fn flow_join_is_a_semilattice() {
    check(256, |rng| {
        let (a, b, c) = (arb_label(rng), arb_label(rng), arb_label(rng));
        assert_eq!(a.join(b), b.join(a));
        assert_eq!(a.join(b).join(c), a.join(b.join(c)));
        assert_eq!(a.join(a), a);
        // join is an upper bound of both operands.
        assert!(a.join(b) >= a && a.join(b) >= b);
    });
}

/// Guarantee 3b: every stage transfer function is monotone in the
/// label for any fixed authorization, and never *raises* sensitivity —
/// a stage can only screen data down, never taint it up.
#[test]
fn flow_stages_are_monotone_and_never_raise() {
    check(256, |rng| {
        let stage = arb_stage(rng);
        let (a, b) = (arb_label(rng), arb_label(rng));
        let authorized = rng.chance(0.5);
        if a <= b {
            assert!(stage.apply(a, authorized) <= stage.apply(b, authorized));
        }
        assert!(stage.apply(a, authorized) <= a);
    });
}

/// Guarantee 4: the flow verdict is invariant under filter
/// normalization — at the upstream-authority server placement and at
/// the adversarial device placement (raw sensitive sampling under a
/// deny-everything screen) alike. Normalization preserves OSN presence
/// gates, so the derived coupling (and with it every authorization
/// decision) must not move.
#[test]
fn normalization_never_changes_flow_verdict() {
    check(256, |rng| {
        let (filter, analysis) = accepted_filter(rng);
        let normalized = analysis.filter;
        let sources = vec_of(rng, 0..4, arb_source);

        // Server placement over random uplink sources.
        let server_plan = |f: Filter| {
            let mut plan = FilterPlan::server(f);
            for source in &sources {
                plan = plan.with_source(*source);
            }
            plan
        };
        let env = AnalysisEnv::new();
        let (verdict_a, errors_a) = flow::check(&server_plan(filter.clone()), &env);
        let (verdict_b, errors_b) = flow::check(&server_plan(normalized.clone()), &env);
        assert_eq!(&verdict_a, &verdict_b);
        assert_eq!(errors_a.len(), errors_b.len());

        // Device placement: raw sensitive sampling under a denying screen,
        // uplinked — the strictest admission path.
        let deny = DenyAll;
        let env = AnalysisEnv::new().with_privacy(&deny);
        let device_plan = |f: Filter| {
            FilterPlan::device(Modality::Location, Granularity::Raw, f)
                .sinking(sensocial_analysis::FlowSink::Uplink)
        };
        let (verdict_a, errors_a) = flow::check(&device_plan(filter.clone()), &env);
        let (verdict_b, errors_b) = flow::check(&device_plan(normalized), &env);
        assert_eq!(&verdict_a, &verdict_b);
        assert_eq!(errors_a.len(), errors_b.len());
    });
}
