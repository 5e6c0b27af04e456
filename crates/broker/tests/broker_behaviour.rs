//! End-to-end behaviour tests for the broker over the simulated network.

use std::cell::RefCell;
use std::rc::Rc;

use sensocial_broker::{Broker, BrokerClient, BrokerConfig, QoS, ReconnectPolicy};
use sensocial_net::{LatencyModel, LinkSpec, Network};
use sensocial_runtime::{Scheduler, SimDuration, Timestamp};

struct Fixture {
    sched: Scheduler,
    net: Network,
    broker: Broker,
}

fn fixture() -> Fixture {
    let sched = Scheduler::new();
    let net = Network::new(99);
    net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(20)));
    let broker = Broker::new(&net, "broker");
    Fixture { sched, net, broker }
}

type Seen = Rc<RefCell<Vec<(String, String)>>>;

fn subscribing_client(f: &mut Fixture, name: &str, filter: &str, qos: QoS) -> (BrokerClient, Seen) {
    let client = BrokerClient::new(&f.net, format!("{name}-ep"), "broker", name);
    client.connect(&mut f.sched);
    let seen: Seen = Rc::new(RefCell::new(Vec::new()));
    let sink = seen.clone();
    client.subscribe(&mut f.sched, filter, qos, move |_s, topic, payload| {
        sink.borrow_mut().push((topic.into(), payload.into()));
    });
    (client, seen)
}

#[test]
fn publish_reaches_matching_subscribers_only() {
    let mut f = fixture();
    let (_a, seen_a) = subscribing_client(&mut f, "a", "ctx/location/#", QoS::AtMostOnce);
    let (_b, seen_b) = subscribing_client(&mut f, "b", "ctx/audio/#", QoS::AtMostOnce);
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    f.sched.run();

    publisher.publish(
        &mut f.sched,
        "ctx/location/u1",
        "paris",
        QoS::AtMostOnce,
        false,
    );
    f.sched.run();

    assert_eq!(seen_a.borrow().len(), 1);
    assert_eq!(
        seen_a.borrow()[0],
        ("ctx/location/u1".into(), "paris".into())
    );
    assert!(seen_b.borrow().is_empty());
    assert_eq!(f.broker.telemetry().counter("published"), 1);
    assert_eq!(f.broker.telemetry().counter("delivered"), 1);
}

#[test]
fn qos1_survives_a_lossy_downlink() {
    let mut f = fixture();
    // Make the broker→subscriber leg lossy; QoS-1 retries recover it.
    let (_sub, seen) = subscribing_client(&mut f, "sub", "trig/#", QoS::AtLeastOnce);
    f.net.set_link(
        "broker".into(),
        "sub-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)).lossy(0.6),
    );
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    f.sched.run();

    for i in 0..20 {
        publisher.publish(
            &mut f.sched,
            "trig/x",
            format!("m{i}"),
            QoS::AtLeastOnce,
            false,
        );
    }
    f.sched.run();

    let seen = seen.borrow();
    // All 20 should arrive despite 60 % loss (5 retries each), exactly once.
    assert_eq!(seen.len(), 20, "delivered {}", seen.len());
    let mut payloads: Vec<&str> = seen.iter().map(|(_, p)| p.as_str()).collect();
    payloads.sort_unstable();
    payloads.dedup();
    assert_eq!(payloads.len(), 20, "duplicates leaked through dedup");
    assert!(f.broker.telemetry().counter("retries") > 0);
}

#[test]
fn qos0_on_lossy_link_loses_messages() {
    let mut f = fixture();
    let (_sub, seen) = subscribing_client(&mut f, "sub", "trig/#", QoS::AtMostOnce);
    f.net.set_link(
        "broker".into(),
        "sub-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)).lossy(0.6),
    );
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    f.sched.run();

    for i in 0..50 {
        publisher.publish(
            &mut f.sched,
            "trig/x",
            format!("m{i}"),
            QoS::AtMostOnce,
            false,
        );
    }
    f.sched.run();

    let delivered = seen.borrow().len();
    assert!(delivered < 50, "expected losses, got {delivered}/50");
}

#[test]
fn retained_message_arrives_on_late_subscribe() {
    let mut f = fixture();
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    publisher.publish(
        &mut f.sched,
        "config/phone1",
        "{\"rate\":60}",
        QoS::AtLeastOnce,
        true,
    );
    f.sched.run();

    let (_late, seen) = subscribing_client(&mut f, "late", "config/#", QoS::AtLeastOnce);
    f.sched.run();

    assert_eq!(seen.borrow().len(), 1);
    assert_eq!(seen.borrow()[0].1, "{\"rate\":60}");
}

#[test]
fn empty_retained_payload_clears_retention() {
    let mut f = fixture();
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    publisher.publish(&mut f.sched, "config/p", "v1", QoS::AtMostOnce, true);
    publisher.publish(&mut f.sched, "config/p", "", QoS::AtMostOnce, true);
    f.sched.run();

    let (_sub, seen) = subscribing_client(&mut f, "sub", "config/#", QoS::AtMostOnce);
    f.sched.run();
    assert!(seen.borrow().is_empty());
}

#[test]
fn offline_session_queues_and_replays_in_order() {
    let mut f = fixture();
    let (sub, seen) = subscribing_client(&mut f, "sub", "trig/#", QoS::AtLeastOnce);
    f.sched.run();
    sub.disconnect(&mut f.sched);
    f.sched.run();

    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    for i in 0..5 {
        publisher.publish(
            &mut f.sched,
            "trig/x",
            format!("m{i}"),
            QoS::AtLeastOnce,
            false,
        );
    }
    f.sched.run();
    assert!(seen.borrow().is_empty(), "nothing while offline");
    assert_eq!(f.broker.telemetry().counter("queued_offline"), 5);

    sub.connect(&mut f.sched);
    f.sched.run();
    let seen = seen.borrow();
    let payloads: Vec<&str> = seen.iter().map(|(_, p)| p.as_str()).collect();
    assert_eq!(payloads, vec!["m0", "m1", "m2", "m3", "m4"]);
}

#[test]
fn offline_queue_overflow_drops_oldest() {
    let mut f = fixture();
    f.broker.set_config(BrokerConfig {
        offline_queue_limit: 3,
        ..BrokerConfig::default()
    });
    let (sub, seen) = subscribing_client(&mut f, "sub", "trig/#", QoS::AtMostOnce);
    f.sched.run();
    sub.disconnect(&mut f.sched);
    f.sched.run();

    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    for i in 0..6 {
        publisher.publish(
            &mut f.sched,
            "trig/x",
            format!("m{i}"),
            QoS::AtMostOnce,
            false,
        );
    }
    f.sched.run();
    sub.connect(&mut f.sched);
    f.sched.run();

    let seen = seen.borrow();
    let payloads: Vec<&str> = seen.iter().map(|(_, p)| p.as_str()).collect();
    assert_eq!(payloads, vec!["m3", "m4", "m5"]);
}

#[test]
fn unsubscribe_stops_delivery() {
    let mut f = fixture();
    let (sub, seen) = subscribing_client(&mut f, "sub", "a/#", QoS::AtMostOnce);
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    f.sched.run();

    publisher.publish(&mut f.sched, "a/1", "first", QoS::AtMostOnce, false);
    f.sched.run();
    sub.unsubscribe(&mut f.sched, "a/#");
    f.sched.run();
    publisher.publish(&mut f.sched, "a/2", "second", QoS::AtMostOnce, false);
    f.sched.run();

    assert_eq!(seen.borrow().len(), 1);
    assert_eq!(f.broker.telemetry().counter("unrouted"), 1);
}

#[test]
fn wildcard_subscription_receives_multiple_devices() {
    let mut f = fixture();
    // The server subscribes to all device uplinks with one filter — the
    // paper's broadcast-style server-side stream collection.
    let (_server, seen) = subscribing_client(&mut f, "server", "uplink/+/data", QoS::AtMostOnce);
    f.sched.run();

    for d in ["p1", "p2", "p3"] {
        let c = BrokerClient::new(&f.net, format!("{d}-ep"), "broker", d);
        c.connect(&mut f.sched);
        c.publish(
            &mut f.sched,
            format!("uplink/{d}/data"),
            d,
            QoS::AtMostOnce,
            false,
        );
    }
    f.sched.run();
    assert_eq!(seen.borrow().len(), 3);
}

#[test]
fn delivery_pays_network_latency() {
    let mut f = fixture();
    let (_sub, seen) = subscribing_client(&mut f, "sub", "t/#", QoS::AtMostOnce);
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    f.sched.run();
    let start = f.sched.now();
    publisher.publish(&mut f.sched, "t/x", "hi", QoS::AtMostOnce, false);
    f.sched.run();
    // Two 20 ms legs: publisher→broker, broker→subscriber.
    assert_eq!((f.sched.now() - start), SimDuration::from_millis(40));
    assert_eq!(seen.borrow().len(), 1);
}

#[test]
fn abandoned_delivery_after_retry_exhaustion() {
    let mut f = fixture();
    f.broker.set_config(BrokerConfig {
        retry_timeout: SimDuration::from_secs(1),
        max_retries: 2,
        requeue_on_exhaust: false,
        ..BrokerConfig::default()
    });
    let (_sub, seen) = subscribing_client(&mut f, "sub", "t/#", QoS::AtLeastOnce);
    f.sched.run();
    // Total blackout on the downlink: nothing ever arrives.
    f.net.set_link(
        "broker".into(),
        "sub-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)).lossy(1.0),
    );
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    publisher.publish(&mut f.sched, "t/x", "hi", QoS::AtLeastOnce, false);
    f.sched.run();

    assert!(seen.borrow().is_empty());
    assert_eq!(f.broker.telemetry().counter("abandoned"), 1);
    assert_eq!(f.broker.telemetry().counter("retries"), 2);
}

#[test]
fn exhausted_delivery_requeues_and_survives_reconnect() {
    let mut f = fixture();
    f.broker.set_config(BrokerConfig {
        retry_timeout: SimDuration::from_secs(1),
        max_retries: 2,
        ..BrokerConfig::default()
    });
    let (sub, seen) = subscribing_client(&mut f, "sub", "t/#", QoS::AtLeastOnce);
    f.sched.run();
    // Total blackout on the downlink while the retry budget burns.
    f.net.set_link(
        "broker".into(),
        "sub-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)).lossy(1.0),
    );
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    publisher.publish(&mut f.sched, "t/x", "hi", QoS::AtLeastOnce, false);
    f.sched.run();

    assert!(seen.borrow().is_empty());
    assert_eq!(f.broker.telemetry().counter("requeued"), 1);
    assert_eq!(f.broker.telemetry().counter("abandoned"), 0);

    // Heal the downlink and resume the session: the parked trigger arrives.
    f.net.set_link(
        "broker".into(),
        "sub-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)),
    );
    sub.connect(&mut f.sched);
    f.sched.run();
    let seen = seen.borrow();
    assert_eq!(seen.len(), 1, "requeued trigger delivered after reconnect");
    assert_eq!(seen[0], ("t/x".into(), "hi".into()));
}

#[test]
fn keepalive_detects_partition_and_resumes_with_zero_loss() {
    let mut f = fixture();
    let (sub, seen) = subscribing_client(&mut f, "sub", "t/#", QoS::AtLeastOnce);
    sub.set_keepalive(SimDuration::from_secs(2));
    sub.set_reconnect_policy(ReconnectPolicy {
        initial_backoff: SimDuration::from_secs(1),
        max_backoff: SimDuration::from_secs(8),
        jitter: 0.0,
    });
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    f.sched.run_until(Timestamp::from_secs(5));
    assert!(sub.is_session_confirmed());

    // Cut both directions between subscriber and broker for 20 s; a trigger
    // published mid-outage must survive it.
    f.net
        .partition(&"sub-ep".into(), &"broker".into(), Timestamp::from_secs(25));
    publisher.publish(&mut f.sched, "t/x", "m1", QoS::AtLeastOnce, false);
    f.sched.run_until(Timestamp::from_secs(15));
    assert!(
        !sub.is_session_confirmed(),
        "missed pings declared the loss"
    );
    assert!(seen.borrow().is_empty());

    f.sched.run_until(Timestamp::from_secs(60));
    assert!(
        sub.is_session_confirmed(),
        "client reconnected after the heal"
    );
    let seen = seen.borrow();
    assert_eq!(seen.len(), 1, "trigger survived the partition exactly once");
    assert!(sub.stats().connection_losses >= 1);
    assert!(sub.stats().connacks >= 2);
    assert!(sub.stats().pings_missed >= 2);
    assert!(f.broker.telemetry().counter("pings") > 0);
}

#[test]
fn lost_puback_retry_is_not_rerouted() {
    let mut f = fixture();
    let (_sub, seen) = subscribing_client(&mut f, "sub", "t/#", QoS::AtLeastOnce);
    f.sched.run();
    // The publisher's acks (broker→pub-ep) are blacked out: every client
    // retry re-sends the same (sender, message id) upstream. The broker's
    // inbound dedup window must route only the first copy.
    f.net.set_link(
        "broker".into(),
        "pub-ep".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)).lossy(1.0),
    );
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    publisher.set_retry_policy(SimDuration::from_secs(1), 3);
    publisher.publish(&mut f.sched, "t/x", "hi", QoS::AtLeastOnce, false);
    f.sched.run();

    assert_eq!(seen.borrow().len(), 1, "routed exactly once");
    assert_eq!(f.broker.telemetry().counter("published"), 1);
    assert_eq!(f.broker.telemetry().counter("duplicate_publishes"), 3);
    assert_eq!(publisher.stats().dead_lettered, 1);
}

#[test]
fn dead_letter_handler_fires_after_retry_exhaustion() {
    let mut f = fixture();
    let publisher = BrokerClient::new(&f.net, "pub-ep", "broker", "pub");
    publisher.connect(&mut f.sched);
    publisher.set_retry_policy(SimDuration::from_secs(1), 2);
    let dead: Rc<RefCell<Vec<(u64, String, String)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = dead.clone();
    publisher.set_dead_letter_handler(move |_s, mid, topic, payload| {
        sink.borrow_mut().push((mid, topic.into(), payload.into()));
    });
    f.sched.run();
    // Blackout the uplink: the publish never reaches the broker at all.
    f.net.set_link(
        "pub-ep".into(),
        "broker".into(),
        LinkSpec::with_latency(LatencyModel::constant_ms(20)).lossy(1.0),
    );
    publisher.publish(&mut f.sched, "t/x", "doomed", QoS::AtLeastOnce, false);
    f.sched.run();

    let dead = dead.borrow();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].1, "t/x");
    assert_eq!(dead[0].2, "doomed");
    assert_eq!(publisher.stats().dead_lettered, 1);
    assert_eq!(publisher.pending_count(), 0);
}
