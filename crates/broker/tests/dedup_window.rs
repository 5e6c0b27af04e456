//! Property tests pinning the client's QoS-1 dedup-window semantics.
//!
//! The client remembers the last 1 024 broker-assigned message ids. A
//! redelivery whose id is still inside the window is acknowledged but NOT
//! handed to the application; once 1 024 fresh ids have pushed an id out,
//! the same id is accepted (and delivered) again. The window bounds memory,
//! not correctness — re-acceptance of an evicted id is the documented
//! at-least-once behaviour, and these tests pin exactly where the boundary
//! sits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sensocial_broker::{BrokerClient, Packet, QoS};
use sensocial_net::Network;
use sensocial_runtime::prop::{check, vec_of};
use sensocial_runtime::Scheduler;

/// Must match the crate's one QoS-1 dedup window (`DEDUP_WINDOW`), which
/// the client keeps for broker-assigned ids and the broker keeps per
/// publishing client; the eviction-boundary property fails if the window
/// ever changes silently, on either side.
const WINDOW: usize = 1_024;

struct Harness {
    sched: Scheduler,
    net: Network,
    client: BrokerClient,
    delivered: Arc<AtomicUsize>,
    acked: Arc<AtomicUsize>,
}

fn harness() -> Harness {
    let mut sched = Scheduler::new();
    let net = Network::new(5);
    // A fake broker endpoint that only counts the acks coming back.
    let acked = Arc::new(AtomicUsize::new(0));
    let acks = acked.clone();
    net.register("broker".into(), move |_s: &mut Scheduler, m| {
        if let Ok(Packet::PubAck { .. }) = Packet::from_wire(&m.payload) {
            acks.fetch_add(1, Ordering::SeqCst);
        }
    });
    let client = BrokerClient::new(&net, "c-ep", "broker", "c");
    let delivered = Arc::new(AtomicUsize::new(0));
    let count = delivered.clone();
    client.subscribe(&mut sched, "t/#", QoS::AtLeastOnce, move |_s, _t, _p| {
        count.fetch_add(1, Ordering::SeqCst);
    });
    Harness {
        sched,
        net,
        client,
        delivered,
        acked,
    }
}

impl Harness {
    /// Injects a broker→client QoS-1 publish carrying `mid` and drains the
    /// scheduler.
    fn deliver(&mut self, mid: u64) {
        let packet = Packet::Publish {
            topic: "t/x".into(),
            payload: format!("{mid}").into(),
            qos: QoS::AtLeastOnce,
            message_id: Some(mid),
            retain: false,
            sender: None,
        };
        self.net
            .send(
                &mut self.sched,
                &"broker".into(),
                &"c-ep".into(),
                packet.to_wire(),
            )
            .unwrap();
        self.sched.run();
    }

    fn delivered(&self) -> usize {
        self.delivered.load(Ordering::SeqCst)
    }

    fn acked(&self) -> usize {
        self.acked.load(Ordering::SeqCst)
    }
}

/// Re-delivering an id is suppressed while it sits in the window and
/// accepted again exactly when `WINDOW` fresh ids have evicted it —
/// and every copy, suppressed or not, is acknowledged.
#[test]
fn eviction_boundary() {
    check(16, |rng| {
        // Either a few ids, or just short of / just past a full window.
        let (lo, hi) = if rng.chance(0.5) {
            (0, 4)
        } else {
            (WINDOW - 3, WINDOW + 3)
        };
        let extra = rng.uniform_u64(lo as u64, hi as u64) as usize;
        let mut h = harness();
        h.deliver(0);
        for mid in 1..=extra as u64 {
            h.deliver(mid);
        }
        let before = h.delivered();
        assert_eq!(before, extra + 1, "fresh ids all delivered");

        h.deliver(0); // Stale redelivery of the very first id.
                      // Id 0 is evicted once `extra + 1 > WINDOW` insertions happened.
        let evicted = extra >= WINDOW;
        assert_eq!(h.delivered(), before + usize::from(evicted));
        assert_eq!(h.client.stats().duplicates_suppressed, u64::from(!evicted));
        assert_eq!(h.acked(), extra + 2, "every copy is acknowledged");
    });
}

/// Within one window, any redelivery pattern yields exactly one
/// app-level delivery per distinct id, every copy is acknowledged, and
/// the suppression counter accounts for the rest.
#[test]
fn distinct_ids_within_window_delivered_once() {
    check(16, |rng| {
        let ids = vec_of(rng, 1..40, |r| r.uniform_u64(0, 64));
        let mut h = harness();
        for &mid in &ids {
            h.deliver(mid);
        }
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(h.delivered(), distinct.len());
        assert_eq!(h.acked(), ids.len());
        assert_eq!(
            h.client.stats().duplicates_suppressed as usize,
            ids.len() - distinct.len()
        );
    });
}
