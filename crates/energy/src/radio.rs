//! A time-integrating radio power-state machine.
//!
//! The paper measures "with the frequency of 1 second … in order to include
//! the extra energy-tails due to the wireless interfaces being prevented
//! from switching to sleep mode" (§5.3, citing Cool-Tether). The simple
//! accounting elsewhere in this crate charges a *constant* tail per
//! transmission burst; this module provides the reference model that
//! constant approximates: a WiFi radio with idle / active / tail states
//! whose energy is the time integral of state power.
//!
//! The validation test at the bottom shows the constant-per-burst
//! approximation agrees with the integral for duty-cycled workloads (bursts
//! separated by more than the tail), and quantifies when it diverges
//! (bursts inside one tail window share a tail).

use sensocial_runtime::{SimDuration, Timestamp};

/// Radio power states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioState {
    /// Interface asleep / low-power idle.
    Idle,
    /// Actively transmitting or receiving.
    Active,
    /// Holding high power after activity, waiting to sleep (the "tail").
    Tail,
}

/// A radio whose energy is integrated over its power states.
#[derive(Debug, Clone)]
pub struct RadioModel {
    /// Power draw while idle, milliwatts.
    pub idle_mw: f64,
    /// Power draw while active, milliwatts.
    pub active_mw: f64,
    /// Power draw during the tail, milliwatts.
    pub tail_mw: f64,
    /// How long the interface stays in the tail after activity.
    pub tail_duration: SimDuration,
    /// Link rate used to convert bytes to active time, bits per second.
    pub bandwidth_bps: f64,
    /// Fixed protocol overhead added to every transmission, bytes
    /// (headers, ACK exchanges, wakeup frames).
    pub per_message_overhead_bytes: usize,
    state: RadioState,
    state_since: Timestamp,
    /// When the current tail expires (while in `Tail`).
    tail_until: Timestamp,
    energy_mj: f64,
}

impl Default for RadioModel {
    /// A 2012-era WiFi interface: ~10 mW idle, ~800 mW active, ~600 mW
    /// tail for ~1.8 s, 20 Mbit/s.
    fn default() -> Self {
        RadioModel {
            idle_mw: 10.0,
            active_mw: 800.0,
            tail_mw: 600.0,
            tail_duration: SimDuration::from_millis(1_800),
            bandwidth_bps: 20_000_000.0,
            per_message_overhead_bytes: 0,
            state: RadioState::Idle,
            state_since: Timestamp::ZERO,
            tail_until: Timestamp::ZERO,
            energy_mj: 0.0,
        }
    }
}

impl RadioModel {
    /// Creates the default radio with its clock at `start`.
    pub fn new(start: Timestamp) -> Self {
        RadioModel {
            state_since: start,
            ..RadioModel::default()
        }
    }

    /// A radio whose integral reproduces the calibrated constant-cost
    /// model in [`EnergyProfile`](crate::EnergyProfile): per-byte energy,
    /// per-message overhead and per-burst tail all match. The implied
    /// parameters (≈0.5 Mbit/s effective throughput, ≈13 mW tail) describe
    /// the *battery-visible* radio behaviour behind the paper's per-cycle
    /// energies, which are far below a worst-case 2012 WiFi tail — the
    /// handset's interface evidently slept aggressively between cycles.
    pub fn calibrated_to(profile: &crate::EnergyProfile, start: Timestamp) -> Self {
        const MJ_PER_UAH: f64 = 3.7 * 3_600.0 / 1_000.0; // 13.32 mJ per µAH
        let active_mw = 800.0;
        // Per-byte active time from the profile's per-byte energy.
        let per_byte_mj = profile.tx_per_byte_uah * MJ_PER_UAH;
        let bandwidth_bps = active_mw * 8.0 / per_byte_mj;
        // Per-message constant cost as protocol overhead bytes.
        let per_message_mj = profile.tx_per_message_uah * MJ_PER_UAH;
        let overhead_bytes = (per_message_mj / per_byte_mj).round() as usize;
        // Tail power spreading the per-burst tail charge over the window.
        let tail_duration = SimDuration::from_millis(1_800);
        let tail_mw = profile.radio_tail_uah * MJ_PER_UAH / tail_duration.as_secs_f64();
        RadioModel {
            idle_mw: 0.0, // the profile charges idle separately
            active_mw,
            tail_mw,
            tail_duration,
            bandwidth_bps,
            per_message_overhead_bytes: overhead_bytes,
            state: RadioState::Idle,
            state_since: start,
            tail_until: start,
            energy_mj: 0.0,
        }
    }

    /// Current state (after any pending tail expiry at `now`).
    pub fn state_at(&mut self, now: Timestamp) -> RadioState {
        self.advance_to(now);
        self.state
    }

    /// Records a transmission of `bytes` starting at `now`. Returns the
    /// time the radio finishes the active period.
    pub fn transmit(&mut self, now: Timestamp, bytes: usize) -> Timestamp {
        self.advance_to(now);
        // Active for the serialization time, including protocol overhead.
        let bytes = bytes + self.per_message_overhead_bytes;
        let active_s = (bytes as f64 * 8.0) / self.bandwidth_bps;
        let active = SimDuration::from_secs_f64(active_s.max(0.001));
        self.transition(now, RadioState::Active);
        let done = now + active;
        self.advance_to(done);
        self.transition(done, RadioState::Tail);
        self.tail_until = done + self.tail_duration;
        done
    }

    /// Total integrated energy up to `now`, in millijoules.
    pub fn energy_mj(&mut self, now: Timestamp) -> f64 {
        self.advance_to(now);
        self.energy_mj
    }

    /// Integrated energy converted to µAH at a nominal 3.7 V battery.
    pub fn energy_uah(&mut self, now: Timestamp) -> f64 {
        // 1 mJ = 1 mW·s; µAH = mJ / 3.7 V / 3600 s × 1000.
        self.energy_mj(now) / 3.7 / 3_600.0 * 1_000.0
    }

    fn power_mw(&self) -> f64 {
        match self.state {
            RadioState::Idle => self.idle_mw,
            RadioState::Active => self.active_mw,
            RadioState::Tail => self.tail_mw,
        }
    }

    /// Integrates energy forward to `now`, handling tail expiry.
    fn advance_to(&mut self, now: Timestamp) {
        debug_assert!(now >= self.state_since, "radio clock went backwards");
        if self.state == RadioState::Tail && now >= self.tail_until {
            // Integrate the remaining tail, then idle from tail end.
            let tail_s = self
                .tail_until
                .saturating_since(self.state_since)
                .as_secs_f64();
            self.energy_mj += self.tail_mw * tail_s;
            self.state = RadioState::Idle;
            self.state_since = self.tail_until;
        }
        let dt_s = now.saturating_since(self.state_since).as_secs_f64();
        self.energy_mj += self.power_mw() * dt_s;
        self.state_since = now;
    }

    fn transition(&mut self, now: Timestamp, state: RadioState) {
        debug_assert!(now >= self.state_since);
        self.state = state;
        self.state_since = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_radio_draws_idle_power() {
        let mut radio = RadioModel::new(Timestamp::ZERO);
        let e = radio.energy_mj(Timestamp::from_secs(100));
        assert!((e - 10.0 * 100.0).abs() < 1e-6);
        assert_eq!(radio.state_at(Timestamp::from_secs(100)), RadioState::Idle);
    }

    #[test]
    fn transmission_enters_tail_then_idle() {
        let mut radio = RadioModel::new(Timestamp::ZERO);
        radio.transmit(Timestamp::from_secs(10), 10_000);
        assert_eq!(
            radio.state_at(Timestamp::from_millis(10_500)),
            RadioState::Tail
        );
        assert_eq!(radio.state_at(Timestamp::from_secs(13)), RadioState::Idle);
    }

    #[test]
    fn tail_energy_dominates_small_transfers() {
        let mut radio = RadioModel::new(Timestamp::ZERO);
        radio.transmit(Timestamp::from_secs(1), 100);
        let total = radio.energy_mj(Timestamp::from_secs(10));
        // Idle-only baseline over 10 s would be 100 mJ; the tail adds ~1 J.
        let baseline = 10.0 * 10.0;
        assert!(total > baseline + 900.0, "total {total}");
    }

    #[test]
    fn bursts_within_one_tail_share_it() {
        // Two transmissions 500 ms apart: the second rides the first's
        // tail, so total energy is well below two independent tails.
        let mut twice = RadioModel::new(Timestamp::ZERO);
        twice.transmit(Timestamp::from_secs(1), 1_000);
        twice.transmit(Timestamp::from_millis(1_500), 1_000);
        let shared = twice.energy_mj(Timestamp::from_secs(10));

        let mut spaced = RadioModel::new(Timestamp::ZERO);
        spaced.transmit(Timestamp::from_secs(1), 1_000);
        spaced.transmit(Timestamp::from_secs(6), 1_000);
        let independent = spaced.energy_mj(Timestamp::from_secs(10));

        assert!(
            shared < independent - 500.0,
            "shared {shared} vs {independent}"
        );
    }

    /// The constant-per-burst model used by `EnergyProfile` agrees with
    /// the time-integrated radio it was calibrated from, for duty-cycled
    /// workloads (bursts spaced beyond the tail).
    #[test]
    fn constant_tail_approximation_holds_for_duty_cycles() {
        let profile = crate::EnergyProfile::default();
        let mut radio = RadioModel::calibrated_to(&profile, Timestamp::ZERO);
        let bytes = 16 + 24 * 400; // one raw accelerometer burst
        let n = 60u64;
        for i in 0..n {
            radio.transmit(Timestamp::from_secs(60 * (i + 1)), bytes);
        }
        let end = Timestamp::from_secs(60 * (n + 1));
        let integrated = radio.energy_uah(end);
        let constant_model = n as f64 * (profile.transmission_uah(bytes) + profile.radio_tail_uah);
        let ratio = integrated / constant_model;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "integrated {integrated:.1} vs constant {constant_model:.1} (ratio {ratio:.2})"
        );
    }

    /// The calibrated model diverges from the constant model when bursts
    /// pack inside one tail window — the regime the constant-per-burst
    /// approximation over-charges.
    #[test]
    fn constant_model_overcharges_packed_bursts() {
        let profile = crate::EnergyProfile::default();
        let mut radio = RadioModel::calibrated_to(&profile, Timestamp::ZERO);
        let bytes = 200usize;
        let n = 20u64;
        // 20 bursts 200 ms apart: all inside a rolling tail.
        for i in 0..n {
            radio.transmit(Timestamp::from_millis(1_000 + 200 * i), bytes);
        }
        let integrated = radio.energy_uah(Timestamp::from_secs(30));
        let constant_model = n as f64 * (profile.transmission_uah(bytes) + profile.radio_tail_uah);
        assert!(
            integrated < 0.7 * constant_model,
            "packed bursts should share tails: {integrated:.1} vs {constant_model:.1}"
        );
    }
}
