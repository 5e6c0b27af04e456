//! Per-pair link characteristics.

use crate::latency::LatencyModel;

/// Characteristics of the directed link between two endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Propagation + queueing delay distribution.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that a message is silently lost. QoS-1
    /// broker traffic retransmits over lossy links; QoS-0 traffic does not.
    pub loss_probability: f64,
    /// Link bandwidth in bits per second; `None` means transmission time is
    /// negligible compared to latency.
    pub bandwidth_bps: Option<u64>,
}

impl LinkSpec {
    /// A link with the given latency, no loss, unlimited bandwidth.
    pub fn with_latency(latency: LatencyModel) -> Self {
        LinkSpec {
            latency,
            ..LinkSpec::default()
        }
    }

    /// Sets the loss probability (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn lossy(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss_probability = p;
        self
    }

    /// Sets the bandwidth in bits per second (builder-style).
    pub fn bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = Some(bps);
        self
    }

    /// Serialization/transmission time for a payload of `bytes` bytes, in
    /// seconds.
    pub fn transmission_time_s(&self, bytes: usize) -> f64 {
        match self.bandwidth_bps {
            Some(bps) if bps > 0 => (bytes as f64 * 8.0) / bps as f64,
            _ => 0.0,
        }
    }
}

impl Default for LinkSpec {
    /// An uncongested WiFi-class link: 40 ms latency, no loss, 20 Mbit/s.
    fn default() -> Self {
        LinkSpec {
            latency: LatencyModel::default(),
            loss_probability: 0.0,
            bandwidth_bps: Some(20_000_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let l = LinkSpec::with_latency(LatencyModel::constant_ms(10))
            .lossy(0.25)
            .bandwidth(1_000_000);
        assert_eq!(l.loss_probability, 0.25);
        assert_eq!(l.bandwidth_bps, Some(1_000_000));
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let l = LinkSpec::default().bandwidth(8_000); // 1 kB/s
        assert!((l.transmission_time_s(1_000) - 1.0).abs() < 1e-9);
        assert_eq!(l.transmission_time_s(0), 0.0);
        let unlimited = LinkSpec {
            latency: LatencyModel::constant_ms(5),
            loss_probability: 0.0,
            bandwidth_bps: None,
        };
        assert_eq!(unlimited.transmission_time_s(1 << 20), 0.0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_panics() {
        let _ = LinkSpec::default().lossy(1.5);
    }
}
