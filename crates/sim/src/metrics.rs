//! Simulation metrics.

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Number of processors simulated.
    pub processors: usize,
    /// Number of slots simulated.
    pub slots: u64,
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped (hot-potato with no free port, or still queued at the
    /// end of the run — reported separately as `in_flight`).
    pub dropped: u64,
    /// Messages still in flight when the run ended.
    pub in_flight: u64,
    /// Sum of end-to-end latencies of delivered messages, in slots.
    pub total_latency: u64,
    /// Largest observed latency.
    pub max_latency: u64,
    /// Sum of hop counts of delivered messages.
    pub total_hops: u64,
    /// Largest observed hop count among delivered messages (the empirical
    /// path-length bound, e.g. `k + 2` under `d − 1` faults).
    pub max_hops: u32,
    /// Number of coupler/link grants issued (used slots across all couplers).
    pub grants: u64,
    /// Number of couplers or links in the network (for utilisation).
    pub channels: usize,
    /// Wavelengths multiplexed per channel during this run, or `0` for a
    /// legacy capacity-1 run where the wavelength layer was off.  The zero
    /// value is the layer flag: every wavelength-derived statistic is `NaN`
    /// when it is `0`.
    pub wavelengths: usize,
    /// Messages blocked: every wavelength of the required channel was busy
    /// and no alternate route could absorb the message.  Blocked messages
    /// are also counted in `dropped` (conservation holds).
    pub blocked: u64,
    /// Alternate-route events: a message left its primary route for an
    /// alternate one (multi-OPS alternate paths, or hot-potato deflections
    /// off a shortest-path port).  A message re-routed twice counts twice.
    pub alt_routed: u64,
    /// Kernel swaps applied by a fault timeline during this run (one per
    /// distinct event slot of the bound `FaultSchedule`).  The zero value is
    /// the timeline flag, exactly like `wavelengths == 0` for the wavelength
    /// layer: every restoration statistic is undefined when it is `0`.
    pub fault_events: u64,
    /// Messages in flight at the first overlay-growing swap (the *failure*
    /// the restoration metrics are anchored to), counted before stranding.
    pub in_flight_at_failure: u64,
    /// Messages stranded by kernel swaps — in flight on a node, group or
    /// arc the new kernel fails, or left with no surviving route.  A subset
    /// of `dropped` (conservation holds), counted separately from
    /// congestion drops.
    pub dropped_by_failure: u64,
    /// Slots from the failure until the cumulative post-failure delivery
    /// rate first recovered to ≥ 95% of the pre-failure baseline;
    /// `u64::MAX` means it never did (also the sentinel when the failure
    /// happened at slot 0 or nothing was delivered before it).
    pub restore_slots: u64,
    /// Largest end-to-end latency among messages delivered at or after the
    /// failure slot.
    pub post_failure_latency_peak: u64,
}

impl SimMetrics {
    /// A zeroed metrics record.
    pub fn new(processors: usize, channels: usize) -> Self {
        SimMetrics {
            processors,
            slots: 0,
            injected: 0,
            delivered: 0,
            dropped: 0,
            in_flight: 0,
            total_latency: 0,
            max_latency: 0,
            total_hops: 0,
            max_hops: 0,
            grants: 0,
            channels,
            wavelengths: 0,
            blocked: 0,
            alt_routed: 0,
            fault_events: 0,
            in_flight_at_failure: 0,
            dropped_by_failure: 0,
            restore_slots: 0,
            post_failure_latency_peak: 0,
        }
    }

    /// Average end-to-end latency of delivered messages, in slots.
    pub fn average_latency(&self) -> f64 {
        if self.delivered == 0 {
            f64::NAN
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Average number of optical hops per delivered message.
    pub fn average_hops(&self) -> f64 {
        if self.delivered == 0 {
            f64::NAN
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Delivered messages per processor per slot (accepted throughput).
    pub fn throughput(&self) -> f64 {
        if self.slots == 0 || self.processors == 0 {
            0.0
        } else {
            self.delivered as f64 / (self.slots as f64 * self.processors as f64)
        }
    }

    /// Fraction of channel-slots actually used, in `[0, 1]`.
    pub fn channel_utilization(&self) -> f64 {
        if self.slots == 0 || self.channels == 0 {
            0.0
        } else {
            self.grants as f64 / (self.slots as f64 * self.channels as f64)
        }
    }

    /// Fraction of injected messages that were delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            f64::NAN
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Fraction of injected messages blocked by wavelength exhaustion.
    /// `NaN` (undefined) when the wavelength layer was off or nothing was
    /// injected.
    pub fn blocking_ratio(&self) -> f64 {
        if self.wavelengths == 0 || self.injected == 0 {
            f64::NAN
        } else {
            self.blocked as f64 / self.injected as f64
        }
    }

    /// Fraction of channel-wavelength-slots actually used, in `[0, 1]` —
    /// the spectrum-usage analogue of [`SimMetrics::channel_utilization`].
    /// `NaN` (undefined) when the wavelength layer was off.
    pub fn wavelength_utilization(&self) -> f64 {
        if self.wavelengths == 0 {
            f64::NAN
        } else if self.slots == 0 || self.channels == 0 {
            0.0
        } else {
            self.grants as f64
                / (self.slots as f64 * self.channels as f64 * self.wavelengths as f64)
        }
    }

    /// Alternate-route events per injected message (may exceed 1 when
    /// messages re-route repeatedly).  `NaN` (undefined) when the wavelength
    /// layer was off or nothing was injected.
    pub fn alt_route_rate(&self) -> f64 {
        if self.wavelengths == 0 || self.injected == 0 {
            f64::NAN
        } else {
            self.alt_routed as f64 / self.injected as f64
        }
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self, latency: u64, hops: u32) {
        self.delivered += 1;
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        self.total_hops += u64::from(hops);
        self.max_hops = self.max_hops.max(hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let mut m = SimMetrics::new(10, 5);
        m.slots = 100;
        m.injected = 50;
        m.record_delivery(4, 2);
        m.record_delivery(6, 3);
        m.grants = 40;
        assert_eq!(m.delivered, 2);
        assert!((m.average_latency() - 5.0).abs() < 1e-12);
        assert!((m.average_hops() - 2.5).abs() < 1e-12);
        assert!((m.throughput() - 0.002).abs() < 1e-12);
        assert!((m.channel_utilization() - 0.08).abs() < 1e-12);
        assert!((m.delivery_ratio() - 0.04).abs() < 1e-12);
        assert_eq!(m.max_latency, 6);
        assert_eq!(m.max_hops, 3);
    }

    #[test]
    fn degenerate_cases_do_not_divide_by_zero() {
        let m = SimMetrics::new(0, 0);
        assert!(m.average_latency().is_nan());
        assert!(m.average_hops().is_nan());
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.channel_utilization(), 0.0);
        assert!(m.delivery_ratio().is_nan());
        // Wavelength layer off: its statistics are undefined, not zero.
        assert!(m.blocking_ratio().is_nan());
        assert!(m.wavelength_utilization().is_nan());
        assert!(m.alt_route_rate().is_nan());
        // Layer on but an empty run: defined, and zero where sensible.
        let mut on = SimMetrics::new(0, 0);
        on.wavelengths = 4;
        assert!(on.blocking_ratio().is_nan(), "zero injections stay NaN");
        assert_eq!(on.wavelength_utilization(), 0.0);
    }

    #[test]
    fn wavelength_statistics_follow_their_counters() {
        let mut m = SimMetrics::new(8, 4);
        m.slots = 100;
        m.wavelengths = 2;
        m.injected = 50;
        m.blocked = 5;
        m.alt_routed = 10;
        m.grants = 400;
        assert!((m.blocking_ratio() - 0.1).abs() < 1e-12);
        assert!((m.alt_route_rate() - 0.2).abs() < 1e-12);
        // 400 grants over 100 slots * 4 channels * 2 wavelengths.
        assert!((m.wavelength_utilization() - 0.5).abs() < 1e-12);
    }
}
