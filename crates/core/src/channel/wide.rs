//! The *wide* channel (extension): several MEE-cache sets in parallel.
//!
//! The paper's channel sends one bit per timing window through one cache
//! set. Nothing stops the pair from agreeing on several in-page offsets:
//! each of the 8 version blocks of a page maps to a *different* MEE-cache
//! set (offset `o` lands on set `≡ 2o+1 (mod 16)` within its alignment
//! class), so up to 8 independent lanes coexist without colliding: the
//! Algorithm 2 [exchange](crate::channel::exchange) with one lane per
//! offset, whose sender sweeps every `1` lane's eviction set inside the
//! window while the receiver probes each lane's monitor in its guard slot.
//!
//! Throughput: a lane's `1` costs ≈ 9000 cycles of trojan time, so the
//! window must grow with the lane count and the speedup saturates around
//! `15000 / 9000 ≈ 1.7×` — but latency per symbol improves, and the lanes
//! share one setup. The [`wide` experiment](crate::experiments::wide)
//! quantifies the trade-off.

use mee_machine::NoopHook;
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::{ChannelConfig, EvictionStrategy};
use crate::channel::exchange::{Exchange, ProbeShape, TransmitOutcome};
use crate::channel::session::Session;
use crate::setup::AttackSetup;
use crate::threshold::LatencyClassifier;

/// One lane: an eviction set and a monitor address in one MEE-cache set.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The trojan's eviction addresses for this lane.
    pub eviction_set: Vec<VirtAddr>,
    /// The spy's monitor address for this lane.
    pub monitor: VirtAddr,
    /// The agreed in-page offset this lane uses.
    pub offset: usize,
}

/// A multi-lane channel.
#[derive(Debug, Clone)]
pub struct WideSession {
    /// The lanes, in symbol bit order (lane 0 = most significant).
    pub lanes: Vec<Lane>,
    /// Window per symbol.
    pub window: Cycles,
    classifier: LatencyClassifier,
}

impl WideSession {
    /// Establishes `lanes` parallel lanes (1 ..= 8) by running the ordinary
    /// establishment once per agreed offset.
    ///
    /// The window defaults to `max(cfg.window, lanes × 9500 + 2500)` so the
    /// trojan can sweep every active lane within one window.
    ///
    /// # Errors
    ///
    /// Propagates establishment errors; returns
    /// [`ModelError::InvalidConfig`] for a lane count outside `1..=8`.
    pub fn establish(
        setup: &mut AttackSetup,
        cfg: &ChannelConfig,
        lanes: usize,
    ) -> Result<Self, ModelError> {
        if !(1..=8).contains(&lanes) {
            return Err(ModelError::InvalidConfig {
                reason: format!("lane count {lanes} must be in 1..=8 (one per version block)"),
            });
        }
        cfg.validate()?;
        let mut built = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let lane_cfg = ChannelConfig {
                agreed_offset: lane,
                ..cfg.clone()
            };
            let session = Session::establish(setup, &lane_cfg)?;
            built.push(Lane {
                eviction_set: session.eviction_set,
                monitor: session.monitor,
                offset: lane,
            });
        }
        let min_window = Cycles::new(lanes as u64 * 9_500 + 2_500);
        Ok(WideSession {
            lanes: built,
            window: cfg.window.max(min_window),
            classifier: LatencyClassifier::from_timing(&setup.machine.config().timing),
        })
    }

    /// Transmits `bits` (flattened symbols: window `w` carries bits
    /// `w*lanes .. (w+1)*lanes`, zero-padded at the tail). The receiver's
    /// guard grows by 800 cycles per lane, capped at half a window.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<TransmitOutcome, ModelError> {
        let lanes = self.lanes.len() as u64;
        let threshold = self.classifier.threshold;
        Exchange {
            sender: (setup.trojan.core, setup.trojan.proc),
            receiver: (setup.spy.core, setup.spy.proc),
            window: self.window,
            lanes: self.lanes.iter().map(|l| l.eviction_set.clone()).collect(),
            strategy: EvictionStrategy::TwoPhase,
            rotate: true,
            phase: Cycles::ZERO,
            probes: self.lanes.iter().map(|l| vec![l.monitor]).collect(),
            shape: ProbeShape::FlushAfter,
            guard: Cycles::new((lanes * 800 + 400).min(self.window.raw() / 2)),
            bias: setup.machine.config().timing.timer_read,
        }
        .run(setup, bits, &mut [], &mut NoopHook, |t| t >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::random_bits;

    #[test]
    fn lane_sets_occupy_distinct_mee_sets() {
        let mut setup = AttackSetup::quiet(501).unwrap();
        let wide = WideSession::establish(&mut setup, &ChannelConfig::default(), 3).unwrap();
        let geo = *setup.machine.mee().geometry();
        let sets = setup.machine.mee().cache().config().sets;
        let set_of = |proc, va| {
            let pa = setup.machine.translate(proc, va).unwrap();
            geo.version_line(geo.walk_path(pa.line()).version)
                .set_index(sets)
        };
        let lane_sets: Vec<usize> = wide
            .lanes
            .iter()
            .map(|l| set_of(setup.spy.proc, l.monitor))
            .collect();
        for i in 0..lane_sets.len() {
            for j in i + 1..lane_sets.len() {
                assert_ne!(lane_sets[i], lane_sets[j], "lanes {i}/{j} collide");
            }
        }
    }

    #[test]
    fn two_lane_channel_is_error_free_quiet() {
        let mut setup = AttackSetup::quiet(502).unwrap();
        let wide = WideSession::establish(&mut setup, &ChannelConfig::default(), 2).unwrap();
        let bits = random_bits(64, 502);
        let out = wide.transmit(&mut setup, &bits).unwrap();
        assert_eq!(out.received, bits);
    }

    #[test]
    fn wide_channel_beats_single_lane_throughput() {
        let mut setup = AttackSetup::quiet(503).unwrap();
        let single = WideSession::establish(&mut setup, &ChannelConfig::default(), 1).unwrap();
        let bits = random_bits(48, 503);
        let single_out = single.transmit(&mut setup, &bits).unwrap();

        let mut setup2 = AttackSetup::quiet(503).unwrap();
        let wide = WideSession::establish(&mut setup2, &ChannelConfig::default(), 4).unwrap();
        let wide_out = wide.transmit(&mut setup2, &bits).unwrap();

        assert_eq!(wide_out.received, bits, "wide channel corrupted data");
        assert!(
            wide_out.kbps > single_out.kbps * 1.2,
            "wide {} KBps vs single {} KBps",
            wide_out.kbps,
            single_out.kbps
        );
    }

    #[test]
    fn lane_count_bounds_enforced() {
        let mut setup = AttackSetup::quiet(504).unwrap();
        assert!(WideSession::establish(&mut setup, &ChannelConfig::default(), 0).is_err());
        assert!(WideSession::establish(&mut setup, &ChannelConfig::default(), 9).is_err());
    }
}
