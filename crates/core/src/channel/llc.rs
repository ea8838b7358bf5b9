//! A classic LLC Prime+Probe covert channel (Liu et al., cited as \[7\]) —
//! the related-work baseline the paper positions itself against.
//!
//! Two *regular* (non-enclave) processes on different cores: outside SGX,
//! hugepages are available, so the spy maps a physically contiguous buffer,
//! computes an LLC eviction set for one cache set analytically, and runs
//! textbook Prime+Probe. This channel is much faster than the MEE channel
//! (no MEE walk per probe, smaller windows) — the paper concedes "other
//! covert channel attacks have demonstrated higher bit rate" — but it lives
//! in the LLC, where occupancy/eviction-based defenses watch; the
//! [`stealth`](crate::experiments::stealth) experiment quantifies the
//! difference in footprint.

use mee_machine::{Machine, NoopHook, ProcId};
use mee_mem::AddressSpaceKind;
use mee_types::{Cycles, ModelError, VirtAddr, LINE_SIZE, PAGE_SIZE};

use crate::channel::config::EvictionStrategy;
use crate::channel::exchange::{Exchange, ProbeShape, TransmitOutcome};
use crate::setup::AttackSetup;

/// An established LLC Prime+Probe channel between two regular processes.
#[derive(Debug, Clone)]
pub struct LlcSession {
    /// The spy's regular process.
    pub spy_proc: ProcId,
    /// The trojan's regular process.
    pub trojan_proc: ProcId,
    /// The spy's LLC eviction set (one address per way).
    pub eviction_set: Vec<VirtAddr>,
    /// The trojan's conflicting address.
    pub target: VirtAddr,
    /// Window size per bit.
    pub window: Cycles,
    /// Probe-time decode threshold.
    pub probe_threshold: Cycles,
}

impl LlcSession {
    /// Establishes the channel: maps hugepage-backed buffers for both
    /// parties and computes the eviction set analytically from physical
    /// contiguity (the very capability SGX withholds — challenge 3).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for a zero window; propagates
    /// allocation and translation errors.
    pub fn establish(setup: &mut AttackSetup, window: Cycles) -> Result<Self, ModelError> {
        if window == Cycles::ZERO {
            return Err(ModelError::InvalidConfig {
                reason: "the LLC channel's window must be non-zero".into(),
            });
        }
        let llc = setup.machine.llc().config();
        let ways = llc.ways;
        let sets = llc.sets;
        // Contiguous span covering `ways` lines of one set: ways × sets
        // lines.
        let span_pages = (ways * sets * LINE_SIZE).div_ceil(PAGE_SIZE) + 1;

        let spy_proc = setup.machine.create_process(AddressSpaceKind::Regular);
        let spy_base = VirtAddr::new(0x4000_0000);
        setup
            .machine
            .map_pages_contiguous(spy_proc, spy_base, span_pages)?;
        let trojan_proc = setup.machine.create_process(AddressSpaceKind::Regular);
        let trojan_base = VirtAddr::new(0x5000_0000);
        setup
            .machine
            .map_pages_contiguous(trojan_proc, trojan_base, span_pages)?;

        // With physical contiguity, the set index of any VA is computable
        // from the base alignment (hugepage bases are known-aligned; here we
        // read the translation once, as real attackers read /proc or probe).
        let (target_set, sets_u64) = ((0x2a % sets) as u64, sets as u64);
        // Lines from `base` to the first line in the target set.
        let align = |machine: &Machine, proc, base: VirtAddr| -> Result<u64, ModelError> {
            let line = machine.translate(proc, base)?.line().raw();
            Ok((target_set + sets_u64 - line % sets_u64) % sets_u64)
        };
        let spy_align = align(&setup.machine, spy_proc, spy_base)?;
        let eviction_set: Vec<VirtAddr> = (0..ways)
            .map(|w| spy_base + (spy_align + (w * sets) as u64) * LINE_SIZE as u64)
            .collect();
        let trojan_align = align(&setup.machine, trojan_proc, trojan_base)?;
        let target = trojan_base + trojan_align * LINE_SIZE as u64;

        // Calibrate: all-hit probe sweeps (no flushes — the lines alias in
        // L1/L2 and keep falling through to the LLC) vs the DRAM penalty of
        // one miss.
        let mut quiet_total = 0u64;
        let reps = 8u64;
        {
            for &a in &eviction_set {
                setup.machine.read(setup.spy.core, spy_proc, a)?;
            }
            for _ in 0..reps {
                let t1 = setup.machine.timer_read(setup.spy.core);
                for &a in &eviction_set {
                    setup.machine.read(setup.spy.core, spy_proc, a)?;
                }
                let t2 = setup.machine.timer_read(setup.spy.core);
                quiet_total += t2.saturating_sub(t1).raw();
            }
        }
        let t = &setup.machine.config().timing;
        let miss_penalty = (t.dram_row_hit + t.dram_row_miss) / 2;
        let probe_threshold = Cycles::new(quiet_total / reps) + miss_penalty / 2;

        Ok(LlcSession {
            spy_proc,
            trojan_proc,
            eviction_set,
            target,
            window,
            probe_threshold,
        })
    }

    /// Transmits `bits`, one per window, using the spy/trojan cores of
    /// `setup` but the regular processes of this session. The exchange is
    /// the Prime+Probe baseline's, except that the spy never flushes.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<TransmitOutcome, ModelError> {
        let threshold = self.probe_threshold;
        Exchange {
            sender: (setup.trojan.core, self.trojan_proc),
            receiver: (setup.spy.core, self.spy_proc),
            window: self.window,
            lanes: vec![vec![self.target]],
            strategy: EvictionStrategy::ForwardOnly,
            rotate: false,
            phase: self.window / 2,
            probes: vec![self.eviction_set.clone()],
            shape: ProbeShape::NoFlush,
            guard: Cycles::ZERO,
            bias: Cycles::ZERO,
        }
        .run(setup, bits, &mut [], &mut NoopHook, |t| t > threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::random_bits;

    #[test]
    fn eviction_set_really_collides_in_one_llc_set() {
        let mut setup = AttackSetup::quiet(311).unwrap();
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let sets = setup.machine.llc().config().sets;
        let set_of = |proc, va| {
            setup
                .machine
                .translate(proc, va)
                .unwrap()
                .line()
                .set_index(sets)
        };
        let expected = set_of(session.trojan_proc, session.target);
        for &a in &session.eviction_set {
            assert_eq!(set_of(session.spy_proc, a), expected);
        }
        assert_eq!(session.eviction_set.len(), setup.machine.llc().config().ways);
    }

    #[test]
    fn zero_window_is_rejected() {
        let mut setup = AttackSetup::quiet(310).unwrap();
        let err = LlcSession::establish(&mut setup, Cycles::ZERO).unwrap_err();
        assert!(matches!(err, ModelError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn llc_channel_communicates_and_is_faster() {
        let mut setup = AttackSetup::quiet(312).unwrap();
        // 4000-cycle windows: ~131 KBps, far above the MEE channel's 35.
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let bits = random_bits(64, 312);
        let out = session.transmit(&mut setup, &bits).unwrap();
        assert_eq!(out.received, bits, "LLC channel miscommunicated");
        assert!(out.kbps > 100.0, "kbps = {}", out.kbps);
    }

    #[test]
    fn llc_channel_under_noise() {
        let mut setup = AttackSetup::new(313).unwrap();
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let bits = random_bits(256, 313);
        let out = session.transmit(&mut setup, &bits).unwrap();
        assert!(out.errors.rate() < 0.08, "error rate {}", out.errors.rate());
    }
}
