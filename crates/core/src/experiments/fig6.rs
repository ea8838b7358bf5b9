//! Figure 6: MEE-cache covert channel with (a) Prime+Probe — which fails —
//! and (b) this work's single-way channel, both sending `0101…`.

use std::fmt;

use mee_types::{Cycles, ModelError};

use crate::channel::prime_probe::PrimeProbeSession;
use crate::channel::{alternating_bits, ChannelConfig, Session, TransmitOutcome};
use crate::report;
use crate::setup::AttackSetup;

/// Figure-6 output.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// (a): the Prime+Probe baseline.
    pub prime_probe: TransmitOutcome,
    /// (b): this work.
    pub this_work: TransmitOutcome,
}

/// Runs both panels with a `0101…` sequence of `bits` bits, using the
/// paper's default channel parameters.
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_fig6(seed: u64, bits: usize) -> Result<Fig6Result, ModelError> {
    run_fig6_with(seed, bits, &ChannelConfig::default())
}

/// Like [`run_fig6`] with explicit channel parameters — seed sweeps use
/// [`ChannelConfig::sweep_setup`] so that establishment cost does not
/// dominate a 16-session pooled run.
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_fig6_with(seed: u64, bits: usize, cfg: &ChannelConfig) -> Result<Fig6Result, ModelError> {
    let payload = alternating_bits(bits);

    let mut setup_a = AttackSetup::new(seed)?;
    let pp = PrimeProbeSession::establish(&mut setup_a, cfg)?;
    let prime_probe = pp.transmit(&mut setup_a, &payload)?;

    let mut setup_b = AttackSetup::new(seed.wrapping_add(1))?;
    let session = Session::establish(&mut setup_b, cfg)?;
    let this_work = session.transmit(&mut setup_b, &payload)?;

    Ok(Fig6Result {
        prime_probe,
        this_work,
    })
}

fn series(f: &mut fmt::Formatter<'_>, sent: &[bool], times: &[Cycles]) -> fmt::Result {
    let rows: Vec<Vec<String>> = sent
        .iter()
        .enumerate()
        .map(|(i, &bit)| {
            vec![
                (i + 1).to_string(),
                if bit { "1" } else { "0" }.to_string(),
                times
                    .get(i + 1)
                    .map(|t| t.raw().to_string())
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    f.write_str(&report::table(&["bit #", "sent", "probe time (cycles)"], &rows))
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6(a) — Prime+Probe over the MEE cache (trojan sends 0101…)"
        )?;
        series(f, &self.prime_probe.sent, &self.prime_probe.probe_times)?;
        writeln!(
            f,
            "decoded error rate: {}  (probe sweeps exceed 3500 cycles; the \
             ~300-cycle signal drowns)",
            report::pct(self.prime_probe.errors.rate())
        )?;
        writeln!(f)?;
        writeln!(f, "Figure 6(b) — this work (single-way probe)")?;
        series(f, &self.this_work.sent, &self.this_work.probe_times)?;
        writeln!(
            f,
            "decoded error rate: {}  (~480 cycles ⇒ '0', ~750 cycles ⇒ '1')",
            report::pct(self.this_work.errors.rate())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_contrast_holds() {
        let r = run_fig6(103, 24).unwrap();
        // (a) probes are ~8x more expensive than (b) probes.
        let pp_mean: u64 = r
            .prime_probe
            .probe_times
            .iter()
            .map(|t| t.raw())
            .sum::<u64>()
            / r.prime_probe.probe_times.len() as u64;
        let ours_mean: u64 = r
            .this_work
            .probe_times
            .iter()
            .map(|t| t.raw())
            .sum::<u64>()
            / r.this_work.probe_times.len() as u64;
        assert!(pp_mean > 3_500, "P+P probe mean {pp_mean}");
        assert!(ours_mean < 1_000, "our probe mean {ours_mean}");
        // (b) communicates; (a) does so much worse.
        assert!(r.this_work.errors.rate() < 0.1);
        assert!(r.prime_probe.errors.rate() > r.this_work.errors.rate());
        let text = r.to_string();
        assert!(text.contains("Figure 6(a)"));
        assert!(text.contains("Figure 6(b)"));
    }
}
