//! The crash-safe channel campaign: the channel sweep of [`super::sweep`]
//! scaled up through [`mee_campaign`].
//!
//! A sweep returns every per-session point in memory; a *campaign* streams
//! sessions into constant-memory aggregates, checkpoints completed shards,
//! and survives kills and per-shard faults. The driver fixes the series
//! schema and the body-version tag (bump the tag whenever the session
//! computation changes — it invalidates stale checkpoints instead of
//! silently mixing incompatible runs), then runs the same
//! [`channel_session`] the plain sweep runs: session `i` of root seed `r`
//! is exactly the standalone session at seed `stream_seed(r, i)`, so every
//! campaign number is replayable one session at a time.

use mee_campaign::{Campaign, CampaignError, CampaignOutcome, CampaignPlan};

use crate::channel::ChannelConfig;

use super::sweep::channel_session;

/// Series schema of a channel campaign, in order.
pub const CHANNEL_SERIES: [&str; 5] =
    ["ber", "kbps", "elapsed_cycles", "probe_p50_cycles", "probe_p95_cycles"];

/// Runs a channel campaign: one [`channel_session`] (establish + transmit
/// of `bits` seed-derived random bits) per campaign session, aggregated
/// into the [`CHANNEL_SERIES`] schema.
///
/// # Errors
///
/// [`CampaignError`] for orchestration faults (corrupt checkpoint,
/// non-empty dir, injected abort…). Per-session model errors do **not**
/// fail the campaign — their shard is quarantined, and the outcome reports
/// exactly which sessions are missing.
pub fn run_channel_campaign(
    plan: CampaignPlan,
    cfg: &ChannelConfig,
    bits: usize,
) -> Result<CampaignOutcome, CampaignError> {
    let series = CHANNEL_SERIES.iter().map(|s| (*s).to_owned()).collect();
    let campaign = Campaign::new(plan, series, "channel/v1")?;
    campaign.run(|spec| {
        let p = channel_session(spec, cfg, bits).map_err(|e| e.to_string())?;
        Ok(vec![
            p.error_rate(),
            p.kbps,
            p.elapsed.raw() as f64,
            p.probe_p50.raw() as f64,
            p.probe_p95.raw() as f64,
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_campaign_matches_the_plain_sweep_session_for_session() {
        // The campaign and the sweep must agree number for number: the
        // campaign is new orchestration around the *same* session bodies.
        let cfg = ChannelConfig::sweep_setup();
        let bits = 8;
        let sweep = super::super::sweep::run_channel_sweep(
            &super::super::sweep::SweepPlan::new(2019, 3).threads(1),
            &cfg,
            bits,
        )
        .unwrap();
        let outcome = run_channel_campaign(
            CampaignPlan::new("test/channel", 2019, 3, 2).threads(2),
            &cfg,
            bits,
        )
        .unwrap();
        assert!(outcome.is_complete());
        let agg = outcome.aggregate.series("ber").unwrap();
        let sweep_mean_ber =
            sweep.iter().map(|p| p.error_rate()).sum::<f64>() / sweep.len() as f64;
        assert!(
            (agg.stats.mean - sweep_mean_ber).abs() < 1e-12,
            "campaign ber {} vs sweep ber {}",
            agg.stats.mean,
            sweep_mean_ber
        );
        let kbps = outcome.aggregate.series("kbps").unwrap();
        let sweep_mean_kbps = sweep.iter().map(|p| p.kbps).sum::<f64>() / sweep.len() as f64;
        assert!((kbps.stats.mean - sweep_mean_kbps).abs() < 1e-9);
    }
}
