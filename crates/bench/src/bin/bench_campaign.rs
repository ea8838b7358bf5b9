//! The crash-safe campaign benchmark: a sharded, checkpointed channel
//! campaign run through `mee-campaign`, reported as one deterministic
//! JSON artifact.
//!
//! ```text
//! cargo run --release -p mee-bench --bin bench-campaign -- \
//!     [seed] [scale] [--threads N] [--shards N] [--dir PATH] [--resume] \
//!     [--abort-after K] [--out PATH]
//! ```
//!
//! * `scale` multiplies the session count (16×) and shard count (8×);
//! * `--shards` / `MEE_CAMPAIGN_SHARDS` override the shard count;
//! * `--dir` / `MEE_CAMPAIGN_DIR` name the checkpoint directory (no
//!   directory ⇒ no checkpointing);
//! * `--threads` / `MEE_SWEEP_THREADS` pin the worker count;
//! * `--resume` continues a killed campaign from its checkpoints —
//!   bit-identical to an uninterrupted run (ci.sh proves this with `cmp`);
//! * `--abort-after K` injects a crash after K durable checkpoints (exit
//!   status 3), which is how ci.sh kills the campaign deterministically.
//!
//! Flags beat their environment knobs, which beat the defaults; a
//! malformed knob is a usage error naming the variable.
//!
//! Exit status: 0 on a complete campaign, 1 when shards were quarantined
//! (the exact missing sessions are on stderr), 2 on usage errors, 3 on an
//! injected abort.

use std::path::PathBuf;

use mee_attack::channel::ChannelConfig;
use mee_attack::experiments::run_channel_campaign;
use mee_bench::campaign::CampaignReport;
use mee_bench::{env_knob, usage_error, HarnessArgs};
use mee_campaign::{CampaignError, CampaignPlan};
use mee_rng::env_knob::{parse_nonempty, parse_positive};

/// The environment knob overriding the shard count when `--shards` is
/// absent.
const SHARDS_ENV: &str = "MEE_CAMPAIGN_SHARDS";

/// The environment knob naming the checkpoint directory when `--dir` is
/// absent.
const DIR_ENV: &str = "MEE_CAMPAIGN_DIR";

/// The campaign-specific flags, peeled off before the shared
/// [`HarnessArgs`] grammar sees the rest.
struct CampaignArgs {
    shards: Option<usize>,
    dir: Option<PathBuf>,
    resume: bool,
    abort_after: Option<usize>,
    rest: Vec<String>,
}

fn usage_exit(msg: &str) -> ! {
    usage_error(format!(
        "{msg} (usage: [seed] [scale] [--threads N] [--shards N>=1] [--dir PATH] \
         [--resume] [--abort-after K>=1] [--out PATH])"
    ))
}

fn parse_campaign_args<I: IntoIterator<Item = String>>(args: I) -> CampaignArgs {
    let mut out = CampaignArgs {
        shards: None,
        dir: None,
        resume: false,
        abort_after: None,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(s) = it.next() {
        match s.as_str() {
            "--shards" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--shards needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => out.shards = Some(n),
                    _ => usage_exit(&format!("invalid --shards value {v:?}")),
                }
            }
            "--dir" => {
                let v = it.next().unwrap_or_else(|| usage_exit("--dir needs a path"));
                out.dir = Some(PathBuf::from(v));
            }
            "--resume" => out.resume = true,
            "--abort-after" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--abort-after needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => out.abort_after = Some(n),
                    _ => usage_exit(&format!("invalid --abort-after value {v:?}")),
                }
            }
            _ => out.rest.push(s),
        }
    }
    out
}

fn main() {
    let campaign_args = parse_campaign_args(std::env::args().skip(1));
    let args = HarnessArgs::resolve(campaign_args.rest);

    let sessions = 16 * args.scale;
    // Explicit flag beats environment knob beats scale-derived default.
    let shards = campaign_args
        .shards
        .or_else(|| env_knob(SHARDS_ENV, parse_positive).unwrap_or_else(|e| usage_error(e)))
        .unwrap_or(8 * args.scale);
    let dir = campaign_args.dir.or_else(|| {
        let dir = env_knob(DIR_ENV, parse_nonempty).unwrap_or_else(|e| usage_error(e));
        dir.map(PathBuf::from)
    });
    let bits = 16 * args.scale;

    let mut plan = CampaignPlan::new("channel/campaign", args.seed, sessions, shards)
        .resume(campaign_args.resume);
    plan.threads = args.threads;
    plan.dir = dir;
    plan.abort_after = campaign_args.abort_after;

    let cfg = ChannelConfig::sweep_setup();
    let outcome = match run_channel_campaign(plan, &cfg, bits) {
        Ok(outcome) => outcome,
        Err(CampaignError::Aborted { checkpointed }) => {
            eprintln!(
                "campaign aborted by injection after {checkpointed} checkpointed shard(s); \
                 rerun with --resume to continue"
            );
            std::process::exit(3);
        }
        Err(e @ CampaignError::InvalidPlan(_)) => usage_error(e),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let complete = outcome.is_complete();
    let report = CampaignReport {
        name: "channel/campaign".into(),
        root_seed: args.seed,
        sessions_planned: sessions,
        shards,
        outcome,
    };
    report.emit();
    let path = args.out_or("BENCH_campaign.json");
    if let Err(e) = report.write(&path) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    if !complete {
        // Graceful degradation is still a failed invocation: the numbers
        // are published, the exact missing sessions are on stderr, and the
        // exit status says so.
        std::process::exit(1);
    }
}
