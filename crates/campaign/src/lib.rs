#![warn(missing_docs)]
//! **mee-campaign** — a crash-safe sharded campaign runner.
//!
//! The paper's headline numbers (≈35 KBps at ~1–2 % BER) are statistical
//! claims over many independent sessions; ROADMAP's fleet-scale item calls
//! for 10⁵–10⁶ sessions per invocation. At that scale the orchestration
//! itself must survive faults: a killed process, or a shard whose session
//! panics or errors. This crate layers exactly that machinery on the
//! [`mee_sweep`] seed-space conventions and runs its shards on the
//! [`mee_sweep::Sweep`] work queue:
//!
//! * **Sharding** — the session index space `0..sessions` is partitioned
//!   into contiguous shards; session `i`'s seed is
//!   `stream_seed(root, i)` exactly as in a plain sweep, so a campaign
//!   result is replayable one session at a time and independent of how it
//!   was sharded *scheduled* (shard layout is part of the campaign
//!   identity; scheduling is not).
//! * **Constant-memory aggregation** — each shard folds its sessions into
//!   [`agg::ShardAggregate`] (count/mean/variance/min/max plus a
//!   deterministic quantile sketch per series); no per-session log is
//!   retained.
//! * **Checkpoint / resume** — completed shards are written atomically
//!   (temp + `fsync` + rename, checksummed); a killed campaign rerun with
//!   [`CampaignPlan::resume`] loads them and recomputes only the missing
//!   shards. Because per-shard aggregates are pure functions of the shard
//!   and the final merge is in fixed shard order, *resumed ≡ uninterrupted,
//!   bit for bit, at any thread count* — proven by tests.
//! * **Quarantine** — a shard whose body panics or errors is quarantined
//!   on its first fault and the campaign **completes anyway**, reporting
//!   exactly which sessions (and therefore seeds) are missing. There is no
//!   retry: the body is a pure function of its spec, so a rerun would
//!   reproduce the fault. Callers exit non-zero on
//!   [`CampaignOutcome::is_complete`] being false.
//!
//! The crate reads no environment: binaries resolve their knobs and pass
//! them in through [`CampaignPlan`].
//!
//! ```
//! use mee_campaign::{Campaign, CampaignPlan};
//!
//! let plan = CampaignPlan::new("doc/example", 2019, 8, 4);
//! let campaign = Campaign::new(plan, vec!["value".into()], "doc/v1").unwrap();
//! let outcome = campaign
//!     .run(|spec| Ok(vec![spec.seed as f64 / u64::MAX as f64]))
//!     .unwrap();
//! assert!(outcome.is_complete());
//! assert_eq!(outcome.aggregate.sessions, 8);
//! ```

use std::path::PathBuf;

pub mod agg;
pub mod checkpoint;
mod runner;

pub use agg::{CampaignAggregate, QuantileSketch, SeriesAgg, ShardAggregate, StreamStats};
pub use checkpoint::{CampaignIdentity, CheckpointError};
pub use mee_sweep::SessionSpec;

use mee_obs::{CampaignLog, HostProfile};

/// The [`HostProfile`] span covering one shard's body.
pub const SHARD_SPAN: &str = "campaign_shard";

/// The [`HostProfile`] span covering one atomic checkpoint write.
pub const CHECKPOINT_WRITE_SPAN: &str = "campaign_checkpoint_write";

/// The [`HostProfile`] span covering one checkpoint load during resume.
pub const CHECKPOINT_LOAD_SPAN: &str = "campaign_checkpoint_load";

/// The contiguous session range of shard `s` in a balanced partition of
/// `sessions` over `shards` (first `sessions % shards` shards get one
/// extra session).
///
/// # Panics
///
/// Panics when `shards` is zero or `s` out of range.
pub fn shard_range(sessions: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    assert!(shards > 0, "a campaign needs at least one shard");
    assert!(s < shards, "shard {s} out of range (shards = {shards})");
    let q = sessions / shards;
    let r = sessions % shards;
    let lo = s * q + s.min(r);
    let hi = lo + q + usize::from(s < r);
    lo..hi
}

/// Execution parameters of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Campaign name; part of the checkpoint identity.
    pub name: String,
    /// Root seed: session `i` runs with `stream_seed(root_seed, i)`.
    pub root_seed: u64,
    /// Total sessions in the campaign.
    pub sessions: usize,
    /// Shard count. Part of the campaign identity: per-shard Welford
    /// aggregates depend on the partition, so resuming under a different
    /// shard count is refused rather than silently mixed.
    pub shards: usize,
    /// Worker threads; `None` means the host's available parallelism,
    /// exactly like [`mee_sweep::Sweep::new`].
    pub threads: Option<usize>,
    /// Checkpoint directory; `None` disables checkpointing (the campaign
    /// still runs, aggregates in memory only).
    pub dir: Option<PathBuf>,
    /// When true, existing valid checkpoints in `dir` are loaded and only
    /// missing shards execute. When false, a non-empty `dir` is an error —
    /// stale state must never be mixed in accidentally.
    pub resume: bool,
    /// Crash injection for tests and the ci.sh kill/resume smoke: after
    /// this many *freshly written* checkpoints the campaign aborts with
    /// [`CampaignError::Aborted`], leaving exactly that many shard files in
    /// the checkpoint directory, as a `kill -9` at that instant would.
    pub abort_after: Option<usize>,
}

impl CampaignPlan {
    /// A plan with no checkpoint dir, no crash injection and
    /// host-parallelism threads.
    pub fn new(name: impl Into<String>, root_seed: u64, sessions: usize, shards: usize) -> Self {
        CampaignPlan {
            name: name.into(),
            root_seed,
            sessions,
            shards,
            threads: None,
            dir: None,
            resume: false,
            abort_after: None,
        }
    }

    /// Sets the checkpoint directory.
    #[must_use]
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Enables resuming from existing checkpoints in the directory.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Pins the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables crash injection after `n` fresh checkpoints.
    #[must_use]
    pub fn abort_after(mut self, n: usize) -> Self {
        self.abort_after = Some(n);
        self
    }

    /// The session range of shard `s` under this plan.
    pub fn shard_range(&self, s: usize) -> std::ops::Range<usize> {
        shard_range(self.sessions, self.shards, s)
    }
}

/// Why a shard ended up quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A session panicked; the enriched payload is preserved.
    Panicked(String),
    /// A session returned an error.
    Failed(String),
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Panicked(msg) => write!(f, "panicked: {msg}"),
            QuarantineReason::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// One quarantined shard: exactly which sessions are missing and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// The shard index.
    pub shard: usize,
    /// First missing session index (inclusive).
    pub lo: usize,
    /// One past the last missing session index.
    pub hi: usize,
    /// Why the shard was given up on.
    pub reason: QuarantineReason,
}

/// The result of a finished campaign (including gracefully-degraded ones —
/// check [`CampaignOutcome::is_complete`]).
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name (from the plan).
    pub name: String,
    /// Root seed (for replay recipes).
    pub root_seed: u64,
    /// Merged aggregate of every *completed* shard, in shard order.
    pub aggregate: CampaignAggregate,
    /// Completed shard indices, ascending.
    pub completed: Vec<usize>,
    /// The subset of `completed` that was restored from checkpoints.
    pub resumed: Vec<usize>,
    /// Shards excluded from the aggregate, with exact missing ranges.
    pub quarantined: Vec<QuarantinedShard>,
    /// The deterministic phase/fault event log.
    pub log: CampaignLog,
    /// Host wall-clock spans (shard bodies, checkpoint I/O) — measurement
    /// output, never part of the deterministic aggregate.
    pub host: HostProfile,
}

impl CampaignOutcome {
    /// True when every shard completed (nothing quarantined).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Every session index excluded from the aggregate, ascending.
    pub fn missing_sessions(&self) -> Vec<usize> {
        let mut out: Vec<usize> =
            self.quarantined.iter().flat_map(|q| q.lo..q.hi).collect();
        out.sort_unstable();
        out
    }

    /// The exact quarantine report: one line per quarantined shard naming
    /// the missing session range, the fault, and the per-session seed
    /// recipe. Empty string when complete.
    pub fn quarantine_report(&self) -> String {
        let mut out = String::new();
        for q in &self.quarantined {
            out.push_str(&format!(
                "quarantined shard {}: sessions {}..{} missing: {} | replay: session i reruns \
                 standalone with seed stream_seed({}, i)\n",
                q.shard, q.lo, q.hi, q.reason, self.root_seed
            ));
        }
        out
    }
}

/// A campaign that could not produce an outcome at all (as opposed to a
/// degraded-but-finished one, which is an `Ok` with quarantine entries).
#[derive(Debug)]
pub enum CampaignError {
    /// The plan is internally inconsistent (zero shards, bad series names,
    /// crash injection without a checkpoint dir, …).
    InvalidPlan(String),
    /// A checkpoint could not be written or read — including the loud
    /// corrupt-checkpoint and campaign-mismatch cases.
    Checkpoint(CheckpointError),
    /// Filesystem failure outside checkpoint files themselves.
    Io {
        /// The path being accessed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint directory already holds shard files but
    /// [`CampaignPlan::resume`] is off.
    DirNotEmpty {
        /// The directory.
        dir: PathBuf,
        /// How many shard checkpoints it holds.
        found: usize,
    },
    /// Injected crash (`abort_after`) fired: the process state is exactly
    /// a kill after `checkpointed` shards were durably written.
    Aborted {
        /// Fresh checkpoints written before the abort.
        checkpointed: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidPlan(msg) => write!(f, "invalid campaign plan: {msg}"),
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Io { path, source } => {
                write!(f, "campaign I/O error at {}: {source}", path.display())
            }
            CampaignError::DirNotEmpty { dir, found } => write!(
                f,
                "checkpoint directory {} already holds {found} shard checkpoint(s); pass \
                 resume to continue that campaign or point at a fresh directory",
                dir.display()
            ),
            CampaignError::Aborted { checkpointed } => write!(
                f,
                "campaign aborted by crash injection after {checkpointed} checkpointed \
                 shard(s); rerun with resume to continue"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// A fully-specified campaign: plan, series names, and the body-version
/// tag that invalidates old checkpoints when the session computation
/// changes.
#[derive(Debug, Clone)]
pub struct Campaign {
    plan: CampaignPlan,
    series: Vec<String>,
    body_version: String,
}

impl Campaign {
    /// Validates and builds a campaign.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidPlan`] for zero shards, an empty or
    /// whitespace-bearing series name, duplicate series names, or crash
    /// injection without a checkpoint directory.
    pub fn new(
        plan: CampaignPlan,
        series: Vec<String>,
        body_version: impl Into<String>,
    ) -> Result<Self, CampaignError> {
        let invalid = |msg: String| Err(CampaignError::InvalidPlan(msg));
        if plan.shards == 0 {
            return invalid("a campaign needs at least one shard".into());
        }
        if series.is_empty() {
            return invalid("a campaign needs at least one series".into());
        }
        for (i, name) in series.iter().enumerate() {
            if name.is_empty() || name.chars().any(char::is_whitespace) {
                return invalid(format!("series {i} has an empty or whitespace name {name:?}"));
            }
        }
        let mut sorted = series.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != series.len() {
            return invalid("duplicate series names".into());
        }
        if plan.abort_after.is_some() && plan.dir.is_none() {
            return invalid("crash injection (abort_after) requires a checkpoint dir".into());
        }
        if plan.resume && plan.dir.is_none() {
            return invalid("resume requires a checkpoint dir".into());
        }
        if let Some(t) = plan.threads {
            if t == 0 {
                return invalid("a campaign needs at least one worker thread".into());
            }
        }
        Ok(Campaign { plan, series, body_version: body_version.into() })
    }

    /// The campaign's plan.
    pub fn plan(&self) -> &CampaignPlan {
        &self.plan
    }

    /// The campaign's series names, in order.
    pub fn series(&self) -> &[String] {
        &self.series
    }

    /// The checkpoint identity (fingerprint input) of this campaign.
    pub fn identity(&self) -> CampaignIdentity {
        CampaignIdentity {
            name: self.plan.name.clone(),
            root_seed: self.plan.root_seed,
            sessions: self.plan.sessions,
            shards: self.plan.shards,
            series: self.series.clone(),
            body_version: self.body_version.clone(),
        }
    }

    /// Runs the campaign: executes (or resumes) every shard, aggregates in
    /// shard order, and returns the outcome — including gracefully
    /// degraded outcomes with quarantined shards (`Ok`, but
    /// [`CampaignOutcome::is_complete`] is false).
    ///
    /// `body` runs once per session with that session's
    /// [`SessionSpec`] (seed = `stream_seed(root, index)`); it returns one
    /// `f64` per series, in series order, or a session-error string. It
    /// must be a pure function of the spec for the determinism guarantees
    /// to hold; a shard whose body panics or errors is quarantined on that
    /// first fault.
    ///
    /// # Errors
    ///
    /// See [`CampaignError`]; notably a corrupt checkpoint is an error
    /// here, *not* a silent recompute.
    pub fn run<F>(&self, body: F) -> Result<CampaignOutcome, CampaignError>
    where
        F: Fn(SessionSpec) -> Result<Vec<f64>, String> + Sync,
    {
        runner::run(self, &body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_session_space() {
        for (sessions, shards) in [(16, 4), (17, 4), (3, 8), (0, 2), (100, 7), (5, 5)] {
            let mut covered = Vec::new();
            for s in 0..shards {
                let r = shard_range(sessions, shards, s);
                assert!(r.start <= r.end);
                covered.extend(r);
            }
            assert_eq!(covered, (0..sessions).collect::<Vec<_>>(), "{sessions}/{shards}");
        }
    }

    #[test]
    fn balanced_partition_spreads_the_remainder() {
        // 10 sessions over 4 shards: 3,3,2,2.
        let sizes: Vec<usize> =
            (0..4).map(|s| shard_range(10, 4, s).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let ok_series = || vec!["x".to_owned()];
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 0), ok_series(), "v").is_err());
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 2), vec![], "v").is_err());
        assert!(
            Campaign::new(CampaignPlan::new("t", 1, 4, 2), vec!["a b".into()], "v").is_err()
        );
        assert!(Campaign::new(
            CampaignPlan::new("t", 1, 4, 2),
            vec!["a".into(), "a".into()],
            "v"
        )
        .is_err());
        assert!(Campaign::new(
            CampaignPlan::new("t", 1, 4, 2).abort_after(1),
            ok_series(),
            "v"
        )
        .is_err(), "abort_after without dir must be rejected");
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 2), ok_series(), "v").is_ok());
    }
}
