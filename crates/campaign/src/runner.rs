//! The campaign execution engine: the pending shards are the work items of
//! one [`mee_sweep::Sweep::run`], so campaigns and plain sweeps share a
//! single worker pool.
//!
//! Why the result is still deterministic:
//!
//! * Workers race over *shards*, but each shard's sessions fold serially in
//!   index order on whichever worker picked the shard up — so a shard
//!   aggregate is a pure function of the shard, independent of scheduling.
//! * The runner merges shard aggregates, events and host spans in
//!   ascending shard order *after* the sweep returns — so the campaign
//!   aggregate is independent of completion order, thread count, and
//!   (because resumed checkpoints are byte-exact round-trips) of whether
//!   any shard was computed now or in a previous process.
//! * A fault (panic or session error) only ever removes its shard from the
//!   aggregate (quarantine) — it cannot reorder the fold.
//!
//! A faulting shard is quarantined on its first fault, never retried: the
//! body is a pure function of its [`SessionSpec`], so a rerun would only
//! reproduce the fault.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mee_obs::{CampaignLog, HostProfile, ShardEvent};
use mee_rng::stream_seed;
use mee_sweep::Sweep;

use crate::agg::{CampaignAggregate, ShardAggregate};
use crate::checkpoint::{self, CheckpointError};
use crate::{
    Campaign, CampaignError, CampaignOutcome, QuarantineReason, QuarantinedShard, SessionSpec,
    CHECKPOINT_LOAD_SPAN, CHECKPOINT_WRITE_SPAN, SHARD_SPAN,
};

/// How one pending shard ended.
enum ShardResult {
    /// Folded cleanly (and checkpointed, when the plan has a directory).
    Done(ShardAggregate),
    /// A session panicked or failed; the shard is left out of the aggregate.
    Quarantined(QuarantineReason),
    /// The injected crash had already taken every checkpoint slot, so the
    /// shard was not run or its checkpoint not written.
    Skipped,
}

/// Everything one shard hands back to the merge: its result, its events in
/// occurrence order, and its host spans.
struct ShardRun {
    result: Result<ShardResult, CheckpointError>,
    events: Vec<ShardEvent>,
    host: HostProfile,
}

/// Folds one shard's sessions strictly in index order. A panic is caught
/// and, like a session error, enriched with the exact session, seed, and
/// replay recipe (mee-spec counterexample style).
fn fold_shard<F>(
    campaign: &Campaign,
    shard: usize,
    body: &F,
) -> Result<ShardAggregate, QuarantineReason>
where
    F: Fn(SessionSpec) -> Result<Vec<f64>, String> + Sync,
{
    let plan = campaign.plan();
    let range = plan.shard_range(shard);
    let root = plan.root_seed;
    let recipe = |index: usize, message: &str| {
        format!(
            "session {index} (seed 0x{seed:016x}): {message} | replay: rerun session {index} \
             alone — its seed is stream_seed({root}, {index})",
            seed = stream_seed(root, index as u64),
        )
    };
    let current = std::cell::Cell::new(range.start);
    let folded = catch_unwind(AssertUnwindSafe(|| {
        let mut agg = ShardAggregate::empty(shard, range.start, range.end, campaign.series().len());
        for index in range.clone() {
            current.set(index);
            let spec = SessionSpec {
                index,
                seed: stream_seed(root, index as u64),
            };
            match body(spec) {
                Ok(values) => agg.push_session(&values),
                Err(message) => return Err(QuarantineReason::Failed(recipe(index, &message))),
            }
        }
        Ok(agg)
    }));
    folded.unwrap_or_else(|payload| {
        let message = mee_sweep::panic_message(payload.as_ref());
        Err(QuarantineReason::Panicked(recipe(current.get(), &message)))
    })
}

/// Runs one pending shard on a sweep worker: fold, then checkpoint from
/// the worker itself (each shard has its own temp file, `fsync` and
/// rename).
///
/// Crash injection keeps exact-K semantics: a shard reserves a checkpoint
/// slot with `fetch_add` before writing and skips the write once
/// `abort_after` slots are taken; a shard that starts after that is not
/// run at all.
fn run_shard<F>(campaign: &Campaign, shard: usize, body: &F, slots: &AtomicUsize) -> ShardRun
where
    F: Fn(SessionSpec) -> Result<Vec<f64>, String> + Sync,
{
    let plan = campaign.plan();
    let crashed = |taken: usize| plan.abort_after.is_some_and(|k| taken >= k);
    let mut run = ShardRun {
        result: Ok(ShardResult::Skipped),
        events: Vec::new(),
        host: HostProfile::new(),
    };
    if crashed(slots.load(Ordering::Relaxed)) {
        return run;
    }
    run.events.push(ShardEvent::Started);
    let start = Instant::now();
    let folded = fold_shard(campaign, shard, body);
    run.host.record(SHARD_SPAN, start.elapsed());
    let agg = match folded {
        Ok(agg) => agg,
        Err(reason) => {
            run.events.push(ShardEvent::Quarantined {
                reason: reason.to_string(),
            });
            run.result = Ok(ShardResult::Quarantined(reason));
            return run;
        }
    };
    run.events.push(ShardEvent::Completed {
        sessions: agg.sessions(),
    });
    if let Some(dir) = &plan.dir {
        if crashed(slots.fetch_add(1, Ordering::Relaxed)) {
            return run;
        }
        let start = Instant::now();
        if let Err(e) = checkpoint::write(dir, &campaign.identity(), &agg) {
            run.result = Err(e);
            return run;
        }
        run.host.record(CHECKPOINT_WRITE_SPAN, start.elapsed());
        run.events.push(ShardEvent::Checkpointed);
    }
    run.result = Ok(ShardResult::Done(agg));
    run
}

/// Counts existing shard checkpoints in `dir` (for the `DirNotEmpty`
/// guard).
fn existing_checkpoints(dir: &Path, shards: usize) -> usize {
    (0..shards)
        .filter(|&s| dir.join(checkpoint::shard_file_name(s)).exists())
        .count()
}

pub(crate) fn run<F>(campaign: &Campaign, body: &F) -> Result<CampaignOutcome, CampaignError>
where
    F: Fn(SessionSpec) -> Result<Vec<f64>, String> + Sync,
{
    let plan = campaign.plan();
    let identity = campaign.identity();
    let mut log = CampaignLog::new();
    let mut host = HostProfile::new();
    let mut results: Vec<Option<ShardAggregate>> = vec![None; plan.shards];
    let mut resumed: Vec<usize> = Vec::new();

    // ---- Checkpoint directory: guard, then resume pre-pass. ----
    if let Some(dir) = &plan.dir {
        std::fs::create_dir_all(dir).map_err(|source| CampaignError::Io {
            path: dir.clone(),
            source,
        })?;
        let found = existing_checkpoints(dir, plan.shards);
        if found > 0 && !plan.resume {
            return Err(CampaignError::DirNotEmpty {
                dir: dir.clone(),
                found,
            });
        }
        if plan.resume {
            for (shard, slot) in results.iter_mut().enumerate() {
                let start = Instant::now();
                // A corrupt or mismatched checkpoint is a loud error here —
                // never a silent recompute.
                let loaded = checkpoint::load(dir, &identity, shard, plan.shard_range(shard))?;
                host.record(CHECKPOINT_LOAD_SPAN, start.elapsed());
                if let Some(agg) = loaded {
                    log.record(shard, ShardEvent::Resumed);
                    *slot = Some(agg);
                    resumed.push(shard);
                }
            }
        }
    }

    // ---- Execute the missing shards on the sweep work queue. ----
    let pending: Vec<usize> = (0..plan.shards).filter(|&s| results[s].is_none()).collect();
    // Checkpoint slots for crash injection. `Relaxed` suffices: the counter
    // publishes no other data, `fetch_add` hands out unique slots at any
    // ordering, and the sweep's scope join orders the final read.
    let slots = AtomicUsize::new(0);
    let runs = Sweep::new()
        .threads(plan.threads)
        .run(&pending, |_, &shard| {
            run_shard(campaign, shard, body, &slots)
        });

    let mut quarantined = Vec::new();
    for (&shard, run) in pending.iter().zip(runs) {
        for event in run.events {
            log.record(shard, event);
        }
        host.merge(&run.host);
        match run.result? {
            ShardResult::Done(agg) => results[shard] = Some(agg),
            ShardResult::Quarantined(reason) => {
                let range = plan.shard_range(shard);
                quarantined.push(QuarantinedShard {
                    shard,
                    lo: range.start,
                    hi: range.end,
                    reason,
                });
            }
            ShardResult::Skipped => {}
        }
    }
    if let Some(k) = plan.abort_after {
        let checkpointed = slots.into_inner().min(k);
        if checkpointed == k {
            return Err(CampaignError::Aborted { checkpointed });
        }
    }

    // ---- Assemble: fixed ascending shard order ⇒ deterministic merge. ----
    let (completed, shard_aggs): (Vec<usize>, Vec<ShardAggregate>) = results
        .into_iter()
        .enumerate()
        .filter_map(|(shard, slot)| Some((shard, slot?)))
        .unzip();
    let aggregate = CampaignAggregate::merge_shards(campaign.series(), &shard_aggs);
    Ok(CampaignOutcome {
        name: plan.name.clone(),
        root_seed: plan.root_seed,
        aggregate,
        completed,
        resumed,
        quarantined,
        log,
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignPlan;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mee_campaign_run_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn series() -> Vec<String> {
        vec!["lat".to_owned(), "hit".to_owned()]
    }

    /// A deterministic pure-function body: two series derived from the
    /// session seed alone, as the determinism contract requires.
    fn clean_body(spec: SessionSpec) -> Result<Vec<f64>, String> {
        let x = (spec.seed >> 11) as f64 / (1u64 << 53) as f64;
        Ok(vec![x, spec.index as f64 + x])
    }

    fn campaign(plan: CampaignPlan) -> Campaign {
        Campaign::new(plan, series(), "test/v1").unwrap()
    }

    #[test]
    fn outcome_is_bit_identical_at_any_thread_count() {
        let mut renders = Vec::new();
        for threads in [1, 2, 8] {
            let c = campaign(CampaignPlan::new("t/threads", 2019, 23, 5).threads(threads));
            let out = c.run(clean_body).unwrap();
            assert!(out.is_complete());
            assert_eq!(out.aggregate.sessions, 23);
            assert_eq!(out.completed, vec![0, 1, 2, 3, 4]);
            renders.push(out.aggregate.render());
        }
        assert_eq!(renders[0], renders[1]);
        assert_eq!(renders[0], renders[2]);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_to_uninterrupted() {
        for threads in [2, 8] {
            let ref_dir = tmp_dir(&format!("ref{threads}"));
            let kill_dir = tmp_dir(&format!("kill{threads}"));
            let plan = |dir: &PathBuf| {
                CampaignPlan::new("t/resume", 2019, 17, 6)
                    .threads(threads)
                    .dir(dir)
            };

            let reference = campaign(plan(&ref_dir)).run(clean_body).unwrap();
            assert!(reference.is_complete());

            // Same campaign, crash injected after 2 durable checkpoints:
            // exactly 2 shard files reach the disk, whatever the thread
            // count.
            match campaign(plan(&kill_dir).abort_after(2)).run(clean_body) {
                Err(CampaignError::Aborted { checkpointed }) => assert_eq!(checkpointed, 2),
                other => panic!("{threads} threads: expected injected abort, got {other:?}"),
            }
            assert_eq!(existing_checkpoints(&kill_dir, 6), 2, "{threads} threads");

            // Resume at a *different* thread count.
            let c = campaign(plan(&kill_dir).threads(7).resume(true));
            let resumed = c.run(clean_body).unwrap();
            assert!(resumed.is_complete());
            assert_eq!(
                resumed.resumed.len(),
                2,
                "exactly the checkpointed shards resume"
            );
            assert_eq!(resumed.log.count(|e| matches!(e, ShardEvent::Resumed)), 2);

            // Byte-identical aggregate…
            assert_eq!(reference.aggregate.render(), resumed.aggregate.render());
            // …and byte-identical checkpoint files shard by shard.
            for s in 0..6 {
                let name = checkpoint::shard_file_name(s);
                let a = std::fs::read(ref_dir.join(&name)).unwrap();
                let b = std::fs::read(kill_dir.join(&name)).unwrap();
                assert_eq!(a, b, "{threads} threads: shard {s} checkpoint differs");
            }

            let _ = std::fs::remove_dir_all(&ref_dir);
            let _ = std::fs::remove_dir_all(&kill_dir);
        }
    }

    #[test]
    fn panicking_shard_is_quarantined_and_the_rest_completes() {
        let c = campaign(CampaignPlan::new("t/panic", 7, 12, 4).threads(3));
        let bad = c.plan().shard_range(2);
        let out = c
            .run(|spec| {
                if bad.contains(&spec.index) {
                    panic!("synthetic fault at session {}", spec.index);
                }
                clean_body(spec)
            })
            .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.completed, vec![0, 1, 3]);
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!((q.shard, q.lo, q.hi), (2, bad.start, bad.end));
        match &q.reason {
            QuarantineReason::Panicked(msg) => {
                assert!(msg.contains("synthetic fault"), "{msg}");
                assert!(
                    msg.contains(&format!("session {} (seed 0x", bad.start)),
                    "{msg}"
                );
                assert!(msg.contains("replay: rerun session"), "{msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(
            out.log.shard(2),
            [
                ShardEvent::Started,
                ShardEvent::Quarantined {
                    reason: q.reason.to_string()
                },
            ]
        );
        assert_eq!(out.missing_sessions(), bad.clone().collect::<Vec<_>>());
        assert_eq!(out.aggregate.sessions, (12 - bad.len()) as u64);
        let report = out.quarantine_report();
        assert!(report.contains("quarantined shard 2"), "{report}");
        assert!(report.contains("stream_seed(7, i)"), "{report}");
    }

    #[test]
    fn failing_session_is_quarantined_with_recipe() {
        let c = campaign(CampaignPlan::new("t/fail", 11, 8, 2).threads(2));
        let out = c
            .run(|spec| {
                if spec.index == 1 {
                    return Err("detector refused to converge".into());
                }
                clean_body(spec)
            })
            .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.completed, vec![1]);
        let q = &out.quarantined[0];
        assert_eq!((q.shard, q.lo, q.hi), (0, 0, 4));
        match &q.reason {
            QuarantineReason::Failed(msg) => {
                assert!(msg.contains("session 1"), "{msg}");
                assert!(msg.contains("detector refused to converge"), "{msg}");
                assert!(msg.contains("stream_seed(11, 1)"), "{msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn faulting_shard_runs_each_session_once_up_to_the_fault() {
        // A pure body that always fails at session 5 (the second session
        // of shard 1): the shard is quarantined after one call per session
        // up to and including the fault — no rerun, because rerunning a
        // pure function of the spec would only reproduce the fault.
        let calls: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
        let c = campaign(CampaignPlan::new("t/once", 5, 12, 3).threads(2));
        let out = c
            .run(|spec| {
                calls[spec.index].fetch_add(1, Ordering::Relaxed);
                if spec.index == 5 {
                    return Err("always fails".into());
                }
                clean_body(spec)
            })
            .unwrap();
        assert_eq!(out.completed, vec![0, 2]);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].shard, 1);
        let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, [1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn non_empty_dir_without_resume_is_refused() {
        let dir = tmp_dir("noresume");
        let plan = || CampaignPlan::new("t/dir", 1, 8, 4).threads(2).dir(&dir);
        campaign(plan()).run(clean_body).unwrap();
        match campaign(plan()).run(clean_body) {
            Err(CampaignError::DirNotEmpty { found, .. }) => assert_eq!(found, 4),
            other => panic!("expected DirNotEmpty, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_on_resume_is_a_loud_error_not_a_recompute() {
        let dir = tmp_dir("corrupt_resume");
        let plan = || CampaignPlan::new("t/corrupt", 1, 8, 4).threads(2).dir(&dir);
        campaign(plan()).run(clean_body).unwrap();

        // Flip one byte in shard 2's checkpoint.
        let victim = dir.join(checkpoint::shard_file_name(2));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        match campaign(plan().resume(true)).run(clean_body) {
            Err(CampaignError::Checkpoint(e @ CheckpointError::Corrupt { .. })) => {
                let msg = e.to_string();
                assert!(msg.contains("replay:"), "{msg}");
            }
            other => panic!("expected loud corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_profile_records_shard_and_checkpoint_spans() {
        let dir = tmp_dir("spans");
        let c = campaign(CampaignPlan::new("t/spans", 1, 8, 4).threads(2).dir(&dir));
        let out = c.run(clean_body).unwrap();
        assert_eq!(out.host.span(SHARD_SPAN).unwrap().count, 4);
        assert_eq!(out.host.span(CHECKPOINT_WRITE_SPAN).unwrap().count, 4);
        assert_eq!(out.log.count(|e| matches!(e, ShardEvent::Checkpointed)), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_shards_than_sessions_still_partitions_cleanly() {
        let c = campaign(CampaignPlan::new("t/tiny", 1, 2, 5).threads(3));
        let out = c.run(clean_body).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.aggregate.sessions, 2);
        assert_eq!(out.completed.len(), 5, "empty shards still complete");
    }
}
