//! Campaign-level observability: the phase/fault event log of a sharded
//! campaign run.
//!
//! A campaign is a *host-level* orchestration — shards start, complete,
//! checkpoint, resume, get quarantined. None of that happens in
//! simulated time, so these events deliberately do **not** reuse the
//! sim-cycle [`Event`](crate::Event) taxonomy; they are their own typed
//! log, keyed by shard so rendering is deterministic (shard order, then
//! occurrence order within the shard) even though shards execute
//! concurrently.
//!
//! Host *durations* of campaign work (shard bodies, checkpoint I/O) go
//! through [`HostProfile`](crate::HostProfile) as usual; this module only
//! records *what happened*, which — unlike wall-clock — is deterministic
//! for deterministic shard bodies and therefore assertable in tests.

use std::collections::BTreeMap;
use std::fmt;

/// One lifecycle event of one shard of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEvent {
    /// The shard began executing on a worker.
    Started,
    /// The shard finished cleanly and its aggregate was accepted.
    Completed {
        /// Sessions the shard covered.
        sessions: u64,
    },
    /// The shard's aggregate was atomically checkpointed to disk.
    Checkpointed,
    /// The shard was restored from an existing checkpoint instead of
    /// re-executing (crash-resume path).
    Resumed,
    /// A session of the shard panicked or failed; the shard is excluded
    /// from the aggregate and reported in the quarantine list.
    Quarantined {
        /// The fault, rendered (it says whether the session panicked or
        /// failed, and carries the replay recipe).
        reason: String,
    },
}

impl fmt::Display for ShardEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardEvent::Started => write!(f, "started"),
            ShardEvent::Completed { sessions } => write!(f, "completed sessions={sessions}"),
            ShardEvent::Checkpointed => write!(f, "checkpointed"),
            ShardEvent::Resumed => write!(f, "resumed-from-checkpoint"),
            ShardEvent::Quarantined { reason } => write!(f, "quarantined: {reason}"),
        }
    }
}

/// The per-shard event log of one campaign run.
///
/// Events are appended by the campaign runner once the shards resolve,
/// so within a shard the order is exactly occurrence order; across shards
/// the log imposes shard-index order, which makes [`CampaignLog::render`]
/// deterministic for deterministic shard bodies regardless of worker
/// scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignLog {
    shards: BTreeMap<usize, Vec<ShardEvent>>,
}

impl CampaignLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event` to `shard`'s history.
    pub fn record(&mut self, shard: usize, event: ShardEvent) {
        self.shards.entry(shard).or_default().push(event);
    }

    /// The event history of one shard (empty slice if none recorded).
    pub fn shard(&self, shard: usize) -> &[ShardEvent] {
        self.shards.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Iterates `(shard, events)` in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[ShardEvent])> {
        self.shards.iter().map(|(&s, evs)| (s, evs.as_slice()))
    }

    /// How many events match `pred` across all shards.
    pub fn count(&self, pred: impl Fn(&ShardEvent) -> bool) -> usize {
        self.shards.values().flatten().filter(|e| pred(e)).count()
    }

    /// Renders the whole log, one `shard <i>: <event>` line per event, in
    /// shard order then occurrence order — byte-identical across runs when
    /// the shard outcomes are deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (shard, events) in self.iter() {
            for e in events {
                out.push_str(&format!("shard {shard}: {e}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_orders_by_shard_then_occurrence() {
        let mut log = CampaignLog::new();
        log.record(2, ShardEvent::Started);
        log.record(0, ShardEvent::Started);
        log.record(2, ShardEvent::Completed { sessions: 4 });
        log.record(0, ShardEvent::Quarantined { reason: "panicked: boom".into() });
        let rendered = log.render();
        let expected = "shard 0: started\n\
                        shard 0: quarantined: panicked: boom\n\
                        shard 2: started\n\
                        shard 2: completed sessions=4\n";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn count_and_shard_accessors() {
        let mut log = CampaignLog::new();
        log.record(1, ShardEvent::Started);
        log.record(1, ShardEvent::Quarantined { reason: "failed: no such process".into() });
        assert_eq!(log.count(|e| matches!(e, ShardEvent::Quarantined { .. })), 1);
        assert_eq!(log.shard(1).len(), 2);
        assert!(log.shard(0).is_empty());
    }

    #[test]
    fn display_lines_are_single_line() {
        let events = [
            ShardEvent::Checkpointed,
            ShardEvent::Resumed,
            ShardEvent::Quarantined { reason: "failed: no such process".into() },
        ];
        for e in &events {
            assert!(!e.to_string().contains('\n'));
        }
    }
}
