//! Campaign-level benchmark reporting: the constant-memory aggregate of a
//! crash-safe [`mee_campaign`] run as one deterministic JSON object,
//! written to `BENCH_campaign.json` (ci.sh checks the schema **and**, via
//! its kill/resume smoke, that an interrupted-and-resumed campaign's
//! artifact is byte-identical to an uninterrupted reference).
//!
//! The artifact deliberately contains **only deterministic fields** — no
//! host nanoseconds, no thread counts, no resumed-shard counts — so two
//! runs of the same campaign compare with `cmp` no matter how they were
//! scheduled or interrupted. Host timing still reaches stdout through
//! [`CampaignReport::emit`], clearly separated.

use std::io::Write as _;
use std::path::Path;

use mee_campaign::CampaignOutcome;

/// The deterministic report of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name (`group/case`).
    pub name: String,
    /// Root seed of the session seed space.
    pub root_seed: u64,
    /// Sessions the plan asked for (aggregated + missing).
    pub sessions_planned: usize,
    /// Shard count of the partition.
    pub shards: usize,
    /// The outcome being reported.
    pub outcome: CampaignOutcome,
}

impl CampaignReport {
    /// One deterministic JSON object — the `BENCH_campaign.json` schema.
    /// Every field is a pure function of (campaign identity, session
    /// bodies): byte-identical across thread counts and across
    /// kill/resume, which ci.sh enforces with `cmp`.
    pub fn aggregate_json(&self) -> String {
        let agg = &self.outcome.aggregate;
        let mut series = String::new();
        for (name, s) in &agg.series {
            if !series.is_empty() {
                series.push(',');
            }
            let q = |p: f64| {
                s.sketch
                    .quantile(p)
                    .map_or_else(|| "null".to_owned(), |v| format!("{v:.6}"))
            };
            series.push_str(&format!(
                "{{\"name\":{name:?},\"count\":{},\"mean\":{:.6},\"var\":{:.6},\
                 \"min\":{:.6},\"max\":{:.6},\"p10\":{},\"p50\":{},\"p90\":{},\"p95\":{}}}",
                s.stats.count,
                s.stats.mean,
                s.stats.variance(),
                s.stats.min,
                s.stats.max,
                q(10.0),
                q(50.0),
                q(90.0),
                q(95.0),
            ));
        }
        format!(
            "{{\"name\":{:?},\"root_seed\":{},\"sessions_planned\":{},\"shards\":{},\
             \"sessions_aggregated\":{},\"quarantined_shards\":{},\"missing_sessions\":{},\
             \"series\":[{series}]}}",
            self.name,
            self.root_seed,
            self.sessions_planned,
            self.shards,
            agg.sessions,
            self.outcome.quarantined.len(),
            self.outcome.missing_sessions().len(),
        )
    }

    /// Prints the campaign event log, host spans, and the aggregate object
    /// to stdout (the non-deterministic parts stay here, never in the
    /// artifact), then returns `self` for chaining.
    pub fn emit(&self) -> &Self {
        print!("{}", self.outcome.log.render());
        if !self.outcome.resumed.is_empty() {
            println!("resumed {} shard(s) from checkpoints", self.outcome.resumed.len());
        }
        for (span, stats) in self.outcome.host.spans() {
            println!(
                "host {span}: count {} total_ns {}",
                stats.count,
                stats.total.as_nanos()
            );
        }
        if !self.outcome.is_complete() {
            eprint!("{}", self.outcome.quarantine_report());
        }
        println!("{}", self.aggregate_json());
        self
    }

    /// Writes the aggregate object (with a trailing newline) to `path` —
    /// conventionally `BENCH_campaign.json` in the repository root.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.aggregate_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_campaign::{Campaign, CampaignPlan};

    fn outcome(threads: usize) -> CampaignOutcome {
        let plan = CampaignPlan::new("bench/test", 2019, 10, 4).threads(threads);
        Campaign::new(plan, vec!["v".into()], "t/v1")
            .unwrap()
            .run(|spec| Ok(vec![(spec.seed % 1000) as f64]))
            .unwrap()
    }

    fn report(threads: usize) -> CampaignReport {
        CampaignReport {
            name: "bench/test".into(),
            root_seed: 2019,
            sessions_planned: 10,
            shards: 4,
            outcome: outcome(threads),
        }
    }

    #[test]
    fn schema_keys_are_present() {
        let json = report(2).aggregate_json();
        for key in [
            "\"name\"",
            "\"root_seed\"",
            "\"sessions_planned\"",
            "\"shards\"",
            "\"sessions_aggregated\"",
            "\"quarantined_shards\"",
            "\"missing_sessions\"",
            "\"series\"",
            "\"count\"",
            "\"mean\"",
            "\"var\"",
            "\"min\"",
            "\"max\"",
            "\"p10\"",
            "\"p50\"",
            "\"p90\"",
            "\"p95\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"sessions_aggregated\":10"));
    }

    #[test]
    fn artifact_is_thread_count_invariant() {
        // The whole point of the deterministic-fields-only schema.
        assert_eq!(report(1).aggregate_json(), report(8).aggregate_json());
    }

    #[test]
    fn write_emits_one_json_object() {
        let r = report(2);
        let dir = std::env::temp_dir().join("mee_campaign_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_campaign.json");
        r.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.trim(), r.aggregate_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
