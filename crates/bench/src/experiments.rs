//! The paper's experiments by name: one table behind the `experiments`
//! binary.
//!
//! ```text
//! cargo run --release -p mee-bench --bin experiments -- <name> [seed] [scale]
//! ```
//!
//! Each [`Experiment`] maps a name to a runner that regenerates one figure
//! (or table) and renders it as text; `scale` multiplies the runner's
//! paper-sized trial count or payload. `all` runs every entry marked
//! [`Experiment::in_all`], in table order, under one header — the output
//! EXPERIMENTS.md is generated from.

use mee_attack::experiments::{
    fig7::PAPER_WINDOWS, run_ablation, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8,
    run_headline, run_mitigation, run_stealth, run_timers, run_wide,
};
use mee_attack::recon::eviction::find_eviction_set;
use mee_attack::recon::profile_mee_cache;
use mee_attack::setup::AttackSetup;
use mee_attack::threshold::LatencyClassifier;
use mee_types::ModelError;

/// One named experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name the binary dispatches on.
    pub name: &'static str,
    /// Whether `all` runs it.
    pub in_all: bool,
    /// Renders the experiment's stdout at `(seed, scale)`.
    pub run: fn(u64, usize) -> Result<String, ModelError>,
}

/// Every experiment, in the order `all` runs them and usage lists them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig4",
        in_all: true,
        // The paper's 100 trials per point.
        run: |seed, s| Ok(run_fig4(seed, 100 * s)?.to_string()),
    },
    Experiment {
        name: "fig5",
        in_all: true,
        run: |seed, s| Ok(run_fig5(seed, 64 * s, 2)?.to_string()),
    },
    Experiment {
        name: "fig6",
        in_all: true,
        // Panel (a) shows 16 bits, (b) shows ~30 probes in the paper.
        run: |seed, s| Ok(run_fig6(seed, 16 * s)?.to_string()),
    },
    Experiment {
        name: "fig7",
        in_all: true,
        run: |seed, s| Ok(run_fig7(seed, 1024 * s, &PAPER_WINDOWS)?.to_string()),
    },
    Experiment {
        name: "fig8",
        in_all: true,
        run: |seed, s| Ok(run_fig8(seed, 128 * s)?.to_string()),
    },
    Experiment {
        name: "headline",
        in_all: true,
        run: |seed, s| Ok(run_headline(seed, 4096 * s)?.to_string()),
    },
    Experiment {
        name: "algo1",
        in_all: false,
        run: algo1,
    },
    Experiment {
        name: "timers",
        in_all: true,
        run: |seed, s| Ok(run_timers(seed, 32 * s)?.to_string()),
    },
    Experiment {
        name: "ablation",
        in_all: true,
        run: |seed, s| Ok(run_ablation(seed, 512 * s)?.to_string()),
    },
    Experiment {
        name: "mitigation",
        in_all: true,
        run: |seed, s| Ok(run_mitigation(seed, 512 * s, &[8, 6, 4, 2])?.to_string()),
    },
    Experiment {
        name: "stealth",
        in_all: true,
        run: |seed, s| Ok(run_stealth(seed, 512 * s)?.to_string()),
    },
    Experiment {
        name: "wide",
        in_all: true,
        run: |seed, s| Ok(run_wide(seed, 512 * s, &[1, 2, 4, 8])?.to_string()),
    },
    Experiment {
        name: "profile",
        in_all: false,
        run: profile,
    },
];

/// Looks an experiment up by name (`all` is not an entry).
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The experiments `all` runs, in order.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.in_all)
}

/// The usage line, listing every name the binary accepts.
#[must_use]
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).chain(["all"]).collect();
    format!(
        "usage: experiments <{}> [seed:u64] [scale:usize>=1]",
        names.join("|")
    )
}

/// Algorithm 1 end to end: the reverse-engineered MEE-cache associativity
/// (§4.2: 8 ways).
fn algo1(seed: u64, _scale: usize) -> Result<String, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
    let candidates = setup.trojan.candidates(160, 0);
    let mut cpu = setup.trojan_handle();
    let result = find_eviction_set(&mut cpu, &candidates, &classifier, 3)?;
    let ways = result.associativity();
    Ok(format!(
        "Algorithm 1 — eviction address set discovery (paper §4.2)\n\
         candidate addresses : {}\n\
         index address set   : {}\n\
         eviction address set: {ways}\n\
         => MEE cache associativity: {ways} ways (paper: 8)\n\
         => with the 64 KiB capacity of Figure 4: {} sets of 64 B lines\n",
        candidates.len(),
        result.index_set_size,
        64 * 1024 / 64 / ways.max(1)
    ))
}

/// The full §4 reverse-engineering pipeline: the inferred MEE cache
/// organization.
fn profile(seed: u64, scale: usize) -> Result<String, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let profile = profile_mee_cache(&mut setup, 20 * scale, 3)?;
    let mut out = format!(
        "Reverse-engineered MEE cache organization (paper §4):\n  {profile}\n  \
         paper's answer: 64 KiB, 8-way set-associative, 128 sets of 64 B lines\n"
    );
    if let Some(k) = profile.sweep_saturation {
        out += &format!(
            "  Figure-4 sweep saturated at {k} candidates (consistency: {:?})\n",
            profile.sweep_consistent()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_runs_the_eleven_figures_in_order() {
        let names: Vec<&str> = all().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig4", "fig5", "fig6", "fig7", "fig8", "headline", "timers", "ablation",
                "mitigation", "stealth", "wide"
            ]
        );
    }
}
