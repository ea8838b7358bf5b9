//! Experiment drivers: one per figure of the paper's evaluation, plus the
//! headline numbers and the extensions promised in DESIGN.md.
//!
//! Every driver is a pure function of a seed (and scale parameters), builds
//! its own machine(s), and returns a result struct whose `Display`
//! implementation prints the same rows/series the paper reports. The
//! `mee-bench` crate exposes each as a binary.

pub mod ablation;
pub mod campaign;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod headline;
pub mod mitigation;
pub mod resilience;
pub mod stealth;
pub mod sweep;
pub mod timers;
pub mod wide;

pub use ablation::{run_ablation, AblationResult};
pub use campaign::{run_channel_campaign, CHANNEL_SERIES};
pub use fig4::{run_fig4, Fig4Result};
pub use fig5::{run_fig5, Fig5Result};
pub use fig6::{run_fig6, run_fig6_with, Fig6Result};
pub use fig7::{run_fig7, Fig7Result};
pub use fig8::{run_fig8, Fig8Result, NoiseEnvironment};
pub use headline::{run_headline, HeadlineResult};
pub use mitigation::{run_mitigation, MitigationResult};
pub use resilience::{
    run_resilience, run_resilience_sweep, session_fault_targets, ResiliencePoint, ResilienceResult,
};
pub use stealth::{run_stealth, StealthResult};
pub use sweep::{
    channel_session, run_channel_sweep, run_fig6_sweep, ChannelSweepPoint, Fig6Sweep,
    PooledContrast, SweepPlan,
};
pub use timers::{run_timers, TimersResult};
pub use wide::{run_wide, WideResult};
