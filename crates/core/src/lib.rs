#![warn(missing_docs)]
//! The paper's contribution: the MEE-cache covert channel.
//!
//! This crate implements, against the simulated machine of [`mee_machine`]:
//!
//! * **Reverse engineering** (paper §4): the capacity experiment of Figure 4
//!   ([`recon::capacity`]), the eviction-set / associativity discovery of
//!   Algorithm 1 ([`recon::eviction`]), and the latency census of Figure 5
//!   ([`recon::latency`]);
//! * **The covert channel** (paper §5): the Prime+Probe baseline that fails
//!   over the MEE cache ([`channel::prime_probe`], Figure 6a), and the
//!   paper's role-reversed single-way channel of Algorithm 2
//!   ([`channel::Session`], Figure 6b), every channel one
//!   [`channel::Sender`] / [`channel::Receiver`] window exchange, plus
//!   framing and error-correction extensions ([`channel::coding`]);
//! * **Noise programs** standing in for the paper's co-located workloads and
//!   `stress-ng` ([`noise`], Figure 8);
//! * **Experiment drivers** that regenerate every figure
//!   ([`experiments`]).
//!
//! # Quickstart
//!
//! ```
//! use mee_attack::channel::{ChannelConfig, Session};
//! use mee_attack::setup::AttackSetup;
//!
//! # fn main() -> Result<(), mee_types::ModelError> {
//! let mut setup = AttackSetup::quiet(7)?; // deterministic, noise-free
//! let mut session = Session::establish(&mut setup, &ChannelConfig::default())?;
//! let sent = vec![true, false, true, true, false, false, true, false];
//! let outcome = session.transmit(&mut setup, &sent)?;
//! assert_eq!(outcome.received, sent);
//! # Ok(())
//! # }
//! ```

pub mod channel;
pub mod experiments;
pub mod noise;
pub mod recon;
pub mod report;
pub mod setup;
pub mod threshold;
