//! The MEE-cache covert channel (paper §5).
//!
//! Roles are *reversed* relative to LLC Prime+Probe: the **trojan** holds
//! the 8-address eviction set and sweeps it (forward, then backward — the
//! approximate-LRU countermeasure of §5.3) to send a `1`; the **spy** only
//! probes a *single* address, its *monitor address*, whose versions line
//! conflicts with the trojan's eviction set. One probe is one protected
//! read: ~480 cycles on a versions hit (`0`) vs ~750 on a miss (`1`).
//!
//! [`Session`] wires it together: Algorithm 1 gives the trojan its eviction
//! set, a short handshake gives the spy its monitor address, and
//! [`Session::transmit`] runs both actors concurrently on their cores.
//!
//! Every channel here is one [`exchange`]: a [`Sender`] acting on per-lane
//! address sets once per window and a [`Receiver`] timing a probe set per
//! lane near the boundary; [`Session`], [`WideSession`],
//! [`prime_probe::PrimeProbeSession`] and [`llc::LlcSession`] only fix the
//! lanes, the sender's phase and the receiver's [`ProbeShape`].
//! [`prime_probe`] is the straightforward port of LLC Prime+Probe the paper
//! shows *failing* over the MEE cache (Figure 6a), and [`coding`] adds the
//! error-handling layer the paper leaves as future work.

pub mod coding;
mod config;
pub mod exchange;
mod leak;
pub mod llc;
mod message;
pub mod prime_probe;
pub mod reliable;
mod session;
pub mod wide;

pub use config::{ChannelConfig, EvictionStrategy, RecoveryPolicy};
pub use exchange::{ProbeShape, Receiver, Sender, TransmitOutcome};
pub use leak::{bits_to_bytes, bytes_to_bits, LeakOutcome};
pub use message::{alternating_bits, paper_100_pattern, random_bits, BitErrors};
pub use reliable::{ReliableLink, ReliableStats};
pub use session::{RobustOutcome, Session};
pub use wide::WideSession;
