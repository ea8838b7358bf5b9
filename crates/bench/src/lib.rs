#![warn(missing_docs)]
//! Shared plumbing for the `mee-bench` binaries: the `experiments`
//! figure runner and the gated `bench-*` benchmarks.
//!
//! `experiments <name> [seed] [scale]` regenerates one figure or table of
//! the paper by name (see [`experiments`] for the names; `all` runs the
//! full set). After the name, every binary accepts `[seed] [scale]`
//! positional arguments:
//!
//! * `seed` (default 2019, the paper's year) — all machine RNGs derive
//!   from it;
//! * `scale` (default 1) — multiplies trial counts / payload sizes, so
//!   `cargo run -p mee-bench --bin experiments -- fig7 7 4` runs a 4×
//!   heavier sweep.
//!
//! Malformed arguments are hard errors: a typo'd sweep must never
//! masquerade as the default run.
//!
//! Host-time measurement of the simulator itself lives in `perfbench/`
//! (per-layer and end-to-end metrics); the `bench-*` binaries here each
//! carry a CI gate (schema, determinism, or bit-identity).

pub mod campaign;
pub mod experiments;
pub mod output;
pub mod resilience;
pub mod sweep;

/// The environment knob selecting the trace ring capacity (`0` disables
/// tracing; parsed strictly, a malformed value panics). Only the binaries
/// read it: the simulator crates take a capacity as an argument.
pub const TRACE_ENV: &str = "MEE_TRACE";

/// Reads [`TRACE_ENV`]: `None` when unset, `Some(0)` to force tracing
/// off, `Some(n)` for an `n`-event ring.
///
/// # Panics
///
/// Panics when the variable is set but not an unsigned integer.
pub fn env_capacity() -> Option<usize> {
    mee_rng::env_knob::unsigned_from_env::<usize>(TRACE_ENV)
}

/// Parsed command-line arguments for a `mee-bench` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// RNG seed for the whole experiment.
    pub seed: u64,
    /// Work multiplier (≥ 1).
    pub scale: usize,
    /// Worker threads for sweep-based binaries (`--threads N`); `None`
    /// defers to `MEE_SWEEP_THREADS` or the host's available parallelism.
    pub threads: Option<usize>,
    /// Output artifact path override (`--out <path>`); `None` keeps each
    /// binary's default (stdout only, or its conventional `BENCH_*.json`).
    pub out: Option<std::path::PathBuf>,
    /// Trace-ring capacity request (`--trace <events>`); `0` forces
    /// tracing off, `None` defers to the `MEE_TRACE` environment knob.
    pub trace: Option<u64>,
}

/// A rejected command-line argument: which position, and the bad value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// Name of the argument that failed to parse (`seed` or `scale`).
    pub arg: &'static str,
    /// The offending raw value.
    pub value: String,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} argument {:?} (usage: [seed:u64] [scale:usize>=1] \
             [--threads N>=1] [--out PATH] [--trace EVENTS])",
            self.arg, self.value
        )
    }
}

impl std::error::Error for ArgError {}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            seed: 2019, // the paper's year
            scale: 1,
            threads: None,
            out: None,
            trace: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `[seed] [scale] [--threads N] [--out PATH] [--trace EVENTS]`
    /// from an iterator of arguments (typically
    /// `std::env::args().skip(1)`). Flags may appear anywhere; the
    /// positionals keep their order.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] naming the offending argument when `seed`
    /// is not a `u64`, `scale` is not a positive integer, `--threads` is
    /// missing/zero/non-numeric, `--out` is missing its path, or `--trace`
    /// is missing/non-numeric (`--trace 0` is valid: it forces tracing
    /// off). Omitted arguments take their defaults.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut out = HarnessArgs::default();
        let mut positionals = Vec::new();
        let mut it = args.into_iter();
        while let Some(s) = it.next() {
            if s == "--threads" {
                let v = it.next().ok_or(ArgError {
                    arg: "threads",
                    value: "<missing>".into(),
                })?;
                let threads: usize = v.parse().map_err(|_| ArgError {
                    arg: "threads",
                    value: v.clone(),
                })?;
                if threads == 0 {
                    return Err(ArgError {
                        arg: "threads",
                        value: v,
                    });
                }
                out.threads = Some(threads);
            } else if s == "--out" {
                let v = it.next().ok_or(ArgError {
                    arg: "out",
                    value: "<missing>".into(),
                })?;
                out.out = Some(std::path::PathBuf::from(v));
            } else if s == "--trace" {
                let v = it.next().ok_or(ArgError {
                    arg: "trace",
                    value: "<missing>".into(),
                })?;
                let trace: u64 = v.parse().map_err(|_| ArgError {
                    arg: "trace",
                    value: v.clone(),
                })?;
                out.trace = Some(trace);
            } else {
                positionals.push(s);
            }
        }
        let mut it = positionals.into_iter();
        if let Some(s) = it.next() {
            out.seed = s.parse().map_err(|_| ArgError {
                arg: "seed",
                value: s,
            })?;
        }
        if let Some(s) = it.next() {
            let scale: usize = s.parse().map_err(|_| ArgError {
                arg: "scale",
                value: s.clone(),
            })?;
            if scale == 0 {
                return Err(ArgError {
                    arg: "scale",
                    value: s,
                });
            }
            out.scale = scale;
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with a message on
    /// stderr (status 2) if they are malformed.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The output artifact path: `--out` if given, else `default` — the
    /// binary's conventional `BENCH_*.json` name in the working directory.
    pub fn out_or(&self, default: &str) -> std::path::PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from(default))
    }

    /// The effective trace-ring capacity: the `--trace` flag beats the
    /// `MEE_TRACE` environment knob; a value of `0` from either source —
    /// or neither being set — disables tracing (`None`).
    ///
    /// # Panics
    ///
    /// Panics if `MEE_TRACE` is consulted and set to a malformed value
    /// (the workspace-wide strict-knob policy: a typo'd override must
    /// never silently fall back to a default).
    pub fn trace_capacity(&self) -> Option<usize> {
        let raw = match self.trace {
            Some(n) => usize::try_from(n).expect("trace capacity fits usize"),
            None => env_capacity()?,
        };
        (raw > 0).then_some(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = HarnessArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a, HarnessArgs::default());
        assert_eq!((a.seed, a.scale), (2019, 1));
        assert_eq!(a.threads, None);
        assert_eq!(a.out, None);
        assert_eq!(a.trace, None);
    }

    #[test]
    fn parses_seed_and_scale() {
        let a = HarnessArgs::parse(vec!["7".into(), "3".into()]).unwrap();
        assert_eq!(a, HarnessArgs { seed: 7, scale: 3, ..HarnessArgs::default() });
    }

    #[test]
    fn seed_alone_is_accepted() {
        let a = HarnessArgs::parse(vec!["99".into()]).unwrap();
        assert_eq!(a, HarnessArgs { seed: 99, ..HarnessArgs::default() });
    }

    #[test]
    fn threads_flag_parses_anywhere() {
        let a = HarnessArgs::parse(vec!["--threads".into(), "4".into()]).unwrap();
        assert_eq!(a, HarnessArgs { threads: Some(4), ..HarnessArgs::default() });
        let b =
            HarnessArgs::parse(vec!["7".into(), "--threads".into(), "2".into(), "3".into()])
                .unwrap();
        assert_eq!(
            b,
            HarnessArgs { seed: 7, scale: 3, threads: Some(2), ..HarnessArgs::default() }
        );
    }

    #[test]
    fn out_flag_parses_and_defaults() {
        let a = HarnessArgs::parse(vec!["--out".into(), "/tmp/x.json".into()]).unwrap();
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
        assert_eq!(a.out_or("BENCH_x.json"), std::path::PathBuf::from("/tmp/x.json"));
        let b = HarnessArgs::default();
        assert_eq!(b.out_or("BENCH_x.json"), std::path::PathBuf::from("BENCH_x.json"));
    }

    #[test]
    fn out_flag_requires_a_path() {
        let e = HarnessArgs::parse(vec!["--out".into()]).unwrap_err();
        assert_eq!(e.arg, "out");
        assert_eq!(e.value, "<missing>");
    }

    #[test]
    fn trace_flag_parses_and_zero_disables() {
        let a = HarnessArgs::parse(vec!["--trace".into(), "4096".into()]).unwrap();
        assert_eq!(a.trace, Some(4096));
        assert_eq!(a.trace_capacity(), Some(4096));
        let b = HarnessArgs::parse(vec!["--trace".into(), "0".into()]).unwrap();
        assert_eq!(b.trace, Some(0));
        assert_eq!(b.trace_capacity(), None, "--trace 0 forces tracing off");
    }

    #[test]
    fn env_capacity_is_unset_by_default() {
        assert_eq!(env_capacity(), None);
    }

    #[test]
    fn trace_flag_rejects_garbage() {
        for bad in [vec!["--trace".into()], vec!["--trace".into(), "big".into()]] {
            let e = HarnessArgs::parse(bad).unwrap_err();
            assert_eq!(e.arg, "trace");
        }
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        for bad in [vec!["--threads".into()], vec!["--threads".into(), "zero".into()], vec!["--threads".into(), "0".into()]] {
            let e = HarnessArgs::parse(bad).unwrap_err();
            assert_eq!(e.arg, "threads");
        }
    }

    #[test]
    fn malformed_seed_is_an_error() {
        let e = HarnessArgs::parse(vec!["x".into()]).unwrap_err();
        assert_eq!(e.arg, "seed");
        assert_eq!(e.value, "x");
        assert!(e.to_string().contains("seed"));
    }

    #[test]
    fn malformed_scale_is_an_error() {
        let e = HarnessArgs::parse(vec!["7".into(), "wide".into()]).unwrap_err();
        assert_eq!(e.arg, "scale");
        assert_eq!(e.value, "wide");
    }

    #[test]
    fn zero_scale_is_an_error() {
        // Previously clamped to 1 silently; a zero-work sweep is a typo.
        let e = HarnessArgs::parse(vec!["7".into(), "0".into()]).unwrap_err();
        assert_eq!(e.arg, "scale");
        assert_eq!(e.value, "0");
    }

    #[test]
    fn negative_seed_is_an_error() {
        let e = HarnessArgs::parse(vec!["-3".into()]).unwrap_err();
        assert_eq!(e.arg, "seed");
    }
}
