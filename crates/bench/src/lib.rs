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
//! The environment knobs are read here, at the binary edge, and nowhere in
//! the simulator crates: [`HarnessArgs::with_env`] fills `--threads` from
//! [`THREADS_ENV`] and `--trace` from [`TRACE_ENV`] when the flag is
//! absent (`bench-campaign` resolves its own two the same way). A
//! malformed value exits 2 with a one-line message naming the variable.
//!
//! Host-time measurement of the simulator itself lives in `perfbench/`
//! (per-layer and end-to-end metrics); the `bench-*` binaries here each
//! carry a CI gate (schema, determinism, or bit-identity).

pub mod campaign;
pub mod experiments;
pub mod output;
pub mod resilience;
pub mod sweep;

use mee_rng::env_knob::{parse_positive, parse_unsigned, EnvKnobError};

/// The environment knob selecting the trace ring capacity when `--trace`
/// is absent (`0` disables tracing). The simulator crates take a capacity
/// as an argument.
pub const TRACE_ENV: &str = "MEE_TRACE";

/// The environment knob pinning the worker-thread count of the sweep and
/// campaign binaries when `--threads` is absent (default: the host's
/// available parallelism). Results never depend on it.
pub const THREADS_ENV: &str = "MEE_SWEEP_THREADS";

/// Reads environment knob `name` through `parse`, one of the strict
/// `mee_rng::env_knob` parsers; `Ok(None)` when the variable is unset.
///
/// # Errors
///
/// Returns the parser's [`EnvKnobError`], which names the variable and
/// echoes the value, when it is set but malformed.
pub fn env_knob<T>(
    name: &'static str,
    parse: impl Fn(&'static str, &str) -> Result<T, EnvKnobError>,
) -> Result<Option<T>, EnvKnobError> {
    std::env::var(name).ok().map(|v| parse(name, &v)).transpose()
}

/// Prints `msg` on stderr and exits with status 2, the usage-error status
/// of every `mee-bench` binary.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parsed command-line arguments for a `mee-bench` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// RNG seed for the whole experiment.
    pub seed: u64,
    /// Work multiplier (≥ 1).
    pub scale: usize,
    /// Worker threads for sweep-based binaries (`--threads N`, else
    /// [`THREADS_ENV`] after [`HarnessArgs::with_env`]); `None` means the
    /// host's available parallelism.
    pub threads: Option<usize>,
    /// Output artifact path override (`--out <path>`); `None` keeps each
    /// binary's default (stdout only, or its conventional `BENCH_*.json`).
    pub out: Option<std::path::PathBuf>,
    /// Trace-ring capacity request (`--trace <events>`, else [`TRACE_ENV`]
    /// after [`HarnessArgs::with_env`]); `0` forces tracing off.
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

    /// Fills what the command line left unset from the environment knobs:
    /// `threads` from [`THREADS_ENV`] (a positive integer) and `trace` from
    /// [`TRACE_ENV`] (an unsigned integer). A flag always beats its knob.
    ///
    /// # Errors
    ///
    /// Returns the [`EnvKnobError`] of the first malformed knob consulted.
    pub fn with_env(mut self) -> Result<Self, EnvKnobError> {
        if self.threads.is_none() {
            self.threads = env_knob(THREADS_ENV, parse_positive)?;
        }
        if self.trace.is_none() {
            self.trace = env_knob(TRACE_ENV, parse_unsigned)?;
        }
        Ok(self)
    }

    /// Parses `args` and resolves the environment knobs
    /// ([`HarnessArgs::with_env`]), exiting with a one-line message on
    /// stderr (status 2) if an argument or a knob is malformed.
    pub fn resolve<I: IntoIterator<Item = String>>(args: I) -> Self {
        match Self::parse(args) {
            Ok(args) => args.with_env().unwrap_or_else(|e| usage_error(e)),
            Err(e) => usage_error(e),
        }
    }

    /// [`HarnessArgs::resolve`] over the process arguments.
    pub fn from_env() -> Self {
        Self::resolve(std::env::args().skip(1))
    }

    /// The output artifact path: `--out` if given, else `default` — the
    /// binary's conventional `BENCH_*.json` name in the working directory.
    pub fn out_or(&self, default: &str) -> std::path::PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from(default))
    }

    /// The effective trace-ring capacity: `None` when `trace` is unset or
    /// `0` (tracing off).
    pub fn trace_capacity(&self) -> Option<usize> {
        let raw = usize::try_from(self.trace?).expect("trace capacity fits usize");
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
    fn with_env_fills_unset_flags_and_rejects_malformed_knobs() {
        // Env vars are process-global: this is the only test in the crate
        // that touches MEE_SWEEP_THREADS or MEE_TRACE, and it restores the
        // prior state.
        let prior = [THREADS_ENV, TRACE_ENV].map(|k| (k, std::env::var(k).ok()));
        let args = |v: &[&str]| HarnessArgs::parse(v.iter().map(|s| (*s).to_owned())).unwrap();

        std::env::remove_var(THREADS_ENV);
        std::env::remove_var(TRACE_ENV);
        assert_eq!(args(&[]).with_env().unwrap(), HarnessArgs::default());

        std::env::set_var(THREADS_ENV, " 3 ");
        std::env::set_var(TRACE_ENV, "0");
        let a = args(&[]).with_env().unwrap();
        assert_eq!((a.threads, a.trace, a.trace_capacity()), (Some(3), Some(0), None));
        let b = args(&["--threads", "2", "--trace", "64"]).with_env().unwrap();
        assert_eq!((b.threads, b.trace), (Some(2), Some(64)), "flags beat knobs");

        for bad in ["0", "-2", "", "lots", "4.5", "999999999999999999999999999999"] {
            std::env::set_var(THREADS_ENV, bad);
            let msg = args(&[]).with_env().unwrap_err().to_string();
            assert!(
                msg.contains(THREADS_ENV) && msg.contains("positive integer"),
                "unhelpful error for {bad:?}: {msg}"
            );
            assert!(msg.contains(&format!("{bad:?}")), "value not echoed: {msg}");
            assert!(!msg.contains('\n'), "not one line: {msg}");
            // An explicit flag never consults the knob.
            assert!(args(&["--threads", "1"]).with_env().is_ok());
        }
        std::env::remove_var(THREADS_ENV);
        std::env::set_var(TRACE_ENV, "big");
        let msg = args(&[]).with_env().unwrap_err().to_string();
        assert!(msg.contains(TRACE_ENV), "{msg}");

        for (k, v) in prior {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
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
