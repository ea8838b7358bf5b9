//! Strict parsing for workspace environment knobs.
//!
//! Every env override in the workspace (`MEE_PROP_CASES`, `MEE_PROP_SEED`,
//! `MEE_SWEEP_THREADS`, `MEE_CAMPAIGN_SHARDS`, `MEE_CAMPAIGN_DIR`,
//! `MEE_TRACE`) goes through this module so a typo'd value fails loudly
//! and identically everywhere, instead of some
//! knobs validating strictly while others silently fall back to defaults
//! (or accept `0` and fail much later with a confusing message).

use std::fmt;
use std::str::FromStr;

/// A rejected environment-knob override: which variable, the raw value
/// that failed, and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvKnobError {
    /// The environment variable name.
    pub name: &'static str,
    /// The raw value that failed to parse.
    pub value: String,
    /// Human-readable description of the accepted grammar.
    pub expected: &'static str,
}

impl fmt::Display for EnvKnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} value {:?} (must be {}, e.g. {}=4)",
            self.name, self.value, self.expected, self.name
        )
    }
}

impl std::error::Error for EnvKnobError {}

/// Parses a *positive* integer override: `"0"`, `"-2"`, `"many"`, and a
/// 30-digit overflow all fail the same way.
///
/// # Errors
///
/// Returns an [`EnvKnobError`] echoing the variable name and value.
pub fn parse_positive<T>(name: &'static str, value: &str) -> Result<T, EnvKnobError>
where
    T: FromStr + Default + PartialOrd,
{
    match value.trim().parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(EnvKnobError {
            name,
            value: value.to_owned(),
            expected: "a positive integer",
        }),
    }
}

/// Parses an unsigned integer override where zero is meaningful (seeds).
///
/// # Errors
///
/// Returns an [`EnvKnobError`] echoing the variable name and value.
pub fn parse_unsigned<T: FromStr>(name: &'static str, value: &str) -> Result<T, EnvKnobError> {
    value.trim().parse::<T>().map_err(|_| EnvKnobError {
        name,
        value: value.to_owned(),
        expected: "an unsigned integer",
    })
}

/// Parses a non-empty string override (paths, directory names). The value
/// is trimmed; whitespace-only values fail like empty ones, so
/// `MEE_CAMPAIGN_DIR=" "` cannot silently name the current directory.
///
/// # Errors
///
/// Returns an [`EnvKnobError`] echoing the variable name and value.
pub fn parse_nonempty(name: &'static str, value: &str) -> Result<String, EnvKnobError> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        Err(EnvKnobError {
            name,
            value: value.to_owned(),
            expected: "a non-empty path",
        })
    } else {
        Ok(trimmed.to_owned())
    }
}

/// Reads a positive-integer knob from the environment. Returns `None` when
/// the variable is unset.
///
/// # Panics
///
/// Panics with the [`EnvKnobError`] message when the variable is set but
/// malformed — an override must never silently fall back to a default run.
pub fn positive_from_env<T>(name: &'static str) -> Option<T>
where
    T: FromStr + Default + PartialOrd,
{
    std::env::var(name)
        .ok()
        .map(|v| parse_positive(name, &v).unwrap_or_else(|e| panic!("{e}")))
}

/// Reads an unsigned-integer knob (zero allowed) from the environment.
/// Returns `None` when the variable is unset.
///
/// # Panics
///
/// Panics with the [`EnvKnobError`] message when the variable is set but
/// malformed.
pub fn unsigned_from_env<T: FromStr>(name: &'static str) -> Option<T> {
    std::env::var(name)
        .ok()
        .map(|v| parse_unsigned(name, &v).unwrap_or_else(|e| panic!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_integers() {
        assert_eq!(parse_positive::<usize>("K", "4"), Ok(4));
        assert_eq!(parse_positive::<u32>("K", " 17 "), Ok(17));
        assert_eq!(parse_positive::<u64>("K", "1"), Ok(1));
    }

    #[test]
    fn rejects_zero_garbage_and_overflow() {
        for bad in ["0", "-2", "many", "", "4.5", "999999999999999999999999999999"] {
            let err = parse_positive::<usize>("MEE_TEST_KNOB", bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("MEE_TEST_KNOB"), "no var name in: {msg}");
            assert!(msg.contains("positive integer"), "no grammar in: {msg}");
            assert!(msg.contains(bad), "offending value not echoed in: {msg}");
        }
    }

    #[test]
    fn unsigned_accepts_zero_but_not_garbage() {
        assert_eq!(parse_unsigned::<u64>("K", "0"), Ok(0));
        assert_eq!(parse_unsigned::<u64>("K", "42"), Ok(42));
        assert!(parse_unsigned::<u64>("K", "-1").is_err());
        assert!(parse_unsigned::<u64>("K", "seed").is_err());
    }

    #[test]
    fn env_readers_return_none_when_unset() {
        assert_eq!(positive_from_env::<usize>("MEE_UNSET_KNOB_A"), None);
        assert_eq!(unsigned_from_env::<u64>("MEE_UNSET_KNOB_B"), None);
    }

    #[test]
    fn nonempty_accepts_paths_and_rejects_blank() {
        assert_eq!(
            parse_nonempty("MEE_CAMPAIGN_DIR", "/tmp/campaign"),
            Ok("/tmp/campaign".to_owned())
        );
        assert_eq!(
            parse_nonempty("MEE_CAMPAIGN_DIR", "  rel/dir "),
            Ok("rel/dir".to_owned()),
            "whitespace trimmed"
        );
        for bad in ["", "   ", "\t"] {
            let err = parse_nonempty("MEE_CAMPAIGN_DIR", bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("MEE_CAMPAIGN_DIR"), "no var name in: {msg}");
            assert!(msg.contains("non-empty path"), "no grammar in: {msg}");
        }
    }
}
