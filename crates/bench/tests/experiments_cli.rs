//! Argument and environment-knob handling of the `mee-bench` binaries:
//! every rejection exits 2 with a one-line message before any experiment
//! runs.

use std::process::{Command, Output};

use mee_bench::experiments::EXPERIMENTS;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_or_missing_name_prints_usage_listing_every_name() {
    for args in [&[][..], &["bogus"], &["fig9", "7", "1"], &["7"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: experiments <"), "{stderr}");
        for name in EXPERIMENTS.iter().map(|e| e.name).chain(["all"]) {
            assert!(stderr.contains(name), "usage misses {name}: {stderr}");
        }
    }
}

#[test]
fn malformed_seed_or_scale_after_the_name_exits_2() {
    for (args, arg) in [
        (&["fig4", "x"][..], "seed"),
        (&["fig4", "7", "0"], "scale"),
        (&["headline", "7", "1.5"], "scale"),
        (&["all", "-3"], "seed"),
        (&["algo1", "--threads", "0"], "threads"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("invalid {arg} argument")), "{stderr}");
    }
}

/// The knobs a binary resolves; each case sets one of them and clears the
/// rest, so the outer environment cannot decide which one fails first.
const KNOBS: [&str; 4] = ["MEE_SWEEP_THREADS", "MEE_TRACE", "MEE_CAMPAIGN_SHARDS", "MEE_CAMPAIGN_DIR"];

#[test]
fn malformed_environment_knobs_exit_2_naming_the_variable() {
    let out_path = std::env::temp_dir().join(format!("mee_cli_knob_{}.json", std::process::id()));
    let out_arg = out_path.to_str().unwrap();
    for (bin, var, value) in [
        (env!("CARGO_BIN_EXE_bench-campaign"), "MEE_CAMPAIGN_SHARDS", "0"),
        (env!("CARGO_BIN_EXE_bench-campaign"), "MEE_CAMPAIGN_DIR", "  "),
        (env!("CARGO_BIN_EXE_bench-campaign"), "MEE_SWEEP_THREADS", "lots"),
        (env!("CARGO_BIN_EXE_bench-sweep"), "MEE_SWEEP_THREADS", "0"),
        (env!("CARGO_BIN_EXE_bench-resilience"), "MEE_SWEEP_THREADS", "-2"),
    ] {
        let mut cmd = Command::new(bin);
        for knob in KNOBS {
            cmd.env_remove(knob);
        }
        let out = cmd.args(["--out", out_arg]).env(var, value).output().expect("spawn bench bin");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {var}={value:?}: {stderr}");
        assert!(stderr.contains(var), "{bin}: variable not named in {stderr:?}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{bin}: not one line: {stderr:?}");
        assert!(out.stdout.is_empty(), "{bin} {var}={value:?} ran before rejecting");
        assert!(!out_path.exists(), "{bin} {var}={value:?} wrote an artifact");
    }
}
