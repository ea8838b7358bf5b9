//! The `experiments` dispatcher's argument handling: every rejection exits
//! 2 before any experiment runs.

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
