//! Regenerates the paper's figures and tables by name.
//!
//! ```text
//! experiments <name> [seed] [scale]
//! ```
//!
//! `name` is one of `mee_bench::experiments::EXPERIMENTS` or `all`; the
//! arguments after it follow the usual [`HarnessArgs`] grammar. An unknown
//! or missing name, or a malformed argument, exits 2; a failed run exits 1.

use mee_bench::experiments::{self, Experiment};
use mee_bench::HarnessArgs;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let all = name == "all";
    let selected: Vec<&Experiment> = match experiments::find(&name) {
        Some(e) => vec![e],
        None if all => experiments::all().collect(),
        None => {
            eprintln!("{}", experiments::usage());
            std::process::exit(2);
        }
    };
    let args = match HarnessArgs::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if all {
        println!("=== seed {}, scale {} ===\n", args.seed, args.scale);
    }
    for e in selected {
        match (e.run)(args.seed, args.scale) {
            Ok(out) if all => print!("{out}\n\n"),
            Ok(out) => print!("{out}"),
            Err(err) if all => {
                eprintln!("experiment run failed: {err}");
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("{name} failed: {err}");
                std::process::exit(1);
            }
        }
    }
}
