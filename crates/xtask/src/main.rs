//! Repository maintenance tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! Std-only on purpose: the gate must build and run in any environment the
//! workspace builds in, with no extra dependencies to fetch. Its one
//! dependency, `sensocial-loc`, is a std-only workspace crate.

#![forbid(unsafe_code)]

mod lint;

use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- <task>

tasks:
  lint [--json]    scan non-test sources for banned patterns (panics,
                   debug macros, nondeterminism, hash-ordered containers
                   in serialization paths) and manifests for crates from
                   outside the repository; exit 0 = clean, 1 = findings,
                   2 = internal error; --json emits findings as JSON on
                   stdout
  loc              print the code-line total (comments and blanks
                   excluded) over crates/, tests/ and examples/, as
                   sensocial-loc counts it";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut json = false;
            for flag in args {
                match flag.as_str() {
                    "--json" => json = true,
                    other => {
                        eprintln!("xtask lint: unknown flag `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            lint::run(json)
        }
        Some("loc") => match args.next() {
            None => loc(),
            Some(flag) => {
                eprintln!("xtask loc: unknown flag `{flag}`\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints the workspace's code-line total, the figure the roadmap tracks.
fn loc() -> ExitCode {
    let root = lint::repo_root();
    let mut total = 0;
    for dir in ["crates", "tests", "examples"] {
        match sensocial_loc::count_tree(&root.join(dir)) {
            Ok(report) => total += report.totals.code,
            Err(e) => {
                eprintln!("xtask loc: cannot count {dir}/: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{total}");
    ExitCode::SUCCESS
}
