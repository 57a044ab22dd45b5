//! Workspace automation (`cargo xtask <command>`).
//!
//! The only command today is `lint`: a source-level analyzer enforcing the
//! project's library-code rules — no panicking calls in lib crates, no raw
//! f64 comparison of `Time` seconds outside `time.rs`, no reserved record
//! key as a trace field key, `#![deny(missing_docs)]` in every lib root, and
//! paper-section citations (`§`) on public items of `omnet-core` /
//! `omnet-temporal`. Pre-existing violations are grandfathered
//! in `xtask-lint.allow`, whose counts can only go down.

mod allowlist;
mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
xtask — workspace automation

USAGE:
    cargo xtask lint [--update-allowlist] [--root <dir>]

COMMANDS:
    lint    Run the custom source lint pass over the library crates.

OPTIONS:
    --update-allowlist   Rewrite xtask-lint.allow from the observed
                         violation counts (use after a burn-down).
    --root <dir>         Workspace root (default: auto-detected).
";

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut update = false;
    let mut root = workspace_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--update-allowlist" => update = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    match command {
        Some("lint") => lint(&root, update),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn lint(root: &Path, update: bool) -> ExitCode {
    let violations = rules::run_all(root);
    let actual = allowlist::tally(&violations);
    let allow_path = root.join("xtask-lint.allow");

    if update {
        if let Err(e) = std::fs::write(&allow_path, allowlist::render(&actual)) {
            eprintln!("writing {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} ({} grandfathered entries, {} total violations)",
            allow_path.display(),
            actual.len(),
            violations.len()
        );
        return ExitCode::SUCCESS;
    }

    let allowed = match allowlist::load(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let errors = allowlist::check(&actual, &allowed);
    if errors.is_empty() {
        println!(
            "xtask lint: clean ({} violation(s) grandfathered across {} file(s))",
            allowed.values().sum::<usize>(),
            allowed.len()
        );
        return ExitCode::SUCCESS;
    }

    eprintln!("xtask lint: {} ratchet failure(s)\n", errors.len());
    for e in &errors {
        eprintln!("  {e}");
        // Show the concrete violations for regressed (rule, file) pairs.
        if let allowlist::RatchetError::Regression { rule, file, .. } = e {
            for v in violations
                .iter()
                .filter(|v| v.rule == rule && &v.file == file)
            {
                eprintln!("      {v}");
            }
        }
    }
    eprintln!("\nFix the code, or for stale entries bank the progress with:");
    eprintln!("    cargo xtask lint --update-allowlist");
    ExitCode::FAILURE
}
