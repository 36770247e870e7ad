//! `mad-check` — the MAD workspace static analyzer.
//!
//! Exit codes: 0 clean, 1 diagnostics reported, 2 the analyzer could
//! not run (missing spec table, unreadable workspace, bad usage).

use std::path::PathBuf;
use std::process::ExitCode;

use mad_check::{run_workspace, RatchetMode};

const USAGE: &str = "\
usage: mad-check [--root DIR] [--ratchet-update]

Runs the MAD project lints over the workspace:
  lock-order     lock-hierarchy (deadlock) lint per ARCHITECTURE.md
  reg-block      no blocking call while a registration lock is held
  panic-ratchet  unannotated panic sites vs check_ratchet.toml budget

options:
  --root DIR         workspace root (default: walk up to the Cargo.toml
                     containing [workspace])
  --ratchet-update   rewrite check_ratchet.toml from measured counts
                     (refuses to raise any budget)
  -h, --help         this text
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut mode = RatchetMode::Enforce;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("mad-check: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--ratchet-update" => mode = RatchetMode::Update,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mad-check: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mad-check: {e}");
            return ExitCode::from(2);
        }
    };
    match run_workspace(&root, mode) {
        Err(e) => {
            eprintln!("mad-check: {e}");
            ExitCode::from(2)
        }
        Ok(diags) if diags.is_empty() => {
            if mode == RatchetMode::Update {
                println!("mad-check: ratchet updated, workspace clean");
            } else {
                println!("mad-check: workspace clean");
            }
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("mad-check: {} problem(s)", diags.len());
            ExitCode::FAILURE
        }
    }
}

/// Walk up from the current directory to the manifest that declares
/// `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory; \
                        pass --root"
                .into());
        }
    }
}
