//! The analyzer, run end to end against the workspace it lives in.
//!
//! This is the integration contract behind the ci.sh step: the real
//! guard scopes and the committed `check_ratchet.toml` must come back
//! clean. A regression in either
//! direction — new violations in the workspace, or an analyzer change
//! that starts misreading real code — fails here first.

use mad_check::{run_workspace, RatchetMode};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_passes_its_own_analyzer() {
    let diags = run_workspace(&workspace_root(), RatchetMode::Enforce)
        .expect("the analyzer must be able to load the workspace");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "the workspace must be clean under its own analyzer:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn the_real_lock_table_is_loaded() {
    // guard against the failure mode where the normative table goes
    // missing from ARCHITECTURE.md or loses its shape and the lock lint
    // silently checks nothing: the parsed spec must rank the first and
    // the last lock of the hierarchy
    let arch = std::fs::read_to_string(workspace_root().join("ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md is readable");
    let spec = mad_check::spec::parse(&arch).expect("the lock table parses");
    assert_eq!(spec.lock_rank("ticket"), Some(1));
    assert!(spec.lock_rank("reg").is_some(), "`reg` is unranked: {:?}", spec.lock_ranks);
}
