//! The analyzer, run end to end against the workspace it lives in.
//!
//! This is the integration contract behind the ci.sh step: the real
//! panic sites and the committed `check_ratchet.toml` must come back
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
