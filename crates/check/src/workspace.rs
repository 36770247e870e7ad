//! Workspace discovery: members from the root `Cargo.toml`, each
//! member's package name, and the `.rs` source walk. All hand-rolled —
//! `mad-check` has zero dependencies, so the TOML reader is a
//! line-oriented subset parser covering exactly the manifest shapes this
//! workspace uses.

use std::fs;
use std::path::{Path, PathBuf};

use crate::SrcFile;

/// Load every `.rs` source of every member and of the root facade
/// package. Files under `tests/`, `benches/` and `examples/` are loaded
/// with `assume_test` set so the test-aware lints skip them wholesale.
pub fn load(root: &Path) -> Result<Vec<SrcFile>, String> {
    let root_manifest = read(root, "Cargo.toml")?;
    let mut dirs = members(&root_manifest);
    dirs.insert(0, String::new()); // the root facade package
    let mut files = Vec::new();
    for dir in dirs {
        let manifest_rel = join_rel(&dir, "Cargo.toml");
        let name = package_name(&read(root, &manifest_rel)?)
            .ok_or_else(|| format!("{manifest_rel}: missing [package] name"))?;
        collect_sources(root, &dir, &name, &mut files)?;
    }
    Ok(files)
}

/// Extract the `members = [...]` array from the root manifest.
fn members(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let t = line.trim();
        if !in_members {
            if t.starts_with("members") && t.contains('[') {
                in_members = true;
            }
            if !in_members {
                continue;
            }
        }
        for piece in t.split(',') {
            if let Some(q) = quoted(piece) {
                out.push(q);
            }
        }
        if t.contains(']') {
            break;
        }
    }
    out
}

/// The `name` key of the manifest's `[package]` table.
fn package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
        } else if in_package && t.split(['=', ' ']).next() == Some("name") {
            return quoted(t);
        }
    }
    None
}

/// Load the crate's sources: `src/**` as production code, `tests/`,
/// `benches/` and `examples/` as test code.
fn collect_sources(
    root: &Path,
    dir: &str,
    crate_name: &str,
    out: &mut Vec<SrcFile>,
) -> Result<(), String> {
    for (sub, assume_test) in [("src", false), ("tests", true), ("benches", true), ("examples", true)]
    {
        let rel = join_rel(dir, sub);
        let abs = root.join(&rel);
        if !abs.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk_rs(&abs, &mut paths)?;
        paths.sort();
        for p in paths {
            let rel_path = rel_of(root, &p);
            let text = fs::read_to_string(&p)
                .map_err(|e| format!("{}: {e}", p.display()))?;
            out.push(SrcFile {
                crate_name: crate_name.to_string(),
                rel_path,
                assume_test,
                text,
            });
        }
    }
    Ok(())
}

/// Recursively collect `.rs` files.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    let p = root.join(rel);
    fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))
}

/// First double-quoted string in a line, if any.
fn quoted(line: &str) -> Option<String> {
    let rest = line.split_once('"')?.1;
    Some(rest.split_once('"')?.0.to_string())
}

fn join_rel(dir: &str, rest: &str) -> String {
    if dir.is_empty() {
        rest.to_string()
    } else {
        format!("{dir}/{rest}")
    }
}

/// Path relative to the workspace root, with `/` separators.
fn rel_of(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_array_parses() {
        let m = members("x = 1\nmembers = [\n  \"crates/model\",\n  \"vendor/proptest\",\n]\n");
        assert_eq!(m, vec!["crates/model", "vendor/proptest"]);
    }

    #[test]
    fn package_name_is_read_from_the_package_table() {
        let text = "[package]\nname = \"mad-net\"\n\n[[bin]]\nname = \"madc\"\n";
        assert_eq!(package_name(text).as_deref(), Some("mad-net"));
        assert_eq!(package_name("[lib]\nname = \"mad_net\"\n"), None);
    }
}
