//! The crate layering of ARCHITECTURE.md, checked against the manifests.
//!
//! The "Crate layering (normative)" table gives every workspace crate a
//! layer. Each `[dependencies]` edge of a member or of the facade must
//! point at a strictly lower layer, and the table must list exactly the
//! non-vendor workspace members. A `use mad_*` without a manifest edge
//! does not compile, so the manifests are the whole dependency graph.
//!
//! Every member also opts into the workspace lints, which is where
//! `unsafe_code = "forbid"` is set once for all of them.

use std::fs;
use std::path::Path;

const LAYER_HEADING: &str = "Crate layering (normative)";

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `(crate, layer)` rows of the first table under [`LAYER_HEADING`].
fn layer_table() -> Vec<(String, u32)> {
    let doc = read("ARCHITECTURE.md");
    let mut lines = doc.lines();
    lines
        .by_ref()
        .find(|l| l.starts_with('#') && l.contains(LAYER_HEADING))
        .expect("ARCHITECTURE.md has the crate layering heading");
    let rows: Vec<(String, u32)> = lines
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| {
            let mut cells = l
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('`'));
            let layer = cells.next()?.parse().ok()?; // skips the header and separator
            Some((cells.next()?.to_string(), layer))
        })
        .collect();
    assert!(
        !rows.is_empty(),
        "the table under `{LAYER_HEADING}` has no rows"
    );
    rows
}

/// The `key = value` lines of one `[section]` of a manifest, as
/// `(key, value)` with the value trimmed. `[dependencies.name]` tables
/// count as a `name` key of `[dependencies]`.
fn section(manifest: &str, name: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            inside = header == name;
            if let Some(key) = header.strip_prefix(name).and_then(|k| k.strip_prefix('.')) {
                out.push((key.to_string(), String::new()));
            }
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let (key, value) = line.split_once('=').unwrap_or((line, ""));
            let key = key.split('.').next().unwrap_or(key);
            out.push((
                key.trim().trim_matches('"').to_string(),
                value.trim().to_string(),
            ));
        }
    }
    out
}

fn quoted(value: &str) -> Option<&str> {
    Some(value.split_once('"')?.1.split_once('"')?.0)
}

struct Member {
    /// Manifest path relative to the workspace root.
    manifest: String,
    name: String,
    text: String,
}

/// The facade package, then every `members` entry of the root manifest.
fn members() -> Vec<Member> {
    let root = read("Cargo.toml");
    let members_line = root
        .split("members = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the root manifest lists its members");
    let dirs: Vec<&str> = members_line.split(',').filter_map(quoted).collect();
    std::iter::once("Cargo.toml".to_string())
        .chain(dirs.iter().map(|d| format!("{d}/Cargo.toml")))
        .map(|manifest| {
            let text = read(&manifest);
            let name = section(&text, "package")
                .iter()
                .find(|(k, _)| k == "name")
                .and_then(|(_, v)| quoted(v).map(str::to_string))
                .unwrap_or_else(|| panic!("{manifest}: no [package] name"));
            Member {
                manifest,
                name,
                text,
            }
        })
        .collect()
}

fn is_vendor(m: &Member) -> bool {
    m.manifest.starts_with("vendor/")
}

#[test]
fn every_dependency_edge_points_strictly_down() {
    let table = layer_table();
    let layer = |name: &str| table.iter().find(|(n, _)| n == name).map(|&(_, l)| l);
    let mut bad = Vec::new();
    for m in members().iter().filter(|m| !is_vendor(m)) {
        let Some(own) = layer(&m.name) else { continue };
        for (dep, _) in section(&m.text, "dependencies") {
            match layer(&dep) {
                Some(l) if l < own => {}
                Some(l) => bad.push(format!(
                    "{}: `{}` (layer {own}) depends on `{dep}` (layer {l})",
                    m.manifest, m.name
                )),
                None if dep.starts_with("mad") => bad.push(format!(
                    "{}: `{dep}` is not in the layering table",
                    m.manifest
                )),
                None => {}
            }
        }
    }
    assert!(
        bad.is_empty(),
        "edges must point strictly downward:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_layer_table_lists_exactly_the_workspace_members() {
    let mut table: Vec<String> = layer_table().into_iter().map(|(n, _)| n).collect();
    let mut names: Vec<String> = members()
        .into_iter()
        .filter(|m| !is_vendor(m))
        .map(|m| m.name)
        .collect();
    table.sort();
    names.sort();
    assert_eq!(
        table, names,
        "ARCHITECTURE.md layering table vs workspace members"
    );
    // and no crate directory sits outside the workspace
    let crates = fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"))
        .expect("crates/ is readable");
    let manifests: Vec<String> = members().into_iter().map(|m| m.manifest).collect();
    for dir in crates {
        let dir = dir.expect("crates/ entry").file_name();
        let manifest = format!("crates/{}/Cargo.toml", dir.to_string_lossy());
        assert!(
            manifests.contains(&manifest),
            "{manifest} is not a workspace member"
        );
    }
}

#[test]
fn default_members_are_the_facade_and_every_member() {
    let root = read("Cargo.toml");
    let listed = |key: &str| -> Vec<String> {
        let rest = root
            .split(&format!("\n{key} = ["))
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .unwrap_or_else(|| panic!("the root manifest has no `{key}` list"));
        rest.split(',')
            .filter_map(quoted)
            .map(str::to_string)
            .collect()
    };
    let expected: Vec<String> = std::iter::once(".".to_string())
        .chain(listed("members"))
        .collect();
    assert_eq!(
        listed("default-members"),
        expected,
        "`default-members` must list the facade and every member, so the \
         plain `cargo test` runs every crate's tests"
    );
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = read("Cargo.toml");
    assert!(
        section(&root, "workspace.lints.rust")
            .contains(&("unsafe_code".into(), "\"forbid\"".into())),
        "the root manifest must set `unsafe_code = \"forbid\"` in [workspace.lints.rust]"
    );
    let missing: Vec<String> = members()
        .into_iter()
        .filter(|m| !section(&m.text, "lints").contains(&("workspace".into(), "true".into())))
        .map(|m| m.manifest)
        .collect();
    assert!(
        missing.is_empty(),
        "missing `[lints] workspace = true`: {missing:?}"
    );
}
