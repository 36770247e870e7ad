//! The paper figures are deterministic: the `figures` binary (Fig. 1–5,
//! E6–E8, the B2 duplication table) must print `tests/golden/figures.txt`
//! byte for byte. Regenerate the golden only from a build of the parent
//! commit, never from the change under test.

use std::process::Command;

#[test]
fn figures_print_the_golden_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .output()
        .expect("run the figures binary");
    assert!(out.status.success(), "figures exited with {}", out.status);
    let golden = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/figures.txt"))
        .expect("read tests/golden/figures.txt");
    if out.stdout != golden {
        let first = out
            .stdout
            .iter()
            .zip(&golden)
            .position(|(a, b)| a != b)
            .unwrap_or(out.stdout.len().min(golden.len()));
        panic!(
            "figures output differs from tests/golden/figures.txt at byte {first} \
             ({} bytes printed, {} in the golden)",
            out.stdout.len(),
            golden.len()
        );
    }
}
