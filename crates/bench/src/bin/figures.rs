//! Regenerate Fig. 1–5 and the in-text examples (see `mad_bench::figures`).
fn main() {
    mad_bench::figures::run_all();
}
