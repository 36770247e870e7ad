//! Print the claim tables B1, B3–B7 and E8 (see `mad_bench::tables`):
//! `tables [name …]`, where no name runs them all.
fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = mad_bench::tables::run(&names) {
        eprintln!("tables: {e}");
        std::process::exit(1);
    }
}
