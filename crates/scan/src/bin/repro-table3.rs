//! Regenerate Table 3: per-subdomain configuration detail.
fn main() {
    // Nothing to configure: an argument is a mistake, not a request.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("repro-table3: bad argument {arg:?}\nusage: repro-table3");
        std::process::exit(2);
    }
    print!("{}", ede_scan::report::table3());
}
