//! Regenerate Table 2: the 63 testbed subdomains by group.
fn main() {
    // Nothing to configure: an argument is a mistake, not a request.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("repro-table2: bad argument {arg:?}\nusage: repro-table2");
        std::process::exit(2);
    }
    print!("{}", ede_scan::report::table2());
}
