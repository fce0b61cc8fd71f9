//! Regenerate Table 4: resolve the whole testbed through all seven
//! vendor profiles and print the matrix plus agreement statistics.
fn main() {
    // Nothing to configure: an argument is a mistake, not a request.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("repro-table4: bad argument {arg:?}\nusage: repro-table4");
        std::process::exit(2);
    }
    print!("{}", ede_scan::report::table4());
}
