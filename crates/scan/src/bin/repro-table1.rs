//! Regenerate Table 1: the registered Extended DNS Error codes.
fn main() {
    // Nothing to configure: an argument is a mistake, not a request.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("repro-table1: bad argument {arg:?}\nusage: repro-table1");
        std::process::exit(2);
    }
    print!("{}", ede_scan::report::table1());
}
