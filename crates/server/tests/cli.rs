//! `repro-serve`'s command line, driven through the built binary: a
//! flag it does not know, or a value it cannot use, must stop the run
//! with a usage line and exit code 2 — never serve the default
//! configuration in silence.

use std::process::{Command, Output};

fn repro_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro-serve"))
        .args(args)
        .output()
        .expect("repro-serve runs")
}

#[test]
fn unknown_flags_and_bad_values_exit_2_with_usage() {
    for args in [
        &["--smoke", "--wokers", "2"][..], // mistyped flag
        &["--smoke", "--workers"],         // value missing
        &["--smoke", "--bind"],            // value missing
        &["--smoke", "--vendor"],          // value missing
        &["--smoke", "--workers", "x"],    // value unparsable
        &["--smoke", "--vendor", "bind8"], // unknown vendor
        &["--smoke", "5300"],              // no positional arguments
    ] {
        let out = repro_serve(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro-serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_every_flag_and_exits_0() {
    let out = repro_serve(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--bind", "--vendor", "--workers", "--smoke"] {
        assert!(stdout.contains(flag), "{flag} missing from: {stdout}");
    }
}

/// `--vendor` takes the short names `--help` lists, not only the
/// display names (one of which contains a space).
#[test]
fn vendor_short_name_is_accepted() {
    let out = repro_serve(&["--vendor", "cloudflare", "--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = repro_serve(&["--help"]);
    assert!(String::from_utf8_lossy(&help.stdout).contains("cloudflare"));
}
