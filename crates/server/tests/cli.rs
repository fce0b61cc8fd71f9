//! `repro-serve`'s command line, driven through the built binary: a
//! flag it does not know, or a value it cannot use, must stop the run
//! with a usage line and exit code 2 — never serve the default
//! configuration in silence.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn repro_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro-serve"))
        .args(args)
        .output()
        .expect("repro-serve runs")
}

#[test]
fn unknown_flags_and_bad_values_exit_2_with_usage() {
    for args in [
        &["--wokers", "2"][..], // mistyped flag
        &["--workers"],         // value missing
        &["--bind"],            // value missing
        &["--vendor"],          // value missing
        &["--workers", "x"],    // value unparsable
        &["--workers", "0"],    // no worker to serve with
        &["--vendor", "bind8"], // unknown vendor
        &["5300"],              // no positional arguments
        &["--smoke"],           // retired: the serving tests hold its legs
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
    for flag in ["--bind", "--vendor", "--workers"] {
        assert!(stdout.contains(flag), "{flag} missing from: {stdout}");
    }
}

/// `--vendor` takes the short names `--help` lists, not only the
/// display names (one of which contains a space). The foreground
/// server prints its `serving testbed as …` line once its sockets are
/// bound, so reading that line is the whole wait.
#[test]
fn vendor_short_name_is_accepted() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro-serve"))
        .args(["--bind", "127.0.0.1:0", "--vendor", "cloudflare"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro-serve starts");
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().unwrap()).read_line(&mut line);
    // A server that died before its line fails the assertion below,
    // which shows what it printed.
    let _ = child.kill();
    child.wait().unwrap();
    read.unwrap();
    assert!(
        line.starts_with("serving testbed as Cloudflare DNS on udp 127.0.0.1:"),
        "{line}"
    );
    let help = repro_serve(&["--help"]);
    assert!(String::from_utf8_lossy(&help.stdout).contains("cloudflare"));
}
