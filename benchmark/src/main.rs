//! The repo's benchmark: four workloads, eight end-to-end metrics, and a
//! per-layer ledger taken by replay from outside the program. See
//! README.md for the definitions and `../BENCHMARK.json` for the
//! contract the driver reads.
//!
//! ```text
//! ede-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! ede-benchmark [--seed N] [--seconds S] [--trace] [--repeat K] [--smoke]
//!                                         every workload, each in a child
//! ede-benchmark --print-manifest          the text of BENCHMARK.json
//! ```

mod alloc;
mod fixtures;
mod inproc;
mod json;
mod ledger;
mod loadgen;
mod manifest;
mod procfs;
mod refload;
mod report;
mod rng;
mod sched;
mod spans;
mod stats;
mod suite;
mod workloads;

use fixtures::{Plan, DEFAULT_SEED, FULL_SECONDS};
use manifest::Workload;
use report::{describe, MetricSet, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Command line, shared by the single-run and the suite mode.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: u32,
    pub out: PathBuf,
    print_manifest: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.replace('_', "").parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: FULL_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        print_manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(&v).ok_or(format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or(format!("bad seconds {v} (1 to 600)"))?;
            }
            "--repeat" => {
                let v = value("a number")?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|r| (1..=10).contains(r))
                    .ok_or(format!("bad repeat {v} (1 to 10)"))?;
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run of one workload: the end-to-end pass (`--trace 0`) or the
/// replay pass (`--trace 1`). Prints every metric by name with its unit
/// and returns the result object.
fn single_run(workload: Workload, args: &Args) -> RunResult {
    let plan = Plan::new(workload, args.seed, args.seconds, args.smoke, args.trace);
    println!(
        "# {} seed {:#x} seconds {} trace {}{}: {} slices{}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" },
        plan.slices,
        if plan.ops > 0 {
            format!(" x {} ops, window {}", plan.ops, fixtures::WINDOW)
        } else {
            String::new()
        },
    );
    // Before anything is spawned: threads inherit CPU and policy.
    // `scan_wild` keeps both CPUs for its two workers.
    if workload != Workload::ScanWild {
        for note in sched::one_cpu_batch() {
            println!("# {note}");
        }
    }
    if args.trace {
        return ledger::run(workload, &plan, args);
    }

    let mut pass = workloads::run(workload, &plan, args.seed);
    workloads::check_answers(workload, &mut pass);
    for note in &pass.notes {
        println!("# {note}");
    }
    let list = |values: &[f64], digits: usize| {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
        format!(
            "{} (median {:.digits$}, IQR {:.1}%)",
            shown.join(" "),
            stats::median(values),
            stats::iqr_pct(values)
        )
    };
    let spread = |values: &[f64], digits: usize| {
        format!(
            "median {:.digits$} of {}, IQR {:.1}%",
            stats::median(values),
            values.len(),
            stats::iqr_pct(values)
        )
    };
    println!("# set-up s: {}", list(&pass.setups, 4));
    println!(
        "# slice calibration ops/s, as measured: {}",
        list(&pass.calib_throughputs(), 0)
    );
    println!(
        "# slice throughput_ops_s, as measured: {}",
        list(&pass.raw_throughputs(), 0)
    );
    println!(
        "# slice cpu_us_per_op, as measured: {}",
        list(&pass.raw_cpus_us_per_op(), 2)
    );
    println!(
        "# below and in the result: as ratios to the calibration segments either side, times the nominal calibration ({:.1} us per op, {:.1} us CPU per op, p50 {:.0} us, p99 {:.0} us)",
        pass.nominal.us_per_op, pass.nominal.cpu_us_per_op, pass.nominal.p50_us, pass.nominal.p99_us
    );
    println!("# slice throughput_ops_s: {}", list(&pass.throughputs(), 0));
    println!("# slice cpu_us_per_op: {}", list(&pass.cpus_us_per_op(), 2));
    let (p50, p99) = (pass.latencies_p50_us(), pass.latencies_p99_us());
    println!("# segment latency_p50_us: {}", spread(&p50, 1));
    println!("# segment latency_p99_us: {}", spread(&p99, 1));
    println!(
        "# latency samples: {} per segment; reported value: the median over slices (throughput, CPU) or segments (latency)",
        pass.latency_samples_per_segment()
    );
    println!(
        "# oracle compared {} ops with the in-process replay, {} mismatched",
        pass.oracle.compared, pass.oracle.mismatched
    );
    for example in &pass.oracle.examples {
        println!("# MISMATCH {example}");
    }
    if !pass.fresh.is_empty() {
        let p50 = workloads::fresh_latencies_us(&pass.fresh, 0.50);
        println!(
            "# fresh-connection p50 us: {} (row server.fresh_conn_p50_us under --trace 1)",
            list(&p50, 0)
        );
    }

    let mut set = MetricSet::end_to_end();
    set.set("setup_s", pass.setup_s());
    set.set("throughput_ops_s", pass.throughput_ops_s());
    set.set("cpu_us_per_op", pass.cpu_us_per_op());
    set.set("latency_p50_us", workloads::latency_us(&p50));
    set.set("latency_p99_us", workloads::latency_us(&p99));
    set.set("upstream_queries_per_op", pass.upstream_queries_per_op());
    set.set("answered_share", pass.answered_share());
    set.set("peak_rss_mb", pass.peak_rss_mb);
    RunResult {
        correct: pass.failed() == 0,
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics: set.finish(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ede-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", manifest::benchmark_json(manifest::RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    match args.workload {
        Some(workload) => {
            let result = single_run(workload, &args);
            for m in &result.metrics {
                println!("{}", describe(&m.name, m.value, &m.unit));
            }
            println!("{}", result.to_line());
            ExitCode::SUCCESS
        }
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "serve_zipf",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeZipf));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15, false));
        let a = parse(&[
            "--workload",
            "scan_wild",
            "--seed",
            "0xEDE2023",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, true));
    }

    #[test]
    fn suite_flags_parse_and_bad_input_is_refused() {
        let a = parse(&["--trace", "--repeat", "2", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(
            (a.repeat, a.seed, a.seconds),
            (2, DEFAULT_SEED, FULL_SECONDS)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
