//! `run.sh` without `--workload`: every workload, each in a child
//! process of its own (so `peak_rss_mb` and the allocator start clean),
//! then the summary, the reconciliations, the result file and — with
//! `--repeat` — the comparison of back-to-back sets against the bounds.

use crate::json;
use crate::manifest::{Workload, END_TO_END, PER_LAYER};
use crate::report::{format_value, RunResult};
use crate::Args;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

/// One workload's results within a set.
struct Entry {
    workload: Workload,
    end_to_end: RunResult,
    per_layer: Option<RunResult>,
}

type Set = Vec<Entry>;

/// Run one child to completion, echoing its output, and parse the
/// result object on its last line.
fn child(workload: Workload, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read the child's output: {e}"))?;
        if !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    let status = proc
        .wait()
        .map_err(|e| format!("cannot wait for the child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}) exited with {status}",
            workload.name(),
            u8::from(trace)
        ));
    }
    RunResult::from_line(&last)
}

fn run_set(args: &Args) -> Result<Set, String> {
    Workload::ALL
        .into_iter()
        .map(|workload| {
            println!("== {} ==", workload.name());
            Ok(Entry {
                workload,
                end_to_end: child(workload, args, false)?,
                per_layer: args
                    .trace
                    .then(|| child(workload, args, true))
                    .transpose()?,
            })
        })
        .collect()
}

fn print_summary(set: &Set) {
    println!("== end to end ==");
    print!("{:<26}", "");
    for e in set {
        print!("{:>16}", e.workload.name());
    }
    println!();
    for m in END_TO_END {
        print!("{:<26}", format!("{} [{}]", m.name, m.unit));
        for e in set {
            print!(
                "{:>16}",
                format_value(e.end_to_end.value(m.name).unwrap_or(f64::NAN))
            );
        }
        println!();
    }
    print!("{:<26}", "failed / attempted");
    for e in set {
        print!(
            "{:>16}",
            format!("{}/{}", e.end_to_end.failed, e.end_to_end.attempted)
        );
    }
    println!();
    if set.iter().all(|e| e.per_layer.is_none()) {
        return;
    }
    println!("== per layer (0: the workload does not exercise the row) ==");
    for r in PER_LAYER {
        print!("{:<34}", format!("{} [{}]", r.name, r.unit));
        for e in set {
            let v = e.per_layer.as_ref().and_then(|p| p.value(r.name));
            print!("{:>14}", v.map_or("-".into(), format_value));
        }
        println!("   -> {}", r.moves);
    }
}

/// Target for every reconciliation.
const TOLERANCE: f64 = 0.15;

fn closes(what: &str, measured: f64, modelled: f64) {
    let gap = (modelled - measured) / measured;
    println!(
        "   {what}: measured {measured:.3}, ledger {modelled:.3}: gap {:+.1}% ({} the {:.0}% target)",
        100.0 * gap,
        if gap.abs() <= TOLERANCE { "within" } else { "OUTSIDE" },
        100.0 * TOLERANCE
    );
}

/// Do the ledger rows add up to the end-to-end figures?
///
/// Each sum is first held against the CPU per op the trace child's own
/// untraced slices saw (`bench.own_cpu_us_per_op`): same process, same
/// minute, so the gap is the ledger's. Then that figure, which is as
/// measured, is held against the `--trace 0` child's, which is at
/// nominal box speed: that gap is how far the box was from nominal speed
/// while the trace child ran. Sums use the mean rows where a layer has
/// both, since the work per cold resolution is skewed (mean ~1.5x the
/// median) and only means add up.
fn print_reconciliations(set: &Set) {
    let entry = |w: Workload| set.iter().find(|e| e.workload == w);
    let e2e = |w: Workload, name: &str| entry(w).and_then(|e| e.end_to_end.value(name));
    let row = |w: Workload, name: &str| {
        entry(w)
            .and_then(|e| e.per_layer.as_ref())
            .and_then(|p| p.value(name))
    };
    println!("== reconciliation ==");
    let drift = |w: Workload| {
        if let (Some(own), Some(cpu)) = (row(w, "bench.own_cpu_us_per_op"), e2e(w, "cpu_us_per_op"))
        {
            closes(
                "the box against nominal speed (trace 0 child's figure vs trace 1 child's own slices as measured)",
                cpu,
                own,
            );
        }
    };

    for w in [Workload::ServeHot, Workload::ServeTcp] {
        let last = if w == Workload::ServeTcp {
            "wire.encode_response_ns"
        } else {
            "server.encode_udp_ns"
        };
        if let (
            Some(own),
            Some(floor),
            Some(classify),
            Some(answer),
            Some(encode),
            Some(residual),
        ) = (
            row(w, "bench.own_cpu_us_per_op"),
            row(w, "bench.echo_floor_cpu_us_per_op"),
            row(w, "server.classify_ns"),
            row(w, "server.answer_ns"),
            row(w, last),
            row(w, "server.socket_residual_us"),
        ) {
            let pipeline = (classify + answer + encode) / 1e3;
            println!(
                "{}: CPU/op = echo floor {floor:.2} + pipeline rows {pipeline:.2} + socket residual {residual:.2} us (residual is {:.0}% of the total)",
                w.name(),
                100.0 * residual / own
            );
            closes("ledger sum", own, floor + pipeline + residual);
            drift(w);
        }
    }

    let w = Workload::ScanWild;
    if let (Some(own), Some(miss), Some(engine), Some(query), Some(residual)) = (
        row(w, "bench.own_cpu_us_per_op"),
        row(w, "resolver.resolve_miss_mean_ns"),
        row(w, "resolver.engine_self_ns"),
        row(w, "netsim.query_mean_ns"),
        row(w, "scan.pipeline_residual_us"),
    ) {
        let per_miss = (miss - engine) / query;
        println!(
            "scan_wild: CPU/domain = {per_miss:.3} upstream queries x netsim.query {:.2} + engine self {:.2} + pipeline residual {residual:.2} us",
            query / 1e3,
            engine / 1e3
        );
        closes("ledger sum", own, miss / 1e3 + residual);
        drift(w);
    }

    let (hot, zipf) = (Workload::ServeHot, Workload::ServeZipf);
    if let (Some(own), Some(hot_cpu), Some(hit_share), Some(miss), Some(floor), Some(residual)) = (
        row(zipf, "bench.own_cpu_us_per_op"),
        row(hot, "bench.own_cpu_us_per_op"),
        row(zipf, "resolver.l2_hit_share"),
        row(zipf, "resolver.resolve_miss_mean_ns"),
        row(hot, "bench.echo_floor_cpu_us_per_op"),
        row(hot, "server.socket_residual_us"),
    ) {
        let socket = floor + residual;
        let modelled = hit_share * hot_cpu + (1.0 - hit_share) * (miss / 1e3 + socket);
        println!(
            "serve_zipf: CPU/op = hit share {hit_share:.3} x hot cost {hot_cpu:.2} + miss share {:.3} x (resolve_miss {:.2} + hot socket cost {socket:.2}) us",
            1.0 - hit_share,
            miss / 1e3
        );
        closes("prediction from serve_hot's rows", own, modelled);
        drift(zipf);
    }
}

/// Compare two back-to-back sets: every end-to-end metric within its
/// bound, the deterministic ones exactly. Returns the number of
/// pairings outside.
fn compare_sets(first: &Set, second: &Set) -> usize {
    println!("== repeat: second set against the first ==");
    let mut outside = 0;
    for (a, b) in first.iter().zip(second) {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.value(m.name), b.end_to_end.value(m.name))
            else {
                continue;
            };
            let exact = matches!(m.name, "upstream_queries_per_op" | "answered_share");
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            let ok = if exact { x == y } else { diff <= m.bound };
            outside += usize::from(!ok);
            println!(
                "{:<11} {:<24} {:>14} {:>14}  {:>6.2}% of {:>5.1}%{}",
                a.workload.name(),
                m.name,
                format_value(x),
                format_value(y),
                100.0 * diff,
                if exact { 0.0 } else { 100.0 * m.bound },
                if ok { "" } else { "  OUTSIDE" }
            );
        }
        if let (Some(p), Some(q)) = (&a.per_layer, &b.per_layer) {
            for r in PER_LAYER.iter().filter(|r| r.name.contains("allocs")) {
                let (x, y) = (p.value(r.name), q.value(r.name));
                if x != y {
                    outside += 1;
                    println!(
                        "{:<11} {:<24} {x:?} != {y:?}  OUTSIDE",
                        a.workload.name(),
                        r.name
                    );
                }
            }
        }
    }
    println!(
        "{} pairings outside their bound{}",
        outside,
        if outside == 0 {
            ": the two sets agree"
        } else {
            ""
        }
    );
    outside
}

fn result_json(args: &Args, sets: &[Set]) -> String {
    let run = |r: &RunResult| r.to_line();
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let entries: Vec<String> = set
                .iter()
                .map(|e| {
                    format!(
                        "    {}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
                        json::quote(e.workload.name()),
                        run(&e.end_to_end),
                        e.per_layer.as_ref().map_or("null".into(), run)
                    )
                })
                .collect();
            format!("  {{\n{}\n  }}", entries.join(",\n"))
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"sets\": [\n{}\n]}}\n",
        args.seed,
        args.seconds,
        args.smoke,
        sets.join(",\n")
    )
}

pub fn run(args: &Args) -> ExitCode {
    let mut sets: Vec<Set> = Vec::new();
    for n in 0..args.repeat {
        if args.repeat > 1 {
            println!("==== set {} of {} ====", n + 1, args.repeat);
        }
        match run_set(args) {
            Ok(set) => {
                print_summary(&set);
                if args.trace {
                    print_reconciliations(&set);
                }
                sets.push(set);
            }
            Err(e) => {
                eprintln!("ede-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut bad = 0;
    for set in &sets {
        for e in set {
            for r in std::iter::once(&e.end_to_end).chain(&e.per_layer) {
                if !r.correct {
                    bad += 1;
                    println!(
                        "{}: NOT CORRECT ({} of {} failed)",
                        e.workload.name(),
                        r.failed,
                        r.attempted
                    );
                }
            }
        }
    }
    for pair in sets.windows(2) {
        bad += compare_sets(&pair[0], &pair[1]);
    }

    let path = args.out.join("result.json");
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, result_json(args, &sets)));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("ede-benchmark: cannot write {}: {e}", path.display());
            bad += 1;
        }
    }
    println!("== end-to-end metrics ==");
    for m in END_TO_END {
        println!(
            "{} [{}], {} is better, may worsen {:.1}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.what
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MetricSet;

    fn entry(workload: Workload, throughput: f64, upstream: f64) -> Entry {
        let mut set = MetricSet::end_to_end();
        for m in END_TO_END {
            set.set(m.name, 1.0);
        }
        set.set("throughput_ops_s", throughput);
        set.set("upstream_queries_per_op", upstream);
        Entry {
            workload,
            end_to_end: RunResult {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: set.finish(),
            },
            per_layer: None,
        }
    }

    #[test]
    fn repeat_comparison_applies_bounds_and_exactness() {
        let first = vec![entry(Workload::ServeHot, 100_000.0, 0.5)];
        assert_eq!(
            compare_sets(&first, &vec![entry(Workload::ServeHot, 90_000.0, 0.5)]),
            0
        );
        assert_eq!(
            compare_sets(&first, &vec![entry(Workload::ServeHot, 60_000.0, 0.5)]),
            1
        );
        // A deterministic count must repeat exactly.
        assert_eq!(
            compare_sets(&first, &vec![entry(Workload::ServeHot, 100_000.0, 0.5001)]),
            1
        );
    }

    #[test]
    fn result_file_is_json() {
        let args = crate::parse_args(&[]).unwrap();
        let sets = vec![vec![entry(Workload::ScanWild, 1.0, 2.0)]];
        let doc = json::parse(&result_json(&args, &sets)).unwrap();
        let set = &doc.get("sets").unwrap().as_arr().unwrap()[0];
        assert!(set.get("scan_wild").unwrap().get("end_to_end").is_some());
        assert_eq!(
            set.get("scan_wild").unwrap().get("per_layer"),
            Some(&json::Value::Null)
        );
    }
}
