//! The SEC benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! sec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sec-benchmark --all [--seed <n>] [--seconds <s>]
//! sec-benchmark --selfcheck [--seed <n>] [--seconds <s>]
//! sec-benchmark --smoke
//! sec-benchmark --print-benchmark-json > ../BENCHMARK.json
//! ```
//!
//! The first form runs one workload in this process and is what the
//! `command` of `BENCHMARK.json` resolves to; the others run each workload in
//! a child process of its own. Every form prints `workload metric value unit`
//! lines; the first ends with the one JSON object the driver reads.

mod client;
mod gen;
mod ladder;
mod micro;
mod report;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use run::Outcome;
use spec::{Spec, END_TO_END, WORKLOADS};
use stats::{median, percentile, quiet_quartile, ratio, window_spread};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    all: bool,
    selfcheck: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} wants {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other}")),
                }
            }
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The 13 end-to-end metrics as this run saw them; a metric the workload does
/// not exercise is absent.
fn end_to_end(out: &mut Outcome) -> Vec<(&'static str, f64)> {
    let mut m = vec![
        ("setup_s", quiet_quartile(&out.setup_s, false)),
        ("get_ops_s", quiet_quartile(&out.get_ops_s, true)),
        ("get_p50_us", quiet_quartile(&out.get_p50_us, false)),
        ("get_p99_us", quiet_quartile(&out.get_p99_us, false)),
        ("cpu_us_per_op", quiet_quartile(&out.cpu_us_per_op, false)),
        ("peak_rss_mb", sys::peak_rss_mb()),
        ("stored_bytes_per_user_byte", out.stored_bytes_per_user_byte),
        (
            "block_reads_per_get",
            ratio(out.serial_block_reads as f64, out.serial_gets as f64),
        ),
        ("fail_ratio", ratio(out.failed as f64, out.attempted as f64)),
    ];
    if !out.prefix_ms.is_empty() {
        m.push(("prefix_p50_ms", median(&out.prefix_ms)));
    }
    if !out.append_ops_s.is_empty() {
        m.push(("append_ops_s", quiet_quartile(&out.append_ops_s, true)));
        m.push(("append_p50_us", stats::p50_p99_us(&mut out.append_ns).0));
    }
    if !out.repair_mb_s.is_empty() {
        m.push(("repair_mb_s", quiet_quartile(&out.repair_mb_s, true)));
    }
    m
}

fn lookup_in(values: &[(&'static str, f64)], name: &str) -> f64 {
    values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
}

/// Runs one workload in this process and prints its result.
fn run_one(spec: &'static Spec, seed: u64, seconds: f64, traced: bool) -> io::Result<bool> {
    let pinned = sys::pin_to_one_cpu();
    let scale = spec::Scale::new(spec, seconds, traced);
    let (mut out, data) = run::run(spec, &scale, seed)?;
    let mut values = end_to_end(&mut out);
    let mut problems = Vec::new();
    if out.failed > 0 {
        problems.push(format!(
            "{} of {} replies failed verification",
            out.failed, out.attempted
        ));
    }
    if let Some(share) = out.client_cpu_share.iter().find(|&&s| s >= 0.5) {
        problems.push(format!(
            "the generator took {share:.2} of the CPU in a pipelined phase"
        ));
    }
    if spec.kind == spec::Kind::HotGet && out.serial_block_reads != 0 {
        problems.push(format!(
            "hot_get read {} blocks after warm-up",
            out.serial_block_reads
        ));
    }
    if traced {
        let mut fg: Vec<f64> = out.repair_fg_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        fg.sort_by(f64::total_cmp);
        values.push(("engine.repair_blocks", out.repair_blocks as f64));
        values.push(("engine.repair_fg_p99_us", percentile(&fg, 99.0)));
        values.push(("workload.client_cpu_share", median(&out.client_cpu_share)));
        values.push((
            "workload.gen_us_per_op",
            ratio(out.gen_s * 1e6, out.gen_ops as f64),
        ));
        values.push(("workload.window_spread", window_spread(&out.get_ops_s)));
        let path = out_dir().join(format!("trace_{}.jsonl", spec.name));
        match ladder::run(
            spec,
            &data,
            seed,
            scale.trace_sample,
            lookup_in(&values, "get_p50_us"),
            &path,
        ) {
            Ok(layers) => values.extend(layers),
            Err(e) => problems.push(e.to_string()),
        }
    }
    println!(
        "# workload {} seed {seed} seconds {seconds} trace {}",
        spec.name,
        u8::from(traced)
    );
    println!("# why {}", spec.why);
    println!("# pinned_cpu {}", pinned.map_or("none".into(), |c| c.to_string()));
    println!("# sequence_hash {:016x}", out.sequence_hash);
    println!(
        "# get_latency_samples {} epochs {}",
        out.serial_gets, scale.epochs
    );
    println!("# get_ops_s_by_window {:.0?}", out.get_ops_s);
    println!("# get_p50_us_by_epoch {:.2?}", out.get_p50_us);
    println!("# cpu_us_per_op_by_window {:.3?}", out.cpu_us_per_op);
    println!("# setup_s_by_epoch {:.4?}", out.setup_s);
    for p in &problems {
        println!("# FAILED {p}");
    }
    let reported: Vec<&spec::Metric> = if traced {
        spec::traced_metrics().collect()
    } else {
        END_TO_END.iter().collect()
    };
    if traced {
        // Every traced metric, zero where this workload does not exercise it.
        for m in &reported {
            println!(
                "{} {} {} {}",
                spec.name,
                m.name,
                lookup_in(&values, m.name),
                m.unit
            );
        }
    } else {
        // The gated metrics and the end-to-end ones that carry no bound.
        for (name, value) in &values {
            let unit = spec::find_metric(name).map_or("", |m| m.unit);
            println!("{} {name} {value} {unit}", spec.name);
        }
    }
    let correct = problems.is_empty();
    let metrics: Vec<(&str, f64, &str)> = reported
        .iter()
        .map(|m| (m.name, lookup_in(&values, m.name), m.unit))
        .collect();
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sec-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let result = if args.smoke {
        report::run_all(seed, args.seconds.unwrap_or(1.0))
    } else if args.selfcheck {
        report::selfcheck(seed, args.seconds.unwrap_or(DEFAULT_SECONDS))
    } else if args.all {
        report::run_all(seed, args.seconds.unwrap_or(DEFAULT_SECONDS))
    } else {
        let Some(spec) = args.workload.as_deref().and_then(spec::workload) else {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("sec-benchmark: --workload wants one of {}", names.join(", "));
            return ExitCode::from(2);
        };
        run_one(spec, seed, args.seconds.unwrap_or(DEFAULT_SECONDS), args.trace)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sec-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
