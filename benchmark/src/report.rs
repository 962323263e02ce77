//! Output: the driver's result line, and the modes that run every workload
//! in a child process each (`--all`, `--smoke`, `--selfcheck`) and write
//! `out/results.json` with the host fingerprint.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::process::Command;

use crate::spec::{self, Better, WORKLOADS};

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(*value),
            json_string(unit)
        );
    }
    s.push_str("}}");
    s
}

/// The `workload metric value unit` lines of one child run.
#[derive(Debug, Default)]
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    sequence_hash: String,
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> io::Result<ChildRun> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        ok: output.status.success(),
        ..ChildRun::default()
    };
    for line in stdout.lines() {
        if let Some(hash) = line.strip_prefix("# sequence_hash ") {
            run.sequence_hash = hash.to_owned();
        }
        if line.starts_with("# FAILED") {
            println!("{workload} {line}");
        }
        let fields: Vec<&str> = line.split(' ').collect();
        if let [w, name, value, ..] = fields[..] {
            if w == workload {
                if let Ok(v) = value.parse() {
                    run.metrics.insert(name.to_owned(), v);
                    println!("{line}");
                }
            }
        }
    }
    Ok(run)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
fn fingerprint(seed: u64, seconds: f64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let reactor = sec_net::sys::Poller::new().map_or("unknown", |p| p.backend_name());
    vec![
        ("cpu_model", cpu),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("gf_kernel", sec_gf::active_kernel().to_string()),
        ("reactor", reactor.to_owned()),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("git_commit", first_line_of("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
    ]
}

/// Every workload, untraced then traced, each in its own process; prints
/// every metric and writes `out/results.json`.
pub fn run_all(seed: u64, seconds: f64) -> io::Result<bool> {
    let mut ok = true;
    let mut json = String::from("{\n  \"fingerprint\": {");
    for (i, (key, value)) in fingerprint(seed, seconds).iter().enumerate() {
        println!("# {key} {value}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    {}: {}", json_string(key), json_string(value));
    }
    json.push_str("\n  },\n  \"workloads\": {");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let sep = if w == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    {}: {{", json_string(spec.name));
        for (t, traced) in [false, true].into_iter().enumerate() {
            let run = run_child(spec.name, seed, seconds, traced)?;
            ok &= run.ok;
            let key = if traced { "per_layer" } else { "end_to_end" };
            let sep = if t == 0 { "" } else { "," };
            let _ = write!(json, "{sep}\n      \"{key}\": {{");
            for (i, (name, value)) in run.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(json, "{sep}{}: {}", json_string(name), json_number(*value));
            }
            json.push('}');
        }
        json.push_str("\n    }");
    }
    json.push_str("\n  }\n}\n");
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("results.json"), json)?;
    println!("# wrote {}", dir.join("results.json").display());
    Ok(ok)
}

/// Metrics that count instead of timing: the same seed must give the same
/// value to the last digit.
const EXACT: [&str; 2] = ["block_reads_per_get", "stored_bytes_per_user_byte"];

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs every workload twice on `seed` and once on `seed + 1`, prints each
/// end-to-end metric's values, their relative difference and its bound, and
/// fails if a same-seed pair disagrees by more than the bound, if an exact
/// count or the request-sequence hash differs between the same-seed runs, or
/// if the other seed produced the same request sequence.
pub fn selfcheck(seed: u64, seconds: f64) -> io::Result<bool> {
    let mut ok = true;
    for spec in &WORKLOADS {
        let a = run_child(spec.name, seed, seconds, false)?;
        let b = run_child(spec.name, seed, seconds, false)?;
        let c = run_child(spec.name, seed + 1, seconds, false)?;
        ok &= a.ok && b.ok && c.ok;
        if a.sequence_hash != b.sequence_hash || a.sequence_hash == c.sequence_hash {
            println!(
                "# FAILED {} request sequences: {} {} {}",
                spec.name, a.sequence_hash, b.sequence_hash, c.sequence_hash
            );
            ok = false;
        }
        println!(
            "# selfcheck {}: metric first second other_seed difference bound verdict",
            spec.name
        );
        for (name, &first) in &a.metrics {
            let Some(metric) = spec::find_metric(name) else {
                continue;
            };
            let second = b.metrics.get(name).copied().unwrap_or(0.0);
            let other = c.metrics.get(name).copied().unwrap_or(0.0);
            let apart = worsening(metric.better, first, second).abs();
            let (bound, within) = if EXACT.contains(&name.as_str()) {
                ("exact".to_owned(), first == second)
            } else {
                match metric.bound {
                    Some(bound) => (bound.to_string(), apart <= bound),
                    None => ("none".to_owned(), true),
                }
            };
            let verdict = if within { "ok" } else { "FAILED" };
            println!(
                "{} {name} {first} {second} {other} {apart:.4} {bound} {verdict}",
                spec.name
            );
            ok &= within;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(false, 0, 0, &[("x", f64::NAN, "s")]).contains("\"attempted\": 1,"));
        assert!(result_line(false, 0, 0, &[("x", f64::NAN, "s")]).contains("\"value\": 0,"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.1);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }
}
