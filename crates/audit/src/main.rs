//! `sec-audit` — the workspace invariant auditor binary.
//!
//! ```text
//! sec-audit check [--root DIR] [--report FILE]
//! ```
//!
//! `check` (the default) scans the configured source roots and exits
//! nonzero on violations. `--report` additionally writes the markdown
//! inventory (lock hierarchy, atomic orderings, unsafe sites, open
//! violations).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sec_audit::{load, report, run, CONFIG_FILE};

struct Args {
    root: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        report: None,
    };
    let mut iter = std::env::args().skip(1).peekable();
    let mut saw_command = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" if !saw_command => saw_command = true,
            "--root" => {
                args.root = Some(PathBuf::from(
                    iter.next().ok_or("--root needs a directory argument")?,
                ));
            }
            "--report" => {
                args.report = Some(PathBuf::from(
                    iter.next().ok_or("--report needs a file argument")?,
                ));
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: sec-audit check [--root DIR] [--report FILE]\n\
                     The root defaults to the nearest ancestor directory containing {CONFIG_FILE}."
                ));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let start = args
        .root
        .clone()
        .unwrap_or_else(|| std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    let root = match sec_audit::find_root(&start) {
        Some(root) => root,
        None => {
            eprintln!("sec-audit: no {CONFIG_FILE} at or above {}", start.display());
            return ExitCode::from(2);
        }
    };
    let (config, files) = match load(&root) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("sec-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config, &files);

    print!("{}", report::render_text(&outcome));

    if let Some(report_path) = &args.report {
        let md = report::render_markdown(&config, &outcome);
        if let Err(e) = std::fs::write(report_path, md) {
            eprintln!("sec-audit: writing {}: {e}", report_path.display());
            return ExitCode::from(2);
        }
        println!("report written to {}", report_path.display());
    }

    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
