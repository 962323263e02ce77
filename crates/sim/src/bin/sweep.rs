//! `sim-sweep` — run the simulation properties over many seeds and report
//! the ones that fail.
//!
//! Built for the nightly CI sweep: exit code 0 when every seed passes,
//! 1 when any fails (the failing seeds are printed and optionally written
//! to a file for upload as an artifact).
//!
//! ```text
//! sim-sweep [--seeds N] [--root SEED] [--out PATH]
//! ```
//!
//! * `--seeds N` — number of seeds per property (default 200).
//! * `--root SEED` — derive the per-run seeds from this root instead of
//!   fresh entropy (decimal or 0x-hex), making the whole sweep replayable.
//! * `--out PATH` — append one `<property> SEC_SIM_SEED=0x…` line per
//!   failure to `PATH`.
//!
//! With `SEC_SIM_SEED` set, `--seeds` and `--root` are ignored and every
//! property runs once on that seed: the replay of a failure this sweep
//! reported, with the command it printed.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sec_engine::PlacementStrategy;
use sec_sim::harness::SimOptions;
use sec_sim::rng::SimRng;
use sec_sim::{seed, walk, SEED_ENV};
use sec_versioning::EncodingStrategy;

/// One named property the sweep drives: a seed-derived schedule over a sim
/// built from `options`, panicking on divergence.
struct Property {
    name: &'static str,
    options: fn() -> SimOptions,
}

const SCHEDULE_STEPS: usize = 60;

/// The command that replays one seed of this sweep.
const REPLAY_COMMAND: &str = "cargo run --release -p sec-sim --bin sim-sweep";

/// `engine-*` properties run one shard holding one object; `cluster-*`
/// properties run 2 shards holding 3 objects.
fn cluster(n: usize, k: usize, object_len: usize) -> SimOptions {
    SimOptions {
        shards: 2,
        objects: 3,
        ..SimOptions::strict(n, k, object_len)
    }
}

const PROPERTIES: &[Property] = &[
    Property {
        name: "engine-colocated-strict",
        options: || SimOptions::strict(5, 3, 64),
    },
    Property {
        name: "engine-dispersed-strict",
        options: || SimOptions {
            placement: PlacementStrategy::Dispersed,
            ..SimOptions::strict(5, 3, 48)
        },
    },
    Property {
        name: "engine-optimized-cached",
        options: || SimOptions {
            encoding: EncodingStrategy::OptimizedSec,
            cache_capacity: 4,
            checkpoint_spacing: 2,
            ..SimOptions::strict(6, 3, 64)
        },
    },
    Property {
        name: "engine-checkpointed-strict",
        options: || SimOptions {
            checkpoint_spacing: 2,
            ..SimOptions::strict(5, 3, 64)
        },
    },
    Property {
        name: "engine-reversed-strict",
        options: || SimOptions {
            encoding: EncodingStrategy::ReversedSec,
            ..SimOptions::strict(5, 3, 64)
        },
    },
    Property {
        name: "engine-read-faults",
        options: || SimOptions {
            read_fault_percent: 10,
            rebuild_abort_percent: 10,
            ..SimOptions::strict(5, 3, 64)
        },
    },
    Property {
        name: "cluster-colocated-strict",
        options: || cluster(5, 3, 48),
    },
    Property {
        name: "cluster-dispersed-strict",
        options: || SimOptions {
            placement: PlacementStrategy::Dispersed,
            ..cluster(5, 3, 48)
        },
    },
    Property {
        name: "cluster-read-faults",
        options: || SimOptions {
            read_fault_percent: 10,
            rebuild_abort_percent: 10,
            ..cluster(5, 3, 48)
        },
    },
    Property {
        name: "cluster-cached-checkpointed",
        options: || SimOptions {
            cache_capacity: 3,
            checkpoint_spacing: 2,
            ..cluster(5, 3, 48)
        },
    },
];

struct Args {
    seeds: usize,
    root: Option<u64>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 200,
        root: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad --seeds value {v:?}"))?;
            }
            "--root" => {
                let v = it.next().ok_or("--root needs a value")?;
                args.root = Some(seed::parse(&v).ok_or_else(|| format!("bad --root value {v:?}"))?);
            }
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => {
                return Err("usage: sim-sweep [--seeds N] [--root SEED] [--out PATH]".to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let pinned = seed::from_env();
    let root = args.root.unwrap_or_else(seed::entropy);
    match pinned {
        Some(pinned) => println!("sim-sweep: replaying {SEED_ENV}={pinned:#018x} once per property"),
        None => println!(
            "sim-sweep: {} seeds per property from root {root:#018x}",
            args.seeds
        ),
    }

    // Failing runs may leave a panic trace; keep the default hook so the
    // assertion text (which names the diverged invariant) stays visible.
    let mut failures: Vec<(String, u64)> = Vec::new();
    for property in PROPERTIES {
        let seeds: Vec<u64> = match pinned {
            Some(pinned) => vec![pinned],
            None => {
                let mut rng = SimRng::new(root ^ seed::from_label(property.name));
                (0..args.seeds).map(|_| rng.next_u64()).collect()
            }
        };
        let mut failed_here = 0usize;
        for seed in seeds {
            if catch_unwind(AssertUnwindSafe(|| {
                walk((property.options)(), seed, SCHEDULE_STEPS)
            }))
            .is_err()
            {
                eprintln!(
                    "sim-sweep: {} FAILED — replay with {SEED_ENV}={seed:#018x} {REPLAY_COMMAND}",
                    property.name
                );
                failures.push((property.name.to_string(), seed));
                failed_here += 1;
                if failed_here >= 5 {
                    eprintln!("sim-sweep: {}: 5 failures, moving on", property.name);
                    break;
                }
            }
        }
        println!(
            "sim-sweep: {:<28} {}",
            property.name,
            if failed_here == 0 { "ok" } else { "FAILED" }
        );
    }

    if let Some(path) = &args.out {
        let mut lines = String::new();
        for (name, seed) in &failures {
            lines.push_str(&format!("{name} {SEED_ENV}={seed:#018x}\n"));
        }
        if let Err(e) = std::fs::File::create(path).and_then(|mut f| f.write_all(lines.as_bytes())) {
            eprintln!("sim-sweep: could not write {path}: {e}");
        }
    }

    if failures.is_empty() {
        println!("sim-sweep: all properties passed");
    } else {
        println!("sim-sweep: {} failing seed(s)", failures.len());
        std::process::exit(1);
    }
}
