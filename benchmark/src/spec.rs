//! What the benchmark runs and what it reports: the four workload shapes and
//! the two metric tables. `BENCHMARK.json` at the repository root names the
//! same workloads, metrics, units and bounds; a unit test keeps them in step.

use std::time::Duration;

/// Shards in every cluster.
pub const SHARDS: usize = 4;
/// Bytes rewritten inside each edited block of a new version.
pub const EDIT_BYTES: usize = 64;
/// Throughput windows per run, over all epochs.
pub const WINDOWS: usize = 40;
/// Zipf-by-recency exponent of version reads.
pub const ZIPF_S: f64 = 1.1;
/// Requests in the traced sample of a full-length run.
pub const TRACE_SAMPLE: usize = 2000;
/// A traced run shortens the untraced phases to this share, leaving room for
/// the layer ladder and the micro-measurements inside the same time cap.
pub const TRACE_PHASE_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotGet,
    ColdArchive,
    IngestMixed,
    DegradedRead,
}

/// One workload's shape. Counts marked "per second" are multiplied by
/// `--seconds`, so a run's request counts are fixed by its arguments and its
/// counters repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub n: usize,
    pub k: usize,
    pub systematic: bool,
    /// Checkpoint spacing (0 = none).
    pub checkpoint: usize,
    /// Delta-cache capacity per object (0 = off).
    pub cache: usize,
    pub objects: usize,
    /// Versions populated during set-up.
    pub versions: usize,
    pub object_len: usize,
    /// Pipelined depth per connection.
    pub depth: usize,
    /// Serial GETs per epoch per second of `--seconds`.
    pub serial_gets_per_s: f64,
    /// Whole-archive `PREFIX` requests per epoch in the serial phase.
    pub prefixes: usize,
    /// `ingest_mixed` only: versions each object grows to per epoch at
    /// `--seconds 20` (half in the serial phase, half pipelined).
    pub grow_to: usize,
    /// Epochs per run. Each builds a fresh cluster and server and runs one
    /// serial and one pipelined phase, so a run yields this many set-up
    /// times, latency percentiles and heap layouts to take a quartile over.
    /// Where set-up is cheap there is one epoch per throughput window; the
    /// two workloads that populate 48 MiB share each epoch among four.
    pub epochs: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        kind: Kind::HotGet,
        name: "hot_get",
        why: "Every read is an exact cache hit: parse, route, cache, reply-encode and socket do all the work, gf and erasure none.",
        n: 6,
        k: 3,
        systematic: false,
        checkpoint: 0,
        cache: 8,
        objects: 64,
        versions: 8,
        object_len: 3 * 1024,
        depth: 16,
        serial_gets_per_s: 750.0,
        prefixes: 0,
        grow_to: 0,
        epochs: 40,
    },
    Spec {
        kind: Kind::ColdArchive,
        name: "cold_archive",
        why: "Working set larger than the (disabled) cache: every read pays node reads, decode or 2-gamma sparse recovery, delta apply and a large reply; includes whole-archive PREFIX.",
        n: 12,
        k: 6,
        systematic: false,
        checkpoint: 8,
        cache: 0,
        objects: 8,
        versions: 32,
        object_len: 192 * 1024,
        depth: 2,
        serial_gets_per_s: 50.0,
        prefixes: 8,
        grow_to: 0,
        epochs: 10,
    },
    Spec {
        kind: Kind::IngestMixed,
        name: "ingest_mixed",
        why: "Writes beside reads on the same layers: encode, delta, checkpoint and cache pre-warm, with APPENDs breaking GET coalescing; a read gain bought with heavier appends shows here.",
        n: 6,
        k: 3,
        systematic: false,
        checkpoint: 8,
        cache: 4,
        objects: 64,
        versions: 1,
        object_len: 12 * 1024,
        depth: 8,
        serial_gets_per_s: 0.0,
        prefixes: 0,
        grow_to: 96,
        epochs: 30,
    },
    Spec {
        kind: Kind::DegradedRead,
        name: "degraded_read",
        why: "Systematic code under node failures: healthy reads are copies, failures force re-planning and real decodes, and repair competes with foreground reads.",
        n: 12,
        k: 6,
        systematic: true,
        checkpoint: 8,
        cache: 0,
        objects: 8,
        versions: 32,
        object_len: 192 * 1024,
        depth: 2,
        serial_gets_per_s: 50.0,
        prefixes: 0,
        grow_to: 0,
        epochs: 10,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn shard_len(&self) -> usize {
        self.object_len / self.k
    }

    /// Back-to-back throughput windows in each epoch's pipelined phase
    /// (`ingest_mixed` sends its scripts once, as one window).
    pub fn windows_per_epoch(&self) -> usize {
        (WINDOWS / self.epochs).max(1)
    }

    /// Nodes failed per shard in the fully degraded state: two systematic
    /// and the first parity node. `n - k` failures stay recoverable.
    pub fn failed_nodes(&self) -> [usize; 3] {
        [0, 1, self.k]
    }
}

/// Phase lengths of one epoch, derived from `--seconds` alone.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub epochs: usize,
    /// Requests in the traced sample.
    pub trace_sample: usize,
    pub serial_gets: usize,
    pub window: Duration,
    /// `ingest_mixed`: last version of the serial and of the pipelined phase.
    pub grow_serial: usize,
    pub grow_pipelined: usize,
}

impl Scale {
    pub fn new(spec: &Spec, seconds: f64, traced: bool) -> Scale {
        // Below five seconds (`--smoke`) a run also drops epochs and traced
        // requests, or set-up alone would outlast the measuring.
        let brief = (seconds / 5.0).min(1.0);
        let seconds = seconds * if traced { TRACE_PHASE_SHARE } else { 1.0 };
        // Three equal segments in `degraded_read`, and never fewer than the
        // 1000 samples a 99th percentile needs.
        let serial_gets = ((spec.serial_gets_per_s * seconds) as usize).max(1002) / 3 * 3;
        let grow = ((spec.grow_to as f64 * seconds / 20.0) as usize).clamp(4, spec.grow_to.max(4));
        Scale {
            epochs: ((spec.epochs as f64 * brief).round() as usize).max(2),
            trace_sample: ((TRACE_SAMPLE as f64 * brief) as usize).max(300),
            serial_gets,
            window: Duration::from_secs_f64(seconds / 80.0),
            grow_serial: 1 + (grow - 1) / 2,
            grow_pipelined: grow,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for a
    /// per-layer metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics every workload exercises, never zero: the gated set that
/// `--trace 0` reports and `BENCHMARK.json` lists under `end_to_end`.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("get_ops_s", "1/s", Higher, 0.25),
    e2e("get_p50_us", "us", Lower, 0.25),
    e2e("get_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.01),
];

/// End-to-end metrics only some workloads exercise, or that are zero when
/// all is well. The driver's contract wants every gated metric from every
/// workload and never zero, so these are reported with the per-layer set
/// (zero where a workload does not exercise them) and carry no bound.
pub const WORKLOAD_SPECIFIC: [Metric; 6] = [
    layer("prefix_p50_ms", "ms", Lower),
    layer("append_ops_s", "1/s", Higher),
    layer("append_p50_us", "us", Lower),
    layer("block_reads_per_get", "reads", Lower),
    layer("repair_mb_s", "MB/s", Higher),
    layer("fail_ratio", "ratio", Lower),
];

pub const PER_LAYER: [Metric; 41] = [
    layer("gf.mul_add_gb_s", "GB/s", Higher),
    layer("erasure.encode_mb_s", "MB/s", Higher),
    layer("erasure.decode_mb_s", "MB/s", Higher),
    layer("erasure.sparse_recover_mb_s", "MB/s", Higher),
    layer("erasure.plan_read_ns", "ns", Lower),
    layer("erasure.sparse_decode_share", "ratio", Higher),
    layer("erasure.self_us_per_get", "us", Lower),
    layer("versioning.retrieve_us", "us", Lower),
    layer("versioning.append_us", "us", Lower),
    layer("versioning.self_us_per_get", "us", Lower),
    layer("versioning.entries_per_get", "count", Lower),
    layer("versioning.model_read_ratio", "ratio", Lower),
    layer("versioning.cache_exact_ratio", "ratio", Higher),
    layer("versioning.cache_base_ratio", "ratio", Higher),
    layer("versioning.cache_miss_ratio", "ratio", Lower),
    layer("versioning.deltas_applied_per_get", "count", Lower),
    layer("versioning.checkpoints_written", "count", Lower),
    layer("store.block_reads", "count", Lower),
    layer("store.block_writes", "count", Lower),
    layer("store.failed_reads", "count", Lower),
    layer("store.node_read_skew", "ratio", Lower),
    layer("engine.call_us", "us", Lower),
    layer("engine.append_us", "us", Lower),
    layer("engine.prefix_ms", "ms", Lower),
    layer("engine.self_us_per_get", "us", Lower),
    layer("engine.batch_speedup", "ratio", Higher),
    layer("engine.repair_blocks", "count", Lower),
    layer("engine.repair_fg_p99_us", "us", Lower),
    layer("net.parse_ns_per_frame", "ns", Lower),
    layer("net.reply_encode_ns", "ns", Lower),
    layer("net.ping_rtt_us", "us", Lower),
    layer("net.self_us_per_op", "us", Lower),
    layer("net.reply_bytes_per_op", "bytes", Lower),
    layer("net.ctx_switches_per_op", "count", Lower),
    layer("net.allocs_per_op", "count", Lower),
    layer("net.alloc_bytes_per_op", "bytes", Lower),
    layer("workload.client_cpu_share", "ratio", Lower),
    layer("workload.gen_us_per_op", "us", Lower),
    layer("workload.window_spread", "ratio", Lower),
    layer("workload.trace_overhead_ratio", "ratio", Lower),
    layer("workload.request_reconcile_ratio", "ratio", Lower),
];

/// Everything a `--trace 1` run reports, in `BENCHMARK.json` order.
pub fn traced_metrics() -> impl Iterator<Item = &'static Metric> {
    WORKLOAD_SPECIFIC.iter().chain(PER_LAYER.iter())
}

/// Seconds one run measures for, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 20;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| -> String {
        let items: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        items.join(", ")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let better = |m: &Metric| if m.better == Lower { "lower" } else { "higher" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = traced_metrics()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&command),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

pub fn find_metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(traced_metrics()).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. `--print-benchmark-json` writes one from the other.
    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn scale_depends_only_on_seconds_and_keeps_three_equal_segments() {
        for w in &WORKLOADS {
            let a = Scale::new(w, 20.0, false);
            let b = Scale::new(w, 20.0, false);
            assert_eq!(a.serial_gets, b.serial_gets);
            assert_eq!(a.serial_gets % 3, 0);
            assert!(a.serial_gets >= 1000);
            assert!(Scale::new(w, 1.0, true).grow_pipelined >= 4);
        }
        let ingest = workload("ingest_mixed").unwrap();
        let s = Scale::new(ingest, 20.0, false);
        assert_eq!((s.grow_serial, s.grow_pipelined), (48, 96));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(traced_metrics())
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for m in END_TO_END.iter().chain(traced_metrics()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
