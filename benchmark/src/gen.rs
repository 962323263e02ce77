//! The workload generator: seeded version histories and request scripts.
//! Everything the server sees is derived here from `--seed`; the same seed
//! gives byte-identical versions and request sequences.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sec_workload::{SparsityPmf, ZipfPmf};

use crate::spec::{Kind, Scale, Spec, EDIT_BYTES, SHARDS, ZIPF_S};

/// An independent generator for `(seed, stream, index)`, so that scripts of
/// different epochs and phases do not share draws.
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut mix = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let a = mix.next_u64();
    StdRng::seed_from_u64(a ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Every version of every object: `versions[object][version - 1]`.
#[derive(Debug)]
pub struct Data {
    pub versions: Vec<Vec<Vec<u8>>>,
}

/// How many of `objects` draws get each sparsity level `1..=k`, by largest
/// remainder: the PMF's shape without its sampling noise.
fn quotas(pmf: &SparsityPmf, objects: usize) -> Vec<usize> {
    let exact: Vec<f64> = pmf.probabilities().iter().map(|p| p * objects as f64).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = objects - quota.iter().sum::<usize>();
    for &level in &by_remainder[..short] {
        quota[level] += 1;
    }
    quota
}

impl Data {
    /// Version 1 is random bytes; each later version rewrites `EDIT_BYTES`
    /// bytes in `γ` distinct blocks of its predecessor. `γ` follows a
    /// truncated exponential(1.0) for even versions and a truncated
    /// Poisson(1.2) for odd ones, on `1..=k` (paper §V) — by quota, not by
    /// draw: at each version the objects share out the PMF's quotas, rotated
    /// by three places per version so that every object meets every level.
    /// Which deltas are sparse is thus part of the workload's frozen shape,
    /// and the seed decides the bytes, where in a block they change and the
    /// request order. With eight large objects, drawn sparsities would let the seed
    /// decide what the popular reads cost and so move the median by a tenth.
    pub fn generate(spec: &Spec, seed: u64, versions: usize) -> Data {
        let pmfs = [
            SparsityPmf::truncated_exponential(1.0, spec.k).expect("valid pmf parameters"),
            SparsityPmf::truncated_poisson(1.2, spec.k).expect("valid pmf parameters"),
        ];
        let levels: Vec<Vec<usize>> = pmfs
            .iter()
            .map(|pmf| {
                let quota = quotas(pmf, spec.objects);
                (0..spec.k)
                    .flat_map(|g| std::iter::repeat(g + 1).take(quota[g]))
                    .collect()
            })
            .collect();
        let gamma = |v: usize, object: usize| levels[v % 2][(object + 3 * v) % spec.objects];
        let block = spec.shard_len();
        let versions = (0..spec.objects)
            .map(|object| {
                let mut rng = rng_for(seed, 1, object as u64);
                let mut history: Vec<Vec<u8>> = Vec::with_capacity(versions);
                let mut first = vec![0u8; spec.object_len];
                for chunk in first.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
                }
                history.push(first);
                for v in 1..versions {
                    let mut next = history[v - 1].clone();
                    // Which blocks change is part of the frozen shape too: a
                    // sparse recovery tries supports in lexicographic order,
                    // so its cost depends on where the edited blocks sit.
                    let first_block = 5 * object + 7 * v;
                    for g in 0..gamma(v, object) {
                        let b = (first_block + g) % spec.k;
                        let at = b * block + rng.gen_range(0..block - EDIT_BYTES + 1);
                        for byte in &mut next[at..at + EDIT_BYTES] {
                            // `| 1` makes every edited byte differ, so the
                            // block-level sparsity is exactly `γ`.
                            *byte ^= rng.next_u64() as u8 | 1;
                        }
                    }
                    history.push(next);
                }
                history
            })
            .collect();
        Data { versions }
    }

    pub fn version(&self, object: u32, version: u32) -> &[u8] {
        &self.versions[object as usize][version as usize - 1]
    }

    pub fn prefix(&self, object: u32, version: u32) -> &[Vec<u8>] {
        &self.versions[object as usize][..version as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Prefix,
    Append,
    Fail,
    Ping,
}

/// One request: `a`/`b` are object/version, or shard/node for `Fail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub op: Op,
    pub a: u32,
    pub b: u32,
}

/// An ordered request sequence with its frame header lines pre-encoded into
/// one buffer (an `APPEND`'s payload is sent from [`Data`], not copied here).
#[derive(Debug, Default)]
pub struct Script {
    pub reqs: Vec<Req>,
    heads: Vec<u8>,
    ends: Vec<u32>,
}

impl Script {
    pub fn push(&mut self, op: Op, a: u32, b: u32, data: &Data) {
        use std::io::Write as _;
        let h = &mut self.heads;
        // Writing to a Vec cannot fail.
        let _ = match op {
            Op::Get => write!(h, "GET {a} {b}\r\n"),
            Op::Prefix => write!(h, "PREFIX {a} {b}\r\n"),
            Op::Append => write!(h, "APPEND {a} {}\r\n", data.version(a, b).len()),
            Op::Fail => write!(h, "FAIL {a} {b}\r\n"),
            Op::Ping => write!(h, "PING\r\n"),
        };
        self.ends.push(self.heads.len() as u32);
        self.reqs.push(Req { op, a, b });
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    pub fn head(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.heads[start..self.ends[i] as usize]
    }

    fn truncate(&mut self, len: usize) {
        if len < self.reqs.len() {
            self.reqs.truncate(len);
            self.ends.truncate(len);
            self.heads.truncate(self.ends.last().map_or(0, |&e| e as usize));
        }
    }

    /// FNV-1a over the header lines and each request's version number: two
    /// runs sent the same requests exactly when their hashes agree.
    pub fn hash_into(&self, hash: &mut u64) {
        for (i, req) in self.reqs.iter().enumerate() {
            for &b in self.head(i).iter().chain(&req.b.to_le_bytes()) {
                *hash ^= u64::from(b);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Draws reads the way a versioning client does: object uniform, version
/// Zipf by recency (rank 1 = the latest of `latest` versions).
struct ReadPicker {
    zipf: Vec<ZipfPmf>,
}

impl ReadPicker {
    fn new(max_versions: usize) -> ReadPicker {
        ReadPicker {
            zipf: (1..=max_versions)
                .map(|n| ZipfPmf::new(ZIPF_S, n).expect("valid zipf parameters"))
                .collect(),
        }
    }

    fn version(&self, rng: &mut StdRng, latest: usize) -> u32 {
        (latest + 1 - self.zipf[latest - 1].sample(rng)) as u32
    }
}

/// The requests of one epoch.
#[derive(Debug, Default)]
pub struct EpochPlan {
    /// Sent with full verification before anything is timed.
    pub warmup: Script,
    /// One connection, depth 1, every reply compared byte for byte.
    pub serial: Script,
    /// One script per connection. Time-bound workloads cycle through theirs
    /// until the window closes; `ingest_mixed` sends each exactly once.
    pub pipelined: [Script; 2],
    /// `degraded_read`: reads issued while repair runs (cycled).
    pub during_repair: Script,
}

impl EpochPlan {
    fn scripts(&self) -> [&Script; 5] {
        let [first, second] = &self.pipelined;
        [&self.warmup, &self.serial, first, second, &self.during_repair]
    }

    pub fn requests(&self) -> usize {
        self.scripts().iter().map(|s| s.len()).sum()
    }

    pub fn hash_into(&self, hash: &mut u64) {
        for script in self.scripts() {
            script.hash_into(hash);
        }
    }
}

/// Requests cycled through by a time-bound pipelined window, per connection.
const PIPELINE_CYCLE: usize = 4096;

pub fn plan_epoch(spec: &Spec, scale: &Scale, data: &Data, seed: u64, epoch: usize) -> EpochPlan {
    let mut plan = EpochPlan::default();
    let mut rng = rng_for(seed, 2, epoch as u64);
    let objects = spec.objects as u32;
    if spec.kind == Kind::IngestMixed {
        plan_ingest(spec, scale, data, &mut rng, &mut plan);
        return plan;
    }
    let picker = ReadPicker::new(spec.versions);
    let latest = spec.versions;
    let get = |script: &mut Script, rng: &mut StdRng| {
        let object = rng.gen_range(0..objects);
        script.push(Op::Get, object, picker.version(rng, latest), data);
    };

    // Warm-up touches every (object, version) once where that fills the
    // cache, and a spread of reads otherwise.
    if spec.cache > 0 {
        for object in 0..objects {
            for version in 1..=latest as u32 {
                plan.warmup.push(Op::Get, object, version, data);
            }
        }
    } else {
        for _ in 0..64 {
            get(&mut plan.warmup, &mut rng);
        }
    }

    let gets = scale.serial_gets;
    let prefix_every = gets.checked_div(spec.prefixes).unwrap_or(usize::MAX);
    let nodes = spec.failed_nodes();
    for i in 0..gets {
        if spec.kind == Kind::DegradedRead && i > 0 && i % (gets / 3) == 0 {
            // Second segment: one systematic node down per shard; third:
            // a second systematic and one parity node as well.
            let down: &[usize] = if i == gets / 3 { &nodes[..1] } else { &nodes[1..] };
            for shard in 0..SHARDS as u32 {
                for &node in down {
                    plan.serial.push(Op::Fail, shard, node as u32, data);
                }
            }
        }
        if i % prefix_every == prefix_every / 2 {
            let object = (i / prefix_every) as u32 % objects;
            plan.serial.push(Op::Prefix, object, latest as u32, data);
        }
        get(&mut plan.serial, &mut rng);
    }
    for script in &mut plan.pipelined {
        for _ in 0..PIPELINE_CYCLE {
            get(script, &mut rng);
        }
    }
    if spec.kind == Kind::DegradedRead {
        for _ in 0..PIPELINE_CYCLE {
            get(&mut plan.during_repair, &mut rng);
        }
    }
    plan
}

/// `ingest_mixed`: per step, `APPEND` the next version of an object
/// (round-robin), read the latest twice, and read two versions Zipf by
/// recency. Versions `2..=grow_serial` go through the serial phase, the rest
/// through the pipelined one with each connection owning half the objects.
fn plan_ingest(spec: &Spec, scale: &Scale, data: &Data, rng: &mut StdRng, plan: &mut EpochPlan) {
    let picker = ReadPicker::new(scale.grow_pipelined);
    let objects = spec.objects as u32;
    for object in 0..objects {
        plan.warmup.push(Op::Get, object, 1, data);
    }
    let mut step = |script: &mut Script, object: u32, version: u32| {
        script.push(Op::Append, object, version, data);
        script.push(Op::Get, object, version, data);
        script.push(Op::Get, object, version, data);
        for _ in 0..2 {
            script.push(Op::Get, object, picker.version(rng, version as usize), data);
        }
    };
    for version in 2..=scale.grow_serial as u32 {
        for object in 0..objects {
            step(&mut plan.serial, object, version);
        }
    }
    for version in scale.grow_serial as u32 + 1..=scale.grow_pipelined as u32 {
        for object in 0..objects {
            step(&mut plan.pipelined[object as usize % 2], object, version);
        }
    }
}

/// The traced sample: the head of a serial script drawn from its own
/// stream, so it is the same for every epoch count and phase length.
pub fn plan_trace_sample(spec: &Spec, data: &Data, seed: u64, len: usize) -> Script {
    let scale = Scale {
        epochs: 1,
        trace_sample: len,
        serial_gets: len / 3 * 3,
        window: std::time::Duration::ZERO,
        grow_serial: data.versions[0].len(),
        grow_pipelined: data.versions[0].len(),
    };
    let mut plan = plan_epoch(spec, &scale, data, seed ^ 0x7ace, usize::MAX);
    let mut sample = std::mem::take(&mut plan.serial);
    sample.truncate(len);
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    fn small(spec: &Spec) -> Spec {
        Spec {
            objects: 4,
            object_len: spec.k * 256,
            ..*spec
        }
    }

    #[test]
    fn same_seed_same_bytes_and_scripts_other_seed_differs() {
        for w in &WORKLOADS {
            let spec = small(w);
            let scale = Scale::new(&spec, 1.0, false);
            let versions = spec.versions.max(scale.grow_pipelined);
            let a = Data::generate(&spec, 7, versions);
            let b = Data::generate(&spec, 7, versions);
            let c = Data::generate(&spec, 8, versions);
            assert_eq!(a.versions, b.versions);
            assert_ne!(a.versions, c.versions);
            let hash = |data: &Data, seed| {
                let mut h = FNV_OFFSET;
                plan_epoch(&spec, &scale, data, seed, 0).hash_into(&mut h);
                h
            };
            assert_eq!(hash(&a, 7), hash(&b, 7), "{}", w.name);
            assert_ne!(hash(&a, 7), hash(&c, 8), "{}", w.name);
            let mut h0 = FNV_OFFSET;
            let mut h1 = FNV_OFFSET;
            plan_epoch(&spec, &scale, &a, 7, 0).hash_into(&mut h0);
            plan_epoch(&spec, &scale, &a, 7, 1).hash_into(&mut h1);
            assert_ne!(h0, h1, "epochs draw from their own streams");
        }
    }

    #[test]
    fn each_version_edits_between_one_and_k_blocks() {
        let spec = small(workload("cold_archive").unwrap());
        let data = Data::generate(&spec, 3, 16);
        let block = spec.shard_len();
        for history in &data.versions {
            for pair in history.windows(2) {
                let changed = (0..spec.k)
                    .filter(|b| {
                        pair[0][b * block..(b + 1) * block] != pair[1][b * block..(b + 1) * block]
                    })
                    .count();
                assert!((1..=spec.k).contains(&changed));
                let bytes = pair[0].iter().zip(&pair[1]).filter(|(a, b)| a != b).count();
                assert_eq!(bytes, changed * EDIT_BYTES);
            }
        }
    }

    #[test]
    fn ingest_reads_never_run_ahead_of_appends_on_their_connection() {
        let spec = small(workload("ingest_mixed").unwrap());
        let scale = Scale::new(&spec, 20.0, false);
        let data = Data::generate(&spec, 1, scale.grow_pipelined);
        let plan = plan_epoch(&spec, &scale, &data, 1, 0);
        let mut latest = vec![1u32; spec.objects];
        for (conn, script) in [&plan.serial, &plan.pipelined[0], &plan.pipelined[1]]
            .iter()
            .enumerate()
        {
            for req in &script.reqs {
                match req.op {
                    Op::Append => {
                        assert_eq!(req.b, latest[req.a as usize] + 1);
                        latest[req.a as usize] = req.b;
                        if conn > 0 {
                            assert_eq!(req.a as usize % 2, conn - 1);
                        }
                    }
                    Op::Get => assert!(req.b >= 1 && req.b <= latest[req.a as usize]),
                    _ => unreachable!(),
                }
            }
        }
        assert!(latest.iter().all(|&v| v as usize == scale.grow_pipelined));
    }

    #[test]
    fn degraded_script_fails_three_nodes_per_shard_in_two_steps() {
        let spec = small(workload("degraded_read").unwrap());
        let scale = Scale::new(&spec, 1.0, false);
        let data = Data::generate(&spec, 1, spec.versions);
        let plan = plan_epoch(&spec, &scale, &data, 1, 0);
        let fails: Vec<usize> = plan
            .serial
            .reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.op == Op::Fail)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fails.len(), 3 * SHARDS);
        let third = scale.serial_gets / 3;
        assert_eq!(fails[0], third);
        assert_eq!(fails[SHARDS], 2 * third + SHARDS);
        let gets = plan.serial.reqs.iter().filter(|r| r.op == Op::Get).count();
        assert_eq!(gets, scale.serial_gets);
    }

    #[test]
    fn heads_are_the_wire_frames() {
        let spec = small(workload("cold_archive").unwrap());
        let data = Data::generate(&spec, 1, 4);
        let mut s = Script::default();
        s.push(Op::Get, 3, 2, &data);
        s.push(Op::Append, 1, 4, &data);
        s.push(Op::Ping, 0, 0, &data);
        assert_eq!(s.head(0), b"GET 3 2\r\n");
        assert_eq!(s.head(1), format!("APPEND 1 {}\r\n", spec.object_len).as_bytes());
        assert_eq!(s.head(2), b"PING\r\n");
        s.truncate(1);
        assert_eq!((s.len(), s.head(0)), (1, &b"GET 3 2\r\n"[..]));
    }
}
