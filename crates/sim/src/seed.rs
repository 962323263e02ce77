//! Seed resolution and replay.
//!
//! Every simulation run is a pure function of one `u64` seed. This module
//! owns the two ends of that contract: picking a fresh seed (and announcing
//! it) for exploratory runs, and honouring `SEC_SIM_SEED` to replay a
//! specific schedule bit-identically.
//!
//! Replay workflow: any failing run prints a line of the form
//! `SEC_SIM_SEED=0x…`; exporting that variable and re-running the same test
//! reproduces the failing interleaving exactly (see `docs/DST.md`).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Name of the environment variable that pins the seed for replay.
pub const SEED_ENV: &str = "SEC_SIM_SEED";

/// Parses a seed string: decimal (`12345`) or hexadecimal with an `0x`
/// prefix (`0xDEAD_BEEF`; underscores allowed in either form).
pub fn parse(s: &str) -> Option<u64> {
    let s = s.trim().replace('_', "");
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The seed pinned via [`SEED_ENV`], if any. An unparsable value is
/// reported and ignored rather than silently exploring a random schedule
/// the caller believed was pinned.
pub fn from_env() -> Option<u64> {
    let raw = std::env::var(SEED_ENV).ok()?;
    match parse(&raw) {
        Some(seed) => Some(seed),
        None => {
            eprintln!("sec-sim: ignoring unparsable {SEED_ENV}={raw:?} (want decimal or 0x-hex)");
            None
        }
    }
}

/// A fresh entropy-derived seed for exploratory runs. Uses the standard
/// library's per-process `RandomState` entropy (the crate has no external
/// dependencies), mixed per call so successive calls differ.
pub fn entropy() -> u64 {
    let mut hasher = RandomState::new().build_hasher();
    hasher.write_u64(0x5EC5_1377);
    hasher.finish()
}

/// The fixed seed a label names: its FNV-1a hash. Stable across runs and
/// platforms, so a walk rooted here explores the same seeds every run, and
/// distinct labels get unrelated streams.
pub fn from_label(label: &str) -> u64 {
    label.bytes().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Resolves the seed for a named simulation: the pinned [`SEED_ENV`] value
/// when set, a fresh entropy seed otherwise. Either way the seed is printed
/// to stderr (cargo shows captured output only for failing tests, so a
/// passing run stays quiet and a failing one always carries its seed).
pub fn resolve(label: &str) -> u64 {
    match from_env() {
        Some(seed) => {
            eprintln!("sec-sim[{label}]: replaying pinned {SEED_ENV}={seed:#018x}");
            seed
        }
        None => {
            let seed = entropy();
            eprintln!("sec-sim[{label}]: {SEED_ENV}={seed:#018x} (export to replay this run)");
            seed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimal_and_hex() {
        assert_eq!(parse("12345"), Some(12345));
        assert_eq!(parse("0xff"), Some(255));
        assert_eq!(parse("0XFF"), Some(255));
        assert_eq!(parse("0xDEAD_BEEF"), Some(0xDEAD_BEEF));
        assert_eq!(parse("  42  "), Some(42));
        assert_eq!(parse("1_000"), Some(1000));
        assert_eq!(parse(""), None);
        assert_eq!(parse("0x"), None);
        assert_eq!(parse("zebra"), None);
    }

    #[test]
    fn label_seeds_are_fnv1a() {
        assert_eq!(from_label(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(from_label("logs"), 14_846_069_637_550_713_894);
        assert_ne!(from_label("walk-a"), from_label("walk-b"));
    }

    #[test]
    fn entropy_seeds_vary() {
        // Two RandomStates virtually never collide; equality here would mean
        // entropy() is broken (constant), which is what we guard against.
        assert_ne!(entropy(), entropy());
    }
}
