//! Schedule exploration: seeded random walks and exhaustive interleavings.
//!
//! Two complementary modes, per ADR-001-style simulation-first testing:
//!
//! * [`random_walk`] — run a property under many seeds derived from its
//!   label, the same on every run; any panic is caught, the failing seed
//!   printed, and the panic re-raised, so every failure is replayable via
//!   `SEC_SIM_SEED`. The usual property is
//!   [`walk`]: one seeded random schedule over a fresh [`Sim`].
//! * [`interleavings`] — enumerate *every* order-preserving merge of a few
//!   short operation tracks (the "≤6-step window" mode): when the window is
//!   small enough to exhaust, exhaust it instead of sampling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::harness::{Op, Sim, SimOptions};
use crate::rng::SimRng;
use crate::seed;

/// Runs `steps` random operations, drawn from `seed`, on a fresh [`Sim`]
/// built from `options`, then a final metrics check.
///
/// # Panics
///
/// Panics when the cluster diverges from the model or the reference.
pub fn walk(options: SimOptions, seed: u64, steps: usize) {
    let mut rng = SimRng::new(seed);
    let mut sim = Sim::new(options, rng.fork());
    for _ in 0..steps {
        let op = sim.random_op(&mut rng);
        sim.step(&op);
    }
    sim.step(&Op::CheckMetrics);
}

/// Runs `property` under `runs` seeds derived from a root fixed by `label`
/// ([`seed::from_label`]), so every run of a test walks the same seeds —
/// unless [`seed::SEED_ENV`] is set, in which case the pinned seed is run
/// exactly once (replay mode). Fresh seeds are `sim-sweep`'s job.
///
/// On a panic the failing seed is printed as an `SEC_SIM_SEED=0x…` line and
/// the panic resumes, so the test fails with both the original assertion
/// and its replay recipe.
pub fn random_walk(label: &str, runs: usize, property: impl Fn(u64)) {
    if let Some(pinned) = seed::from_env() {
        eprintln!(
            "sec-sim[{label}]: replaying pinned {}={pinned:#018x}",
            seed::SEED_ENV
        );
        property(pinned);
        return;
    }
    let root = seed::from_label(label);
    eprintln!("sec-sim[{label}]: walking {runs} seeds from root {root:#018x}");
    let mut rng = SimRng::new(root);
    for run in 0..runs {
        let seed = rng.next_u64();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(seed))) {
            eprintln!(
                "sec-sim[{label}]: run {run}/{runs} FAILED — replay with {}={seed:#018x}",
                seed::SEED_ENV
            );
            resume_unwind(panic);
        }
    }
}

/// All order-preserving merges of `tracks`: every schedule that runs each
/// track's steps in order while interleaving the tracks freely. The number
/// of merges is the multinomial coefficient of the track lengths — e.g. two
/// tracks of 3 steps yield C(6,3) = 20 schedules.
///
/// Intended for exhaustive exploration of short windows: the total step
/// count across tracks must be at most [`MAX_EXHAUSTIVE_STEPS`] (panics
/// otherwise — widening the window is a test-authoring error, not a runtime
/// condition).
pub fn interleavings<T: Clone>(tracks: &[Vec<T>]) -> Vec<Vec<T>> {
    let total: usize = tracks.iter().map(Vec::len).sum();
    assert!(
        total <= MAX_EXHAUSTIVE_STEPS,
        "exhaustive interleaving of {total} steps would explode; keep windows ≤ {MAX_EXHAUSTIVE_STEPS} steps"
    );
    let mut cursors = vec![0usize; tracks.len()];
    let mut current = Vec::with_capacity(total);
    let mut out = Vec::new();
    merge(tracks, &mut cursors, &mut current, &mut out);
    out
}

/// Cap on the total step count [`interleavings`] will exhaust. 8 steps cap
/// the schedule count at C(8,4) = 70 two-track merges (worst case 8! = 40320
/// single-step tracks), both trivially cheap; the issue's target windows are
/// ≤ 6 steps.
pub const MAX_EXHAUSTIVE_STEPS: usize = 8;

fn merge<T: Clone>(
    tracks: &[Vec<T>],
    cursors: &mut [usize],
    current: &mut Vec<T>,
    out: &mut Vec<Vec<T>>,
) {
    let mut extended = false;
    for (track_idx, track) in tracks.iter().enumerate() {
        let at = cursors[track_idx];
        if let Some(step) = track.get(at) {
            extended = true;
            cursors[track_idx] = at + 1;
            current.push(step.clone());
            merge(tracks, cursors, current, out);
            current.pop();
            cursors[track_idx] = at;
        }
    }
    if !extended {
        out.push(current.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tracks_of_three_give_twenty_merges() {
        let tracks = vec![vec!["a1", "a2", "a3"], vec!["b1", "b2", "b3"]];
        let all = interleavings(&tracks);
        assert_eq!(all.len(), 20); // C(6,3)
        for schedule in &all {
            assert_eq!(schedule.len(), 6);
            // Track order is preserved within each merge.
            let a: Vec<_> = schedule.iter().filter(|s| s.starts_with('a')).collect();
            let b: Vec<_> = schedule.iter().filter(|s| s.starts_with('b')).collect();
            assert_eq!(a, vec![&"a1", &"a2", &"a3"]);
            assert_eq!(b, vec![&"b1", &"b2", &"b3"]);
        }
        // All schedules are distinct.
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
    }

    #[test]
    fn single_track_is_identity() {
        let all = interleavings(&[vec![1, 2, 3]]);
        assert_eq!(all, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn empty_tracks_yield_the_empty_schedule() {
        let all = interleavings::<u8>(&[vec![], vec![]]);
        assert_eq!(all, vec![Vec::<u8>::new()]);
    }

    #[test]
    #[should_panic(expected = "exhaustive interleaving")]
    fn oversized_windows_are_rejected() {
        let _ = interleavings(&[vec![0; 5], vec![0; 5]]);
    }

    #[test]
    fn random_walk_is_quiet_on_success_and_replays_pinned_seeds() {
        // No env manipulation here (tests run in parallel); just check the
        // walk drives the property with distinct seeds, the same every run.
        let seeds = || {
            let seen = std::cell::RefCell::new(Vec::new());
            random_walk("explore-test", 5, |seed| seen.borrow_mut().push(seed));
            seen.into_inner()
        };
        let seen = seeds();
        assert_eq!(seeds(), seen, "a label fixes its walk's seeds");
        if seed::from_env().is_none() {
            assert_eq!(seen.len(), 5);
            let mut dedup = seen.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 5, "derived seeds must be distinct");
        } else {
            assert_eq!(seen.len(), 1);
        }
    }
}
