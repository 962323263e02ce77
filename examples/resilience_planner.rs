//! A capacity-planning tool: given a code shape and a target node-failure
//! probability, report the static resilience of each scheme/placement
//! combination (in "nines") and the expected retrieval I/O — the numbers an
//! operator would look at before choosing systematic vs non-systematic SEC
//! and colocated vs dispersed placement.
//!
//! Run with `cargo run --example resilience_planner -- [p]` (default p = 0.05).

use sec::analysis::availability::{colocated_availability, dispersed_availability, nines, Scheme};
use sec::analysis::io::{average_io_exact, IoScheme};
use sec::analysis::resilience::{prob_lose_full, prob_lose_sparse_exact};
use sec::gf::Gf256;
use sec::{GeneratorForm, SecCode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let (n, k) = (10usize, 5usize);
    let sparsity = [1usize, 2, 1]; // four versions with three small deltas

    let non_systematic: SecCode<Gf256> = SecCode::cauchy(n, k, GeneratorForm::NonSystematic)?;
    let systematic: SecCode<Gf256> = SecCode::cauchy(n, k, GeneratorForm::Systematic)?;

    println!("resilience plan for a ({n},{k}) code, node failure probability p = {p}\n");
    println!("per-object loss probabilities:");
    println!("  fully coded version        : {:.3e}", prob_lose_full(n, k, p));
    for gamma in 1..=2usize {
        println!(
            "  {gamma}-sparse delta (non-sys/sys): {:.3e} / {:.3e}",
            prob_lose_sparse_exact(&non_systematic, gamma, p),
            prob_lose_sparse_exact(&systematic, gamma, p)
        );
    }

    println!("\nwhole-archive availability (4 versions, deltas {sparsity:?}), in nines:");
    println!(
        "  colocated placement (all schemes) : {:.2}",
        nines(colocated_availability(&non_systematic, p))
    );
    for (label, code, scheme) in [
        (
            "dispersed, non-systematic SEC",
            &non_systematic,
            Scheme::NonSystematicSec,
        ),
        ("dispersed, systematic SEC", &systematic, Scheme::SystematicSec),
        (
            "dispersed, non-differential",
            &non_systematic,
            Scheme::NonDifferential,
        ),
    ] {
        println!(
            "  {label:<34}: {:.2}",
            nines(dispersed_availability(code, scheme, &sparsity, p))
        );
    }

    println!("\naverage I/O reads to fetch a sparse delta (eq. 21):");
    for gamma in 1..=2usize {
        let ns = average_io_exact(
            &non_systematic,
            IoScheme::Sec(GeneratorForm::NonSystematic),
            gamma,
            p,
        );
        let sys = average_io_exact(&systematic, IoScheme::Sec(GeneratorForm::Systematic), gamma, p);
        let nd = average_io_exact(&non_systematic, IoScheme::NonDifferential, gamma, p);
        println!(
            "  γ = {gamma}: non-systematic {:.3}, systematic {:.3}, non-differential {:.3}",
            ns.average_reads, sys.average_reads, nd.average_reads
        );
    }

    println!("\nrecommendation: colocate all versions' pieces on one set of {n} nodes;");
    println!("use systematic SEC if decode simplicity matters, non-systematic SEC if individual");
    println!("delta resilience and uniformly cheap sparse reads matter.");
    Ok(())
}
