//! Fig. 2 — probability of losing the 1-sparse difference object `z_2` as a
//! function of the node-failure probability `p`, for systematic and
//! non-systematic SEC with a (6, 3) code.
//!
//! Run with `cargo run -p sec-bench --bin fig2`.

use sec_analysis::resilience::{
    paper_eq18_non_systematic_loss, paper_eq20_systematic_loss, prob_lose_sparse_exact,
};
use sec_bench::{fmt_float, probability_grid, ExperimentArgs, ResultTable};
use sec_erasure::{GeneratorForm, SecCode};
use sec_gf::Gf256;

fn main() -> std::io::Result<()> {
    let args = ExperimentArgs::from_env();
    let systematic: SecCode<Gf256> =
        SecCode::cauchy(6, 3, GeneratorForm::Systematic).expect("(6,3) fits in GF(1024)");
    let non_systematic: SecCode<Gf256> =
        SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).expect("(6,3) fits in GF(1024)");

    let mut table = ResultTable::new(
        "Fig. 2: probability of losing z2 (1-sparse), (6,3) code",
        &[
            "p",
            "systematic_sec",
            "non_systematic_sec",
            "paper_eq20_systematic",
            "paper_eq18_non_systematic",
        ],
    );
    for p in probability_grid() {
        let sys = prob_lose_sparse_exact(&systematic, 1, p);
        let ns = prob_lose_sparse_exact(&non_systematic, 1, p);
        table.push_row(vec![
            fmt_float(p, 2),
            fmt_float(sys, 10),
            fmt_float(ns, 10),
            fmt_float(paper_eq20_systematic_loss(p), 10),
            fmt_float(paper_eq18_non_systematic_loss(p), 10),
        ]);
    }
    table.emit(&args)?;
    println!(
        "\nExpected shape: systematic SEC loses z2 with higher probability than non-systematic SEC\n\
         (12 extra unrecoverable 4-failure patterns), matching eqs. (18) and (20)."
    );
    Ok(())
}
