//! Fig. 3 — joint availability of both versions (`x_1`, `x_2`) in "nines"
//! format for colocated vs dispersed placement, for the three schemes
//! (non-systematic SEC, systematic SEC, non-differential), (6, 3) code.
//!
//! Run with `cargo run -p sec-bench --bin fig3`.

use sec_analysis::availability::{availability_sweep, nines};
use sec_bench::{fmt_float, probability_grid, ExperimentArgs, ResultTable};
use sec_erasure::{GeneratorForm, SecCode};
use sec_gf::Gf256;

fn main() -> std::io::Result<()> {
    let args = ExperimentArgs::from_env();
    let non_systematic: SecCode<Gf256> =
        SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).expect("(6,3) fits in GF(1024)");
    let systematic: SecCode<Gf256> =
        SecCode::cauchy(6, 3, GeneratorForm::Systematic).expect("(6,3) fits in GF(1024)");
    // Two versions, second delta 1-sparse (the §IV-C example).
    let sparsity = [1usize];

    let sweep = availability_sweep(&non_systematic, &systematic, &sparsity, &probability_grid());
    let mut table = ResultTable::new(
        "Fig. 3: availability of both versions in nines (-log10(1 - P))",
        &[
            "p",
            "colocated_all_schemes",
            "dispersed_non_systematic",
            "dispersed_systematic",
            "dispersed_non_differential",
        ],
    );
    for point in &sweep {
        table.push_row(vec![
            fmt_float(point.p, 2),
            fmt_float(nines(point.colocated), 4),
            fmt_float(nines(point.dispersed_non_systematic), 4),
            fmt_float(nines(point.dispersed_systematic), 4),
            fmt_float(nines(point.dispersed_non_differential), 4),
        ]);
    }
    table.emit(&args)?;
    println!(
        "\nExpected shape: colocated placement dominates every dispersed variant; among dispersed,\n\
         non-systematic SEC >= systematic SEC >= non-differential (paper Fig. 3)."
    );
    Ok(())
}
