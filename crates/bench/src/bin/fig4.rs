//! Fig. 4 — average I/O reads `μ_1` to retrieve the 1-sparse object `z_2`
//! versus the node-failure probability, for the (6, 3) code: systematic SEC,
//! non-systematic SEC and the non-differential baseline.
//!
//! Run with `cargo run -p sec-bench --bin fig4` (add `--trials N` to also
//! print the Monte-Carlo estimate of eq. 21 next to the exact value).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sec_analysis::io::{average_io_exact, average_io_monte_carlo, IoScheme};
use sec_bench::{fmt_float, probability_grid, ExperimentArgs, ResultTable};
use sec_erasure::{GeneratorForm, SecCode};
use sec_gf::Gf256;

fn main() -> std::io::Result<()> {
    let args = ExperimentArgs::from_env();
    let systematic: SecCode<Gf256> =
        SecCode::cauchy(6, 3, GeneratorForm::Systematic).expect("(6,3) fits in GF(1024)");
    let non_systematic: SecCode<Gf256> =
        SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).expect("(6,3) fits in GF(1024)");
    let trials = args.trials.unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(2015);

    let mut table = ResultTable::new(
        "Fig. 4: average I/O reads mu_1 for z2 (gamma = 1), (6,3) code",
        &[
            "p",
            "systematic_sec",
            "non_systematic_sec",
            "non_differential",
            "systematic_mc",
        ],
    );
    for p in probability_grid() {
        let sys = average_io_exact(&systematic, IoScheme::Sec(GeneratorForm::Systematic), 1, p);
        let ns = average_io_exact(&non_systematic, IoScheme::Sec(GeneratorForm::NonSystematic), 1, p);
        let nd = average_io_exact(&non_systematic, IoScheme::NonDifferential, 1, p);
        let mc = if trials > 0 {
            fmt_float(
                average_io_monte_carlo(
                    &systematic,
                    IoScheme::Sec(GeneratorForm::Systematic),
                    1,
                    p,
                    trials,
                    &mut rng,
                )
                .average_reads,
                4,
            )
        } else {
            "-".to_string()
        };
        table.push_row(vec![
            fmt_float(p, 2),
            fmt_float(sys.average_reads, 4),
            fmt_float(ns.average_reads, 4),
            fmt_float(nd.average_reads, 4),
            mc,
        ]);
    }
    table.emit(&args)?;
    println!(
        "\nExpected shape: non-systematic SEC flat at 2 reads, non-differential flat at 3 reads,\n\
         systematic SEC starts at 2 and rises slowly with p (paper Fig. 4)."
    );
    Ok(())
}
