//! Runs every experiment in sequence, printing each report and writing a
//! copy under `results/` (one file per artifact). Accepts `--smoke` /
//! `--full` like the individual binaries.

use srclda_bench::experiments;
use srclda_bench::Scale;
use std::fs;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    srclda_bench::cli::handle_help(
        &args,
        "all_experiments",
        "Runs every experiment in sequence, printing each report and \
         writing a copy under results/.",
        &[],
    );
    let scale = Scale::from_args(&args);
    let out_dir = Path::new("results");
    let _ = fs::create_dir_all(out_dir);

    type Runner = fn(Scale) -> String;
    let runs: Vec<(&str, Runner)> = vec![
        ("table0_case_study", experiments::table0::run),
        ("fig2_source_variance", experiments::fig2::run),
        ("fig3_lambda_divergence", experiments::fig34::run_fig3),
        ("fig4_smoothed_lambda", experiments::fig34::run_fig4),
        ("fig6_graphical", experiments::fig6::run),
        ("fig7_lambda_integration", experiments::fig7::run),
        ("table1_reuters", experiments::table1::run),
        ("fig8_wikipedia", experiments::fig8::run),
        ("fig8f_scaling", experiments::fig8f::run),
        ("ablations", experiments::ablation::run),
    ];
    for (name, f) in runs {
        let start = Instant::now();
        let report = f(scale);
        let elapsed = start.elapsed();
        println!("{report}");
        println!(">>> {name} finished in {elapsed:.2?}\n");
        let path = out_dir.join(format!("{name}.txt"));
        if let Err(e) = fs::write(&path, &report) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    println!(
        "All experiments complete; reports written to {}/",
        out_dir.display()
    );
}
