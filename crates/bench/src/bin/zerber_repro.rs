//! `zerber_repro` — the paper's figures and tables as one seeded run.
//!
//! Prints every selected experiment's tables and evaluated claims, writes
//! `REPRO.json` when `--out` is given, and exits 1 when a gated claim does
//! not hold (2 on a rejected command line).

use std::process::ExitCode;

use zerber_bench::{parse_args, run, Beds, USAGE};
use zerber_corpus::DatasetProfile;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("zerber_repro: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let datasets = vec![DatasetProfile::StudIp, DatasetProfile::OdpWeb];
    let beds = Beds::new(options.scale, options.seed, datasets);
    let report = run(&beds, &options.experiments);
    print!("{}", report.render_text());
    eprintln!("finished in {:.1} s", started.elapsed().as_secs_f64());
    if let Some(path) = &options.out {
        if let Err(error) = std::fs::write(path, report.to_json()) {
            eprintln!("zerber_repro: cannot write {}: {error}", path.display());
            return ExitCode::from(2);
        }
    }
    let failed = report.failed_gates();
    for claim in &failed {
        let (source, statement, against) =
            (claim.source, claim.statement, claim.against.join("; "));
        eprintln!("zerber_repro: gated claim failed: {source}: {statement}\n    {against}");
    }
    ExitCode::from(u8::from(!failed.is_empty()))
}
