//! `zerber_perf` — the repository's one performance benchmark.
//!
//! ```text
//! zerber_perf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! One run measures one workload and prints every metric of that run by
//! name and unit, then, as the last line, one JSON object holding
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `BENCHMARK.json` for `--trace 0`, its per-layer metrics for
//! `--trace 1`.  README.md explains the workloads and the metrics.

#![deny(unsafe_code)]

mod bed;
mod client_topk;
mod harness;
mod ingest;
mod metrics;
mod samples;
mod serve;
mod spans;
mod store_rung;
mod stream;

use std::process::ExitCode;

use bed::Sizing;
use harness::{Options, Outcome};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, which the benchmark driver passes as
/// `--seconds` on every run; the default serves a run typed by hand.  A test
/// keeps the two equal, and both sides of a comparison use this length.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> String {
    format!(
        "usage: zerber_perf --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    Ok(Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.3 } else { DEFAULT_SECONDS }),
        trace,
        sizing: if smoke { Sizing::SMOKE } else { Sizing::FULL },
        callers: bed::callers(),
    })
}

/// Runs one workload.
fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    match opts.workload.as_str() {
        "client_topk" => client_topk::run(opts, &mut out),
        "serve_warm" => serve::run(opts, serve::Engine::Warm, &mut out),
        "serve_cold" => serve::run(opts, serve::Engine::Cold, &mut out),
        "ingest_mixed" => ingest::run(opts, &mut out),
        other => unreachable!("parse() admitted workload {other}"),
    }
    out
}

/// The metrics a run must print, with their units, in list order: the
/// end-to-end list untraced, the per-layer list traced.  A per-layer metric
/// the workload does not exercise reads 0; a missing end-to-end metric is a
/// contract violation.
fn reported(
    opts: &Options,
    out: &Outcome,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let wanted: Vec<(&'static str, &'static str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut rows = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if opts.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if !opts.trace && value == 0.0 {
            return Err(format!("end-to-end metric {name} reads 0"));
        }
        rows.push((name, unit, value));
    }
    if let Some(stray) = out
        .metrics
        .keys()
        .find(|k| !rows.iter().any(|r| r.0 == **k))
    {
        return Err(format!(
            "metric {stray} does not belong to this kind of run"
        ));
    }
    Ok(rows)
}

/// The result line the driver reads.
fn result_line(out: &Outcome, rows: &[(&'static str, &'static str, f64)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn print_report(opts: &Options, out: &Outcome, rows: &[(&'static str, &'static str, f64)]) {
    println!(
        "zerber_perf workload={} seed={} seconds={} trace={} callers={} scale={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.callers,
        opts.sizing.scale
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  ops attempted {} succeeded {} failed {}",
        out.attempted,
        out.attempted.saturating_sub(out.failed),
        out.failed
    );
    for v in &out.violations {
        println!("  CHECK FAILED: {v}");
    }
    // Per-layer metrics this workload does not exercise stay out of the
    // table; the result line carries them as 0.
    for (name, unit, value) in rows {
        if out.metrics.contains_key(name) {
            println!("  {name:<40} {value:>16.4} {unit}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    let rows = match reported(&opts, &out) {
        Ok(rows) => rows,
        Err(message) => {
            eprintln!("contract violation: {message}");
            return ExitCode::from(3);
        }
    };
    print_report(&opts, &out, &rows);
    println!("{}", result_line(&out, &rows));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metric;

    /// The contract the driver reads, two directories up from this file.
    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    /// The `{...}` objects of the array stored under `key`.
    fn objects(key: &str) -> Vec<&'static str> {
        let pat = format!("\"{key}\":");
        let after = &CONTRACT[CONTRACT.find(&pat).expect("key present") + pat.len()..];
        let array = &after[after.find('[').expect("an array")..after.find(']').expect("closed")];
        array
            .split('{')
            .skip(1)
            .map(|o| &o[..o.find('}').expect("closed object")])
            .collect()
    }

    /// The string stored under `key` in one object.
    fn field(object: &str, key: &str) -> String {
        let pat = format!("\"{key}\":");
        let after = object[object.find(&pat).expect("field present") + pat.len()..].trim_start();
        let value = after.strip_prefix('"').expect("a string");
        value[..value.find('"').expect("closed string")].to_string()
    }

    fn contract(key: &str) -> Vec<(String, String)> {
        objects(key)
            .into_iter()
            .map(|o| (field(o, "name"), field(o, "unit")))
            .collect()
    }

    fn listed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn the_metric_lists_are_those_of_benchmark_json() {
        let workloads: Vec<String> = objects("workloads")
            .into_iter()
            .map(|o| field(o, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(contract("end_to_end"), listed(&END_TO_END));
        assert_eq!(contract("per_layer"), listed(&PER_LAYER));
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let distinct: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn the_default_run_length_is_that_of_benchmark_json() {
        let pat = "\"run_seconds\":";
        let after =
            CONTRACT[CONTRACT.find(pat).expect("run_seconds present") + pat.len()..].trim_start();
        let digits = &after[..after.find(|c: char| !c.is_ascii_digit()).expect("a number")];
        assert_eq!(digits.parse::<f64>().unwrap(), DEFAULT_SECONDS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let opts = parse(&args(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.seconds, opts.trace),
            ("serve_cold", 7, 2.5, true)
        );
        assert_eq!(opts.sizing.scale, Sizing::FULL.scale);
        assert!(
            parse(&args(&["--workload", "serve_cold", "--smoke"]))
                .unwrap()
                .seconds
                < 1.0
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "serve_warm", "--trace", "2"],
            &["--workload", "serve_warm", "--seconds", "0"],
            &["--workload", "serve_warm", "--sead", "1"],
            &["--workload"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// `--smoke` on every workload, untraced and traced: every name of
    /// `BENCHMARK.json` comes out exactly once, finite, with its unit, and
    /// nothing else does.  One test, so the runs do not share the machine.
    #[test]
    fn smoke_runs_print_exactly_the_contracts_metrics() {
        for workload in WORKLOADS {
            for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
                let args: Vec<String> = ["--workload", workload, "--smoke", "--trace", trace]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let opts = parse(&args).unwrap();
                let out = run(&opts);
                assert!(
                    out.correct(),
                    "{workload} trace {trace}: {:?} failed {}",
                    out.violations,
                    out.failed
                );
                assert!(out.attempted >= 1);
                let rows = reported(&opts, &out).unwrap();
                let printed: Vec<(String, String)> = rows
                    .iter()
                    .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
                    .collect();
                assert_eq!(printed, contract(key), "{workload} trace {trace}");
                assert!(rows.iter().all(|(_, _, v)| v.is_finite()));
                let line = result_line(&out, &rows);
                for (name, _) in &printed {
                    assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1, "{name}");
                }
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }
}
