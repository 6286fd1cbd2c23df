//! The paper's evaluation as one program: `zerber_repro` runs the twelve
//! figures and tables of Section 6 (Figures 4, 5, 7–13, the Section 6.2
//! attacks, Section 6.3's storage accounting and Section 6.6's bandwidth
//! table) and checks the paper's qualitative claims against what it measured.
//!
//! * [`experiments`] — one function per figure/table, each defined once; it
//!   takes the shared [`Beds`] and fills a [`Section`]: the figure's rows plus
//!   the [`Claim`]s the paper makes about them, each `holds` or `differs`.
//! * [`report`] — the [`Report`] that renders the aligned text tables (with a
//!   machine-readable `csv,` mirror) and the single `REPRO.json`.
//! * [`parse_args`] — the command line: one optional experiment name,
//!   `--scale <f>` (corpus scale relative to the paper's datasets, default
//!   0.03), `--full` (= `--scale 1.0`, slow), `--seed <n>` (default 42) and
//!   `--out <path>` for the JSON document.
//!
//! A gated claim that does not hold makes the process exit non-zero; the same
//! experiment functions run on the StudIP bed alone inside `cargo test`
//! (`tests/repro_claims.rs`).

pub mod experiments;
pub mod report;

use std::cell::{Cell as Counter, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

use zerber_corpus::DatasetProfile;
use zerber_workload::{QueryLog, QueryLogConfig, QuerySample, TestBed, TestBedConfig};

pub use experiments::{fingerprint_audit, run, Experiment, EXPERIMENTS};
pub use report::{fmt, Claim, Report, Section, Table};

/// The usage line printed when the command line is rejected.
pub const USAGE: &str = "usage: zerber_repro [all|fig04|fig05|fig07|fig08|fig09|fig10|fig11|fig12|\
    fig13|security|storage|network] [--scale F | --full] [--seed N] [--out PATH]";

/// A checked `zerber_repro` command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// The experiments to run, in [`EXPERIMENTS`] order.
    pub experiments: Vec<&'static Experiment>,
    /// Corpus scale factor (finite and positive).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Where to write `REPRO.json`, if anywhere.
    pub out: Option<PathBuf>,
}

/// Parses the arguments after the program name.  Anything that is not an
/// experiment name or a known flag with a well-formed value is an error, so
/// a typo cannot silently run the default configuration.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        experiments: Vec::new(),
        scale: 0.03,
        seed: 42,
        out: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--full" => options.scale = 1.0,
            "--scale" => {
                let v = value()?;
                options.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--scale needs a finite number > 0, got {v:?}"))?;
            }
            "--seed" => {
                let v = value()?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {v:?}"))?;
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if !options.experiments.is_empty() => {
                return Err(format!("unexpected second experiment name {arg}"))
            }
            "all" => options.experiments.extend(EXPERIMENTS.iter()),
            name => options.experiments.push(
                EXPERIMENTS
                    .iter()
                    .find(|(known, ..)| *known == name)
                    .ok_or(format!("unknown experiment {name}"))?,
            ),
        }
    }
    if options.experiments.is_empty() {
        options.experiments.extend(EXPERIMENTS.iter());
    }
    Ok(options)
}

/// A query log matched to the bed's corpus, aggregated term frequencies only.
pub fn query_log(bed: &TestBed, distinct_terms: usize, total_queries: u64) -> QueryLog {
    bed.query_log(&QueryLogConfig {
        distinct_terms,
        total_queries,
        sample_queries: 0,
        ..QueryLogConfig::default()
    })
    .expect("query log")
}

/// The per-term samples of one `(k, b)` replay, shared by the experiments.
pub type Samples = Rc<Vec<QuerySample>>;

#[derive(Default)]
struct Shared {
    bed: OnceCell<TestBed>,
    grid_log: OnceCell<QueryLog>,
    cells: RefCell<BTreeMap<(usize, usize), Samples>>,
}

/// What the experiments share: per dataset the [`TestBed`], the query log of
/// Figures 11–13 and the `(k, b)` sample grid replayed over it — each built
/// at most once per run, and only when an experiment asks for it.
pub struct Beds {
    /// Corpus scale factor applied to every dataset.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    datasets: Vec<(DatasetProfile, Shared)>,
    beds_built: Counter<usize>,
    cells_evaluated: Counter<usize>,
}

impl Beds {
    /// A run over `profiles` (Section 6.1 has two: StudIP and ODP).
    pub fn new(scale: f64, seed: u64, profiles: Vec<DatasetProfile>) -> Self {
        let datasets = profiles.into_iter().map(|p| (p, Shared::default()));
        let datasets = datasets.collect();
        let (beds_built, cells_evaluated) = (Counter::new(0), Counter::new(0));
        Beds {
            scale,
            seed,
            datasets,
            beds_built,
            cells_evaluated,
        }
    }

    /// The datasets of this run, in the order given to [`Beds::new`].
    pub fn profiles(&self) -> impl Iterator<Item = &DatasetProfile> {
        self.datasets.iter().map(|(profile, _)| profile)
    }

    /// Builds a bed at this run's scale and seed (the same scale for both
    /// datasets, so `--scale 1.0` means paper scale for each).
    pub fn build(&self, config: TestBedConfig) -> TestBed {
        self.beds_built.set(self.beds_built.get() + 1);
        TestBed::build(TestBedConfig {
            scale: self.scale,
            seed: self.seed,
            ..config
        })
        .expect("test bed builds")
    }

    fn shared(&self, profile: &DatasetProfile) -> &Shared {
        let found = self.datasets.iter().find(|(p, _)| p == profile);
        let missing = || panic!("dataset {} is not part of this run", profile.name());
        &found.unwrap_or_else(missing).1
    }

    /// The dataset's test bed.
    pub fn bed(&self, profile: &DatasetProfile) -> &TestBed {
        let build = || self.build(TestBedConfig::small(profile.clone()));
        self.shared(profile).bed.get_or_init(build)
    }

    /// The StudIP bed (the single-collection figures use it).
    pub fn studip(&self) -> &TestBed {
        self.bed(&DatasetProfile::StudIp)
    }

    /// The per-term samples of replaying the dataset's Figure 11–13 query
    /// log with `top-k`, initial response size `b` and doubling follow-ups.
    pub fn cell(&self, profile: &DatasetProfile, k: usize, b: usize) -> Samples {
        let shared = self.shared(profile);
        if let Some(samples) = shared.cells.borrow().get(&(k, b)) {
            return Rc::clone(samples);
        }
        let bed = self.bed(profile);
        let log = shared.grid_log.get_or_init(|| query_log(bed, 800, 500_000));
        self.cells_evaluated.set(self.cells_evaluated.get() + 1);
        let samples = Rc::new(bed.run_workload(log, k, b).expect("workload runs"));
        shared
            .cells
            .borrow_mut()
            .insert((k, b), Rc::clone(&samples));
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    fn names(options: &Options) -> Vec<&'static str> {
        options.experiments.iter().map(|(name, ..)| *name).collect()
    }

    #[test]
    fn command_lines_are_checked_not_guessed() {
        let defaults = parse(&[]).unwrap();
        assert!(defaults.scale < 0.1);
        assert_eq!(defaults.seed, 42);
        assert_eq!(defaults.out, None);
        assert_eq!(names(&defaults).len(), 12);
        assert_eq!(names(&parse(&["all"]).unwrap()), names(&defaults));
        let one = parse(&["fig09", "--scale", "0.5", "--seed", "7", "--out", "r.json"]).unwrap();
        assert_eq!(names(&one), ["fig09"]);
        assert_eq!((one.scale, one.seed), (0.5, 7));
        assert_eq!(one.out, Some(PathBuf::from("r.json")));
        assert_eq!(
            parse(&["--seed", "3", "--full", "security"]).unwrap().scale,
            1.0
        );
        for rejected in [
            &["fig14"][..],
            &["fig09", "fig10"],
            &["--sclae", "1.0"],
            &["--scale"],
            &["--scale", "abc"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "inf"],
            &["--scale", "NaN"],
            &["--seed"],
            &["--seed", "-1"],
            &["--seed", "1.5"],
            &["--out"],
        ] {
            assert!(parse(rejected).is_err(), "{rejected:?} must be rejected");
        }
    }

    #[test]
    fn fmt_uses_compact_representations() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.6), "1235");
        assert_eq!(fmt(2.34559), "2.346");
        assert_eq!(fmt(0.000123456), "0.000123");
    }

    #[test]
    fn small_bed_builds_for_both_datasets() {
        let profiles = vec![DatasetProfile::StudIp, DatasetProfile::OdpWeb];
        let beds = Beds::new(0.01, 1, profiles.clone());
        for profile in &profiles {
            assert!(beds.bed(profile).corpus.num_docs() > 0);
            // Asking again hands out the bed already built.
            assert!(std::ptr::eq(beds.bed(profile), beds.bed(profile)));
        }
        assert_eq!(beds.beds_built.get(), 2);
    }
}
