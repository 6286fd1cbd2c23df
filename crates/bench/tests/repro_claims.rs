//! The debug-build tier of the reproduction gate: the experiment functions
//! `zerber_repro` runs, on the StudIP bed alone (the release binary in
//! `scripts/verify.sh` and CI covers both datasets).  Every gated claim must
//! hold; the claims recorded as differing from the paper must say why.

use zerber_bench::{run, Beds, Experiment, EXPERIMENTS};
use zerber_corpus::DatasetProfile;

#[test]
fn every_gated_claim_of_the_paper_holds_on_the_studip_bed() {
    let beds = Beds::new(0.02, 42, vec![DatasetProfile::StudIp]);
    // Section 6.6 is measured on the ODP stand-in only.
    let experiments: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, ..)| *name != "network")
        .collect();
    let report = run(&beds, &experiments);
    let failed: Vec<String> = report
        .failed_gates()
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    assert!(
        failed.is_empty(),
        "gated claims failed:\n{}",
        failed.join("\n")
    );

    // Shared state is built once: the StudIP bed plus the mixed-merge
    // ablation, and Figures 11-13 read one 24-cell grid.
    assert_eq!((report.beds_built, report.grid_cells_evaluated), (2, 24));
    assert_eq!(report.sections.len(), 11);
    for section in &report.sections {
        assert!(
            !section.tables.is_empty(),
            "{} printed no table",
            section.name
        );
        assert!(section.claims.iter().any(|c| c.gate) || section.name == "fig10");
        for claim in &section.claims {
            assert!(
                !claim.measured.is_empty(),
                "{} measured nothing",
                claim.source
            );
            assert_eq!(claim.differs().is_none(), claim.holds());
            // A recorded difference names the numbers and the reason.
            assert!(claim.gate || claim.holds() || claim.differs().unwrap().contains(claim.why));
        }
        // Floats reach a table through `fmt`: at most six decimals.
        let cells = section.tables.iter().flat_map(|t| t.rows.iter().flatten());
        for cell in cells.filter(|c| c.parse::<f64>().is_ok()) {
            let decimals = cell.split_once('.').map_or(0, |(_, d)| d.len());
            assert!(decimals <= 6, "{}: unformatted cell {cell}", section.name);
        }
    }

    // The paper sentences this reproduction contradicts stay visible as
    // findings instead of being tuned away (README "Reproduction").
    let differing: Vec<&str> = report
        .claims()
        .filter(|c| !c.holds())
        .map(|c| c.source)
        .collect();
    assert_eq!(differing, ["Fig 10, §6.4", "Fig 13, §6.5", "Fig 13, §6.5"]);
}
