//! What an experiment returns and how a run is rendered: table rows, the
//! claims checked against the paper, the aligned text tables with their
//! `csv,` mirror, and the single `REPRO.json` document.

use std::fmt::Write;

/// Formats a float compactly.
pub fn fmt(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.6}")
    }
}

/// Builds one table row; floats go through [`fmt`] first.
#[macro_export]
macro_rules! row {
    ($($cell:expr),+ $(,)?) => { vec![$($cell.to_string()),+] };
}

/// One table of a figure or of a paper table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Heading printed above the table.
    pub title: String,
    /// Comma-separated column names: the `csv,` header line as it is printed.
    pub headers: &'static str,
    /// The rows, one printed cell per column.
    pub rows: Vec<Vec<String>>,
}

/// One qualitative statement of the paper, checked against this run.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Where the paper makes the statement (figure, section, equation).
    pub source: &'static str,
    /// The statement.
    pub statement: &'static str,
    /// Whether a run in which the statement does not hold must fail.  A
    /// claim is only recorded where the synthetic corpora at a small scale
    /// may legitimately differ from the paper's collections.
    pub gate: bool,
    /// Every observation this run made for the statement.
    pub measured: Vec<String>,
    /// The observations that contradict it; empty when the statement holds.
    pub against: Vec<String>,
    /// For a recorded claim: why this reproduction differs when it does.
    pub why: &'static str,
}

impl Claim {
    /// A claim the run must satisfy.
    pub fn gated(source: &'static str, statement: &'static str) -> Self {
        let (gate, why) = (true, "");
        let (measured, against) = (Vec::new(), Vec::new());
        Claim {
            source,
            statement,
            gate,
            measured,
            against,
            why,
        }
    }

    /// A claim that is recorded either way; `why` explains a difference.
    pub fn recorded(source: &'static str, statement: &'static str, why: &'static str) -> Self {
        let gate = false;
        Claim {
            gate,
            why,
            ..Claim::gated(source, statement)
        }
    }

    /// Records one observation and whether it agrees with the statement.
    pub fn note(&mut self, agrees: bool, observation: String) {
        if !agrees {
            self.against.push(observation.clone());
        }
        self.measured.push(observation);
    }

    /// Whether this run agrees with the paper's statement.
    pub fn holds(&self) -> bool {
        self.against.is_empty()
    }

    /// What contradicts the statement (and why it may), if anything does.
    pub fn differs(&self) -> Option<String> {
        let against = self.against.join("; ");
        match (self.holds(), self.gate) {
            (true, _) => None,
            (false, true) => Some(against),
            (false, false) => Some(format!("{against} — {}", self.why)),
        }
    }
}

/// Everything one experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Experiment name as given on the command line.
    pub name: &'static str,
    /// What the paper's figure or table shows.
    pub title: &'static str,
    /// The figure's or table's data.
    pub tables: Vec<Table>,
    /// The paper's statements about it, evaluated.
    pub claims: Vec<Claim>,
}

impl Section {
    /// Appends one table.
    pub fn table(
        &mut self,
        title: impl Into<String>,
        headers: &'static str,
        rows: Vec<Vec<String>>,
    ) {
        let title = title.into();
        self.tables.push(Table {
            title,
            headers,
            rows,
        });
    }

    /// Evaluates a gated claim that rests on a single observation.
    pub fn gate(
        &mut self,
        source: &'static str,
        statement: &'static str,
        agrees: bool,
        observation: String,
    ) {
        let mut claim = Claim::gated(source, statement);
        claim.note(agrees, observation);
        self.claims.push(claim);
    }
}

/// One `zerber_repro` run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Corpus scale relative to the paper's datasets.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Test beds built during the run (datasets plus ablation beds).
    pub beds_built: usize,
    /// `(dataset, k, b)` workload replays executed.
    pub grid_cells_evaluated: usize,
    /// One section per experiment, in execution order.
    pub sections: Vec<Section>,
}

impl Report {
    /// Every claim of the run.
    pub fn claims(&self) -> impl Iterator<Item = &Claim> {
        self.sections.iter().flat_map(|s| s.claims.iter())
    }

    /// The gated claims that do not hold; a non-empty result fails the run.
    pub fn failed_gates(&self) -> Vec<&Claim> {
        self.claims().filter(|c| c.gate && !c.holds()).collect()
    }

    /// Aligned text tables, each followed by its `csv,` lines, then the
    /// experiment's claims; a summary line closes the report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            let _ = writeln!(out, "\n=== {} — {} ===", section.name, section.title);
            for table in &section.tables {
                render_table(&mut out, table);
            }
            let _ = writeln!(out, "\nclaims ({}):", section.name);
            for claim in &section.claims {
                let verdict = if claim.holds() { "holds" } else { "DIFFERS" };
                let kind = if claim.gate { "gate" } else { "recorded" };
                let (source, statement) = (claim.source, claim.statement);
                let _ = writeln!(out, "  [{verdict}] ({kind}) {source}: {statement}");
                let _ = writeln!(out, "      measured: {}", claim.measured.join("; "));
                if let Some(reason) = claim.differs() {
                    let _ = writeln!(out, "      differs: {reason}");
                }
            }
        }
        let total = self.claims().count();
        let differing = self.claims().filter(|c| !c.holds()).count();
        let _ = writeln!(
            out,
            "\nscale {}, seed {}: {} beds built, {} grid cells evaluated; {total} claims, {} hold, \
             {differing} differ, {} gated claims failed",
            self.scale,
            self.seed,
            self.beds_built,
            self.grid_cells_evaluated,
            total - differing,
            self.failed_gates().len()
        );
        out
    }

    /// The run as one JSON document (`REPRO.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scale\":{},\"seed\":{},\"beds_built\":{},\"grid_cells_evaluated\":{},\
             \"gated_claims_failed\":{},\"experiments\":{}}}\n",
            self.scale,
            self.seed,
            self.beds_built,
            self.grid_cells_evaluated,
            self.failed_gates().len(),
            json_list(&self.sections, section_json)
        )
    }
}

fn render_table(out: &mut String, table: &Table) {
    let rows = &table.rows;
    let headers: Vec<&str> = table.headers.split(',').collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let align = |cells: &mut dyn Iterator<Item = &str>| -> String {
        let padded: Vec<String> = cells
            .zip(&widths)
            .map(|(cell, &w)| format!("{cell:>w$}"))
            .collect();
        padded.join(" | ")
    };
    let header = align(&mut headers.iter().copied());
    let rule = "-".repeat(header.len());
    let _ = writeln!(out, "\n--- {} ---\n{header}\n{rule}", table.title);
    for row in rows {
        let _ = writeln!(out, "{}", align(&mut row.iter().map(String::as_str)));
    }
    let _ = writeln!(out, "csv,{}", table.headers);
    for row in rows {
        let _ = writeln!(out, "csv,{}", row.join(","));
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A printed cell that reads as a finite number stays one in the document.
fn json_cell(cell: &str) -> String {
    let number = cell.parse::<f64>().ok().filter(|x| x.is_finite());
    number.map_or_else(|| json_string(cell), |x| x.to_string())
}

fn json_list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(item).collect();
    format!("[{}]", items.join(","))
}

fn section_json(section: &Section) -> String {
    let table = |t: &Table| {
        format!(
            "{{\"title\":{},\"headers\":{},\"rows\":{}}}",
            json_string(&t.title),
            json_list(&t.headers.split(',').collect::<Vec<_>>(), |h| json_string(
                h
            )),
            json_list(&t.rows, |row| json_list(row, |cell| json_cell(cell)))
        )
    };
    let claim = |c: &Claim| {
        format!(
            "{{\"source\":{},\"statement\":{},\"measured\":{},\"gate\":{},\"holds\":{},\"differs\":{}}}",
            json_string(c.source),
            json_string(c.statement),
            json_string(&c.measured.join("; ")),
            c.gate,
            c.holds(),
            c.differs().map_or("null".to_string(), |d| json_string(&d))
        )
    };
    format!(
        "\n{{\"name\":{},\"title\":{},\n \"tables\":{},\n \"claims\":{}}}",
        json_string(section.name),
        json_string(section.title),
        json_list(&section.tables, table),
        json_list(&section.claims, claim)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(agrees: bool, gate: bool) -> Report {
        let (tables, claims) = (Vec::new(), Vec::new());
        let mut section = Section {
            name: "fig00",
            title: "a \"quoted\" title",
            tables,
            claims,
        };
        if gate {
            section.gate("Fig 0", "s", agrees, "m".to_string());
        } else {
            let mut claim = Claim::recorded("Fig 0", "s", "why");
            claim.note(agrees, "m".to_string());
            section.claims.push(claim);
        }
        let rows = vec![row![10usize, fmt(2.5)], row!["x\ny", fmt(f64::NAN)]];
        section.table("t", "b,AvBO k=1", rows);
        Report {
            scale: 0.02,
            seed: 42,
            beds_built: 1,
            grid_cells_evaluated: 0,
            sections: vec![section],
        }
    }

    #[test]
    fn only_a_gated_claim_that_differs_fails_the_run() {
        assert!(report(true, true).failed_gates().is_empty());
        let recorded = report(false, false);
        assert!(recorded.failed_gates().is_empty());
        assert!(recorded.render_text().contains("differs: m — why"));
        let failing = report(false, true);
        assert_eq!(failing.failed_gates().len(), 1);
        assert!(failing.render_text().contains("[DIFFERS] (gate) Fig 0: s"));
        assert!(failing.render_text().contains("1 gated claims failed"));
        assert!(failing.to_json().contains("\"gated_claims_failed\":1"));
    }

    #[test]
    fn text_keeps_the_csv_mirror_and_json_keeps_numbers_and_escapes() {
        let r = report(true, true);
        let text = r.render_text();
        assert!(text.contains(" b | AvBO k=1\n"));
        assert!(text.contains("csv,b,AvBO k=1\ncsv,10,2.500\ncsv,x\ny,NaN\n"));
        let json = r.to_json();
        assert!(json.contains("\"rows\":[[10,2.5],[\"x\\ny\",\"NaN\"]]"));
        assert!(json.contains("\"title\":\"a \\\"quoted\\\" title\""));
        assert!(json.contains("\"holds\":true,\"differs\":null"));
    }
}
