//! The twelve experiments of the paper's evaluation, each defined once.
//!
//! An experiment reads what it needs from the shared [`Beds`], fills a
//! [`Section`] with the figure's rows and evaluates the paper's statements
//! about them.  A statement is *gated* as far as a seeded run on the
//! synthetic stand-in corpora supports it; where the paper quotes a number
//! that depends on its real collections the claim is *recorded* with the
//! measured values instead — never tuned until it passes.

use std::collections::{HashMap, HashSet};

use zerber_adversary::{
    identification_experiment, request_counting_attack, unmerge_attack, Background,
    FingerprintReport, ObservedElement, RequestCountingReport, UnmergeReport,
};
use zerber_base::{check_merged_terms, ConfidentialityParam, SEALED_PAYLOAD_BYTES};
use zerber_corpus::{DatasetProfile, TermId, TermStats};
use zerber_protocol::{
    NetworkModel, ResponseBreakdown, ALTAVISTA_TOP10_BYTES, ELEMENT_HEADER_BYTES,
    GOOGLE_TOP10_BYTES, SNIPPET_BYTES, YAHOO_TOP10_BYTES,
};
use zerber_r::math::{ks_two_sample, std_normal_pdf};
use zerber_r::{cross_validate, default_sigma_grid, uniformity_variance};
use zerber_r::{GaussianSum, RstfKernel, SigmaPoint, TRS_BYTES};
use zerber_workload::{
    average_bandwidth_overhead, average_requests, cumulative_workload_curve,
    efficiency_at_percentiles, single_request_fraction, workload_cost, MergeKind, QuerySample,
    TestBed, TestBedConfig,
};

use crate::report::{fmt, Claim, Report, Section};
use crate::{query_log, row, Beds};

/// One figure or table of the paper's evaluation: the name given on the
/// command line, what it shows, and the function that produces it.
pub type Experiment = (&'static str, &'static str, fn(&Beds, &mut Section));

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: [Experiment; 12] = [
    ("fig04", "Figure 4: TF distributions of two terms", fig04),
    ("fig05", "Figure 5: normalized TF of the same terms", fig05),
    ("fig07", "Figure 7: density from 5 training values", fig07),
    ("fig08", "Figure 8: example RSTF", fig08),
    ("fig09", "Figure 9: control-set variance vs sigma", fig09),
    ("fig10", "Figure 10: cumulative top-10 workload", fig10),
    ("fig11", "Figure 11: bandwidth overhead AvBO vs b", fig11),
    ("fig12", "Figure 12: average requests vs b", fig12),
    ("fig13", "Figure 13: query efficiency QRatio_eff", fig13),
    ("security", "Section 6.2: security guarantees", security),
    ("storage", "Section 6.3: storage overhead", storage),
    ("network", "Section 6.6: network bandwidth", network),
];

/// Runs `experiments` in order over the shared beds.
pub fn run(beds: &Beds, experiments: &[&Experiment]) -> Report {
    let sections = experiments.iter().map(|&&(name, title, body)| {
        let (tables, claims) = (Vec::new(), Vec::new());
        let mut section = Section {
            name,
            title,
            tables,
            claims,
        };
        body(beds, &mut section);
        section
    });
    let sections = sections.collect();
    let (scale, seed, beds_built) = (beds.scale, beds.seed, beds.beds_built.get());
    let grid_cells_evaluated = beds.cells_evaluated.get();
    Report {
        scale,
        seed,
        beds_built,
        grid_cells_evaluated,
        sections,
    }
}

/// The `k` columns and `b` rows of Figures 11 and 12; Figure 13 reads the
/// `k = 10` column at `b = 10, 20, 50`.
const KS: [usize; 3] = [1, 10, 50];
const BS: [usize; 8] = [1, 2, 5, 10, 20, 50, 100, 200];

/// Ranks spaced by `factor`, as read off a log-scale axis.
fn log_ranks(len: usize, factor: f64) -> Vec<usize> {
    let mut ranks = Vec::new();
    let mut rank = 1usize;
    while rank <= len {
        ranks.push(rank);
        rank = (rank as f64 * factor).ceil() as usize;
    }
    ranks
}

/// The stand-ins for the paper's "nicht" and "management": the most
/// document-frequent term and a mid-frequency one.
fn frequent_and_less_frequent(bed: &TestBed) -> [(&'static str, &TermStats); 2] {
    let order = bed.stats.terms_by_doc_freq();
    let df = |t: TermId| bed.stats.doc_freq(t).unwrap_or(0);
    let mid = |t: &TermId| df(*t) >= 10 && df(*t) * 8 <= df(order[0]);
    let less_frequent = order.iter().copied().find(mid);
    let less_frequent = less_frequent.unwrap_or(order[order.len() / 20]);
    let stats = |t| bed.stats.term(t).expect("ranked term has statistics");
    [
        ("frequent", stats(order[0])),
        ("less-frequent", stats(less_frequent)),
    ]
}

/// The TRS the server stores for every posting of a term.
fn trs_values(bed: &TestBed, term: &TermStats) -> Vec<f64> {
    let trs = |&(doc, _, rel)| bed.model.transform(term.term, doc, rel);
    term.postings.iter().map(trs).collect()
}

/// Share of the query volume whose sample satisfies `keep`.
fn share(samples: &[QuerySample], keep: impl Fn(&QuerySample) -> bool) -> f64 {
    let weight = |s: &QuerySample| s.query_freq as f64;
    let kept = samples.iter().filter(|s| keep(s)).map(weight);
    kept.fold(0.0, |a, w| a + w) / samples.iter().map(weight).sum::<f64>().max(1.0)
}

/// One row per `b`: `b`, then `metric(k, b)` for the three `k` columns.
fn grid_rows(metric: impl Fn(usize, usize) -> f64) -> Vec<Vec<String>> {
    let row_at = |&b: &usize| {
        let mut row = row![b];
        row.extend(KS.iter().map(|&k| fmt(metric(k, b))));
        row
    };
    BS.iter().map(row_at).collect()
}

fn fig04(beds: &Beds, s: &mut Section) {
    let bed = beds.studip();
    let (docs, terms, scale) = (bed.corpus.num_docs(), bed.corpus.num_terms(), beds.scale);
    let mut title = format!("TF by document rank ({docs} docs, {terms} terms, scale {scale}");
    let mut rows = Vec::new();
    let mut ranges = Vec::new();
    for (label, stats) in frequent_and_less_frequent(bed) {
        let tf = stats.tf_distribution();
        let (term, df) = (stats.term, stats.doc_freq);
        title += &format!("; {label} term {term}: document frequency {df}");
        for rank in log_ranks(tf.len(), 1.6) {
            let (tf, log_rank) = (tf[rank - 1], fmt((rank as f64).log10()));
            let log_tf = fmt(f64::from(tf).max(1.0).log10());
            rows.push(row![label, rank, tf, log_rank, log_tf]);
        }
        ranges.push((tf[0], tf[0] - tf[tf.len() - 1]));
    }
    s.table(title + ")", "term,rank,tf,log10(rank),log10(tf)", rows);
    let ((top_f, span_f), (top_l, span_l)) = (ranges[0], ranges[1]);
    let measured = format!("max TF {top_f} vs {top_l}, TF range {span_f} vs {span_l}");
    s.gate(
        "Fig 4, §4.2",
        "TF distributions are term specific: the frequent term sits higher and spans a wider range",
        top_f > top_l && span_f > span_l,
        measured,
    );
}

fn fig05(beds: &Beds, s: &mut Section) {
    let bed = beds.studip();
    let terms = frequent_and_less_frequent(bed);
    let mut rows = Vec::new();
    for (label, stats) in terms {
        let norm = stats.normalized_tf_distribution();
        for rank in log_ranks(norm.len(), 1.6) {
            let (value, log_rank) = (norm[rank - 1], fmt((rank as f64).log10()));
            let log_value = fmt(value.max(1e-9).log10());
            rows.push(row![label, rank, fmt(value), log_rank, log_value]);
        }
    }
    let headers = "term,rank,tf/|d|,log10(rank),log10(tf/|d|)";
    s.table("normalized TF by document rank", headers, rows);
    let [frequent, less_frequent] = terms.map(|(_, stats)| stats);
    let raw = ks_two_sample(
        &frequent.relevance_scores(),
        &less_frequent.relevance_scores(),
    );
    let trs = ks_two_sample(&trs_values(bed, frequent), &trs_values(bed, less_frequent));
    let measured = format!("two-sample KS distance {raw:.3} on raw scores, {trs:.3} on TRS");
    s.gate(
        "Figs 5/8, §4.2",
        "normalized-TF distributions stay term specific; after the RSTF the two terms' \
         distributions are no longer distinguishable (KS distance below 0.35 and halved)",
        trs < raw / 2.0 && trs < 0.35,
        measured,
    );
}

fn fig07(_beds: &Beds, s: &mut Section) {
    // Five training relevance scores, mimicking the clustered-plus-outlier
    // shape of the paper's illustration.
    let training = [0.12, 0.18, 0.22, 0.27, 0.55];
    let sigma = 18.0;
    let model = GaussianSum::new(&training, sigma).expect("valid model");
    let curve = model.sample_curve(0.0, 0.8, 33);
    let bells = |&(x, total): &(f64, f64)| {
        let bell = |mu: &f64| sigma * std_normal_pdf(sigma * (x - mu)) / training.len() as f64;
        let mut row = row![fmt(x), fmt(total)];
        row.extend(training.iter().map(|mu| fmt(bell(mu))));
        row
    };
    let headers = "score x,sum f(x),bell_1,bell_2,bell_3,bell_4,bell_5";
    let title = format!("density accumulated from {training:?}, sigma (rate) = {sigma}");
    s.table(title, headers, curve.iter().map(bells).collect());
    let by_density = |a: &&(f64, f64), b: &&(f64, f64)| a.1.total_cmp(&b.1);
    let (peak_x, peak) = *curve.iter().max_by(by_density).expect("33 samples");
    let beyond = curve.iter().filter(|p| p.0 >= 0.4);
    let (bump_x, bump) = *beyond.max_by(by_density).expect("samples beyond 0.4");
    let agrees = (0.1..=0.3).contains(&peak_x) && (0.5..=0.6).contains(&bump_x) && bump < peak;
    let measured =
        format!("peak f({peak_x:.3}) = {peak:.3}; beyond 0.4, f({bump_x:.3}) = {bump:.3}");
    s.gate(
        "Fig 7, Eq 5",
        "the accumulated density is highest where training values cluster (0.1-0.3) and shows a \
         smaller bump at the isolated value",
        agrees,
        measured,
    );
}

fn fig08(beds: &Beds, s: &mut Section) {
    let bed = beds.studip();
    // The paper plots "Vergütung", a content word of moderate document
    // frequency: pick the trained term closest to df = 20.
    let trained = bed
        .stats
        .terms()
        .filter(|t| bed.model.rstf(t.term).is_some());
    let stats = trained.min_by_key(|t| (i64::from(t.doc_freq) - 20).abs());
    let stats = stats.expect("some trained term exists");
    let rstf = bed.model.rstf(stats.term).expect("trained");
    let (term, df, n, sigma) = (
        stats.term,
        stats.doc_freq,
        rstf.training_len(),
        rstf.sigma(),
    );
    let kernel = rstf.kernel();
    let title = format!(
        "RSTF of term {term}: document frequency {df}, trained on {n} scores, sigma = {sigma:.1}, \
         kernel = {kernel:?}"
    );
    let max_score = stats.normalized_tf_distribution().first().copied();
    let curve = rstf.sample_curve(0.0, (max_score.unwrap_or(0.2) * 1.5).min(1.0), 41);
    let rows = curve.iter().map(|&(x, y)| row![fmt(x), fmt(y)]);
    s.table(title, "relevance score,TRS", rows.collect());
    let falls = curve.windows(2).filter(|w| w[1].1 < w[0].1).count();
    let (lo, hi) = (curve[0].1, curve[curve.len() - 1].1);
    let measured = format!("TRS {lo:.3} at score 0 rising to {hi:.6}, {falls} decreasing steps");
    s.gate(
        "Fig 8, §5.1",
        "the RSTF increases monotonically from ~0 to ~1 over the term's score range",
        falls == 0 && lo < 0.25 && hi > 0.95,
        measured,
    );
}

fn fig09(beds: &Beds, s: &mut Section) {
    let bed = beds.studip();
    // Per-term sweep for the most document-frequent trained term (enough
    // training and control scores for a stable curve).
    let training_docs: HashSet<_> = bed.split.training.iter().copied().collect();
    let control_docs: HashSet<_> = bed.split.control.iter().copied().collect();
    let by_df = bed.stats.terms_by_doc_freq();
    let term = by_df.into_iter().find(|&t| bed.model.rstf(t).is_some());
    let term = term.expect("a trained term exists");
    let (mut training, mut control) = (Vec::new(), Vec::new());
    for &(doc, _, rel) in &bed.stats.term(term).expect("term exists").postings {
        if training_docs.contains(&doc) {
            training.push(rel);
        } else if control_docs.contains(&doc) {
            control.push(rel);
        }
    }
    let grid = default_sigma_grid();
    let sweep = |kernel| cross_validate(&training, &control, &grid, kernel);
    let logistic = sweep(RstfKernel::Logistic).expect("cross-validation succeeds");
    let erf = sweep(RstfKernel::Erf).expect("cross-validation succeeds");
    let curve = &logistic.curve;
    let rows = curve.iter().zip(&erf.curve);
    let rows = rows.map(|(l, e)| row![fmt(l.sigma), fmt(l.variance), fmt(e.variance)]);
    let (n_train, n_control) = (training.len(), control.len());
    let floor = 1.0 / (6.0 * (n_control as f64 + 2.0));
    let (best_sigma, best) = (logistic.best_sigma, logistic.best_variance);
    let (erf_sigma, erf_best) = (erf.best_sigma, erf.best_variance);
    let title = format!(
        "control-set TRS variance per sigma, term {term}: {n_train} training and {n_control} control \
         scores (uniform-sample floor {floor:.2e}); selected sigma {best_sigma:.1} with variance \
         {best:.2e} (erf kernel: {erf_sigma:.1} / {erf_best:.2e})"
    );
    let headers = "sigma,variance (logistic kernel),variance (erf kernel)";
    s.table(title, headers, rows.collect());
    let (first, last) = (&curve[0], &curve[curve.len() - 1]);
    let (v0, s0, v1, s1) = (first.variance, first.sigma, last.variance, last.sigma);
    let floor_at = curve.iter().position(|p| p.sigma == best_sigma);
    let interior = floor_at.is_some_and(|i| i > 0 && i + 1 < curve.len());
    let measured = format!(
        "variance {v0:.4} at sigma {s0:.0}, minimum {best:.4} at sigma {best_sigma:.1}, {v1:.4} at sigma {s1:.0}"
    );
    s.gate(
        "Fig 9, §5.1.3",
        "the control-set variance first falls with growing sigma, reaches a minimum, then rises",
        interior && v0 > best && v1 > best,
        measured,
    );
    // The sigma the trained model really uses for this term, read off the
    // per-term curve at the nearest grid point.
    let used = bed.model.rstf(term).expect("trained").sigma();
    let distance = |p: &SigmaPoint| (p.sigma - used).abs();
    let nearest = curve
        .iter()
        .min_by(|a, b| distance(a).total_cmp(&distance(b)));
    let at_used = nearest.expect("non-empty grid").variance;
    let measured =
        format!("the model uses sigma {used:.1}: variance {at_used:.4}, floor {best:.4}");
    s.gate(
        "Fig 9, §5.1",
        "cross-validation selects a sigma in the neighbourhood of the variance floor (within 25 %)",
        at_used <= 1.25 * best,
        measured,
    );
}

fn fig10(beds: &Beds, s: &mut Section) {
    let mut saturates = Claim::recorded(
        "Fig 10, §6.4",
        "the cumulative workload saturates quickly: the most frequent queries account for nearly \
         the whole workload",
        "the synthetic log's frequent query terms are also document-frequent, so each of their \
         queries is cheap under Equation 9 and the tail carries the cost",
    );
    for profile in beds.profiles() {
        let (bed, name) = (beds.bed(profile), profile.name());
        let log = query_log(bed, 2_000, 1_000_000);
        let (total, per_term) = workload_cost(&bed.stats, &bed.plan, &log, 10).expect("cost model");
        let curve = cumulative_workload_curve(&per_term);
        let (distinct, volume, total) = (log.distinct_terms(), log.total_queries(), fmt(total));
        let title = format!(
            "cumulative workload by query-frequency rank ({name}): {distinct} distinct query terms, \
             {volume} queries, total analytical workload {total} elements"
        );
        // Besides the Equation 9 cost the table shows the cumulative share of
        // raw query volume, which is the quantity that saturates fastest.
        let total_freq: f64 = curve.iter().map(|p| p.query_freq as f64).sum();
        let mut acc = 0.0;
        let cumulative = |freq: u64| {
            acc += freq as f64;
            acc / total_freq * 100.0
        };
        let queries: Vec<f64> = curve.iter().map(|p| p.query_freq).map(cumulative).collect();
        let cost = |rank: usize| curve[rank - 1].cumulative_cost_fraction * 100.0;
        let mut ranks = log_ranks(curve.len(), 1.8);
        ranks.push(curve.len());
        let freq = |rank: usize| curve[rank - 1].query_freq;
        let row_at = |r: usize| row![r, freq(r), fmt(queries[r - 1]), fmt(cost(r))];
        s.table(
            title,
            "rank (log axis),query freq,cumulative queries %,cumulative top-10 workload % (Eq. 9)",
            ranks.into_iter().map(row_at).collect(),
        );
        let (len, decile) = (curve.len(), (curve.len() / 10).max(1));
        let (top_queries, top_cost) = (queries[decile - 1], cost(decile));
        let needed = (1..=len).find(|&rank| cost(rank) >= 90.0).unwrap_or(len);
        let measured = format!(
            "{name}: the most frequent 10 % of the terms (ranks 1-{decile}) carry {top_queries:.0} % of \
             the queries and {top_cost:.0} % of the Eq. 9 workload; 90 % of it needs ranks 1-{needed} of {len}"
        );
        saturates.note(top_cost >= 90.0, measured);
    }
    s.claims.push(saturates);
}

fn fig11(beds: &Beds, s: &mut Section) {
    let mut above = Claim::gated(
        "Fig 11, Eq 13",
        "enlarging the initial response beyond k only adds overhead: AvBO at every b >= 2k is \
         strictly above AvBO at b = k",
    );
    let mut around = Claim::gated(
        "Fig 11, §6.4",
        "the minimal bandwidth overhead is achieved around b = k: no b < k undercuts b = k by more \
         than 10 %",
    );
    for profile in beds.profiles() {
        let (name, scale) = (profile.name(), beds.scale);
        let avbo = |k: usize, b: usize| average_bandwidth_overhead(&beds.cell(profile, k, b), k);
        let title = format!("AvBO vs initial response size b ({name}, scale {scale})");
        s.table(title, "b,AvBO k=1,AvBO k=10,AvBO k=50", grid_rows(avbo));
        for k in KS {
            let at_k = avbo(k, k);
            let lowest = |keep: fn(usize, usize) -> bool| {
                let kept = BS.iter().filter(|&&b| keep(b, k));
                kept.map(|&b| avbo(k, b)).fold(f64::INFINITY, f64::min)
            };
            let (larger, smaller) = (lowest(|b, k| b >= 2 * k), lowest(|b, k| b < k));
            let at = format!("{name} k={k}: AvBO {at_k:.3} at b=k");
            above.note(
                larger > at_k,
                format!("{at}, lowest {larger:.3} over b>=2k"),
            );
            if smaller.is_finite() {
                around.note(
                    smaller >= 0.9 * at_k,
                    format!("{at}, lowest {smaller:.3} over b<k"),
                );
            }
        }
    }
    s.claims.extend([above, around]);
}

fn fig12(beds: &Beds, s: &mut Section) {
    let mut falling = Claim::gated(
        "Fig 12, §6.5",
        "the average number of requests never increases with a larger initial response b",
    );
    let mut within_two = Claim::gated(
        "Fig 12, §4.1 attack 2",
        "with b = 10 and doubling follow-ups most of the top-10 workload completes within 2 \
         requests (30 elements)",
    );
    let mut doubling = Claim::gated(
        "Fig 12, Eq 12",
        "follow-up responses double: a query answered in n requests received TRes = b(2^n - 1) \
         elements, fewer only when the list ran out in the last response",
    );
    for profile in beds.profiles() {
        let (name, scale) = (profile.name(), beds.scale);
        let requests = |k: usize, b: usize| average_requests(&beds.cell(profile, k, b));
        let off_schedule = |b: usize, s: &QuerySample| {
            let full_rounds = |n: usize| b * ((1usize << n.min(40)) - 1);
            let received = s.elements_transferred;
            received > full_rounds(s.requests) || received <= full_rounds(s.requests - 1)
        };
        let mut outside = 0;
        for (k, b) in KS.iter().flat_map(|&k| BS.map(|b| (k, b))) {
            let samples = beds.cell(profile, k, b);
            let answered = samples.iter().filter(|s| s.elements_transferred > 0);
            outside += answered.filter(|s| off_schedule(b, s)).count();
        }
        let measured =
            format!("{name}: {outside} sampled queries of the 24 cells off the schedule");
        doubling.note(outside == 0, measured);
        let mut rows = grid_rows(requests);
        for (row, b) in rows.iter_mut().zip(BS) {
            let in_one = single_request_fraction(&beds.cell(profile, 10, b));
            row.push(fmt(in_one * 100.0));
        }
        s.table(
            format!("average number of requests vs b ({name}, scale {scale})"),
            "b,requests k=1,requests k=10,requests k=50,% of k=10 workload in 1 request",
            rows,
        );
        for k in KS {
            let series: Vec<f64> = BS.iter().map(|&b| requests(k, b)).collect();
            let (first, last) = (series[0], series[series.len() - 1]);
            let measured = format!("{name} k={k}: {first:.3} requests at b=1, {last:.3} at b=200");
            falling.note(series.windows(2).all(|w| w[1] <= w[0]), measured);
        }
        let in_two = |s: &QuerySample| s.satisfied && s.requests <= 2;
        let done = share(&beds.cell(profile, 10, 10), in_two) * 100.0;
        let measured =
            format!("{name}: {done:.1} % of the k=10 workload within 2 requests at b=10");
        within_two.note(done > 50.0, measured);
    }
    s.claims.extend([falling, within_two, doubling]);
}

fn fig13(beds: &Beds, s: &mut Section) {
    let (k, bs) = (10usize, [10usize, 20, 50]);
    let percentiles: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
    let mut ceiling = Claim::gated(
        "Fig 13, Eq 14",
        "only b = k lets a query reach QRatio_eff = 1; for b > k the efficiency ceiling is k / b",
    );
    let mut sixty = Claim::recorded(
        "Fig 13, §6.5",
        "with b = 10 about 60 % of the workload reaches QRatio_eff = 1",
        "the share is the part of the query volume whose term owns the first 10 elements of its \
         merged list, which the synthetic corpora's flatter head makes smaller",
    );
    let mut lower = Claim::recorded(
        "Fig 13, §6.5",
        "larger initial responses lower the efficiency curve everywhere",
        "in the tail a query needs more than 50 elements whatever b is, and doubling from a larger \
         b overshoots less often",
    );
    for profile in beds.profiles() {
        let (name, scale) = (profile.name(), beds.scale);
        let curve = |b| efficiency_at_percentiles(&beds.cell(profile, k, b), k, &percentiles);
        let curves = bs.map(curve);
        let row_at = |i: usize| {
            let mut row = row![format!("{:.0}%", percentiles[i])];
            row.extend(curves.iter().map(|curve| fmt(curve[i].1)));
            row
        };
        s.table(
            format!("QRatio_eff over the workload (k = 10, {name}, scale {scale})"),
            "workload percentile,b=10,b=20,b=50",
            (0..percentiles.len()).map(row_at).collect(),
        );
        for (i, b) in bs.into_iter().enumerate() {
            let samples = beds.cell(profile, k, b);
            let answered = samples.iter().filter(|s| s.elements_transferred > 0);
            let best = answered.map(|s| s.efficiency(k)).fold(0.0, f64::max);
            // A query that found nothing transferred nothing and is not
            // "efficient": only satisfied queries count towards the share.
            let no_waste = |s: &QuerySample| s.satisfied && s.elements_transferred <= k;
            let full = share(&samples, no_waste) * 100.0;
            let agrees = best == k as f64 / b as f64 && (full > 0.0) == (b == k);
            let measured = format!(
                "{name} b={b}: best QRatio_eff {best:.3}, {full:.1} % of the workload at 1"
            );
            ceiling.note(agrees, measured);
            if b == k {
                sixty.note(
                    (50.0..=70.0).contains(&full),
                    format!("{name}: {full:.1} %"),
                );
                continue;
            }
            let above = (0..percentiles.len()).filter(|&p| curves[i][p].1 > curves[i - 1][p].1);
            let above: Vec<String> = above.map(|p| format!("{:.0}%", percentiles[p])).collect();
            let (smaller_b, n, at) = (bs[i - 1], above.len(), above.join("/"));
            let measured =
                format!("{name}: b={b} is above b={smaller_b} at {n} of 10 percentiles ({at})");
            lower.note(above.is_empty(), measured);
        }
    }
    s.claims.extend([ceiling, sixty, lower]);
}

/// Scores of one term as the server of an ordinary index (raw) or of a
/// Zerber+R index (TRS) sees them.
type Exposure<'a> = &'a dyn Fn(&TermStats) -> Vec<f64>;

/// Attack 1 of Section 6.2 on one bed: how often the adversary names the term
/// behind a score distribution (5 candidates, terms with at least `min_df`
/// postings), from the raw scores of an ordinary index and from the TRS.
pub fn fingerprint_audit(bed: &TestBed, min_df: u32, seed: u64) -> [FingerprintReport; 2] {
    let background = Background::from_stats(&bed.stats);
    let attack = |scores: Exposure| {
        let frequent = bed.stats.terms().filter(|t| t.doc_freq >= min_df);
        let observed: HashMap<TermId, Vec<f64>> = frequent.map(|t| (t.term, scores(t))).collect();
        identification_experiment(&background, &observed, 4, min_df as usize, seed)
    };
    [
        attack(&TermStats::relevance_scores),
        attack(&|t| trs_values(bed, t)),
    ]
}

fn security(beds: &Beds, s: &mut Section) {
    let bed = beds.studip();
    let (min_df, r) = (15u32, bed.config.r);
    let exposures: [(&str, Exposure); 2] = [
        ("raw normalized TF", &TermStats::relevance_scores),
        ("TRS (Zerber+R)", &|t| trs_values(bed, t)),
    ];

    // TRS uniformity per term.
    let frequent: Vec<&TermStats> = bed.stats.terms().filter(|t| t.doc_freq >= min_df).collect();
    let n = frequent.len();
    let [raw, trs] = exposures.map(|(label, scores)| {
        let vars = frequent.iter().map(|t| uniformity_variance(&scores(t)));
        let (sum, max) = vars.fold((0.0, 0.0), |(sum, max), v| (sum + v, f64::max(max, v)));
        (label, sum / n.max(1) as f64, max)
    });
    let rows = [raw, trs].map(|(label, mean, max)| row![label, fmt(mean), fmt(max), n]);
    s.table(
        "TRS uniformity (variance w.r.t. the uniform distribution, terms with df >= 15)",
        "score exposed to the server,mean variance,max variance,terms",
        rows.to_vec(),
    );
    let measured = format!(
        "mean variance {:.4} raw, {:.4} TRS over {n} terms",
        raw.1, trs.1
    );
    s.gate(
        "Fig 8, §4.2",
        "TRS values are far more uniform than raw scores: their variance from the uniform \
         distribution is an order of magnitude smaller",
        trs.1 * 10.0 <= raw.1,
        measured,
    );

    // Attack 1: distribution fingerprinting.
    let [raw_fp, trs_fp] = fingerprint_audit(bed, min_df, beds.seed);
    let labelled = [
        ("ordinary (raw scores)", raw_fp),
        ("Zerber+R (TRS)", trs_fp),
    ];
    let rows =
        labelled.map(|(label, fp)| row![label, fmt(fp.accuracy()), fmt(fp.advantage()), fp.trials]);
    s.table(
        "attack 1 — term identification from score distributions (5 candidates, chance 20%)",
        "index,accuracy,advantage over chance,trials",
        rows.to_vec(),
    );
    let (raw_acc, trs_acc, chance) = (raw_fp.accuracy(), trs_fp.accuracy(), trs_fp.chance_level());
    let trials = trs_fp.trials;
    let measured = format!(
        "accuracy {raw_acc:.3} on raw scores, {trs_acc:.3} on TRS (chance {chance:.2}, {trials} trials)"
    );
    s.gate(
        "§6.2 (a), §4.1 attack 1",
        "score distributions identify the term on an ordinary index (accuracy >= 0.9) and are \
         worth no more than a guess on TRS (at most twice the chance level)",
        raw_acc >= 0.9 && trs_acc <= 2.0 * chance,
        measured,
    );

    // Attack 2: unmerging a frequent+rare list (the Figure 3 scenario).
    let order = bed.stats.terms_by_doc_freq();
    let is_rare = |t: &TermId| (8..=25).contains(&bed.stats.doc_freq(*t).unwrap_or(0));
    let rare = order.iter().copied().find(is_rare);
    let pair = [order[0], rare.unwrap_or(order[order.len() / 2])];
    let pair = pair.map(|t| bed.stats.term(t).expect("ranked term has statistics"));
    let prior = |t: &&TermStats| (t.term, t.probability(bed.stats.num_docs()));
    let priors: HashMap<TermId, f64> = pair.iter().map(prior).collect();
    let known = |t: &&TermStats| (t.term, t.relevance_scores());
    let background: HashMap<TermId, Vec<f64>> = pair.iter().map(known).collect();
    let [raw_um, trs_um] = exposures.map(|(label, scores)| {
        let mut observed = Vec::new();
        for t in pair {
            let element = |visible_score| ObservedElement {
                truth: t.term,
                visible_score,
            };
            observed.extend(scores(t).into_iter().map(element));
        }
        (label, unmerge_attack(&observed, &background, &priors))
    });
    let row_of = |(label, um): (&str, UnmergeReport)| {
        let values = [um.accuracy(), um.prior_accuracy(), um.amplification(), r].map(fmt);
        [vec![label.to_string()], values.to_vec()].concat()
    };
    s.table(
        "attack 2 — element attribution in a frequent+rare merged list",
        "score exposed,accuracy,prior baseline,amplification,bound r",
        [raw_um, trs_um].map(row_of).to_vec(),
    );
    let bound = ConfidentialityParam::new(r).expect("the bed was built with a valid r");
    let amplification = |(_, terms): (_, &[TermId])| {
        let list = check_merged_terms(&bed.stats, terms, bound).expect("merged terms exist");
        list.amplification
    };
    let worst = bed.plan.iter().map(amplification).fold(0.0, f64::max);
    let (on_raw, on_trs) = (raw_um.1.amplification(), trs_um.1.amplification());
    let lists = bed.plan.num_lists();
    let measured = format!(
        "worst amplification {worst:.3} over {lists} merged lists, {on_trs:.3} for the attack on TRS \
         ({on_raw:.3} on raw scores), r = {r}"
    );
    s.gate(
        "§6.2, Definitions 1-2",
        "observing the index amplifies the adversary's belief by at most r, on every merged list \
         and for the unmerging attack on TRS",
        worst <= r + 1e-9 && on_trs <= r,
        measured,
    );

    // Attack 3: follow-up request counting, BFM vs the mixed-merge ablation.
    let merge = MergeKind::Mixed;
    let mixed = beds.build(TestBedConfig {
        merge,
        ..TestBedConfig::small(DatasetProfile::StudIp)
    });
    let count =
        |b: &TestBed| request_counting_attack(&b.index, &b.stats, &b.all_memberships, 10, 40);
    let bfm = count(bed).expect("attack runs");
    let mixed = count(&mixed).expect("attack runs");
    let row_of = |(label, rc): (&str, RequestCountingReport)| {
        let values = [rc.success_rate(), rc.mean_request_spread, rc.mean_requests].map(fmt);
        [row![label], values.to_vec(), row![rc.lists_tested]].concat()
    };
    s.table(
        "attack 3 — identifying the rare merged term from follow-up request counts (k = b = 10)",
        "merging scheme,rare term identified,mean request spread,mean requests,lists",
        [("BFM (paper)", bfm), ("mixed (ablation)", mixed)]
            .map(row_of)
            .to_vec(),
    );
    let (bfm_rate, mixed_rate) = (bfm.success_rate() * 100.0, mixed.success_rate() * 100.0);
    let (bfm_lists, mixed_lists) = (bfm.lists_tested, mixed.lists_tested);
    let measured = format!(
        "rare term identified in {bfm_rate:.1} % of {bfm_lists} BFM lists against {mixed_rate:.1} % of \
         {mixed_lists} mixed lists"
    );
    s.gate(
        "§6.2 (b), §4.1 attack 2",
        "BFM keeps follow-up request counts alike across the terms of a list: counting requests \
         identifies the rare term less often than under frequency-spanning merging",
        bfm_rate < mixed_rate,
        measured,
    );
}

fn storage(beds: &Beds, s: &mut Section) {
    let mut rows = Vec::new();
    let mut one_value = Claim::gated(
        "§6.3",
        "Zerber+R stores exactly one ranking value per posting element, like an ordinary index: \
         no storage overhead for ranking",
    );
    for profile in beds.profiles() {
        let (bed, name) = (beds.bed(profile), profile.name());
        let (plain, ordered) = (bed.plain_index.size_report(), bed.index.size_report());
        let (elements, plain_bytes) = (plain.num_postings, plain.plain_bytes);
        let (trs_bytes, compressed) = (ordered.plain_bytes, plain.compressed_bytes);
        let overhead = ordered.overhead_vs(&plain) * 100.0;
        let stored = bed.index.stored_bytes();
        let overhead_pct = fmt(overhead);
        rows.push(row![
            name,
            elements,
            plain_bytes,
            trs_bytes,
            overhead_pct,
            compressed,
            stored
        ]);
        let agrees = ordered.num_postings == elements && trs_bytes == TRS_BYTES * elements;
        let measured = format!(
            "{name}: {elements} elements, {plain_bytes} ranking bytes in the ordinary index, {trs_bytes} \
             ({TRS_BYTES} per element) in Zerber+R, overhead {overhead} %"
        );
        one_value.note(agrees && overhead == 0.0, measured);
    }
    // The last column is the full cost of this implementation's encrypted
    // elements (nonce + ciphertext + MAC), inherited from the Zerber
    // substrate with or without server-side top-k.
    s.table(
        format!("storage per index (scale {})", beds.scale),
        "collection,posting elements,ordinary bytes (8 B/elem),Zerber+R bytes (8 B TRS/elem),\
         ranking-info overhead %,ordinary compressed bytes,Zerber+R stored bytes (incl. encryption)",
        rows,
    );
    s.claims.push(one_value);
}

fn network(beds: &Beds, s: &mut Section) {
    let (k, scale) = (10usize, beds.scale);
    let bed = beds.bed(&DatasetProfile::OdpWeb);
    let log = query_log(bed, 1_500, 1_000_000);
    let samples = bed.run_workload(&log, k, k).expect("workload runs");
    // AvBO is the mean of TRes / k: with k = 1, the mean of TRes itself.
    let avg_elements = average_bandwidth_overhead(&samples, 1);
    let avg_requests = average_requests(&samples);
    let title = format!(
        "bandwidth accounting, scale {scale}: measured {avg_elements:.1} posting elements and \
         {avg_requests:.2} requests per query term"
    );
    // Paper accounting (64-bit posting elements) next to this
    // implementation's wire format (encrypted element + header).
    let (terms_per_query, elements) = (2.4f64, avg_elements.round() as usize);
    let paper_per_term = ResponseBreakdown::with_paper_elements(elements, 0);
    let wire_element = SEALED_PAYLOAD_BYTES + ELEMENT_HEADER_BYTES;
    let wire_per_term = ResponseBreakdown::new(elements, wire_element, 0);
    let snippets = k * SNIPPET_BYTES;
    let total = |r: &ResponseBreakdown| terms_per_query * r.posting_bytes as f64 + snippets as f64;
    let (paper_total, wire_total) = (total(&paper_per_term), total(&wire_per_term));
    let net = NetworkModel::paper_intranet();
    let round_trips = (avg_requests * terms_per_query).ceil() as usize;
    let request_bytes = (terms_per_query * 64.0) as usize;
    let latency = net.query_latency_seconds(round_trips, request_bytes, paper_total as usize);
    let bytes = |n: usize| format!("{n} B");
    let kb = |n: f64| format!("{:.1} KB", n / 1024.0);
    let page = |n: usize| format!("{} KB", n / 1024);
    let throughput = net.server_queries_per_second(paper_total);
    let posting_bytes = bytes(paper_per_term.posting_bytes);
    let rows = vec![
        row!["posting elements per query term", "~85", fmt(avg_elements)],
        row![
            "posting bytes per query term (64-bit elements)",
            "~700 B (0.7 KB)",
            posting_bytes
        ],
        row!["terms per query", "2.4", fmt(terms_per_query)],
        row!["snippet bytes for top-10", "2500 B", bytes(snippets)],
        row![
            "total top-10 response (paper accounting)",
            "~3.5 KB",
            kb(paper_total)
        ],
        row![
            "total top-10 response (this implementation's wire format)",
            "-",
            kb(wire_total)
        ],
        row![
            "server throughput on 100 Mb/s (bandwidth bound)",
            "~750 queries/s (incl. processing)",
            format!("{throughput:.0} queries/s")
        ],
        row![
            "client latency on 56 Kb/s modem",
            "-",
            format!("{latency:.2} s")
        ],
        row!["Google top-10 page", "15 KB", page(GOOGLE_TOP10_BYTES)],
        row![
            "Altavista top-10 page",
            "37 KB",
            page(ALTAVISTA_TOP10_BYTES)
        ],
        row!["Yahoo top-10 page", "59 KB", page(YAHOO_TOP10_BYTES)],
    ];
    s.table(title, "quantity,paper,measured / derived", rows);
    let (paper_kb, wire_kb, google) = (kb(paper_total), kb(wire_total), page(GOOGLE_TOP10_BYTES));
    let measured = format!(
        "{paper_kb} in the paper's 64-bit accounting ({wire_kb} in this implementation's wire \
         format) against {google}"
    );
    s.gate(
        "§6.6",
        "a Zerber+R top-10 answer is smaller than the smallest conventional top-10 page (Google)",
        paper_total < GOOGLE_TOP10_BYTES as f64,
        measured,
    );
}
