//! Relevance scoring.
//!
//! Section 3.2 of the paper distinguishes the full vector-space `TF×IDF`
//! score (Equation 3), which needs collection-wide document frequencies and
//! therefore leaks information about inaccessible documents, from the
//! per-document normalized term frequency `TF/|d|` (Equation 4).  Zerber+R
//! deliberately has no IDF: a single-term query is ranked exactly from
//! information local to one document, so Equation 4 is the only model here.

/// Equation 4: `rscore(q, d) = TF_q / |d|` (0 for an empty document).
pub fn normalized_tf(tf: u32, doc_len: u32) -> f64 {
    if doc_len == 0 {
        0.0
    } else {
        f64::from(tf) / f64::from(doc_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_tf_matches_equation_4() {
        assert!((normalized_tf(3, 5) - 0.6).abs() < 1e-12);
        assert_eq!(normalized_tf(3, 0), 0.0);
    }
}
