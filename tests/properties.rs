//! Property-based tests (proptest) on the core data structures and
//! invariants: compression codecs, AEAD, RSTF monotonicity/range, top-k
//! selection, posting-list ordering, r-confidentiality arithmetic and the
//! protocol message codec.

use proptest::prelude::*;

use zerber_suite::corpus::{DocId, GroupId, TermId};
use zerber_suite::crypto::AeadKey;
use zerber_suite::index::{compress, Posting, PostingList, ScoredDoc, TopK};
use zerber_suite::protocol::{QueryResponse, WireElement};
use zerber_suite::zerber::PostingPayload;
use zerber_suite::zerber_r::{uniformity_variance, Rstf, RstfKernel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varint_roundtrips_any_u64(value in any::<u64>()) {
        let mut buf = Vec::new();
        compress::write_varint(&mut buf, value);
        let (back, pos) = compress::read_varint(&buf, 0).unwrap();
        prop_assert_eq!(back, value);
        prop_assert_eq!(pos, buf.len());
        prop_assert!(buf.len() <= 10);
    }

    #[test]
    fn posting_list_compression_roundtrips(
        postings in proptest::collection::vec((0u32..500_000, 1u32..1000, 0.0f64..1.0), 0..200)
    ) {
        // Deduplicate doc ids: a posting list holds one element per document.
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<Posting> = postings
            .into_iter()
            .filter(|(d, _, _)| seen.insert(*d))
            .map(|(d, tf, s)| Posting::new(DocId(d), tf, s))
            .collect();
        let list = PostingList::from_postings(unique);
        let encoded = compress::encode_posting_list(&list);
        let decoded = compress::decode_posting_list(&encoded).unwrap();
        prop_assert_eq!(decoded.len(), list.len());
        for (a, b) in list.iter().zip(decoded.iter()) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert_eq!(a.tf, b.tf);
            prop_assert!((a.score - b.score).abs() < 2e-6);
        }
    }

    #[test]
    fn aead_roundtrips_and_rejects_bitflips(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..256),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        flip in any::<(usize, u8)>()
    ) {
        let key = AeadKey::new(key);
        let sealed = key.seal(&nonce, &plaintext, &aad);
        let mut opened = vec![0u8; plaintext.len()];
        key.open(&sealed, &aad, &mut opened).unwrap();
        prop_assert_eq!(&opened, &plaintext);
        // Any single-bit corruption must be rejected.
        let mut corrupted = sealed.clone();
        let idx = flip.0 % corrupted.len();
        let bit = 1u8 << (flip.1 % 8);
        corrupted[idx] ^= bit;
        prop_assert!(key.open(&corrupted, &aad, &mut opened).is_err());
    }

    #[test]
    fn posting_payload_roundtrips(term in any::<u32>(), doc in any::<u32>(), tf in any::<u32>(), len in any::<u32>()) {
        let payload = PostingPayload {
            term: TermId(term),
            doc: DocId(doc),
            tf,
            doc_len: len,
        };
        let decoded = PostingPayload::decode(&payload.encode()).unwrap();
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn rstf_is_monotone_bounded_and_order_preserving(
        training in proptest::collection::vec(0.0f64..1.0, 1..80),
        sigma in 1.0f64..2000.0,
        probes in proptest::collection::vec(-0.5f64..1.5, 2..40)
    ) {
        for kernel in [RstfKernel::Logistic, RstfKernel::Erf] {
            let rstf = Rstf::fit(&training, sigma, kernel).unwrap();
            let mut sorted_probes = probes.clone();
            sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for &x in &sorted_probes {
                let y = rstf.transform(x);
                prop_assert!((0.0..=1.0).contains(&y), "out of range: {}", y);
                prop_assert!(y >= prev - 1e-12, "not monotone at {}", x);
                prev = y;
            }
        }
    }

    #[test]
    fn topk_agrees_with_full_sort(
        scores in proptest::collection::vec(0.0f64..1.0, 0..120),
        k in 1usize..20
    ) {
        let mut acc = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            acc.push(ScoredDoc::new(DocId(i as u32), s));
        }
        let got = acc.into_sorted();
        let mut expected: Vec<(f64, u32)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        expected.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        expected.truncate(k);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            prop_assert_eq!(g.doc.0, e.1);
            prop_assert!((g.score - e.0).abs() < 1e-12);
        }
    }

    #[test]
    fn posting_list_insert_keeps_descending_order(
        items in proptest::collection::vec((0u32..10_000, 0.0f64..1.0), 0..100)
    ) {
        let mut list = PostingList::new();
        for (i, (doc, score)) in items.iter().enumerate() {
            list.insert(Posting::new(DocId(*doc ^ (i as u32) << 16), 1, *score));
        }
        let scores: Vec<f64> = list.iter().map(|p| p.score).collect();
        prop_assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        prop_assert_eq!(list.len(), items.len());
    }

    #[test]
    fn uniformity_variance_is_bounded_and_zero_for_perfect_uniform(n in 2usize..300) {
        let uniform: Vec<f64> = (1..=n).map(|i| i as f64 / (n as f64 + 1.0)).collect();
        prop_assert!(uniformity_variance(&uniform) < 1e-20);
        let constant = vec![0.5; n];
        let v = uniformity_variance(&constant);
        prop_assert!(v > 0.0);
        prop_assert!(v <= 0.26);
    }

    #[test]
    fn query_response_codec_roundtrips(
        elements in proptest::collection::vec((0.0f64..1.0, 0u32..16, 0usize..80), 0..40),
        total in any::<u64>(),
        cursor in any::<u64>()
    ) {
        let response = QueryResponse {
            elements: elements
                .into_iter()
                .map(|(trs, group, len)| WireElement {
                    trs,
                    group: GroupId(group),
                    ciphertext: vec![0x5a; len].into(),
                })
                .collect(),
            visible_total: total,
            cursor,
        };
        let encoded = response.encode();
        prop_assert_eq!(encoded.len(), response.encoded_bytes());
        let decoded = QueryResponse::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn chacha_keystream_is_invertible(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        let cipher = zerber_suite::crypto::ChaCha20::new(&key);
        let mut ct = data.clone();
        cipher.apply_keystream(&nonce, counter, &mut ct);
        let mut pt = ct.clone();
        cipher.apply_keystream(&nonce, counter, &mut pt);
        prop_assert_eq!(pt, data.clone());
        if !data.is_empty() && data.iter().any(|&b| b != 0) {
            // The keystream must actually change the data (overwhelmingly likely).
            prop_assert!(ct != data || data.iter().all(|&b| b == 0));
        }
    }
}
