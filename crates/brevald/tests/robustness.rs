//! Robustness of `brevald`'s two untrusted inputs: `BREVSLIC` slice-table
//! files and request lines. Corrupt files — random bytes, every
//! truncation, byte flips, oversized length prefixes — decode to `Err`,
//! never a panic or an allocation sized by an unvalidated length; any
//! UTF-8 request line gets exactly one `ok …` or `err …` reply line.

use asgraph::io::{ByteWriter, IoError};
use asgraph::{AsGraph, Asn, Link, Rel};
use breval_core::snapshot::{build_snapshot, ScenarioSnapshot, SnapshotError, SnapshotKey};
use brevald::engine::{answer_line, parse};
use brevald::set::{ClassifierView, SnapshotSet};
use brevald::slices::{topo_label_of, SliceTable, REGION_NONE, SLICE_MAGIC, SLICE_VERSION};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Valid `(a, b, meta)` rows: normalised links in ascending order, valid
/// region and topology codes, a 0/1 validated flag.
fn arb_rows() -> impl Strategy<Value = Vec<[u32; 3]>> {
    let region = (0..=REGION_NONE).prop_filter("normalised region code", |&r| {
        r == REGION_NONE || r / 5 <= r % 5
    });
    let topo = (0u8..16).prop_filter("valid topology code", |&t| topo_label_of(t).is_some());
    let row = (1u32..60, 1u32..60, region, topo, any::<bool>());
    proptest::collection::vec(row, 0..40).prop_map(|rows| {
        let mut rows: Vec<[u32; 3]> = rows
            .into_iter()
            .filter_map(|(a, b, region, topo, validated)| {
                let link = Link::new(Asn(a), Asn(b))?;
                let meta =
                    (u32::from(region) << 16) | (u32::from(topo) << 8) | u32::from(validated);
                Some([link.a().0, link.b().0, meta])
            })
            .collect();
        rows.sort_unstable();
        rows.dedup_by_key(|row| (row[0], row[1]));
        rows
    })
}

/// A `BREVSLIC` v1 file holding `rows`, written field by field.
fn encode(rows: &[[u32; 3]]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&SLICE_MAGIC);
    w.put_u32(SLICE_VERSION);
    w.put_u64(0x5eed);
    w.put_u64(7);
    w.put_u32_slice(&rows.concat());
    w.into_bytes()
}

/// Decodes `bytes`; a table that decodes must re-encode to the same bytes.
fn decode(bytes: &[u8]) -> Result<(), SnapshotError> {
    let (key, table) = SliceTable::from_bytes(bytes)?;
    assert_eq!(table.to_bytes(&key), bytes, "decoded table re-encodes");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_files_round_trip(rows in arb_rows()) {
        let bytes = encode(&rows);
        let (key, table) = SliceTable::from_bytes(&bytes).expect("valid file decodes");
        prop_assert_eq!(table.rows().len(), rows.len());
        prop_assert_eq!(table.to_bytes(&key), bytes);
    }

    #[test]
    fn random_bytes_are_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert!(SliceTable::from_bytes(&bytes).is_err());
    }

    #[test]
    fn random_bodies_never_panic(body in proptest::collection::vec(any::<u8>(), 0..256)) {
        // A valid header in front of random bytes reaches the row checks.
        let mut bytes = encode(&[]);
        bytes.truncate(bytes.len() - 8);
        bytes.extend_from_slice(&body);
        let _ = decode(&bytes);
    }

    #[test]
    fn every_truncation_is_rejected(rows in arb_rows()) {
        let bytes = encode(&rows);
        for cut in 0..bytes.len() {
            prop_assert!(SliceTable::from_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn byte_flips_never_panic(rows in arb_rows(), mask in 1u8..=255) {
        let bytes = encode(&rows);
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= mask;
            // A flip in the key or a row may still decode to a valid
            // table; it must never panic, and what decodes re-encodes
            // identically.
            let _ = decode(&flipped);
        }
    }
}

#[test]
fn oversized_row_count_is_rejected_before_allocation() {
    let mut bytes = encode(&[[1, 2, 0x0c_07_01]]);
    // The row array's u64 element count follows magic, version and key.
    let at = SLICE_MAGIC.len() + 4 + 8 + 8;
    bytes[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
    assert!(matches!(
        SliceTable::from_bytes(&bytes),
        Err(SnapshotError::Codec(IoError::OversizedLength { .. }))
    ));
}

/// A one-classifier set over a short provider chain, with a slice table,
/// so every query kind reaches a populated answer.
fn set() -> &'static SnapshotSet {
    static SET: OnceLock<SnapshotSet> = OnceLock::new();
    SET.get_or_init(|| {
        let mut g = AsGraph::new();
        for i in 1..=5 {
            let link = Link::new(Asn(i), Asn(i + 1)).expect("distinct");
            g.add_rel(link, Rel::P2c { provider: Asn(i) })
                .expect("fresh link");
        }
        let key = SnapshotKey {
            config_hash: 1,
            seed: 0,
            name: "asrank".to_owned(),
        };
        let snap = build_snapshot("asrank", &g);
        let (_, full) = ScenarioSnapshot::from_bytes(&snap.to_bytes(&key)).expect("round trip");
        let view = ClassifierView::resolve(&full).expect("codec materialises every part");
        let slices = encode(&[[1, 2, 0x0c_07_01], [2, 3, 0x19_0f_00]]);
        let (_, table) = SliceTable::from_bytes(&slices).expect("valid slice table");
        SnapshotSet::new(vec![view], &table)
    })
}

/// Request lines near the grammar: a command word, then a few tokens
/// drawn from ASNs, class labels, wildcards and arbitrary text.
fn arb_request() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        Just("cone"),
        Just("member"),
        Just("class"),
        Just("ascov"),
        Just("slice"),
        Just("stats"),
    ];
    let token = prop_oneof![
        (0u32..8).prop_map(|n| n.to_string()),
        any::<u32>().prop_map(|n| n.to_string()),
        Just("*".to_owned()),
        Just("AR°".to_owned()),
        Just("none".to_owned()),
        Just("T1-TR".to_owned()),
        Just("-1".to_owned()),
        "\\PC{0,6}",
    ];
    (word, proptest::collection::vec(token, 0..4))
        .prop_map(|(word, args)| format!("{word} {}", args.join(" ")))
}

fn assert_one_reply_line(line: &str) {
    let reply = answer_line(set(), line);
    assert!(
        reply.starts_with("ok ") || reply.starts_with("err "),
        "{line:?} -> {reply:?}"
    );
    assert!(!reply.contains('\n'), "{line:?} -> {reply:?}");
    assert_eq!(parse(line).is_ok(), reply.starts_with("ok "), "{line:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printable_lines_get_one_reply_line(line in "\\PC{0,40}") {
        assert_one_reply_line(&line);
    }

    #[test]
    fn arbitrary_lines_get_one_reply_line(
        chars in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        // Any scalar value, controls and line breaks included.
        let line: String = chars
            .into_iter()
            .map(|n| char::from_u32(n % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER))
            .collect();
        assert_one_reply_line(&line);
    }

    #[test]
    fn near_grammar_lines_get_one_reply_line(line in arb_request()) {
        assert_one_reply_line(&line);
    }
}
