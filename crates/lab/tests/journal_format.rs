//! Golden-fixture tests of the journal file format: pinned journal and
//! `mbseg1` segment bytes, header round-trip, the header line grammar,
//! torn-tail crash recovery, and the hard-error contract — digest-chain
//! breaks, version skew, foreign campaigns and slot-ownership
//! violations must all fail loudly, never silently skip records.

use mb_lab::driver::Shard;
use mb_lab::journal::{merge, Journal, JournalError, JournalHeader};
use mb_lab::transport;
use mb_simcore::error::exit_code;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// A per-test scratch directory under the target-adjacent temp dir,
/// wiped on entry so reruns are deterministic.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-journal-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn header(campaign: &str, shard_index: u32, shard_count: u32) -> JournalHeader {
    JournalHeader {
        campaign: campaign.to_string(),
        seed: 0xDEAD_BEEF_1234,
        tasks: 8,
        shard: Shard {
            index: shard_index,
            count: shard_count,
        },
    }
}

#[test]
fn header_and_records_round_trip() {
    let dir = scratch("roundtrip");
    let path = dir.join("a.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(3, &[1.5, -0.25, f64::MIN_POSITIVE]).expect("append");
    j.append(0, &[42.0]).expect("append");
    j.append(7, &[]).expect("empty payloads are legal");

    let loaded = Journal::load(&path).expect("load");
    assert_eq!(loaded.header, header("demo", 0, 1));
    assert!(!loaded.torn_tail);
    assert_eq!(
        loaded.records,
        vec![
            (3, vec![1.5, -0.25, f64::MIN_POSITIVE]),
            (0, vec![42.0]),
            (7, vec![]),
        ],
        "records replay in append order with bit-exact payloads"
    );
    assert_eq!(loaded.completed_slots(), vec![0, 3, 7]);
}

#[test]
fn payload_bits_survive_exactly() {
    let dir = scratch("bits");
    let path = dir.join("bits.journal");
    // Values with awkward bit patterns: subnormals, -0.0, exact thirds.
    let nasty = [f64::from_bits(1), -0.0, 1.0 / 3.0, 2.5e-308, 1e300];
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(1, &nasty).expect("append");
    let loaded = Journal::load(&path).expect("load");
    for (a, b) in loaded.records[0].1.iter().zip(&nasty) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn torn_tail_is_dropped_and_truncated_on_next_append() {
    let dir = scratch("torn");
    let path = dir.join("torn.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(2, &[7.0]).expect("append");
    j.append(5, &[8.0]).expect("append");

    // Crash mid-write: half a record, no newline.
    let intact = fs::read_to_string(&path).expect("read");
    fs::write(&path, format!("{intact}r 6 40")).expect("tear");

    let mut reloaded = Journal::load(&path).expect("torn tail is recoverable");
    assert!(reloaded.torn_tail, "the torn fragment must be flagged");
    assert_eq!(reloaded.completed_slots(), vec![2, 5], "fragment dropped");

    // The next append truncates the torn bytes before writing.
    reloaded.append(6, &[9.0]).expect("append after tear");
    let clean = Journal::load(&path).expect("load after recovery");
    assert!(!clean.torn_tail);
    assert_eq!(clean.completed_slots(), vec![2, 5, 6]);
    assert!(!fs::read_to_string(&path).expect("read").contains("r 6 40 "));
}

#[test]
fn newline_terminated_garbage_final_line_is_also_torn() {
    let dir = scratch("torn-nl");
    let path = dir.join("t.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(1, &[1.0]).expect("append");
    let intact = fs::read_to_string(&path).expect("read");
    fs::write(&path, format!("{intact}r 2 garbage\n")).expect("tear");
    let reloaded = Journal::load(&path).expect("final bad line is torn");
    assert!(reloaded.torn_tail);
    assert_eq!(reloaded.completed_slots(), vec![1]);
}

#[test]
fn chain_mismatch_is_a_hard_error() {
    let dir = scratch("chain");
    let path = dir.join("c.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(0, &[1.0]).expect("append");
    j.append(1, &[2.0]).expect("append");
    j.append(2, &[3.0]).expect("append");

    // Tamper with the *middle* record's payload: its own chain field no
    // longer re-derives.
    let text = fs::read_to_string(&path).expect("read");
    let tampered = text.replace("r 1 4000000000000000", "r 1 4000000000000001");
    assert_ne!(text, tampered, "fixture must actually change a byte");
    fs::write(&path, tampered).expect("write");
    match Journal::load(&path) {
        Err(JournalError::ChainMismatch { line_number }) => assert_eq!(line_number, 3),
        other => panic!("tampered journal must fail with ChainMismatch, got {other:?}"),
    }

    // Reordering intact records breaks the chain too.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.swap(1, 3);
    fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write");
    match Journal::load(&path) {
        Err(JournalError::ChainMismatch { line_number }) => assert_eq!(line_number, 2),
        other => panic!("reordered journal must fail with ChainMismatch, got {other:?}"),
    }
}

#[test]
fn version_skew_is_a_hard_error() {
    let dir = scratch("skew");
    let path = dir.join("v.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(0, &[1.0]).expect("append");
    let text = fs::read_to_string(&path).expect("read");
    fs::write(&path, text.replace("mblab1 ", "mblab2 ")).expect("write");
    match Journal::load(&path) {
        Err(JournalError::VersionSkew { found }) => assert_eq!(found, "mblab2"),
        other => panic!("version skew must be fatal, got {other:?}"),
    }
}

#[test]
fn foreign_campaign_header_is_rejected_on_open() {
    let dir = scratch("foreign");
    let path = dir.join("f.journal");
    Journal::create(&path, header("demo", 0, 1)).expect("create");
    match Journal::open_or_create(&path, header("other", 0, 1)) {
        Err(JournalError::HeaderMismatch { field, .. }) => assert_eq!(field, "campaign"),
        other => panic!("campaign mismatch must be fatal, got {other:?}"),
    }
    let mut wrong_shard = header("demo", 0, 1);
    wrong_shard.shard = Shard { index: 0, count: 2 };
    match Journal::open_or_create(&path, wrong_shard) {
        Err(JournalError::HeaderMismatch { field, .. }) => assert_eq!(field, "shard"),
        other => panic!("shard mismatch must be fatal, got {other:?}"),
    }
}

#[test]
fn append_enforces_slot_ownership_and_uniqueness() {
    let dir = scratch("ownership");
    let path = dir.join("o.journal");
    // Shard 1/2 owns odd slots only.
    let mut j = Journal::create(&path, header("demo", 1, 2)).expect("create");
    j.append(1, &[1.0]).expect("owned slot");
    match j.append(2, &[2.0]) {
        Err(JournalError::ForeignSlot { slot: 2 }) => {}
        other => panic!("unowned slot must be rejected, got {other:?}"),
    }
    match j.append(8, &[2.0]) {
        Err(JournalError::ForeignSlot { slot: 8 }) => {}
        other => panic!("out-of-range slot must be rejected, got {other:?}"),
    }
    match j.append(1, &[3.0]) {
        Err(JournalError::DuplicateSlot { slot: 1 }) => {}
        other => panic!("duplicate slot must be rejected, got {other:?}"),
    }
}

#[test]
fn merge_validates_the_shard_family() {
    let dir = scratch("merge");
    let a = dir.join("a.journal");
    let b = dir.join("b.journal");
    let out = dir.join("m.journal");

    let mut ja = Journal::create(&a, header("demo", 0, 2)).expect("create");
    let mut jb = Journal::create(&b, header("demo", 1, 2)).expect("create");
    for s in [0, 2, 4, 6] {
        ja.append(s, &[s as f64]).expect("append");
    }
    for s in [1, 3, 5] {
        jb.append(s, &[s as f64]).expect("append");
    }

    // Slot 7 missing: incomplete.
    match merge(&out, &[a.clone(), b.clone()]) {
        Err(JournalError::IncompleteMerge { missing }) => assert_eq!(missing, vec![7]),
        other => panic!("incomplete merge must be fatal, got {other:?}"),
    }
    jb.append(7, &[7.0]).expect("append");

    // Wrong family size.
    match merge(&out, std::slice::from_ref(&a)) {
        Err(JournalError::BadShardFamily { .. }) => {}
        other => panic!("1 input for /2 must be fatal, got {other:?}"),
    }
    // Duplicate shard index.
    match merge(&out, &[a.clone(), a.clone()]) {
        Err(JournalError::BadShardFamily { .. }) => {}
        other => panic!("duplicate shard must be fatal, got {other:?}"),
    }

    // A valid family merges into canonical slot order under a 0/1 header.
    let merged = merge(&out, &[b.clone(), a.clone()]).expect("merge (input order free)");
    assert_eq!(merged.header.shard, Shard { index: 0, count: 1 });
    let slots: Vec<usize> = merged.records.iter().map(|(s, _)| *s).collect();
    assert_eq!(slots, (0..8).collect::<Vec<_>>());
    let reloaded = Journal::load(&out).expect("merged journal verifies");
    assert_eq!(reloaded.records, merged.records);
}

#[test]
fn merge_rejects_mixed_campaigns() {
    let dir = scratch("merge-mixed");
    let a = dir.join("a.journal");
    let b = dir.join("b.journal");
    let mut ja = Journal::create(&a, header("demo", 0, 2)).expect("create");
    let mut jb = Journal::create(&b, header("elsewhere", 1, 2)).expect("create");
    for s in [0, 2, 4, 6] {
        ja.append(s, &[0.0]).expect("append");
    }
    for s in [1, 3, 5, 7] {
        jb.append(s, &[0.0]).expect("append");
    }
    match merge(&dir.join("m.journal"), &[a, b]) {
        Err(JournalError::BadShardFamily { detail }) => {
            assert!(detail.contains("elsewhere"), "{detail}");
        }
        other => panic!("mixed campaigns must be fatal, got {other:?}"),
    }
}

const GOLDEN_JOURNAL: &str = "\
mblab1 campaign=golden seed=5eedc0de0badf00d tasks=9 shard=1/3
r 4 3ff8000000000000,bfd0000000000000 39119499a80e0f82
r 1  cf354ece3ca61075
r 7 8000000000000000,0000000000000001,0010000000000000 66c3f1cffbe8b0d9
";

const GOLDEN_SEGMENT: &str = "\
mbseg1 campaign=golden seed=5eedc0de0badf00d tasks=9 shard=1/3 from=1 count=2 chain=39119499a80e0f82
r 1  cf354ece3ca61075
r 7 8000000000000000,0000000000000001,0010000000000000 66c3f1cffbe8b0d9
end 66c3f1cffbe8b0d9
";

/// A fixed journal with a non-trivial seed, shard `1/3`, and three
/// records — one with an empty payload, one holding `-0.0` and
/// subnormal bits — pinned byte for byte, with the segment exported
/// from its second record.
#[test]
fn golden_journal_and_segment_bytes_are_pinned() {
    let dir = scratch("golden");
    let path = dir.join("g.journal");
    let golden = JournalHeader {
        campaign: "golden".to_string(),
        seed: 0x5eed_c0de_0bad_f00d,
        tasks: 9,
        shard: Shard { index: 1, count: 3 },
    };
    let mut j = Journal::create(&path, golden).expect("create");
    j.append(4, &[1.5, -0.25]).expect("append");
    j.append(1, &[]).expect("append");
    j.append(7, &[-0.0, f64::from_bits(1), f64::MIN_POSITIVE])
        .expect("append");
    assert_eq!(fs::read_to_string(&path).expect("read"), GOLDEN_JOURNAL);

    let seg = dir.join("g.seg");
    transport::export_segment(&path, 1, &seg).expect("export");
    assert_eq!(fs::read_to_string(&seg).expect("read"), GOLDEN_SEGMENT);

    // The pinned text loads back to the records that wrote it.
    let loaded = Journal::load(&path).expect("load");
    assert_eq!(loaded.records[1], (1, vec![]));
    let bits: Vec<u64> = loaded.records[2].1.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, [0x8000_0000_0000_0000, 1, 0x0010_0000_0000_0000]);
    let segment = transport::load_segment(&seg).expect("load segment");
    assert_eq!((segment.from, segment.records.len()), (1, 2));
    assert_eq!(segment.header, loaded.header);
}

/// Header lines no renderer writes. Each is a typed `BadHeader`,
/// exit code 3, even where the fields would otherwise parse.
#[test]
fn header_grammar_rejects_what_no_renderer_writes() {
    let golden = GOLDEN_JOURNAL.lines().next().expect("header");
    let rows = [
        ("duplicate key", format!("{golden} tasks=9")),
        (
            "duplicate key, last value valid",
            golden.replace("tasks=9", "tasks=x tasks=9"),
        ),
        (
            "empty value",
            golden.replace("campaign=golden", "campaign="),
        ),
        ("tab separator", golden.replace(" seed=", "\tseed=")),
        ("trailing tab", format!("{golden}\t")),
    ];
    let dir = scratch("grammar");
    for (case, line) in rows {
        let path = dir.join("g.journal");
        fs::write(&path, with_header_line(GOLDEN_JOURNAL, line.as_bytes())).expect("write");
        match Journal::load(&path) {
            Err(e @ JournalError::BadHeader { .. }) => {
                assert_eq!(e.exit_code(), exit_code::CORRUPT, "{case}");
            }
            other => panic!("{case}: '{line}' must be a BadHeader, got {other:?}"),
        }
    }
}

/// `file` with its first line replaced by `header`.
fn with_header_line(file: &str, header: &[u8]) -> Vec<u8> {
    let (_, rest) = file.split_once('\n').expect("fixture has a header line");
    let mut out = header.to_vec();
    out.push(b'\n');
    out.extend_from_slice(rest.as_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An arbitrary header line in front of valid records: both loaders
    /// fail typed with exit code 3, and never panic. Bytes are lossily
    /// decoded so multi-byte replacement chars exercise the slicing
    /// paths too.
    #[test]
    fn header_parsers_never_panic_on_arbitrary_text(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let dir = std::env::temp_dir().join(format!("mb-lab-journal-{}-arb", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        let line = String::from_utf8_lossy(&bytes);
        let path = dir.join("a.journal");
        fs::write(&path, with_header_line(GOLDEN_JOURNAL, line.as_bytes())).expect("write");
        let err = Journal::load(&path).expect_err("arbitrary header must not load");
        prop_assert_eq!(err.exit_code(), exit_code::CORRUPT, "{}", err);
        let seg = dir.join("a.seg");
        fs::write(&seg, with_header_line(GOLDEN_SEGMENT, line.as_bytes())).expect("write");
        let err = transport::load_segment(&seg).expect_err("arbitrary header must not load");
        prop_assert_eq!(err.exit_code(), exit_code::CORRUPT, "{}", err);
    }

    /// The golden header lines with one byte replaced. A changed
    /// journal header either fails to parse or re-seeds the digest
    /// chain, so the load fails typed with exit code 3. A changed
    /// segment header may still describe a valid segment; when it
    /// does not, the error is typed with exit code 3.
    #[test]
    fn mutated_header_lines_never_panic(pos in 0usize..110, byte in any::<u8>()) {
        let dir = std::env::temp_dir().join(format!("mb-lab-journal-{}-mut", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        let journal_header = GOLDEN_JOURNAL.lines().next().expect("header");
        let mut bytes = journal_header.as_bytes().to_vec();
        if pos < bytes.len() && bytes[pos] != byte {
            bytes[pos] = byte;
            // `Journal::load` reads text: only valid UTF-8 reaches the header parser.
            if std::str::from_utf8(&bytes).is_ok() {
                let path = dir.join("m.journal");
                fs::write(&path, with_header_line(GOLDEN_JOURNAL, &bytes)).expect("write");
                let err = Journal::load(&path).expect_err("a changed header must not load");
                prop_assert_eq!(err.exit_code(), exit_code::CORRUPT, "{}", err);
            }
        }

        let segment_header = GOLDEN_SEGMENT.lines().next().expect("header");
        let mut bytes = segment_header.as_bytes().to_vec();
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        let seg = dir.join("m.seg");
        fs::write(&seg, with_header_line(GOLDEN_SEGMENT, &bytes)).expect("write");
        if let Err(err) = transport::load_segment(&seg) {
            prop_assert_eq!(err.exit_code(), exit_code::CORRUPT, "{}", err);
        }
    }
}
