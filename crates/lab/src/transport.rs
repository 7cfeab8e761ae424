//! Journal transport: segment export/ingest between journal
//! directories.
//!
//! A distributed shard family runs each worker against a *local*
//! journal and ships progress to a collector as **segments** — the
//! stand-in for per-host uploads the ROADMAP's "Distributed campaigns"
//! item calls for. A segment is a window of a journal's record lines
//! plus enough framing to splice it into a replica without trusting
//! the network path:
//!
//! ```text
//! mbseg1 campaign=fig3-quick seed=000000000005ca1e tasks=9 shard=0/2 from=2 count=3 chain=9c1d2e3f4a5b6c7d
//! r 4 4010203040506070 0123456789abcdef
//! r 6 40fe000000000000 fedcba9876543210
//! r 8 4100400000000000 13579bdf02468ace
//! end 13579bdf02468ace
//! ```
//!
//! * The header is the journal header's fields under the `mbseg1`
//!   token, plus `from`, `count` and `chain`.
//! * `from` is the append-order offset of the first carried record in
//!   the source journal, `count` the number of records carried.
//! * `chain` is the journal's digest-chain value *before* the first
//!   carried record; the `end` trailer is the chain value after the
//!   last. Both re-derive from the carried bodies via the same
//!   FNV-1a/SplitMix64 chain the journal itself uses, so a tampered or
//!   reordered segment fails closed before a single record lands.
//! * The `end` trailer doubles as the truncation sentinel: a segment
//!   cut short in flight is missing it (or carries fewer records than
//!   `count`) and is rejected wholesale as [`TransportError::TornSegment`]
//!   — ingest is all-or-nothing, never a partial splice.
//!
//! Ingest is **idempotent**: re-uploading a segment the replica already
//! holds verifies the overlap against the replica's own chain and
//! applies nothing; uploading a segment whose `from` lies beyond the
//! replica's end is a [`TransportError::Gap`] (arrived out of order —
//! retry after the earlier segment lands); anything that disagrees with
//! the replica's chain is a hard error. Uploading the same set of
//! segments in any valid order, any number of times, converges every
//! replica to a byte-identical copy of the source journal.

use crate::codec::{self, LineError};
use crate::journal::{
    chain_step, parse_record, record_body, Journal, JournalError, JournalHeader,
};
use std::fmt;
use std::fs;
use std::path::Path;

/// Format version token leading every segment header.
pub const SEGMENT_VERSION: &str = "mbseg1";

/// Everything that can go wrong exporting or ingesting a segment.
#[derive(Debug)]
pub enum TransportError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The source or destination journal failed verification.
    Journal(JournalError),
    /// The segment's version token is not [`SEGMENT_VERSION`].
    VersionSkew {
        /// The token actually found.
        found: String,
    },
    /// The segment header could not be parsed.
    BadSegment {
        /// What failed to parse.
        detail: String,
    },
    /// The segment was cut short in flight: missing `end` trailer,
    /// fewer records than `count`, or trailing bytes past the trailer.
    /// Rejected wholesale — re-upload the full segment.
    TornSegment {
        /// What is missing or extra.
        detail: String,
    },
    /// The segment belongs to a different journal than the destination
    /// (campaign, seed, task count or shard disagree).
    SegmentMismatch {
        /// Which field disagreed.
        field: &'static str,
        /// Value in the segment.
        found: String,
        /// Value in (or expected by) the destination.
        expected: String,
    },
    /// A carried record's chain does not re-derive — the segment was
    /// tampered with, records were reordered, or it disagrees with the
    /// destination's history at the splice point.
    ChainBreak {
        /// Zero-based index of the first bad record within the segment
        /// (`count` means the `end` trailer itself disagreed).
        record: usize,
    },
    /// The segment starts past the destination's end: an earlier
    /// segment has not arrived yet. Retry after it lands.
    Gap {
        /// Records the destination currently holds.
        have: usize,
        /// Offset the segment wants to splice at.
        from: usize,
    },
    /// An export was asked for a window outside the source journal.
    BadRange {
        /// Requested start offset.
        from: usize,
        /// Records the source journal holds.
        len: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Journal(e) => write!(f, "transport journal error: {e}"),
            TransportError::VersionSkew { found } => write!(
                f,
                "segment version skew: found '{found}', this build reads '{SEGMENT_VERSION}'"
            ),
            TransportError::BadSegment { detail } => {
                write!(f, "unparseable segment: {detail}")
            }
            TransportError::TornSegment { detail } => {
                write!(f, "torn segment rejected: {detail}")
            }
            TransportError::SegmentMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "segment does not belong to this journal: {field} is '{found}', expected '{expected}'"
            ),
            TransportError::ChainBreak { record } => write!(
                f,
                "segment digest chain broken at record {record}: tampered, reordered or \
                 divergent from the destination"
            ),
            TransportError::Gap { have, from } => write!(
                f,
                "segment starts at record {from} but destination holds {have}: an earlier \
                 segment is missing, retry after it arrives"
            ),
            TransportError::BadRange { from, len } => {
                write!(f, "export window starts at record {from} past journal end {len}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<JournalError> for TransportError {
    fn from(e: JournalError) -> Self {
        TransportError::Journal(e)
    }
}

impl TransportError {
    /// Process exit code for this error, following the same contract
    /// as [`JournalError::exit_code`]: anything that means "the bytes
    /// are bad" is corruption (3), anything that means "these files do
    /// not belong together / arrived in the wrong order" is a
    /// misconfiguration of the transfer (5).
    pub fn exit_code(&self) -> u8 {
        use mb_simcore::error::exit_code;
        match self {
            TransportError::VersionSkew { .. }
            | TransportError::BadSegment { .. }
            | TransportError::TornSegment { .. }
            | TransportError::ChainBreak { .. } => exit_code::CORRUPT,
            TransportError::Journal(e) => e.exit_code(),
            TransportError::Io(_)
            | TransportError::SegmentMismatch { .. }
            | TransportError::Gap { .. }
            | TransportError::BadRange { .. } => exit_code::ENV_MISCONFIG,
        }
    }
}

/// The framing of one parsed segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Identity of the journal this segment was cut from.
    pub header: JournalHeader,
    /// Append-order offset of the first carried record in the source.
    pub from: usize,
    /// Carried records, `(slot, payload, chain-after)` in append order.
    pub records: Vec<(usize, Vec<f64>, u64)>,
    /// Chain value before the first carried record.
    pub chain_before: u64,
    /// Chain value after the last carried record (the `end` trailer).
    pub chain_after: u64,
}

/// Outcome of one [`ingest_segment`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Records appended to the destination by this ingest.
    pub appended: usize,
    /// Carried records the destination already held (verified against
    /// its chain, then skipped). `appended == 0` means the whole
    /// upload was a no-op replay.
    pub duplicates: usize,
}

/// Exports the records `from..` of the journal at `journal_path` as a
/// segment file at `out`. `from == len` is a valid empty segment (a
/// heartbeat upload); `from > len` is [`TransportError::BadRange`].
///
/// # Errors
///
/// [`TransportError::Journal`] when the source fails verification,
/// [`TransportError::BadRange`] for an out-of-range window, plus I/O.
pub fn export_segment(
    journal_path: &Path,
    from: usize,
    out: &Path,
) -> Result<Segment, TransportError> {
    let journal = Journal::load(journal_path)?;
    let len = journal.records.len();
    if from > len {
        return Err(TransportError::BadRange { from, len });
    }
    let chain_before = journal.chain_at(from);
    let mut text = format!(
        "{} from={from} count={} chain={chain_before:016x}\n",
        journal.header.render_as(SEGMENT_VERSION),
        len - from
    );
    let mut chain = chain_before;
    let mut records = Vec::new();
    for (slot, payload) in &journal.records[from..] {
        let body = record_body(*slot, payload);
        chain = chain_step(chain, &body);
        text.push_str(&format!("{body} {chain:016x}\n"));
        records.push((*slot, payload.clone(), chain));
    }
    text.push_str(&format!("end {chain:016x}\n"));
    fs::write(out, text)?;
    Ok(Segment {
        header: journal.header,
        from,
        records,
        chain_before,
        chain_after: chain,
    })
}

/// Parses and fully verifies a segment file: framing, record syntax,
/// and the internal digest chain (`chain=` through every record to the
/// `end` trailer). A segment that passes is internally consistent;
/// whether it *belongs* to a destination is decided at ingest.
///
/// # Errors
///
/// [`TransportError::TornSegment`] for any truncation,
/// [`TransportError::ChainBreak`] when the chain does not re-derive,
/// [`TransportError::BadSegment`] / [`TransportError::VersionSkew`]
/// for framing damage, plus I/O.
pub fn load_segment(path: &Path) -> Result<Segment, TransportError> {
    let raw = fs::read(path)?;
    let raw = String::from_utf8(raw).map_err(|_| TransportError::BadSegment {
        detail: "segment is not UTF-8".to_string(),
    })?;
    // A valid segment ends with a newline-terminated `end` line; any
    // unterminated tail means the upload was cut short.
    let (lines, rest) = codec::split_lines(&raw);
    if !rest.is_empty() {
        return Err(TransportError::TornSegment {
            detail: "unterminated final line".to_string(),
        });
    }

    let header_line = *lines.first().ok_or_else(|| TransportError::TornSegment {
        detail: "empty file".to_string(),
    })?;
    let fields = codec::split_version(header_line, SEGMENT_VERSION)
        .map_err(|found| TransportError::VersionSkew { found })?;
    let bad = |e: LineError| TransportError::BadSegment {
        detail: format!("{} in header '{header_line}'", e.0),
    };
    let (header, f) =
        JournalHeader::parse_with(fields, &["from", "count", "chain"]).map_err(bad)?;
    let from = f.counter("from").map_err(bad)?;
    let count = f.counter("count").map_err(bad)?;
    let chain_before = f.hex("chain").map_err(bad)?;

    let body_lines = &lines[1..];
    let Some((end_line, record_lines)) = body_lines.split_last() else {
        return Err(TransportError::TornSegment {
            detail: "missing end trailer".to_string(),
        });
    };
    let Some(end_hex) = end_line.strip_prefix("end ") else {
        return Err(TransportError::TornSegment {
            detail: format!("missing end trailer ({} of {count} records present)", record_lines.len() + 1),
        });
    };
    let chain_after = u64::from_str_radix(end_hex, 16).map_err(|_| TransportError::BadSegment {
        detail: format!("unparseable end trailer '{end_line}'"),
    })?;
    if record_lines.len() != count {
        return Err(TransportError::TornSegment {
            detail: format!("{} records present, header promises {count}", record_lines.len()),
        });
    }

    let mut records = Vec::with_capacity(count);
    let mut running = chain_before;
    for (i, line) in record_lines.iter().enumerate() {
        let (slot, payload, recorded_chain) =
            parse_record(line).ok_or_else(|| TransportError::BadSegment {
                detail: format!("unparseable record {i}"),
            })?;
        running = chain_step(running, &record_body(slot, &payload));
        if recorded_chain != running {
            return Err(TransportError::ChainBreak { record: i });
        }
        records.push((slot, payload, recorded_chain));
    }
    if chain_after != running {
        return Err(TransportError::ChainBreak { record: count });
    }

    Ok(Segment {
        header,
        from,
        records,
        chain_before,
        chain_after,
    })
}

/// Splices the segment at `segment_path` into the journal replica at
/// `dest` — creating it (header-only) if absent. Idempotent: records
/// the replica already holds are verified against its chain and
/// skipped; only the genuinely new suffix is appended.
///
/// # Errors
///
/// Any [`load_segment`] error; [`TransportError::SegmentMismatch`]
/// when segment and replica identify different journals;
/// [`TransportError::Gap`] when the segment starts past the replica's
/// end; [`TransportError::ChainBreak`] when the overlap disagrees with
/// the replica's history.
pub fn ingest_segment(dest: &Path, segment_path: &Path) -> Result<IngestOutcome, TransportError> {
    let segment = load_segment(segment_path)?;
    let mut journal = if dest.exists() {
        let journal = Journal::load(dest)?;
        if let Some((field, found, expected)) = segment.header.first_difference(&journal.header) {
            return Err(TransportError::SegmentMismatch {
                field,
                found,
                expected,
            });
        }
        journal
    } else {
        Journal::create(dest, segment.header.clone())?
    };

    let have = journal.records.len();
    if segment.from > have {
        return Err(TransportError::Gap {
            have,
            from: segment.from,
        });
    }
    // The splice point must sit on the same history: the replica's
    // chain after `from` records has to equal the segment's declared
    // starting chain.
    let mut chain = journal.chain_at(segment.from);
    if chain != segment.chain_before {
        return Err(TransportError::ChainBreak { record: 0 });
    }
    // Overlap: records the replica already holds, walked once from the
    // splice point. Chain equality is record equality (the chain
    // commits to slot and payload bits), so comparing the running chain
    // suffices.
    let overlap = journal.records[segment.from..].iter().zip(&segment.records);
    for (i, ((slot, payload), (_, _, seg_chain))) in overlap.enumerate() {
        chain = chain_step(chain, &record_body(*slot, payload));
        if chain != *seg_chain {
            return Err(TransportError::ChainBreak { record: i });
        }
    }
    let duplicates = segment.records.len().min(have - segment.from);
    // New suffix: append through the journal so the replica re-derives
    // and re-verifies the chain itself.
    for (i, (slot, payload, seg_chain)) in segment.records.iter().enumerate().skip(duplicates) {
        journal.append(*slot, payload)?;
        if journal.chain() != *seg_chain {
            return Err(TransportError::ChainBreak { record: i });
        }
    }
    Ok(IngestOutcome {
        appended: segment.records.len() - duplicates,
        duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Shard;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mb-lab-transport-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn sample_journal(dir: &Path, records: usize) -> PathBuf {
        let path = dir.join("src.journal");
        let header = JournalHeader {
            campaign: "transport-test".to_string(),
            seed: 0xFEED,
            tasks: 16,
            shard: Shard::solo(),
        };
        let mut journal = Journal::create(&path, header).expect("create");
        for slot in 0..records {
            journal
                .append(slot, &[slot as f64, 0.5 + slot as f64])
                .expect("append");
        }
        path
    }

    #[test]
    fn round_trip_replicates_byte_identically() {
        let dir = scratch("round-trip");
        let src = sample_journal(&dir, 5);
        let seg = dir.join("all.seg");
        let meta = export_segment(&src, 0, &seg).expect("export");
        assert_eq!(meta.records.len(), 5);

        let dest = dir.join("replica.journal");
        let out = ingest_segment(&dest, &seg).expect("ingest");
        assert_eq!((out.appended, out.duplicates), (5, 0));
        assert_eq!(fs::read(&src).expect("src"), fs::read(&dest).expect("dest"));
    }

    #[test]
    fn reingest_is_a_noop_and_incremental_segments_splice() {
        let dir = scratch("idempotent");
        let src = sample_journal(&dir, 3);
        let first = dir.join("first.seg");
        export_segment(&src, 0, &first).expect("export prefix");

        let dest = dir.join("replica.journal");
        ingest_segment(&dest, &first).expect("first ingest");
        // Duplicate upload of the same segment: verified, applied as 0.
        let replay = ingest_segment(&dest, &first).expect("replay");
        assert_eq!((replay.appended, replay.duplicates), (0, 3));

        // Source grows; an incremental segment from offset 2 overlaps
        // one record and appends the rest.
        {
            let mut journal = Journal::load(&src).expect("load src");
            for slot in 3..6 {
                journal.append(slot, &[slot as f64, 0.5 + slot as f64]).expect("append");
            }
        }
        let incr = dir.join("incr.seg");
        export_segment(&src, 2, &incr).expect("export incremental");
        let out = ingest_segment(&dest, &incr).expect("incremental ingest");
        assert_eq!((out.appended, out.duplicates), (3, 1));
        assert_eq!(fs::read(&src).expect("src"), fs::read(&dest).expect("dest"));
        // And the incremental upload replays as a pure no-op too.
        let replay = ingest_segment(&dest, &incr).expect("replay incremental");
        assert_eq!((replay.appended, replay.duplicates), (0, 4));
    }

    #[test]
    fn reordered_upload_is_a_gap_until_the_predecessor_lands() {
        let dir = scratch("reorder");
        let src = sample_journal(&dir, 4);
        let head = dir.join("head.seg");
        let tail = dir.join("tail.seg");
        export_segment(&src, 0, &head).expect("head");
        // Grow the source, then cut the tail segment.
        {
            let mut journal = Journal::load(&src).expect("load");
            for slot in 4..8 {
                journal.append(slot, &[slot as f64, 0.0]).expect("append");
            }
        }
        export_segment(&src, 4, &tail).expect("tail");

        let dest = dir.join("replica.journal");
        // Tail first: rejected as a gap, replica untouched.
        match ingest_segment(&dest, &tail) {
            Err(TransportError::Gap { have: 0, from: 4 }) => {}
            other => panic!("expected Gap, got {other:?}"),
        }
        assert!(!dest.exists() || Journal::load(&dest).expect("dest").records.is_empty());
        // Head then tail: converges.
        ingest_segment(&dest, &head).expect("head ingest");
        ingest_segment(&dest, &tail).expect("tail ingest");
        assert_eq!(fs::read(&src).expect("src"), fs::read(&dest).expect("dest"));
    }

    #[test]
    fn torn_segment_is_rejected_wholesale() {
        let dir = scratch("torn");
        let src = sample_journal(&dir, 4);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");
        let full = fs::read_to_string(&seg).expect("read");

        // Drop the end trailer entirely.
        let no_trailer: String = full
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&seg, no_trailer).expect("write");
        assert!(matches!(
            ingest_segment(&dir.join("a.journal"), &seg),
            Err(TransportError::TornSegment { .. })
        ));

        // Cut mid-line (no final newline).
        fs::write(&seg, &full[..full.len() - 7]).expect("write");
        assert!(matches!(
            ingest_segment(&dir.join("b.journal"), &seg),
            Err(TransportError::TornSegment { .. })
        ));

        // Drop one record line: count disagrees.
        let mut lines: Vec<&str> = full.lines().collect();
        lines.remove(2);
        let dropped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        fs::write(&seg, dropped).expect("write");
        assert!(matches!(
            ingest_segment(&dir.join("c.journal"), &seg),
            Err(TransportError::TornSegment { .. })
        ));
    }

    #[test]
    fn tampered_payload_breaks_the_chain() {
        let dir = scratch("tamper");
        let src = sample_journal(&dir, 3);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");
        let tampered = fs::read_to_string(&seg)
            .expect("read")
            .replacen("r 1 ", "r 2 ", 1);
        fs::write(&seg, tampered).expect("write");
        assert!(matches!(
            load_segment(&seg),
            Err(TransportError::ChainBreak { record: 1 })
        ));
    }

    #[test]
    fn foreign_segment_is_refused_by_the_replica() {
        let dir = scratch("foreign");
        let src = sample_journal(&dir, 2);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");

        let other = dir.join("other.journal");
        Journal::create(
            &other,
            JournalHeader {
                campaign: "some-other-campaign".to_string(),
                seed: 0xFEED,
                tasks: 16,
                shard: Shard::solo(),
            },
        )
        .expect("create");
        assert!(matches!(
            ingest_segment(&other, &seg),
            Err(TransportError::SegmentMismatch { field: "campaign", .. })
        ));
    }

    #[test]
    fn divergent_history_is_a_chain_break_not_an_overwrite() {
        let dir = scratch("diverge");
        let src = sample_journal(&dir, 3);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");

        // A replica with the same identity but different record
        // content must refuse the splice.
        let dest = dir.join("replica.journal");
        let header = Journal::load(&src).expect("load").header;
        let mut journal = Journal::create(&dest, header).expect("create");
        journal.append(0, &[99.0, 99.5]).expect("append");
        assert!(matches!(
            ingest_segment(&dest, &seg),
            Err(TransportError::ChainBreak { .. })
        ));
        // And the replica kept its own record.
        assert_eq!(Journal::load(&dest).expect("reload").records.len(), 1);
    }

    #[test]
    fn replica_diverging_mid_overlap_is_a_chain_break_at_that_record() {
        let dir = scratch("diverge-mid");
        let src = sample_journal(&dir, 4);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");

        // The replica agrees on records 0 and 1, then holds a different
        // record 2.
        let dest = dir.join("replica.journal");
        let header = Journal::load(&src).expect("load").header;
        let mut journal = Journal::create(&dest, header).expect("create");
        for slot in 0..2 {
            journal
                .append(slot, &[slot as f64, 0.5 + slot as f64])
                .expect("append");
        }
        journal.append(2, &[99.0, 99.5]).expect("append");
        let before = fs::read(&dest).expect("replica");
        assert!(matches!(
            ingest_segment(&dest, &seg),
            Err(TransportError::ChainBreak { record: 2 })
        ));
        assert_eq!(
            fs::read(&dest).expect("replica"),
            before,
            "replica untouched"
        );
    }

    #[test]
    fn segment_header_grammar_rejects_what_no_renderer_writes() {
        let dir = scratch("grammar");
        let src = sample_journal(&dir, 1);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");
        let full = fs::read_to_string(&seg).expect("read");
        let (header, rest) = full.split_once('\n').expect("header line");
        let rows = [
            ("duplicate key", format!("{header} from=0")),
            (
                "duplicate key, last value valid",
                header.replace("count=1", "count=7 count=1"),
            ),
            (
                "empty value",
                header.replace("campaign=transport-test", "campaign="),
            ),
            ("tab separator", header.replace(" count=", "\tcount=")),
            ("trailing tab", format!("{header}\t")),
        ];
        for (case, line) in rows {
            fs::write(&seg, format!("{line}\n{rest}")).expect("write");
            match load_segment(&seg) {
                Err(e @ TransportError::BadSegment { .. }) => {
                    assert_eq!(e.exit_code(), 3, "{case}");
                }
                other => panic!("{case}: '{line}' must be a BadSegment, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_segment_is_a_valid_heartbeat() {
        let dir = scratch("empty");
        let src = sample_journal(&dir, 2);
        let seg = dir.join("empty.seg");
        let meta = export_segment(&src, 2, &seg).expect("export empty");
        assert!(meta.records.is_empty());

        // Against a fresh replica it is a gap (nothing to splice onto)…
        assert!(matches!(
            ingest_segment(&dir.join("fresh.journal"), &seg),
            Err(TransportError::Gap { .. })
        ));
        // …against a caught-up replica it is a verified no-op.
        let full = dir.join("full.seg");
        export_segment(&src, 0, &full).expect("export full");
        let dest = dir.join("replica.journal");
        ingest_segment(&dest, &full).expect("ingest full");
        let out = ingest_segment(&dest, &seg).expect("ingest empty");
        assert_eq!((out.appended, out.duplicates), (0, 0));
        // Out-of-range export is refused.
        assert!(matches!(
            export_segment(&src, 3, &dir.join("oob.seg")),
            Err(TransportError::BadRange { from: 3, len: 2 })
        ));
    }
}
