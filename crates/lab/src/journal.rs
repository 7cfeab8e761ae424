//! The append-only experiment journal.
//!
//! One journal file persists one shard's progress through one campaign.
//! The format is a hand-rolled line protocol (the workspace is std-only,
//! so nothing here round-trips through a serialization framework):
//!
//! ```text
//! mblab1 campaign=fig3-quick seed=000000000005ca1e tasks=9 shard=0/1
//! r 0 3fe8a0b2c4d6e8f0 9c1d2e3f4a5b6c7d
//! r 3 4010203040506070,4111213141516171 0123456789abcdef
//! ```
//!
//! * The **header** carries the format version (`mblab1`), the campaign
//!   name, the experiment seed, the task count and this journal's shard
//!   assignment, as a line of the lab's one `key=value` grammar (the
//!   crate-private `codec` module). Any disagreement with what the driver expects — or an
//!   unknown version token — is a hard error, never a silent skip: a
//!   journal from a different campaign must not leak results into this
//!   one.
//! * Each **record** (`r`) stores one completed slot: its index, the
//!   payload as comma-separated hex `f64` bit patterns (bit-exact by
//!   construction, no decimal round-trip), and a chained digest.
//! * The **chain** field makes the file tamper- and truncation-evident:
//!   each record's chain value mixes the previous chain value with a
//!   hash of the record body, seeded by a hash of the header. A record
//!   whose chain does not re-derive is a hard error ([`JournalError::ChainMismatch`]).
//!
//! The single deliberate soft spot is the **torn tail**: a process
//! killed mid-`write` leaves a final line with no terminating newline
//! (or half a line). That record is dropped on load and physically
//! truncated away on the next append — losing the one in-flight
//! measurement is exactly the crash semantics the resume contract
//! expects, and [`Journal::load`] reports it via `torn_tail` so drivers
//! can log the recovery.

use crate::codec::{self, Fields, LineError};
use crate::driver::Shard;
use std::fmt;
use std::fs;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

/// Format version token leading every journal header.
pub const FORMAT_VERSION: &str = "mblab1";

/// Everything that can go wrong reading or merging journals.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file's version token is not [`FORMAT_VERSION`].
    VersionSkew {
        /// The token actually found.
        found: String,
    },
    /// The header could not be parsed at all.
    BadHeader {
        /// The offending line.
        line: String,
    },
    /// The header disagrees with what the driver expected (campaign,
    /// seed, task count or shard assignment).
    HeaderMismatch {
        /// Which field disagreed.
        field: &'static str,
        /// Value in the file.
        found: String,
        /// Value the driver expected.
        expected: String,
    },
    /// A fully terminated record line failed to parse.
    BadRecord {
        /// 1-based line number.
        line_number: usize,
    },
    /// A record's chained digest does not re-derive from its
    /// predecessors — the file was edited, reordered or corrupted
    /// somewhere before its final line.
    ChainMismatch {
        /// 1-based line number of the first bad record.
        line_number: usize,
    },
    /// The same slot appears twice.
    DuplicateSlot {
        /// The repeated slot index.
        slot: usize,
    },
    /// A record names a slot outside `0..tasks` or one this shard does
    /// not own.
    ForeignSlot {
        /// The offending slot index.
        slot: usize,
    },
    /// A merge input set does not form one complete shard family
    /// (`i/N` for every `i in 0..N`, all over the same campaign).
    BadShardFamily {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A merge is missing completed slots.
    IncompleteMerge {
        /// Slots with no record in any input shard.
        missing: Vec<usize>,
    },
    /// A record's payload width disagrees with the campaign's
    /// fixed-width slot contract — e.g. a truncated six-counter faulted
    /// payload. Surfaced before the payload can reach a finalizer that
    /// would slice-index it.
    BadPayload {
        /// The offending slot index.
        slot: usize,
        /// Number of values actually recorded.
        got: usize,
        /// Width the campaign's slots produce.
        expected: usize,
    },
    /// A campaign slot panicked inside the contained sweep. The journal
    /// itself is healthy — every slot completed before the panic is
    /// persisted — so a supervisor may restart the worker and resume,
    /// quarantining the slot if it keeps crashing.
    SlotFailed {
        /// The failing slot index.
        slot: usize,
        /// The contained panic, rendered (label + payload text).
        detail: String,
    },
    /// The journal's ownership lock is held by a live process — a
    /// second writer would interleave appends and break the chain, so
    /// the run refuses to start (see [`crate::lock`]).
    Locked(crate::lock::LockError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::VersionSkew { found } => write!(
                f,
                "journal version skew: found '{found}', this build reads '{FORMAT_VERSION}'"
            ),
            JournalError::BadHeader { line } => write!(f, "unparseable journal header: '{line}'"),
            JournalError::HeaderMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "journal header mismatch: {field} is '{found}', expected '{expected}'"
            ),
            JournalError::BadRecord { line_number } => {
                write!(f, "unparseable journal record at line {line_number}")
            }
            JournalError::ChainMismatch { line_number } => write!(
                f,
                "journal digest chain broken at line {line_number}: file was modified or corrupted"
            ),
            JournalError::DuplicateSlot { slot } => {
                write!(f, "journal records slot {slot} twice")
            }
            JournalError::ForeignSlot { slot } => {
                write!(f, "journal records slot {slot}, which is out of range or unowned")
            }
            JournalError::BadShardFamily { detail } => {
                write!(f, "merge inputs are not one shard family: {detail}")
            }
            JournalError::IncompleteMerge { missing } => {
                write!(f, "merge is missing {} slot(s): {missing:?}", missing.len())
            }
            JournalError::BadPayload {
                slot,
                got,
                expected,
            } => write!(
                f,
                "journal records a {got}-value payload for slot {slot}, campaign slots are \
                 {expected} values wide"
            ),
            // The leading "slot <n> failed:" form is parsed by the
            // supervisor's poison-slot tracker — keep it stable.
            JournalError::SlotFailed { slot, detail } => {
                write!(f, "slot {slot} failed: {detail}")
            }
            JournalError::Locked(e) => write!(f, "{e}"),
        }
    }
}

impl JournalError {
    /// The process exit code a driver should report for this error
    /// (see [`mb_simcore::error::exit_code`]): corruption of the
    /// on-disk format maps to [`exit_code::CORRUPT`], a contained slot
    /// panic to [`exit_code::SLOT_PANIC`], and disagreements between a
    /// healthy file and the invocation (wrong campaign, inconsistent
    /// shard family, unreadable path) to [`exit_code::ENV_MISCONFIG`].
    ///
    /// [`exit_code::CORRUPT`]: mb_simcore::error::exit_code::CORRUPT
    /// [`exit_code::SLOT_PANIC`]: mb_simcore::error::exit_code::SLOT_PANIC
    /// [`exit_code::ENV_MISCONFIG`]: mb_simcore::error::exit_code::ENV_MISCONFIG
    pub fn exit_code(&self) -> u8 {
        use mb_simcore::error::exit_code;
        match self {
            JournalError::VersionSkew { .. }
            | JournalError::BadHeader { .. }
            | JournalError::BadRecord { .. }
            | JournalError::ChainMismatch { .. }
            | JournalError::DuplicateSlot { .. }
            | JournalError::ForeignSlot { .. }
            | JournalError::BadPayload { .. } => exit_code::CORRUPT,
            JournalError::SlotFailed { .. } => exit_code::SLOT_PANIC,
            JournalError::Io(_)
            | JournalError::HeaderMismatch { .. }
            | JournalError::BadShardFamily { .. }
            | JournalError::IncompleteMerge { .. } => exit_code::ENV_MISCONFIG,
            JournalError::Locked(e) => e.exit_code(),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The identity a journal claims in its header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign name the records belong to.
    pub campaign: String,
    /// Experiment seed the campaign derives its slot seeds from.
    pub seed: u64,
    /// Total slot count of the campaign (across all shards).
    pub tasks: usize,
    /// This journal's place in the partition of the campaign's slots.
    pub shard: Shard,
}

/// The fields every header carries, in rendering order.
const HEADER_KEYS: [&str; 4] = ["campaign", "seed", "tasks", "shard"];

impl JournalHeader {
    /// Renders the journal header line (without the trailing newline).
    pub(crate) fn render(&self) -> String {
        self.render_as(FORMAT_VERSION)
    }

    /// Renders the header fields behind the version token `version`.
    pub(crate) fn render_as(&self, version: &str) -> String {
        format!(
            "{version} campaign={} seed={:016x} tasks={} shard={}",
            self.campaign, self.seed, self.tasks, self.shard
        )
    }

    /// Parses the fields after a header's version token: the header
    /// fields plus the `extra` ones a format adds, which the caller
    /// reads from the returned [`Fields`].
    pub(crate) fn parse_with<'a>(
        rest: &'a str,
        extra: &[&str],
    ) -> Result<(JournalHeader, Fields<'a>), LineError> {
        let keys: Vec<&str> = HEADER_KEYS.iter().chain(extra).copied().collect();
        let f = Fields::parse(rest, "header", &keys, &[])?;
        let header = JournalHeader {
            campaign: f.get("campaign").expect("required key").to_string(),
            seed: f.hex("seed")?,
            tasks: f.counter("tasks")?,
            shard: f.shard("shard")?,
        };
        Ok((header, f))
    }

    fn parse(line: &str) -> Result<JournalHeader, JournalError> {
        let rest = codec::split_version(line, FORMAT_VERSION)
            .map_err(|found| JournalError::VersionSkew { found })?;
        let (header, _) =
            JournalHeader::parse_with(rest, &[]).map_err(|_| JournalError::BadHeader {
                line: line.to_string(),
            })?;
        Ok(header)
    }

    /// The first field on which this header differs from `expected`,
    /// as `(field, found, expected)` renderings.
    pub(crate) fn first_difference(
        &self,
        expected: &JournalHeader,
    ) -> Option<(&'static str, String, String)> {
        if self.campaign != expected.campaign {
            return Some(("campaign", self.campaign.clone(), expected.campaign.clone()));
        }
        if self.seed != expected.seed {
            let hex = |seed: u64| format!("{seed:016x}");
            return Some(("seed", hex(self.seed), hex(expected.seed)));
        }
        if self.tasks != expected.tasks {
            return Some(("tasks", self.tasks.to_string(), expected.tasks.to_string()));
        }
        if self.shard != expected.shard {
            return Some(("shard", self.shard.to_string(), expected.shard.to_string()));
        }
        None
    }
}

/// FNV-1a over a byte string — the line hash feeding the digest chain.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — diffuses the chain state between records.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Chain value after appending a record with body `body` to a chain
/// currently at `prev`.
pub(crate) fn chain_step(prev: u64, body: &str) -> u64 {
    mix64(prev ^ fnv1a64(body.as_bytes()))
}

/// Renders a record body (everything before the chain field).
pub(crate) fn record_body(slot: usize, payload: &[f64]) -> String {
    let hex: Vec<String> = payload.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
    format!("r {:x} {}", slot, hex.join(","))
}

/// Parses a record line into `(slot, payload, chain)`.
pub(crate) fn parse_record(line: &str) -> Option<(usize, Vec<f64>, u64)> {
    let rest = line.strip_prefix("r ")?;
    let mut fields = rest.split(' ');
    let slot = usize::from_str_radix(fields.next()?, 16).ok()?;
    let payload_hex = fields.next()?;
    let chain = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() {
        return None;
    }
    let mut payload = Vec::new();
    if !payload_hex.is_empty() {
        for part in payload_hex.split(',') {
            payload.push(f64::from_bits(u64::from_str_radix(part, 16).ok()?));
        }
    }
    Some((slot, payload, chain))
}

/// One shard's persisted progress: the parsed header, every verified
/// record, and enough bookkeeping to append safely.
#[derive(Debug)]
pub struct Journal {
    /// The verified header.
    pub header: JournalHeader,
    /// `(slot, payload)` in append order (not slot order).
    pub records: Vec<(usize, Vec<f64>)>,
    /// Whether `load` dropped a torn final line (recovered, not fatal).
    pub torn_tail: bool,
    path: PathBuf,
    chain: u64,
    /// Byte length of the verified prefix; anything past it is torn.
    valid_len: u64,
}

impl Journal {
    /// Creates a fresh journal at `path`, writing the header line.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be written.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Journal, JournalError> {
        let line = header.render();
        let mut text = line.clone();
        text.push('\n');
        fs::write(path, &text)?;
        Ok(Journal {
            chain: fnv1a64(line.as_bytes()),
            valid_len: text.len() as u64,
            header,
            records: Vec::new(),
            torn_tail: false,
            path: path.to_path_buf(),
        })
    }

    /// Loads and fully verifies a journal: header, every record's
    /// syntax, slot ranges, duplicates and the digest chain. A torn
    /// final line (crash mid-append) is dropped and flagged; every
    /// other irregularity is a hard error.
    ///
    /// # Errors
    ///
    /// See [`JournalError`] — anything except a torn tail fails.
    pub fn load(path: &Path) -> Result<Journal, JournalError> {
        let raw = fs::read_to_string(path)?;
        let (complete, rest) = codec::split_lines(&raw);
        let mut torn_tail = !rest.is_empty();

        let header_line = complete.first().ok_or_else(|| {
            // Even the header line is incomplete: unrecoverable.
            JournalError::BadHeader {
                line: rest.to_string(),
            }
        })?;
        let header = JournalHeader::parse(header_line)?;
        let mut chain = fnv1a64(header_line.as_bytes());
        let mut valid_len = header_line.len() as u64 + 1;

        let mut records: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut seen = vec![false; header.tasks];
        for (i, line) in complete.iter().enumerate().skip(1) {
            let line_number = i + 1;
            let last = i + 1 == complete.len();
            let parsed = parse_record(line);
            let Some((slot, payload, recorded_chain)) = parsed else {
                if last && !torn_tail {
                    // A malformed final line with nothing after it is a
                    // torn write too (e.g. the newline made it out but
                    // the body didn't finish): drop it.
                    torn_tail = true;
                    break;
                }
                return Err(JournalError::BadRecord { line_number });
            };
            let expected_chain = chain_step(chain, &record_body(slot, &payload));
            if recorded_chain != expected_chain {
                return Err(JournalError::ChainMismatch { line_number });
            }
            if slot >= header.tasks || !header.shard.owns(slot) {
                return Err(JournalError::ForeignSlot { slot });
            }
            if seen[slot] {
                return Err(JournalError::DuplicateSlot { slot });
            }
            seen[slot] = true;
            chain = expected_chain;
            valid_len += line.len() as u64 + 1;
            records.push((slot, payload));
        }

        Ok(Journal {
            header,
            records,
            torn_tail,
            path: path.to_path_buf(),
            chain,
            valid_len,
        })
    }

    /// Loads `path` if it exists (verifying its header matches
    /// `expected`), otherwise creates it fresh.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] from [`Journal::load`] / [`Journal::create`],
    /// plus [`JournalError::HeaderMismatch`] when an existing file
    /// belongs to a different campaign, seed, task count or shard.
    pub fn open_or_create(path: &Path, expected: JournalHeader) -> Result<Journal, JournalError> {
        if !path.exists() {
            return Journal::create(path, expected);
        }
        let journal = Journal::load(path)?;
        journal.check_header(&expected)?;
        Ok(journal)
    }

    /// Verifies this journal's header equals `expected` field by field.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::HeaderMismatch`] naming the first
    /// disagreeing field.
    pub fn check_header(&self, expected: &JournalHeader) -> Result<(), JournalError> {
        match self.header.first_difference(expected) {
            Some((field, found, expected)) => Err(JournalError::HeaderMismatch {
                field,
                found,
                expected,
            }),
            None => Ok(()),
        }
    }

    /// The slots this journal has completed, as a sorted list.
    pub fn completed_slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = self.records.iter().map(|(s, _)| *s).collect();
        slots.sort_unstable();
        slots
    }

    /// Appends one completed slot. The first append after loading a
    /// torn file truncates the torn bytes away so the file returns to a
    /// verified prefix plus this record.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::DuplicateSlot`] / [`JournalError::ForeignSlot`]
    /// on contract violations and [`JournalError::Io`] on write failure.
    pub fn append(&mut self, slot: usize, payload: &[f64]) -> Result<(), JournalError> {
        if slot >= self.header.tasks || !self.header.shard.owns(slot) {
            return Err(JournalError::ForeignSlot { slot });
        }
        if self.records.iter().any(|(s, _)| *s == slot) {
            return Err(JournalError::DuplicateSlot { slot });
        }
        let body = record_body(slot, payload);
        let next_chain = chain_step(self.chain, &body);
        let line = format!("{body} {next_chain:016x}\n");

        let mut file = fs::OpenOptions::new().write(true).open(&self.path)?;
        if self.torn_tail {
            file.set_len(self.valid_len)?;
            self.torn_tail = false;
        }
        file.seek(std::io::SeekFrom::Start(self.valid_len))?;
        file.write_all(line.as_bytes())?;
        file.flush()?;

        self.chain = next_chain;
        self.valid_len += line.len() as u64;
        self.records.push((slot, payload.to_vec()));
        Ok(())
    }

    /// Path this journal persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The chain value after the first `count` records (in append
    /// order); `count == 0` yields the header-seeded chain start.
    /// Recomputed from verified records, so any `count` up to
    /// `records.len()` is valid — the transport uses this to verify a
    /// segment's splice point.
    ///
    /// # Panics
    ///
    /// Panics when `count > records.len()` — callers bound it first.
    pub fn chain_at(&self, count: usize) -> u64 {
        assert!(count <= self.records.len(), "chain_at past journal end");
        let mut chain = fnv1a64(self.header.render().as_bytes());
        for (slot, payload) in &self.records[..count] {
            chain = chain_step(chain, &record_body(*slot, payload));
        }
        chain
    }

    /// The chain value over the whole verified file (header + every
    /// record) — the value the next append will mix against.
    pub fn chain(&self) -> u64 {
        self.chain
    }
}

/// Merges one complete shard family into a single canonical journal at
/// `out`: verifies the inputs agree on campaign/seed/tasks and form
/// exactly the partition `0/N .. (N-1)/N`, that together they complete
/// every slot, then writes a fresh `shard=0/1` journal with records in
/// ascending slot order (re-chained over the merged header).
///
/// Returns the merged journal.
///
/// # Errors
///
/// [`JournalError::BadShardFamily`] on inconsistent inputs,
/// [`JournalError::IncompleteMerge`] when slots are missing, plus any
/// load/write error.
pub fn merge(out: &Path, inputs: &[PathBuf]) -> Result<Journal, JournalError> {
    merge_allowing(out, inputs, &[])
}

/// [`merge`] with a quarantine list: slots named in `allow_missing`
/// may be absent from every input (the supervisor fenced them off
/// after repeated worker crashes) and are simply left out of the
/// merged journal. Any *other* missing slot is still
/// [`JournalError::IncompleteMerge`], and a quarantined slot that does
/// have a record is merged normally — quarantine permits absence, it
/// does not erase data.
///
/// # Errors
///
/// As [`merge`].
pub fn merge_allowing(
    out: &Path,
    inputs: &[PathBuf],
    allow_missing: &[usize],
) -> Result<Journal, JournalError> {
    if inputs.is_empty() {
        return Err(JournalError::BadShardFamily {
            detail: "no input journals".to_string(),
        });
    }
    let shards: Vec<Journal> = inputs
        .iter()
        .map(|p| Journal::load(p))
        .collect::<Result<_, _>>()?;

    let first = &shards[0].header;
    let n = first.shard.count;
    if shards.len() != n as usize {
        return Err(JournalError::BadShardFamily {
            detail: format!("{} inputs for a {n}-way partition", shards.len()),
        });
    }
    let mut seen_shard = vec![false; n as usize];
    for j in &shards {
        let h = &j.header;
        if (h.campaign.as_str(), h.seed, h.tasks, h.shard.count)
            != (first.campaign.as_str(), first.seed, first.tasks, n)
        {
            return Err(JournalError::BadShardFamily {
                detail: format!(
                    "'{}' ({}, seed {:016x}, {} tasks, /{}) does not match '{}'",
                    j.path.display(),
                    h.campaign,
                    h.seed,
                    h.tasks,
                    h.shard.count,
                    first.campaign
                ),
            });
        }
        let idx = h.shard.index as usize;
        if seen_shard[idx] {
            return Err(JournalError::BadShardFamily {
                detail: format!("shard {idx}/{n} appears twice"),
            });
        }
        seen_shard[idx] = true;
    }

    let mut slots: Vec<Option<Vec<f64>>> = vec![None; first.tasks];
    for j in &shards {
        for (slot, payload) in &j.records {
            // Per-journal loads already rejected foreign/duplicate slots.
            slots[*slot] = Some(payload.clone());
        }
    }
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .filter(|i| !allow_missing.contains(i))
        .collect();
    if !missing.is_empty() {
        return Err(JournalError::IncompleteMerge { missing });
    }

    let merged_header = JournalHeader {
        campaign: first.campaign.clone(),
        seed: first.seed,
        tasks: first.tasks,
        shard: Shard::solo(),
    };
    let mut merged = Journal::create(out, merged_header)?;
    for (slot, payload) in slots.into_iter().enumerate() {
        if let Some(payload) = payload {
            merged.append(slot, &payload)?;
        }
    }
    Ok(merged)
}
