//! `mbsrv1` — the versioned line protocol of `mb-lab serve`.
//!
//! One frame per line, UTF-8, `\n`-terminated, at most
//! [`MAX_FRAME_BYTES`] bytes including the terminator. Every frame
//! leads with the version token (`mbsrv1`), then a verb, then
//! `key=value` fields in a fixed canonical order:
//!
//! ```text
//! mbsrv1 submit campaign=fig3-quick shards=2
//! mbsrv1 submitted job=j1 queued=1
//! mbsrv1 busy queued=8 cap=8
//! mbsrv1 progress job=j1 done=3 total=9 eta_ms=1200
//! mbsrv1 done job=j1 state=done digest=0xd0d5f716d0b30356 checked=true
//! mbsrv1 err code=6 msg=bare token 'x' (want key=value)
//! ```
//!
//! The free-text fields (`msg`, `detail`) are always last and run to
//! the end of the line, so they may contain spaces but never a
//! newline. Everything else is machine-checked: names are
//! `[a-z0-9_-]{1,64}`, counters are decimal, digests are
//! `0x`-prefixed 16-digit hex — exactly the renderings the journal
//! and transport layers already pin.
//!
//! The failure contract mirrors the rest of the workspace: a frame
//! that cannot be parsed is a typed [`ProtocolError`] (never a
//! panic), the server answers it with `err code=<exit code>` and the
//! client process exits with that same code — wire faults are
//! [`exit_code::PROTOCOL`] (6), an unreachable or load-shedding
//! server is [`exit_code::UNAVAILABLE`] (7).
//!
//! [`exit_code::PROTOCOL`]: mb_simcore::error::exit_code::PROTOCOL
//! [`exit_code::UNAVAILABLE`]: mb_simcore::error::exit_code::UNAVAILABLE

use crate::codec::{self, Fields, LineError};
use std::fmt;
use std::io::{BufRead, Read, Write};

/// The version token every frame must lead with.
pub const PROTOCOL_VERSION: &str = "mbsrv1";

/// Hard cap on one frame, terminator included. Generous for every
/// canonical frame (the longest is an `err` with a one-line message)
/// while bounding what one connection can make the server buffer.
pub const MAX_FRAME_BYTES: usize = 4096;

/// Longest accepted name (campaign or job id).
pub const MAX_NAME_BYTES: usize = 64;

/// Most shards one submission may ask for.
pub const MAX_SHARDS: u32 = 4096;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// The frame's leading token is not [`PROTOCOL_VERSION`].
    VersionSkew {
        /// The token actually found.
        found: String,
    },
    /// The frame parsed as a line but not as a frame: unknown verb,
    /// missing/duplicate/unknown field, malformed value, bare token.
    BadFrame {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The line exceeded [`MAX_FRAME_BYTES`] before its terminator.
    Oversized {
        /// The configured cap.
        limit: usize,
    },
    /// The stream ended mid-frame (bytes after the last terminator).
    Truncated {
        /// Unterminated bytes left at EOF.
        got: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol I/O error: {e}"),
            ProtocolError::VersionSkew { found } => write!(
                f,
                "protocol version skew: found '{found}', this build speaks '{PROTOCOL_VERSION}'"
            ),
            ProtocolError::BadFrame { detail } => write!(f, "malformed frame: {detail}"),
            ProtocolError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte line cap")
            }
            ProtocolError::Truncated { got } => {
                write!(f, "stream truncated mid-frame ({got} unterminated byte(s))")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<LineError> for ProtocolError {
    fn from(e: LineError) -> Self {
        ProtocolError::BadFrame { detail: e.0 }
    }
}

impl ProtocolError {
    /// The exit code (and on-wire `err code=`) for this fault: socket
    /// failures mean the peer is unavailable, everything else is a
    /// wire-format fault.
    pub fn exit_code(&self) -> u8 {
        use mb_simcore::error::exit_code;
        match self {
            ProtocolError::Io(_) => exit_code::UNAVAILABLE,
            ProtocolError::VersionSkew { .. }
            | ProtocolError::BadFrame { .. }
            | ProtocolError::Oversized { .. }
            | ProtocolError::Truncated { .. } => exit_code::PROTOCOL,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is supervising its shard family right now.
    Running,
    /// Converged (digest present unless slots were quarantined).
    Done,
    /// The family failed; `detail` carries the postmortem line.
    Failed,
    /// Cancelled by a client; journals intact and resumable.
    Cancelled,
}

impl JobState {
    /// The on-wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses the on-wire token.
    pub fn parse(text: &str) -> Option<JobState> {
        match text {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a shard family of `campaign` with `shards` workers.
    Submit {
        /// Registered campaign name.
        campaign: String,
        /// Worker count for the family.
        shards: u32,
    },
    /// Snapshot one job (or all jobs when `job` is `None`).
    Status {
        /// Job to snapshot; `None` lists every job.
        job: Option<String>,
    },
    /// Stream progress frames until the job reaches a terminal state.
    Watch {
        /// Job to follow.
        job: String,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job to cancel.
        job: String,
    },
    /// Stream the job's merged journal as one `mbseg1` segment.
    Fetch {
        /// Job whose results to fetch.
        job: String,
    },
    /// Liveness probe.
    Ping,
    /// Stop accepting work, finish running jobs, exit.
    Shutdown,
}

/// One job's snapshot, as carried by `status` replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: String,
    /// Campaign name.
    pub campaign: String,
    /// Worker count.
    pub shards: u32,
    /// Current lifecycle state.
    pub state: JobState,
    /// Slots journaled so far.
    pub done: usize,
    /// Slots in the campaign.
    pub total: usize,
    /// Merged digest, once converged and fully measured.
    pub digest: Option<u64>,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Submission accepted.
    Submitted {
        /// Assigned job id.
        job: String,
        /// Queue depth after the submission.
        queued: usize,
    },
    /// Typed backpressure: the job queue is at its bound.
    Busy {
        /// Jobs currently queued.
        queued: usize,
        /// The configured queue bound.
        cap: usize,
    },
    /// Typed failure; `code` follows the exit-code contract.
    Err {
        /// Exit code the client should die with.
        code: u8,
        /// Human-readable description (runs to end of line).
        msg: String,
    },
    /// One job snapshot (`status` sends one per job).
    Job(JobStatus),
    /// Terminator after a `status` listing.
    End {
        /// Snapshots sent before this frame.
        count: usize,
    },
    /// One `watch` heartbeat.
    Progress {
        /// Job being watched.
        job: String,
        /// Slots journaled so far.
        done: usize,
        /// Slots in the campaign.
        total: usize,
        /// Live estimate of time to convergence, when computable.
        eta_ms: Option<u64>,
    },
    /// Terminal frame of a `watch` stream.
    Done {
        /// The watched job.
        job: String,
        /// Terminal state.
        state: JobState,
        /// Merged digest (fully measured campaigns only).
        digest: Option<u64>,
        /// Whether the digest was checked against a registry pin.
        checked: bool,
        /// Postmortem / degradation note (runs to end of line).
        detail: Option<String>,
    },
    /// Header before `lines` raw `mbseg1` lines follow verbatim.
    Segment {
        /// Raw segment lines that follow this frame.
        lines: usize,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`.
    Stopping {
        /// Jobs still running (they will be drained).
        running: usize,
    },
}

fn bad(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::BadFrame {
        detail: detail.into(),
    }
}

/// Parses the fields of a `verb` frame with exactly the key sets given
/// (see [`Fields::parse`]).
fn fields<'a>(
    rest: &'a str,
    verb: &str,
    required: &[&str],
    optional: &[&str],
) -> Result<Fields<'a>, ProtocolError> {
    Ok(Fields::parse(rest, format_args!("{verb} frame"), required, optional)?)
}

fn state(f: &Fields, key: &str) -> Result<JobState, ProtocolError> {
    let value = f.get(key).expect("required key checked in parse");
    JobState::parse(value).ok_or_else(|| bad(format!("bad job state '{value}'")))
}

/// Strips and checks the version token, returning `(verb, rest)`.
fn split_verb(line: &str) -> Result<(&str, &str), ProtocolError> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let rest = codec::split_version(line, PROTOCOL_VERSION)
        .map_err(|found| ProtocolError::VersionSkew { found })?;
    let rest = rest.trim_start_matches(' ');
    let (verb, fields) = rest.split_once(' ').unwrap_or((rest, ""));
    if verb.is_empty() {
        return Err(bad("frame has no verb"));
    }
    Ok((verb, fields))
}

impl Request {
    /// Renders the canonical frame (no terminator).
    pub fn render(&self) -> String {
        match self {
            Request::Submit { campaign, shards } => {
                format!("{PROTOCOL_VERSION} submit campaign={campaign} shards={shards}")
            }
            Request::Status { job: None } => format!("{PROTOCOL_VERSION} status"),
            Request::Status { job: Some(job) } => format!("{PROTOCOL_VERSION} status job={job}"),
            Request::Watch { job } => format!("{PROTOCOL_VERSION} watch job={job}"),
            Request::Cancel { job } => format!("{PROTOCOL_VERSION} cancel job={job}"),
            Request::Fetch { job } => format!("{PROTOCOL_VERSION} fetch job={job}"),
            Request::Ping => format!("{PROTOCOL_VERSION} ping"),
            Request::Shutdown => format!("{PROTOCOL_VERSION} shutdown"),
        }
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::VersionSkew`] or [`ProtocolError::BadFrame`];
    /// never panics on any input.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let (verb, rest) = split_verb(line)?;
        match verb {
            "submit" => {
                let f = fields(rest, verb, &["campaign", "shards"], &[])?;
                let campaign = f.name("campaign")?;
                let shards: u64 = f.counter("shards")?;
                if shards == 0 || shards > u64::from(MAX_SHARDS) {
                    return Err(bad(format!("shards must be 1..={MAX_SHARDS}, got {shards}")));
                }
                Ok(Request::Submit {
                    campaign,
                    shards: shards as u32,
                })
            }
            "status" => {
                let f = fields(rest, verb, &[], &["job"])?;
                let job = match f.get("job") {
                    Some(_) => Some(f.name("job")?),
                    None => None,
                };
                Ok(Request::Status { job })
            }
            "watch" | "cancel" | "fetch" => {
                let f = fields(rest, verb, &["job"], &[])?;
                let job = f.name("job")?;
                Ok(match verb {
                    "watch" => Request::Watch { job },
                    "cancel" => Request::Cancel { job },
                    _ => Request::Fetch { job },
                })
            }
            "ping" => {
                fields(rest, verb, &[], &[])?;
                Ok(Request::Ping)
            }
            "shutdown" => {
                fields(rest, verb, &[], &[])?;
                Ok(Request::Shutdown)
            }
            other => Err(bad(format!("unknown request verb '{other}'"))),
        }
    }
}

impl Reply {
    /// Renders the canonical frame (no terminator).
    pub fn render(&self) -> String {
        match self {
            Reply::Submitted { job, queued } => {
                format!("{PROTOCOL_VERSION} submitted job={job} queued={queued}")
            }
            Reply::Busy { queued, cap } => {
                format!("{PROTOCOL_VERSION} busy queued={queued} cap={cap}")
            }
            Reply::Err { code, msg } => {
                format!("{PROTOCOL_VERSION} err code={code} msg={}", sanitize(msg))
            }
            Reply::Job(s) => {
                let mut out = format!(
                    "{PROTOCOL_VERSION} job id={} campaign={} shards={} state={} done={} total={}",
                    s.job,
                    s.campaign,
                    s.shards,
                    s.state.as_str(),
                    s.done,
                    s.total
                );
                if let Some(d) = s.digest {
                    out.push_str(&format!(" digest={d:#018x}"));
                }
                out
            }
            Reply::End { count } => format!("{PROTOCOL_VERSION} end count={count}"),
            Reply::Progress {
                job,
                done,
                total,
                eta_ms,
            } => {
                let mut out =
                    format!("{PROTOCOL_VERSION} progress job={job} done={done} total={total}");
                if let Some(eta) = eta_ms {
                    out.push_str(&format!(" eta_ms={eta}"));
                }
                out
            }
            Reply::Done {
                job,
                state,
                digest,
                checked,
                detail,
            } => {
                let mut out = format!("{PROTOCOL_VERSION} done job={job} state={}", state.as_str());
                if let Some(d) = digest {
                    out.push_str(&format!(" digest={d:#018x} checked={checked}"));
                }
                if let Some(detail) = detail {
                    out.push_str(&format!(" detail={}", sanitize(detail)));
                }
                out
            }
            Reply::Segment { lines } => format!("{PROTOCOL_VERSION} segment lines={lines}"),
            Reply::Pong => format!("{PROTOCOL_VERSION} pong"),
            Reply::Stopping { running } => {
                format!("{PROTOCOL_VERSION} stopping running={running}")
            }
        }
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::VersionSkew`] or [`ProtocolError::BadFrame`];
    /// never panics on any input.
    pub fn parse(line: &str) -> Result<Reply, ProtocolError> {
        let (verb, rest) = split_verb(line)?;
        match verb {
            "submitted" => {
                let f = fields(rest, verb, &["job", "queued"], &[])?;
                Ok(Reply::Submitted {
                    job: f.name("job")?,
                    queued: f.counter("queued")?,
                })
            }
            "busy" => {
                let f = fields(rest, verb, &["queued", "cap"], &[])?;
                Ok(Reply::Busy {
                    queued: f.counter("queued")?,
                    cap: f.counter("cap")?,
                })
            }
            "err" => {
                let f = fields(rest, verb, &["code", "msg"], &[])?;
                let code: usize = f.counter("code")?;
                if code == 0 || code > 255 {
                    return Err(bad(format!("err code {code} outside 1..=255")));
                }
                Ok(Reply::Err {
                    code: code as u8,
                    msg: f.get("msg").expect("required").to_string(),
                })
            }
            "job" => {
                let f = fields(
                    rest,
                    verb,
                    &["id", "campaign", "shards", "state", "done", "total"],
                    &["digest"],
                )?;
                let digest = match f.get("digest") {
                    Some(_) => Some(f.digest("digest")?),
                    None => None,
                };
                Ok(Reply::Job(JobStatus {
                    job: f.name("id")?,
                    campaign: f.name("campaign")?,
                    shards: f.counter::<usize>("shards")? as u32,
                    state: state(&f, "state")?,
                    done: f.counter("done")?,
                    total: f.counter("total")?,
                    digest,
                }))
            }
            "end" => {
                let f = fields(rest, verb, &["count"], &[])?;
                Ok(Reply::End {
                    count: f.counter("count")?,
                })
            }
            "progress" => {
                let f = fields(rest, verb, &["job", "done", "total"], &["eta_ms"])?;
                let eta_ms = match f.get("eta_ms") {
                    Some(_) => Some(f.counter("eta_ms")?),
                    None => None,
                };
                Ok(Reply::Progress {
                    job: f.name("job")?,
                    done: f.counter("done")?,
                    total: f.counter("total")?,
                    eta_ms,
                })
            }
            "done" => {
                let f = fields(
                    rest,
                    verb,
                    &["job", "state"],
                    &["digest", "checked", "detail"],
                )?;
                let digest = match f.get("digest") {
                    Some(_) => Some(f.digest("digest")?),
                    None => None,
                };
                let checked = match f.get("checked") {
                    None => false,
                    Some("true") => true,
                    Some("false") => false,
                    Some(other) => return Err(bad(format!("bad checked '{other}'"))),
                };
                Ok(Reply::Done {
                    job: f.name("job")?,
                    state: state(&f, "state")?,
                    digest,
                    checked,
                    detail: f.get("detail").map(str::to_string),
                })
            }
            "segment" => {
                let f = fields(rest, verb, &["lines"], &[])?;
                Ok(Reply::Segment {
                    lines: f.counter("lines")?,
                })
            }
            "pong" => {
                fields(rest, verb, &[], &[])?;
                Ok(Reply::Pong)
            }
            "stopping" => {
                let f = fields(rest, verb, &["running"], &[])?;
                Ok(Reply::Stopping {
                    running: f.counter("running")?,
                })
            }
            other => Err(bad(format!("unknown reply verb '{other}'"))),
        }
    }
}

/// Free text must stay one line; fold any embedded terminator.
fn sanitize(text: &str) -> String {
    text.replace(['\n', '\r'], "; ")
}

/// Reads one frame line, enforcing the byte cap. `Ok(None)` is a
/// clean EOF between frames.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] past the cap,
/// [`ProtocolError::Truncated`] on EOF mid-line, or the underlying
/// [`ProtocolError::Io`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<Option<String>, ProtocolError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        if buf.len() > MAX_FRAME_BYTES {
            return Err(ProtocolError::Oversized {
                limit: MAX_FRAME_BYTES,
            });
        }
        return Err(ProtocolError::Truncated { got: buf.len() });
    }
    buf.pop();
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad("frame is not UTF-8"))
}

/// Writes one frame line (terminator added) and flushes.
///
/// # Errors
///
/// The underlying [`ProtocolError::Io`].
pub fn write_frame<W: Write>(writer: &mut W, frame: &str) -> Result<(), ProtocolError> {
    writer.write_all(frame.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn requests_round_trip_canonically() {
        let frames = [
            Request::Submit {
                campaign: "fig3-quick".to_string(),
                shards: 2,
            },
            Request::Status { job: None },
            Request::Status {
                job: Some("j1".to_string()),
            },
            Request::Watch {
                job: "j1".to_string(),
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for frame in frames {
            let line = frame.render();
            assert_eq!(Request::parse(&line).expect("round trip"), frame, "{line}");
        }
    }

    #[test]
    fn tail_fields_keep_their_spaces() {
        let reply = Reply::Err {
            code: 6,
            msg: "bare token 'x' (want key=value)".to_string(),
        };
        let line = reply.render();
        assert_eq!(Reply::parse(&line).expect("round trip"), reply);
    }

    #[test]
    fn version_skew_and_bare_tokens_are_typed() {
        assert!(matches!(
            Request::parse("mbsrv0 ping"),
            Err(ProtocolError::VersionSkew { .. })
        ));
        assert!(matches!(
            Request::parse("mbsrv1 submit fig3-quick"),
            Err(ProtocolError::BadFrame { .. })
        ));
    }

    #[test]
    fn read_frame_enforces_the_line_cap() {
        let long = vec![b'a'; MAX_FRAME_BYTES + 10];
        let mut r = BufReader::new(&long[..]);
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtocolError::Oversized { .. })
        ));
        let mut r = BufReader::new(&b"mbsrv1 ping"[..]);
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtocolError::Truncated { got: 11 })
        ));
        let mut r = BufReader::new(&b""[..]);
        assert!(matches!(read_frame(&mut r), Ok(None)));
    }
}
