//! The one `key=value` line grammar of the lab's text formats.
//!
//! `mblab1` journal headers, `mbseg1` segment headers, `mbsrv1` frames
//! and serve's `job.meta` files all share it:
//!
//! ```text
//! mblab1 campaign=fig3-quick seed=000000000005ca1e tasks=9 shard=0/1
//! mbsrv1 err code=6 msg=bare token 'x' (want key=value)
//! campaign=fig3-quick shards=2
//! ```
//!
//! * A versioned line leads with its version token and one space
//!   ([`split_version`]); `job.meta` has no token.
//! * Fields are `key=value`, separated by one or more spaces. A space
//!   is the only separator: a tab or any other whitespace inside a
//!   value is an error.
//! * Keys are `[a-z_]+` and appear at most once. Each format names the
//!   keys it requires and the keys it allows; field order is free.
//! * Values are non-empty. The one exception is a tail key
//!   ([`TAIL_KEYS`]): its value is free text that runs to the end of
//!   the line.
//!
//! A [`LineError`] is plain text. Each format wraps it in its own typed
//! error, so a format fault keeps its format's exit code.
//!
//! Record lines (`r <slot> <payload> <chain>`) and the segment `end`
//! trailer are positional, not `key=value`; the journal parses them.

use crate::driver::Shard;
use crate::protocol::MAX_NAME_BYTES;
use std::fmt;
use std::str::FromStr;

/// Why a line breaks the grammar, for the format's own typed error.
#[derive(Debug)]
pub(crate) struct LineError(pub(crate) String);

/// Keys whose value runs to the end of the line (free text).
const TAIL_KEYS: [&str; 2] = ["msg", "detail"];

/// Strips the leading version token, which must equal `version`, and
/// returns the rest of the line. On a mismatch the error is the token
/// actually found.
pub(crate) fn split_version<'a>(line: &'a str, version: &str) -> Result<&'a str, String> {
    let (found, rest) = line.split_once(' ').unwrap_or((line, ""));
    if found != version {
        return Err(found.to_string());
    }
    Ok(rest)
}

/// Splits `text` into its newline-terminated lines (terminators
/// dropped) and the unterminated tail after the last newline, which is
/// empty when `text` ends with a newline.
pub(crate) fn split_lines(text: &str) -> (Vec<&str>, &str) {
    let mut lines = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find('\n') {
        lines.push(&rest[..pos]);
        rest = &rest[pos + 1..];
    }
    (lines, rest)
}

/// Splits `rest` into `key=value` fields. Tail keys swallow the rest
/// of the line; every other value is one space-delimited token.
fn parse_fields(rest: &str) -> Result<Vec<(&str, &str)>, LineError> {
    let mut fields: Vec<(&str, &str)> = Vec::new();
    let mut offset = 0usize;
    while offset < rest.len() {
        let chunk = &rest[offset..];
        let trimmed = chunk.trim_start_matches(' ');
        if trimmed.is_empty() {
            break;
        }
        offset += chunk.len() - trimmed.len();
        let token_end = trimmed.find(' ').unwrap_or(trimmed.len());
        let token = &trimmed[..token_end];
        let Some(eq) = token.find('=') else {
            return Err(LineError(format!("bare token '{token}' (want key=value)")));
        };
        let key = &token[..eq];
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            return Err(LineError(format!("bad field key in '{token}'")));
        }
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(LineError(format!("duplicate field '{key}'")));
        }
        if TAIL_KEYS.contains(&key) {
            fields.push((key, &trimmed[eq + 1..]));
            break;
        }
        let value = &token[eq + 1..];
        if value.is_empty() {
            return Err(LineError(format!("empty value for field '{key}'")));
        }
        if value.contains(char::is_whitespace) {
            return Err(LineError(format!(
                "whitespace in the value of field '{key}'"
            )));
        }
        fields.push((key, value));
        offset += token_end;
    }
    Ok(fields)
}

/// The fields of one line, checked against exactly the key sets given:
/// every required key present, no key outside required+optional.
pub(crate) struct Fields<'a> {
    inner: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Parses `rest` (the line after its version token, and verb if
    /// any). `what` names the line in error messages.
    pub(crate) fn parse(
        rest: &'a str,
        what: impl fmt::Display,
        required: &[&str],
        optional: &[&str],
    ) -> Result<Fields<'a>, LineError> {
        let inner = parse_fields(rest)?;
        for key in required {
            if !inner.iter().any(|(k, _)| k == key) {
                return Err(LineError(format!("{what} is missing field '{key}'")));
            }
        }
        for (key, _) in &inner {
            if !required.contains(key) && !optional.contains(key) {
                return Err(LineError(format!("{what} has unknown field '{key}'")));
            }
        }
        Ok(Fields { inner })
    }

    /// The value of `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.inner.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn required(&self, key: &str) -> &'a str {
        self.get(key).expect("required key checked in parse")
    }

    /// A campaign or job name: `[a-z0-9_-]{1,MAX_NAME_BYTES}`.
    pub(crate) fn name(&self, key: &str) -> Result<String, LineError> {
        let value = self.required(key);
        let valid = value.len() <= MAX_NAME_BYTES
            && value
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_');
        if !valid {
            return Err(LineError(format!(
                "bad name '{value}' for '{key}' (want [a-z0-9_-]{{1,{MAX_NAME_BYTES}}})"
            )));
        }
        Ok(value.to_string())
    }

    /// A decimal counter.
    pub(crate) fn counter<T: FromStr>(&self, key: &str) -> Result<T, LineError> {
        let value = self.required(key);
        value
            .parse()
            .map_err(|_| LineError(format!("bad counter '{value}' for '{key}'")))
    }

    /// A bare hex `u64` (journal seeds and chain values).
    pub(crate) fn hex(&self, key: &str) -> Result<u64, LineError> {
        let value = self.required(key);
        u64::from_str_radix(value, 16)
            .map_err(|_| LineError(format!("bad hex '{value}' for '{key}'")))
    }

    /// A `0x`-prefixed hex digest.
    pub(crate) fn digest(&self, key: &str) -> Result<u64, LineError> {
        let value = self.required(key);
        let hex = value
            .strip_prefix("0x")
            .ok_or_else(|| LineError(format!("bad digest '{value}' (want 0xHEX)")))?;
        u64::from_str_radix(hex, 16).map_err(|_| LineError(format!("bad digest '{value}'")))
    }

    /// A shard assignment `i/N` (see [`Shard::parse`]).
    pub(crate) fn shard(&self, key: &str) -> Result<Shard, LineError> {
        let value = self.required(key);
        Shard::parse(value)
            .ok_or_else(|| LineError(format!("bad shard '{value}' for '{key}' (want i/N, i < N)")))
    }
}
