//! The `mseh serve` line protocol: newline-delimited requests and
//! replies in the `key=value;` wire idiom of
//! [`mseh_core::ElectronicDatasheet::to_wire`].
//!
//! # Grammar
//!
//! ```text
//! request  = verb [" " fields] "\n"
//! fields   = field *(";" field) [";"]
//! field    = key "=" value            ; no ';', '=', '\n' in key/value
//! reply    = ("ok" / "err" / "event" / "done") [" " fields] "\n"
//! ```
//!
//! Verbs: `ping`, `submit`, `status`, `cancel`, `result`, `subscribe`,
//! `shutdown`. Every request gets exactly one reply line, except
//! `subscribe`, which streams `event` lines followed by one `done`
//! line before the connection returns to request mode.

use std::fmt::Write as _;

/// One parsed request line: the verb and its `key=value` fields in
/// wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The leading verb token.
    pub verb: String,
    /// `key=value` pairs, in the order they appeared on the wire.
    pub fields: Vec<(String, String)>,
}

impl Request {
    /// First value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses one wire line into a [`Request`]. Empty and all-whitespace
/// lines are reported as `Ok(None)` (clients may keep-alive with bare
/// newlines).
pub fn parse_line(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(' ') {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (line, ""),
    };
    if verb.is_empty() || !verb.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("malformed verb {verb:?}"));
    }
    let fields = parse_fields(rest)?;
    Ok(Some(Request {
        verb: verb.to_string(),
        fields,
    }))
}

/// Parses a `key=value;key=value` tail (trailing `;` tolerated, as in
/// `to_wire` output).
pub fn parse_fields(rest: &str) -> Result<Vec<(String, String)>, String> {
    let mut fields = Vec::new();
    for part in rest.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("field {part:?} is not key=value"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("field {part:?} has a malformed key"));
        }
        fields.push((key.to_string(), value.trim().to_string()));
    }
    Ok(fields)
}

/// Formats a reply line: `head` followed by `key=value;` fields.
/// Values are sanitized so they can never break the line framing.
pub fn format_line(head: &str, fields: &[(&str, String)]) -> String {
    let mut line = String::from(head);
    for (i, (key, value)) in fields.iter().enumerate() {
        line.push(if i == 0 { ' ' } else { ';' });
        let _ = write!(line, "{key}={}", sanitize(value));
    }
    line
}

/// Replaces characters that would break wire framing (`;`, `=`, line
/// breaks) with spaces — used on free-text values such as error
/// messages.
pub fn sanitize(value: &str) -> String {
    value
        .chars()
        .map(|c| match c {
            ';' | '=' | '\n' | '\r' => ' ',
            c => c,
        })
        .collect()
}

/// 64-bit FNV-1a over `bytes` — the protocol's hash for spec hashes
/// and summary digests (stable, dependency-free, endian-independent).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Incremental [`fnv1a64`] builder for bit-exact summary digests:
/// floats enter as their IEEE-754 bit patterns, so two digests agree
/// iff the summarized values are bit-identical.
#[derive(Debug, Clone)]
pub struct Digest {
    hash: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A fresh digest (FNV offset basis).
    pub fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a float in as its exact bit pattern.
    pub fn f64(self, value: f64) -> Self {
        self.bytes(&value.to_bits().to_le_bytes())
    }

    /// Folds an integer in.
    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a string in (length-prefixed so field boundaries can't
    /// alias).
    pub fn str(self, value: &str) -> Self {
        self.bytes(&(value.len() as u64).to_le_bytes())
            .bytes(value.as_bytes())
    }

    /// The final 64-bit digest.
    pub fn finish(self) -> u64 {
        self.hash
    }
}

/// The normalized spec string a job's `spec_hash` covers: the kind,
/// then every field sorted by key — so field order on the wire never
/// changes the hash, while any value change does. The keys must be
/// unique: the daemon rejects a `submit` that names one twice.
pub fn normalize_spec(kind: &str, fields: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = fields.iter().collect();
    sorted.sort();
    let mut out = format!("kind={kind}");
    for (key, value) in sorted {
        let _ = write!(out, ";{key}={value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_verb_and_fields_in_order() {
        let req = parse_line("submit kind=single;seed=42;days=2")
            .unwrap()
            .unwrap();
        assert_eq!(req.verb, "submit");
        assert_eq!(req.get("kind"), Some("single"));
        assert_eq!(req.get("seed"), Some("42"));
        assert_eq!(req.fields.len(), 3);
    }

    #[test]
    fn tolerates_blank_lines_and_trailing_semicolons() {
        assert_eq!(parse_line("  \r").unwrap(), None);
        let req = parse_line("status id=job-1;").unwrap().unwrap();
        assert_eq!(req.fields.len(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("submit kind").is_err());
        assert!(parse_line("submit =x").is_err());
        assert!(parse_line("su bmit! a=b").is_err());
    }

    #[test]
    fn round_trips_through_format() {
        let line = format_line("ok", &[("id", "job-1".into()), ("state", "queued".into())]);
        assert_eq!(line, "ok id=job-1;state=queued");
        let req = parse_line(&line).unwrap().unwrap();
        assert_eq!(req.verb, "ok");
        assert_eq!(req.get("state"), Some("queued"));
    }

    #[test]
    fn sanitize_keeps_framing_intact() {
        let line = format_line("err", &[("msg", "bad;thing=1\nboom".into())]);
        let req = parse_line(&line).unwrap().unwrap();
        assert_eq!(req.get("msg"), Some("bad thing 1 boom"));
    }

    #[test]
    fn spec_hash_is_order_insensitive_but_value_sensitive() {
        let a = [
            ("seed".to_string(), "1".to_string()),
            ("days".into(), "2".into()),
        ];
        let b = [
            ("days".to_string(), "2".to_string()),
            ("seed".into(), "1".into()),
        ];
        let c = [
            ("days".to_string(), "3".to_string()),
            ("seed".into(), "1".into()),
        ];
        assert_eq!(
            fnv1a64(normalize_spec("single", &a).as_bytes()),
            fnv1a64(normalize_spec("single", &b).as_bytes())
        );
        assert_ne!(
            fnv1a64(normalize_spec("single", &a).as_bytes()),
            fnv1a64(normalize_spec("single", &c).as_bytes())
        );
    }

    #[test]
    fn digest_tracks_bit_identity() {
        let d1 = Digest::new().f64(1.5).u64(7).str("x").finish();
        let d2 = Digest::new().f64(1.5).u64(7).str("x").finish();
        let d3 = Digest::new()
            .f64(1.5 + f64::EPSILON)
            .u64(7)
            .str("x")
            .finish();
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }
}
