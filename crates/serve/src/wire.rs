//! The `omnet serve` wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON (see DESIGN.md §16 for the layout and
//! compatibility rules). Requests name a dataset; responses carry either
//! typed answers (mirroring [`QueryResponse`] field by field) or typed
//! errors (mirroring [`QueryError`]), so a remote client reconstructs
//! exactly the values an in-process [`crate::Engine`] would have returned —
//! rendering them byte-identically.
//!
//! The JSON codec is hand-rolled (flat recursive descent, no external
//! dependencies) and numeric fidelity is load-bearing: `f64`s are written
//! with Rust's shortest-roundtrip formatting and parsed back exactly, and
//! `u64`s are carried as raw integer tokens, never through an `f64`.
//! Non-finite times (`Time::INF` / `Dur::INF`) serialize as `null` — JSON
//! has no infinity literal — and decode back to the infinities.

use crate::engine::DeltaApplied;
use crate::query::{
    DeliveryAnswer, DiameterAnswer, PathAnswer, PathHop, QueryError, QueryResponse, StatsAnswer,
};
use omnet_core::{HopBound, ProfileOptions};
use omnet_temporal::{Contact, ContactKey, Dur, Interval, NodeId, Time};
use std::fmt;
use std::fmt::Write as _;
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload size. A length prefix beyond this is
/// rejected before any allocation — garbage (or a non-protocol peer)
/// cannot make the server reserve gigabytes.
pub const MAX_FRAME: usize = 64 << 20;

/// A wire-layer failure: transport, framing, or message shape. Query-level
/// failures are *not* wire errors — they travel inside [`Response`] as
/// typed [`QueryError`]s.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket or stream failed.
    Io(std::io::Error),
    /// A frame announced a payload larger than [`MAX_FRAME`].
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
    },
    /// The payload was not valid JSON, or valid JSON of the wrong shape.
    Malformed {
        /// What was being decoded when the payload stopped making sense.
        context: &'static str,
    },
    /// The server answered with a protocol-level error (unknown dataset,
    /// unsupported operation, shutdown in progress).
    Protocol {
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Malformed { context } => write!(f, "malformed frame: {context}"),
            WireError::Protocol { message } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` means the peer closed the stream cleanly
/// *between* frames; EOF inside a frame is an [`WireError::Io`] error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame header",
            )));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw source token so integers
/// round-trip at full `u64` precision and floats at full shortest-form
/// fidelity — nothing is funneled through a lossy intermediate.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (e.g. `-1.5e3`, `18446744073709551615`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    fn u32(v: u32) -> Json {
        Json::Num(v.to_string())
    }

    /// Finite floats as shortest-roundtrip tokens; non-finite as `null`.
    fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// Field lookup on an object; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursion ceiling for the parser — protocol messages are at most a few
/// levels deep, so anything deeper is garbage, not data.
const MAX_DEPTH: u32 = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn malformed(context: &'static str) -> WireError {
    WireError::Malformed { context }
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, context: &'static str) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(malformed(context))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, WireError> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(malformed("unknown literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(malformed("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(malformed("unexpected byte")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, WireError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(malformed("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, WireError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(malformed("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| malformed("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(malformed("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), WireError> {
        let Some(b) = self.peek() else {
            return Err(malformed("truncated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(malformed("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(malformed("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or(malformed("invalid code point"))?);
            }
            _ => return Err(malformed("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or(malformed("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| malformed("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| malformed("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(malformed("number without digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(malformed("number with empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(malformed("number with empty exponent"));
            }
        }
        // The slice is ASCII by construction.
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| malformed("number token"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

/// Parses one JSON document; trailing non-whitespace is rejected.
pub fn parse_json(bytes: &[u8]) -> Result<Json, WireError> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(malformed("trailing bytes after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Typed field accessors
// ---------------------------------------------------------------------------

fn field<'a>(j: &'a Json, key: &'static str) -> Result<&'a Json, WireError> {
    j.get(key).ok_or(WireError::Malformed { context: key })
}

fn get_str(j: &Json, key: &'static str) -> Result<String, WireError> {
    match field(j, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(WireError::Malformed { context: key }),
    }
}

fn get_bool(j: &Json, key: &'static str) -> Result<bool, WireError> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(WireError::Malformed { context: key }),
    }
}

fn num_u64(j: &Json, key: &'static str) -> Result<u64, WireError> {
    match j {
        Json::Num(raw) => raw
            .parse()
            .map_err(|_| WireError::Malformed { context: key }),
        _ => Err(WireError::Malformed { context: key }),
    }
}

fn get_u64(j: &Json, key: &'static str) -> Result<u64, WireError> {
    num_u64(field(j, key)?, key)
}

fn get_u32(j: &Json, key: &'static str) -> Result<u32, WireError> {
    u32::try_from(get_u64(j, key)?).map_err(|_| WireError::Malformed { context: key })
}

fn get_usize(j: &Json, key: &'static str) -> Result<usize, WireError> {
    usize::try_from(get_u64(j, key)?).map_err(|_| WireError::Malformed { context: key })
}

fn num_f64(j: &Json, key: &'static str) -> Result<f64, WireError> {
    match j {
        Json::Num(raw) => raw
            .parse()
            .map_err(|_| WireError::Malformed { context: key }),
        _ => Err(WireError::Malformed { context: key }),
    }
}

fn get_f64(j: &Json, key: &'static str) -> Result<f64, WireError> {
    num_f64(field(j, key)?, key)
}

fn get_arr<'a>(j: &'a Json, key: &'static str) -> Result<&'a [Json], WireError> {
    match field(j, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(WireError::Malformed { context: key }),
    }
}

/// `null` carries `Time::INF`.
fn time_json(t: Time) -> Json {
    Json::f64(t.as_secs())
}

fn get_time(j: &Json, key: &'static str) -> Result<Time, WireError> {
    match field(j, key)? {
        Json::Null => Ok(Time::INF),
        v => Ok(Time::secs(num_f64(v, key)?)),
    }
}

/// `null` carries `Dur::INF`.
fn dur_json(d: Dur) -> Json {
    Json::f64(d.as_secs())
}

fn get_dur(j: &Json, key: &'static str) -> Result<Dur, WireError> {
    match field(j, key)? {
        Json::Null => Ok(Dur::INF),
        v => Ok(Dur::secs(num_f64(v, key)?)),
    }
}

/// `null` carries `HopBound::Unlimited`.
fn bound_json(b: HopBound) -> Json {
    match b {
        HopBound::Unlimited => Json::Null,
        HopBound::AtMost(k) => Json::usize(k),
    }
}

fn get_bound(j: &Json, key: &'static str) -> Result<HopBound, WireError> {
    match field(j, key)? {
        Json::Null => Ok(HopBound::Unlimited),
        v => {
            let k = num_u64(v, key)?;
            let k = usize::try_from(k).map_err(|_| WireError::Malformed { context: key })?;
            Ok(HopBound::AtMost(k))
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request. The wire form is a JSON object with an `"op"` field
/// selecting the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List the datasets the server is routing to.
    List,
    /// Answer a batch of query lines (the `Query::parse_line` grammar)
    /// against one dataset. Blank and `#`-comment lines produce no result
    /// slot — exactly like the local `omnet query --stdin` batch path.
    Query {
        /// Registry name of the target dataset.
        dataset: String,
        /// Query lines, in order.
        lines: Vec<String>,
    },
    /// Apply a contact delta to one (trace-backed) dataset — the POST-style
    /// mutation on the wire. All-or-nothing, key-epoch checked.
    Delta {
        /// Registry name of the target dataset.
        dataset: String,
        /// The key epoch the removal keys were minted against.
        key_epoch: u64,
        /// Contact keys to remove.
        remove: Vec<u32>,
        /// Contacts to append, as `(a, b, start-secs, end-secs)`.
        append: Vec<Contact>,
    },
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let j = match req {
        Request::List => Json::Obj(vec![("op".into(), Json::str("list"))]),
        Request::Query { dataset, lines } => Json::Obj(vec![
            ("op".into(), Json::str("query")),
            ("dataset".into(), Json::str(dataset)),
            (
                "lines".into(),
                Json::Arr(lines.iter().map(|l| Json::str(l)).collect()),
            ),
        ]),
        Request::Delta {
            dataset,
            key_epoch,
            remove,
            append,
        } => Json::Obj(vec![
            ("op".into(), Json::str("delta")),
            ("dataset".into(), Json::str(dataset)),
            ("key_epoch".into(), Json::u64(*key_epoch)),
            (
                "remove".into(),
                Json::Arr(remove.iter().map(|&k| Json::u32(k)).collect()),
            ),
            (
                "append".into(),
                Json::Arr(
                    append
                        .iter()
                        .map(|c| {
                            Json::Arr(vec![
                                Json::u32(c.a.0),
                                Json::u32(c.b.0),
                                Json::f64(c.start().as_secs()),
                                Json::f64(c.end().as_secs()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    j.render().into_bytes()
}

/// Decodes a frame payload into a request.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let j = parse_json(bytes)?;
    match get_str(&j, "op")?.as_str() {
        "list" => Ok(Request::List),
        "query" => {
            let lines = get_arr(&j, "lines")?
                .iter()
                .map(|l| match l {
                    Json::Str(s) => Ok(s.clone()),
                    _ => Err(WireError::Malformed { context: "lines" }),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Query {
                dataset: get_str(&j, "dataset")?,
                lines,
            })
        }
        "delta" => {
            let remove = get_arr(&j, "remove")?
                .iter()
                .map(|k| {
                    let v = num_u64(k, "remove")?;
                    u32::try_from(v).map_err(|_| WireError::Malformed { context: "remove" })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let append = get_arr(&j, "append")?
                .iter()
                .map(|c| match c {
                    Json::Arr(parts) if parts.len() == 4 => {
                        let a = num_u64(&parts[0], "append")?;
                        let b = num_u64(&parts[1], "append")?;
                        let start = num_f64(&parts[2], "append")?;
                        let end = num_f64(&parts[3], "append")?;
                        if !(start.is_finite() && end.is_finite() && start <= end) {
                            return Err(WireError::Malformed { context: "append" });
                        }
                        let a = u32::try_from(a)
                            .map_err(|_| WireError::Malformed { context: "append" })?;
                        let b = u32::try_from(b)
                            .map_err(|_| WireError::Malformed { context: "append" })?;
                        Ok(Contact::secs(a, b, start, end))
                    }
                    _ => Err(WireError::Malformed { context: "append" }),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Delta {
                dataset: get_str(&j, "dataset")?,
                key_epoch: get_u64(&j, "key_epoch")?,
                remove,
                append,
            })
        }
        _ => Err(malformed("unknown op")),
    }
}

/// The removal keys of a delta request as typed [`ContactKey`]s.
pub fn delta_keys(remove: &[u32]) -> Vec<ContactKey> {
    remove.iter().map(|&k| ContactKey(k)).collect()
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One dataset the server routes to, as reported by [`Request::List`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Registry name (what requests address).
    pub name: String,
    /// The dataset key recorded in the engine's metadata.
    pub dataset_key: String,
    /// Node universe size.
    pub num_nodes: u32,
    /// Current contact-key epoch (what a delta must quote).
    pub key_epoch: u64,
    /// Whether the dataset accepts deltas (trace-backed engines do;
    /// artifact-backed sets are immutable).
    pub mutable: bool,
}

/// One server response. The wire form is a JSON object with a `"type"`
/// field selecting the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::List`].
    Datasets(Vec<DatasetInfo>),
    /// Answer to [`Request::Query`]: one slot per parsed query line, in
    /// order (blank/comment lines produce no slot).
    Results(Vec<Result<QueryResponse, QueryError>>),
    /// Answer to [`Request::Delta`].
    Delta(Result<DeltaApplied, QueryError>),
    /// A protocol-level failure: unknown dataset, malformed request, or
    /// shutdown in progress.
    Error(String),
}

fn options_json(o: &ProfileOptions) -> Json {
    Json::Obj(vec![
        ("store_levels".into(), Json::usize(o.store_levels)),
        ("max_levels".into(), Json::usize(o.max_levels)),
    ])
}

fn decode_options(j: &Json) -> Result<ProfileOptions, WireError> {
    Ok(ProfileOptions::builder()
        .store_levels(get_usize(j, "store_levels")?)
        .max_levels(get_usize(j, "max_levels")?)
        .build())
}

fn answer_json(r: &QueryResponse) -> Json {
    match r {
        QueryResponse::Delivery(a) => Json::Obj(vec![
            ("type".into(), Json::str("delivery")),
            ("src".into(), Json::u32(a.src)),
            ("dst".into(), Json::u32(a.dst)),
            ("at".into(), time_json(a.at)),
            ("bound".into(), bound_json(a.bound)),
            ("arrival".into(), time_json(a.arrival)),
            ("delay".into(), dur_json(a.delay)),
            ("reachable".into(), Json::Bool(a.reachable)),
        ]),
        QueryResponse::Path(a) => Json::Obj(vec![
            ("type".into(), Json::str("path")),
            ("src".into(), Json::u32(a.src)),
            ("dst".into(), Json::u32(a.dst)),
            ("at".into(), time_json(a.at)),
            ("reachable".into(), Json::Bool(a.reachable)),
            ("arrival".into(), time_json(a.arrival)),
            ("delay".into(), dur_json(a.delay)),
            ("hops".into(), Json::usize(a.hops)),
            (
                "route".into(),
                match &a.route {
                    None => Json::Null,
                    Some(route) => Json::Arr(
                        route
                            .iter()
                            .map(|h| {
                                Json::Obj(vec![
                                    ("from".into(), Json::u32(h.from.0)),
                                    ("to".into(), Json::u32(h.to.0)),
                                    ("start".into(), time_json(h.window.start)),
                                    ("end".into(), time_json(h.window.end)),
                                    ("at".into(), time_json(h.at)),
                                ])
                            })
                            .collect(),
                    ),
                },
            ),
        ]),
        QueryResponse::Diameter(a) => Json::Obj(vec![
            ("type".into(), Json::str("diameter")),
            ("eps".into(), Json::f64(a.eps)),
            ("max_hops".into(), Json::usize(a.max_hops)),
            ("pairs".into(), Json::usize(a.pairs)),
            (
                "grid".into(),
                Json::Arr(a.grid.iter().map(|&d| dur_json(d)).collect()),
            ),
            (
                "diameter".into(),
                a.diameter.map_or(Json::Null, Json::usize),
            ),
            (
                "per_delay".into(),
                Json::Arr(
                    a.per_delay
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::usize))
                        .collect(),
                ),
            ),
        ]),
        QueryResponse::Stats(a) => Json::Obj(vec![
            ("type".into(), Json::str("stats")),
            ("dataset_key".into(), Json::str(&a.dataset_key)),
            ("num_nodes".into(), Json::u32(a.num_nodes)),
            ("num_internal".into(), Json::u32(a.num_internal)),
            ("window_start".into(), time_json(a.window.start)),
            ("window_end".into(), time_json(a.window.end)),
            ("options".into(), options_json(&a.options)),
            ("shards".into(), Json::usize(a.shards)),
            ("rows".into(), Json::usize(a.rows)),
            (
                "max_useful_hops".into(),
                a.max_useful_hops.map_or(Json::Null, Json::usize),
            ),
        ]),
    }
}

fn decode_answer(j: &Json) -> Result<QueryResponse, WireError> {
    match get_str(j, "type")?.as_str() {
        "delivery" => Ok(QueryResponse::Delivery(DeliveryAnswer {
            src: get_u32(j, "src")?,
            dst: get_u32(j, "dst")?,
            at: get_time(j, "at")?,
            bound: get_bound(j, "bound")?,
            arrival: get_time(j, "arrival")?,
            delay: get_dur(j, "delay")?,
            reachable: get_bool(j, "reachable")?,
        })),
        "path" => {
            let route = match field(j, "route")? {
                Json::Null => None,
                Json::Arr(hops) => Some(
                    hops.iter()
                        .map(|h| {
                            Ok(PathHop {
                                from: NodeId(get_u32(h, "from")?),
                                to: NodeId(get_u32(h, "to")?),
                                window: Interval::new(get_time(h, "start")?, get_time(h, "end")?),
                                at: get_time(h, "at")?,
                            })
                        })
                        .collect::<Result<Vec<_>, WireError>>()?,
                ),
                _ => return Err(malformed("route")),
            };
            Ok(QueryResponse::Path(PathAnswer {
                src: get_u32(j, "src")?,
                dst: get_u32(j, "dst")?,
                at: get_time(j, "at")?,
                reachable: get_bool(j, "reachable")?,
                arrival: get_time(j, "arrival")?,
                delay: get_dur(j, "delay")?,
                hops: get_usize(j, "hops")?,
                route,
            }))
        }
        "diameter" => {
            let grid = get_arr(j, "grid")?
                .iter()
                .map(|d| match d {
                    Json::Null => Ok(Dur::INF),
                    v => Ok(Dur::secs(num_f64(v, "grid")?)),
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            let per_delay = get_arr(j, "per_delay")?
                .iter()
                .map(|d| match d {
                    Json::Null => Ok(None),
                    v => {
                        let k = num_u64(v, "per_delay")?;
                        usize::try_from(k)
                            .map(Some)
                            .map_err(|_| malformed("per_delay"))
                    }
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            let diameter = match field(j, "diameter")? {
                Json::Null => None,
                v => Some(
                    usize::try_from(num_u64(v, "diameter")?).map_err(|_| malformed("diameter"))?,
                ),
            };
            Ok(QueryResponse::Diameter(DiameterAnswer {
                eps: get_f64(j, "eps")?,
                max_hops: get_usize(j, "max_hops")?,
                pairs: get_usize(j, "pairs")?,
                grid,
                diameter,
                per_delay,
            }))
        }
        "stats" => {
            let max_useful_hops = match field(j, "max_useful_hops")? {
                Json::Null => None,
                v => Some(
                    usize::try_from(num_u64(v, "max_useful_hops")?)
                        .map_err(|_| malformed("max_useful_hops"))?,
                ),
            };
            Ok(QueryResponse::Stats(StatsAnswer {
                dataset_key: get_str(j, "dataset_key")?,
                num_nodes: get_u32(j, "num_nodes")?,
                num_internal: get_u32(j, "num_internal")?,
                window: Interval::new(get_time(j, "window_start")?, get_time(j, "window_end")?),
                options: decode_options(field(j, "options")?)?,
                shards: get_usize(j, "shards")?,
                rows: get_usize(j, "rows")?,
                max_useful_hops,
            }))
        }
        _ => Err(malformed("unknown answer type")),
    }
}

fn error_json(e: &QueryError) -> Json {
    // Every error carries its rendered message alongside the typed fields,
    // so clients that don't know a (future) kind can still report it.
    let mut fields = vec![("message".to_string(), Json::str(&e.to_string()))];
    match e {
        QueryError::Parse { .. } => fields.insert(0, ("kind".into(), Json::str("parse"))),
        QueryError::NodeOutOfRange { node, num_nodes } => {
            fields.insert(0, ("kind".into(), Json::str("node_out_of_range")));
            fields.push(("node".into(), Json::u32(*node)));
            fields.push(("num_nodes".into(), Json::u32(*num_nodes)));
        }
        QueryError::SameNode => fields.insert(0, ("kind".into(), Json::str("same_node"))),
        QueryError::ShardMissing { source } => {
            fields.insert(0, ("kind".into(), Json::str("shard_missing")));
            fields.push(("source".into(), Json::u32(*source)));
        }
        QueryError::BadParameter { .. } => {
            fields.insert(0, ("kind".into(), Json::str("bad_parameter")));
        }
        QueryError::HopsBeyondArtifact { requested, stored } => {
            fields.insert(0, ("kind".into(), Json::str("hops_beyond_artifact")));
            fields.push(("requested".into(), Json::usize(*requested)));
            fields.push(("stored".into(), Json::usize(*stored)));
        }
        QueryError::ShardRejected { source, message } => {
            fields.insert(0, ("kind".into(), Json::str("shard_rejected")));
            fields.push(("source".into(), Json::u32(*source)));
            fields.push(("detail".into(), Json::str(message)));
        }
        QueryError::StaleKeyEpoch { presented, current } => {
            fields.insert(0, ("kind".into(), Json::str("stale_key_epoch")));
            fields.push(("presented".into(), Json::u64(*presented)));
            fields.push(("current".into(), Json::u64(*current)));
        }
    }
    Json::Obj(fields)
}

fn decode_error(j: &Json) -> Result<QueryError, WireError> {
    Ok(match get_str(j, "kind")?.as_str() {
        "parse" => {
            let full = get_str(j, "message")?;
            QueryError::Parse {
                // `Display` prefixes "query syntax: "; strip it back off so
                // the reconstructed error renders identically.
                message: full
                    .strip_prefix("query syntax: ")
                    .unwrap_or(&full)
                    .to_string(),
            }
        }
        "node_out_of_range" => QueryError::NodeOutOfRange {
            node: get_u32(j, "node")?,
            num_nodes: get_u32(j, "num_nodes")?,
        },
        "same_node" => QueryError::SameNode,
        "shard_missing" => QueryError::ShardMissing {
            source: get_u32(j, "source")?,
        },
        "bad_parameter" => QueryError::BadParameter {
            message: get_str(j, "message")?,
        },
        "hops_beyond_artifact" => QueryError::HopsBeyondArtifact {
            requested: get_usize(j, "requested")?,
            stored: get_usize(j, "stored")?,
        },
        "shard_rejected" => QueryError::ShardRejected {
            source: get_u32(j, "source")?,
            message: get_str(j, "detail")?,
        },
        "stale_key_epoch" => QueryError::StaleKeyEpoch {
            presented: get_u64(j, "presented")?,
            current: get_u64(j, "current")?,
        },
        // An unknown kind (newer server) degrades to its message.
        _ => QueryError::BadParameter {
            message: get_str(j, "message")?,
        },
    })
}

fn applied_json(a: &DeltaApplied) -> Json {
    Json::Obj(vec![
        ("rows_invalidated".into(), Json::usize(a.rows_invalidated)),
        ("key_epoch".into(), Json::u64(a.key_epoch)),
        ("num_contacts".into(), Json::usize(a.num_contacts)),
    ])
}

fn decode_applied(j: &Json) -> Result<DeltaApplied, WireError> {
    Ok(DeltaApplied {
        rows_invalidated: get_usize(j, "rows_invalidated")?,
        key_epoch: get_u64(j, "key_epoch")?,
        num_contacts: get_usize(j, "num_contacts")?,
    })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let j = match resp {
        Response::Datasets(infos) => Json::Obj(vec![
            ("type".into(), Json::str("datasets")),
            (
                "datasets".into(),
                Json::Arr(
                    infos
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&d.name)),
                                ("dataset_key".into(), Json::str(&d.dataset_key)),
                                ("num_nodes".into(), Json::u32(d.num_nodes)),
                                ("key_epoch".into(), Json::u64(d.key_epoch)),
                                ("mutable".into(), Json::Bool(d.mutable)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Results(results) => Json::Obj(vec![
            ("type".into(), Json::str("results")),
            (
                "results".into(),
                Json::Arr(
                    results
                        .iter()
                        .map(|r| match r {
                            Ok(a) => Json::Obj(vec![
                                ("ok".into(), Json::Bool(true)),
                                ("answer".into(), answer_json(a)),
                            ]),
                            Err(e) => Json::Obj(vec![
                                ("ok".into(), Json::Bool(false)),
                                ("error".into(), error_json(e)),
                            ]),
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Delta(outcome) => match outcome {
            Ok(a) => Json::Obj(vec![
                ("type".into(), Json::str("delta")),
                ("ok".into(), Json::Bool(true)),
                ("applied".into(), applied_json(a)),
            ]),
            Err(e) => Json::Obj(vec![
                ("type".into(), Json::str("delta")),
                ("ok".into(), Json::Bool(false)),
                ("error".into(), error_json(e)),
            ]),
        },
        Response::Error(message) => Json::Obj(vec![
            ("type".into(), Json::str("error")),
            ("message".into(), Json::str(message)),
        ]),
    };
    j.render().into_bytes()
}

/// Decodes a frame payload into a response.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let j = parse_json(bytes)?;
    match get_str(&j, "type")?.as_str() {
        "datasets" => {
            let infos = get_arr(&j, "datasets")?
                .iter()
                .map(|d| {
                    Ok(DatasetInfo {
                        name: get_str(d, "name")?,
                        dataset_key: get_str(d, "dataset_key")?,
                        num_nodes: get_u32(d, "num_nodes")?,
                        key_epoch: get_u64(d, "key_epoch")?,
                        mutable: get_bool(d, "mutable")?,
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(Response::Datasets(infos))
        }
        "results" => {
            let results = get_arr(&j, "results")?
                .iter()
                .map(|r| {
                    if get_bool(r, "ok")? {
                        decode_answer(field(r, "answer")?).map(Ok)
                    } else {
                        decode_error(field(r, "error")?).map(Err)
                    }
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(Response::Results(results))
        }
        "delta" => {
            if get_bool(&j, "ok")? {
                Ok(Response::Delta(Ok(decode_applied(field(&j, "applied")?)?)))
            } else {
                Ok(Response::Delta(Err(decode_error(field(&j, "error")?)?)))
            }
        }
        "error" => Ok(Response::Error(get_str(&j, "message")?)),
        _ => Err(malformed("unknown response type")),
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client connection to an `omnet serve` instance. One request
/// in flight at a time; requests on one connection are answered in order.
#[derive(Debug)]
pub struct Client {
    stream: std::net::TcpStream,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, WireError> {
        Ok(Client {
            stream: std::net::TcpStream::connect(addr)?,
        })
    }

    /// Sends one request and reads its response. A server-reported
    /// protocol error surfaces as [`WireError::Protocol`].
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let Some(payload) = read_frame(&mut self.stream)? else {
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )));
        };
        match decode_response(&payload)? {
            Response::Error(message) => Err(WireError::Protocol { message }),
            resp => Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_response(r: &Response) -> Response {
        decode_response(&encode_response(r)).unwrap()
    }

    fn roundtrip_request(r: &Request) -> Request {
        decode_request(&encode_request(r)).unwrap()
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in [1, 3, 6] {
            let mut r = &buf[..buf.len() - cut];
            assert!(matches!(read_frame(&mut r), Err(WireError::Io(_))));
        }
    }

    #[test]
    fn json_parses_and_rerenders() {
        let src =
            br#"{"a": [1, -2.5, 1e3], "b": "q\"\\\n\u0041\ud83d\ude00", "c": null, "d": true}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(
            v.get("b"),
            Some(&Json::Str("q\"\\\nA\u{1F600}".to_string()))
        );
        // render → parse is the identity.
        assert_eq!(parse_json(v.render().as_bytes()).unwrap(), v);
    }

    #[test]
    fn json_rejects_garbage() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\" 1}",
            b"nul",
            b"1.e3",
            b"--1",
            b"\"unterminated",
            b"{} trailing",
            b"\"\\ud800\"",
        ] {
            assert!(
                parse_json(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn u64_precision_survives_the_wire() {
        let req = Request::Delta {
            dataset: "x".into(),
            key_epoch: u64::MAX - 1,
            remove: vec![0, u32::MAX - 1],
            append: vec![Contact::secs(1, 2, 0.25, 1e9)],
        };
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::List,
            Request::Query {
                dataset: "reality".into(),
                lines: vec!["delivery 0 3 120".into(), "# comment \"quoted\"".into()],
            },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn answers_roundtrip_including_infinities() {
        let results: Vec<Result<QueryResponse, QueryError>> = vec![
            Ok(QueryResponse::Delivery(DeliveryAnswer {
                src: 3,
                dst: 7,
                at: Time::secs(0.1),
                bound: HopBound::AtMost(4),
                arrival: Time::INF,
                delay: Dur::INF,
                reachable: false,
            })),
            Ok(QueryResponse::Path(PathAnswer {
                src: 0,
                dst: 1,
                at: Time::secs(5.5),
                reachable: true,
                arrival: Time::secs(17.25),
                delay: Dur::secs(11.75),
                hops: 2,
                route: Some(vec![PathHop {
                    from: NodeId(0),
                    to: NodeId(1),
                    window: Interval::secs(1.0, 30.0),
                    at: Time::secs(5.5),
                }]),
            })),
            Ok(QueryResponse::Diameter(DiameterAnswer {
                eps: 0.01,
                max_hops: 6,
                pairs: 20,
                grid: vec![Dur::secs(120.0), Dur::secs(553.1578947368421)],
                diameter: Some(3),
                per_delay: vec![None, Some(3)],
            })),
            Ok(QueryResponse::Stats(StatsAnswer {
                dataset_key: "toy".into(),
                num_nodes: 5,
                num_internal: 4,
                window: Interval::secs(0.0, 920.0),
                options: ProfileOptions::builder()
                    .store_levels(3)
                    .max_levels(7)
                    .build(),
                shards: 2,
                rows: 5,
                max_useful_hops: None,
            })),
            Err(QueryError::StaleKeyEpoch {
                presented: 3,
                current: 9,
            }),
            Err(QueryError::Parse {
                message: "invalid src id 'x'".into(),
            }),
            Err(QueryError::ShardRejected {
                source: 2,
                message: "ROWS section checksum mismatch".into(),
            }),
        ];
        let resp = Response::Results(results.clone());
        assert_eq!(roundtrip_response(&resp), resp);
        // The reconstructed errors render identically — what keeps remote
        // `error:` lines byte-identical to local ones.
        let Response::Results(back) = roundtrip_response(&resp) else {
            unreachable!()
        };
        for (orig, back) in results.iter().zip(&back) {
            if let (Err(a), Err(b)) = (orig, back) {
                assert_eq!(a.to_string(), b.to_string());
            }
        }
    }

    #[test]
    fn float_fidelity_is_exact() {
        // Awkward doubles: shortest-roundtrip formatting must survive.
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
        ] {
            let resp = Response::Results(vec![Ok(QueryResponse::Delivery(DeliveryAnswer {
                src: 0,
                dst: 1,
                at: Time::secs(v),
                bound: HopBound::Unlimited,
                arrival: Time::secs(v * 2.0),
                delay: Dur::secs(v),
                reachable: true,
            }))]);
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn delta_and_list_responses_roundtrip() {
        let resp = Response::Delta(Ok(DeltaApplied {
            rows_invalidated: 4,
            key_epoch: 17,
            num_contacts: 99,
        }));
        assert_eq!(roundtrip_response(&resp), resp);
        let resp = Response::Delta(Err(QueryError::BadParameter {
            message: "appended contact lies outside the observation window".into(),
        }));
        assert_eq!(roundtrip_response(&resp), resp);
        let resp = Response::Datasets(vec![DatasetInfo {
            name: "live".into(),
            dataset_key: "toy".into(),
            num_nodes: 5,
            key_epoch: 2,
            mutable: true,
        }]);
        assert_eq!(roundtrip_response(&resp), resp);
        let resp = Response::Error("unknown dataset 'nope'".into());
        assert_eq!(roundtrip_response(&resp), resp);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(matches!(
            decode_response(b"{\"type\":\"results\",\"results\":[{\"ok\":true}]}"),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            decode_request(b"{\"op\":\"warp\"}"),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            decode_request(b"{\"op\":\"delta\",\"dataset\":\"d\",\"key_epoch\":1,\"remove\":[],\"append\":[[0,1,5,2]]}"),
            Err(WireError::Malformed { .. })
        ));
    }
}
