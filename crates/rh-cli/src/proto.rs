//! The jsonl wire protocol of the distributed sweep service.
//!
//! One JSON object per line, hand-rolled like the rest of the workspace's
//! JSON (no external deps). Three conversations share the codec:
//!
//! * **client ↔ coordinator**: a client submits sweep configs (either a bare
//!   config object or `{"type": "submit", "id": ..., "config": {...}}`) and
//!   receives one [`ResultEnvelope`] line per job — cache/dedup metadata plus
//!   the merged sweep document, which is byte-identical to an in-process
//!   `rh-cli sweep` run of the same config;
//! * **coordinator → worker**: [`ToWorker::Shard`] leases carry the
//!   *normalized config plus cell indices*, not materialized cells — the
//!   worker re-expands the plan locally ([`crate::plan::SweepPlan`] is a pure
//!   function of the config) and reads the indices as positions in the
//!   sweep's one cell list (`sweep::sweep_cells`: the grid, then the PARA
//!   sweep), so the wire stays small and a version-skewed worker can never
//!   execute a cell the coordinator didn't mean;
//! * **worker → coordinator**: a [`FromWorker::Hello`] announcing the
//!   worker's settle kernel ([`rh_core::Kernel::auto`] on its own CPU and
//!   environment), then per-cell [`FromWorker::Cell`] results streamed as
//!   they complete (the coordinator merges them incrementally and
//!   checkpoints them), closed by a [`FromWorker::ShardDone`].
//!
//! ## Exactness
//!
//! [`RunResult`]s cross the wire with `flips_per_mact` encoded as its IEEE
//! bit pattern (`f64::to_bits`), so a result that transited a worker process
//! renders byte-for-byte like one computed in-process — the PR 2 determinism
//! invariant ("sharding never changes the bytes") generalized to process and
//! host boundaries.
//!
//! ## The canonical config hash
//!
//! [`config_hash`] fingerprints what a config *means*, not how it was
//! spelled: the config is parsed (field order and whitespace vanish),
//! defaults are filled in (an omitted field and an explicitly-default field
//! are the same config), normalized ([`SweepConfig::normalized`]: duplicate
//! axis values collapse, PARA probabilities sort), and the result is
//! FNV-1a-hashed over a fixed-order canonical encoding with floats as IEEE
//! bit patterns. Two configs that plan identically hash identically; any
//! axis change moves the hash. The seed is deliberately **excluded** — the
//! cache key is the pair `(config_hash, seed)` ([`config_key`]), keeping the
//! two dedup axes (what to run, which random universe) independently
//! visible.

use crate::engine::RunResult;
use crate::sweep::SweepConfig;
use rh_core::DataPattern;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// Version of this wire protocol, carried in every worker hello. The
/// coordinator rejects a mismatched worker *before* leasing it anything: a
/// version-skewed worker must fail loudly at attach time, never merge
/// garbage. Bump on any incompatible message change.
///
/// Version 2 added mid-shard cancellation ([`ToWorker::Cancel`] /
/// [`FromWorker::CancelAck`]) and the auth fields on the hello — a v1
/// worker would silently ignore a cancel, so the mix is rejected. Version 3
/// dropped the lease's list tag and kernel request: indices address the
/// sweep's one cell list, which a v2 worker would read as the grid alone.
pub const PROTO_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// JSON value model + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so 64-bit integers
/// (seeds up to `u64::MAX`) survive without a lossy trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Raw number token, converted on demand by [`Value::as_u64`] /
    /// [`Value::as_f64`].
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    /// Key order preserved (irrelevant semantically, handy for tests).
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(format!("invalid number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(Value::Num(text))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // as one slice. It starts after an ASCII byte and ends before
            // one (or at the end of input), so both ends are char
            // boundaries of `src`.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".to_string());
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", char::from(other)));
                        }
                    }
                }
                Some(_) => return Err("raw control byte in string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape '{s}'"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Escape a string into a quoted JSON literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Config codec + canonical hash
// ---------------------------------------------------------------------------

fn want_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("config field '{field}' must be a non-negative integer"))
}

fn want_u32(v: &Value, field: &str) -> Result<u32, String> {
    want_u64(v, field)?
        .try_into()
        .map_err(|_| format!("config field '{field}' is out of range"))
}

fn want_f64(v: &Value, field: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("config field '{field}' must be a number"))
}

fn want_list<T>(
    v: &Value,
    field: &str,
    each: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.as_array()
        .ok_or_else(|| format!("config field '{field}' must be an array"))?
        .iter()
        .map(each)
        .collect()
}

/// Decode a `SweepConfig` from a parsed JSON object. Every field is
/// optional — omitted fields take their [`SweepConfig::default`] value, so
/// `{}` means "the default sweep" — and unknown fields are rejected (a
/// typoed axis name must not silently run the default). Field names match
/// the `config` section the sweep reporter emits, so a previous response's
/// config round-trips as a request.
pub fn config_from_value(v: &Value) -> Result<SweepConfig, String> {
    let fields = v
        .as_object()
        .ok_or_else(|| format!("config must be a JSON object, got {}", v.type_name()))?;
    let mut cfg = SweepConfig::default();
    for (key, val) in fields {
        match key.as_str() {
            "seed" => cfg.seed = want_u64(val, key)?,
            "activations" => cfg.activations = want_u64(val, key)?,
            "hc_firsts" => cfg.hc_firsts = want_list(val, key, |x| want_u64(x, key))?,
            "sides" => {
                cfg.sides = want_list(val, key, |x| {
                    x.as_usize()
                        .ok_or_else(|| format!("config field '{key}' must hold integers"))
                })?;
            }
            "para_probabilities" => {
                cfg.para_probabilities = want_list(val, key, |x| want_f64(x, key))?;
            }
            "data_patterns" => {
                cfg.data_patterns = want_list(val, key, |x| {
                    x.as_str()
                        .ok_or_else(|| format!("config field '{key}' must hold strings"))?
                        .parse::<DataPattern>()
                })?;
            }
            "ecc_codeword_bits" => cfg.ecc_codeword_bits = want_u32(val, key)?,
            "benign_fraction" => cfg.benign_fraction = want_f64(val, key)?,
            "refresh_interval" => cfg.auto_refresh_interval = want_u64(val, key)?,
            "geometry" => {
                let geo = val
                    .as_object()
                    .ok_or("config field 'geometry' must be an object")?;
                for (gk, gv) in geo {
                    match gk.as_str() {
                        "channels" => cfg.geometry.channels = want_u32(gv, gk)?,
                        "ranks" => cfg.geometry.ranks = want_u32(gv, gk)?,
                        "banks" => cfg.geometry.banks = want_u32(gv, gk)?,
                        "rows_per_bank" => cfg.geometry.rows_per_bank = want_u32(gv, gk)?,
                        other => return Err(format!("unknown geometry field '{other}'")),
                    }
                }
            }
            other => return Err(format!("unknown config field '{other}'")),
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Encode a config as a single-line JSON object (every field explicit).
/// Floats use Rust's shortest round-trip formatting, so
/// `config_from_value(parse(config_to_json(c)))` reproduces `c` exactly.
pub fn config_to_json(cfg: &SweepConfig) -> String {
    let list = |items: Vec<String>| items.join(",");
    format!(
        "{{\"seed\":{},\"activations\":{},\"hc_firsts\":[{}],\"sides\":[{}],\
         \"para_probabilities\":[{}],\"data_patterns\":[{}],\"ecc_codeword_bits\":{},\
         \"benign_fraction\":{},\"refresh_interval\":{},\"geometry\":{{\"channels\":{},\
         \"ranks\":{},\"banks\":{},\"rows_per_bank\":{}}}}}",
        cfg.seed,
        cfg.activations,
        list(cfg.hc_firsts.iter().map(u64::to_string).collect()),
        list(cfg.sides.iter().map(usize::to_string).collect()),
        list(cfg.para_probabilities.iter().map(f64::to_string).collect()),
        list(cfg.data_patterns.iter().map(|p| jstr(p.name())).collect()),
        cfg.ecc_codeword_bits,
        cfg.benign_fraction,
        cfg.auto_refresh_interval,
        cfg.geometry.channels,
        cfg.geometry.ranks,
        cfg.geometry.banks,
        cfg.geometry.rows_per_bank,
    )
}

/// FNV-1a over raw bytes — the workspace's one content fingerprint, shared
/// by the config hash and the checkpoint journal's records.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical hash of what a config *plans* (seed excluded — see the module
/// docs). Computed over the normalized config's fixed-order encoding with
/// floats as IEEE bit patterns, so spelling differences (field order,
/// whitespace, explicit defaults, duplicate axis values, PARA-probability
/// order) cannot move the hash, while any real axis change must.
pub fn config_hash(cfg: &SweepConfig) -> u64 {
    let n = cfg.normalized();
    let mut s = String::with_capacity(256);
    let _ = write!(s, "activations={};", n.activations);
    let _ = write!(s, "hc={:?};", n.hc_firsts);
    let _ = write!(s, "sides={:?};", n.sides);
    let bits: Vec<u64> = n.para_probabilities.iter().map(|p| p.to_bits()).collect();
    let _ = write!(s, "para_bits={bits:?};");
    let patterns: Vec<&str> = n.data_patterns.iter().map(|p| p.name()).collect();
    let _ = write!(s, "patterns={patterns:?};");
    let _ = write!(s, "ecc={};", n.ecc_codeword_bits);
    let _ = write!(s, "benign_bits={};", n.benign_fraction.to_bits());
    let _ = write!(s, "refresh={};", n.auto_refresh_interval);
    let _ = write!(
        s,
        "geom={}/{}/{}/{}",
        n.geometry.channels, n.geometry.ranks, n.geometry.banks, n.geometry.rows_per_bank
    );
    fnv1a64(s.as_bytes())
}

/// The result-cache / request-dedup key: `(config_hash, seed)`.
pub fn config_key(cfg: &SweepConfig) -> (u64, u64) {
    (config_hash(cfg), cfg.seed)
}

// ---------------------------------------------------------------------------
// Shared-secret authentication
// ---------------------------------------------------------------------------

/// Proof that a peer holds the coordinator's shared secret: the token and a
/// peer-chosen nonce are folded through the workspace fingerprint twice
/// (`H(H(token:nonce):token)`), so the proof reveals neither the token nor a
/// trivially-extendable digest. The nonce binds the proof to one hello; the
/// coordinator recomputes the expected proof from its own token file and
/// compares with [`constant_time_eq`].
pub fn auth_proof(token: &str, nonce: u64) -> String {
    let inner = fnv1a64(format!("{token}:{nonce:#018x}").as_bytes());
    format!(
        "{:016x}",
        fnv1a64(format!("{inner:016x}:{token}").as_bytes())
    )
}

/// Constant-time byte comparison for auth proofs: every byte is examined
/// regardless of where the first mismatch sits, so response timing leaks
/// nothing about how much of a guessed proof was right. (Length is public —
/// valid proofs are always 16 hex digits.)
pub fn constant_time_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

// ---------------------------------------------------------------------------
// RunResult codec (bit-exact)
// ---------------------------------------------------------------------------

/// Encode a [`RunResult`] as a single-line JSON object. `flips_per_mact`
/// travels as its IEEE-754 bit pattern so the merged document renders
/// byte-identically to an in-process run.
pub fn result_to_json(r: &RunResult) -> String {
    let post = match r.post_ecc_flips {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"workload\":{},\"mitigation\":{},\"hc_first\":{},\"data_pattern\":{},\
         \"activations\":{},\"total_flips\":{},\"flipped_rows\":{},\
         \"flips_per_mact_bits\":{},\"refreshes_issued\":{},\"flips_1to0\":{},\
         \"flips_0to1\":{},\"post_ecc_flips\":{}}}",
        jstr(&r.workload),
        jstr(&r.mitigation),
        r.hc_first,
        jstr(&r.data_pattern),
        r.activations,
        r.total_flips,
        r.flipped_rows,
        r.flips_per_mact.to_bits(),
        r.refreshes_issued,
        r.flips_1to0,
        r.flips_0to1,
        post,
    )
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key)
        .ok_or_else(|| format!("result object missing field '{key}'"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(String::from)
        .ok_or_else(|| format!("result field '{key}' must be a string"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("result field '{key}' must be an integer"))
}

/// Decode a [`RunResult`] from a parsed wire object.
pub fn result_from_value(v: &Value) -> Result<RunResult, String> {
    let post_ecc_flips = match field(v, "post_ecc_flips")? {
        Value::Null => None,
        other => Some(
            other
                .as_u64()
                .ok_or("result field 'post_ecc_flips' must be an integer or null")?,
        ),
    };
    Ok(RunResult {
        workload: field_str(v, "workload")?,
        mitigation: field_str(v, "mitigation")?,
        hc_first: field_u64(v, "hc_first")?,
        data_pattern: field_str(v, "data_pattern")?,
        activations: field_u64(v, "activations")?,
        total_flips: field_u64(v, "total_flips")?,
        flipped_rows: field_u64(v, "flipped_rows")?,
        flips_per_mact: f64::from_bits(field_u64(v, "flips_per_mact_bits")?),
        refreshes_issued: field_u64(v, "refreshes_issued")?,
        flips_1to0: field_u64(v, "flips_1to0")?,
        flips_0to1: field_u64(v, "flips_0to1")?,
        post_ecc_flips,
    })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Coordinator → worker messages.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Lease one shard: execute the cells at `indices` of the sweep's cell
    /// list, streaming a [`FromWorker::Cell`] per result, then a
    /// [`FromWorker::ShardDone`].
    Shard {
        job: u64,
        shard: u64,
        indices: Vec<usize>,
        config: SweepConfig,
    },
    /// The coordinator refuses this worker (protocol-version, config-epoch,
    /// or auth mismatch). Terminal: the worker must not retry the same
    /// coordinator — the skew will not heal on its own.
    Reject { reason: String },
    /// The named job was cancelled (client verb or expired deadline): the
    /// worker must abandon any remaining cells it holds for that job
    /// mid-shard and answer with a [`FromWorker::CancelAck`]. Cells already
    /// streamed stay merged (they were bit-exact); no requeue happens — the
    /// job is dead, not rescheduled.
    Cancel { job: u64 },
    /// Drain and exit.
    Shutdown,
}

impl ToWorker {
    pub fn encode(&self) -> String {
        match self {
            Self::Shard {
                job,
                shard,
                indices,
                config,
            } => {
                let idx: Vec<String> = indices.iter().map(usize::to_string).collect();
                format!(
                    "{{\"type\":\"shard\",\"job\":{job},\"shard\":{shard},\
                     \"indices\":[{}],\"config\":{}}}",
                    idx.join(","),
                    config_to_json(config),
                )
            }
            Self::Reject { reason } => {
                format!("{{\"type\":\"reject\",\"reason\":{}}}", jstr(reason))
            }
            Self::Cancel { job } => format!("{{\"type\":\"cancel\",\"job\":{job}}}"),
            Self::Shutdown => "{\"type\":\"shutdown\"}".to_string(),
        }
    }

    pub fn decode(line: &str) -> Result<Self, String> {
        let v = parse(line)?;
        match field_str(&v, "type")?.as_str() {
            "shard" => Ok(Self::Shard {
                job: field_u64(&v, "job")?,
                shard: field_u64(&v, "shard")?,
                indices: field(&v, "indices")?
                    .as_array()
                    .ok_or("'indices' must be an array")?
                    .iter()
                    .map(|x| x.as_usize().ok_or_else(|| "bad shard index".to_string()))
                    .collect::<Result<_, _>>()?,
                config: config_from_value(field(&v, "config")?)?,
            }),
            "reject" => Ok(Self::Reject {
                reason: field_str(&v, "reason")?,
            }),
            "cancel" => Ok(Self::Cancel {
                job: field_u64(&v, "job")?,
            }),
            "shutdown" => Ok(Self::Shutdown),
            other => Err(format!("unknown coordinator message type '{other}'")),
        }
    }
}

/// Worker → coordinator messages.
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// First line on every worker connection: identifies the role (so one
    /// TCP listener serves clients and workers), reports the settle kernel
    /// the worker runs ([`rh_core::Kernel::auto`] on its CPU and
    /// environment, recorded per worker in the response envelope), and
    /// carries the handshake the coordinator vets before leasing —
    /// [`PROTO_VERSION`] plus the operator-assigned `config_epoch`
    /// (fleet-rollout generation; a worker started against yesterday's
    /// config generation is cleanly rejected, not silently merged).
    Hello {
        kernel: String,
        pid: u64,
        /// Wire-protocol version; pre-versioning workers decode as 0.
        proto_version: u64,
        /// Operator-assigned config generation; must equal the
        /// coordinator's `--config-epoch`.
        config_epoch: u64,
        /// Worker-chosen nonce the auth proof is bound to (seeded from the
        /// fault-plan seed and pid, so chaos runs replay exactly). 0 when
        /// the worker carries no token.
        auth_nonce: u64,
        /// [`auth_proof`] over the worker's token and `auth_nonce`; absent
        /// when the worker was started without `--auth-token-file`. A
        /// coordinator with a token rejects hellos that omit or flunk this.
        auth_proof: Option<String>,
    },
    /// Liveness pulse emitted from a side thread while a shard executes, so
    /// the coordinator can tell a *computing* worker from a dead socket even
    /// when the current cell is long. Excluded from fault-plan line
    /// numbering and never advances lease progress.
    Heartbeat { job: u64, shard: u64 },
    /// One completed cell (its position in the sweep's cell list), streamed
    /// as soon as it finishes.
    Cell {
        job: u64,
        shard: u64,
        index: usize,
        result: RunResult,
    },
    /// Shard complete.
    ShardDone { job: u64, shard: u64 },
    /// Shard failed permanently (a config or lease this worker cannot
    /// run); the coordinator fails the job rather than retrying.
    Fail {
        job: u64,
        shard: u64,
        message: String,
    },
    /// Acknowledges a [`ToWorker::Cancel`]: the worker abandoned the rest of
    /// `shard` (its current lease for `job`) without executing it. The
    /// coordinator retires the lease with no requeue.
    CancelAck { job: u64, shard: u64 },
}

impl FromWorker {
    pub fn encode(&self) -> String {
        match self {
            Self::Hello {
                kernel,
                pid,
                proto_version,
                config_epoch,
                auth_nonce,
                auth_proof,
            } => {
                let auth = match auth_proof {
                    Some(proof) => format!(
                        ",\"auth_nonce\":{auth_nonce},\"auth_proof\":{}",
                        jstr(proof)
                    ),
                    None => String::new(),
                };
                format!(
                    "{{\"type\":\"hello\",\"role\":\"worker\",\"proto\":{proto_version},\
                     \"config_epoch\":{config_epoch},\"kernel\":{},\"pid\":{pid}{auth}}}",
                    jstr(kernel)
                )
            }
            Self::Heartbeat { job, shard } => {
                format!("{{\"type\":\"heartbeat\",\"job\":{job},\"shard\":{shard}}}")
            }
            Self::Cell {
                job,
                shard,
                index,
                result,
            } => format!(
                "{{\"type\":\"cell\",\"job\":{job},\"shard\":{shard},\"index\":{index},\
                 \"result\":{}}}",
                result_to_json(result)
            ),
            Self::ShardDone { job, shard } => {
                format!("{{\"type\":\"shard_done\",\"job\":{job},\"shard\":{shard}}}")
            }
            Self::Fail {
                job,
                shard,
                message,
            } => format!(
                "{{\"type\":\"fail\",\"job\":{job},\"shard\":{shard},\"message\":{}}}",
                jstr(message)
            ),
            Self::CancelAck { job, shard } => {
                format!("{{\"type\":\"cancel_ack\",\"job\":{job},\"shard\":{shard}}}")
            }
        }
    }

    pub fn decode(line: &str) -> Result<Self, String> {
        let v = parse(line)?;
        match field_str(&v, "type")?.as_str() {
            "hello" => Ok(Self::Hello {
                kernel: field_str(&v, "kernel")?,
                pid: field_u64(&v, "pid")?,
                // Absent on pre-versioning workers: decode as version 0 so
                // the coordinator's vetting rejects them cleanly instead of
                // erroring out the whole line.
                proto_version: v.get("proto").and_then(Value::as_u64).unwrap_or(0),
                config_epoch: v.get("config_epoch").and_then(Value::as_u64).unwrap_or(0),
                auth_nonce: v.get("auth_nonce").and_then(Value::as_u64).unwrap_or(0),
                auth_proof: v
                    .get("auth_proof")
                    .and_then(Value::as_str)
                    .map(String::from),
            }),
            "heartbeat" => Ok(Self::Heartbeat {
                job: field_u64(&v, "job")?,
                shard: field_u64(&v, "shard")?,
            }),
            "cell" => Ok(Self::Cell {
                job: field_u64(&v, "job")?,
                shard: field_u64(&v, "shard")?,
                index: field(&v, "index")?
                    .as_usize()
                    .ok_or("'index' must be an integer")?,
                result: result_from_value(field(&v, "result")?)?,
            }),
            "shard_done" => Ok(Self::ShardDone {
                job: field_u64(&v, "job")?,
                shard: field_u64(&v, "shard")?,
            }),
            "fail" => Ok(Self::Fail {
                job: field_u64(&v, "job")?,
                shard: field_u64(&v, "shard")?,
                message: field_str(&v, "message")?,
            }),
            "cancel_ack" => Ok(Self::CancelAck {
                job: field_u64(&v, "job")?,
                shard: field_u64(&v, "shard")?,
            }),
            other => Err(format!("unknown worker message type '{other}'")),
        }
    }
}

/// Client → coordinator messages. A bare config object (no `"type"` field)
/// is accepted as an implicit submit — sweep configs *are* the request
/// stream.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// Optional first line authenticating the connection when the
    /// coordinator holds a shared secret; the client analogue of the worker
    /// hello's auth fields. Answered with `{"type":"hello_ok"}` on success.
    Hello {
        auth_nonce: u64,
        auth_proof: String,
    },
    Submit {
        id: Option<String>,
        config: SweepConfig,
        /// Wall-clock budget for the job; past it the coordinator cancels
        /// the job and answers with an error line instead of a result.
        deadline_ms: Option<u64>,
    },
    Cancel {
        id: String,
    },
}

impl ClientMsg {
    pub fn encode(&self) -> String {
        match self {
            Self::Hello {
                auth_nonce,
                auth_proof,
            } => format!(
                "{{\"type\":\"client_hello\",\"auth_nonce\":{auth_nonce},\
                 \"auth_proof\":{}}}",
                jstr(auth_proof)
            ),
            Self::Submit {
                id,
                config,
                deadline_ms,
            } => {
                let id_part = match id {
                    Some(id) => format!("\"id\":{},", jstr(id)),
                    None => String::new(),
                };
                let deadline_part = match deadline_ms {
                    Some(ms) => format!("\"deadline_ms\":{ms},"),
                    None => String::new(),
                };
                format!(
                    "{{\"type\":\"submit\",{id_part}{deadline_part}\"config\":{}}}",
                    config_to_json(config)
                )
            }
            Self::Cancel { id } => format!("{{\"type\":\"cancel\",\"id\":{}}}", jstr(id)),
        }
    }

    pub fn decode(line: &str) -> Result<Self, String> {
        let v = parse(line)?;
        match v.get("type").and_then(Value::as_str) {
            None => Ok(Self::Submit {
                id: None,
                config: config_from_value(&v)?,
                deadline_ms: None,
            }),
            Some("client_hello") => Ok(Self::Hello {
                auth_nonce: v.get("auth_nonce").and_then(Value::as_u64).unwrap_or(0),
                auth_proof: field_str(&v, "auth_proof")?,
            }),
            Some("submit") => Ok(Self::Submit {
                id: v.get("id").and_then(Value::as_str).map(String::from),
                config: config_from_value(field(&v, "config")?)?,
                deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
            }),
            Some("cancel") => Ok(Self::Cancel {
                id: field_str(&v, "id")?,
            }),
            Some(other) => Err(format!("unknown client message type '{other}'")),
        }
    }
}

/// Per-worker execution stats recorded in a job's response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStat {
    /// Coordinator-assigned worker name (`local-0`, `tcp-127.0.0.1:4242`).
    pub worker: String,
    /// The settle kernel the worker announced in its hello.
    pub kernel: String,
    /// Cells this worker contributed to the job.
    pub cells: u64,
}

/// Coordinator → client: the terminal line for one submitted job.
#[derive(Debug, Clone)]
pub struct ResultEnvelope {
    pub id: String,
    pub config_hash: u64,
    pub seed: u64,
    /// This response came straight from the LRU result cache.
    pub served_from_cache: bool,
    /// This request attached to an identical in-flight job instead of
    /// executing again (concurrent dedup).
    pub coalesced: bool,
    /// Coordinator-lifetime count of cache-served responses, *including*
    /// this one — the observable served-from-cache counter.
    pub cache_hits: u64,
    /// Cells executed by workers for this job (0 when cached/coalesced).
    pub executed_cells: u64,
    /// Cells restored from per-shard checkpoints instead of executing.
    pub checkpoint_cells: u64,
    /// Checkpoint records skipped as garbled or torn during restore.
    pub checkpoint_skipped: u64,
    /// Straggler leases speculatively re-executed on another worker.
    pub speculations: u64,
    /// Duplicate cell completions observed (speculation or lossy-link
    /// recovery) — every one was asserted bit-exact against the slot it
    /// duplicated before being counted.
    pub duplicate_cells: u64,
    /// LRU result-cache evictions over the coordinator's lifetime.
    pub evictions: u64,
    /// Jobs admitted and not yet finished when this response was built —
    /// the depth of the admission queue the job just left.
    pub queue_depth: u64,
    /// Milliseconds this job spent admitted-but-unstarted (queue wait:
    /// admission to first merged or restored cell). 0 for cache hits.
    pub queue_wait_ms: u64,
    /// Coordinator-lifetime submits refused by admission control (queue
    /// full or a per-client quota).
    pub rejected_submits: u64,
    /// Coordinator-lifetime hellos (worker or client) that flunked the
    /// shared-secret check.
    pub auth_failures: u64,
    /// Coordinator-lifetime jobs torn down by `cancel` or an expired
    /// deadline.
    pub cancelled_jobs: u64,
    pub workers: Vec<WorkerStat>,
    /// The merged sweep document — byte-identical to `rh-cli sweep` run
    /// in-process with the same config.
    pub document: String,
}

impl ResultEnvelope {
    pub fn encode(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"worker\":{},\"kernel\":{},\"cells\":{}}}",
                    jstr(&w.worker),
                    jstr(&w.kernel),
                    w.cells
                )
            })
            .collect();
        format!(
            "{{\"type\":\"result\",\"id\":{},\"config_hash\":{},\"seed\":{},\
             \"served_from_cache\":{},\"coalesced\":{},\"cache_hits\":{},\
             \"executed_cells\":{},\"checkpoint_cells\":{},\"checkpoint_skipped\":{},\
             \"speculations\":{},\"duplicate_cells\":{},\"evictions\":{},\
             \"queue_depth\":{},\"queue_wait_ms\":{},\"rejected_submits\":{},\
             \"auth_failures\":{},\"cancelled_jobs\":{},\"workers\":[{}],\
             \"document\":{}}}",
            jstr(&self.id),
            jstr(&format!("{:#018x}", self.config_hash)),
            self.seed,
            self.served_from_cache,
            self.coalesced,
            self.cache_hits,
            self.executed_cells,
            self.checkpoint_cells,
            self.checkpoint_skipped,
            self.speculations,
            self.duplicate_cells,
            self.evictions,
            self.queue_depth,
            self.queue_wait_ms,
            self.rejected_submits,
            self.auth_failures,
            self.cancelled_jobs,
            workers.join(","),
            jstr(&self.document),
        )
    }

    pub fn decode(line: &str) -> Result<Self, String> {
        let v = parse(line)?;
        match field_str(&v, "type")?.as_str() {
            "result" => {}
            "error" => return Err(field_str(&v, "message")?),
            // Admission-control / auth refusal: surface the reason verbatim
            // so `rh-cli submit` exits nonzero with it on stderr.
            "reject" => return Err(format!("rejected: {}", field_str(&v, "reason")?)),
            other => return Err(format!("unexpected response type '{other}'")),
        }
        let hash_text = field_str(&v, "config_hash")?;
        let config_hash = hash_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad config_hash '{hash_text}'"))?;
        let workers = field(&v, "workers")?
            .as_array()
            .ok_or("'workers' must be an array")?
            .iter()
            .map(|w| {
                Ok(WorkerStat {
                    worker: field_str(w, "worker")?,
                    kernel: field_str(w, "kernel")?,
                    cells: field_u64(w, "cells")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            id: field_str(&v, "id")?,
            config_hash,
            seed: field_u64(&v, "seed")?,
            served_from_cache: field(&v, "served_from_cache")?
                .as_bool()
                .ok_or("'served_from_cache' must be a bool")?,
            coalesced: field(&v, "coalesced")?
                .as_bool()
                .ok_or("'coalesced' must be a bool")?,
            cache_hits: field_u64(&v, "cache_hits")?,
            executed_cells: field_u64(&v, "executed_cells")?,
            checkpoint_cells: field_u64(&v, "checkpoint_cells")?,
            checkpoint_skipped: v
                .get("checkpoint_skipped")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            speculations: v.get("speculations").and_then(Value::as_u64).unwrap_or(0),
            duplicate_cells: v
                .get("duplicate_cells")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            // PR 9 counters: absent on older envelopes, decode as 0.
            evictions: v.get("evictions").and_then(Value::as_u64).unwrap_or(0),
            queue_depth: v.get("queue_depth").and_then(Value::as_u64).unwrap_or(0),
            queue_wait_ms: v.get("queue_wait_ms").and_then(Value::as_u64).unwrap_or(0),
            rejected_submits: v
                .get("rejected_submits")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            auth_failures: v.get("auth_failures").and_then(Value::as_u64).unwrap_or(0),
            cancelled_jobs: v.get("cancelled_jobs").and_then(Value::as_u64).unwrap_or(0),
            workers,
            document: field_str(&v, "document")?,
        })
    }
}

/// Coordinator → client error line.
pub fn encode_error(id: &str, message: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"id\":{},\"message\":{}}}",
        jstr(id),
        jstr(message)
    )
}

/// Coordinator → client admission/auth refusal line. Distinct from an
/// error: nothing went wrong — the coordinator chose not to take the work
/// (`queue_full`, `client_job_quota`, `client_cell_quota`, `auth_failed`),
/// and the client may retry later (except `auth_failed`).
pub fn encode_reject(reason: &str) -> String {
    format!("{{\"type\":\"reject\",\"reason\":{}}}", jstr(reason))
}

// ---------------------------------------------------------------------------
// Line IO
// ---------------------------------------------------------------------------

/// Write one jsonl line and flush (the protocol is interactive — an
/// unflushed lease would deadlock both sides).
pub fn write_line<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Longest line, in bytes before its newline, the coordinator keeps from a
/// client or a worker; a longer one is drained without being kept and
/// answered with an error naming the limit ([`line_too_long`]). 32 MiB
/// admits every config the default cell quota (1 000 000 cells) admits: in
/// shortest form an axis value costs at most 24 bytes (a 17-digit PARA
/// probability in exponent notation plus its comma) and adds at least one
/// cell, so such a config fits in 24 MB plus a few hundred bytes of fixed
/// fields. Clients read the coordinator's lines unbounded: a large grid's
/// envelope is legitimately big.
pub const MAX_LINE_BYTES: usize = 32 << 20;

/// One line read under a length bound.
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// The line's text, trimmed (never empty).
    Text(String),
    /// The line ran past the bound; it was drained to its newline and
    /// nothing of it was kept.
    TooLong,
}

/// The error message answering a [`Line::TooLong`].
pub fn line_too_long() -> String {
    format!("line longer than the {MAX_LINE_BYTES}-byte limit (32 MiB) was discarded")
}

/// Read one non-empty line; `Ok(None)` on clean EOF.
pub fn read_line<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    Ok(read_line_bounded(r, usize::MAX)?.map(|line| match line {
        Line::Text(text) => text,
        Line::TooLong => unreachable!("no line exceeds usize::MAX bytes"),
    }))
}

/// Read one non-empty line of at most `limit` bytes before its newline;
/// `Ok(None)` on clean EOF. A longer line is consumed up to and including
/// its newline without being kept, so memory stays within `limit` whatever
/// the peer sends, and the stream stays framed for the next line.
pub fn read_line_bounded<R: BufRead>(r: &mut R, limit: usize) -> std::io::Result<Option<Line>> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let (mut read_any, mut too_long) = (false, false);
        loop {
            let chunk = match r.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                break;
            }
            read_any = true;
            let newline = chunk.iter().position(|&b| b == b'\n');
            let content = &chunk[..newline.unwrap_or(chunk.len())];
            if !too_long && content.len() > limit - buf.len() {
                too_long = true;
                buf = Vec::new();
            }
            if !too_long {
                buf.extend_from_slice(content);
            }
            let used = newline.map_or(chunk.len(), |i| i + 1);
            r.consume(used);
            if newline.is_some() {
                break;
            }
        }
        if !read_any {
            return Ok(None);
        }
        if too_long {
            return Ok(Some(Line::TooLong));
        }
        let text = std::str::from_utf8(&buf).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line is not UTF-8: {e}"),
            )
        })?;
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            return Ok(Some(Line::Text(trimmed.to_string())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::Geometry;

    fn hash_of(json: &str) -> u64 {
        config_hash(&config_from_value(&parse(json).unwrap()).unwrap())
    }

    #[test]
    fn parser_round_trips_basic_documents() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parser_preserves_full_u64_range() {
        let v = parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\"b\\cAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\cAé"));
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "{'a':1}",
            "nul",
            "1.",
            "-",
            "\"unterminated",
            "\"raw \u{1} control\"",
            "\"tab\there\"",
            "\"bad \\x escape\"",
            "\"bad \\é escape\"",
            "\"short \\u12\"",
            "\"lone \\ud800 high\"",
            "\"bad \\ud800\\u0041 low\"",
            "\"bad \\ud800\\ue000 low\"",
            "\"unterminated \\",
        ] {
            assert!(parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    /// Seeded round trip over strings up to 64 KB mixing long ASCII runs,
    /// 2–4-byte UTF-8, every character `jstr` escapes and raw control
    /// characters. Each string is also decoded from a second encoding that
    /// spells characters with the escapes `jstr` never emits (`\/`, `\b`,
    /// `\f`, `\uXXXX` and surrogate pairs).
    #[test]
    fn strings_round_trip_through_jstr_and_every_escape() {
        let pieces: [&str; 12] = [
            "plain ascii run ",
            "é",
            "ß",
            "中",
            "€",
            "😀",
            "\"",
            "\\",
            "/",
            "\n\t\r",
            "\u{0}\u{1}\u{8}\u{c}\u{1f}",
            "\u{7f}",
        ];
        let mut rng = rh_core::SplitMix64::new(0x5EED_57A1);
        for case in 0..48 {
            let target = match case {
                0 => 0,
                1 => 64 * 1024,
                _ => rng.gen_range(64 * 1024) as usize,
            };
            let mut s = String::new();
            while s.len() < target {
                let piece = pieces[rng.gen_range(pieces.len() as u64) as usize];
                if rng.chance(0.1) {
                    s.push_str(&"x".repeat(rng.gen_range(4096) as usize));
                }
                s.push_str(piece);
            }
            assert_eq!(parse(&jstr(&s)), Ok(Value::Str(s.clone())), "case {case}");

            let mut alt = String::from("\"");
            for c in s.chars() {
                match c {
                    '/' => alt.push_str("\\/"),
                    '\u{8}' => alt.push_str("\\b"),
                    '\u{c}' => alt.push_str("\\f"),
                    '"' | '\\' => {
                        alt.push('\\');
                        alt.push(c);
                    }
                    c if (c as u32) < 0x20 || !c.is_ascii() => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            let _ = write!(alt, "\\u{unit:04X}");
                        }
                    }
                    c => alt.push(c),
                }
            }
            alt.push('"');
            assert_eq!(parse(&alt), Ok(Value::Str(s)), "case {case}, escaped");
        }
    }

    #[test]
    fn jstr_escapes_specials() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(jstr("\u{1}"), "\"\\u0001\"");
        assert_eq!(
            parse(&jstr("tab\there")).unwrap().as_str(),
            Some("tab\there")
        );
    }

    #[test]
    fn empty_object_is_the_default_config() {
        let cfg = config_from_value(&parse("{}").unwrap()).unwrap();
        let def = SweepConfig::default();
        assert_eq!(cfg.seed, def.seed);
        assert_eq!(cfg.hc_firsts, def.hc_firsts);
        assert_eq!(config_hash(&cfg), config_hash(&def));
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = SweepConfig {
            seed: u64::MAX,
            activations: 12_345,
            hc_firsts: vec![999, 123],
            sides: vec![3, 5],
            para_probabilities: vec![0.1, 0.0125],
            data_patterns: vec![rh_core::DataPattern::RowStripe],
            ecc_codeword_bits: 64,
            benign_fraction: 0.3,
            auto_refresh_interval: 7_000,
            geometry: Geometry::tiny(256),
        };
        let back = config_from_value(&parse(&config_to_json(&cfg)).unwrap()).unwrap();
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.hc_firsts, cfg.hc_firsts);
        assert_eq!(back.para_probabilities, cfg.para_probabilities);
        assert_eq!(back.data_patterns, cfg.data_patterns);
        assert_eq!(back.benign_fraction, cfg.benign_fraction);
        assert_eq!(config_key(&back), config_key(&cfg));
    }

    #[test]
    fn unknown_and_invalid_config_fields_are_rejected() {
        for bad in [
            "{\"frobnicate\": 1}",
            "{\"hc_firsts\": 5}",
            "{\"hc_firsts\": [0]}",
            "{\"activations\": 0}",
            "{\"seed\": -1}",
            "{\"data_patterns\": [\"zebra\"]}",
            "{\"geometry\": {\"rows\": 4}}",
            "{\"para_probabilities\": [2.0]}",
            "[]",
        ] {
            assert!(
                config_from_value(&parse(bad).unwrap()).is_err(),
                "'{bad}' must be rejected"
            );
        }
    }

    // -- Canonical hash invariances (satellite: two configs that plan
    // identically must hash identically; any axis change must not). --

    #[test]
    fn hash_ignores_field_order_and_whitespace() {
        let a = hash_of(r#"{"activations": 5000, "hc_firsts": [1000, 2000]}"#);
        let b = hash_of("  { \"hc_firsts\" : [ 1000 ,\t2000 ] ,\n    \"activations\" : 5000 }  ");
        assert_eq!(a, b);
    }

    #[test]
    fn hash_ignores_explicit_default_fields() {
        let d = SweepConfig::default();
        let explicit = format!(
            r#"{{"activations": 5000, "benign_fraction": {}, "refresh_interval": {}, "ecc_codeword_bits": 0}}"#,
            d.benign_fraction, d.auto_refresh_interval
        );
        assert_eq!(hash_of(r#"{"activations": 5000}"#), hash_of(&explicit));
    }

    #[test]
    fn hash_ignores_normalization_artifacts() {
        // Duplicate axis values and PARA order vanish at plan time, so they
        // must vanish from the hash too.
        let a = hash_of(
            r#"{"hc_firsts": [1000, 1000, 2000], "para_probabilities": [0.004, 0.0, 0.004]}"#,
        );
        let b = hash_of(r#"{"hc_firsts": [1000, 2000], "para_probabilities": [0.0, 0.004]}"#);
        assert_eq!(a, b);
    }

    #[test]
    fn hash_moves_with_every_axis() {
        let base = hash_of("{}");
        for change in [
            r#"{"activations": 5}"#,
            r#"{"hc_firsts": [1000]}"#,
            r#"{"sides": [2]}"#,
            r#"{"para_probabilities": [0.5]}"#,
            r#"{"data_patterns": ["solid"]}"#,
            r#"{"ecc_codeword_bits": 32}"#,
            r#"{"benign_fraction": 0.2}"#,
            r#"{"refresh_interval": 1}"#,
            r#"{"geometry": {"banks": 8}}"#,
        ] {
            assert_ne!(
                base,
                hash_of(change),
                "axis change '{change}' kept the hash"
            );
        }
        // hc ordering is order-preserving (not sorted) — a reorder is a
        // different sweep document, so it must move the hash.
        assert_ne!(
            hash_of(r#"{"hc_firsts": [1000, 2000]}"#),
            hash_of(r#"{"hc_firsts": [2000, 1000]}"#)
        );
    }

    #[test]
    fn seed_is_excluded_from_hash_but_part_of_key() {
        let a = config_from_value(&parse(r#"{"seed": 1}"#).unwrap()).unwrap();
        let b = config_from_value(&parse(r#"{"seed": 2}"#).unwrap()).unwrap();
        assert_eq!(config_hash(&a), config_hash(&b));
        assert_ne!(config_key(&a), config_key(&b));
    }

    #[test]
    fn run_result_codec_is_bit_exact() {
        let r = RunResult {
            workload: "many_sided(n=8)".into(),
            mitigation: "para(p=0.004)".into(),
            hc_first: 512,
            data_pattern: "rowstripe".into(),
            activations: 100,
            total_flips: 7,
            flipped_rows: 3,
            flips_per_mact: 0.1 + 0.2, // a value with a non-terminating binary tail
            refreshes_issued: 9,
            flips_1to0: 4,
            flips_0to1: 3,
            post_ecc_flips: Some(1),
        };
        let back = result_from_value(&parse(&result_to_json(&r)).unwrap()).unwrap();
        assert_eq!(back.flips_per_mact.to_bits(), r.flips_per_mact.to_bits());
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.post_ecc_flips, Some(1));
        let none = RunResult {
            post_ecc_flips: None,
            ..r
        };
        let back = result_from_value(&parse(&result_to_json(&none)).unwrap()).unwrap();
        assert_eq!(back.post_ecc_flips, None);
    }

    #[test]
    fn worker_messages_round_trip() {
        let shard = ToWorker::Shard {
            job: 3,
            shard: 1,
            indices: vec![0, 2, 5],
            config: SweepConfig::default(),
        };
        match ToWorker::decode(&shard.encode()).unwrap() {
            ToWorker::Shard {
                job,
                shard,
                indices,
                config,
            } => {
                assert_eq!((job, shard), (3, 1));
                assert_eq!(indices, vec![0, 2, 5]);
                assert_eq!(config.seed, SweepConfig::default().seed);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
        assert!(matches!(
            ToWorker::decode(&ToWorker::Shutdown.encode()).unwrap(),
            ToWorker::Shutdown
        ));

        let hello = FromWorker::Hello {
            kernel: "avx2".into(),
            pid: 42,
            proto_version: PROTO_VERSION,
            config_epoch: 9,
            auth_nonce: 0,
            auth_proof: None,
        };
        assert!(matches!(
            FromWorker::decode(&hello.encode()).unwrap(),
            FromWorker::Hello {
                pid: 42,
                proto_version: PROTO_VERSION,
                config_epoch: 9,
                ..
            }
        ));
        let beat = FromWorker::Heartbeat { job: 4, shard: 8 };
        assert!(matches!(
            FromWorker::decode(&beat.encode()).unwrap(),
            FromWorker::Heartbeat { job: 4, shard: 8 }
        ));
        let reject = ToWorker::Reject {
            reason: "epoch mismatch".into(),
        };
        match ToWorker::decode(&reject.encode()).unwrap() {
            ToWorker::Reject { reason } => assert_eq!(reason, "epoch mismatch"),
            other => panic!("decoded wrong variant: {other:?}"),
        }
        let done = FromWorker::ShardDone { job: 1, shard: 2 };
        assert!(matches!(
            FromWorker::decode(&done.encode()).unwrap(),
            FromWorker::ShardDone { job: 1, shard: 2 }
        ));
    }

    #[test]
    fn cancel_messages_round_trip() {
        let cancel = ToWorker::Cancel { job: 17 };
        assert!(matches!(
            ToWorker::decode(&cancel.encode()).unwrap(),
            ToWorker::Cancel { job: 17 }
        ));
        let ack = FromWorker::CancelAck { job: 17, shard: 4 };
        assert!(matches!(
            FromWorker::decode(&ack.encode()).unwrap(),
            FromWorker::CancelAck { job: 17, shard: 4 }
        ));
    }

    #[test]
    fn authenticated_hello_round_trips() {
        let proof = auth_proof("hunter2", 0xABCD);
        let hello = FromWorker::Hello {
            kernel: "scalar".into(),
            pid: 7,
            proto_version: PROTO_VERSION,
            config_epoch: 0,
            auth_nonce: 0xABCD,
            auth_proof: Some(proof.clone()),
        };
        match FromWorker::decode(&hello.encode()).unwrap() {
            FromWorker::Hello {
                auth_nonce,
                auth_proof,
                ..
            } => {
                assert_eq!(auth_nonce, 0xABCD);
                assert_eq!(auth_proof.as_deref(), Some(proof.as_str()));
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    #[test]
    fn auth_proof_binds_token_and_nonce() {
        let p = auth_proof("secret", 1);
        assert_eq!(p, auth_proof("secret", 1), "proof must be deterministic");
        assert_ne!(p, auth_proof("secret", 2), "nonce must move the proof");
        assert_ne!(p, auth_proof("Secret", 1), "token must move the proof");
        assert_eq!(p.len(), 16, "proofs are 16 hex digits");
    }

    #[test]
    fn constant_time_eq_matches_plain_equality() {
        assert!(constant_time_eq("abcd", "abcd"));
        assert!(!constant_time_eq("abcd", "abce"));
        assert!(!constant_time_eq("abcd", "abc"));
        assert!(constant_time_eq("", ""));
    }

    #[test]
    fn client_messages_accept_bare_configs() {
        match ClientMsg::decode(r#"{"activations": 5000}"#).unwrap() {
            ClientMsg::Submit {
                id,
                config,
                deadline_ms,
            } => {
                assert_eq!(id, None);
                assert_eq!(config.activations, 5000);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
        match ClientMsg::decode(r#"{"type":"submit","id":"j1","config":{}}"#).unwrap() {
            ClientMsg::Submit { id, .. } => assert_eq!(id.as_deref(), Some("j1")),
            other => panic!("decoded wrong variant: {other:?}"),
        }
        assert!(matches!(
            ClientMsg::decode(r#"{"type":"cancel","id":"j1"}"#).unwrap(),
            ClientMsg::Cancel { .. }
        ));
        assert!(ClientMsg::decode(r#"{"type":"bogus"}"#).is_err());
    }

    #[test]
    fn client_messages_round_trip_through_encode() {
        let submit = ClientMsg::Submit {
            id: Some("j7".into()),
            config: SweepConfig::default(),
            deadline_ms: Some(1500),
        };
        match ClientMsg::decode(&submit.encode()).unwrap() {
            ClientMsg::Submit {
                id,
                config,
                deadline_ms,
            } => {
                assert_eq!(id.as_deref(), Some("j7"));
                assert_eq!(deadline_ms, Some(1500));
                assert_eq!(config_key(&config), config_key(&SweepConfig::default()));
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
        let hello = ClientMsg::Hello {
            auth_nonce: 9,
            auth_proof: auth_proof("tok", 9),
        };
        match ClientMsg::decode(&hello.encode()).unwrap() {
            ClientMsg::Hello {
                auth_nonce,
                auth_proof,
            } => {
                assert_eq!(auth_nonce, 9);
                assert_eq!(auth_proof, super::auth_proof("tok", 9));
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
        match ClientMsg::decode(&ClientMsg::Cancel { id: "j7".into() }.encode()).unwrap() {
            ClientMsg::Cancel { id } => assert_eq!(id, "j7"),
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    #[test]
    fn result_envelope_round_trips() {
        let env = ResultEnvelope {
            id: "job-1".into(),
            config_hash: 0xDEAD_BEEF_0000_0001,
            seed: 7,
            served_from_cache: true,
            coalesced: false,
            cache_hits: 3,
            executed_cells: 0,
            checkpoint_cells: 4,
            checkpoint_skipped: 2,
            speculations: 1,
            duplicate_cells: 5,
            evictions: 6,
            queue_depth: 2,
            queue_wait_ms: 120,
            rejected_submits: 3,
            auth_failures: 1,
            cancelled_jobs: 2,
            workers: vec![WorkerStat {
                worker: "local-0".into(),
                kernel: "scalar".into(),
                cells: 4,
            }],
            document: "{\n  \"grid\": []\n}".into(),
        };
        let back = ResultEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back.config_hash, env.config_hash);
        assert_eq!(back.seed, 7);
        assert!(back.served_from_cache);
        assert_eq!(back.cache_hits, 3);
        assert_eq!(back.workers, env.workers);
        assert_eq!(back.checkpoint_skipped, 2);
        assert_eq!(back.speculations, 1);
        assert_eq!(back.duplicate_cells, 5);
        assert_eq!(back.evictions, 6);
        assert_eq!(back.queue_depth, 2);
        assert_eq!(back.queue_wait_ms, 120);
        assert_eq!(back.rejected_submits, 3);
        assert_eq!(back.auth_failures, 1);
        assert_eq!(back.cancelled_jobs, 2);
        assert_eq!(
            back.document, env.document,
            "document must survive escaping"
        );
    }

    #[test]
    fn pre_pr9_envelope_decodes_with_zero_counters() {
        // The PR 8 envelope shape: none of the job-manager counters. They
        // must decode as 0, not fail the line.
        let legacy = "{\"type\":\"result\",\"id\":\"j\",\"config_hash\":\"0x0000000000000001\",\
                      \"seed\":1,\"served_from_cache\":false,\"coalesced\":false,\
                      \"cache_hits\":0,\"executed_cells\":4,\"checkpoint_cells\":0,\
                      \"workers\":[],\"document\":\"{}\"}";
        let env = ResultEnvelope::decode(legacy).unwrap();
        assert_eq!(env.evictions, 0);
        assert_eq!(env.queue_depth, 0);
        assert_eq!(env.queue_wait_ms, 0);
        assert_eq!(env.rejected_submits, 0);
        assert_eq!(env.auth_failures, 0);
        assert_eq!(env.cancelled_jobs, 0);
    }

    #[test]
    fn reject_line_decodes_to_err_with_reason() {
        let line = encode_reject("queue_full");
        let err = ResultEnvelope::decode(&line).unwrap_err();
        assert!(err.contains("queue_full"), "reason must survive: {err}");
    }

    #[test]
    fn pre_versioning_hello_decodes_as_version_zero() {
        // The PR 7 hello shape, with no proto/config_epoch fields — it must
        // decode (so the coordinator can *vet* it) as version 0.
        let legacy = r#"{"type":"hello","role":"worker","kernel":"scalar","pid":1}"#;
        match FromWorker::decode(legacy).unwrap() {
            FromWorker::Hello {
                proto_version,
                config_epoch,
                ..
            } => {
                assert_eq!(proto_version, 0);
                assert_eq!(config_epoch, 0);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    #[test]
    fn error_envelope_decodes_to_err() {
        let line = encode_error("j9", "no workers");
        let err = ResultEnvelope::decode(&line).unwrap_err();
        assert_eq!(err, "no workers");
    }

    #[test]
    fn read_line_skips_blanks_and_detects_eof() {
        let mut input = std::io::Cursor::new(b"\n\n{\"a\":1}\n".to_vec());
        assert_eq!(read_line(&mut input).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_line(&mut input).unwrap(), None);
    }

    /// An over-long line is drained to its newline and reported, not kept;
    /// the lines around it read normally, at the limit exactly too.
    #[test]
    fn bounded_read_drains_an_overlong_line_and_keeps_framing() {
        let long = "x".repeat(10_000);
        let input = format!("{{\"a\":1}}\n{long}\n\n  {}  \n{long}", "y".repeat(60));
        let mut r = std::io::BufReader::with_capacity(16, input.as_bytes());
        let mut next = || read_line_bounded(&mut r, 64).unwrap();
        assert_eq!(next(), Some(Line::Text("{\"a\":1}".to_string())));
        assert_eq!(next(), Some(Line::TooLong));
        assert_eq!(next(), Some(Line::Text("y".repeat(60))));
        // An unterminated over-long tail is still one line, then EOF.
        assert_eq!(next(), Some(Line::TooLong));
        assert_eq!(next(), None);
        assert!(line_too_long().contains(&MAX_LINE_BYTES.to_string()));
    }

    // -- Seeded no-panic fuzz (satellite): byte-level mutations of valid
    // protocol lines must come back as Err, never a panic. --

    /// Every wire shape the service exchanges, as encoded by this codec.
    fn valid_protocol_lines() -> Vec<String> {
        let result = RunResult {
            workload: "many_sided(n=2)".into(),
            mitigation: "para(p=0.5)".into(),
            hc_first: 500,
            data_pattern: "solid".into(),
            activations: 2000,
            total_flips: 3,
            flipped_rows: 2,
            flips_per_mact: 0.1 + 0.2,
            refreshes_issued: 1,
            flips_1to0: 2,
            flips_0to1: 1,
            post_ecc_flips: None,
        };
        vec![
            ToWorker::Shard {
                job: 1,
                shard: 2,
                indices: vec![0, 1, 7],
                config: SweepConfig::default(),
            }
            .encode(),
            ToWorker::Reject {
                reason: "nope".into(),
            }
            .encode(),
            ToWorker::Cancel { job: 3 }.encode(),
            ToWorker::Shutdown.encode(),
            FromWorker::Hello {
                kernel: "scalar".into(),
                pid: 99,
                proto_version: PROTO_VERSION,
                config_epoch: 1,
                auth_nonce: 0xFEED,
                auth_proof: Some(auth_proof("tok", 0xFEED)),
            }
            .encode(),
            FromWorker::Heartbeat { job: 1, shard: 2 }.encode(),
            FromWorker::Cell {
                job: 1,
                shard: 2,
                index: 5,
                result: result.clone(),
            }
            .encode(),
            FromWorker::ShardDone { job: 1, shard: 2 }.encode(),
            FromWorker::CancelAck { job: 1, shard: 2 }.encode(),
            ClientMsg::Submit {
                id: Some("j1".into()),
                config: SweepConfig::default(),
                deadline_ms: Some(250),
            }
            .encode(),
            ClientMsg::Hello {
                auth_nonce: 4,
                auth_proof: auth_proof("tok", 4),
            }
            .encode(),
            ResultEnvelope {
                id: "j1".into(),
                config_hash: 1,
                seed: 2,
                served_from_cache: false,
                coalesced: false,
                cache_hits: 0,
                executed_cells: 8,
                checkpoint_cells: 0,
                checkpoint_skipped: 0,
                speculations: 0,
                duplicate_cells: 0,
                evictions: 0,
                queue_depth: 1,
                queue_wait_ms: 0,
                rejected_submits: 0,
                auth_failures: 0,
                cancelled_jobs: 0,
                workers: vec![],
                document: format!("{{\"grid\":[{}]}}", result_to_json(&result)),
            }
            .encode(),
            encode_error("j1", "boom"),
            encode_reject("queue_full"),
        ]
    }

    /// Feed one (possibly mangled) line to every decoder. The assertion is
    /// in getting back at all: any panic fails the test.
    fn exercise_decoders(line: &str) {
        let _ = parse(line);
        let _ = ToWorker::decode(line);
        let _ = FromWorker::decode(line);
        let _ = ClientMsg::decode(line);
        let _ = ResultEnvelope::decode(line);
    }

    #[test]
    fn fuzz_truncated_lines_err_and_never_panic() {
        // Any proper byte-prefix of a minified JSON object is unbalanced,
        // so truncation must always come back Err — from every decoder.
        let mut rng = rh_core::SplitMix64::new(0xF022_0001);
        for line in valid_protocol_lines() {
            let bytes = line.as_bytes();
            for _ in 0..64 {
                let cut = (rng.gen_range(bytes.len() as u64)) as usize;
                let truncated = String::from_utf8_lossy(&bytes[..cut]).into_owned();
                assert!(
                    parse(&truncated).is_err(),
                    "truncation of '{line}' at {cut} must not parse"
                );
                exercise_decoders(&truncated);
            }
        }
    }

    #[test]
    fn fuzz_clobbered_and_spliced_lines_never_panic() {
        let lines = valid_protocol_lines();
        let mut rng = rh_core::SplitMix64::new(0xF022_0002);
        for line in &lines {
            for _ in 0..128 {
                let mut bytes = line.as_bytes().to_vec();
                match rng.gen_range(3) {
                    // Clobber: overwrite a byte with an arbitrary one.
                    0 => {
                        let at = rng.gen_range(bytes.len() as u64) as usize;
                        bytes[at] = (rng.next_u64() & 0xFF) as u8;
                    }
                    // Splice: paste a random slice of another valid line
                    // into the middle of this one.
                    1 => {
                        let donor = lines[rng.gen_range(lines.len() as u64) as usize].as_bytes();
                        let from = rng.gen_range(donor.len() as u64) as usize;
                        let to = from + rng.gen_range((donor.len() - from) as u64 + 1) as usize;
                        let at = rng.gen_range(bytes.len() as u64 + 1) as usize;
                        bytes.splice(at..at, donor[from..to].iter().copied());
                    }
                    // Delete a span.
                    _ => {
                        let from = rng.gen_range(bytes.len() as u64) as usize;
                        let to = from + rng.gen_range((bytes.len() - from) as u64 + 1) as usize;
                        bytes.drain(from..to);
                    }
                }
                let mangled = String::from_utf8_lossy(&bytes).into_owned();
                exercise_decoders(&mangled);
            }
        }
    }
}
