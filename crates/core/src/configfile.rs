//! Config files: a first-party TOML subset over the serde value tree.
//!
//! The workspace vendors its serialization stack, so there is no external
//! TOML crate to lean on. This module implements the subset of TOML that
//! [`crate::ServeConfig`] (and the fleet config) actually
//! needs, on both sides:
//!
//! * [`to_toml`] renders any `Serialize` type whose value tree is a table:
//!   nested objects become `[dotted.sections]`, arrays of objects become
//!   `[[arrays.of.tables]]`, everything else is emitted inline (including
//!   nested arrays, e.g. quantile control points). `None` fields are
//!   simply omitted.
//! * [`parse_toml`] reads that subset back — plus inline tables,
//!   single-quoted strings, comments, and multi-line arrays, so
//!   hand-written files have room to breathe.
//! * `merge_values` deep-merges a parsed (possibly partial) file over a
//!   default tree, which is how `ServeConfig::from_toml` lets a config
//!   file state only the fields it cares about.
//! * Both loaders, [`ServeConfig::from_toml`] and
//!   [`FleetConfig::from_toml`](crate::fleet::FleetConfig::from_toml),
//!   check the file's `schema_version` and warn about every key, at any
//!   depth, that the loaded config does not carry (a key an older schema
//!   had loads with a warning, never an error).
//!
//! Floats are emitted with Rust's shortest-round-trip formatting, so a
//! serialize → parse cycle reproduces every `f64` bit-for-bit; the
//! round-trip property test at the bottom leans on that.

use crate::config::{ServeConfig, SystemKind};
use crate::error::{Error, Result};
use serde::value::{Map, Number, Value};
use serde::{Deserialize, Serialize};

/// Version of the config-file schema this build reads and writes. Emitted
/// as the first line of every rendered config; files declaring a newer
/// version are rejected, files declaring none (or an older one) load
/// normally.
pub const CONFIG_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Renders a `Serialize` type as TOML.
///
/// # Errors
///
/// Returns [`Error::Config`] if the type's value tree is not a table at the
/// top level, or contains a value TOML cannot express (a bare `null`
/// inside an array).
pub fn to_toml<T: Serialize>(value: &T) -> Result<String> {
    match value.serialize_value() {
        Value::Object(map) => {
            let mut out = String::new();
            emit_table(&map, &mut Vec::new(), &mut out)?;
            Ok(out)
        }
        other => Err(Error::Config {
            reason: format!("top-level config must be a table, got {other}"),
        }),
    }
}

fn is_table(v: &Value) -> bool {
    matches!(v, Value::Object(_))
}

fn is_array_of_tables(v: &Value) -> bool {
    match v {
        Value::Array(items) => !items.is_empty() && items.iter().all(is_table),
        _ => false,
    }
}

fn emit_table(map: &Map, path: &mut Vec<String>, out: &mut String) -> Result<()> {
    // TOML requires a table's inline keys before its sub-section headers.
    for (k, v) in map.iter() {
        if v.is_null() || is_table(v) || is_array_of_tables(v) {
            continue;
        }
        emit_key(k, out);
        out.push_str(" = ");
        emit_inline(v, out)?;
        out.push('\n');
    }
    for (k, v) in map.iter() {
        match v {
            Value::Object(m) => {
                path.push(k.clone());
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push('[');
                emit_path(path, out);
                out.push_str("]\n");
                emit_table(m, path, out)?;
                path.pop();
            }
            Value::Array(items) if is_array_of_tables(v) => {
                path.push(k.clone());
                for item in items {
                    let m = item.as_object().expect("checked by is_array_of_tables");
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    out.push_str("[[");
                    emit_path(path, out);
                    out.push_str("]]\n");
                    emit_table(m, path, out)?;
                }
                path.pop();
            }
            _ => {}
        }
    }
    Ok(())
}

fn emit_path(path: &[String], out: &mut String) {
    for (i, seg) in path.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        emit_key(seg, out);
    }
}

fn bare_key_ok(k: &str) -> bool {
    !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn emit_key(k: &str, out: &mut String) {
    if bare_key_ok(k) {
        out.push_str(k);
    } else {
        emit_string(k, out);
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04X}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn emit_inline(v: &Value, out: &mut String) -> Result<()> {
    match v {
        Value::Null => {
            return Err(Error::Config {
                reason: "null has no TOML representation".into(),
            })
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => emit_number(*n, out),
        Value::String(s) => emit_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_inline(item, out)?;
            }
            out.push(']');
        }
        Value::Object(m) => {
            // Objects reached inline (e.g. nested inside a plain array)
            // render as inline tables.
            out.push('{');
            let mut first = true;
            for (k, item) in m.iter() {
                if item.is_null() {
                    continue;
                }
                out.push_str(if first { " " } else { ", " });
                first = false;
                emit_key(k, out);
                out.push_str(" = ");
                emit_inline(item, out)?;
            }
            out.push_str(if first { "}" } else { " }" });
        }
    }
    Ok(())
}

fn emit_number(n: Number, out: &mut String) {
    match n {
        Number::PosInt(v) => out.push_str(&v.to_string()),
        Number::NegInt(v) => out.push_str(&v.to_string()),
        Number::Float(v) if v.is_nan() => out.push_str("nan"),
        Number::Float(v) if v.is_infinite() => out.push_str(if v < 0.0 { "-inf" } else { "inf" }),
        Number::Float(v) => {
            // `{:?}` is Rust's shortest representation that parses back to
            // the same bits — the whole round-trip guarantee rests on it.
            let s = format!("{v:?}");
            out.push_str(&s);
            // TOML floats need a dot or exponent ("{:?}" already emits
            // "1.0" for integral floats, so this is belt and braces).
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses the TOML subset emitted by [`to_toml`] (plus inline tables,
/// literal strings, comments and multi-line arrays) into a value tree.
///
/// # Errors
///
/// Returns [`Error::Config`] with a line-numbered reason for syntax the
/// subset does not cover (dates, dotted inline keys, heterogeneous
/// object/scalar arrays).
pub fn parse_toml(text: &str) -> Result<Value> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
    };
    let mut root = Value::Object(Map::new());
    // Path of the section currently being filled; key/value lines resolve
    // against it (descending into the newest element of arrays of tables).
    let mut section: Vec<String> = Vec::new();
    loop {
        p.skip_trivia(true);
        if p.at_end() {
            break;
        }
        if p.peek() == Some('[') {
            p.bump();
            let array = p.peek() == Some('[');
            if array {
                p.bump();
            }
            let path = p.parse_dotted_path()?;
            p.expect(']')?;
            if array {
                p.expect(']')?;
            }
            p.expect_line_end()?;
            open_section(&mut root, &path, array).map_err(|reason| p.err(&reason))?;
            section = path;
        } else {
            let key = p.parse_key()?;
            p.skip_trivia(false);
            p.expect('=')?;
            p.skip_trivia(false);
            let value = p.parse_value()?;
            p.expect_line_end()?;
            let table = resolve_section(&mut root, &section).map_err(|reason| p.err(&reason))?;
            if table.contains_key(&key) {
                return Err(p.err(&format!("duplicate key {key:?}")));
            }
            table.insert(key, value);
        }
    }
    Ok(root)
}

/// Creates (or re-opens) the table a `[header]` names; for `[[header]]`
/// appends a fresh element to the array of tables.
fn open_section(root: &mut Value, path: &[String], array: bool) -> std::result::Result<(), String> {
    let mut cur = root;
    let last_idx = path.len() - 1;
    for (i, seg) in path.iter().enumerate() {
        let map = match cur {
            Value::Object(m) => m,
            _ => return Err(format!("{seg:?} is not a table")),
        };
        let wants_array = array && i == last_idx;
        if !map.contains_key(seg.as_str()) {
            let fresh = if wants_array {
                Value::Array(Vec::new())
            } else {
                Value::Object(Map::new())
            };
            map.insert(seg.clone(), fresh);
        }
        let entry = map.get_mut(seg).expect("just inserted");
        if wants_array {
            match entry {
                Value::Array(items) => {
                    items.push(Value::Object(Map::new()));
                    cur = items.last_mut().expect("just pushed");
                }
                _ => return Err(format!("{seg:?} is not an array of tables")),
            }
        } else {
            cur = match entry {
                Value::Object(_) => entry,
                Value::Array(items) => items
                    .last_mut()
                    .ok_or_else(|| format!("{seg:?} is an empty array of tables"))?,
                _ => return Err(format!("{seg:?} is not a table")),
            };
        }
    }
    Ok(())
}

/// Walks to the table the current section names, descending into the
/// newest element of any array of tables on the way.
fn resolve_section<'v>(
    root: &'v mut Value,
    path: &[String],
) -> std::result::Result<&'v mut Map, String> {
    let mut cur = root;
    for seg in path {
        let map = match cur {
            Value::Object(m) => m,
            _ => return Err(format!("{seg:?} is not a table")),
        };
        let entry = map
            .get_mut(seg)
            .ok_or_else(|| format!("section {seg:?} vanished"))?;
        cur = match entry {
            Value::Object(_) => entry,
            Value::Array(items) => items
                .last_mut()
                .ok_or_else(|| format!("{seg:?} is an empty array of tables"))?,
            _ => return Err(format!("{seg:?} is not a table")),
        };
    }
    match cur {
        Value::Object(m) => Ok(m),
        _ => Err("section is not a table".into()),
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn line(&self) -> usize {
        1 + self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count()
    }

    fn err(&self, reason: &str) -> Error {
        Error::Config {
            reason: format!("config file line {}: {reason}", self.line()),
        }
    }

    /// Skips spaces/tabs and comments; with `newlines` also skips blank
    /// lines (used between top-level items and inside arrays).
    fn skip_trivia(&mut self, newlines: bool) {
        loop {
            match self.peek() {
                Some(' ') | Some('\t') => {
                    self.bump();
                }
                Some('\r') | Some('\n') if newlines => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        self.skip_trivia(false);
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!(
                "expected {c:?}, found {:?}",
                self.peek().map(String::from).unwrap_or_default()
            )))
        }
    }

    fn expect_line_end(&mut self) -> Result<()> {
        self.skip_trivia(false);
        match self.peek() {
            None | Some('\n') => Ok(()),
            Some('\r') => Ok(()),
            Some(c) => Err(self.err(&format!("unexpected {c:?} after value"))),
        }
    }

    fn parse_dotted_path(&mut self) -> Result<Vec<String>> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_trivia(false);
            if self.peek() == Some('.') {
                self.bump();
                path.push(self.parse_key()?);
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_key(&mut self) -> Result<String> {
        self.skip_trivia(false);
        match self.peek() {
            Some('"') => self.parse_basic_string(),
            Some('\'') => self.parse_literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut key = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        key.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(key)
            }
            other => Err(self.err(&format!("expected a key, found {other:?}"))),
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_trivia(false);
        match self.peek() {
            Some('"') => self.parse_basic_string().map(Value::String),
            Some('\'') => self.parse_literal_string().map(Value::String),
            Some('[') => self.parse_array(),
            Some('{') => self.parse_inline_table(),
            Some('t') | Some('f') | Some('n') | Some('i') | Some('+') | Some('-') => {
                self.parse_scalar_token()
            }
            Some(c) if c.is_ascii_digit() => self.parse_scalar_token(),
            other => Err(self.err(&format!("expected a value, found {other:?}"))),
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect('[')?;
        let mut items = Vec::new();
        loop {
            self.skip_trivia(true);
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia(true);
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                other => return Err(self.err(&format!("expected ',' or ']', found {other:?}"))),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value> {
        self.expect('{')?;
        let mut map = Map::new();
        loop {
            self.skip_trivia(true);
            if self.peek() == Some('}') {
                self.bump();
                return Ok(Value::Object(map));
            }
            let key = self.parse_key()?;
            self.expect('=')?;
            self.skip_trivia(false);
            let value = self.parse_value()?;
            if map.contains_key(&key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            map.insert(key, value);
            self.skip_trivia(true);
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {}
                other => return Err(self.err(&format!("expected ',' or '}}', found {other:?}"))),
            }
        }
    }

    fn parse_basic_string(&mut self) -> Result<String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err("unterminated string")),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('u') | Some('U') => {
                        let digits: String = (0..4).filter_map(|_| self.bump()).collect();
                        let code = u32::from_str_radix(&digits, 16)
                            .map_err(|_| self.err("bad \\u escape"))?;
                        s.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                    }
                    other => return Err(self.err(&format!("unknown escape {other:?}"))),
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String> {
        self.expect('\'')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err("unterminated string")),
                Some('\'') => return Ok(s),
                Some(c) => s.push(c),
            }
        }
    }

    /// Booleans, integers, floats, `inf`/`nan` — anything written as a
    /// bare word.
    fn parse_scalar_token(&mut self) -> Result<Value> {
        let mut tok = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.' | '_') {
                tok.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match tok.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            "inf" | "+inf" => return Ok(Value::Number(Number::from_f64(f64::INFINITY))),
            "-inf" => return Ok(Value::Number(Number::from_f64(f64::NEG_INFINITY))),
            "nan" | "+nan" | "-nan" => return Ok(Value::Number(Number::from_f64(f64::NAN))),
            _ => {}
        }
        let digits: String = tok.chars().filter(|&c| c != '_').collect();
        let is_float = digits.contains('.') || digits.contains('e') || digits.contains('E');
        if is_float {
            let v: f64 = digits
                .parse()
                .map_err(|_| self.err(&format!("bad number {tok:?}")))?;
            return Ok(Value::Number(Number::from_f64(v)));
        }
        if let Some(rest) = digits.strip_prefix('-') {
            let v: i64 = rest
                .parse::<i64>()
                .map(|v| -v)
                .map_err(|_| self.err(&format!("bad number {tok:?}")))?;
            return Ok(Value::Number(Number::from_i64(v)));
        }
        let unsigned = digits.strip_prefix('+').unwrap_or(&digits);
        let v: u64 = unsigned
            .parse()
            .map_err(|_| self.err(&format!("bad number {tok:?}")))?;
        Ok(Value::Number(Number::from_u64(v)))
    }
}

// ---------------------------------------------------------------------------
// Merge + typed entry points
// ---------------------------------------------------------------------------

/// Deep-merges `overlay` over `base`: tables merge key-by-key (overlay
/// wins), everything else — scalars, arrays, mismatched kinds — is
/// replaced wholesale by the overlay.
fn merge_values(base: &Value, overlay: &Value) -> Value {
    match (base, overlay) {
        (Value::Object(b), Value::Object(o)) => {
            let mut out = b.clone();
            for (k, v) in o.iter() {
                let merged = match out.get(k) {
                    Some(bv) => merge_values(bv, v),
                    None => v.clone(),
                };
                out.insert(k.clone(), merged);
            }
            Value::Object(out)
        }
        _ => overlay.clone(),
    }
}

/// Reads a config file: checks its `schema_version`, deserializes the tree
/// that `complete` builds from the file (filling in defaults), and warns
/// on stderr about every key the file sets that the config does not carry.
/// Returns the config together with those keys' paths, e.g.
/// `autoscale.warmup` or `deployments[0].serve.chunk_tokens`.
///
/// A file declaring a `schema_version` newer than
/// [`CONFIG_SCHEMA_VERSION`] is rejected. An unknown key, at any depth, is
/// only a warning, so files written against older schemas stay loadable.
///
/// # Errors
///
/// Returns [`Error::Config`] for syntax errors, a bad `schema_version` or
/// a tree the config type cannot deserialize.
pub(crate) fn load<T: Serialize + Deserialize>(
    text: &str,
    what: &str,
    complete: impl FnOnce(&Value) -> Value,
) -> Result<(T, Vec<String>)> {
    let file = parse_toml(text)?;
    if let Some(v) = file.get("schema_version") {
        match v.as_u64() {
            Some(n) if n <= CONFIG_SCHEMA_VERSION => {}
            Some(n) => {
                return Err(Error::Config {
                    reason: format!(
                        "{what}: schema_version {n} is newer than the supported \
                         {CONFIG_SCHEMA_VERSION}"
                    ),
                })
            }
            None => {
                return Err(Error::Config {
                    reason: format!("{what}: schema_version must be a non-negative integer"),
                })
            }
        }
    }
    let cfg = T::deserialize_value(&complete(&file)).map_err(|e| Error::Config {
        reason: format!("{what}: {e}"),
    })?;
    let mut ignored = Vec::new();
    unknown_keys(
        &file,
        &cfg.serialize_value(),
        &mut String::new(),
        &mut ignored,
    );
    ignored.retain(|key| key != "schema_version");
    for key in &ignored {
        eprintln!("warning: {what}: ignoring unknown key `{key}`");
    }
    Ok((cfg, ignored))
}

/// A (possibly partial) ServeConfig file's tree deep-merged over the
/// paper's default operating point ([`ServeConfig::opt_13b_sharegpt`] under
/// [`SystemKind::WindServe`]).
pub(crate) fn with_serve_defaults(file: &Value) -> Value {
    let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe).serialize_value();
    merge_values(&base, file)
}

/// Appends to `out` the path of every key in `file` that `known` lacks (or
/// holds as `null`), walking tables key by key and arrays index by index.
fn unknown_keys(file: &Value, known: &Value, path: &mut String, out: &mut Vec<String>) {
    let len = path.len();
    match (file, known) {
        (Value::Object(file), Value::Object(known)) => {
            for (k, v) in file.iter() {
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(k);
                match known.get(k) {
                    Some(kv) if !kv.is_null() => unknown_keys(v, kv, path, out),
                    _ => out.push(path.clone()),
                }
                path.truncate(len);
            }
        }
        (Value::Array(file), Value::Array(known)) => {
            for (i, (v, kv)) in file.iter().zip(known).enumerate() {
                path.push_str(&format!("[{i}]"));
                unknown_keys(v, kv, path, out);
                path.truncate(len);
            }
        }
        _ => {}
    }
}

impl ServeConfig {
    /// Renders this config as a TOML document that [`ServeConfig::from_toml`]
    /// reads back bit-for-bit. `None` fields are omitted.
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{ServeConfig, SystemKind};
    ///
    /// let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    /// let text = cfg.to_toml();
    /// assert_eq!(ServeConfig::from_toml(&text).unwrap(), cfg);
    /// ```
    pub fn to_toml(&self) -> String {
        let body = to_toml(self).expect("a ServeConfig always serializes to a table");
        format!("schema_version = {CONFIG_SCHEMA_VERSION}\n{body}")
    }

    /// Reads a (possibly partial) TOML config. Fields the file omits keep
    /// the values of the paper's default operating point
    /// ([`ServeConfig::opt_13b_sharegpt`] under [`SystemKind::WindServe`]),
    /// so a file can state only what it changes:
    ///
    /// ```
    /// use windserve::ServeConfig;
    ///
    /// let cfg = ServeConfig::from_toml("prefill_replicas = 2\nlong_context_tokens = 1024\n").unwrap();
    /// assert_eq!(cfg.prefill_replicas, 2);
    /// assert_eq!(cfg.long_context_tokens, 1024);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for syntax errors, structural mismatches,
    /// or a merged config that fails [`ServeConfig::validate`].
    pub fn from_toml(text: &str) -> Result<ServeConfig> {
        let (cfg, _) = load::<ServeConfig>(text, "config file", with_serve_defaults)?;
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AutoscaleConfig, OverloadConfig};
    use windserve_faults::FaultPlan;
    use windserve_sim::SimDuration;
    use windserve_trace::TraceMode;

    #[test]
    fn default_config_round_trips() {
        for cfg in [
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
            ServeConfig::opt_66b_sharegpt(SystemKind::DistServe),
            ServeConfig::llama2_13b_longbench(SystemKind::VllmColocated),
        ] {
            let text = cfg.to_toml();
            let back = ServeConfig::from_toml(&text).unwrap();
            assert_eq!(back, cfg, "round-trip changed the config:\n{text}");
        }
    }

    #[test]
    fn optional_subsystems_round_trip() {
        let cfg = ServeConfig {
            autoscale: Some(AutoscaleConfig::default()),
            overload: Some(OverloadConfig::default()),
            trace: TraceMode::Ring(1024),
            faults: Some(FaultPlan::chaos(1, SimDuration::from_secs(30), 0x5EED)),
            sample_interval: Some(SimDuration::from_millis(100)),
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        cfg.validate().unwrap();
        let text = cfg.to_toml();
        let back = ServeConfig::from_toml(&text).unwrap();
        assert_eq!(back, cfg, "round-trip changed the config:\n{text}");
    }

    #[test]
    fn prefix_cache_and_scenario_round_trip() {
        use crate::config::{PrefixCacheConfig, WorkloadSpec};
        use windserve_workload::{Scenario, SessionsScenario};
        let scenario = Scenario::sessions(
            SessionsScenario::builder()
                .sessions(80)
                .session_rate(3.0)
                .turns(2, 4)
                .mean_think_secs(12.5)
                .followup_tokens(32, 96)
                .build()
                .unwrap(),
        );
        let cfg = ServeConfig {
            prefix_cache: Some(PrefixCacheConfig {
                capacity_tokens: 50_000,
                ttl: SimDuration::from_secs(120),
                affinity: false,
            }),
            workload: Some(WorkloadSpec { scenario }),
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        cfg.validate().unwrap();
        let text = cfg.to_toml();
        assert!(text.contains("[prefix_cache]"), "{text}");
        assert!(text.contains("[workload"), "{text}");
        let back = ServeConfig::from_toml(&text).unwrap();
        assert_eq!(back, cfg, "round-trip changed the config:\n{text}");
        // The scenario survives well enough to regenerate the same trace.
        let a = cfg.workload.as_ref().unwrap().scenario.generate(9).unwrap();
        let b = back
            .workload
            .as_ref()
            .unwrap()
            .scenario
            .generate(9)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn emitted_config_declares_the_schema_version() {
        let text = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe).to_toml();
        let first = text.lines().next().unwrap();
        assert_eq!(first, format!("schema_version = {CONFIG_SCHEMA_VERSION}"));
    }

    #[test]
    fn newer_schema_version_is_rejected() {
        let err = ServeConfig::from_toml("schema_version = 999\n").unwrap_err();
        assert!(err.to_string().contains("schema_version 999"));
        let err = ServeConfig::from_toml("schema_version = \"one\"\n").unwrap_err();
        assert!(err.to_string().contains("non-negative integer"));
    }

    #[test]
    fn missing_and_older_schema_versions_load() {
        // Files written before versioning declare nothing.
        assert!(ServeConfig::from_toml("long_context_tokens = 256\n").is_ok());
        // The current version loads, trivially.
        let text = format!("schema_version = {CONFIG_SCHEMA_VERSION}\nlong_context_tokens = 256\n");
        assert_eq!(
            ServeConfig::from_toml(&text).unwrap().long_context_tokens,
            256
        );
    }

    #[test]
    fn unknown_top_level_keys_warn_but_load() {
        let cfg = ServeConfig::from_toml("retired_knob = 7\nlong_context_tokens = 128\n").unwrap();
        assert_eq!(cfg.long_context_tokens, 128);
        // A key an older schema had (and this one dropped) is ignored.
        let cfg = ServeConfig::from_toml("shards = 4\nlong_context_tokens = 128\n").unwrap();
        assert_eq!(
            cfg,
            ServeConfig::from_toml("long_context_tokens = 128\n").unwrap()
        );
    }

    /// Loads `text` as a ServeConfig file, returning the ignored keys.
    fn load_serve(text: &str) -> (ServeConfig, Vec<String>) {
        load(text, "config file", with_serve_defaults).unwrap()
    }

    #[test]
    fn removed_keys_load_and_are_reported_by_path() {
        let autoscale = "[autoscale]\nmin_prefill = 1\nmin_decode = 1\n\
                         up_ttft_fraction = 0.8\ndown_ttft_fraction = 0.2\n";
        let prefix = "[prefix_cache]\ncapacity_tokens = 4096\nttl = 5000000\naffinity = true\n";
        let cases = [
            (
                format!("{autoscale}warmup = 3000000\n"),
                autoscale.to_string(),
                "autoscale.warmup",
            ),
            (
                format!("{prefix}min_hit_tokens = 64\n"),
                prefix.to_string(),
                "prefix_cache.min_hit_tokens",
            ),
            (
                "schema_version = 1\nchunk_tokens = 256\n".to_string(),
                "schema_version = 1\n".to_string(),
                "chunk_tokens",
            ),
        ];
        for (with, without, key) in cases {
            let (cfg, ignored) = load_serve(&with);
            assert_eq!(ignored, [key]);
            assert_eq!(cfg, ServeConfig::from_toml(&with).unwrap());
            assert_eq!(cfg, ServeConfig::from_toml(&without).unwrap());
            assert!(load_serve(&without).1.is_empty());
        }
        // A file the current schema wrote reports nothing.
        let cfg = ServeConfig {
            autoscale: Some(AutoscaleConfig::default()),
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        assert!(load_serve(&cfg.to_toml()).1.is_empty());
    }

    #[test]
    fn partial_file_inherits_defaults() {
        let cfg = ServeConfig::from_toml(
            "prefill_replicas = 2\ndecode_replicas = 1\nlong_context_tokens = 1024\n",
        )
        .unwrap();
        let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        assert_eq!(cfg.prefill_replicas, 2);
        assert_eq!(cfg.long_context_tokens, 1024);
        assert_eq!(cfg.model, base.model);
        assert_eq!(cfg.slo, base.slo);
    }

    #[test]
    fn enum_sections_parse() {
        // A data-carrying enum lands as a one-key section.
        let cfg = ServeConfig::from_toml("[trace]\nRing = 512\n").unwrap();
        assert_eq!(cfg.trace, TraceMode::Ring(512));
        // Unit variants are plain strings.
        let cfg = ServeConfig::from_toml("system = \"DistServe\"\n").unwrap();
        assert_eq!(cfg.system, SystemKind::DistServe);
    }

    #[test]
    fn invalid_merged_config_is_rejected() {
        // 5 + 5 replicas of 2 GPUs each exceed the 8-GPU testbed.
        let err =
            ServeConfig::from_toml("prefill_replicas = 5\ndecode_replicas = 5\n").unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn parser_covers_handwritten_toml() {
        let text = r#"
# comment
title = 'literal'
[a]
x = [1, 2,
     3]        # multi-line array
inline = { p = 1.5, q = "s" }
[[a.items]]
n = 1
[[a.items]]
n = -2
neg = -inf
"#;
        let v = parse_toml(text).unwrap();
        assert_eq!(v.get("title").and_then(Value::as_str), Some("literal"));
        let a = v.get("a").unwrap();
        assert_eq!(a.get("x").and_then(Value::as_array).map(Vec::len), Some(3));
        assert_eq!(
            a.get("inline")
                .and_then(|t| t.get("p"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        let items = a.get("items").and_then(Value::as_array).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("n").and_then(Value::as_i64), Some(-2));
        assert_eq!(
            items[1].get("neg").and_then(Value::as_f64),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_toml("x = 1\ny = @\n").unwrap_err();
        let Error::Config { reason } = err else {
            panic!("wrong error kind");
        };
        assert!(reason.contains("line 2"), "{reason}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(parse_toml("x = 1\nx = 2\n").is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any config the builder accepts survives a TOML round trip
        /// bit-for-bit — floats, optional sub-configs, enum payloads, all
        /// of it.
        #[test]
        fn any_valid_config_round_trips(
            system_ix in 0usize..5,
            prefill_replicas in 1usize..3,
            decode_replicas in 1usize..3,
            long_context in 1u32..4096,
            ring in 64u32..1024,
            thrd_us in 0u64..2_000_000,
            with_autoscale in proptest::bool::ANY,
            with_overload in proptest::bool::ANY,
            with_faults in proptest::bool::ANY,
            trace_ix in 0usize..3,
            shed_factor in 0.5f64..4.0,
        ) {
            let system = [
                SystemKind::WindServe,
                SystemKind::WindServeNoSplit,
                SystemKind::WindServeNoResche,
                SystemKind::DistServe,
                SystemKind::VllmColocated,
            ][system_ix];
            let cfg = ServeConfig {
                system,
                prefill_replicas,
                decode_replicas,
                long_context_tokens: long_context,
                trace: match trace_ix {
                    0 => TraceMode::Off,
                    1 => TraceMode::Ring(ring as usize),
                    _ => TraceMode::Full,
                },
                // 0 doubles as "unset" so the Option field is exercised both
                // ways without an Option strategy.
                dispatch_threshold: (thrd_us >= 1_000).then(|| SimDuration::from_micros(thrd_us)),
                autoscale: with_autoscale.then(AutoscaleConfig::default),
                overload: with_overload.then(|| OverloadConfig {
                    shed_ttft_factor: shed_factor,
                    ..OverloadConfig::default()
                }),
                faults: with_faults
                    .then(|| FaultPlan::chaos(0, SimDuration::from_secs(20), u64::from(ring))),
                ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
            };
            // Some random placements exceed the 8-GPU node; skip those.
            if cfg.validate().is_err() {
                return;
            }
            let text = cfg.to_toml();
            let back = ServeConfig::from_toml(&text).unwrap();
            proptest::prop_assert_eq!(back, cfg);
        }
    }

    #[test]
    fn merge_replaces_arrays_wholesale() {
        let base = parse_toml("xs = [1, 2, 3]\n[t]\na = 1\nb = 2\n").unwrap();
        let overlay = parse_toml("xs = [9]\n[t]\nb = 5\n").unwrap();
        let merged = merge_values(&base, &overlay);
        assert_eq!(
            merged.get("xs").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );
        let t = merged.get("t").unwrap();
        assert_eq!(t.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(t.get("b").and_then(Value::as_u64), Some(5));
    }
}
