//! `check-trace` — structural validator for `tkdc-trace/v2` JSONL.
//!
//! CI runs this over the trace streams `--span-out FILE.jsonl` writes
//! (from `tkdc train`/`classify`/`explain` and the serve daemon) so a
//! schema drift (renamed key, wrong type, new prune cause or stage
//! nobody documented) fails the build instead of silently breaking
//! downstream trace consumers. Every line is keyed on its `kind`:
//! `span` records (stage enter/exit) and `query` records (one sampled
//! query's bound refinement) interleave in one file, and any other
//! kind is an error. Span records additionally get file-level checks:
//! balanced enter/exit phases and non-decreasing timestamps per track.
//! The retired `tkdc-trace/v1` query lines fail with a named error. The
//! workspace vendors no JSON crate, so this carries its own minimal
//! recursive-descent parser — strict enough for validation (it rejects
//! trailing garbage, unterminated strings, and malformed numbers), with
//! no serialization half.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep their file order.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (validation only needs f64 precision).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Surrogates only arise for astral-plane
                            // characters, which our own writer never
                            // escapes; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input came from a
                    // &str, so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Stage names a `tkdc-trace/v2` span record may carry.
///
/// Mirrors `STAGES` in `crates/obs/src/span.rs`; xtask is
/// dependency-free by design, so the closed vocabulary is duplicated
/// rather than imported. CI runs `check-trace` over real `--span-out`
/// output, so a one-sided edit of either list fails the build there.
const SPAN_STAGES: &[&str] = &[
    "classify.dispatch",
    "classify.leaf_sum",
    "classify.reassembly",
    "classify.traversal",
    "fit.bootstrap",
    "fit.threshold",
    "fit.tree_build",
    "serve.exec",
    "serve.request",
];

/// Prune causes a query record may carry.
const CAUSES: &[&str] = &[
    "threshold_high",
    "threshold_low",
    "tolerance",
    "exhausted",
    "grid",
    "straddle",
];

fn check_uint(obj: &Json, key: &str, errs: &mut Vec<String>) {
    match obj.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {} // tkdc-lint: allow(float-eq)
        Some(other) => errs.push(format!(
            "`{key}` must be a non-negative integer, got {}",
            other.type_name()
        )),
        None => errs.push(format!("missing key `{key}`")),
    }
}

fn check_bound(obj: &Json, key: &str, errs: &mut Vec<String>) {
    match obj.get(key) {
        Some(Json::Num(_) | Json::Null) => {}
        Some(other) => errs.push(format!(
            "`{key}` must be a number or null, got {}",
            other.type_name()
        )),
        None => errs.push(format!("missing key `{key}`")),
    }
}

/// Validates the fields of a span record (schema and kind already
/// checked).
fn validate_span_fields(value: &Json, errs: &mut Vec<String>) {
    match value.get("ph") {
        Some(Json::Str(p)) if p == "B" || p == "E" => {}
        Some(Json::Str(p)) => errs.push(format!("`ph` must be `B` or `E`, got `{p}`")),
        Some(other) => errs.push(format!("`ph` must be a string, got {}", other.type_name())),
        None => errs.push("missing key `ph`".to_string()),
    }
    match value.get("name") {
        Some(Json::Str(n)) if SPAN_STAGES.contains(&n.as_str()) => {}
        Some(Json::Str(n)) => errs.push(format!("unknown stage `{n}`")),
        Some(other) => errs.push(format!(
            "`name` must be a string, got {}",
            other.type_name()
        )),
        None => errs.push("missing key `name`".to_string()),
    }
    check_uint(value, "tid", errs);
    check_uint(value, "ts_us", errs);
}

/// One parsed `tkdc-trace/v2` span event, for the file-level checks.
struct SpanEvent {
    tid: u64,
    ts_us: u64,
    is_enter: bool,
}

/// Extracts the file-level fields from an already-validated span line
/// (`None` for query records).
fn span_event(line: &str) -> Option<SpanEvent> {
    let value = parse_json(line).ok()?;
    match value.get("kind") {
        Some(Json::Str(k)) if k == "span" => {}
        _ => return None,
    }
    let uint = |key: &str| match value.get(key) {
        // CAST: validate_span_line guaranteed a non-negative integer.
        Some(Json::Num(n)) => Some(*n as u64),
        _ => None,
    };
    Some(SpanEvent {
        tid: uint("tid")?,
        ts_us: uint("ts_us")?,
        is_enter: matches!(value.get("ph"), Some(Json::Str(p)) if p == "B"),
    })
}

/// Validates one `tkdc-trace/v2` line, keyed on its `kind` (`span` or
/// `query`). Returns every problem found, empty when the line is valid.
pub fn validate_trace_line(line: &str) -> Vec<String> {
    let value = match parse_json(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if !matches!(value, Json::Obj(_)) {
        return vec![format!(
            "line must be a JSON object, got {}",
            value.type_name()
        )];
    }
    let mut errs = Vec::new();
    match value.get("schema") {
        Some(Json::Str(s)) if s == "tkdc-trace/v2" => {}
        Some(Json::Str(s)) if s == "tkdc-trace/v1" => {
            return vec![
                "`tkdc-trace/v1` is retired: query records are `tkdc-trace/v2` lines \
                 with `\"kind\":\"query\"`"
                    .to_string(),
            ];
        }
        Some(Json::Str(s)) => errs.push(format!("unknown schema `{s}`")),
        Some(other) => errs.push(format!(
            "`schema` must be a string, got {}",
            other.type_name()
        )),
        None => errs.push("missing key `schema`".to_string()),
    }
    match value.get("kind") {
        Some(Json::Str(k)) if k == "span" => validate_span_fields(&value, &mut errs),
        Some(Json::Str(k)) if k == "query" => validate_query_fields(&value, &mut errs),
        Some(Json::Str(k)) => errs.push(format!("unknown kind `{k}` (expected `span` or `query`)")),
        Some(other) => errs.push(format!(
            "`kind` must be a string, got {}",
            other.type_name()
        )),
        None => errs.push("missing key `kind`".to_string()),
    }
    errs
}

/// Validates the fields of a query record (schema and kind already
/// checked).
fn validate_query_fields(value: &Json, errs: &mut Vec<String>) {
    check_uint(value, "query", errs);
    for key in ["t_lo", "t_hi", "lower", "upper"] {
        check_bound(value, key, errs);
    }
    match value.get("cause") {
        Some(Json::Str(c)) if CAUSES.contains(&c.as_str()) => {}
        Some(Json::Str(c)) => errs.push(format!("unknown cause `{c}`")),
        Some(other) => errs.push(format!(
            "`cause` must be a string, got {}",
            other.type_name()
        )),
        None => errs.push("missing key `cause`".to_string()),
    }
    for key in ["nodes_expanded", "kernel_evals", "bound_evals"] {
        check_uint(value, key, errs);
    }
    match value.get("steps") {
        Some(Json::Arr(steps)) => {
            for (i, step) in steps.iter().enumerate() {
                if !matches!(step, Json::Obj(_)) {
                    errs.push(format!("steps[{i}] must be an object"));
                    continue;
                }
                let mut step_errs = Vec::new();
                check_uint(step, "nodes", &mut step_errs);
                check_uint(step, "kevals", &mut step_errs);
                check_bound(step, "lower", &mut step_errs);
                check_bound(step, "upper", &mut step_errs);
                errs.extend(step_errs.into_iter().map(|e| format!("steps[{i}]: {e}")));
            }
        }
        Some(other) => errs.push(format!(
            "`steps` must be an array, got {}",
            other.type_name()
        )),
        None => errs.push("missing key `steps`".to_string()),
    }
}

/// Validates a whole JSONL file's content. Returns `(lines, report)`:
/// the number of trace lines checked and, when anything failed, a
/// rustc-style diagnostic per problem.
pub fn check_trace_text(path: &str, text: &str) -> (usize, Vec<String>) {
    let mut checked = 0usize;
    let mut report = Vec::new();
    // Per-track running state for span records: open-span depth and
    // the last timestamp seen. Tracks are few; linear scan suffices.
    let mut tracks: Vec<(u64, i64, u64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        checked += 1;
        let errs = validate_trace_line(line);
        let valid = errs.is_empty();
        for err in errs {
            let mut msg = String::new();
            let _ = write!(msg, "{path}:{}: {err}", i + 1);
            report.push(msg);
        }
        let Some(ev) = (if valid { span_event(line) } else { None }) else {
            continue;
        };
        let track = match tracks.iter_mut().find(|(tid, _, _)| *tid == ev.tid) {
            Some(t) => t,
            None => {
                tracks.push((ev.tid, 0, 0));
                // INVARIANT: just pushed, the vec is non-empty.
                tracks.last_mut().unwrap()
            }
        };
        if ev.ts_us < track.2 {
            report.push(format!(
                "{path}:{}: timestamps go backwards on track {} ({} after {})",
                i + 1,
                ev.tid,
                ev.ts_us,
                track.2
            ));
        }
        track.2 = ev.ts_us;
        track.1 += if ev.is_enter { 1 } else { -1 };
        if track.1 < 0 {
            report.push(format!(
                "{path}:{}: exit without a matching enter on track {}",
                i + 1,
                ev.tid
            ));
            track.1 = 0;
        }
    }
    for (tid, depth, _) in tracks {
        if depth > 0 {
            report.push(format!("{path}: {depth} unclosed span(s) on track {tid}"));
        }
    }
    if checked == 0 {
        report.push(format!("{path}: no trace lines found"));
    }
    (checked, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str =
        "{\"schema\":\"tkdc-trace/v2\",\"kind\":\"query\",\"query\":3,\"t_lo\":1.5e-3,\
                        \"t_hi\":1.5e-3,\"cause\":\"threshold_high\",\"lower\":2e-3,\
                        \"upper\":2.5e-3,\"nodes_expanded\":2,\"kernel_evals\":16,\
                        \"bound_evals\":6,\"steps\":[{\"nodes\":1,\"kevals\":0,\
                        \"lower\":0e0,\"upper\":5e-1}]}";

    #[test]
    fn parser_handles_scalars_and_nesting() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" -1.5e3 ").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            parse_json("\"a\\\"b\\u0041\"").unwrap(),
            Json::Str("a\"bA".to_string())
        );
        let v = parse_json("{\"a\":[1,true,{}],\"b\":null}").unwrap();
        assert!(matches!(v.get("a"), Some(Json::Arr(items)) if items.len() == 3));
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "\"open", "tru"] {
            assert!(parse_json(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn valid_line_passes() {
        assert!(validate_trace_line(GOOD).is_empty());
        // Null bounds (grid prune, no upper) are valid.
        let grid = GOOD.replace("\"upper\":2.5e-3", "\"upper\":null");
        assert!(validate_trace_line(&grid).is_empty());
    }

    #[test]
    fn invalid_lines_are_reported() {
        let wrong_schema = GOOD.replace("tkdc-trace/v2", "tkdc-trace/v9");
        assert!(validate_trace_line(&wrong_schema)
            .iter()
            .any(|e| e.contains("unknown schema")));
        let bad_cause = GOOD.replace("threshold_high", "vibes");
        assert!(validate_trace_line(&bad_cause)
            .iter()
            .any(|e| e.contains("unknown cause")));
        let missing = GOOD.replace("\"bound_evals\":6,", "");
        assert!(validate_trace_line(&missing)
            .iter()
            .any(|e| e.contains("missing key `bound_evals`")));
        let bad_step = GOOD.replace("\"kevals\":0", "\"kevals\":-1");
        assert!(validate_trace_line(&bad_step)
            .iter()
            .any(|e| e.contains("steps[0]")));
        assert!(!validate_trace_line("[]").is_empty());
    }

    #[test]
    fn retired_v1_lines_fail_with_a_named_error() {
        let v1 = GOOD.replace("\"tkdc-trace/v2\",\"kind\":\"query\"", "\"tkdc-trace/v1\"");
        let errs = validate_trace_line(&v1);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("`tkdc-trace/v1` is retired"), "{errs:?}");
    }

    #[test]
    fn unknown_or_missing_kind_is_rejected() {
        // A query-shaped line under a kind nobody emits.
        let metric = GOOD.replace("\"kind\":\"query\"", "\"kind\":\"metric\"");
        assert!(validate_trace_line(&metric)
            .iter()
            .any(|e| e.contains("unknown kind `metric`")));
        let untagged = GOOD.replace("\"kind\":\"query\",", "");
        assert!(validate_trace_line(&untagged)
            .iter()
            .any(|e| e.contains("missing key `kind`")));
        // Kinds do not borrow each other's fields.
        let as_span = GOOD.replace("\"kind\":\"query\"", "\"kind\":\"span\"");
        assert!(validate_trace_line(&as_span)
            .iter()
            .any(|e| e.contains("missing key `ph`")));
    }

    #[test]
    fn removed_group_cause_is_rejected() {
        // `group` named the deleted dual-tree driver's wholesale labels
        // and `estimated` the deleted hbe backend's fixed-budget answers;
        // no producer emits either, so a query record carrying one is
        // invalid.
        for cause in ["group", "estimated"] {
            let line = GOOD.replace("threshold_high", cause);
            let needle = format!("unknown cause `{cause}`");
            assert!(validate_trace_line(&line)
                .iter()
                .any(|e| e.contains(&needle)));
        }
    }

    #[test]
    fn file_check_counts_lines_and_flags_empties() {
        let text = format!("{GOOD}\n\n{GOOD}\n");
        let (n, report) = check_trace_text("t.jsonl", &text);
        assert_eq!(n, 2);
        assert!(report.is_empty());
        let (n, report) = check_trace_text("e.jsonl", "\n");
        assert_eq!(n, 0);
        assert_eq!(report.len(), 1);
    }

    // ---- tkdc-trace/v2 span records ----

    fn span(ph: &str, name: &str, tid: u64, ts: u64) -> String {
        format!(
            "{{\"schema\":\"tkdc-trace/v2\",\"kind\":\"span\",\"ph\":\"{ph}\",\
             \"name\":\"{name}\",\"tid\":{tid},\"ts_us\":{ts}}}"
        )
    }

    #[test]
    fn valid_span_lines_pass() {
        assert!(validate_trace_line(&span("B", "serve.request", 0, 10)).is_empty());
        assert!(validate_trace_line(&span("E", "classify.leaf_sum", 901, 20)).is_empty());
    }

    #[test]
    fn invalid_span_lines_are_reported() {
        let bad_stage = span("B", "classify.vibes", 0, 0);
        assert!(validate_trace_line(&bad_stage)
            .iter()
            .any(|e| e.contains("unknown stage")));
        let bad_ph = span("X", "serve.request", 0, 0);
        assert!(validate_trace_line(&bad_ph)
            .iter()
            .any(|e| e.contains("`ph` must be `B` or `E`")));
        let bad_kind = span("B", "serve.request", 0, 0).replace("\"span\"", "\"event\"");
        assert!(validate_trace_line(&bad_kind)
            .iter()
            .any(|e| e.contains("unknown kind")));
        let bad_tid = span("B", "serve.request", 0, 0).replace("\"tid\":0", "\"tid\":-1");
        assert!(validate_trace_line(&bad_tid)
            .iter()
            .any(|e| e.contains("`tid`")));
    }

    #[test]
    fn span_file_checks_balance_and_monotonic_timestamps() {
        // Balanced, nested, two tracks, interleaved: clean.
        let good = [
            span("B", "serve.request", 0, 0),
            span("B", "serve.exec", 0, 1),
            span("B", "classify.traversal", 7, 2),
            span("E", "classify.traversal", 7, 5),
            span("E", "serve.exec", 0, 6),
            span("E", "serve.request", 0, 8),
        ]
        .join("\n");
        let (n, report) = check_trace_text("s.jsonl", &good);
        assert_eq!(n, 6);
        assert!(report.is_empty(), "{report:?}");

        // Unclosed span at EOF.
        let unclosed = span("B", "serve.request", 0, 0);
        let (_, report) = check_trace_text("s.jsonl", &unclosed);
        assert!(report.iter().any(|e| e.contains("unclosed span")));

        // Exit before any enter.
        let orphan = span("E", "serve.request", 0, 0);
        let (_, report) = check_trace_text("s.jsonl", &orphan);
        assert!(report
            .iter()
            .any(|e| e.contains("without a matching enter")));

        // Timestamps must not go backwards within a track; other
        // tracks are independent timelines as far as ordering goes.
        let backwards = [
            span("B", "serve.request", 0, 10),
            span("E", "serve.request", 0, 4),
        ]
        .join("\n");
        let (_, report) = check_trace_text("s.jsonl", &backwards);
        assert!(report.iter().any(|e| e.contains("go backwards")));
    }

    #[test]
    fn interleaved_span_and_query_records_are_valid() {
        let text = format!(
            "{GOOD}\n{}\n{}\n",
            span("B", "classify.dispatch", 3, 1),
            span("E", "classify.dispatch", 3, 9)
        );
        let (n, report) = check_trace_text("m.jsonl", &text);
        assert_eq!(n, 3);
        assert!(report.is_empty(), "{report:?}");
    }

    /// The golden fixture pair under `tests/golden/` pins the span
    /// validator's fire/allow behaviour the same way the lint rules
    /// pin theirs.
    #[test]
    fn span_golden_fixtures_fire_and_allow() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        for (name, expect_clean) in [("trace_v2_allow", true), ("trace_v2_fire", false)] {
            let path = dir.join(format!("{name}.jsonl.golden"));
            // INVARIANT: a missing fixture is exactly what this
            // self-test exists to catch; panic with the path.
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
            let (n, report) = check_trace_text(name, &text);
            assert!(n > 0, "{name}: no lines checked");
            if expect_clean {
                assert!(report.is_empty(), "{name} must be clean, got {report:?}");
            } else {
                assert!(!report.is_empty(), "{name} must produce findings");
            }
        }
    }

    /// `trace_query_allow.jsonl.golden` holds one valid query record per
    /// prune cause, so a cause the engine can emit but the validator
    /// rejects (or a fixture line for a cause it no longer knows) fails
    /// here before it fails on real `--trace-sample` output.
    #[test]
    fn query_trace_golden_fixture_allows_every_cause() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/trace_query_allow.jsonl.golden");
        // INVARIANT: a missing fixture is exactly what this self-test
        // exists to catch; panic with the path.
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        let (n, report) = check_trace_text("trace_query_allow", &text);
        assert!(report.is_empty(), "fixture must be clean, got {report:?}");
        assert_eq!(n, CAUSES.len(), "one line per cause");
        for cause in CAUSES {
            let needle = format!("\"cause\":\"{cause}\"");
            assert!(text.contains(&needle), "no fixture line for `{cause}`");
        }
    }
}
