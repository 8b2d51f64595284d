//! The nine `tkdc-lint` rules.
//!
//! Every rule runs over a [`SourceModel`] (comments and string contents
//! already blanked) so matches are real code tokens. Each violation can be
//! silenced three ways, in order of preference:
//!
//! 1. fix the code (e.g. `total_cmp` instead of `partial_cmp().unwrap()`);
//! 2. a justification marker comment — `// INVARIANT:` (L2), `// SAFETY:`
//!    (L4), `// CAST:` (L5), `// ORDERING:` (L7), `// JOIN:` (L9) — on the
//!    same or the preceding line (L7/L9 also accept a contiguous comment
//!    block above the enclosing statement);
//! 3. a targeted suppression `// tkdc-lint: allow(<rule>)` on the same or
//!    the preceding line (works for every rule; use sparingly).
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | L1 `partial-cmp-unwrap` | no `partial_cmp(..).unwrap()/.expect(..)` — use `total_cmp` | everywhere |
//! | L2 `panic` | no `unwrap/expect/panic!/unreachable!/todo!/unimplemented!` without `// INVARIANT:` | library crates, non-test code |
//! | L3 `float-eq` | no `==`/`!=` against float operands | non-test code |
//! | L4 `unsafe` | every `unsafe` needs a `// SAFETY:` comment | everywhere |
//! | L5 `lossy-cast` | lossy numeric `as` casts need `// CAST:` | cast-checked crates, non-test code |
//! | L6 `std-sync-outside-facade` | no `std::sync`/`std::thread` outside the `tkdc-sync` facade | everywhere except `crates/sync` |
//! | L7 `relaxed-without-ordering-comment` | every `Ordering::Relaxed` needs an `// ORDERING:` justification | everywhere |
//! | L8 `static-mut` | no `static mut` globals | everywhere |
//! | L9 `spawn-without-join` | no discarded `thread::spawn` handle without `// JOIN:` | everywhere |

use crate::scan::SourceModel;
use std::path::Path;

/// Identifier and number of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// L1: `partial_cmp` chained into `unwrap`/`expect`.
    PartialCmpUnwrap,
    /// L2: panic-family call in library code without justification.
    Panic,
    /// L3: bit-exact float comparison.
    FloatEq,
    /// L4: `unsafe` without a `SAFETY:` comment.
    Unsafe,
    /// L5: lossy numeric cast without a `CAST:` comment.
    LossyCast,
    /// L6: `std::sync`/`std::thread` used outside the `tkdc-sync` facade.
    StdSyncOutsideFacade,
    /// L7: `Ordering::Relaxed` without an `ORDERING:` justification.
    RelaxedWithoutComment,
    /// L8: `static mut` global state.
    StaticMut,
    /// L9: `thread::spawn` whose `JoinHandle` is discarded.
    SpawnWithoutJoin,
}

impl Rule {
    /// Short kebab-case name used in diagnostics and allow markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PartialCmpUnwrap => "partial-cmp-unwrap",
            Rule::Panic => "panic",
            Rule::FloatEq => "float-eq",
            Rule::Unsafe => "unsafe",
            Rule::LossyCast => "lossy-cast",
            Rule::StdSyncOutsideFacade => "std-sync-outside-facade",
            Rule::RelaxedWithoutComment => "relaxed-without-ordering-comment",
            Rule::StaticMut => "static-mut",
            Rule::SpawnWithoutJoin => "spawn-without-join",
        }
    }

    /// The `L<n>` code used in diagnostics and allow markers.
    pub fn code(self) -> &'static str {
        match self {
            Rule::PartialCmpUnwrap => "L1",
            Rule::Panic => "L2",
            Rule::FloatEq => "L3",
            Rule::Unsafe => "L4",
            Rule::LossyCast => "L5",
            Rule::StdSyncOutsideFacade => "L6",
            Rule::RelaxedWithoutComment => "L7",
            Rule::StaticMut => "L8",
            Rule::SpawnWithoutJoin => "L9",
        }
    }
}

/// A single diagnostic produced by the pass.
#[derive(Debug)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Path as given to [`check_file`].
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based (char) column number.
    pub col: usize,
    /// Human-readable description of the problem.
    pub message: String,
    /// The offending source line, verbatim.
    pub snippet: String,
    /// Suggested remediation.
    pub help: &'static str,
}

impl Violation {
    /// Render in rustc's `error[..]` style.
    pub fn render(&self) -> String {
        format!(
            "error[{code}/{name}]: {msg}\n  --> {path}:{line}:{col}\n   | {snippet}\n   = help: {help}\n",
            code = self.rule.code(),
            name = self.rule.name(),
            msg = self.message,
            path = self.path,
            line = self.line,
            col = self.col,
            snippet = self.snippet.trim_end(),
            help = self.help,
        )
    }
}

/// What kind of source a file is; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileKind {
    /// Test/bench/example code: L2, L3 and L5 do not apply at all.
    pub is_test_code: bool,
    /// Library-crate source (L2 applies).
    pub is_library: bool,
    /// Numeric hot-path crate (L5 applies).
    pub cast_checked: bool,
    /// The `tkdc-sync` facade itself — the one place allowed to name
    /// `std::sync`/`std::thread` (L6 does not apply).
    pub sync_facade: bool,
}

/// Library crates whose non-test code must be panic-free (L2): every
/// workspace crate. Binary crates (`cli`, `bench`, `xtask`) are held to
/// the same bar — a justified `INVARIANT:` unwrap at the top of `main`
/// is cheap, and panics in tooling cost debugging time like anywhere
/// else.
const LIBRARY_CRATES: &[&str] = &[
    "common",
    "linalg",
    "kernel",
    "index",
    "coreset",
    "core",
    "baselines",
    "alternatives",
    "data",
    "serve",
    "obs",
    "sync",
    "cli",
    "bench",
    "xtask",
];

/// Crates whose lossy `as` casts must be justified (L5): every
/// workspace crate (widened from the original numeric-hot-path subset;
/// a silently truncating cast in a baseline or the CLI skews results
/// just as effectively as one in the engine).
const CAST_CHECKED_CRATES: &[&str] = &[
    "common",
    "linalg",
    "kernel",
    "index",
    "coreset",
    "core",
    "baselines",
    "alternatives",
    "data",
    "serve",
    "obs",
    "sync",
    "cli",
    "bench",
    "xtask",
];

/// Classify a workspace-relative path.
pub fn classify(rel_path: &Path) -> FileKind {
    let comps: Vec<&str> = rel_path.iter().filter_map(|c| c.to_str()).collect();
    let is_test_code = comps
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples");
    let crate_name = match comps.as_slice() {
        ["crates", name, rest @ ..] if !rest.is_empty() => Some(*name),
        _ => None,
    };
    // `src/` at the workspace root is the tkdc-repro library.
    let in_src = comps.contains(&"src");
    let is_library = !is_test_code
        && in_src
        && match crate_name {
            Some(name) => LIBRARY_CRATES.contains(&name),
            None => comps.first() == Some(&"src"),
        };
    let cast_checked = !is_test_code
        && in_src
        && matches!(crate_name, Some(name) if CAST_CHECKED_CRATES.contains(&name));
    FileKind {
        is_test_code,
        is_library,
        cast_checked,
        sync_facade: crate_name == Some("sync"),
    }
}

/// Run every applicable rule over one file's text.
pub fn check_file(rel_path: &str, text: &str, kind: FileKind) -> Vec<Violation> {
    let model = SourceModel::parse(text);
    let mut out = Vec::new();
    for idx in 0..model.lines.len() {
        lint_partial_cmp_unwrap(&model, idx, rel_path, &mut out);
        lint_unsafe(&model, idx, rel_path, &mut out);
        if !kind.sync_facade {
            lint_std_sync(&model, idx, rel_path, &mut out);
        }
        lint_relaxed_ordering(&model, idx, rel_path, &mut out);
        lint_static_mut(&model, idx, rel_path, &mut out);
        lint_spawn_without_join(&model, idx, rel_path, &mut out);
        let line_is_test = kind.is_test_code || model.lines[idx].in_test;
        if !line_is_test {
            if kind.is_library {
                lint_panic(&model, idx, rel_path, &mut out);
            }
            lint_float_eq(&model, idx, rel_path, &mut out);
            if kind.cast_checked {
                lint_lossy_cast(&model, idx, rel_path, &mut out);
            }
        }
    }
    out
}

/// True when line `idx` (or the line above) carries `marker` in a comment.
fn has_marker(model: &SourceModel, idx: usize, marker: &str) -> bool {
    let here = &model.lines[idx].comment;
    if here.contains(marker) {
        return true;
    }
    idx > 0 && model.lines[idx - 1].comment.contains(marker)
}

/// Widest distance (in lines) [`has_marker_for_statement`] scans upward.
const MARKER_SCAN_LIMIT: usize = 16;

/// True when `marker` appears in a comment attached to the *statement*
/// containing line `idx`: on the line itself, or scanning upward through
/// the contiguous run of comment-only lines and unterminated
/// continuation lines of the same expression. The scan stops at a blank
/// line or at a code line that ends a previous statement/item (trailing
/// `;`, `{` or `}`), so a marker can never leak across statements.
///
/// L7 and L9 use this instead of [`has_marker`] because their
/// justifications are typically multi-line comment blocks above a
/// multi-line call (`compare_exchange` spreads its orderings over
/// several lines).
fn has_marker_for_statement(model: &SourceModel, idx: usize, marker: &str) -> bool {
    if model.lines[idx].comment.contains(marker) {
        return true;
    }
    let mut i = idx;
    for _ in 0..MARKER_SCAN_LIMIT {
        if i == 0 {
            return false;
        }
        i -= 1;
        let line = &model.lines[i];
        if line.comment.contains(marker) {
            return true;
        }
        let code = line.code.trim();
        if code.is_empty() {
            if line.comment.is_empty() {
                return false; // blank line: the block above is detached
            }
            // Comment-only line without the marker: keep scanning up.
        } else if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            return false; // previous statement/item boundary
        }
    }
    false
}

/// True when the violation on line `idx` is suppressed for `rule` — either
/// by `tkdc-lint: allow(<name|code>)` or (L3 only) an
/// `#[allow(clippy::float_cmp)]` attribute, on this or the previous line.
fn is_allowed(model: &SourceModel, idx: usize, rule: Rule) -> bool {
    let by_name = format!("tkdc-lint: allow({})", rule.name());
    let by_code = format!("tkdc-lint: allow({})", rule.code());
    if has_marker(model, idx, &by_name) || has_marker(model, idx, &by_code) {
        return true;
    }
    if rule == Rule::FloatEq {
        // Keep `xtask lint` and clippy in agreement: a scoped clippy
        // allow is an accepted justification for L3.
        let attr = "allow(clippy::float_cmp)";
        let code_here = &model.lines[idx].code;
        if code_here.contains(attr) {
            return true;
        }
        if idx > 0 && model.lines[idx - 1].code.contains(attr) {
            return true;
        }
    }
    false
}

/// A candidate violation before the allow-marker check.
struct Finding {
    rule: Rule,
    col0: usize,
    message: String,
    help: &'static str,
}

fn push(model: &SourceModel, idx: usize, path: &str, f: Finding, out: &mut Vec<Violation>) {
    if is_allowed(model, idx, f.rule) {
        return;
    }
    out.push(Violation {
        rule: f.rule,
        path: path.to_owned(),
        line: idx + 1,
        col: f.col0 + 1,
        message: f.message,
        snippet: model.raw[idx].clone(),
        help: f.help,
    });
}

/// L1 — `partial_cmp(..).unwrap()` / `.expect(..)`.
///
/// A NaN reaching such a comparator panics mid-sort; `f64::total_cmp`
/// gives the IEEE 754 total order instead. The chain is matched on the
/// same line or the next (rustfmt may break before `.unwrap()`).
fn lint_partial_cmp_unwrap(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let Some(pos) = code.find("partial_cmp") else {
        return;
    };
    let tail = &code[pos..];
    let chained_here = tail.contains(".unwrap()") || tail.contains(".expect(");
    let chained_next = !chained_here
        && model.lines.get(idx + 1).is_some_and(|l| {
            let t = l.code.trim_start();
            t.starts_with(".unwrap()") || t.starts_with(".expect(")
        });
    if chained_here || chained_next {
        push(
            model,
            idx,
            path,
            Finding {
                rule: Rule::PartialCmpUnwrap,
                col0: pos,
                message: "`partial_cmp` result unwrapped — panics on NaN".to_owned(),
                help: "use `f64::total_cmp` (or handle the `None` explicitly)",
            },
            out,
        );
    }
}

/// Panic-family tokens searched by L2: `(needle, is_method)`.
const PANIC_TOKENS: &[(&str, bool)] = &[
    (".unwrap()", true),
    (".expect(", true),
    ("panic!", false),
    ("unreachable!", false),
    ("todo!", false),
    ("unimplemented!", false),
];

/// L2 — panic-family call in library code without an `// INVARIANT:`
/// justification.
fn lint_panic(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    for &(needle, is_method) in PANIC_TOKENS {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(needle) {
            let pos = from + rel;
            from = pos + needle.len();
            if !is_method {
                // Macro names must start at an identifier boundary
                // (don't fire on e.g. `my_panic!`).
                let prev = code[..pos].chars().next_back();
                if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
            } else {
                // A `partial_cmp` chain is L1's finding; its diagnostic
                // points at the actual fix (`total_cmp`), so don't double-
                // report the same token here.
                let chained_to_partial_cmp = code[..pos].contains("partial_cmp")
                    || (idx > 0
                        && code[..pos].trim().is_empty()
                        && model.lines[idx - 1].code.contains("partial_cmp"));
                if chained_to_partial_cmp {
                    continue;
                }
                // `self.expect(..)` is a user-defined method (e.g. a
                // parser's token-expectation combinator returning
                // `Result`), not `Option::expect`.
                if needle == ".expect(" && code[..pos].ends_with("self") {
                    continue;
                }
            }
            if has_marker(model, idx, "INVARIANT:") {
                continue;
            }
            push(
                model,
                idx,
                path,
                Finding {
                    rule: Rule::Panic,
                    col0: pos,
                    message: format!(
                        "`{}` in library code without an `// INVARIANT:` justification",
                        needle.trim_start_matches('.')
                    ),
                    help: "return a `Result`, or add `// INVARIANT: <why this cannot fail>`",
                },
                out,
            );
        }
    }
}

/// L3 — bit-exact float `==`/`!=`.
///
/// Token-level approximation: the comparison fires when either operand
/// *looks* floating-point — a float literal (`0.0`, `1e-6`, `1f64`), an
/// `f64::`/`f32::` path (constants like `NEG_INFINITY`), or a float-typed
/// suffix. Comparisons between two float-typed *variables* are invisible
/// to a type-blind pass; clippy's `float_cmp` (denied workspace-wide)
/// covers those.
fn lint_float_eq(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0usize;
    while i + 1 < chars.len() {
        let two: String = chars[i..i + 2].iter().collect();
        let is_eq = two == "==";
        let is_ne = two == "!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `===`-like runs, `=>`, and `!==`.
        let prev = if i > 0 { chars[i - 1] } else { ' ' };
        let next = chars.get(i + 2).copied().unwrap_or(' ');
        if is_eq && (prev == '<' || prev == '>' || prev == '!' || prev == '=' || next == '=') {
            i += 2;
            continue;
        }
        let lhs: String = chars[..i].iter().collect();
        let rhs: String = chars[i + 2..].iter().collect();
        if operand_is_floatish(trailing_token(&lhs)) || operand_is_floatish(leading_token(&rhs)) {
            push(
                model,
                idx,
                path,
                Finding {
                    rule: Rule::FloatEq,
                    col0: i,
                    message: "bit-exact float comparison".to_owned(),
                    help: "compare against a tolerance, restructure, or justify with `#[allow(clippy::float_cmp)]` + `// tkdc-lint: allow(float-eq)`",
                },
                out,
            );
        }
        i += 2;
    }
}

/// True for characters that can continue an operand token. `-`/`+` count
/// only as the interior sign of a float exponent (`1e-6`), which is why
/// the neighbouring character is consulted.
fn is_token_char(c: char, prev: Option<char>) -> bool {
    c.is_alphanumeric()
        || matches!(c, '_' | '.' | ':')
        || (matches!(c, '-' | '+') && matches!(prev, Some('e' | 'E')))
}

/// Last operand-ish token of `s` (scanning backwards).
fn trailing_token(s: &str) -> &str {
    let t = s.trim_end();
    let chars: Vec<(usize, char)> = t.char_indices().collect();
    let mut i = chars.len();
    while i > 0 {
        let c = chars[i - 1].1;
        let prev = if i >= 2 { Some(chars[i - 2].1) } else { None };
        // A sign is interior only when digits already follow it.
        let interior = i < chars.len();
        if c.is_alphanumeric()
            || matches!(c, '_' | '.' | ':')
            || (interior && matches!(c, '-' | '+') && matches!(prev, Some('e' | 'E')))
        {
            i -= 1;
        } else {
            break;
        }
    }
    if i == chars.len() {
        ""
    } else {
        &t[chars[i].0..]
    }
}

/// First operand-ish token of `s` (scanning forwards), ignoring unary
/// minus and an opening parenthesis.
fn leading_token(s: &str) -> &str {
    let t = s.trim_start().trim_start_matches(['-', '(']);
    let chars: Vec<(usize, char)> = t.char_indices().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i].1;
        let prev = if i > 0 { Some(chars[i - 1].1) } else { None };
        if is_token_char(c, prev) {
            i += 1;
        } else {
            break;
        }
    }
    if i == 0 {
        ""
    } else {
        let (last_idx, last_c) = chars[i - 1];
        &t[..last_idx + last_c.len_utf8()]
    }
}

/// Does this token read as a floating-point operand?
fn operand_is_floatish(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    if tok.starts_with("f64::") || tok.starts_with("f32::") {
        return true;
    }
    if tok.ends_with("f64") || tok.ends_with("f32") {
        // Literal suffix (`1f64`) — but not an identifier like `to_f64`.
        let head = &tok[..tok.len() - 3];
        if !head.is_empty()
            && head
                .chars()
                .all(|c| c.is_ascii_digit() || c == '_' || c == '.')
        {
            return true;
        }
    }
    // Digits containing a decimal point (`0.0`, `1.`, `.5`) or an
    // exponent (`1e-6` is split at '-'; `1e6` keeps the exponent).
    let mut saw_digit = false;
    let mut saw_dot = false;
    let mut saw_exp = false;
    for c in tok.chars() {
        match c {
            '0'..='9' | '_' => saw_digit = true,
            '.' => saw_dot = true,
            'e' | 'E' if saw_digit => saw_exp = true,
            '-' | '+' if saw_exp => {}
            _ => return false,
        }
    }
    saw_digit && (saw_dot || saw_exp)
}

/// L4 — `unsafe` without a `// SAFETY:` comment on the same or previous
/// line. (The workspace currently forbids `unsafe` outright via
/// `#![forbid(unsafe_code)]`; this rule documents the bar any future
/// exception must clear.)
fn lint_unsafe(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let mut from = 0usize;
    while let Some(rel) = code[from..].find("unsafe") {
        let pos = from + rel;
        from = pos + "unsafe".len();
        let prev = code[..pos].chars().next_back();
        let next = code[pos + 6..].chars().next();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_')
            || next.is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue; // part of a longer identifier
        }
        if has_marker(model, idx, "SAFETY:") {
            continue;
        }
        push(
            model,
            idx,
            path,
            Finding {
                rule: Rule::Unsafe,
                col0: pos,
                message: "`unsafe` without a `// SAFETY:` comment".to_owned(),
                help: "document the invariant that makes this sound: `// SAFETY: ...`",
            },
            out,
        );
    }
}

/// Cast targets L5 treats as lossy. `as f64` is exempt: every integer
/// source type used in this workspace is exactly representable at the
/// magnitudes involved, and flagging it would bury the real risks.
const LOSSY_TARGETS: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32",
];

/// L5 — lossy numeric `as` cast without a `// CAST:` justification.
fn lint_lossy_cast(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let chars: Vec<char> = code.chars().collect();
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(" as ") {
        let pos = from + rel + 1; // position of `as`
        from = pos + 3;
        // Word-boundary check on the left of ` as ` is implied by the
        // leading space; read the target type token after it.
        let after: String = chars[pos + 3..]
            .iter()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_alphanumeric() || **c == '_')
            .collect();
        if !LOSSY_TARGETS.contains(&after.as_str()) {
            continue;
        }
        if has_marker(model, idx, "CAST:") {
            continue;
        }
        push(
            model,
            idx,
            path,
            Finding {
                rule: Rule::LossyCast,
                col0: pos,
                message: format!("lossy `as {after}` cast on a numeric hot path"),
                help: "use a checked conversion, or add `// CAST: <why the value fits>`",
            },
            out,
        );
    }
}

/// L6 — `std::sync` / `std::thread` outside the `tkdc-sync` facade.
///
/// The facade is the workspace's single doorway to concurrency
/// primitives: it compiles to plain `std` re-exports normally and swaps
/// in the vendored model checker under `--cfg tkdc_model_check`. A
/// direct `std` import silently opts that code out of every model-check
/// harness.
fn lint_std_sync(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    for needle in ["std::sync", "std::thread"] {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(needle) {
            let pos = from + rel;
            from = pos + needle.len();
            // Left boundary: not the tail of a longer path/identifier
            // (`tkdc_sync::` does not contain the needle, but be safe
            // against e.g. `my_std::sync`).
            let prev = code[..pos].chars().next_back();
            if prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':') {
                continue;
            }
            // Right boundary: `std::synchrotron` must not match.
            let next = code[pos + needle.len()..].chars().next();
            if next.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            push(
                model,
                idx,
                path,
                Finding {
                    rule: Rule::StdSyncOutsideFacade,
                    col0: pos,
                    message: format!("`{needle}` used outside the `tkdc-sync` facade"),
                    help: "import from `tkdc_sync` so `cargo xtask model-check` \
                           can instrument this code",
                },
                out,
            );
        }
    }
}

/// L7 — `Ordering::Relaxed` without an `// ORDERING:` justification on
/// the enclosing statement.
///
/// Relaxed is the one ordering that provides *no* synchronization; every
/// use must say why that is enough (and, ideally, which model-check
/// harness exercises the claim).
fn lint_relaxed_ordering(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let mut from = 0usize;
    while let Some(rel) = code[from..].find("Ordering::Relaxed") {
        let pos = from + rel;
        from = pos + "Ordering::Relaxed".len();
        let prev = code[..pos].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue; // e.g. `MyOrdering::Relaxed`
        }
        if has_marker_for_statement(model, idx, "ORDERING:") {
            continue;
        }
        push(
            model,
            idx,
            path,
            Finding {
                rule: Rule::RelaxedWithoutComment,
                col0: pos,
                message: "`Ordering::Relaxed` without an `// ORDERING:` justification".to_owned(),
                help: "explain why no synchronization is needed: \
                       `// ORDERING: <why relaxed suffices>` (strengthen to \
                       Acquire/Release if you cannot)",
            },
            out,
        );
    }
}

/// L8 — `static mut` global state.
///
/// Always a data-race hazard (and `unsafe` to touch); the workspace has
/// atomics and `OnceLock` through the facade for every legitimate use.
fn lint_static_mut(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let mut from = 0usize;
    while let Some(rel) = code[from..].find("static mut ") {
        let pos = from + rel;
        from = pos + "static mut ".len();
        let prev = code[..pos].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        push(
            model,
            idx,
            path,
            Finding {
                rule: Rule::StaticMut,
                col0: pos,
                message: "`static mut` global state".to_owned(),
                help: "use an atomic or `OnceLock` from `tkdc_sync` instead",
            },
            out,
        );
    }
}

/// L9 — `thread::spawn` in statement position with its `JoinHandle`
/// discarded.
///
/// A detached thread outlives every `join()` barrier: its writes are
/// unpublished, its panics unobserved, and a process exit can cut it off
/// mid-work. The heuristic is deliberately narrow — it fires only when
/// the spawn *is* a whole statement (the call terminates in `;` with
/// nothing binding it, or sits behind `let _ =`), where the handle
/// provably goes nowhere. Handles stored, pushed, returned, or produced
/// as a block's tail expression are someone's responsibility to join.
/// Scoped `scope.spawn` is exempt: the scope joins implicitly.
fn lint_spawn_without_join(model: &SourceModel, idx: usize, path: &str, out: &mut Vec<Violation>) {
    let code = &model.lines[idx].code;
    let Some(pos) = code.find("thread::spawn(") else {
        return;
    };
    // Strip the path prefix (`tkdc_sync::`, `std::`) the needle may sit
    // inside of, then require statement position.
    let before =
        code[..pos].trim_end_matches(|c: char| c.is_alphanumeric() || c == '_' || c == ':');
    let before = before.trim();
    let explicitly_dropped = before.ends_with("let _ =") || before == "let _ =";
    if !before.is_empty() && !explicitly_dropped {
        return; // the handle flows into an expression
    }
    // The handle is discarded only when the spawn call itself is the
    // whole `;`-terminated statement. A block tail expression is the
    // block's value; a chained call (`.join()`) consumes the handle.
    if spawn_call_terminator(model, idx, pos) != Some(';') {
        return;
    }
    if has_marker_for_statement(model, idx, "JOIN:") {
        return;
    }
    push(
        model,
        idx,
        path,
        Finding {
            rule: Rule::SpawnWithoutJoin,
            col0: pos,
            message: "`thread::spawn` with a discarded `JoinHandle`".to_owned(),
            help: "keep the handle and `join()` it (or use `thread::scope`); \
                   justify a deliberate detach with `// JOIN: <why>`",
        },
        out,
    );
}

/// Lines [`spawn_call_terminator`] is willing to scan forward through.
const SPAWN_SCAN_LIMIT: usize = 64;

/// The first non-whitespace character after the closing parenthesis of
/// the call starting at `(line idx, col pos)`, scanning forward across
/// lines. `None` when the call never closes within the scan limit (give
/// the benefit of the doubt: don't fire).
fn spawn_call_terminator(model: &SourceModel, idx: usize, pos: usize) -> Option<char> {
    let mut depth = 0usize;
    let mut opened = false;
    for (di, line) in model.lines[idx..].iter().take(SPAWN_SCAN_LIMIT).enumerate() {
        let code = &line.code;
        let start = if di == 0 { pos } else { 0 };
        let mut chars = code.chars().skip(start).peekable();
        while let Some(c) = chars.next() {
            match c {
                '(' => {
                    depth += 1;
                    opened = true;
                }
                ')' if opened => {
                    depth -= 1;
                    if depth == 0 {
                        // Terminator may be on this line or a later one.
                        let rest: String = chars.collect();
                        if let Some(t) = rest.trim_start().chars().next() {
                            return Some(t);
                        }
                        return model.lines[idx + di + 1..]
                            .iter()
                            .take(SPAWN_SCAN_LIMIT)
                            .find_map(|l| l.code.trim_start().chars().next());
                    }
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const LIB: FileKind = FileKind {
        is_test_code: false,
        is_library: true,
        cast_checked: true,
        sync_facade: false,
    };

    fn check(src: &str) -> Vec<Violation> {
        check_file("crates/core/src/fixture.rs", src, LIB)
    }

    fn rules(src: &str) -> Vec<Rule> {
        check(src).into_iter().map(|v| v.rule).collect()
    }

    // ---- L1 ----

    #[test]
    fn l1_fires_on_partial_cmp_unwrap() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(rules(src), vec![Rule::PartialCmpUnwrap]);
    }

    #[test]
    fn l1_fires_on_partial_cmp_expect_and_next_line_chain() {
        assert_eq!(
            rules("let o = a.partial_cmp(&b).expect(\"finite\");"),
            vec![Rule::PartialCmpUnwrap]
        );
        // INVARIANT markers do not silence L1 (the fix is total_cmp).
        let split = "let o = a.partial_cmp(&b)\n    .unwrap();";
        assert!(rules(split).contains(&Rule::PartialCmpUnwrap));
    }

    #[test]
    fn l1_clean_on_total_cmp_and_unwrap_or() {
        assert!(rules("v.sort_by(f64::total_cmp);").is_empty());
        // INVARIANT: fixture — unwrap_or is not an unwrap.
        assert!(rules("let o = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal); // INVARIANT: fallback\n").is_empty());
    }

    #[test]
    fn l1_fires_even_in_test_code() {
        let v = check_file(
            "tests/t.rs",
            "fn t() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
            FileKind {
                is_test_code: true,
                is_library: false,
                cast_checked: false,
                sync_facade: false,
            },
        );
        assert_eq!(v.len(), 1);
    }

    // ---- L2 ----

    #[test]
    fn l2_fires_on_each_panic_family_member() {
        for src in [
            "fn f() { x.unwrap(); }",
            "fn f() { x.expect(\"m\"); }",
            "fn f() { panic!(\"boom\"); }",
            "fn f() { unreachable!(); }",
            "fn f() { todo!(); }",
        ] {
            assert_eq!(rules(src), vec![Rule::Panic], "{src}");
        }
    }

    #[test]
    fn l2_respects_invariant_marker_and_test_code() {
        assert!(rules("fn f() { x.unwrap(); } // INVARIANT: x was just inserted").is_empty());
        let above = "// INVARIANT: verified non-empty above\nfn f() { x.unwrap(); }";
        assert!(rules(above).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(rules(in_tests).is_empty());
    }

    #[test]
    fn l2_skips_strings_doc_comments_and_idents() {
        assert!(rules("let s = \"don't panic!\";").is_empty());
        assert!(rules("/// Panics: calls `panic!` when empty.\nfn f() {}").is_empty());
        assert!(rules("fn f() { my_unreachable!(); }").is_empty());
        assert!(rules("fn f() { x.unwrap_or(0); }").is_empty());
    }

    #[test]
    fn l2_applies_to_binary_crates_too() {
        // Since the crate-set extension, `cli`/`bench`/`xtask` are held
        // to the same panic-free bar as the libraries.
        let v = check_file(
            "crates/cli/src/main.rs",
            "fn main() { run().unwrap(); }",
            classify(Path::new("crates/cli/src/main.rs")),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Panic);
    }

    // ---- L3 ----

    #[test]
    fn l3_fires_on_float_literal_and_const_comparisons() {
        assert_eq!(rules("if x == 0.0 { }"), vec![Rule::FloatEq]);
        assert_eq!(rules("if 1e-6 != y { }"), vec![Rule::FloatEq]);
        assert_eq!(rules("if x == f64::NEG_INFINITY { }"), vec![Rule::FloatEq]);
        assert_eq!(rules("if x == 1f64 { }"), vec![Rule::FloatEq]);
    }

    #[test]
    fn l3_clean_on_integer_enum_and_comparison_operators() {
        assert!(rules("if n == 0 { }").is_empty());
        assert!(rules("if kind == KernelKind::Gaussian { }").is_empty());
        assert!(rules("if x <= 0.5 { }").is_empty());
        assert!(rules("if x >= 0.5 { }").is_empty());
        assert!(rules("let ok = v.len() == 3;").is_empty());
    }

    #[test]
    fn l3_respects_allow_markers_and_clippy_attr() {
        assert!(rules("if x == 0.0 { } // tkdc-lint: allow(float-eq)").is_empty());
        assert!(rules("// tkdc-lint: allow(L3)\nif x == 0.0 { }").is_empty());
        assert!(rules("#[allow(clippy::float_cmp)]\nfn f() { let _ = x == 0.0; }").is_empty());
    }

    // ---- L4 ----

    #[test]
    fn l4_fires_on_unjustified_unsafe() {
        assert_eq!(
            rules("fn f() { let p = unsafe { *ptr }; }"),
            vec![Rule::Unsafe]
        );
    }

    #[test]
    fn l4_clean_with_safety_comment_or_in_prose() {
        assert!(rules(
            "// SAFETY: ptr is non-null, checked above\nfn f() { let p = unsafe { *ptr }; }"
        )
        .is_empty());
        // The word inside a comment is not an unsafe block.
        assert!(rules("// doing this without a lock would be unsafe\nfn f() {}").is_empty());
        assert!(rules("let msg = \"unsafe\";").is_empty());
    }

    // ---- L5 ----

    #[test]
    fn l5_fires_on_lossy_casts() {
        assert_eq!(rules("let i = x.floor() as usize;"), vec![Rule::LossyCast]);
        assert_eq!(rules("let k = n as u32;"), vec![Rule::LossyCast]);
        assert_eq!(rules("let f = x as f32;"), vec![Rule::LossyCast]);
    }

    #[test]
    fn l5_clean_on_f64_casts_and_markers_and_fires_workspace_wide() {
        assert!(rules("let f = n as f64;").is_empty());
        assert!(
            rules("let i = x.floor() as usize; // CAST: x ∈ [0, nbins) checked above").is_empty()
        );
        // Since the crate-set extension every crate is cast-checked.
        let other = check_file(
            "crates/baselines/src/x.rs",
            "fn f() { let i = x as usize; }",
            classify(Path::new("crates/baselines/src/x.rs")),
        );
        assert_eq!(other.len(), 1);
        assert_eq!(other[0].rule, Rule::LossyCast);
        // Casts in test code are exempt.
        let in_tests = "#[cfg(test)]\nmod tests {\n fn t() { let i = x as usize; }\n}";
        assert!(rules(in_tests).is_empty());
    }

    // ---- classification & rendering ----

    #[test]
    fn classify_buckets_paths() {
        let lib = classify(Path::new("crates/core/src/bound.rs"));
        assert!(lib.is_library && lib.cast_checked && !lib.is_test_code);
        let tree = classify(Path::new("crates/core/src/tree.rs"));
        assert!(tree.is_library && tree.cast_checked && !tree.is_test_code);
        let lin = classify(Path::new("crates/linalg/src/pca.rs"));
        assert!(lin.is_library && lin.cast_checked);
        let cs = classify(Path::new("crates/coreset/src/stream.rs"));
        assert!(cs.is_library && cs.cast_checked && !cs.sync_facade);
        let t = classify(Path::new("crates/core/tests/it.rs"));
        assert!(t.is_test_code && !t.is_library);
        let bench = classify(Path::new("crates/bench/benches/kernel.rs"));
        assert!(bench.is_test_code);
        let root = classify(Path::new("src/lib.rs"));
        assert!(root.is_library && !root.cast_checked && !root.sync_facade);
        let xtask = classify(Path::new("crates/xtask/src/main.rs"));
        assert!(xtask.is_library && !xtask.sync_facade);
        let facade = classify(Path::new("crates/sync/src/lib.rs"));
        assert!(facade.sync_facade && facade.is_library);
    }

    // ---- L6 ----

    #[test]
    fn l6_fires_on_std_sync_and_thread_paths() {
        let v = rules("use std::sync::atomic::AtomicU64;");
        assert_eq!(v, vec![Rule::StdSyncOutsideFacade]);
        let v = rules("let h = std::thread::spawn(f);");
        assert_eq!(v, vec![Rule::StdSyncOutsideFacade]);
        // Fires in test code too: tests using raw std threads would
        // silently escape the model checker.
        let t = check_file(
            "tests/t.rs",
            "use std::sync::Mutex;",
            classify(Path::new("tests/t.rs")),
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn l6_clean_on_facade_imports_and_inside_facade() {
        assert!(rules("use tkdc_sync::atomic::{AtomicU64, Ordering};").is_empty());
        assert!(rules("use tkdc_sync::thread;").is_empty());
        assert!(rules("use std::time::Duration;").is_empty());
        // Prose and doc links are comment text, not code.
        assert!(rules("// matches the std::sync::Mutex contract\nfn f() {}").is_empty());
        // The facade itself is the sanctioned user.
        let v = check_file(
            "crates/sync/src/lib.rs",
            "pub use std::sync::{Arc, Mutex};\npub use std::thread::spawn;",
            classify(Path::new("crates/sync/src/lib.rs")),
        );
        assert!(v.is_empty());
    }

    #[test]
    fn l6_respects_allow_marker() {
        let src = "use std::sync::mpsc; // tkdc-lint: allow(std-sync-outside-facade)";
        assert!(rules(src).is_empty());
    }

    // ---- L7 ----

    #[test]
    fn l7_fires_on_bare_relaxed() {
        let v = rules("x.store(1, Ordering::Relaxed);");
        assert_eq!(v, vec![Rule::RelaxedWithoutComment]);
    }

    #[test]
    fn l7_accepts_ordering_comment_on_statement_block() {
        // Same line.
        assert!(rules("x.load(Ordering::Relaxed); // ORDERING: diagnostic only").is_empty());
        // Multi-line comment block directly above.
        let block = "// ORDERING: the counter is a monotone diagnostic\n\
                     // folded after join; no data is published through it.\n\
                     x.fetch_add(1, Ordering::Relaxed);";
        assert!(rules(block).is_empty());
        // Block above a *multi-line* call: the scan passes through the
        // unterminated continuation lines of the same statement.
        let call = "// ORDERING: CAS transfers no data, only disjointness.\n\
                    match x.compare_exchange_weak(\n\
                        cur,\n\
                        cur + 1,\n\
                        Ordering::Relaxed,\n\
                        Ordering::Relaxed,\n\
                    ) {";
        assert!(rules(call).is_empty());
    }

    #[test]
    fn l7_marker_does_not_leak_across_statements() {
        // The `;` on the first statement ends the marker's reach.
        let src = "// ORDERING: for the store below\n\
                   x.store(1, Ordering::Release);\n\
                   y.load(Ordering::Relaxed);";
        assert_eq!(rules(src), vec![Rule::RelaxedWithoutComment]);
        // A blank line detaches the comment block.
        let detached = "// ORDERING: stale\n\n x.load(Ordering::Relaxed);";
        assert_eq!(rules(detached), vec![Rule::RelaxedWithoutComment]);
    }

    #[test]
    fn l7_respects_allow_marker() {
        assert!(rules("x.load(Ordering::Relaxed); // tkdc-lint: allow(L7)").is_empty());
    }

    // ---- L8 ----

    #[test]
    fn l8_fires_on_static_mut() {
        let v = rules("static mut COUNTER: u64 = 0;");
        assert_eq!(v, vec![Rule::StaticMut]);
    }

    #[test]
    fn l8_clean_on_plain_statics_and_suppression() {
        assert!(rules("static COUNTER: AtomicU64 = AtomicU64::new(0);").is_empty());
        let src = "static mut LEGACY: u64 = 0; // tkdc-lint: allow(static-mut)";
        assert!(rules(src).is_empty());
    }

    // ---- L9 ----

    #[test]
    fn l9_fires_on_discarded_spawn_handles() {
        assert_eq!(
            rules("thread::spawn(move || work());"),
            vec![Rule::SpawnWithoutJoin]
        );
        assert_eq!(
            rules("tkdc_sync::thread::spawn(move || work());"),
            vec![Rule::SpawnWithoutJoin]
        );
        assert_eq!(
            rules("let _ = thread::spawn(move || work());"),
            vec![Rule::SpawnWithoutJoin]
        );
        // Multi-line spawn statement: the `;` after the closing paren is
        // found by the forward scan.
        let multi = "thread::spawn(move || {\n    work();\n})\n;";
        assert_eq!(rules(multi), vec![Rule::SpawnWithoutJoin]);
    }

    #[test]
    fn l9_clean_when_handle_is_consumed_or_justified() {
        assert!(rules("let h = thread::spawn(move || work());").is_empty());
        assert!(rules("handles.push(thread::spawn(move || work()));").is_empty());
        // Block tail expression: the handle is the block's value.
        let tail = "let h = {\n    let q = q.clone();\n    thread::spawn(move || work(q))\n};";
        assert!(rules(tail).is_empty());
        // Chained join: consumed (even behind `let _ =`, which then
        // discards the join *result*, not the handle).
        assert!(rules("let _ = thread::spawn(move || work()).join();").is_empty());
        // Scoped spawns join implicitly at the end of the scope.
        assert!(rules("scope.spawn(move || work());").is_empty());
        let justified = "// JOIN: fire-and-forget wake-up; the acceptor owns shutdown\n\
                         thread::spawn(move || wake());";
        assert!(rules(justified).is_empty());
        assert!(rules("thread::spawn(f); // tkdc-lint: allow(spawn-without-join)").is_empty());
    }

    // ---- golden fixtures ----

    /// Every rule ships a pair of golden fixtures under
    /// `tests/golden/`: `lN_fire` must produce only that rule (one or
    /// more findings — the concurrency fixtures carry several
    /// patterns), and `lN_allow` (the same code with the sanctioned
    /// marker or suppression) must be clean. This pins both the
    /// detection and the escape hatch of each rule against regressions.
    #[test]
    fn golden_fixtures_fire_and_allow_per_rule() {
        let all = [
            Rule::PartialCmpUnwrap,
            Rule::Panic,
            Rule::FloatEq,
            Rule::Unsafe,
            Rule::LossyCast,
            Rule::StdSyncOutsideFacade,
            Rule::RelaxedWithoutComment,
            Rule::StaticMut,
            Rule::SpawnWithoutJoin,
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        for (i, rule) in all.iter().enumerate() {
            let n = i + 1;
            for (variant, expect_fire) in [("fire", true), ("allow", false)] {
                let path = dir.join(format!("l{n}_{variant}.rs.golden"));
                // INVARIANT: a missing fixture is exactly what this
                // self-test exists to catch; panic with the path.
                let src = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
                // Every library crate must hold the same bar: run each
                // fixture under a representative established crate, the
                // newest crate-set member (`tkdc-coreset`), the
                // persistent pool module — the workspace's densest user
                // of L6–L9 (facade imports, Relaxed cursors, worker
                // spawn/join lifecycles) — and the model-file codec,
                // whose length fields are the densest users of L5
                // casts in the core crate.
                for fixture_path in [
                    "crates/core/src/golden.rs",
                    "crates/coreset/src/golden.rs",
                    "crates/core/src/engine/pool.rs",
                    "crates/core/src/model_io.rs",
                    // The observability surface: span sinks and the
                    // windowed histogram (Relaxed counters under L7),
                    // and the metrics endpoint (spawn/join under L9).
                    "crates/obs/src/span.rs",
                    "crates/obs/src/window.rs",
                    "crates/serve/src/http.rs",
                ] {
                    let kind = classify(Path::new(fixture_path));
                    assert!(kind.is_library && kind.cast_checked, "{fixture_path}");
                    let fired: Vec<Rule> = check(fixture_path, &src, kind)
                        .into_iter()
                        .map(|v| v.rule)
                        .collect();
                    if expect_fire {
                        assert!(
                            !fired.is_empty() && fired.iter().all(|r| r == rule),
                            "l{n}_fire must fire only L{n} in {fixture_path}, got {fired:?}"
                        );
                    } else {
                        assert!(
                            fired.is_empty(),
                            "l{n}_allow must be clean in {fixture_path}, got {fired:?}"
                        );
                    }
                }
            }
        }

        fn check(path: &str, src: &str, kind: FileKind) -> Vec<Violation> {
            check_file(path, src, kind)
        }
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let v = check("fn f() {\n    x.unwrap();\n}");
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].col), (2, 6));
        let rendered = v[0].render();
        assert!(rendered.contains("crates/core/src/fixture.rs:2:6"));
        assert!(rendered.contains("x.unwrap();"));
        assert!(rendered.contains("error[L2/panic]"));
    }
}
