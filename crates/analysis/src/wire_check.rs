//! Pass 2: wire/container registry consistency.
//!
//! The workspace has three hand-rolled binary formats: the `DSWR` network
//! protocol (`crates/serving/src/wire.rs`), the `DSSD` model container
//! (`crates/tensor/src/serde.rs`) and the `DSKB` knowledge-base container
//! (`crates/kb/src/base.rs`). Their registries are plain `const`s and
//! `match` arms — nothing stops a new tag from colliding with an old one
//! except review. This pass re-derives the registries from the token
//! stream and checks:
//!
//! - **WIRE001** — no two constants in one value space share a value. The
//!   request and response tag spaces are *separate* (membership is decided
//!   by which encode/decode function references the constant, so
//!   `TAG_RELOAD_MODEL == TAG_MODEL_RELOADED == 8` is legal); container
//!   magics form one cross-file space.
//! - **WIRE002** — no constant carries a value listed as retired in
//!   `analysis/baseline.toml`.
//! - **WIRE003** — `encode_request_ref`/`decode_request` (and the response
//!   pair) cover the same tag sets. A missing codec function, or one that
//!   references no tag, is itself a finding, so a rename cannot turn the
//!   tag checks into a vacuous pass.
//! - **WIRE004** — module-doc claims (`` `ReloadModel` (8) `` tag tables,
//!   `magic bytes "DSWR"`, `currently 1` version statements) agree with
//!   the constants.
//! - **WIRE005** — `ErrorCode::to_u8`, `from_u8` and `ALL` describe one
//!   bijection, with `ALL` in ascending tag order.

use std::collections::BTreeMap;

use crate::baseline::RetiredValues;
use crate::findings::{Finding, FindingCode};
use crate::lexer::{function_spans, FnSpan, TokKind, Token};
use crate::workspace::{SourceFile, SourceTree};

/// The files the pass inspects (fixture trees use the same paths).
pub const WIRE_FILE: &str = "crates/serving/src/wire.rs";
/// Container format files checked for magic/version/doc consistency.
pub const CONTAINER_FILES: [&str; 3] = [
    WIRE_FILE,
    "crates/tensor/src/serde.rs",
    "crates/kb/src/base.rs",
];

/// Runs the wire-registry pass.
pub fn check(tree: &SourceTree, retired: &RetiredValues) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Container magics: one cross-file value space.
    let mut magics: Vec<(String, String, String, u32)> = Vec::new(); // (value, name, file, line)
    for rel in CONTAINER_FILES {
        let Some(file) = tree.get(rel) else { continue };
        let consts = scan_consts(&file.lexed.tokens);
        for c in &consts {
            if let ConstValue::Magic(m) = &c.value {
                magics.push((m.clone(), c.name.clone(), file.rel.clone(), c.line));
            }
        }
        check_doc_claims(file, &consts, &mut findings);
    }
    magics.sort();
    for pair in magics.windows(2) {
        if pair[0].0 == pair[1].0 {
            findings.push(Finding::new(
                FindingCode::Wire001,
                &pair[1].2,
                pair[1].3,
                format!(
                    "magic {:?} of `{}` collides with `{}` ({})",
                    pair[1].0, pair[1].1, pair[0].1, pair[0].2
                ),
            ));
        }
    }

    if let Some(file) = tree.get(WIRE_FILE) {
        check_tag_spaces(file, retired, &mut findings);
        check_error_code(file, retired, &mut findings);
    }
    findings
}

/// A scanned constant.
struct ConstDef {
    name: String,
    value: ConstValue,
    line: u32,
}

enum ConstValue {
    /// `const N: u8/u16/... = <integer>;`
    Int(u64),
    /// `const N: [u8; 4] = *b"XXXX";`
    Magic(String),
    /// Anything else (expressions, non-scalar types).
    Other,
}

/// Scans `const NAME: Type = value;` items from the token stream.
fn scan_consts(tokens: &[Token]) -> Vec<ConstDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("const")
            && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i + 1].line;
            // Find `=` then the value tokens up to `;`.
            let mut j = i + 3;
            while j < tokens.len() && !tokens[j].is_punct('=') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('=') {
                let mut k = j + 1;
                let mut value_toks: Vec<&Token> = Vec::new();
                while k < tokens.len() && !tokens[k].is_punct(';') {
                    value_toks.push(&tokens[k]);
                    k += 1;
                }
                let value = match value_toks.as_slice() {
                    [t] if t.kind == TokKind::Number => {
                        parse_int(&t.text).map_or(ConstValue::Other, ConstValue::Int)
                    }
                    [star, s] if star.is_punct('*') && s.kind == TokKind::Str => {
                        ConstValue::Magic(s.text.clone())
                    }
                    [s] if s.kind == TokKind::Str => ConstValue::Magic(s.text.clone()),
                    _ => ConstValue::Other,
                };
                out.push(ConstDef { name, value, line });
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses a Rust integer literal (decimal or `0x`/`0o`/`0b`, `_` allowed,
/// type suffixes tolerated).
fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let t = [
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ]
    .iter()
    .find_map(|s| t.strip_suffix(s))
    .unwrap_or(t.as_str());
    if let Some(hex) = t.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = t.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = t.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else {
        t.parse().ok()
    }
}

/// Extracts the tags referenced by one encode/decode function: for encode
/// fns, `put_u8(TAG_X)` calls; for decode fns, `TAG_X =>` match arms.
fn tags_in_fn<'a>(tokens: &'a [Token], span: &FnSpan, decode: bool) -> Vec<(&'a str, u32)> {
    let (Some(open), Some(close)) = (span.body_open, span.body_close) else {
        return Vec::new();
    };
    let mut tags = Vec::new();
    for i in open..=close.min(tokens.len() - 1) {
        let t = &tokens[i];
        if t.kind != TokKind::Ident || !t.text.starts_with("TAG_") {
            continue;
        }
        if decode {
            // `TAG_X =>`
            if tokens.get(i + 1).is_some_and(|n| n.is_punct('='))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct('>'))
            {
                tags.push((t.text.as_str(), t.line));
            }
        } else {
            // `put_u8(TAG_X)`
            let prev2 = i.checked_sub(2).and_then(|p| tokens.get(p));
            if prev2.is_some_and(|p| p.is_ident("put_u8")) {
                tags.push((t.text.as_str(), t.line));
            }
        }
    }
    tags
}

/// Checks the request and response tag spaces of `wire.rs`.
fn check_tag_spaces(file: &SourceFile, retired: &RetiredValues, findings: &mut Vec<Finding>) {
    let tokens = &file.lexed.tokens;
    let consts = scan_consts(tokens);
    let const_vals: BTreeMap<&str, (u64, u32)> = consts
        .iter()
        .filter_map(|c| match c.value {
            ConstValue::Int(v) => Some((c.name.as_str(), (v, c.line))),
            _ => None,
        })
        .collect();
    let fns = function_spans(tokens);
    let find_fn = |name: &str| fns.iter().find(|f| f.name == name);

    for (space, enc_name, dec_name, retired_vals) in [
        (
            "request",
            "encode_request_ref",
            "decode_request",
            &retired.request_tags,
        ),
        (
            "response",
            "encode_response",
            "decode_response",
            &retired.response_tags,
        ),
    ] {
        // A renamed codec, or one that stops writing `put_u8(TAG_X)` /
        // matching `TAG_X =>`, would leave every check below with nothing
        // to check; report that instead of passing vacuously.
        let mut side_tags = |fn_name: &str, decode: bool| {
            let Some(span) = find_fn(fn_name) else {
                findings.push(Finding::new(
                    FindingCode::Wire003,
                    &file.rel,
                    0,
                    format!("`{fn_name}` not found, so the {space} tag space goes unchecked"),
                ));
                return Vec::new();
            };
            let tags = tags_in_fn(tokens, span, decode);
            if tags.is_empty() {
                findings.push(Finding::new(
                    FindingCode::Wire003,
                    &file.rel,
                    span.line,
                    format!("`{fn_name}` references no `TAG_*` constant, so the {space} tag space goes unchecked"),
                ));
            }
            tags
        };
        let enc: Vec<(&str, u32)> = side_tags(enc_name, false);
        let dec: Vec<(&str, u32)> = side_tags(dec_name, true);

        // WIRE003: both sides must reference the same tag-name set.
        for (name, line) in &enc {
            if !dec.iter().any(|(n, _)| n == name) {
                findings.push(Finding::new(
                    FindingCode::Wire003,
                    &file.rel,
                    *line,
                    format!("`{enc_name}` emits `{name}` but `{dec_name}` has no arm for it"),
                ));
            }
        }
        for (name, line) in &dec {
            if !enc.iter().any(|(n, _)| n == name) {
                findings.push(Finding::new(
                    FindingCode::Wire003,
                    &file.rel,
                    *line,
                    format!("`{dec_name}` accepts `{name}` but `{enc_name}` never emits it"),
                ));
            }
        }

        // The space's registry: every distinct tag name either side uses.
        let mut names: Vec<&str> = enc.iter().chain(dec.iter()).map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();

        // WIRE001: no two names in the space share a value.
        let mut by_value: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for name in &names {
            if let Some((v, _)) = const_vals.get(name) {
                by_value.entry(*v).or_default().push(name);
            }
        }
        for (value, owners) in &by_value {
            if owners.len() > 1 {
                let (_, line) = const_vals.get(owners[1]).copied().unwrap_or((0, 0));
                findings.push(Finding::new(
                    FindingCode::Wire001,
                    &file.rel,
                    line,
                    format!(
                        "{space} tag value {value} assigned to {}",
                        owners.join(" and ")
                    ),
                ));
            }
            // WIRE002: retired values must stay dead.
            if retired_vals.contains(value) {
                let (_, line) = const_vals.get(owners[0]).copied().unwrap_or((0, 0));
                findings.push(Finding::new(
                    FindingCode::Wire002,
                    &file.rel,
                    line,
                    format!(
                        "{space} tag value {value} ({}) is retired and must not be reused",
                        owners.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Checks the `ErrorCode` `to_u8`/`from_u8`/`ALL` triple.
fn check_error_code(file: &SourceFile, retired: &RetiredValues, findings: &mut Vec<Finding>) {
    let tokens = &file.lexed.tokens;
    let fns = function_spans(tokens);

    // to_u8: `ErrorCode :: Variant = > N` pairs inside fn to_u8.
    let mut to_u8: Vec<(String, u64, u32)> = Vec::new();
    let mut from_u8: Vec<(u64, String)> = Vec::new();
    for span in &fns {
        let (Some(open), Some(close)) = (span.body_open, span.body_close) else {
            continue;
        };
        if span.name == "to_u8" {
            let mut i = open;
            while i + 5 <= close {
                if tokens[i].is_ident("ErrorCode")
                    && tokens[i + 1].is_punct(':')
                    && tokens[i + 2].is_punct(':')
                    && tokens[i + 3].kind == TokKind::Ident
                    && tokens[i + 4].is_punct('=')
                    && tokens[i + 5].is_punct('>')
                    && tokens.get(i + 6).is_some_and(|t| t.kind == TokKind::Number)
                {
                    if let Some(v) = parse_int(&tokens[i + 6].text) {
                        to_u8.push((tokens[i + 3].text.clone(), v, tokens[i + 3].line));
                    }
                }
                i += 1;
            }
        } else if span.name == "from_u8" {
            let mut i = open;
            while i + 5 <= close {
                if tokens[i].kind == TokKind::Number
                    && tokens[i + 1].is_punct('=')
                    && tokens[i + 2].is_punct('>')
                    && tokens[i + 3].is_ident("ErrorCode")
                    && tokens[i + 4].is_punct(':')
                    && tokens[i + 5].is_punct(':')
                    && tokens.get(i + 6).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    if let Some(v) = parse_int(&tokens[i].text) {
                        from_u8.push((v, tokens[i + 6].text.clone()));
                    }
                }
                i += 1;
            }
        }
    }
    if to_u8.is_empty() {
        return; // Fixture or wire file without an ErrorCode block.
    }

    // ALL: `ALL : [ ErrorCode ; N ] = [ ErrorCode :: A , ... ] ;`
    let mut all: Vec<String> = Vec::new();
    let mut all_line = 0u32;
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("ALL")
            && i >= 1
            && tokens.get(i - 1).is_some_and(|t| t.is_ident("const"))
        {
            all_line = tokens[i].line;
            // Find `=` then collect `ErrorCode :: X` until `;`.
            let mut j = i;
            while j < tokens.len() && !tokens[j].is_punct('=') {
                j += 1;
            }
            while j < tokens.len() && !tokens[j].is_punct(';') {
                if tokens[j].is_ident("ErrorCode")
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 3).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    all.push(tokens[j + 3].text.clone());
                    j += 4;
                    continue;
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }

    // WIRE001 within the error-code space + WIRE005 consistency.
    let mut by_value: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (variant, value, line) in &to_u8 {
        by_value.entry(*value).or_default().push(variant);
        if retired.error_codes.contains(value) {
            findings.push(Finding::new(
                FindingCode::Wire002,
                &file.rel,
                *line,
                format!("error code {value} ({variant}) is retired and must not be reused"),
            ));
        }
    }
    for (value, owners) in &by_value {
        if owners.len() > 1 {
            findings.push(Finding::new(
                FindingCode::Wire001,
                &file.rel,
                0,
                format!(
                    "error code value {value} assigned to {}",
                    owners.join(" and ")
                ),
            ));
        }
    }
    for (variant, value, line) in &to_u8 {
        match from_u8.iter().find(|(v, _)| v == value) {
            Some((_, var2)) if var2 == variant => {}
            Some((_, var2)) => findings.push(Finding::new(
                FindingCode::Wire005,
                &file.rel,
                *line,
                format!("to_u8 maps {variant} to {value} but from_u8({value}) yields {var2}"),
            )),
            None => findings.push(Finding::new(
                FindingCode::Wire005,
                &file.rel,
                *line,
                format!("to_u8 maps {variant} to {value} but from_u8 has no arm for {value}"),
            )),
        }
    }
    for (value, variant) in &from_u8 {
        if !to_u8.iter().any(|(v, _, _)| v == variant) {
            findings.push(Finding::new(
                FindingCode::Wire005,
                &file.rel,
                0,
                format!("from_u8({value}) yields {variant}, which to_u8 never produces"),
            ));
        }
    }
    // ALL: exactly the to_u8 variants, ascending by tag.
    for (variant, _, line) in &to_u8 {
        let n = all.iter().filter(|v| *v == variant).count();
        if n != 1 {
            findings.push(Finding::new(
                FindingCode::Wire005,
                &file.rel,
                *line,
                format!("ALL lists {variant} {n} times (expected exactly once)"),
            ));
        }
    }
    for variant in &all {
        if !to_u8.iter().any(|(v, _, _)| v == variant) {
            findings.push(Finding::new(
                FindingCode::Wire005,
                &file.rel,
                all_line,
                format!("ALL lists {variant}, which to_u8 does not map"),
            ));
        }
    }
    let all_values: Vec<u64> = all
        .iter()
        .filter_map(|v| {
            to_u8
                .iter()
                .find(|(n, _, _)| n == v)
                .map(|(_, val, _)| *val)
        })
        .collect();
    if all_values.windows(2).any(|w| w[0] >= w[1]) {
        findings.push(Finding::new(
            FindingCode::Wire005,
            &file.rel,
            all_line,
            "ALL is not in strictly ascending tag order (index() relies on it)".to_string(),
        ));
    }
}

/// Checks module-doc claims against the scanned constants.
fn check_doc_claims(file: &SourceFile, consts: &[ConstDef], findings: &mut Vec<Finding>) {
    let const_vals: BTreeMap<&str, u64> = consts
        .iter()
        .filter_map(|c| match c.value {
            ConstValue::Int(v) => Some((c.name.as_str(), v)),
            _ => None,
        })
        .collect();
    let magics: Vec<&str> = consts
        .iter()
        .filter_map(|c| match &c.value {
            ConstValue::Magic(m) if c.name.contains("MAGIC") => Some(m.as_str()),
            _ => None,
        })
        .collect();
    let versions: Vec<u64> = consts
        .iter()
        .filter_map(|c| match c.value {
            ConstValue::Int(v) if c.name.contains("VERSION") => Some(v),
            _ => None,
        })
        .collect();
    // ErrorCode variants resolvable by doc name (scanned lazily from
    // to_u8-style match text is overkill here: tag constants cover the
    // doc tables; error codes resolve via TAG-style lookup miss below).
    let error_codes = scan_error_code_values(&file.lexed.tokens);

    for comment in &file.lexed.comments {
        if !comment.doc {
            continue;
        }
        // `Name` (N) claims.
        for (name, value) in backtick_claims(&comment.text) {
            let expected = error_codes
                .get(name.as_str())
                .copied()
                .or_else(|| {
                    let tag_name = format!("TAG_{}", camel_to_screaming(&name));
                    const_vals.get(tag_name.as_str()).copied()
                })
                .or_else(|| {
                    // Frame-extension type claims (`TraceId` (1) in the
                    // extension-layout table) resolve via EXT_* constants.
                    let ext_name = format!("EXT_{}", camel_to_screaming(&name));
                    const_vals.get(ext_name.as_str()).copied()
                });
            if let Some(exp) = expected {
                if exp != value {
                    findings.push(Finding::new(
                        FindingCode::Wire004,
                        &file.rel,
                        comment.line,
                        format!("doc says `{name}` ({value}) but the constant is {exp}"),
                    ));
                }
            }
        }
        // magic bytes "XXXX" claims.
        if let Some(claimed) = magic_claim(&comment.text) {
            if !magics.is_empty() && !magics.contains(&claimed.as_str()) {
                findings.push(Finding::new(
                    FindingCode::Wire004,
                    &file.rel,
                    comment.line,
                    format!("doc claims magic bytes {claimed:?} but the file defines {magics:?}"),
                ));
            }
        }
        // `currently N` version claims.
        if let Some(claimed) = currently_claim(&comment.text) {
            if !versions.is_empty() && !versions.contains(&claimed) {
                findings.push(Finding::new(
                    FindingCode::Wire004,
                    &file.rel,
                    comment.line,
                    format!(
                        "doc claims version `currently {claimed}` but the file defines {versions:?}"
                    ),
                ));
            }
        }
    }
}

/// Scans `ErrorCode::Variant => N` pairs anywhere in the file (the to_u8
/// body) into a name→value map for doc-claim resolution.
fn scan_error_code_values(tokens: &[Token]) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        if tokens[i].is_ident("ErrorCode")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].kind == TokKind::Ident
            && tokens[i + 4].is_punct('=')
            && tokens[i + 5].is_punct('>')
            && tokens[i + 6].kind == TokKind::Number
        {
            if let Some(v) = parse_int(&tokens[i + 6].text) {
                map.entry(tokens[i + 3].text.clone()).or_insert(v);
            }
        }
        i += 1;
    }
    map
}

/// Extracts `` `Name` (N) `` claims from one comment line.
fn backtick_claims(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '`' {
            let start = i + 1;
            let mut j = start;
            while j < chars.len() && chars[j] != '`' {
                j += 1;
            }
            if j < chars.len() {
                let name: String = chars[start..j].iter().collect();
                // Skip whitespace, expect `(digits)`.
                let mut k = j + 1;
                while k < chars.len() && chars[k] == ' ' {
                    k += 1;
                }
                if k < chars.len() && chars[k] == '(' {
                    let num_start = k + 1;
                    let mut m = num_start;
                    while m < chars.len() && chars[m].is_ascii_digit() {
                        m += 1;
                    }
                    if m > num_start && m < chars.len() && chars[m] == ')' {
                        let digits: String = chars[num_start..m].iter().collect();
                        if let Ok(v) = digits.parse::<u64>() {
                            if name.chars().all(|c| c.is_ascii_alphanumeric())
                                && name.starts_with(|c: char| c.is_ascii_uppercase())
                            {
                                out.push((name, v));
                            }
                        }
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Extracts a `magic bytes "XXXX"` claim from one comment line.
fn magic_claim(text: &str) -> Option<String> {
    let idx = text.find("magic bytes \"")?;
    let rest = &text[idx + "magic bytes \"".len()..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts a `currently N` claim from one comment line.
fn currently_claim(text: &str) -> Option<u64> {
    let idx = text.find("currently ")?;
    let rest = &text[idx + "currently ".len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        None
    } else {
        digits.parse().ok()
    }
}

/// Converts `CamelCase` to `SCREAMING_SNAKE` (`ReloadModel` →
/// `RELOAD_MODEL`, `KbInfo` → `KB_INFO`).
fn camel_to_screaming(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn camel_conversion() {
        assert_eq!(camel_to_screaming("ReloadModel"), "RELOAD_MODEL");
        assert_eq!(camel_to_screaming("KbInfo"), "KB_INFO");
        assert_eq!(camel_to_screaming("Stats"), "STATS");
    }

    #[test]
    fn claims_parse() {
        assert_eq!(
            backtick_claims("tags `ReloadModel` (8), `ReloadKb` (9) and `KbInfo` (10)"),
            vec![
                ("ReloadModel".to_string(), 8),
                ("ReloadKb".to_string(), 9),
                ("KbInfo".to_string(), 10)
            ]
        );
        assert_eq!(
            magic_claim("0       4     magic bytes \"DSWR\""),
            Some("DSWR".to_string())
        );
        assert_eq!(
            currently_claim("4       2     protocol version (little-endian u16, currently 1)"),
            Some(1)
        );
        assert_eq!(magic_claim("foreign magic bytes, future"), None);
    }

    #[test]
    fn ext_doc_claims_resolve_against_ext_constants() {
        use crate::baseline::RetiredValues;
        use crate::workspace::SourceTree;

        // A doc claim `TraceId` (N) must resolve through EXT_TRACE_ID:
        // correct value → clean, wrong value → WIRE004.
        let good = "//! extension `TraceId` (1) carries the trace.\n\
                    pub const EXT_TRACE_ID: u8 = 1;\n";
        let tree = SourceTree::from_parts(&[(WIRE_FILE, good)]);
        // The fixture has no codec functions, which WIRE003 reports; only
        // the doc claims are under test here.
        assert!(check(&tree, &RetiredValues::default())
            .iter()
            .all(|f| f.code != FindingCode::Wire004));

        let bad = "//! extension `TraceId` (2) carries the trace.\n\
                   pub const EXT_TRACE_ID: u8 = 1;\n";
        let tree = SourceTree::from_parts(&[(WIRE_FILE, bad)]);
        let findings: Vec<_> = check(&tree, &RetiredValues::default())
            .into_iter()
            .filter(|f| f.code == FindingCode::Wire004)
            .collect();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("TraceId"));
    }
}
