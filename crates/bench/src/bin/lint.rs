//! Workspace lint: mechanical invariants `clippy` does not enforce.
//!
//! Scans every `crates/**/*.rs` source file (comments and string
//! literals stripped, so prose never trips a rule) and fails the build
//! on:
//!
//! 1. **`unsafe`** outside the allowlist in `lint-allow.txt`, or more
//!    of it in a file than its entry's count (`<path> <count>`) — every
//!    `unsafe` block in this repo carries a verifier- or
//!    analysis-backed invariant; new ones must be added to the
//!    allowlist deliberately, in the same change that argues their
//!    safety, and the count keeps a file's share from growing silently.
//! 2. **Raw clock reads** (the paths `Instant::now` / `SystemTime::now`,
//!    called or passed as a function value) outside the allowlist —
//!    serving code must go through the `Clock` abstraction so tests and
//!    replay stay deterministic; the allowlist names the `Clock` impls
//!    and the measurement-only files.
//! 3. **`.unwrap()` in `cortex-serve` non-test code** — the serving
//!    front returns typed errors; a panic in the request path defeats
//!    its fault containment. Test modules (after the file's first
//!    `#[cfg(test)]`) are exempt.
//!
//! 4. **Stale allowlist entries** — an `[unsafe]`, `[clock]` or
//!    `[libm]` line whose file is gone, or no longer contains what it
//!    is exempted for, so the allowlist can only shrink honestly.
//! 5. **Platform transcendentals** (`.tanh()` / `.exp()`, which also
//!    catches the hand-rolled `1.0 / (1.0 + (-x).exp())`) in the
//!    non-test code of `crates/{core,backend,models,serve,baselines}`
//!    outside the allowlist — every nonlinearity a result depends on
//!    is the one definition in `cortex_tensor::approx`, which is what
//!    keeps the execution paths bit-identical by construction. The
//!    `[libm]` allowlist names the modelled vendor kernels, the files
//!    where `.tanh()` is the `ValExpr` builder, and test-only files.
//! 6. **Size budgets** — the `[budget]` table caps the non-test lines of
//!    a directory: every line of its `.rs` files (recursively) before
//!    the file's first `#[cfg(test)]` that opens an inline module,
//!    `tests.rs` files excluded. A directory over its cap fails, and so
//!    does a cap without a `#` reason line directly above it: raising a
//!    cap means writing down why, in the same change. `[unsafe]` counts
//!    need their reason line the same way.
//! 7. **Unreached public surface** — a bare `pub` `fn`, `struct`,
//!    `enum`, `trait`, `type`, `const` or `static` (inherent methods
//!    included) in a library crate's non-test code whose name no other
//!    file's non-test code mentions. Users are searched in every other
//!    file under `crates/*/src` (bins included), `benchmarks/src` and
//!    `examples/`; `use` items, `tests.rs` files, inline test modules,
//!    `crates/*/tests` and the root `tests/` are no users. Delete the
//!    item, narrow it, or list it under `[surface]` (`<path> <name>`, or
//!    `<path>` for a whole test-support file) with a `#` reason line
//!    above it; an entry that exempts nothing is stale.
//!
//! Run with `cargo run --release -p cortex-bench-harness --bin lint`;
//! CI runs it as part of the `analysis-gates` job. Exit code 1 on any
//! violation, each reported as `path:line: rule`.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Replaces comments, string literals, and char literals with spaces,
/// preserving newlines so reported line numbers match the source.
fn strip(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                out.push_str("  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            'r' if i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Raw string r"..." / r#"..."# (any hash depth).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    out.push(' ');
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = i + 1;
                            let mut seen = 0;
                            while k < b.len() && b[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                for _ in 0..=hashes {
                                    out.push(' ');
                                }
                                i = k;
                                break 'raw;
                            }
                        }
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                } else {
                    out.push('r');
                    i += 1;
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        // An escaped newline (a line continuation) stays
                        // a newline, so line numbers hold.
                        out.push(' ');
                        if i + 1 < b.len() {
                            out.push(if b[i + 1] == '\n' { '\n' } else { ' ' });
                        }
                        i += 2;
                    } else if b[i] == '"' {
                        out.push(' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within a
                // couple of characters ('x', '\n', '\u{...}').
                let close = (i + 2..(i + 12).min(b.len())).find(|&k| b[k] == '\'');
                let is_char = match close {
                    Some(k) => b[i + 1] == '\\' || k == i + 2,
                    None => false,
                };
                if let (true, Some(k)) = (is_char, close) {
                    for _ in i..=k {
                        out.push(' ');
                    }
                    i = k + 1;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Whether `hay[at..]` starts a standalone occurrence of `word`.
fn word_at(hay: &[char], at: usize, word: &str) -> bool {
    let w: Vec<char> = word.chars().collect();
    if at + w.len() > hay.len() || hay[at..at + w.len()] != w[..] {
        return false;
    }
    let wordish = |c: char| c.is_alphanumeric() || c == '_';
    let before_ok = at == 0 || !wordish(hay[at - 1]);
    let after_ok = at + w.len() == hay.len() || !wordish(hay[at + w.len()]);
    before_ok && after_ok
}

/// Lines (1-based) on which `needle` occurs in the stripped text;
/// `word` restricts matches to identifier boundaries.
fn find_lines(stripped: &str, needle: &str, word: bool) -> Vec<usize> {
    let chars: Vec<char> = stripped.chars().collect();
    let first: Vec<char> = needle.chars().collect();
    let mut line = 1;
    let mut out = Vec::new();
    for at in 0..chars.len() {
        if chars[at] == '\n' {
            line += 1;
            continue;
        }
        let hit = if word {
            word_at(&chars, at, needle)
        } else {
            at + first.len() <= chars.len() && chars[at..at + first.len()] == first[..]
        };
        if hit {
            out.push(line);
        }
    }
    out
}

/// The `[section]`-keyed allowlist of repo-relative paths.
type Allowlist = HashMap<String, HashSet<String>>;

fn parse_allowlist(text: &str) -> Allowlist {
    let mut out = Allowlist::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_string();
        } else {
            assert!(!section.is_empty(), "allowlist entry before any [section]");
            // A capped entry's path is its first field.
            let path = line.split_whitespace().next().unwrap_or(line);
            out.entry(section.clone())
                .or_default()
                .insert(path.to_string());
        }
    }
    out
}

/// A rule gated by an allowlist section: `needles` may occur only in
/// the files listed under `[section]`, and every listed file must still
/// contain one (a line that exempts nothing is itself a violation).
struct GatedRule {
    section: &'static str,
    needles: &'static [&'static str],
    /// Whether needles match only at identifier boundaries.
    word: bool,
    /// Path prefixes the rule scans (empty: every file).
    scope: &'static [&'static str],
    /// Whether code after a file's first `#[cfg(test)]` is exempt.
    skip_tests: bool,
    /// Completes "`needle` ..." in a violation.
    complaint: &'static str,
}

/// Rules 1, 2, 4 and 5. Clock reads are matched as whole paths, not as
/// calls: `(..).then(Instant::now)` reads the clock just as
/// `Instant::now()` does.
const GATED_RULES: [GatedRule; 3] = [
    GatedRule {
        section: "unsafe",
        needles: &["unsafe"],
        word: true,
        scope: &[],
        skip_tests: false,
        complaint: "outside the allowlist (add the file to lint-allow.txt [unsafe] \
                    with a safety argument, or remove it)",
    },
    GatedRule {
        section: "clock",
        needles: &["Instant::now", "SystemTime::now"],
        word: true,
        scope: &[],
        skip_tests: false,
        complaint: "read outside a Clock impl (inject a `Clock`, or allowlist under [clock])",
    },
    GatedRule {
        section: "libm",
        needles: &[".tanh()", ".exp()"],
        word: false,
        scope: &[
            "crates/core/src/",
            "crates/backend/src/",
            "crates/models/src/",
            "crates/serve/src/",
            "crates/baselines/src/",
        ],
        skip_tests: true,
        complaint: "outside cortex_tensor::approx (call the shared definition, or \
                    allowlist under [libm])",
    },
];

/// The 1-based line of a file's first `#[cfg(test)]` that opens an
/// inline test module (everything from there on is test code), or
/// `usize::MAX`: its next line that is not an attribute is `mod NAME {`.
/// A `#[cfg(test)]` on anything else — a module declaration (`mod
/// tests;`, whose body is its own file), a field, a block, a function —
/// does not count: the code after it is not test code.
fn test_start(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let opens_module = |after: usize| {
        (lines[after..].iter())
            .find(|l| !l.starts_with("#["))
            .is_some_and(|l| l.starts_with("mod ") && l.ends_with('{'))
    };
    (0..lines.len())
        .find(|&i| lines[i].starts_with("#[cfg(test)]") && opens_module(i + 1))
        .map_or(usize::MAX, |i| i + 1)
}

/// One capped entry: a repo-relative path and its cap (a `[budget]`
/// directory's non-test lines, an `[unsafe]` file's `unsafe` count).
#[derive(Debug, PartialEq)]
struct Cap {
    path: String,
    cap: usize,
}

/// The lines of the allowlist's `[section]`, each with whether a `#`
/// reason line sits directly above it.
fn section_lines<'a>(text: &'a str, section: &str) -> Vec<(&'a str, bool)> {
    let mut lines = Vec::new();
    let (mut inside, mut reasoned) = (false, false);
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            inside = name == section;
        } else if line.starts_with('#') {
            reasoned = true;
            continue;
        } else if inside && !line.is_empty() {
            lines.push((line, reasoned));
        }
        reasoned = false;
    }
    lines
}

/// A violation for an allowlist entry (`what`) with no reason line.
fn unreasoned(section: &str, what: &str, path: &str) -> String {
    format!("lint-allow.txt: [{section}] {what} for {path} has no `#` reason line above it")
}

/// The entries of the allowlist's `[section]`. Every entry must be
/// `<path> <cap>` with a `#` reason line directly above it; each entry
/// that is not is returned as a violation.
fn parse_caps(text: &str, section: &str) -> (Vec<Cap>, Vec<String>) {
    let (mut caps, mut violations) = (Vec::new(), Vec::new());
    for (line, reasoned) in section_lines(text, section) {
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next().map(str::parse), fields.next()) {
            (Some(path), Some(Ok(cap)), None) if reasoned => caps.push(Cap {
                path: path.trim_end_matches('/').to_string(),
                cap,
            }),
            (Some(path), Some(Ok(_)), None) => {
                violations.push(unreasoned(section, "cap", path.trim_end_matches('/')));
            }
            _ => violations.push(format!(
                "lint-allow.txt: [{section}] entry `{line}` is not `<path> <cap>`"
            )),
        }
    }
    (caps, violations)
}

/// The `[surface]` entries, `<path> <name>` or `<path>` (a whole file),
/// each needing a `#` reason line directly above it.
fn parse_surface(text: &str) -> (Vec<(String, Option<String>)>, Vec<String>) {
    let (mut entries, mut violations) = (Vec::new(), Vec::new());
    for (line, reasoned) in section_lines(text, "surface") {
        let mut fields = line.split_whitespace().map(str::to_string);
        let path = fields.next().unwrap_or_default();
        if reasoned {
            entries.push((path, fields.next()));
        } else {
            violations.push(unreasoned("surface", "entry", &path));
        }
    }
    (entries, violations)
}

/// Every `[unsafe]` file with more `unsafe` than its entry allows, as a
/// violation (a listed file that is gone is stale under rule 4).
fn over_unsafe_counts(files: &[(String, String)], counts: &[Cap]) -> Vec<String> {
    let count_of = |path: &String| {
        let (_, text) = files.iter().find(|(rel, _)| rel == path)?;
        Some(find_lines(&strip(text), "unsafe", true).len())
    };
    (counts.iter())
        .filter_map(|Cap { path, cap }| match count_of(path) {
            Some(n) if n > *cap => Some(format!(
                "{path}: {n} `unsafe`, over its [unsafe] count of {cap} (remove one, or raise \
                 the count in lint-allow.txt with the safety argument above it)"
            )),
            _ => None,
        })
        .collect()
}

/// Every directory over its budget, as a violation. The count is the
/// non-test lines of the `.rs` files under the directory, `tests.rs`
/// files excluded; a budget naming no file is stale.
fn over_budget(files: &[(String, String)], budgets: &[Cap]) -> Vec<String> {
    let mut violations = Vec::new();
    for Cap { path: dir, cap } in budgets {
        let prefix = format!("{dir}/");
        let counted: Vec<usize> = (files.iter())
            .filter(|(rel, _)| rel.starts_with(&prefix) && !rel.ends_with("/tests.rs"))
            .map(|(_, text)| text.lines().count().min(test_start(text) - 1))
            .collect();
        let lines: usize = counted.iter().sum();
        if counted.is_empty() {
            violations.push(format!(
                "lint-allow.txt: stale [budget] entry {dir} (no source file under it; delete the line)"
            ));
        } else if lines > *cap {
            violations.push(format!(
                "{dir}: {lines} non-test lines, over its [budget] cap of {cap} (delete code, \
                 or raise the cap in lint-allow.txt with a reason line above it)"
            ));
        }
    }
    violations
}

/// The stripped text with every `use` item (`use …;`, `pub use …;`,
/// `pub(crate) use …;`) blanked: importing a name does not use it.
fn strip_uses(stripped: &str) -> String {
    let mut out = String::with_capacity(stripped.len());
    let mut inside = false;
    for line in stripped.split_inclusive('\n') {
        let item = line.trim_start();
        let item = item.strip_prefix("pub").map_or(item, |rest| {
            let rest = rest.trim_start();
            let rest = rest
                .strip_prefix('(')
                .map_or(rest, |r| r.split_once(')').map_or(r, |p| p.1));
            rest.trim_start()
        });
        inside |= item.starts_with("use ");
        if !inside {
            out.push_str(line);
            continue;
        }
        let blank = line.find(';').map_or(line.len(), |end| {
            inside = false;
            end + 1
        });
        out.extend(
            line[..blank]
                .chars()
                .map(|c| if c == '\n' { c } else { ' ' }),
        );
        out.push_str(&line[blank..]);
    }
    out
}

/// A bare `pub` item's kind and name, if `line` (stripped) declares one:
/// `pub [const|unsafe|async|extern] fn|struct|enum|trait|type|const|static NAME`.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut words = rest
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .peekable();
    let mut kind = words.next()?;
    while matches!(kind, "const" | "unsafe" | "async" | "extern")
        && words
            .peek()
            .is_some_and(|w| matches!(*w, "fn" | "trait" | "unsafe" | "async" | "extern"))
    {
        kind = words.next()?;
    }
    if !matches!(
        kind,
        "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
    ) {
        return None;
    }
    let name = words.next()?;
    let name = if kind == "static" && name == "mut" {
        words.next()?
    } else {
        name
    };
    Some((kind, name))
}

/// The path of `rel` inside its crate's `src/`, if it is under one.
fn crate_src(rel: &str) -> Option<&str> {
    let (_, path) = rel.strip_prefix("crates/")?.split_once('/')?;
    path.strip_prefix("src/")
}

/// Rule 7: every bare `pub` item in a library crate's non-test code
/// (`crates/*/src`, bins and `tests.rs` files excluded) whose name no
/// other file's non-test code mentions. `files` are the crates' sources;
/// `users` are the other files whose code counts (`benchmarks/src`,
/// `examples/`). `use` items are no use, and neither is test code.
/// `allowed` holds the `[surface]` entries, `(path, None)` exempting a
/// whole file; an entry that exempts nothing is stale.
fn unreached_surface(
    files: &[(String, String)],
    users: &[(String, String)],
    allowed: &[(String, Option<String>)],
) -> Vec<String> {
    // The non-test code of every file, stripped of comments, strings
    // and `use` items.
    let code: Vec<(&String, String)> = (files.iter())
        .filter(|(rel, _)| crate_src(rel).is_some())
        .chain(users)
        .filter(|(rel, _)| !rel.ends_with("/tests.rs"))
        .map(|(rel, text)| {
            let stripped = strip(text);
            let end = test_start(text).saturating_sub(1);
            let kept: String = stripped.split_inclusive('\n').take(end).collect();
            (rel, strip_uses(&kept))
        })
        .collect();
    let words: Vec<HashSet<&str>> = (code.iter())
        .map(|(_, text)| {
            (text.split(|c: char| !(c.is_alphanumeric() || c == '_')))
                .filter(|w| !w.is_empty())
                .collect()
        })
        .collect();
    let library = |rel: &str| crate_src(rel).is_some_and(|path| !path.starts_with("bin/"));
    let mut violations = Vec::new();
    let mut used_entries = HashSet::new();
    for (i, (rel, text)) in code.iter().enumerate() {
        if !library(rel) {
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            let Some((kind, name)) = pub_item(line) else {
                continue;
            };
            let reached = (words.iter().enumerate()).any(|(j, w)| j != i && w.contains(name));
            if reached {
                continue;
            }
            let entry = (allowed.iter()).position(|(path, item)| {
                path == *rel && item.as_deref().is_none_or(|item| item == name)
            });
            match entry {
                Some(e) => {
                    used_entries.insert(e);
                }
                None => violations.push(format!(
                    "{rel}:{}: `pub {kind} {name}` is reached from no other file's non-test \
                     code (delete it, narrow it, or allowlist it under [surface] with a reason)",
                    n + 1
                )),
            }
        }
    }
    for (e, (path, item)) in allowed.iter().enumerate() {
        if !used_entries.contains(&e) {
            let what = item
                .as_ref()
                .map_or(String::new(), |name| format!(" {name}"));
            violations.push(format!(
                "lint-allow.txt: stale [surface] entry {path}{what} (it exempts no unreached \
                 `pub` item; delete the line)"
            ));
        }
    }
    violations
}

/// Every violation in `files` (`(repo-relative path, source text)`
/// pairs) under `allow`, each as `path:line: rule`.
fn lint(files: &[(String, String)], allow: &Allowlist) -> Vec<String> {
    let stripped: Vec<String> = files.iter().map(|(_, text)| strip(text)).collect();
    let mut violations = Vec::new();

    let empty = HashSet::new();
    for rule in &GATED_RULES {
        let allowed = allow.get(rule.section).unwrap_or(&empty);
        // Allowlisted files that still contain what they are exempted for.
        let mut live = HashSet::new();
        for ((rel, text), stripped) in files.iter().zip(&stripped) {
            if !rule.scope.is_empty() && !rule.scope.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            let end = if rule.skip_tests {
                test_start(text)
            } else {
                usize::MAX
            };
            for needle in rule.needles {
                let mut lines = find_lines(stripped, needle, rule.word);
                lines.retain(|&l| l < end);
                if !allowed.contains(rel) {
                    for line in lines {
                        violations.push(format!("{rel}:{line}: `{needle}` {}", rule.complaint));
                    }
                } else if !lines.is_empty() {
                    live.insert(rel);
                }
            }
        }
        let mut stale: Vec<&String> = allowed.iter().filter(|p| !live.contains(p)).collect();
        stale.sort();
        for path in stale {
            violations.push(format!(
                "lint-allow.txt: stale [{}] entry {path} (the file is gone or no longer \
                 contains `{}`; delete the line)",
                rule.section,
                rule.needles.join("` / `")
            ));
        }
    }

    for ((rel, text), stripped) in files.iter().zip(&stripped) {
        if !rel.starts_with("crates/serve/src/") {
            continue;
        }
        // Test code is exempt; the request path above it must not panic.
        let test_start = test_start(text);
        for line in find_lines(stripped, ".unwrap()", false) {
            if line < test_start {
                violations.push(format!(
                    "{rel}:{line}: `.unwrap()` in cortex-serve request-path code \
                     (return a typed error instead)"
                ));
            }
        }
    }
    violations
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    // crates/bench -> crates -> repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("repo root")
        .to_path_buf();
    let allow_path = root.join("lint-allow.txt");
    let allow_text = std::fs::read_to_string(&allow_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", allow_path.display()));
    let allow = parse_allowlist(&allow_text);
    let (budgets, mut cap_violations) = parse_caps(&allow_text, "budget");
    let (unsafe_counts, mut count_violations) = parse_caps(&allow_text, "unsafe");
    cap_violations.append(&mut count_violations);
    let (surface, mut surface_violations) = parse_surface(&allow_text);
    cap_violations.append(&mut surface_violations);

    let read_sources = |dir: &str| {
        let mut sources = Vec::new();
        rust_sources(&root.join(dir), &mut sources);
        sources.sort();
        (sources.iter())
            .map(|path| {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                (rel, std::fs::read_to_string(path).expect("readable source"))
            })
            .collect::<Vec<(String, String)>>()
    };
    let files = read_sources("crates");
    let mut users = read_sources("benchmarks/src");
    users.extend(read_sources("examples"));
    let scanned = files.len();
    let mut violations = lint(&files, &allow);
    violations.append(&mut cap_violations);
    violations.extend(over_budget(&files, &budgets));
    violations.extend(over_unsafe_counts(&files, &unsafe_counts));
    violations.extend(unreached_surface(&files, &users, &surface));

    if violations.is_empty() {
        println!("lint: {scanned} files clean");
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("lint: {} violation(s) in {scanned} files", violations.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> (String, String) {
        (rel.to_string(), text.to_string())
    }

    #[test]
    fn function_value_clock_read_is_caught() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "fn f(on: bool) {\n    let t0 = on.then(Instant::now);\n}\n",
            ),
            file(
                "crates/a/src/call.rs",
                "fn g() { std::time::Instant::now(); }",
            ),
            file(
                "crates/a/src/prose.rs",
                "// Instant::now in prose\nfn h() { \"SystemTime::now\"; }",
            ),
        ];
        let violations = lint(&files, &Allowlist::new());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("crates/a/src/lib.rs:2: `Instant::now` read"));
        assert!(violations[1].starts_with("crates/a/src/call.rs:1: `Instant::now` read"));

        let allow = parse_allowlist("[clock]\ncrates/a/src/lib.rs\ncrates/a/src/call.rs\n");
        assert_eq!(lint(&files, &allow), Vec::<String>::new());
    }

    #[test]
    fn platform_transcendentals_are_caught_outside_tests_and_scope() {
        let body = "fn f(x: f32) -> f32 { 1.0 / (1.0 + (-x).exp()) + x.tanh() }\n";
        let files = [
            file("crates/models/src/reference.rs", body),
            file(
                "crates/backend/src/tested.rs",
                &format!("fn g() {{}}\n#[cfg(test)]\nmod tests {{\n{body}}}\n"),
            ),
            file("crates/bench/src/out_of_scope.rs", body),
        ];
        let violations = lint(&files, &Allowlist::new());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("crates/models/src/reference.rs:1: `.tanh()`"));
        assert!(violations[1].starts_with("crates/models/src/reference.rs:1: `.exp()`"));

        let allow = parse_allowlist(
            "[libm]\ncrates/models/src/reference.rs\ncrates/backend/src/tested.rs\n",
        );
        let violations = lint(&files, &allow);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("stale [libm] entry crates/backend/src/tested.rs"));
    }

    #[test]
    fn size_budgets_count_non_test_lines_and_need_a_reason() {
        let files = [
            // 3 lines, then an inline test module: 3 count.
            file(
                "crates/a/src/exec/mod.rs",
                "#[cfg(test)]\nmod tests;\nfn f() {}\n#[cfg(test)]\nmod t {\n}\n",
            ),
            // A test-only field and a test-only block are not test
            // modules: all 9 lines before the module count.
            file(
                "crates/a/src/exec/interp.rs",
                "struct S {\n    #[cfg(test)]\n    dots: u64,\n}\nfn g() {\n    #[cfg(test)]\n    \
                 {}\n}\nfn h() {}\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n}\n",
            ),
            // A test file counts nothing, wherever it sits.
            file("crates/a/src/exec/tests.rs", "fn t() {}\nfn u() {}\n"),
            file("crates/a/src/exec/deep/run.rs", "fn g() {}\nfn h() {}\n"),
            file("crates/a/src/other.rs", "fn o() {}\n"),
        ];
        let check = |table: &str| {
            let (budgets, mut violations) = parse_caps(table, "budget");
            violations.extend(over_budget(&files, &budgets));
            violations
        };
        assert_eq!(
            check("[budget]\n# why\ncrates/a/src/exec 14\n"),
            Vec::<String>::new()
        );
        let over = check("[budget]\n# why\ncrates/a/src/exec/ 13\n");
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0]
            .starts_with("crates/a/src/exec: 14 non-test lines, over its [budget] cap of 13"));
        let bare = check("[budget]\n# why\ncrates/a/src/exec 14\ncrates/a/src 9\nnonsense\n");
        assert_eq!(bare.len(), 2, "{bare:?}");
        assert!(bare[0].contains("cap for crates/a/src has no `#` reason line"));
        assert!(bare[1].contains("entry `nonsense` is not `<path> <cap>`"));
        let stale = check("[budget]\n# gone\ncrates/b/src 1\n");
        assert!(
            stale[0].contains("stale [budget] entry crates/b/src"),
            "{stale:?}"
        );
        // Entries of other sections are not budgets.
        assert_eq!(
            parse_caps("[clock]\ncrates/a/src/other.rs\n", "budget").0,
            Vec::new()
        );
    }

    #[test]
    fn unsafe_counts_cap_each_file_and_need_a_reason() {
        let files = [file(
            "crates/a/src/live.rs",
            "fn f() { unsafe { g() } }\n// unsafe in prose\nfn h() { unsafe { g() } }\n",
        )];
        let check = |table: &str| {
            let (counts, mut violations) = parse_caps(table, "unsafe");
            violations.extend(over_unsafe_counts(&files, &counts));
            violations.extend(lint(&files, &parse_allowlist(table)));
            violations
        };
        assert_eq!(
            check("[unsafe]\n# why\ncrates/a/src/live.rs 2\n"),
            Vec::<String>::new()
        );
        let over = check("[unsafe]\n# why\ncrates/a/src/live.rs 1\n");
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(
            over[0].starts_with("crates/a/src/live.rs: 2 `unsafe`, over its [unsafe] count of 1")
        );
        let bare = check("[unsafe]\ncrates/a/src/live.rs 2\n# why\ncrates/a/src/live.rs\n");
        assert_eq!(bare.len(), 2, "{bare:?}");
        assert!(bare[0].contains("[unsafe] cap for crates/a/src/live.rs has no `#` reason line"));
        assert!(bare[1].contains("[unsafe] entry `crates/a/src/live.rs` is not `<path> <cap>`"));
    }

    #[test]
    fn stale_allowlist_entry_is_caught() {
        let files = [
            file("crates/a/src/live.rs", "fn f() { unsafe { g() } }"),
            file("crates/a/src/cleaned.rs", "fn f() { g() }"),
        ];
        let allow = parse_allowlist(
            "[unsafe]\ncrates/a/src/live.rs\ncrates/a/src/cleaned.rs\ncrates/a/src/deleted.rs\n\
             [clock]\ncrates/a/src/live.rs\n",
        );
        let violations = lint(&files, &allow);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("stale [unsafe] entry crates/a/src/cleaned.rs"));
        assert!(violations[1].contains("stale [unsafe] entry crates/a/src/deleted.rs"));
        assert!(violations[2].contains("stale [clock] entry crates/a/src/live.rs"));
    }

    /// The `[surface]` findings for `files` (crate sources) and `users`
    /// (`benchmarks/src`, `examples/`) under the allowlist `table`.
    fn surface(files: &[(String, String)], users: &[(String, String)], table: &str) -> Vec<String> {
        let (entries, mut violations) = parse_surface(table);
        violations.extend(unreached_surface(files, users, &entries));
        violations
    }

    const LIB: &str = "pub fn lonely() {}\npub(crate) fn narrow() {}\nfn private() {}\n";

    #[test]
    fn an_unreached_pub_fn_is_flagged() {
        let files = [file("crates/a/src/lib.rs", LIB)];
        let found = surface(&files, &[], "");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("crates/a/src/lib.rs:1: `pub fn lonely` is reached from no"));
    }

    #[test]
    fn a_user_in_another_crate_or_the_benchmark_passes() {
        let files = [
            file("crates/a/src/lib.rs", LIB),
            file("crates/b/src/lib.rs", "fn f() { a::lonely(); }\n"),
        ];
        assert_eq!(surface(&files, &[], ""), Vec::<String>::new());
        let bench = [file(
            "benchmarks/src/main.rs",
            "fn main() { a::lonely(); }\n",
        )];
        let files = [file("crates/a/src/lib.rs", LIB)];
        assert_eq!(surface(&files, &bench, ""), Vec::<String>::new());
        // A bin of the crate itself is a user too.
        let files = [
            file("crates/a/src/lib.rs", LIB),
            file("crates/a/src/bin/tool.rs", "fn main() { a::lonely(); }\n"),
        ];
        assert_eq!(surface(&files, &[], ""), Vec::<String>::new());
    }

    #[test]
    fn a_user_only_in_tests_does_not_count() {
        let files = [
            file("crates/a/src/lib.rs", LIB),
            file(
                "crates/b/src/lib.rs",
                "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { a::lonely(); }\n}\n",
            ),
            file("crates/b/src/exec/tests.rs", "fn t() { a::lonely(); }\n"),
            file("crates/b/tests/it.rs", "fn t() { a::lonely(); }\n"),
            file(
                "crates/b/src/prose.rs",
                "// a::lonely() in prose\nfn g() { \"lonely\"; }\n",
            ),
        ];
        assert_eq!(surface(&files, &[], "").len(), 1);
    }

    #[test]
    fn a_use_item_does_not_count() {
        let files = [
            file("crates/a/src/lib.rs", LIB),
            file(
                "crates/b/src/lib.rs",
                "use a::lonely;\npub use a::{\n    lonely as alone,\n};\nfn f() {}\n",
            ),
        ];
        assert_eq!(surface(&files, &[], "").len(), 1);
    }

    #[test]
    fn surface_allowlist_lines_need_a_reason_and_must_exempt_something() {
        let files = [file("crates/a/src/lib.rs", LIB)];
        let reasoned = "[surface]\n# why\ncrates/a/src/lib.rs lonely\n";
        assert_eq!(surface(&files, &[], reasoned), Vec::<String>::new());
        let whole = "[surface]\n# test support\ncrates/a/src/lib.rs\n";
        assert_eq!(surface(&files, &[], whole), Vec::<String>::new());

        let bare = surface(&files, &[], "[surface]\ncrates/a/src/lib.rs lonely\n");
        assert_eq!(bare.len(), 2, "{bare:?}");
        assert!(bare[0].contains("[surface] entry for crates/a/src/lib.rs has no `#` reason line"));
        assert!(bare[1].starts_with("crates/a/src/lib.rs:1: `pub fn lonely`"));

        let stale = surface(
            &files,
            &[],
            "[surface]\n# why\ncrates/a/src/lib.rs lonely\n# gone\ncrates/a/src/lib.rs narrow\n",
        );
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].contains("stale [surface] entry crates/a/src/lib.rs narrow"));
    }
}
