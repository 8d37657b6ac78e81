//! Rule definitions and the per-file / per-manifest checkers.
//!
//! Every rule reports [`Finding`]s keyed by a stable rule name; a finding
//! can be suppressed by an `// sbx-lint: allow(<rule>, <reason>)` marker on
//! the same line or the line directly above. Markers that suppress nothing
//! are themselves findings (`unused-allow`), so stale justifications cannot
//! accumulate.
//!
//! Every token rule applies **workspace-wide by default**. The rules in
//! [`SCOPED_RULES`] can be opted out of per file with a
//! `// sbx-lint: out-of-scope(<rule>, <reason>)` declaration at the top of
//! the file — so a file's lint scope is visible in the file itself rather
//! than in a central path list here.
//!
//! | rule              | opt-out? | what it flags |
//! |-------------------|----------|---------------|
//! | `raw-alloc`       | yes      | `Vec::with_capacity`, `with_capacity`, `vec![..]`, `Box::new`, `.collect()` (hot paths allocate from simmem pools) |
//! | `wall-clock`      | no       | `Instant`, `SystemTime`, `thread::sleep` |
//! | `hash-iter`       | yes      | `HashMap` / `HashSet` (default hasher ⇒ nondeterministic iteration) |
//! | `no-panic`        | yes      | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `atomic-ordering` | yes      | bare `Ordering::Relaxed` (counter modules opt out; anything else must justify the site) |
//! | `libm`            | yes      | `.ln(`, `.log2(`, `.log10(`, `.exp(`, `.exp2(`, `.powf(` (the platform's `libm`; simulated time uses `sbx_prng::math`) |
//! | `no-adhoc-io`     | no       | `println!`, `eprintln!`, `print!`, `eprint!`, `dbg!` (report through sbx-obs instead) |
//! | `unsafe-forbid`   | no       | crate root (`lib.rs` / `main.rs`) missing `#![forbid(unsafe_code)]` |
//! | `dep-allowlist`   | no       | `Cargo.toml` dependencies outside the approved set |
//! | `unused-allow`    | no       | allow markers that suppress no finding, and `out-of-scope` markers naming rules that have no scope to leave |
//!
//! Reporting binaries whose whole purpose is stdout (the `sbx` CLI, the
//! bench tables, sbx-lint's own `main.rs`) escape `no-adhoc-io` with one
//! file-wide `// sbx-lint: allow-file(no-adhoc-io, <reason>)` marker.

// sbx-lint: out-of-scope(raw-alloc, host-side lint tool; not engine code)
use crate::lexer::{scan, Token};
use std::fmt;

/// One rule violation at a specific location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name (also the marker name that suppresses it).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Dependencies any workspace manifest may declare, besides in-tree
/// `sbx-*` path crates. (These were the upstream choices before the
/// workspace went fully hermetic; nothing outside this set may sneak in.)
pub const ALLOWED_DEPS: &[&str] = &[
    "rand",
    "proptest",
    "criterion",
    "crossbeam",
    "parking_lot",
    "bytes",
    "serde",
];

/// Names whose call as a method (`.name(`) is a `no-panic` violation.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Macros (`name!`) that are `no-panic` violations.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Float methods (`.name(`) whose last bits depend on the platform's `libm`.
const LIBM_METHODS: &[&str] = &["ln", "log2", "log10", "exp", "exp2", "powf"];
/// Macros (`name!`) that are `no-adhoc-io` violations: ad-hoc stdout/stderr
/// writes bypass the sbx-obs metrics/trace exports and make runs noisy and
/// nondeterministic to diff.
const ADHOC_IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Rules that apply workspace-wide by default but that a file may leave
/// entirely with an `// sbx-lint: out-of-scope(<rule>, <reason>)`
/// declaration. An `out-of-scope` marker naming any other rule is itself
/// an `unused-allow` finding.
pub const SCOPED_RULES: &[&str] = &[
    "raw-alloc",
    "hash-iter",
    "no-panic",
    "atomic-ordering",
    "libm",
];

/// Runs every token-level rule against one source file.
///
/// `rel` is the workspace-relative path (used for scope decisions and in
/// findings); `src` is the file contents. Returns surviving findings after
/// marker suppression, including `unused-allow` findings for markers that
/// suppressed nothing.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let scanned = scan(src);
    let toks = &scanned.tokens;
    let mut raw: Vec<Finding> = Vec::new();

    // A scoped rule applies unless the file declares itself out of scope.
    let in_scope = |rule: &str| !scanned.markers.iter().any(|m| m.opt_out && m.rule == rule);
    let raw_alloc = in_scope("raw-alloc");
    let hash_iter = in_scope("hash-iter");
    let no_panic = in_scope("no-panic");
    let atomic_ordering = in_scope("atomic-ordering");
    let libm = in_scope("libm");

    let finding = |rule: &'static str, line: u32, message: String| Finding {
        rule,
        file: rel.to_string(),
        line,
        message,
    };

    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }

        // wall-clock: applies everywhere.
        match t.text.as_str() {
            "Instant" | "SystemTime" => {
                raw.push(finding(
                    "wall-clock",
                    t.line,
                    format!(
                        "`{}` breaks determinism; use the simulated clock \
                         (sbx_simmem) or mark a justified host-timing site",
                        t.text
                    ),
                ));
            }
            "sleep" if is_path_or_method(toks, i) => {
                raw.push(finding(
                    "wall-clock",
                    t.line,
                    "`sleep` breaks determinism; engine time must come from \
                     the simulated clock"
                        .to_string(),
                ));
            }
            _ => {}
        }

        // no-adhoc-io: applies everywhere; reporting binaries carry a
        // file-wide allow-file marker.
        if ADHOC_IO_MACROS.contains(&t.text.as_str()) && is_macro_invocation(toks, i) {
            raw.push(finding(
                "no-adhoc-io",
                t.line,
                format!(
                    "`{}!` is ad-hoc stdout/stderr I/O; record through the \
                     sbx-obs registry or justify a reporting site",
                    t.text
                ),
            ));
        }

        // hash-iter: workspace-wide, opt out per file.
        if hash_iter && (t.text == "HashMap" || t.text == "HashSet") {
            raw.push(finding(
                "hash-iter",
                t.line,
                format!(
                    "`{}` iterates in hasher order; use BTreeMap/BTreeSet or \
                     justify a lookup-only map with an allow marker",
                    t.text
                ),
            ));
        }

        // atomic-ordering: workspace-wide, opt out per file (counter
        // modules). A bare relaxed access provides no happens-before edge,
        // so any site outside a counter module must say why that is fine.
        if atomic_ordering && t.text == "Relaxed" && follows_path(toks, i, "Ordering") {
            raw.push(finding(
                "atomic-ordering",
                t.line,
                "`Ordering::Relaxed` provides no happens-before edge; \
                 justify the site with an allow marker or use a stronger \
                 ordering"
                    .to_string(),
            ));
        }

        // libm: workspace-wide, opt out per file (host-side tables).
        if libm && LIBM_METHODS.contains(&t.text.as_str()) && is_method_call(toks, i) {
            let msg = format!("`.{}()` differs across libms; use `sbx_prng::math`", t.text);
            raw.push(finding("libm", t.line, msg));
        }

        // no-panic: workspace-wide, opt out per file.
        if no_panic {
            if PANIC_METHODS.contains(&t.text.as_str()) && is_method_call(toks, i) {
                raw.push(finding(
                    "no-panic",
                    t.line,
                    format!("`.{}()` in engine code; propagate a Result instead", t.text),
                ));
            }
            if PANIC_MACROS.contains(&t.text.as_str()) && is_macro_invocation(toks, i) {
                raw.push(finding(
                    "no-panic",
                    t.line,
                    format!("`{}!` in engine code; return an error instead", t.text),
                ));
            }
        }

        // raw-alloc: workspace-wide, opt out per file (cold paths).
        if raw_alloc {
            match t.text.as_str() {
                "with_capacity" if is_path_or_method(toks, i) => {
                    raw.push(finding(
                        "raw-alloc",
                        t.line,
                        "raw `with_capacity` allocation in a hot-path module; \
                         allocate from a simmem pool or justify bounded scratch"
                            .to_string(),
                    ));
                }
                "vec" if is_macro_invocation(toks, i) => {
                    raw.push(finding(
                        "raw-alloc",
                        t.line,
                        "`vec![..]` allocation in a hot-path module; allocate \
                         from a simmem pool or justify bounded scratch"
                            .to_string(),
                    ));
                }
                "new" if follows_path(toks, i, "Box") => {
                    raw.push(finding(
                        "raw-alloc",
                        t.line,
                        "`Box::new` heap allocation in a hot-path module; \
                         justify or restructure"
                            .to_string(),
                    ));
                }
                "collect" if is_method_call(toks, i) => {
                    raw.push(finding(
                        "raw-alloc",
                        t.line,
                        "growing `.collect()` in a hot-path module; \
                         preallocate from a pool or justify bounded scratch"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }

    apply_markers(raw, &scanned.markers, rel)
}

/// Checks a crate root for `#![forbid(unsafe_code)]`.
pub fn lint_crate_root(rel: &str, src: &str) -> Vec<Finding> {
    let toks = scan(src).tokens;
    const WANT: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let present = toks
        .windows(WANT.len())
        .any(|w| w.iter().zip(WANT.iter()).all(|(t, want)| t.text == *want));
    if present {
        Vec::new()
    } else {
        vec![Finding {
            rule: "unsafe-forbid",
            file: rel.to_string(),
            line: 1,
            message: "crate root must carry `#![forbid(unsafe_code)]`".to_string(),
        }]
    }
}

/// Checks one `Cargo.toml` against the dependency allowlist.
///
/// A minimal line-oriented TOML reader: tracks the current `[section]` and,
/// inside any `*dependencies*` section, takes the key of each `name = ...`
/// line as a dependency name. In-tree `sbx-*` crates, the root package's
/// own name, and anything in [`ALLOWED_DEPS`] pass; everything else is a
/// `dep-allowlist` finding.
pub fn lint_manifest(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_deps = false;
    for (idx, raw_line) in src.lines().enumerate() {
        let line = raw_line.trim();
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        // `foo = "1"`, `foo = { .. }`, `foo.workspace = true`,
        // `foo.path = ".."` all key on the first dotted segment.
        let key = line[..eq].trim();
        let name = key.split('.').next().unwrap_or(key).trim_matches('"');
        if name.is_empty() {
            continue;
        }
        let ok = name.starts_with("sbx-")
            || name.starts_with("sbx_")
            || name == "streambox-hbm"
            || ALLOWED_DEPS.contains(&name);
        if !ok {
            findings.push(Finding {
                rule: "dep-allowlist",
                file: rel.to_string(),
                line: (idx + 1) as u32,
                message: format!(
                    "dependency `{name}` is outside the allowed set \
                     (in-tree sbx-* crates plus {ALLOWED_DEPS:?})"
                ),
            });
        }
    }
    findings
}

/// Suppresses findings covered by a marker on the same or previous line
/// (or anywhere in the file, for `allow-file` markers), then reports any
/// marker that suppressed nothing.
///
/// `out-of-scope` markers are scope declarations, not suppressions: they
/// already took effect before the rules ran, so they are exempt from the
/// unused check — but one naming a rule outside [`SCOPED_RULES`] is
/// reported, since it declares an exit from a scope that does not exist.
fn apply_markers(
    raw: Vec<Finding>,
    markers: &[crate::lexer::AllowMarker],
    rel: &str,
) -> Vec<Finding> {
    let mut used = vec![false; markers.len()];
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for (mi, m) in markers.iter().enumerate() {
            if m.opt_out {
                continue;
            }
            let covers = m.file_wide || m.line == f.line || m.line + 1 == f.line;
            if m.rule == f.rule && covers {
                used[mi] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for (mi, m) in markers.iter().enumerate() {
        if m.opt_out {
            if !SCOPED_RULES.contains(&m.rule.as_str()) {
                out.push(Finding {
                    rule: "unused-allow",
                    file: rel.to_string(),
                    line: m.line,
                    message: format!(
                        "out-of-scope({}) names a rule without a per-file \
                         scope; only {SCOPED_RULES:?} can be opted out of",
                        m.rule
                    ),
                });
            }
            continue;
        }
        if !used[mi] {
            out.push(Finding {
                rule: "unused-allow",
                file: rel.to_string(),
                line: m.line,
                message: format!(
                    "allow({}) marker suppresses nothing; remove it or move it \
                     next to the site it justifies",
                    m.rule
                ),
            });
        }
    }
    out
}

/// True if token `i` is called as a method: preceded by `.`.
fn is_method_call(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].text == "."
}

/// True if token `i` is invoked as a macro: followed by `!`.
fn is_macro_invocation(toks: &[Token], i: usize) -> bool {
    i + 1 < toks.len() && toks[i + 1].text == "!"
}

/// True if token `i` is reached through `.` or `::` (method or path call).
fn is_path_or_method(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    if toks[i - 1].text == "." {
        return true;
    }
    i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":"
}

/// True if token `i` is `head::<tok i>` for the given path head.
fn follows_path(toks: &[Token], i: usize, head: &str) -> bool {
    i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" && toks[i - 3].text == head
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/kpa/src/sort.rs";
    const ENGINE: &str = "crates/core/src/engine.rs";
    const NEUTRAL: &str = "crates/bench/src/fig2.rs";

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- no-panic -------------------------------------------------------

    #[test]
    fn no_panic_flags_unwrap_expect_and_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); panic!(\"boom\"); \
                   unreachable!(); todo!(); }";
        let f = lint_source(ENGINE, src);
        assert_eq!(f.len(), 5);
        assert!(f.iter().all(|f| f.rule == "no-panic"));
    }

    #[test]
    fn scoped_rules_apply_on_any_path_by_default() {
        // No central path list: every file is in every scoped rule's scope
        // until it declares otherwise.
        let src = "fn f() { x.unwrap(); let v = it.collect(); let m: HashMap<u8, u8>; }";
        for rel in [
            "crates/checkpoint/src/lib.rs",
            "crates/pool/src/lib.rs",
            "crates/bench/src/fig7.rs",
            "src/bin/sbx.rs",
        ] {
            let rules = rules_of(&lint_source(rel, src));
            assert!(rules.contains(&"no-panic"), "{rel}");
            assert!(rules.contains(&"raw-alloc"), "{rel}");
            assert!(rules.contains(&"hash-iter"), "{rel}");
        }
    }

    #[test]
    fn out_of_scope_marker_disables_one_rule_file_wide() {
        let src = "// sbx-lint: out-of-scope(no-panic, bench table; a panic aborts the run)\n\
                   fn f() { x.unwrap(); let v = it.collect(); }\nfn g() { y.expect(\"m\"); }";
        let rules = rules_of(&lint_source(NEUTRAL, src));
        assert!(!rules.contains(&"no-panic"), "{rules:?}");
        // Only the named rule leaves scope.
        assert!(rules.contains(&"raw-alloc"), "{rules:?}");
    }

    #[test]
    fn out_of_scope_of_unscoped_rule_is_reported() {
        // wall-clock has no per-file scope to leave.
        let src = "// sbx-lint: out-of-scope(wall-clock, wishful thinking)\nfn f() {}";
        let f = lint_source(NEUTRAL, src);
        assert_eq!(rules_of(&f), vec!["unused-allow"]);
        assert!(f[0].message.contains("wall-clock"));
    }

    #[test]
    fn out_of_scope_marker_is_not_unused_allow() {
        // A file may declare itself cold before any violation exists.
        let src = "// sbx-lint: out-of-scope(raw-alloc, cold path)\nfn f() {}";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    #[test]
    fn no_panic_ignores_tests_and_lookalikes() {
        // unwrap_or_else is a distinct identifier; unwrap in test code is
        // fine.
        let clean = "fn f() { x.unwrap_or_else(PoisonError::into_inner); }\n\
                     #[cfg(test)] mod t { fn g() { x.unwrap(); } }";
        assert!(lint_source(ENGINE, clean).is_empty());
    }

    // --- raw-alloc ------------------------------------------------------

    #[test]
    fn raw_alloc_flags_each_pattern_in_hot_path() {
        let src = "fn f() { let a = Vec::with_capacity(4); let b = vec![0; 4];\n\
                   let c = Box::new(7); let d = it.collect(); }";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec!["raw-alloc"; 4]);
    }

    #[test]
    fn raw_alloc_passes_pool_based_code_and_opted_out_cold_path() {
        let pool = "fn f(p: &MemPool) -> Result<(), AllocError> {\n\
                    let b = p.alloc_u64(64, Priority::Normal)?; Ok(()) }";
        assert!(lint_source(HOT, pool).is_empty());
        let cold = "// sbx-lint: out-of-scope(raw-alloc, engine setup; runs once per pipeline)\n\
                    fn f() { let a = Vec::with_capacity(4); }";
        assert!(lint_source("crates/core/src/engine.rs", cold).is_empty());
    }

    #[test]
    fn raw_alloc_marker_suppresses_with_reason() {
        let src = "// sbx-lint: allow(raw-alloc, bounded scratch freed on return)\n\
                   fn f() { let a = Vec::with_capacity(4); }";
        assert!(lint_source(HOT, src).is_empty());
    }

    // --- wall-clock -----------------------------------------------------

    #[test]
    fn wall_clock_flags_instant_systemtime_sleep() {
        let src = "use std::time::{Instant, SystemTime};\n\
                   fn f() { let t = Instant::now(); std::thread::sleep(d); }";
        let f = lint_source(NEUTRAL, src);
        assert_eq!(f.iter().filter(|f| f.rule == "wall-clock").count(), 4);
    }

    #[test]
    fn wall_clock_passes_simulated_clock_code() {
        let src = "fn f(env: &MemEnv) { let now = env.monitor().now_ns(); }";
        assert!(lint_source(ENGINE, src).is_empty());
        // A field or variable named `sleep` is not a call through a path.
        assert!(lint_source(ENGINE, "fn f() { let sleep = 3; }").is_empty());
    }

    #[test]
    fn wall_clock_marker_allowlists_bench_site() {
        let src = "use std::time::Instant; // sbx-lint: allow(wall-clock, host microbench)\n\
                   fn f() {}";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    // --- libm -----------------------------------------------------------

    #[test]
    fn libm_flags_float_methods_outside_tests_and_scope() {
        let src = "fn f(x: f64) -> f64 { x.ln() + x.log2() + x.log10() + x.exp() \
                   + x.exp2() + x.powf(0.5) + ln(x) + x.sqrt() }";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec!["libm"; 6]);
        let tests = "#[cfg(test)]\nmod tests { fn f(x: f64) -> f64 { x.ln() } }";
        assert!(lint_source(HOT, tests).is_empty());
        let table = "// sbx-lint: out-of-scope(libm, host-side reference sampler)\n\
                     fn f(x: f64) -> f64 { x.powf(0.5) }";
        assert!(lint_source(NEUTRAL, table).is_empty());
    }

    // --- hash-iter ------------------------------------------------------

    #[test]
    fn hash_iter_flags_hashmap_in_engine_crates() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u64, u64>) {}";
        let f = lint_source(ENGINE, src);
        assert_eq!(f.iter().filter(|f| f.rule == "hash-iter").count(), 2);
    }

    #[test]
    fn hash_iter_passes_btreemap_and_opted_out_files() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u64, u64>) {}";
        assert!(lint_source(ENGINE, src).is_empty());
        let src = "// sbx-lint: out-of-scope(hash-iter, lookup-only caches; never iterated)\n\
                   use std::collections::HashMap;\nfn f(m: &HashMap<u64, u64>) {}";
        assert!(lint_source(NEUTRAL, src).is_empty());
    }

    // --- atomic-ordering ------------------------------------------------

    #[test]
    fn atomic_ordering_flags_bare_relaxed() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); \
                   let v = c.load(Ordering::Relaxed); }";
        let f = lint_source(ENGINE, src);
        assert_eq!(rules_of(&f), vec!["atomic-ordering"; 2]);
    }

    #[test]
    fn atomic_ordering_passes_stronger_orderings_and_lookalikes() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Acquire); \
                   c.store(0, Ordering::Release); c.fetch_add(1, Ordering::AcqRel); \
                   let Relaxed = 3; m.insert(Relaxed, 4); }";
        assert!(lint_source(ENGINE, src).is_empty());
    }

    #[test]
    fn atomic_ordering_marker_justifies_a_site() {
        let src = "// sbx-lint: allow(atomic-ordering, monotonic id counter; uniqueness only)\n\
                   fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(lint_source(ENGINE, src).is_empty());
    }

    #[test]
    fn atomic_ordering_counter_modules_opt_out() {
        let src = "// sbx-lint: out-of-scope(atomic-ordering, counter module; relaxed \
                   increments aggregated at quiescence)\n\
                   fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(lint_source("crates/obs/src/metrics.rs", src).is_empty());
    }

    // --- no-adhoc-io ----------------------------------------------------

    #[test]
    fn no_adhoc_io_flags_print_macros_everywhere() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); print!(\"z\"); \
                   eprint!(\"w\"); dbg!(q); }";
        for rel in [ENGINE, NEUTRAL, "src/bin/sbx.rs"] {
            let f = lint_source(rel, src);
            assert_eq!(
                f.iter().filter(|f| f.rule == "no-adhoc-io").count(),
                5,
                "{rel}: {f:?}"
            );
        }
    }

    #[test]
    fn no_adhoc_io_ignores_tests_and_lookalikes() {
        // `println` as a plain identifier (no `!`) and prints inside test
        // code are fine; writeln! to an owned buffer is fine.
        let src = "fn f(w: &mut String) { writeln!(w, \"x\").ok(); let println = 3; }\n\
                   #[cfg(test)] mod t { fn g() { println!(\"dbg\"); } }";
        assert!(lint_source(ENGINE, src).is_empty());
    }

    #[test]
    fn no_adhoc_io_file_wide_marker_covers_all_sites() {
        let src = "// sbx-lint: allow-file(no-adhoc-io, reporting binary)\n\
                   fn f() { println!(\"a\"); }\nfn g() { eprintln!(\"b\"); }";
        assert!(lint_source(NEUTRAL, src).is_empty());
        // A line-scoped marker only covers its own/next line.
        let partial = "// sbx-lint: allow(no-adhoc-io, one-off banner)\n\
                       fn f() { println!(\"a\"); }\nfn g() { eprintln!(\"b\"); }";
        let f = lint_source(NEUTRAL, partial);
        assert_eq!(f.iter().filter(|f| f.rule == "no-adhoc-io").count(), 1);
    }

    #[test]
    fn unused_file_wide_marker_is_reported() {
        let src = "// sbx-lint: allow-file(no-adhoc-io, nothing here prints)\nfn f() {}";
        let f = lint_source(NEUTRAL, src);
        assert_eq!(rules_of(&f), vec!["unused-allow"]);
    }

    #[test]
    fn obs_crate_is_in_engine_scopes() {
        let f = lint_source(
            "crates/obs/src/metrics.rs",
            "fn f() { x.unwrap(); let m: HashMap<u8, u8>; }",
        );
        let rules = rules_of(&f);
        assert!(rules.contains(&"no-panic"));
        assert!(rules.contains(&"hash-iter"));
    }

    // --- unsafe-forbid --------------------------------------------------

    #[test]
    fn unsafe_forbid_requires_the_attribute() {
        let missing = "//! A crate.\npub fn f() {}";
        let f = lint_crate_root("crates/x/src/lib.rs", missing);
        assert_eq!(rules_of(&f), vec!["unsafe-forbid"]);
        let present = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(lint_crate_root("crates/x/src/lib.rs", present).is_empty());
    }

    // --- dep-allowlist --------------------------------------------------

    #[test]
    fn dep_allowlist_flags_unknown_dependency() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1\"\n\
                    libc = \"0.2\"\nsbx-simmem = { path = \"../simmem\" }\n";
        let f = lint_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "dep-allowlist");
        assert!(f[0].message.contains("libc"));
    }

    #[test]
    fn dep_allowlist_passes_empty_and_in_tree_deps() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\n\
                    sbx-prng.workspace = true\n[dev-dependencies]\n";
        assert!(lint_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    // --- unused-allow / marker mechanics --------------------------------

    #[test]
    fn unused_marker_is_reported() {
        let src = "// sbx-lint: allow(no-panic, stale justification)\nfn f() {}";
        let f = lint_source(ENGINE, src);
        assert_eq!(rules_of(&f), vec!["unused-allow"]);
    }

    #[test]
    fn marker_for_wrong_rule_does_not_suppress() {
        let src = "// sbx-lint: allow(raw-alloc, wrong rule)\nfn f() { x.unwrap(); }";
        let f = lint_source(ENGINE, src);
        let rules = rules_of(&f);
        assert!(rules.contains(&"no-panic"));
        assert!(rules.contains(&"unused-allow"));
    }
}
