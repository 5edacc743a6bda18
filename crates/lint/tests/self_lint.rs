//! Self-application: `srclint` must run clean on the workspace that
//! ships it — including this lint crate itself — and must do so inside
//! its runtime budget. The honesty guards assert the workspace scan
//! actually armed the knob pass (a tree without config structs reports
//! zero), that the panic-source gate, which clippy enforces, is still
//! declared where the cycle and the event loop run and is not silenced
//! there more widely than one function at a time, and that clippy's
//! determinism bans (clock reads, hash collections, concurrency) are still
//! configured and vouched for only at the measurement sites.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lint::{SourceFile, TokenKind};

fn workspace() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "measurement site: the scan's own runtime budget"
)]
fn srclint_is_clean_on_its_own_workspace() {
    let root = workspace();
    let t0 = Instant::now();
    let report = lint::lint_workspace(&root).expect("workspace scan");
    let elapsed = t0.elapsed();

    assert!(
        report.diagnostics.is_empty(),
        "srclint findings on its own workspace:\n{}",
        lint::render_pretty(&report.diagnostics)
    );
    // Honesty guards: the scan must have found the config structs —
    // otherwise "clean" would mean "disarmed".
    assert!(
        report.knob_fields_checked >= 60,
        "L011 checked only {} knob fields",
        report.knob_fields_checked
    );
    assert!(
        report.files_scanned >= 80,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(report.tokens_scanned > 100_000, "{}", report.tokens_scanned);

    // Runtime budget: <2s is asserted in CI against the release binary;
    // here allow debug-build headroom while still catching regressions
    // that would blow the release budget.
    let budget = if cfg!(debug_assertions) { 20.0 } else { 2.0 };
    assert!(
        elapsed.as_secs_f64() < budget,
        "workspace scan took {:.2}s (budget {budget}s)",
        elapsed.as_secs_f64()
    );
}

/// The panic sources clippy denies where the cycle and the event loop run.
const PANIC_LINTS: [&str; 8] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
    "allow_attributes_without_reason",
];

/// The files that declare the denials (a crate root covers its `src`
/// tree, a module itself), and whether each denies `float_cmp` too, as
/// L009's type-aware net.
const GUARDED: [(&str, bool); 8] = [
    ("crates/cluster/src/lib.rs", true),
    ("crates/core/src/lib.rs", true),
    ("crates/milp/src/lib.rs", true),
    ("crates/service/src/lib.rs", false),
    ("crates/sim/src/lib.rs", false),
    ("crates/strl/src/lib.rs", false),
    ("crates/lint/src/certify.rs", false),
    ("crates/lint/src/strl_lint.rs", false),
];

fn parse(path: &Path) -> SourceFile {
    let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    SourceFile::parse(&path.display().to_string(), bytes)
}

/// A `deny`, `allow` or `expect` in an attribute (through a `cfg_attr`),
/// the identifiers it names, and the sig index past the attribute's `]`.
struct LintAttr {
    inner: bool,
    level: String,
    names: Vec<String>,
    end: usize,
}

/// The sig index of the `r` that closes the `l` at `open`, or the end.
fn closing(f: &SourceFile, open: usize, l: &str, r: &str) -> usize {
    let mut depth = 0;
    let close = (open..f.sig.len()).find(|&j| {
        depth += usize::from(f.is_punct(j, l));
        depth -= usize::from(f.is_punct(j, r));
        depth == 0
    });
    close.unwrap_or(f.sig.len())
}

fn lint_attrs(f: &SourceFile) -> Vec<LintAttr> {
    let mut out = Vec::new();
    for i in 0..f.sig.len() {
        let inner = f.is_punct(i + 1, "!");
        let open = i + 1 + usize::from(inner);
        if !(f.is_punct(i, "#") && f.is_punct(open, "[")) {
            continue;
        }
        let close = closing(f, open, "[", "]");
        for j in open + 1..close {
            let level = f.sig_text(j).into_owned();
            if matches!(level.as_str(), "deny" | "allow" | "expect") && f.is_punct(j + 1, "(") {
                let args = j + 2..closing(f, j + 1, "(", ")");
                let names = args.filter(|&k| f.sig_kind(k) == TokenKind::Ident);
                let names = names.map(|k| f.sig_text(k).into_owned()).collect();
                out.push(LintAttr {
                    inner,
                    level,
                    names,
                    end: close + 1,
                });
            }
        }
    }
    out
}

/// Whether an outer attribute sits on a function: the first `fn`, `{` or
/// `;` after it tells its item.
fn on_fn(f: &SourceFile, a: &LintAttr) -> bool {
    let item = (a.end..f.sig.len())
        .find(|&k| f.is_ident(k, "fn") || f.is_punct(k, "{") || f.is_punct(k, ";"));
    item.is_some_and(|k| f.is_ident(k, "fn"))
}

/// Adds to `faults` each attribute of `f` that silences a panic lint (or
/// the `restriction` group) more widely than one function. An `allow`
/// never goes stale, an inner or `impl`/`mod`-level `expect` covers many
/// functions, and `unwrap_used` never had a vouch.
fn vouch_faults(f: &SourceFile, faults: &mut Vec<String>) {
    for a in lint_attrs(f) {
        let panics = |n: &&String| *n == "restriction" || PANIC_LINTS.contains(&n.as_str());
        let named: Vec<&String> = a.names.iter().filter(panics).collect();
        let fault = if named.is_empty() || a.level == "deny" {
            continue;
        } else if a.level == "allow" {
            "allows"
        } else if a.inner {
            "expects file-wide"
        } else if named.iter().any(|n| *n == "unwrap_used") {
            "expects unwrap_used among"
        } else if on_fn(f, &a) {
            continue;
        } else {
            "expects, on an item that is not a function,"
        };
        let line = f.sig_line(a.end - 1);
        faults.push(format!("{}:{line}: {fault} {named:?}", f.rel));
    }
}

fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.ends_with("target") {
            return;
        }
        for entry in fs::read_dir(path).expect("read_dir") {
            rust_files(&entry.expect("dir entry").path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
}

#[test]
fn panic_sources_are_denied_where_the_cycle_runs() {
    let root = workspace();
    let (mut scanned, mut faults) = (0, Vec::new());
    for (decl, float_cmp) in GUARDED {
        let decl = root.join(decl);
        // The same attribute scan reads the denials, so a blind one fails here.
        let attrs = lint_attrs(&parse(&decl));
        let inner_deny = attrs.iter().filter(|a| a.inner && a.level == "deny");
        let names: Vec<&String> = inner_deny.flat_map(|a| &a.names).collect();
        let extra = float_cmp.then_some("float_cmp");
        let wanted = PANIC_LINTS.into_iter().chain(extra);
        let missing: Vec<&str> = wanted.filter(|l| !names.iter().any(|n| n == l)).collect();
        assert!(missing.is_empty(), "{decl:?} lacks deny({missing:?})");
        let mut files = Vec::new();
        // A crate root covers its `src` tree, a module itself.
        let src = decl.parent().filter(|_| decl.ends_with("lib.rs"));
        rust_files(src.unwrap_or(&decl), &mut files);
        for file in &files {
            vouch_faults(&parse(file), &mut faults);
        }
        scanned += files.len();
    }
    assert!(faults.is_empty(), "{faults:#?}");
    assert!(scanned >= 40, "only {scanned} guarded files found");
}

/// What the root `clippy.toml` bans for same-seed byte-identity, by key:
/// clock reads, threads and channels; hash collections, locks, shared
/// ownership and every atomic (named bare, under `std::sync::atomic`).
const BANNED: [(&str, &str); 2] = [
    (
        "disallowed-methods",
        "std::time::Instant::now std::time::Instant::elapsed std::time::SystemTime::now
         std::time::SystemTime::elapsed std::thread::spawn std::thread::scope
         std::thread::Builder::spawn std::thread::Builder::spawn_scoped
         std::sync::mpsc::channel std::sync::mpsc::sync_channel",
    ),
    (
        "disallowed-types",
        "std::collections::HashMap std::collections::HashSet std::sync::Mutex
         std::sync::RwLock std::sync::Condvar std::sync::Barrier std::sync::Arc
         std::sync::OnceLock std::sync::LazyLock AtomicBool AtomicI8 AtomicI16
         AtomicI32 AtomicI64 AtomicIsize AtomicU8 AtomicU16 AtomicU32 AtomicU64
         AtomicUsize AtomicPtr",
    ),
];

/// The only files that may silence a ban. The measurement sites expect
/// `disallowed_methods` on each function that reads a clock; neither
/// `telemetry` nor `service` is here, since time is handed to both.
const CLOCK_FILES: [&str; 4] = [
    "crates/core/src/scheduler.rs",
    "crates/sim/src/engine.rs",
    "crates/lint/src/bin/srclint.rs",
    "crates/lint/tests/self_lint.rs",
];
/// The vendored stub's root allows `disallowed_types` file-wide: it
/// mirrors an upstream API that names `Arc`.
const STUB_ROOTS: [&str; 1] = ["crates/proptest/src/lib.rs"];

/// The lint groups that hold both bans: clippy's `style` and `all`, and
/// rustc's `warnings`, which CI's `-D warnings` turns into errors.
const BAN_GROUPS: [&str; 3] = ["style", "all", "warnings"];

/// Functions that read a clock: `Phase::open`, `Phase::drop` and
/// `solve_compiled` in the scheduler, the engine's `on_cycle_tick`,
/// srclint's `main` and this file's budget test.
const MEASUREMENT_SITES: usize = 6;

/// The entries of `key`'s array in `clippy.toml`.
fn clippy_array<'a>(config: &'a str, key: &str) -> &'a str {
    let start = config.find(&format!("\n{key} = [")).expect(key);
    let len = config[start..].find("\n]").expect("closing bracket");
    &config[start..start + len]
}

#[test]
fn determinism_bans_are_configured_and_vouched_for_only_where_a_clock_is_read() {
    let root = workspace();
    let config = fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    let mut missing = Vec::new();
    for (key, paths) in BANNED {
        for path in paths.split_whitespace() {
            let path = path.replace("Atomic", "std::sync::atomic::Atomic");
            if !clippy_array(&config, key).contains(&format!("\"{path}\"")) {
                missing.push(path);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "clippy.toml no longer bans {missing:#?}"
    );

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let (mut sites, mut faults) = (0, Vec::new());
    for path in &files {
        let f = parse(path);
        let rel = path.strip_prefix(&root).expect("under the workspace");
        let listed = |list: &[&str]| list.iter().any(|file| rel == Path::new(file));
        let (clock_file, stub_root) = (listed(&CLOCK_FILES), listed(&STUB_ROOTS));
        for a in lint_attrs(&f) {
            let bans =
                |n: &&String| n.starts_with("disallowed_") || BAN_GROUPS.contains(&n.as_str());
            let named: Vec<&String> = a.names.iter().filter(bans).collect();
            if named.is_empty() || a.level == "deny" {
                continue;
            }
            let only = |lint: &str| named.iter().all(|n| *n == lint);
            let measures = clock_file && a.level == "expect" && only("disallowed_methods");
            let measures = measures && !a.inner && on_fn(&f, &a);
            let vendored = stub_root && a.level == "allow" && a.inner && only("disallowed_types");
            sites += usize::from(measures);
            if !(measures || vendored) {
                let line = f.sig_line(a.end - 1);
                faults.push(format!("{}:{line}: {} {named:?}", rel.display(), a.level));
            }
        }
    }
    assert!(
        faults.is_empty(),
        "a ban silenced off a measurement site: {faults:#?}"
    );
    assert_eq!(
        sites, MEASUREMENT_SITES,
        "clock-reading functions vouched for"
    );
    assert!(files.len() >= 100, "only {} files scanned", files.len());
}

#[test]
fn every_crate_bin_and_example_root_denies_unsafe_code() {
    let root = workspace();
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // The vendored stubs, and the fixture corpus, which is never compiled.
    let skipped = ["crates/proptest/", "crates/rand/", "crates/lint/tests/"].map(|v| root.join(v));
    let is_root = |p: &&PathBuf| {
        let parent = p.parent().expect("a file has a parent");
        let in_src = parent.ends_with("src") && (p.ends_with("lib.rs") || p.ends_with("main.rs"));
        let bin_or_example = parent.ends_with("src/bin") || parent.ends_with("examples");
        (in_src || bin_or_example) && !skipped.iter().any(|v| p.starts_with(v))
    };
    let roots: Vec<&PathBuf> = files.iter().filter(is_root).collect();
    let lacking: Vec<_> = roots
        .iter()
        .filter(|p| {
            let attrs = lint_attrs(&parse(p));
            let denied = attrs.iter().filter(|a| a.inner && a.level == "deny");
            !denied.flat_map(|a| &a.names).any(|n| n == "unsafe_code")
        })
        .collect();
    assert!(
        lacking.is_empty(),
        "roots without #![deny(unsafe_code)]: {lacking:#?}"
    );
    // 12 library crates, the root package's library, 3 bins, 5 examples.
    assert!(
        roots.len() >= 21,
        "only {} roots found: {roots:#?}",
        roots.len()
    );
}
