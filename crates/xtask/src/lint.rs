//! The repo-wide lint gate.
//!
//! Greps every non-test library/binary source under `crates/*/src` for
//! patterns that have no business in deterministic middleware code:
//!
//! * panicking escapes (`.unwrap()`, `.expect(`, `todo!`, `unimplemented!`)
//!   — the workspace's error model is typed `Result`s end to end, and a
//!   panic in the middleware takes the whole simulated deployment with it;
//! * leftover debugging (`dbg!`);
//! * wall-clock reads (`SystemTime::now`, `Instant::now`) — the
//!   simulation is virtual-time and seeded, and a single wall-clock read
//!   makes runs irreproducible;
//! * ad-hoc stdout instrumentation (`println!`, `eprintln!`) — observable
//!   behaviour belongs in the `sensocial-telemetry` layer, where it is
//!   deterministic, snapshottable and wire-comparable;
//! * direct config-topic use (`Topic::Config(...)`) — device
//!   reconfigurations must flow through the campaign dispatch path
//!   (`ServerManager::dispatch_campaign_config` → `push_config`) so epoch
//!   stamping, ack tracking and the campaign journal stay consistent; a
//!   raw publish on the config topic would bypass all three. The `Topic`
//!   module itself (which defines the enum) is exempt by file, and the
//!   sanctioned publish/subscribe sites carry allow markers;
//! * hash-ordered containers (`HashMap`, `HashSet`) in crates whose output
//!   must be byte-stable — telemetry snapshots, the storage engine's
//!   scans, the scenario suite and the static-analysis report all
//!   promise canonical, diffable bytes, and one hash-ordered iteration in
//!   a serialization path silently breaks the double-run `cmp` gates. Use
//!   `BTreeMap`/`BTreeSet` (or sort at the boundary) instead. Scoped to
//!   `crates/telemetry`, `crates/storage`, `crates/sim` and
//!   `crates/analysis` — elsewhere hash containers are fine;
//! * locks (`Mutex<`, `RwLock<`, `parking_lot`) — every component runs on
//!   one scheduler thread, and shared mutable state is `Rc<RefCell<_>>`.
//!   A lock would only reintroduce the second idiom; `RefCell` already
//!   panics on the re-entrant access a lock would deadlock on. The
//!   interner (`crates/types/src/intern.rs`) is exempt by file: its
//!   process-wide pool is a `static`, which must be `Sync`.
//!
//! It also reads every manifest of the workspace (the root `Cargo.toml`
//! and those under `crates/`, `tests/` and `examples/`): a dependency on a
//! crate from outside the repository is a finding. JSON, randomness,
//! property testing and everything else come from the workspace's own
//! crates, so the workspace builds offline and a seed means the same run
//! on every build.
//!
//! Scope: `crates/*/src`, minus `crates/bench` (experiment harness code,
//! expect-on-setup and report printing are idiomatic there) and
//! `crates/xtask` (a CLI tool whose stdout *is* its interface). Test
//! modules (everything after a `#[cfg(test)]` line), `tests/`,
//! `examples/` and comments are exempt — the ban is on shipping code, not
//! on assertions.
//!
//! A line may opt out with a trailing `lint:allow(<pattern>)` comment,
//! reserved for provably-infallible cases (e.g. serializing a struct of
//! plain fields) where the justification lives next to the code.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A banned pattern. Needles are assembled at runtime from halves so the
/// scanner's own source (and its tests) never match themselves.
struct Pattern {
    /// Name used in `lint:allow(<name>)` escapes and in reports.
    name: &'static str,
    needle: String,
    why: &'static str,
    /// File-path suffixes (repo-relative, `/`-separated) the pattern does
    /// not apply to — for rules where one module legitimately owns the
    /// banned construct (e.g. the `Topic` enum's own definition site).
    exempt: &'static [&'static str],
    /// File-path prefixes (repo-relative, `/`-separated) the pattern is
    /// scoped to. Empty means the pattern applies everywhere; non-empty
    /// restricts it to files under one of the prefixes — for rules that
    /// only make sense in specific crates (e.g. determinism-critical
    /// serialization paths).
    applies: &'static [&'static str],
}

fn patterns() -> Vec<Pattern> {
    let pat = |name: &'static str, parts: &[&str], why: &'static str| Pattern {
        name,
        needle: parts.concat(),
        why,
        exempt: &[],
        applies: &[],
    };
    // The crates whose outputs (telemetry wire, snapshots, scenario
    // schedules, analysis reports, storage scans) must be byte-stable
    // across same-seed runs; hash-ordered iteration is banned there.
    const DETERMINISTIC_CRATES: &[&str] = &[
        "crates/telemetry/src",
        "crates/storage/src",
        "crates/sim/src",
        "crates/analysis/src",
    ];
    // The per-message hot paths: broker routing/fan-out, the client and
    // server managers' sample/uplink handlers, and the network's send and
    // delivery. Topics and device ids there are interned (`InternedTopic`),
    // endpoint names are shared (`EndpointId`) and payloads are shared
    // (`Payload`); an ad-hoc `to_string()`/`String::from`/`format!`
    // re-allocates what is already shared, once per message. The
    // scheduler and its timers run under every message and every tick.
    const HOT_PATH_MODULES: &[&str] = &[
        "crates/broker/src",
        "crates/core/src/client",
        "crates/core/src/server",
        "crates/net/src",
        "crates/runtime/src/scheduler.rs",
        "crates/runtime/src/timer.rs",
    ];
    // Components are single-threaded `Rc<RefCell<_>>` handles; only the
    // interner's static pool needs a lock.
    let lock = |name: &'static str, parts: &[&str]| Pattern {
        name,
        needle: parts.concat(),
        why: "lock in single-threaded code; share mutable state as \
              Rc<RefCell<_>>",
        exempt: &["crates/types/src/intern.rs"],
        applies: &[],
    };
    vec![
        lock("mutex", &["Mut", "ex<"]),
        lock("rw-lock", &["RwL", "ock<"]),
        lock("parking-lot", &["parking", "_lot"]),
        pat(
            "unwrap",
            &[".unwr", "ap()"],
            "panicking escape; return a typed Result instead",
        ),
        pat(
            "expect",
            &[".exp", "ect("],
            "panicking escape; return a typed Result instead",
        ),
        pat("todo", &["to", "do!"], "unfinished code must not ship"),
        pat(
            "unimplemented",
            &["unimpl", "emented!"],
            "unfinished code must not ship",
        ),
        pat("dbg", &["db", "g!("], "leftover debugging must not ship"),
        pat(
            "system-time",
            &["SystemTime::n", "ow"],
            "wall-clock read; use the scheduler's virtual time",
        ),
        pat(
            "instant-now",
            &["Instant::n", "ow"],
            "wall-clock read; use the scheduler's virtual time",
        ),
        // The needle also matches `eprintln!` as a substring, covering
        // both stdout and stderr with one pattern/escape name.
        pat(
            "println",
            &["printl", "n!("],
            "ad-hoc stdout/stderr instrumentation; record through sensocial-telemetry",
        ),
        Pattern {
            name: "config-publish",
            needle: ["Topic::Conf", "ig("].concat(),
            why: "direct config-topic use outside the campaign dispatch path; \
                  route reconfigurations through \
                  ServerManager::dispatch_campaign_config so epoch stamping, \
                  ack tracking and the campaign journal stay consistent",
            // The Topic enum's own module pattern-matches and constructs
            // every variant; exempting it by file keeps the rule focused
            // on *use* sites.
            exempt: &["crates/core/src/topic.rs"],
            applies: &[],
        },
        Pattern {
            name: "to-string",
            needle: [".to_str", "ing()"].concat(),
            why: "per-message string allocation on a hot path; topics and ids \
                  are interned — clone the InternedTopic/Arc'd form (or carry \
                  an allow marker for cold/error paths)",
            exempt: &[],
            applies: HOT_PATH_MODULES,
        },
        Pattern {
            name: "string-from",
            needle: ["String::fr", "om("].concat(),
            why: "per-message string allocation on a hot path; topics and ids \
                  are interned — clone the InternedTopic/Arc'd form (or carry \
                  an allow marker for cold/error paths)",
            exempt: &[],
            applies: HOT_PATH_MODULES,
        },
        Pattern {
            name: "format",
            needle: ["form", "at!("].concat(),
            why: "per-message string allocation on a hot path; topics and ids \
                  are interned — clone the InternedTopic/Arc'd form (or carry \
                  an allow marker for cold/error paths)",
            exempt: &[],
            applies: HOT_PATH_MODULES,
        },
        Pattern {
            name: "hash-map",
            needle: ["Hash", "Map"].concat(),
            why: "hash-ordered container in a byte-stable serialization path; \
                  use BTreeMap (or sort at the boundary) so double-run cmp \
                  gates stay meaningful",
            exempt: &[],
            applies: DETERMINISTIC_CRATES,
        },
        Pattern {
            name: "hash-set",
            needle: ["Hash", "Set"].concat(),
            why: "hash-ordered container in a byte-stable serialization path; \
                  use BTreeSet (or sort at the boundary) so double-run cmp \
                  gates stay meaningful",
            exempt: &[],
            applies: DETERMINISTIC_CRATES,
        },
    ]
}

/// One finding.
struct Violation {
    file: String,
    line: usize,
    pattern: &'static str,
    why: &'static str,
    text: String,
}

/// Scans `content` (labelled `file` for reporting) against `patterns`.
///
/// Comment-only lines are skipped; everything after the first
/// `#[cfg(test)]` line is treated as test code and skipped (the
/// workspace's test modules all trail their file); a matching
/// `lint:allow(<name>)` marker on the line suppresses that pattern.
fn scan_source(file: &str, content: &str, patterns: &[Pattern]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut in_tests = false;
    for (i, line) in content.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        for p in patterns {
            if p.exempt.iter().any(|suffix| file.ends_with(suffix)) {
                continue;
            }
            if !p.applies.is_empty() && !p.applies.iter().any(|prefix| file.starts_with(prefix)) {
                continue;
            }
            if !line.contains(p.needle.as_str()) {
                continue;
            }
            let marker = format!("lint:allow({})", p.name);
            if line.contains(marker.as_str()) {
                continue;
            }
            violations.push(Violation {
                file: file.to_owned(),
                line: i + 1,
                pattern: p.name,
                why: p.why,
                text: trimmed.to_owned(),
            });
        }
    }
    violations
}

const EXTERNAL_CRATE_WHY: &str = "dependency on a crate from outside the repository; \
                                  the workspace builds from std and its own crates";

/// Every dependency `manifest` names, as `(line, name, spec)`: the
/// entries of its `[dependencies]`-style tables (`workspace.` and
/// `target.*.` ones included) and the names of `[dependencies.<name>]`
/// sub-tables, whose spec is left empty.
fn dependencies(manifest: &str) -> Vec<(usize, String, String)> {
    const TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];
    let mut deps = Vec::new();
    let mut in_table = false;
    for (i, line) in manifest.lines().enumerate() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') {
            let header = line.trim_matches(|c| c == '[' || c == ']');
            let mut segments = header.rsplit('.');
            let last = segments.next().unwrap_or_default();
            in_table = TABLES.contains(&last);
            if segments.next().is_some_and(|table| TABLES.contains(&table)) {
                deps.push((i + 1, last.trim_matches('"').to_owned(), String::new()));
            }
        } else if let Some((key, spec)) = line.split_once('=').filter(|_| in_table) {
            // `name.workspace = true` names `name`.
            let name = key
                .split('.')
                .next()
                .unwrap_or_default()
                .trim()
                .trim_matches('"');
            deps.push((i + 1, name.to_owned(), spec.trim().to_owned()));
        }
    }
    deps
}

/// Checks one manifest (labelled `file`): every dependency must be a path
/// dependency or one of `local` (the root's path entries, which members
/// inherit with `name.workspace = true`).
fn scan_manifest(file: &str, content: &str, local: &[String]) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    dependencies(content)
        .into_iter()
        .filter(|(_, name, spec)| !(spec.contains("path") || local.contains(name)))
        .map(|(line, _, _)| Violation {
            file: file.to_owned(),
            line,
            pattern: "external-crate",
            why: EXTERNAL_CRATE_WHY,
            text: lines[line - 1].trim().to_owned(),
        })
        .collect()
}

/// The workspace root: two levels above this crate's manifest.
pub(crate) fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_owned(),
        None => manifest.to_owned(),
    }
}

/// Every `.rs` file under `crates/*/src`, except `crates/bench` and
/// `crates/xtask`.
fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot enumerate crates/: {e}"))?;
        let path = entry.path();
        if !path.is_dir()
            || path
                .file_name()
                .is_some_and(|n| n == "bench" || n == "xtask")
        {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot enumerate {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// The workspace's manifests: the root's, each crate's, and those of the
/// `tests` and `examples` packages.
fn collect_manifests(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut files = vec![root.join("Cargo.toml")];
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot enumerate crates/: {e}"))?;
        files.push(entry.path().join("Cargo.toml"));
    }
    files.push(root.join("tests").join("Cargo.toml"));
    files.push(root.join("examples").join("Cargo.toml"));
    files.retain(|f| f.is_file());
    files.sort();
    Ok(files)
}

fn read_labelled(root: &Path, file: &Path) -> Result<(String, String), String> {
    let content =
        fs::read_to_string(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let label = file
        .strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string();
    Ok((label, content))
}

fn scan_repo(root: &Path) -> Result<Vec<Violation>, String> {
    let patterns = patterns();
    let mut violations = Vec::new();
    for file in collect_sources(root)? {
        let (label, content) = read_labelled(root, &file)?;
        violations.extend(scan_source(&label, &content, &patterns));
    }
    let (_, root_manifest) = read_labelled(root, &root.join("Cargo.toml"))?;
    let local: Vec<String> = dependencies(&root_manifest)
        .into_iter()
        .filter(|(_, _, spec)| spec.contains("path"))
        .map(|(_, name, _)| name)
        .collect();
    for file in collect_manifests(root)? {
        let (label, content) = read_labelled(root, &file)?;
        violations.extend(scan_manifest(&label, &content, &local));
    }
    Ok(violations)
}

/// Escapes a string for embedding in a JSON string literal. Hand-rolled
/// because xtask is std-only by design.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders findings as a JSON document for machine consumers (CI
/// annotations, editors). Findings are already in deterministic
/// (file, line) order because sources are scanned sorted.
fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, v) in violations.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"file\": \"{}\", \"line\": {}, \"pattern\": \"{}\", \"why\": \"{}\", \"text\": \"{}\"}}",
            json_escape(&v.file),
            v.line,
            json_escape(v.pattern),
            json_escape(v.why),
            json_escape(&v.text)
        );
        out.push_str(if i + 1 < violations.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(out, "  ],\n  \"count\": {}\n}}\n", violations.len());
    out
}

/// Entry point for `cargo run -p xtask -- lint [--json]`.
///
/// Exit codes are split so CI can tell findings from infrastructure
/// breakage: 0 = clean, 1 = findings, 2 = internal error (unreadable
/// tree, I/O failure). With `--json` the findings go to stdout as a JSON
/// document (an empty `findings` array when clean); human-readable
/// reporting stays on the default path.
pub fn run(json: bool) -> ExitCode {
    let violations = match scan_repo(&repo_root()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: internal error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", render_json(&violations));
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if violations.is_empty() {
        println!("xtask lint: clean");
        return ExitCode::SUCCESS;
    }
    let mut report = String::new();
    for v in &violations {
        let _ = writeln!(
            report,
            "{}:{}: banned pattern `{}` ({})\n    {}",
            v.file, v.line, v.pattern, v.why, v.text
        );
    }
    eprintln!("{report}xtask lint: {} violation(s)", violations.len());
    ExitCode::from(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a banned token at runtime so this test file itself stays
    /// clean under the scanner.
    fn tok(parts: &[&str]) -> String {
        parts.concat()
    }

    #[test]
    fn seeded_unwrap_fixture_fails() {
        let fixture = format!(
            "fn main() {{\n    let x = maybe(){};\n}}\n",
            tok(&[".unwr", "ap()"])
        );
        let violations = scan_source("fixture.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "unwrap");
        assert_eq!(violations[0].line, 2);
    }

    #[test]
    fn test_modules_and_comments_are_exempt() {
        let fixture = format!(
            "fn main() {{}}\n// a comment mentioning {u}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ maybe(){u}; }}\n}}\n",
            u = tok(&[".unwr", "ap()"])
        );
        assert!(scan_source("fixture.rs", &fixture, &patterns()).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_a_single_line() {
        let needle = tok(&[".exp", "ect("]);
        let marker = tok(&["lint:", "allow(expect)"]);
        let allowed = format!("fn f() {{ g(){needle}\"ok\"); }} // {marker}\n");
        assert!(scan_source("fixture.rs", &allowed, &patterns()).is_empty());
        let denied = format!("fn f() {{ g(){needle}\"ok\"); }}\n");
        assert_eq!(scan_source("fixture.rs", &denied, &patterns()).len(), 1);
    }

    #[test]
    fn nondeterminism_patterns_are_flagged() {
        let fixture = format!(
            "fn f() {{ let t = std::time::{}(); }}\n",
            tok(&["SystemTime::n", "ow"])
        );
        let violations = scan_source("fixture.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "system-time");
    }

    #[test]
    fn stdout_instrumentation_is_banned() {
        let fixture = format!("fn f() {{ {}\"sent\"); }}\n", tok(&["printl", "n!("]));
        let violations = scan_source("fixture.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "println");
    }

    #[test]
    fn direct_config_topic_use_is_banned_outside_exempt_files() {
        let needle = tok(&["Topic::Conf", "ig("]);
        let fixture = format!("fn f(b: &BrokerClient) {{ b.publish({needle}d.clone()), p); }}\n");
        let violations = scan_source("crates/foo/src/lib.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "config-publish");
        // The Topic enum's defining module is exempt by file suffix.
        assert!(scan_source("crates/core/src/topic.rs", &fixture, &patterns()).is_empty());
        // Sanctioned sites (the campaign dispatcher's publish, the client's
        // subscribe) carry the allow marker.
        let marker = tok(&["lint:", "allow(config-publish)"]);
        let allowed = format!("fn f() {{ let t = {needle}d.clone()); }} // {marker}\n");
        assert!(scan_source("crates/foo/src/lib.rs", &allowed, &patterns()).is_empty());
    }

    #[test]
    fn locks_are_banned_outside_the_interner() {
        let mutex = tok(&["Mut", "ex<"]);
        let fixture = format!("struct H {{ inner: Arc<{mutex}Inner>> }}\n");
        let violations = scan_source("crates/foo/src/lib.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "mutex");
        let rwlock = format!(
            "struct H {{ inner: Arc<{}Inner>> }}\n",
            tok(&["RwL", "ock<"])
        );
        let violations = scan_source("crates/foo/src/lib.rs", &rwlock, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "rw-lock");
        let import = format!("use {}::Mutex;\n", tok(&["parking", "_lot"]));
        let violations = scan_source("crates/foo/src/lib.rs", &import, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "parking-lot");
        // The interner's static pool is exempt by file suffix.
        assert!(scan_source("crates/types/src/intern.rs", &fixture, &patterns()).is_empty());
        // Test modules may still use locks.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{fixture}}}\n");
        assert!(scan_source("crates/foo/src/lib.rs", &in_tests, &patterns()).is_empty());
    }

    #[test]
    fn hash_containers_are_banned_only_in_deterministic_crates() {
        let needle = tok(&["Hash", "Map"]);
        let fixture = format!("use std::collections::{needle};\n");
        // Inside a serialization-path crate: flagged.
        let violations = scan_source("crates/telemetry/src/snapshot.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "hash-map");
        // Same line in an unscoped crate: fine — hash ordering only
        // matters where bytes are compared.
        assert!(scan_source("crates/net/src/network.rs", &fixture, &patterns()).is_empty());
        // HashSet has its own rule name so allow markers stay precise.
        let set = format!("use std::collections::{};\n", tok(&["Hash", "Set"]));
        let violations = scan_source("crates/analysis/src/graph.rs", &set, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "hash-set");
    }

    #[test]
    fn hot_path_string_allocation_is_banned_only_in_scoped_modules() {
        let needle = tok(&[".to_str", "ing()"]);
        let fixture = format!("fn f(t: &Topic) -> String {{ t{needle} }}\n");
        // Inside a hot-path module: flagged.
        let violations = scan_source("crates/broker/src/broker.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "to-string");
        // The same line in the core crate's cold modules (config, events,
        // topic rendering) is fine.
        assert!(scan_source("crates/core/src/event.rs", &fixture, &patterns()).is_empty());
        // `String::from` has its own rule name so allow markers stay precise.
        let from = format!(
            "fn f(d: &DeviceId) {{ let s = {}d.as_str()); }}\n",
            tok(&["String::fr", "om("])
        );
        let violations = scan_source("crates/core/src/server/manager.rs", &from, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "string-from");
        // So does `format!`, which builds a fresh string on every call.
        let label = format!(
            "fn f(id: StreamId) {{ cpu.record(&{}\"stream#{{}}/sample\", id.value()), 0.5); }}\n",
            tok(&["form", "at!("])
        );
        let violations = scan_source("crates/core/src/client/manager.rs", &label, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "format");
        assert!(scan_source("crates/core/src/event.rs", &label, &patterns()).is_empty());
        // The network's send path is a hot path too: a per-send endpoint
        // name copy is flagged there.
        let send = format!(
            "fn f(to: &EndpointId) {{ let key = {}to.as_str()); }}\n",
            tok(&["String::fr", "om("])
        );
        let violations = scan_source("crates/net/src/network.rs", &send, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "string-from");
        // So is the scheduler, which every event and timer tick runs
        // through; the JSON codec beside it builds strings by design.
        let violations = scan_source("crates/runtime/src/scheduler.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].pattern, "to-string");
        assert!(scan_source("crates/runtime/src/json/write.rs", &fixture, &patterns()).is_empty());
        // Cold/error paths opt out with the marker.
        let marker = tok(&["lint:", "allow(to-string)"]);
        let allowed = format!("fn f(t: &Topic) -> String {{ t{needle} }} // {marker}\n");
        assert!(scan_source("crates/broker/src/broker.rs", &allowed, &patterns()).is_empty());
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let needle = tok(&[".unwr", "ap()"]);
        let fixture = format!("fn main() {{ let s = \"quote\\\"d\"; maybe(){needle}; }}\n");
        let violations = scan_source("fixture.rs", &fixture, &patterns());
        assert_eq!(violations.len(), 1);
        let json = render_json(&violations);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"pattern\": \"unwrap\""));
        assert!(
            json.contains("quote\\\\\\\"d"),
            "quotes must be escaped: {json}"
        );
        assert!(json.ends_with("}\n"));
        // Clean runs still produce a parseable document.
        let empty = render_json(&[]);
        assert!(empty.contains("\"count\": 0"));
    }

    #[test]
    fn manifests_may_name_only_in_repo_crates() {
        let local = vec!["sensocial-runtime".to_owned()];
        // A crate the workspace once depended on is as external as any.
        let fixture = "[package]\nname = \"x\"\n\n[dependencies]\n\
                       serde.workspace = true\n\
                       sensocial-runtime.workspace = true\n\
                       helper = { path = \"../helper\" }\n\n\
                       [dev-dependencies]\n\
                       rand = \"0.8\" # a comment\n\n\
                       [[bench]]\nname = \"b\"\n";
        let violations = scan_manifest("crates/x/Cargo.toml", fixture, &local);
        let found: Vec<(usize, &str, &str)> = violations
            .iter()
            .map(|v| (v.line, v.pattern, v.text.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                (5, "external-crate", "serde.workspace = true"),
                (10, "external-crate", "rand = \"0.8\" # a comment"),
            ]
        );
        // The sub-table form, a target-specific table and the root's
        // workspace table are read too.
        for (manifest, count) in [
            ("[dev-dependencies.rand]\nversion = \"0.8\"\n", 1),
            ("[target.'cfg(unix)'.dependencies]\nrand = \"0.8\"\n", 1),
            (
                "[workspace.dependencies]\nrand = \"0.8\"\nserde = \"1\"\n",
                2,
            ),
        ] {
            let violations = scan_manifest("Cargo.toml", manifest, &local);
            assert_eq!(violations.len(), count, "{manifest}");
        }
        // Keys outside dependency tables are not dependencies.
        assert!(scan_manifest("Cargo.toml", "[package]\nrand = 1\n", &local).is_empty());
    }

    #[test]
    fn repository_is_clean() {
        let violations = match scan_repo(&repo_root()) {
            Ok(v) => v,
            Err(e) => panic!("scan failed: {e}"),
        };
        let report: Vec<String> = violations
            .iter()
            .map(|v| format!("{}:{} {}", v.file, v.line, v.pattern))
            .collect();
        assert!(report.is_empty(), "lint violations: {report:#?}");
    }
}
