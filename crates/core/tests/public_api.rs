//! Public-API snapshot: a checked-in text listing of every `pub` item
//! declared in every library crate of the workspace (`crates/*/src`),
//! grouped by crate and diffed on every test run so API changes are
//! visible in review instead of slipping through.
//!
//! On an intentional API change, regenerate the snapshot with
//!
//! ```sh
//! UPDATE_API_SNAPSHOT=1 cargo test -p windserve --test public_api
//! ```
//!
//! and commit the updated `tests/api-snapshot.txt` alongside the change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/api-snapshot.txt";

/// Item-declaration keywords that make a `pub ` line part of the surface.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "use", "mod",
];

fn crate_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace's `crates/` directory, one member crate per entry.
fn crates_dir() -> PathBuf {
    crate_root().join("..").join("..").join("crates")
}

/// Extracts the `pub` item declarations of one source file, one per line,
/// with bodies and trailing punctuation stripped. Test-only items
/// (everything from the first top-level `#[cfg(test)]` on — they sit at the
/// end of every file in this workspace) are excluded, as are
/// `pub(crate)`/`pub(super)` items. An indented `#[cfg(test)]` marks one
/// field or statement and ends nothing.
fn public_items(source: &str) -> Vec<String> {
    let mut items = Vec::new();
    for line in source.lines() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let mut decl = rest.trim();
        // Skip qualifiers to find the item keyword.
        let keyword = loop {
            let (head, tail) = decl.split_once(' ').unwrap_or((decl, ""));
            match head {
                "async" | "unsafe" | "extern" => decl = tail.trim(),
                other => break other,
            }
        };
        let keyword = keyword
            .split(|c: char| !c.is_ascii_alphanumeric())
            .next()
            .unwrap_or("");
        if !ITEM_KEYWORDS.contains(&keyword) {
            continue;
        }
        // One normalized line per item: the declaration up to its body or
        // terminator. Multi-line signatures keep only their first line —
        // coarse, but any edit to them still shows up as a diff.
        let sig = rest
            .split(['{', ';'])
            .next()
            .unwrap_or(rest)
            .trim()
            .trim_end_matches(',');
        items.push(sig.to_string());
    }
    items
}

/// Every library `.rs` file under `dir`, recursively: binary targets
/// (`bin/`, `main.rs`) and the test-only `tests.rs`/`proptests.rs` modules
/// declare no API another crate can call.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.as_deref().unwrap_or("");
        if path.is_dir() {
            if name != "bin" {
                source_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            && !["tests.rs", "proptests.rs", "main.rs"].contains(&name)
        {
            out.push(path);
        }
    }
}

fn render_surface(crates: &Path) -> String {
    let mut members: Vec<PathBuf> = std::fs::read_dir(crates)
        .expect("readable crates directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.join("src").is_dir())
        .collect();
    members.sort();
    let mut out = String::from(
        "# Public API of every workspace library crate. Regenerate with\n\
         # UPDATE_API_SNAPSHOT=1 cargo test -p windserve --test public_api\n",
    );
    for member in members {
        let src = member.join("src");
        let mut files = Vec::new();
        source_files(&src, &mut files);
        files.sort();
        let crate_name = member.file_name().expect("crate directory name");
        let _ = write!(out, "\n== crates/{} ==\n", crate_name.to_string_lossy());
        for path in files {
            // Headers name the file by its path under `src/`, `/`-separated.
            let name = path
                .strip_prefix(&src)
                .expect("file under src/")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&path).expect("readable source file");
            let items = public_items(&source);
            if items.is_empty() {
                continue;
            }
            let _ = write!(out, "\n[{name}]\n");
            for item in items {
                let _ = writeln!(out, "pub {item}");
            }
        }
    }
    out
}

#[test]
fn public_api_matches_the_checked_in_snapshot() {
    let rendered = render_surface(&crates_dir());
    let snapshot_path = crate_root().join(SNAPSHOT);
    if std::env::var_os("UPDATE_API_SNAPSHOT").is_some() {
        std::fs::write(&snapshot_path, &rendered).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&snapshot_path).unwrap_or_default();
    if rendered != expected {
        // A readable unified-ish diff: every line present in exactly one
        // of the two versions.
        let mut diff = String::new();
        for line in expected.lines() {
            if !rendered.contains(line) {
                let _ = writeln!(diff, "- {line}");
            }
        }
        for line in rendered.lines() {
            if !expected.contains(line) {
                let _ = writeln!(diff, "+ {line}");
            }
        }
        panic!(
            "public API changed; review the diff and regenerate the snapshot with\n\
             UPDATE_API_SNAPSHOT=1 cargo test -p windserve --test public_api\n\n{diff}"
        );
    }
}
