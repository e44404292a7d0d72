//! Path dependencies compile under the benchmark's own profile, so its
//! `[profile.*]` tables must equal the root manifest's: otherwise the
//! benchmark would measure a differently built library.

use std::collections::BTreeMap;
use std::path::Path;

/// The `[profile.*]` tables of a manifest: header → sorted `key = value`
/// lines, comments and blank lines dropped.
fn profiles(manifest: &Path) -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut tables: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            current = line.starts_with("[profile").then(|| line.to_string());
            if let Some(header) = &current {
                tables.entry(header.clone()).or_default();
            }
        } else if let Some(header) = &current {
            let normalised: String = line.split_whitespace().collect::<Vec<_>>().join(" ");
            tables
                .get_mut(header)
                .expect("entered above")
                .push(normalised);
        }
    }
    for lines in tables.values_mut() {
        lines.sort();
    }
    tables
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let own = profiles(&here.join("Cargo.toml"));
    let root = profiles(&here.join("../Cargo.toml"));
    assert!(
        root.contains_key("[profile.release]"),
        "the root manifest has a release profile: {root:?}"
    );
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml [profile.*] must equal the root's"
    );
}
