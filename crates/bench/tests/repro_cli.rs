//! Bad input on `repro`'s command line is a usage error: one `repro: …`
//! line on stderr that names the flag or the path, and exit status 2 —
//! never a panic (exit 101).

use std::process::Command;

/// Run `repro` with `args`; its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_input_is_a_usage_error_naming_the_flag_or_path() {
    let missing = std::env::temp_dir()
        .join(format!("repro_cli_{}", std::process::id()))
        .join("absent");
    let missing = missing.to_str().unwrap();
    let out_file = format!("{missing}/x.txt");
    let cases: &[(&[&str], &str)] = &[
        (&["--sf", "abc", "fig9"], "--sf takes a number, got \"abc\""),
        (&["--runs", "-1", "monitor"], "--runs takes a number"),
        (
            &["--tenants", "many", "tenants"],
            "--tenants takes a number",
        ),
        (&["--band", "x", "drift"], "--band takes a number"),
        (&["--flip-rate", "", "drift"], "--flip-rate takes a number"),
        (&["table2", "--sf"], "--sf takes a number"),
        (&["table2", "--out"], "--out takes a file path"),
        (&["--td", "4", "calibrate"], "--td takes 1|2|3, got \"4\""),
        (
            &["--log-level", "loud", "table2"],
            "unknown log level \"loud\"",
        ),
        (&["--out", &out_file, "table2"], &out_file),
        (
            &["--profiles", missing, "fig9"],
            "--profiles feeds `replay` only",
        ),
        (&["--profiles", missing], "--profiles feeds `replay` only"),
        (&["--profiles", missing, "replay"], missing),
    ];
    for (args, needle) in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("repro: "), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
