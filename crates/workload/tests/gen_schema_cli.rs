//! Argument handling of the `gen_schema` binary: flags are never taken
//! for an output file name.

use std::path::Path;
use std::process::Command;

fn gen_schema(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gen_schema"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("gen_schema runs")
}

/// A fresh empty working directory, so a stray output file would show.
fn empty_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gen_schema_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    for flag in ["-h", "--help"] {
        let dir = empty_dir("help");
        let out = gen_schema(&dir, &[flag]);
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: gen_schema"));
        assert_eq!(entries(&dir), 0, "{flag} wrote a file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn unknown_flags_are_rejected_with_usage_and_exit_2() {
    for args in [&["--out", "x.td"][..], &["-n"], &["x.td", "12", "--seed"]] {
        let dir = empty_dir("flag");
        let out = gen_schema(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown option") && err.contains("usage: gen_schema"),
            "{err}"
        );
        assert_eq!(entries(&dir), 0, "{args:?} wrote a file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_small_schema_is_written() {
    let dir = empty_dir("write");
    let out = gen_schema(&dir, &["small.td", "12", "3"]);
    assert!(out.status.success(), "{:?}", out);
    let text = std::fs::read_to_string(dir.join("small.td")).unwrap();
    td_model::parse_schema(&text).expect("written schema parses");
    std::fs::remove_dir_all(&dir).unwrap();
}
