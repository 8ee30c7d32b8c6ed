//! The snapshot bins' argument handling: `--help` prints usage and writes
//! nothing, and any other flag or a second argument is rejected with exit
//! code 2 before a measurement starts, so no flag ever becomes an output
//! file name.

use std::path::PathBuf;
use std::process::Command;

const BINS: [&str; 3] = [
    env!("CARGO_BIN_EXE_core_snapshot"),
    env!("CARGO_BIN_EXE_service_snapshot"),
    env!("CARGO_BIN_EXE_sim_snapshot"),
];

/// A fresh empty working directory for one bin invocation.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abc-snapshot-args-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    for (i, bin) in BINS.iter().enumerate() {
        for flag in ["--help", "-h"] {
            let dir = empty_dir(&format!("help-{i}{flag}"));
            let out = Command::new(bin)
                .arg(flag)
                .current_dir(&dir)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: "));
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "{bin} {flag} wrote a file"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn unknown_flags_and_extra_arguments_exit_2_and_write_nothing() {
    for (i, bin) in BINS.iter().enumerate() {
        for (j, args) in [&["--out"][..], &["-"], &["a.json", "b.json"]]
            .iter()
            .enumerate()
        {
            let dir = empty_dir(&format!("bad-{i}-{j}"));
            let out = Command::new(bin)
                .args(*args)
                .current_dir(&dir)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage: "));
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "{bin} {args:?} wrote a file"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
