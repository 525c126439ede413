//! The paper binaries end to end: `all_experiments` and `sensitivity`
//! replay to the bytes recorded in `examples/plans/paper/`, and their
//! outside inputs (`SEO_RUNS`, the results path, a closed stdout) fail by
//! name instead of being guessed at or panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const ALL_EXPERIMENTS_BIN: &str = env!("CARGO_BIN_EXE_all_experiments");
const SENSITIVITY_BIN: &str = env!("CARGO_BIN_EXE_sensitivity");
const SWEEP_BIN: &str = env!("CARGO_BIN_EXE_sweep");

const PINS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans/paper");

/// An empty directory unique to this test process and `name`, removed
/// again on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("seo-paper-outputs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir created");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(bin: &str, runs: &str, cwd: &Path) -> Output {
    Command::new(bin)
        .env("SEO_RUNS", runs)
        .current_dir(cwd)
        .output()
        .expect("binary runs")
}

fn assert_same_bytes(actual: &[u8], pin: &str) {
    let expected = std::fs::read(Path::new(PINS).join(pin)).expect("pin readable");
    assert!(
        actual == expected.as_slice(),
        "{pin}: output differs from the recorded bytes\n--- got ---\n{}",
        String::from_utf8_lossy(actual)
    );
}

/// Every figure and table at the paper's 25 successful runs per cell, as
/// the printed tables and as the `seo_experiments.json` dump.
#[test]
fn all_experiments_replays_to_its_recorded_bytes() {
    let dir = TempDir::new("all");
    let output = run(ALL_EXPERIMENTS_BIN, "25", &dir.0);
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_same_bytes(&output.stdout, "all_experiments.stdout.expected");
    let dump = std::fs::read(dir.0.join("seo_experiments.json")).expect("results written");
    assert_same_bytes(&dump, "all_experiments.expected");
}

/// The channel, payload and gating-level series at 10 runs per point.
#[test]
fn sensitivity_replays_to_its_recorded_bytes() {
    let dir = TempDir::new("sensitivity");
    let output = run(SENSITIVITY_BIN, "10", &dir.0);
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_same_bytes(&output.stdout, "sensitivity.expected");
}

/// `SEO_RUNS` is a positive integer or an argument error (exit 2) that
/// names the variable and the value; it is never read as the default.
#[test]
fn a_malformed_seo_runs_is_an_argument_error() {
    let dir = TempDir::new("runs");
    for value in ["abc", "0", "-1"] {
        let output = run(ALL_EXPERIMENTS_BIN, value, &dir.0);
        assert_eq!(output.status.code(), Some(2), "SEO_RUNS={value}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("SEO_RUNS") && stderr.contains(&format!("'{value}'")),
            "SEO_RUNS={value}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "SEO_RUNS={value} ran a table");
    }
}

/// A results file that cannot be written fails the run (exit 1) naming
/// the path, instead of panicking.
#[test]
fn an_unwritable_results_file_is_named() {
    let dir = TempDir::new("unwritable");
    // A directory where the dump should go makes the write fail even for
    // a user that ignores permission bits.
    std::fs::create_dir(dir.0.join("seo_experiments.json")).expect("blocker created");
    let output = run(ALL_EXPERIMENTS_BIN, "1", &dir.0);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("seo_experiments.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A stdout that closes under a run (`… | head -1`) stops it with exit 1
/// and the write error on stderr, instead of a panic (exit 101).
#[test]
fn a_closed_stdout_is_a_runtime_error() {
    let dir = TempDir::new("closed-stdout");
    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/plans/falsify-demo.json"
    );
    for (bin, args) in [
        (SWEEP_BIN, &["--plan", plan, "--check"][..]),
        (SENSITIVITY_BIN, &[][..]),
        (ALL_EXPERIMENTS_BIN, &[][..]),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe created");
        drop(reader);
        let output = Command::new(bin)
            .args(args)
            .env("SEO_RUNS", "1")
            .current_dir(&dir.0)
            .stdout(Stdio::from(writer))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("Broken pipe"), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}
