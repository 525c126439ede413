//! Helpers shared by the CLI test targets: the plan file every engine run
//! of the `sweep` binary starts from, the serial reference its merged
//! output is compared against, and a working directory that a test's
//! failure does not leave behind.

// Each target that includes this module uses only some of its helpers.
#![allow(dead_code)]

use seo_core::batch::ScenarioSpec;
use seo_core::prelude::*;
use std::path::PathBuf;

/// The serial reference for the paper preset `SweepPlan::paper(scenarios,
/// seed)`: a plain `RuntimeLoop::run_episode` loop over its grid, sharing
/// no code with the engines or the episode pool.
pub fn serial_reports(scenarios: usize, seed: u64) -> Vec<EpisodeReport> {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    let runtime =
        RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime");
    ScenarioSpec::paper_grid(scenarios, seed)
        .iter()
        .map(|spec| runtime.run_episode(&spec.world(), spec.seed))
        .collect()
}

/// An empty directory unique to this test process and `name`, removed
/// again on drop, whatever the test's assertions did.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("seo-bench-{}-{name}", std::process::id()));
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

/// A plan written to a temp file unique to this test process and `name`,
/// removed again on drop.
pub struct PlanFile(PathBuf);

impl PlanFile {
    /// Writes `text` (usually `plan.to_json().render()`) to the file.
    pub fn new(name: &str, text: impl AsRef<[u8]>) -> Self {
        let path =
            std::env::temp_dir().join(format!("seo-sweep-cli-{}-{name}.json", std::process::id()));
        std::fs::write(&path, text).expect("plan written");
        Self(path)
    }

    /// The file's path, as the `--plan` argument.
    pub fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
    }
}

impl Drop for PlanFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
