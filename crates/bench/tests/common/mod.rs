//! The plan-file helper shared by the CLI test targets: every engine run
//! of the `sweep` binary starts from a plan file.

use std::path::PathBuf;

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
