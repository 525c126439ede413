//! Plain-text table rendering for the harness binaries.

use std::fmt::Write as _;

/// Reads the per-cell successful-run budget from `SEO_RUNS`; unset means
/// 25, the paper's protocol. Any other value but a positive integer is an
/// argument error: the process exits 2 naming the variable and the value.
#[must_use]
pub fn runs_from_env() -> usize {
    let Some(value) = std::env::var_os("SEO_RUNS") else {
        return 25;
    };
    let value = value.to_string_lossy();
    match value.parse::<usize>() {
        Ok(runs) if runs > 0 => runs,
        _ => {
            eprintln!("error: SEO_RUNS must be a positive integer, got '{value}'");
            std::process::exit(2)
        }
    }
}

/// A fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}", w = *w);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a fractional gain as a percentage string.
#[must_use]
pub fn pct(gain: f64) -> String {
    format!("{:.1}%", gain * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "gain"]);
        t.push_row(vec!["p=tau", "65.9%"]);
        t.push_row(vec!["p=2tau-long-name", "20.3%"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("p=2tau-long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.push_row(vec!["1"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.659), "65.9%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn runs_from_env_default() {
        // Do not set the variable here (tests run in parallel); just check
        // the path the test environment takes.
        let runs = runs_from_env();
        assert!(runs >= 1);
    }
}
