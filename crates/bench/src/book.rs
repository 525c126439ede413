//! The results book: one timestamped, named-run row per sweep in a
//! committed markdown table (`results/results.md` by default —
//! `report.book` in the plan names the file).
//!
//! A row is keyed by its **run id** — `plan-stem/engine/kernel` — and
//! upserted: re-running an unchanged plan replaces its row in place
//! instead of duplicating it, and a new run id's row goes after the
//! table's last row, so the book accumulates one line per named
//! configuration while staying stable under CI re-runs. Everything else
//! in the file (preamble, other rows, hand-written notes below the table)
//! is preserved byte-for-byte.
//!
//! Timing lives **only** here: the summary NDJSON the sweep emits on
//! stdout is byte-compared across engines and runs, so wall-clock numbers
//! must never leak into it. The book is where they go instead.

use std::io::ErrorKind;
use std::path::Path;

/// The book's table header; [`upsert`] appends it (plus a preamble) to a
/// fresh or table-less file before inserting the first row.
pub const HEADER: &str = "| run | utc | grid | scenarios/s | energy gain | δmax p50 | δmax p99 |";
const SEPARATOR: &str = "|---|---|---|---|---|---|---|";
const PREAMBLE: &str = "# Results book\n\n\
    Named sweep runs, one row per `plan-stem/engine/kernel` run id, appended\n\
    by `sweep --plan` when the plan's `report.book` names this file and\n\
    upserted in place on re-runs (see `docs/reporting.md`). Derived stats\n\
    come from the merged per-cell sketches; timing is wall-clock and *not*\n\
    part of the byte-compared summary stream.\n";

/// One named-run row, ready to format into the book's markdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct BookRow {
    /// The upsert key: `plan-stem/engine/kernel`.
    pub run_id: String,
    /// Unix seconds (UTC) the run finished; rendered as a civil timestamp.
    pub timestamp_secs: u64,
    /// Grid provenance, e.g. `60 specs / 12 cells`.
    pub grid: String,
    /// Wall-clock throughput of the run that produced the row.
    pub scenarios_per_sec: f64,
    /// Mean energy gain across all episodes (`None` when no finite
    /// episode gain was recorded).
    pub energy_gain_mean: Option<f64>,
    /// The overall δmax distribution's median, in base periods.
    pub delta_max_p50: Option<u32>,
    /// The overall δmax distribution's 99th percentile, in base periods.
    pub delta_max_p99: Option<u32>,
}

impl BookRow {
    /// The markdown table line for this row.
    #[must_use]
    pub(crate) fn line(&self) -> String {
        let gain = self
            .energy_gain_mean
            .map_or_else(|| "-".to_owned(), |g| format!("{:.2}%", g * 100.0));
        let p50 = self
            .delta_max_p50
            .map_or_else(|| "-".to_owned(), |q| q.to_string());
        let p99 = self
            .delta_max_p99
            .map_or_else(|| "-".to_owned(), |q| q.to_string());
        format!(
            "| {} | {} | {} | {:.1} | {gain} | {p50} | {p99} |",
            self.run_id,
            civil_utc(self.timestamp_secs),
            self.grid,
            self.scenarios_per_sec,
        )
    }
}

/// Renders unix seconds as a civil UTC timestamp (`YYYY-MM-DD HH:MM:SSZ`)
/// without any date dependency (Gregorian era arithmetic).
#[must_use]
pub(crate) fn civil_utc(secs: u64) -> String {
    #[allow(clippy::cast_possible_wrap)]
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let tod = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

/// Days-since-epoch to (year, month, day), proleptic Gregorian.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

/// Upserts `row` into the book at `path`: a fresh (or table-less) file
/// gets the preamble and header first; an existing row with the same run
/// id is replaced in place; otherwise the row goes right after the table's
/// last row (the run of `|` lines that opens with the header), so notes
/// below the table stay below it. Every other byte of the file is
/// preserved.
///
/// # Errors
///
/// Propagates filesystem errors; anything already in the file is treated
/// as opaque text, so a hand-edited book never fails to parse.
pub fn upsert(path: &str, row: &BookRow) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            if let Some(parent) = Path::new(path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
            {
                std::fs::create_dir_all(parent)?;
            }
            String::new()
        }
        Err(e) => return Err(e),
    };
    let text = if text.contains(HEADER) {
        text
    } else {
        let mut seeded = text;
        if !seeded.is_empty() && !seeded.ends_with('\n') {
            seeded.push('\n');
        }
        if seeded.is_empty() {
            seeded.push_str(PREAMBLE);
        }
        seeded.push('\n');
        seeded.push_str(HEADER);
        seeded.push('\n');
        seeded.push_str(SEPARATOR);
        seeded.push('\n');
        seeded
    };
    let line = row.line();
    let key = format!("| {} |", row.run_id);
    let mut lines: Vec<&str> = text.lines().collect();
    if let Some(old) = lines.iter_mut().find(|l| l.starts_with(&key)) {
        *old = &line;
    } else {
        let header = lines.iter().position(|l| l.contains(HEADER));
        let table = header.map_or(lines.len(), |h| {
            h + lines[h..].iter().take_while(|l| l.starts_with('|')).count()
        });
        lines.insert(table, &line);
    }
    let mut out = lines.join("\n");
    out.push('\n');
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> BookRow {
        BookRow {
            run_id: "report/serial/scalar".to_owned(),
            timestamp_secs: 1_754_611_200, // 2025-08-08 00:00:00Z
            grid: "12 specs / 4 cells".to_owned(),
            scenarios_per_sec: 123.456,
            energy_gain_mean: Some(0.3125),
            delta_max_p50: Some(3),
            delta_max_p99: Some(5),
        }
    }

    /// A directory unique to this test process and `tag`, for a book that
    /// `upsert` creates; removed again on drop.
    struct TempBook(std::path::PathBuf);

    impl TempBook {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("seo-book-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }

        /// The book's path, as `upsert` takes it.
        fn path(&self) -> String {
            self.0.join("results.md").to_string_lossy().into_owned()
        }
    }

    impl Drop for TempBook {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn civil_dates_match_known_values() {
        assert_eq!(civil_utc(0), "1970-01-01 00:00:00Z");
        // Leap-year day boundary.
        assert_eq!(civil_utc(951_782_400), "2000-02-29 00:00:00Z");
        assert_eq!(civil_utc(1_754_611_200), "2025-08-08 00:00:00Z");
        assert_eq!(civil_utc(1_754_611_200 + 3_661), "2025-08-08 01:01:01Z");
    }

    #[test]
    fn row_renders_every_column() {
        let line = sample_row().line();
        assert_eq!(
            line,
            "| report/serial/scalar | 2025-08-08 00:00:00Z | 12 specs / 4 cells \
             | 123.5 | 31.25% | 3 | 5 |"
        );
        let empty = BookRow {
            energy_gain_mean: None,
            delta_max_p50: None,
            delta_max_p99: None,
            ..sample_row()
        };
        assert!(empty.line().ends_with("| 123.5 | - | - | - |"));
    }

    #[test]
    fn upsert_creates_then_replaces_then_appends() {
        let book = TempBook::new("upsert");
        let path = book.path();
        let row = sample_row();
        upsert(&path, &row).expect("create");
        let text = std::fs::read_to_string(&path).expect("book exists");
        assert!(text.starts_with("# Results book"));
        assert!(text.contains(HEADER));
        assert_eq!(text.matches("| report/serial/scalar |").count(), 1);

        // Same run id again: replaced in place, not duplicated.
        let rerun = BookRow {
            scenarios_per_sec: 999.0,
            ..row.clone()
        };
        upsert(&path, &rerun).expect("replace");
        let text = std::fs::read_to_string(&path).expect("book exists");
        assert_eq!(text.matches("| report/serial/scalar |").count(), 1);
        assert!(text.contains("| 999.0 |"));
        assert!(!text.contains("| 123.5 |"));

        // A different run id appends a second row and leaves the first.
        let other = BookRow {
            run_id: "report/hosts/scalar".to_owned(),
            ..row
        };
        upsert(&path, &other).expect("append");
        let text = std::fs::read_to_string(&path).expect("book exists");
        assert_eq!(text.matches("| report/serial/scalar |").count(), 1);
        assert_eq!(text.matches("| report/hosts/scalar |").count(), 1);
    }

    #[test]
    fn upsert_inserts_a_new_run_after_the_table_not_after_the_notes() {
        let book = TempBook::new("notes");
        let path = book.path();
        upsert(&path, &sample_row()).expect("create");
        let mut text = std::fs::read_to_string(&path).expect("book exists");
        text.push_str("\nA note below the table.\n");
        std::fs::write(&path, &text).expect("note added");
        let other = BookRow {
            run_id: "report/hosts/scalar".to_owned(),
            ..sample_row()
        };
        upsert(&path, &other).expect("insert");
        let text = std::fs::read_to_string(&path).expect("book exists");
        let rows = format!(
            "{}\n{}\n\nA note below the table.\n",
            sample_row().line(),
            other.line()
        );
        assert!(text.ends_with(&rows), "{text}");
    }

    #[test]
    fn upsert_preserves_foreign_text() {
        let book = TempBook::new("foreign");
        let path = book.path();
        std::fs::create_dir_all(Path::new(&path).parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, "hand-written notes\n").expect("seed");
        upsert(&path, &sample_row()).expect("upsert");
        let text = std::fs::read_to_string(&path).expect("book exists");
        assert!(text.starts_with("hand-written notes\n"));
        assert!(text.contains(HEADER));
        assert!(text.contains("| report/serial/scalar |"));
    }
}
