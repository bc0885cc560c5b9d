//! Plain-text table rendering and result persistence.
//!
//! Every experiment prints an aligned table to stdout and appends the
//! same content to `bench_results/<experiment>.txt`, which EXPERIMENTS.md
//! references. The dispatcher in `main.rs` truncates that file once
//! before the experiment runs, so a re-run replaces it.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

/// A simple aligned-column table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i];
                if i + 1 == ncols {
                    let _ = write!(out, "{cell:<pad$}");
                } else {
                    let _ = write!(out, "{cell:<pad$}  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Formats a `Duration` in milliseconds with sensible precision.
pub fn ms(d: std::time::Duration) -> String {
    let v = d.as_secs_f64() * 1e3;
    if v < 0.095 {
        format!("{:.3}", v)
    } else if v < 10.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.0}", v)
    }
}

/// Formats a `Duration` in seconds.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats a ratio as a percentage.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "-".to_owned()
    } else {
        format!("{:.2}%", 100.0 * num as f64 / den as f64)
    }
}

/// Directory for experiment outputs (`MPC_BENCH_OUT`, default
/// `bench_results`), created on demand.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var("MPC_BENCH_OUT").unwrap_or_else(|_| "bench_results".to_owned());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path)?;
    Ok(path)
}

/// Prints a titled section and appends it to `bench_results/<file>.txt`.
pub fn emit(file: &str, title: &str, body: &str) -> io::Result<()> {
    let text = format!("== {title} ==\n{body}\n");
    print!("{text}");
    let path = results_dir()?.join(format!("{file}.txt"));
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?
        .write_all(text.as_bytes())
}

/// Writes a pretty-printed JSON document to `bench_results/<file>.json`,
/// returning the path.
pub fn write_json(file: &str, json: &mpc_obs::Json) -> io::Result<PathBuf> {
    let path = results_dir()?.join(format!("{file}.json"));
    fs::write(&path, format!("{}\n", json.pretty()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn duration_formats() {
        assert_eq!(ms(Duration::from_micros(50)), "0.050");
        assert_eq!(ms(Duration::from_millis(5)), "5.00");
        assert_eq!(ms(Duration::from_millis(150)), "150");
        assert_eq!(secs(Duration::from_millis(2500)), "2.50");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1, 2), "50.00%");
        assert_eq!(pct(0, 0), "-");
        assert_eq!(pct(3, 3), "100.00%");
    }
}
