//! Result tables: aligned console printing plus CSV export.

use std::fmt::Write as _;
use std::path::Path;

/// A result table for one figure/table of the paper.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub(crate) fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render aligned for the console.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// CSV encoding (quotes cells containing commas).
    pub(crate) fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Print to stdout and write `results/<id>.csv` (best effort).
    pub fn emit(&self, id: &str) {
        println!("{}", self.render());
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{id}.csv")), self.to_csv());
        }
    }
}

/// Format a float with 3 decimals.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 2 decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["2".into(), "value,with,commas".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("long_header"));
        let csv = t.to_csv();
        assert!(csv.contains("\"value,with,commas\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
