//! Tabular stdout reporting + JSON result files.

use std::fmt::Write as _;
use std::path::Path;
use toss_json::Value;

/// A simple fixed-width table printer for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells rendered by the caller).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", c, width = widths[i]);
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Write a JSON result set to `results/<name>.json` under the workspace
/// root (directory created on demand).
pub fn write_json(name: &str, value: &Value) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has two ancestors")
        .join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["22".into(), "yy".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_written_to_results() {
        let p = write_json("unit-test-report", &vec![1i64, 2, 3].into()).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.contains('1'));
        std::fs::remove_file(p).ok();
    }
}
