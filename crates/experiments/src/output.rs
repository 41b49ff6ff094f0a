//! Experiment output: CSV files under `results/` and ASCII rendering of
//! series for direct stdout comparison with the paper's figures.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple column-oriented result table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// One column's values.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.headers.iter().position(|h| h == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// Renders as CSV — the exact bytes [`write_csv`] puts on disk,
    /// also used by the golden-snapshot tests to compare against
    /// committed fixtures.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Writes a [`Table`] as CSV to `results/<name>.csv` (creating the
/// directory), returning the path written.
pub fn write_csv(name: &str, table: &Table) -> std::io::Result<PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    f.write_all(table.to_csv().as_bytes())?;
    Ok(path)
}

/// Renders an ASCII scatter/line plot of `(x, y)` series. `log_y`
/// plots `log10(y)`; non-positive values are dropped in that mode.
/// Multiple series are overlaid with distinct glyphs.
pub fn ascii_plot(
    series: &[(&str, &[(f64, f64)])],
    log_y: bool,
    width: usize,
    height: usize,
) -> String {
    const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let mut pts: Vec<(usize, f64, f64)> = Vec::new();
    for (si, (_, s)) in series.iter().enumerate() {
        for &(x, y) in s.iter() {
            let y = if log_y {
                if y <= 0.0 {
                    continue;
                }
                y.log10()
            } else {
                y
            };
            if x.is_finite() && y.is_finite() {
                pts.push((si, x, y));
            }
        }
    }
    if pts.is_empty() {
        return "(no plottable points)\n".to_string();
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x1 - x0 < 1e-12 {
        x1 = x0 + 1.0;
    }
    if y1 - y0 < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for &(si, x, y) in &pts {
        let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
        let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
        let row = height - 1 - cy;
        grid[row][cx] = GLYPHS[si % GLYPHS.len()];
    }
    let mut out = String::new();
    let y_label = |v: f64| {
        if log_y {
            format!("1e{v:.1}")
        } else {
            format_value(v)
        }
    };
    for (r, row) in grid.iter().enumerate() {
        let yv = y1 - (y1 - y0) * r as f64 / (height - 1) as f64;
        out.push_str(&format!("{:>9} |", y_label(yv)));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>9}  {:<w$.4}{:>r$.4}\n",
        "",
        x0,
        x1,
        w = width / 2,
        r = width - width / 2
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(vec!["x", "y"]);
        t.push(vec![1.0, 2.0]);
        t.push(vec![3.0, 4.0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.column("y").unwrap(), vec![2.0, 4.0]);
        assert!(t.column("z").is_none());
        assert_eq!(t.to_csv(), "x,y\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn csv_written_to_results_dir() {
        let mut t = Table::new(vec!["p", "q"]);
        t.push(vec![0.5, 1e-5]);
        let path = write_csv("unit_test_output", &t).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("p,q\n"));
        assert!(text.contains("0.5,0.00001"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn plot_renders_points() {
        let s1 = [(0.0, 1.0), (1.0, 10.0), (2.0, 100.0)];
        let s2 = [(0.0, 2.0), (2.0, 50.0)];
        let p = ascii_plot(&[("theory", &s1), ("sim", &s2)], true, 40, 10);
        assert!(p.contains('*') && p.contains('o'));
        assert!(p.contains("theory") && p.contains("sim"));
    }

    #[test]
    fn plot_log_mode_drops_nonpositive() {
        let s = [(0.0, 0.0), (1.0, -5.0)];
        let p = ascii_plot(&[("bad", &s)], true, 20, 5);
        assert!(p.contains("no plottable points"));
    }

    #[test]
    fn format_value_ranges() {
        assert_eq!(format_value(0.0), "0");
        assert!(format_value(12345.0).contains('e'));
        assert!(format_value(1e-7).contains('e'));
        assert_eq!(format_value(1.5), "1.5000");
    }
}
