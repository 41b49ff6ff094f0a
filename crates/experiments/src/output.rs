//! Experiment output: CSV files under `results/` and ASCII rendering of
//! series for direct stdout comparison with the paper's figures.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A column-oriented result table of numbers, with an optional leading
/// text column that labels each row.
#[derive(Debug, Clone)]
pub struct Table {
    label: Option<String>,
    headers: Vec<String>,
    labels: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            label: None,
            headers: headers.into_iter().map(Into::into).collect(),
            labels: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Creates a table whose rows lead with a text column headed `label`.
    pub fn labelled<S: Into<String>>(label: &str, headers: Vec<S>) -> Self {
        Table {
            label: Some(label.to_string()),
            ..Table::new(headers)
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers, or if the
    /// table is labelled.
    pub fn push(&mut self, row: Vec<f64>) {
        assert!(self.label.is_none(), "a labelled table's rows need labels");
        self.push_row(String::new(), row);
    }

    /// Appends a row of a labelled table.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers, if the table
    /// is not labelled, or if `label` holds a comma, a quote or a newline
    /// (the CSV is written unquoted).
    pub fn push_labelled(&mut self, label: &str, row: Vec<f64>) {
        assert!(
            self.label.is_some(),
            "an unlabelled table's rows have no label"
        );
        assert!(
            !label.contains([',', '"', '\n']),
            "unquotable label {label:?}"
        );
        self.push_row(label.to_string(), row);
    }

    fn push_row(&mut self, label: String, row: Vec<f64>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.labels.push(label);
        self.rows.push(row);
    }

    /// One column's values.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.headers.iter().position(|h| h == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// The label column's header, then the numeric headers.
    fn all_headers(&self) -> Vec<&str> {
        self.label
            .iter()
            .chain(&self.headers)
            .map(String::as_str)
            .collect()
    }

    /// Each row's cells as text, `number` formatting the numbers.
    fn cells(&self, number: fn(f64) -> String) -> impl Iterator<Item = Vec<String>> + '_ {
        self.labels.iter().zip(&self.rows).map(move |(label, row)| {
            let numbers = row.iter().map(|&v| number(v));
            self.label
                .as_ref()
                .map(|_| label.clone())
                .into_iter()
                .chain(numbers)
                .collect()
        })
    }

    /// Renders as CSV — the exact bytes [`write_csv`] puts on disk,
    /// also used by the golden-snapshot tests to compare against
    /// committed fixtures.
    pub fn to_csv(&self) -> String {
        let mut out = self.all_headers().join(",");
        out.push('\n');
        for cells in self.cells(|v| format!("{v}")) {
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as aligned text for a terminal: the label column flush
    /// left, every number through `format_value` and flush right.
    pub fn render(&self) -> String {
        let headers = self.all_headers();
        let rows: Vec<Vec<String>> = self.cells(format_value).collect();
        let width = |col: usize| {
            let cells = rows.iter().map(|r| shown_width(&r[col]));
            cells.fold(shown_width(headers[col]), usize::max)
        };
        let widths: Vec<usize> = (0..headers.len()).map(width).collect();
        let left = usize::from(self.label.is_some());
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let mut out = String::new();
            for (col, cell) in cells.enumerate() {
                let pad = " ".repeat(widths[col] - shown_width(cell));
                match col < left {
                    true => out.push_str(&format!("{cell}{pad}  ")),
                    false => out.push_str(&format!("{pad}{cell}  ")),
                }
            }
            out.trim_end().to_string() + "\n"
        };
        let mut out = line(&mut headers.iter().copied());
        for row in &rows {
            out.push_str(&line(&mut row.iter().map(String::as_str)));
        }
        out
    }
}

/// The columns `text` takes on a terminal: its characters, less the
/// combining marks (`T̃` is a `T` and a combining tilde).
fn shown_width(text: &str) -> usize {
    let combining = |c: &char| ('\u{300}'..='\u{36f}').contains(c);
    text.chars().filter(|c| !combining(c)).count()
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e4 {
        format!("{v}")
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
    fn a_labelled_table_leads_with_its_labels() {
        let mut t = Table::labelled("case", vec!["n", "pf"]);
        t.push_labelled("memoryless", vec![400.0, 0.25]);
        t.push_labelled("T_m = T̃_h", vec![1600.0, 2e-5]);
        assert_eq!(t.column("n").unwrap(), vec![400.0, 1600.0]);
        assert_eq!(
            t.to_csv(),
            "case,n,pf\nmemoryless,400,0.25\nT_m = T̃_h,1600,0.00002\n"
        );
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "case           n        pf",
                "memoryless   400    0.2500",
                "T_m = T̃_h   1600  2.000e-5"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unquotable label")]
    fn a_label_may_not_hold_a_comma() {
        let mut t = Table::labelled("case", vec!["pf"]);
        t.push_labelled("per-flow, T_m = T̃_h", vec![0.5]);
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
        assert_eq!(format_value(400.0), "400");
    }
}
