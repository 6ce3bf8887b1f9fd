//! Plain-text rendering of experiment results: aligned tables carrying
//! paper-reference values next to measured ones, and ASCII figure series.

/// An aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl ReportTable {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        ReportTable {
            title: title.into(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a footnote line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The rows (cells as strings).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// A cell by (row, column header); `None` when absent.
    pub fn cell(&self, row: usize, column: &str) -> Option<&str> {
        let c = self.columns.iter().position(|h| h == column)?;
        self.rows.get(row).map(|r| r[c].as_str())
    }

    /// Render as RFC-4180-style CSV (quotes doubled, every field quoted)
    /// for downstream plotting tools.
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| format!("\"{}\"", s.replace('"', "\"\""));
        let mut out = String::new();
        out.push_str(
            &self.columns.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for ReportTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", "=".repeat(total.min(120)))?;
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line
        };
        writeln!(f, "{}", fmt_row(&self.columns))?;
        writeln!(f, "{}", "-".repeat(total.min(120)))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// One named series of a figure, rendered as an ASCII sparkline plus
/// summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    name: String,
    values: Vec<f64>,
}

impl FigureSeries {
    /// A named series.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        FigureSeries { name: name.into(), values }
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Series values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Render as two-column CSV (`index,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("index,value\n");
        for (i, v) in self.values.iter().enumerate() {
            out.push_str(&format!("{i},{v}\n"));
        }
        out
    }

    /// Render as `width` sparkline characters (block glyphs by value
    /// octile) — empty series render as an empty string.
    pub fn sparkline(&self, width: usize) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.values.is_empty() || width == 0 {
            return String::new();
        }
        let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let chunk = (self.values.len() as f64 / width as f64).max(1.0);
        let mut out = String::with_capacity(width);
        let mut i = 0.0;
        while (i as usize) < self.values.len() && out.chars().count() < width {
            let start = i as usize;
            let end = ((i + chunk) as usize).min(self.values.len()).max(start + 1);
            let v: f64 =
                self.values[start..end].iter().sum::<f64>() / (end - start) as f64;
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            let g = (t * 7.0).round().clamp(0.0, 7.0) as usize;
            out.push(GLYPHS[g]);
            i += chunk;
        }
        out
    }
}

impl std::fmt::Display for FigureSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        write!(
            f,
            "{:<24} [{}] min={:.3} max={:.3}",
            self.name,
            self.sparkline(60),
            lo,
            hi
        )
    }
}

/// Format a percentage with one decimal (the paper's style).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format "measured (paper: reference)" cells.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    format!("{} (paper {:.1}%)", pct(measured), paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = ReportTable::new("Demo", &["A", "Longer"]);
        t.push_row(vec!["x".into(), "y".into()]);
        t.push_note("a note");
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("| A "));
        assert!(s.contains("note: a note"));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut t = ReportTable::new("Demo", &["A", "B"]);
        t.push_row(vec!["x".into()]);
    }

    #[test]
    fn cell_lookup() {
        let mut t = ReportTable::new("Demo", &["A", "B"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.cell(0, "B"), Some("2"));
        assert_eq!(t.cell(0, "C"), None);
        assert_eq!(t.cell(1, "A"), None);
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = FigureSeries::new("s", vec![0.0, 1.0]);
        let line = s.sparkline(2);
        assert_eq!(line.chars().next(), Some('▁'));
        assert_eq!(line.chars().last(), Some('█'));
    }

    #[test]
    fn sparkline_empty_is_empty() {
        assert_eq!(FigureSeries::new("s", vec![]).sparkline(10), "");
    }

    #[test]
    fn sparkline_constant_is_flat() {
        let s = FigureSeries::new("s", vec![3.0; 10]);
        let line = s.sparkline(5);
        assert!(line.chars().all(|c| c == '▁'));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.966), "96.6%");
        assert_eq!(vs_paper(0.95, 96.6), "95.0% (paper 96.6%)");
    }
}
