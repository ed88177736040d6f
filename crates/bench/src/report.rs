//! Plain-text table output for experiment results.

/// A printable results table: header row plus data rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: Into<String>>(title: &str, header: impl IntoIterator<Item = S>) -> Self {
        Table {
            title: title.to_owned(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with one decimal.
pub fn secs(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a transmission count in thousands (the paper's y-axis unit).
pub fn kilo(v: u64) -> String {
    format!("{:.1}", v as f64 / 1000.0)
}

/// Formats an optional ratio as a percentage.
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.0}%", v * 100.0),
        None => "-".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", ["range", "time"]);
        t.row(vec!["20".into(), "512.3".into()]);
        t.row(vec!["100".into(), "99.1".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("range"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(12.345), "12.3");
        assert_eq!(kilo(12_345), "12.3");
        assert_eq!(pct(Some(0.83)), "83%");
        assert_eq!(pct(None), "-");
    }
}
