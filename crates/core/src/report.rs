//! Plain-text table formatting for reports.

use std::fmt::Write as _;

/// Formats a fixed-width text table (the style the bench harnesses print).
///
/// # Examples
///
/// ```
/// let t = fast_bcnn::report::format_table(
///     &["design", "speedup"],
///     &[vec!["FB-64".to_string(), "3.1x".to_string()]],
/// );
/// assert!(t.contains("FB-64"));
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "| {h:<w$} ");
    }
    line.push('|');
    let _ = writeln!(out, "{line}");
    let mut sep = String::new();
    for w in &widths {
        let _ = write!(sep, "|{:-<1$}", "", w + 2);
    }
    sep.push('|');
    let _ = writeln!(out, "{sep}");
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "| {cell:<w$} ");
        }
        line.push('|');
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }
}
