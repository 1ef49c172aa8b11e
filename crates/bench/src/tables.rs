//! Plain-text table and series rendering for the experiments.

/// Prints a table: a header row followed by data rows, columns padded to
/// the widest cell.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        crate::outln!("{}", s.trim_end());
    };
    line(header.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a named numeric series (one figure curve) as `label: v1 v2 …`.
pub fn print_series(label: &str, values: &[f64]) {
    let rendered: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    crate::outln!("{label}: {}", rendered.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_table_handles_rows() {
        // Smoke test: must not panic.
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
