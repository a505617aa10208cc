//! A small column-aligned text-table formatter shared by every
//! human-readable breakdown in the workspace (cnn-he's per-region
//! `exec::breakdown`, he-serve's `ServeReport`, this crate's CLI
//! summary). Columns auto-size to their widest cell, so long layer
//! names can't shear the header out of alignment.

/// Per-column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

/// Column-aligned table builder.
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
    /// Row indices after which a horizontal rule is drawn.
    rules: Vec<usize>,
}

impl Table {
    /// A table with one `(header, alignment)` pair per column.
    #[must_use]
    pub fn new(columns: &[(&str, Align)]) -> Self {
        Self {
            headers: columns.iter().map(|(h, _)| (*h).to_string()).collect(),
            aligns: columns.iter().map(|(_, a)| *a).collect(),
            rows: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Append a row. Missing trailing cells render empty; extra cells
    /// are truncated to the column count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.truncate(self.headers.len());
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Draw a horizontal rule after the most recently added row (or
    /// after the header if no rows yet).
    pub fn rule(&mut self) -> &mut Self {
        self.rules.push(self.rows.len());
        self
    }

    /// Render with two-space column gutters, a rule under the header,
    /// and any requested body rules.
    #[must_use]
    pub fn render(&self) -> String {
        // widths in chars, not bytes: layer names carry multi-byte
        // glyphs like `→` and `×`
        let ch = |s: &String| s.chars().count();
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(ch).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(ch(cell));
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        let rule_line = "-".repeat(total);

        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match self.aligns[i] {
                    Align::Left => {
                        line.push_str(cell);
                        if i + 1 < cols {
                            line.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad));
                        line.push_str(cell);
                    }
                }
            }
            while line.ends_with(' ') {
                line.pop();
            }
            line
        };

        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&rule_line);
        out.push('\n');
        for (ri, row) in self.rows.iter().enumerate() {
            out.push_str(&fmt_row(row));
            out.push('\n');
            if self.rules.contains(&(ri + 1)) {
                out.push_str(&rule_line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align_with_long_names() {
        let mut t = Table::new(&[
            ("layer", Align::Left),
            ("units", Align::Right),
            ("wall", Align::Right),
        ]);
        t.row(vec!["conv", "180", "1.2s"]);
        t.row(vec!["a-very-long-activation-layer-name", "64", "0.4s"]);
        t.row(vec!["Conv(1→4, 3×3, s1, p0)", "16", "0.1s"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // every non-rule line ends its "wall" column at the same
        // display offset (char count, independent of UTF-8 bytes)
        let data = [lines[0], lines[2], lines[3], lines[4]];
        let w = data.iter().map(|l| l.chars().count()).max().unwrap();
        for l in data {
            assert_eq!(l.chars().count(), w, "misaligned line: {l:?}\n{s}");
        }
        assert!(lines[0].starts_with("layer"));
        assert!(lines[3].starts_with("a-very-long-activation-layer-name"));
    }

    #[test]
    fn short_rows_pad_and_rules_draw() {
        let mut t = Table::new(&[("a", Align::Left), ("b", Align::Right)]);
        t.row(vec!["x"]);
        t.rule();
        t.row(vec!["y", "2"]);
        let s = t.render();
        assert_eq!(s.lines().count(), 5, "{s}");
    }
}
