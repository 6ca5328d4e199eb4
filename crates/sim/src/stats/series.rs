//! Labeled (x, y) series for figure output.

use std::fmt;

/// A named series of `(x, y)` points — one line on a paper figure.
///
/// The benchmark harness prints these as aligned text tables so each figure's
/// data can be compared row-by-row with the paper.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.name)?;
        for (x, y) in &self.points {
            writeln!(f, "{x:>12.3} {y:>14.4}")?;
        }
        Ok(())
    }
}

/// Renders several series as a single aligned table with a shared x column.
///
/// Missing values print as `-`. This is the standard output format of every
/// figure bench.
pub fn render_table(x_label: &str, series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut xs: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|(x, _)| *x)).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x value"));
    xs.dedup();

    let mut out = String::new();
    write!(out, "{x_label:>14}").expect("write to string");
    for s in series {
        write!(out, " {:>16}", s.name()).expect("write to string");
    }
    out.push('\n');
    for x in xs {
        write!(out, "{x:>14.2}").expect("write to string");
        for s in series {
            match s.points.iter().find(|(px, _)| *px == x) {
                Some((_, y)) => write!(out, " {y:>16.3}").expect("write to string"),
                None => write!(out, " {:>16}", "-").expect("write to string"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_push_and_lookup() {
        let mut s = Series::new("clio");
        s.push(1.0, 2.5);
        s.push(2.0, 2.6);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points(), &[(1.0, 2.5), (2.0, 2.6)]);
        assert!(!s.is_empty());
        assert_eq!(s.name(), "clio");
    }

    #[test]
    fn table_aligns_multiple_series() {
        let mut a = Series::new("clio");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("rdma");
        b.push(1.0, 11.0);
        let t = render_table("size", &[a, b]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("clio") && lines[0].contains("rdma"));
        assert!(lines[2].contains('-'), "missing value renders as dash: {t}");
    }

    #[test]
    fn display_renders_points() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        let out = s.to_string();
        assert!(out.starts_with("# x"));
        assert!(out.contains("1.000"));
    }
}
