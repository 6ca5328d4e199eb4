//! Paper-style figure output.

use clio_sim::stats::{render_table, Series};

/// A regenerated figure: an id ("fig04"), the paper's caption, the data
/// table, and free-form notes (calibration caveats, paper-vs-measured).
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Short id, e.g. `fig04`.
    pub id: &'static str,
    /// The paper's caption.
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// One series per line in the paper's plot.
    pub series: Vec<Series>,
    /// Named scalar metrics (e.g. frames/op at default knobs) rendered as a
    /// summary column under the table, so regressions in quantities not on
    /// the plot's axes — framing efficiency above all — stay visible in
    /// bench output.
    pub metrics: Vec<(String, f64)>,
    /// Notes shown under the table.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: &'static str, title: &'static str, x_label: &'static str) -> Self {
        FigureReport {
            id,
            title,
            x_label,
            series: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series (one plotted line).
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds a named scalar metric (summary column under the table).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Adds a note.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Renders the full report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "================================================================");
        let _ = writeln!(out, "{}: {}", self.id, self.title);
        let _ = writeln!(out, "================================================================");
        out.push_str(&render_table(self.x_label, &self.series));
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "  metric: {name} = {value:.4}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Prints the report to stdout (the bench entry point).
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_title_series_and_notes() {
        let mut r = FigureReport::new("figXX", "Test Figure", "x");
        let mut s = Series::new("clio");
        s.push(1.0, 2.0);
        r.push_series(s);
        r.note("calibrated");
        let text = r.render();
        assert!(text.contains("figXX"));
        assert!(text.contains("Test Figure"));
        assert!(text.contains("clio"));
        assert!(text.contains("note: calibrated"));
    }

    #[test]
    fn render_includes_metrics() {
        let mut r = FigureReport::new("figYY", "Metrics", "x");
        r.metric("frames/op [resp] 64-op burst", 4.0 / 64.0);
        r.metric("frames/op [req] empty", 0.0);
        r.metric("goodput Gbps", 9.4);
        let text = r.render();
        assert!(text.contains("metric: frames/op [resp] 64-op burst = 0.0625"));
        assert!(text.contains("metric: frames/op [req] empty = 0.0000"));
        assert!(text.contains("metric: goodput Gbps = 9.4000"));
    }
}
