//! Tabular figure/table rendering for the reproduction harness.

use std::collections::{HashMap, HashSet};

/// One named series of (x-label, value) points.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<(String, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }

    pub fn get(&self, x: &str) -> Option<f64> {
        self.points.iter().find(|(l, _)| l == x).map(|(_, v)| *v)
    }
}

/// A reproduced figure or table: series over a shared x-axis.
#[derive(Debug, Clone)]
pub struct Figure {
    pub id: String,
    pub title: String,
    pub unit: &'static str,
    pub series: Vec<Series>,
    pub notes: Vec<String>,
}

impl Figure {
    pub fn new(id: impl Into<String>, title: impl Into<String>, unit: &'static str) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            unit,
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn series_mut(&mut self, name: &str) -> &mut Series {
        if let Some(i) = self.series.iter().position(|s| s.name == name) {
            &mut self.series[i]
        } else {
            self.series.push(Series::new(name));
            self.series.last_mut().unwrap()
        }
    }

    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// The x labels at which series `a` is lower than series `b` as the
    /// table prints them (`Q5, Q9`, or `none`): a note built from this
    /// cannot call a difference the table does not show.
    pub fn lower(&self, a: &str, b: &str) -> String {
        let value = |name: &str, x: &str| self.series.iter().find(|s| s.name == name)?.get(x);
        let mut xs = self.x_labels();
        xs.retain(|x| match (value(a, x), value(b, x)) {
            (Some(va), Some(vb)) => va < vb && cell(va) != cell(vb),
            _ => false,
        });
        if xs.is_empty() {
            xs.push("none".to_string());
        }
        xs.join(", ")
    }

    /// All x labels in first-appearance order.
    fn x_labels(&self) -> Vec<String> {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut out: Vec<String> = Vec::new();
        for s in &self.series {
            for (x, _) in &s.points {
                if seen.insert(x.as_str()) {
                    out.push(x.clone());
                }
            }
        }
        out
    }

    /// Render as an aligned text table: one row per x label, one column
    /// per series. Cells are looked up through per-series hash indexes
    /// built once up front — probing with `Series::get` per cell would
    /// rescan the whole series for every row, quadratic in points.
    pub fn render(&self) -> String {
        let xs = self.x_labels();
        let indexes: Vec<HashMap<&str, f64>> = self
            .series
            .iter()
            .map(|s| {
                let mut m = HashMap::with_capacity(s.points.len());
                for (x, v) in &s.points {
                    // First occurrence wins, matching `Series::get`.
                    m.entry(x.as_str()).or_insert(*v);
                }
                m
            })
            .collect();
        let mut out = format!("== {}: {} ({}) ==\n", self.id, self.title, self.unit);
        let xw = xs.iter().map(String::len).max().unwrap_or(4).max(4);
        let widths: Vec<usize> = self
            .series
            .iter()
            .map(|s| s.name.len().max(9) + 2)
            .collect();
        out.push_str(&format!("{:<xw$}", ""));
        for (s, w) in self.series.iter().zip(&widths) {
            out.push_str(&format!("{:>w$}", s.name, w = *w));
        }
        out.push('\n');
        for x in &xs {
            out.push_str(&format!("{x:<xw$}"));
            for (index, &w) in indexes.iter().zip(&widths) {
                let text = index.get(x.as_str()).map_or("-".to_string(), |v| cell(*v));
                out.push_str(&format!("{text:>w$}"));
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// One value as a table cell prints it.
fn cell(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() < 0.01 && v != 0.0 {
        // Keep orders-of-magnitude differences visible (Fig 14's "three
        // orders less" claim).
        format!("{v:.4}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_fills_gaps() {
        let mut f = Figure::new("Fig X", "demo", "s");
        f.series_mut("a").push("q1", 1.0);
        f.series_mut("a").push("q2", 2.0);
        f.series_mut("b").push("q2", 12345.0);
        f.note("hello");
        let r = f.render();
        assert!(r.contains("Fig X"));
        assert!(r.contains("12345"));
        assert!(r.contains('-'), "missing gap marker: {r}");
        assert!(r.contains("note: hello"));
    }

    #[test]
    fn lower_compares_as_the_table_prints() {
        let mut f = Figure::new("Fig Z", "arms", "s");
        for (x, a, b) in [("q1", 0.101, 0.104), ("q2", 0.2, 0.3), ("q3", 0.5, 0.4)] {
            f.series_mut("a").push(x, a);
            f.series_mut("b").push(x, b);
        }
        // q1 prints 0.10 on both sides: a tie, not a win.
        assert_eq!(f.lower("a", "b"), "q2");
        assert_eq!(f.lower("b", "a"), "q3");
        f.series_mut("c").push("q2", 0.1);
        assert_eq!(f.lower("c", "a"), "q2");
        assert_eq!(f.lower("a", "missing"), "none");
    }

    #[test]
    fn duplicate_x_labels_keep_first_value() {
        // `Series::get` returns the first matching point; the hashed
        // render path must agree.
        let mut f = Figure::new("Fig Y", "dups", "s");
        f.series_mut("a").push("q1", 1.0);
        f.series_mut("a").push("q1", 99.0);
        let r = f.render();
        assert!(r.contains("1.00"), "{r}");
        assert!(!r.contains("99.00"), "{r}");
        assert_eq!(r.matches("q1").count(), 1, "{r}");
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("x");
        s.push("a", 5.0);
        assert_eq!(s.get("a"), Some(5.0));
        assert_eq!(s.get("zz"), None);
    }
}

#[cfg(test)]
mod audit {
    use super::*;

    #[test]
    #[ignore]
    fn time_render_10k() {
        let mut f = Figure::new("big", "audit", "ms");
        for s in 0..3 {
            let series = f.series_mut(&format!("s{s}"));
            for i in 0..10_000 {
                series.push(format!("x{i}"), i as f64);
            }
        }
        let t0 = std::time::Instant::now();
        let new = f.render();
        let t_new = t0.elapsed();
        // Old path: per-cell linear Series::get probe + Vec::contains dedup.
        let t0 = std::time::Instant::now();
        let mut xs: Vec<String> = Vec::new();
        for s in &f.series {
            for (x, _) in &s.points {
                if !xs.contains(x) {
                    xs.push(x.clone());
                }
            }
        }
        let mut old = String::new();
        for x in &xs {
            for s in &f.series {
                if let Some(v) = s.get(x) {
                    old.push_str(&format!("{v:.2} "));
                }
            }
        }
        let t_old = t0.elapsed();
        println!(
            "new render: {t_new:?}, old-style probes: {t_old:?}, lens {} {}",
            new.len(),
            old.len()
        );
    }
}
