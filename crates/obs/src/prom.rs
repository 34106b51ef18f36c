//! Prometheus text-exposition encoding (`text/plain; version=0.0.4`).
//!
//! [`PromText`] is a low-level writer used by [`crate::Registry`] and by
//! the few families a caller reads live at scrape time (the serving
//! daemon's per-model-entry families), so every family is encoded by
//! exactly one implementation. It handles HELP/label escaping, Prometheus
//! float forms (`+Inf`, `NaN`), and the cumulative-bucket shape of
//! histogram families.

use std::collections::HashSet;
use std::fmt::Write as _;

/// The content type the exposition must be served under.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Append-only writer producing valid exposition text.
#[derive(Debug)]
pub struct PromText<'a> {
    out: &'a mut String,
}

/// Format a sample value: Prometheus floats render like Go's
/// `strconv.FormatFloat`, with `+Inf`/`-Inf`/`NaN` spelled out.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl<'a> PromText<'a> {
    /// Wrap an existing buffer.
    pub fn wrap(out: &'a mut String) -> Self {
        Self { out }
    }

    /// Emit a family's `# HELP` and `# TYPE` lines. `kind` is one of
    /// `counter`, `gauge`, `histogram`, `summary`, `untyped`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emit one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label_value(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}", format_value(value));
    }

    /// Emit one histogram sample's lines (after the family's
    /// [`PromText::header`]): `buckets` are `(upper_edge_secs,
    /// cumulative_count)` pairs in increasing edge order (the terminal
    /// `+Inf` bucket is appended automatically from `count`), followed by
    /// `_sum` and `_count`. `labels` are attached to every line.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        buckets: &[(f64, u64)],
        sum: f64,
        count: u64,
    ) {
        let bucket_name = format!("{name}_bucket");
        let edges: Vec<String> = buckets
            .iter()
            .map(|&(edge, _)| format_value(edge))
            .collect();
        for (edge, &(_, cumulative)) in edges.iter().zip(buckets) {
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", edge.as_str()));
            self.sample(&bucket_name, &with_le, cumulative as f64);
        }
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", "+Inf"));
        self.sample(&bucket_name, &with_le, count as f64);
        self.sample(&format!("{name}_sum"), labels, sum);
        self.sample(&format!("{name}_count"), labels, count as f64);
    }

    /// The underlying buffer length (useful to detect "anything written").
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Structural validation of an exposition body: every line must be a
/// comment, blank, or a `name{labels} value` sample whose value parses,
/// and no family may be typed twice. Returns the number of sample lines,
/// or the first offending line.
///
/// This is the check CI and the loopback tests run against the daemon's
/// `GET /metrics` text output — not a full client, but enough to catch
/// unescaped labels, missing values, malformed floats, and a family
/// rendered twice (two registries sharing one scrape), which
/// Prometheus's parser rejects.
pub fn validate_exposition(body: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed = HashSet::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim_end();
        if let Some(typed_line) = line.strip_prefix("# TYPE ") {
            let family = typed_line.split(' ').next().unwrap_or_default();
            if !typed.insert(family) {
                return Err(format!(
                    "line {}: second # TYPE line for family {family:?}",
                    lineno + 1
                ));
            }
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Split the value off the end; labels may contain spaces inside
        // quoted values, so find the metric part by the last '}' if any.
        let (metric, value) = match line.rfind('}') {
            Some(brace) => {
                let rest = line[brace + 1..].trim();
                (&line[..brace + 1], rest)
            }
            None => match line.split_once(' ') {
                Some((m, v)) => (m, v.trim()),
                None => return Err(format!("line {}: no value: {line:?}", lineno + 1)),
            },
        };
        if metric.is_empty() {
            return Err(format!("line {}: empty metric name", lineno + 1));
        }
        let name_end = metric.find('{').unwrap_or(metric.len());
        let name = &metric[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !ok {
            return Err(format!("line {}: bad value {value:?}", lineno + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_and_escaping() {
        let mut out = String::new();
        let mut p = PromText::wrap(&mut out);
        assert!(p.is_empty());
        p.header("m_total", "Help with \\ and\nnewline.", "counter");
        p.sample("m_total", &[("path", "a\"b\\c\nd")], 3.0);
        assert!(!p.is_empty());
        assert!(out.contains("# HELP m_total Help with \\\\ and\\nnewline.\n"));
        assert!(out.contains("m_total{path=\"a\\\"b\\\\c\\nd\"} 3\n"));
        assert_eq!(validate_exposition(&out), Ok(1));
    }

    #[test]
    fn histogram_shape() {
        let mut out = String::new();
        let mut p = PromText::wrap(&mut out);
        p.header("lat_seconds", "Latency.", "histogram");
        p.histogram(
            "lat_seconds",
            &[("model", "wiki")],
            &[(0.001, 2), (0.01, 5)],
            0.025,
            6,
        );
        assert!(out.contains("# TYPE lat_seconds histogram\n"));
        assert!(out.contains("lat_seconds_bucket{model=\"wiki\",le=\"0.001\"} 2\n"));
        assert!(out.contains("lat_seconds_bucket{model=\"wiki\",le=\"0.01\"} 5\n"));
        assert!(out.contains("lat_seconds_bucket{model=\"wiki\",le=\"+Inf\"} 6\n"));
        assert!(out.contains("lat_seconds_sum{model=\"wiki\"} 0.025\n"));
        assert!(out.contains("lat_seconds_count{model=\"wiki\"} 6\n"));
        // Three bucket lines plus _sum and _count.
        assert_eq!(validate_exposition(&out), Ok(5));
    }

    #[test]
    fn special_floats() {
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(0.25), "0.25");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("just words no value here\n").is_err());
        assert!(validate_exposition("1leading_digit 3\n").is_err());
        assert!(validate_exposition("name notanumber\n").is_err());
        assert_eq!(validate_exposition("# only comments\n\n"), Ok(0));
        assert_eq!(validate_exposition("ok_total 1\nok_gauge -2.5e3\n"), Ok(2));
        // One family rendered twice, as two registries in one scrape would.
        let once = "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n";
        assert_eq!(validate_exposition(once), Ok(1));
        assert!(validate_exposition(&once.repeat(2)).is_err());
    }
}
