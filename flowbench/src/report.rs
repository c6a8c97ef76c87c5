//! Reported metrics and the one-line JSON result.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name: a letter or digit, then letters, digits, `_`, `.`, `-`.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Rejects an invalid or repeated
/// name, an invalid unit and a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if metrics[..i].iter().any(|earlier| earlier.name == m.name) {
            return Err(format!("metric {:?} reported twice", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_restricted_charset() {
        for good in ["solve_s", "core.selection.iter_p99_ms", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "has space",
            "p99%",
            "ünits",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms"));
        assert!(!valid_unit("") && !valid_unit("flow units"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("solve_s", "s", 1.25, 4),
                Metric::new("flow", "flow", 3.5, 1),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"flow\": {\"value\": 3.5, \"unit\": \"flow\"}}}"
        );
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let m = |name: &str, value: f64| Metric::new(name, "s", value, 1);
        assert!(result_line(true, 1, 0, &[m("bad name", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("x", 1.0), m("x", 2.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("x", f64::NAN)]).is_err());
    }
}
