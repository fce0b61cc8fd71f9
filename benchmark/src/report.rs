//! What a run prints: every metric by name with its unit, and as the
//! last line of standard output the result object the contract reads.

use crate::json::{self, Value};
use crate::manifest::{Better, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One run's outcome: the contract's four keys.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object, on one line.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn from_line(line: &str) -> Result<RunResult, String> {
        let doc = json::parse(line)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("result lacks \"{k}\""));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("metric {name} has no numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("metric {name} has no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a bool")?,
            attempted: field("attempted")?
                .as_f64()
                .ok_or("\"attempted\" is not a number")? as u64,
            failed: field("failed")?
                .as_f64()
                .ok_or("\"failed\" is not a number")? as u64,
            metrics,
        })
    }
}

/// Collects the values of one run in manifest order and refuses a name
/// the manifest does not have, so the printed set is exactly the
/// declared one.
pub struct MetricSet {
    declared: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn end_to_end() -> MetricSet {
        MetricSet::over(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    pub fn per_layer() -> MetricSet {
        MetricSet::over(PER_LAYER.iter().map(|r| (r.name, r.unit)).collect())
    }

    fn over(declared: Vec<(&'static str, &'static str)>) -> MetricSet {
        MetricSet {
            values: vec![None; declared.len()],
            declared,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the manifest"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.declared.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// Every declared metric; one the run did not exercise reads 0 (the
    /// layer did no work on this workload).
    pub fn finish(self) -> Vec<Metric> {
        self.declared
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| Metric {
                name: name.to_string(),
                value: v.unwrap_or(0.0),
                unit: unit.to_string(),
            })
            .collect()
    }
}

/// `name value unit (better, bound)` for the human reader.
pub fn describe(name: &str, value: f64, unit: &str) -> String {
    let (better, bound): (Better, Option<f64>) = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.better, Some(m.bound)))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|r| r.name == name)
                .map(|r| (r.better, None))
        })
        .unwrap_or_else(|| panic!("metric {name} is not in the manifest"));
    let bound = bound.map_or(String::new(), |b| format!(", may worsen {:.1}%", 100.0 * b));
    format!(
        "{name:<34} {:>16} {unit:<6} ({} is better{bound})",
        format_value(value),
        better.as_str()
    )
}

/// A value with about four significant digits after the leading ones.
pub fn format_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_is_one_line() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 0.812_734_5);
        set.set("throughput_ops_s", 101_234.567_89);
        let r = RunResult {
            correct: true,
            attempted: 2_800_000,
            failed: 0,
            metrics: set.finish(),
        };
        let line = r.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_line(&line).unwrap(), r);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.value("setup_s"), Some(0.812_734_5));
        let keys: Vec<String> = json::parse(&line)
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    #[should_panic(expected = "not in the manifest")]
    fn undeclared_metrics_are_refused() {
        MetricSet::per_layer().set("server.made_up_ns", 1.0);
    }

    #[test]
    fn every_declared_metric_can_be_described() {
        for m in END_TO_END {
            assert!(describe(m.name, 1.5, m.unit).contains("may worsen"));
        }
        for r in PER_LAYER {
            assert!(describe(r.name, 0.0, r.unit).contains(r.name));
        }
    }
}
