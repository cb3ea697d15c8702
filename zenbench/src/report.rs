//! Metric records, robust summaries, and the result line.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Gated metrics: the `end_to_end` (untraced) or `per_layer`
    /// (traced) names of `BENCHMARK.json`, in that order.
    pub gated: Vec<Metric>,
    /// Workload-specific metrics printed for reading, never gated.
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Quantile by linear interpolation between closest ranks; `q` in 0..=1.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Print every metric for reading, then the result line (last line of
/// standard output).
pub fn print(workload: &str, trace: bool, out: &Outcome) {
    println!(
        "# {workload} ({})",
        if trace {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        }
    );
    for m in out.gated.iter().chain(&out.info) {
        println!(
            "{:<28} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<28} {:>16.6} {:<6} n={}",
        "fail_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.attempted
    );
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = out
        .gated
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
