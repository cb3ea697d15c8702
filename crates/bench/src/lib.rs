//! # zen-bench — benchmarks and experiment harnesses
//!
//! Micro-benchmarks (E1–E4, E6) and printed-table experiment harnesses
//! (E5, E7–E10) per the experiment index in `DESIGN.md`. All benches run
//! on the in-tree [`harness`] — the workspace builds hermetically with
//! no external crates. `cargo bench --workspace` regenerates everything;
//! results are recorded in `EXPERIMENTS.md`.

/// A minimal micro-benchmark harness: calibrated batch timing with
/// median-of-samples reporting, in the spirit of criterion but ~100
/// lines and dependency-free.
pub mod harness {
    use std::time::{Duration, Instant};

    /// How to report a per-iteration rate alongside the raw time.
    #[derive(Debug, Clone, Copy)]
    pub enum Throughput {
        /// Each iteration processes this many logical elements.
        Elements(u64),
        /// Each iteration processes this many bytes.
        Bytes(u64),
    }

    /// A named group of benchmarks sharing sampling parameters.
    ///
    /// ```no_run
    /// use zen_bench::harness::Bench;
    /// let mut g = Bench::group("E1/flow_table_lookup");
    /// g.run("exact/100", || 2 + 2);
    /// ```
    pub struct Bench {
        group: String,
        samples: usize,
        warm_up: Duration,
        measure: Duration,
        throughput: Option<Throughput>,
    }

    impl Bench {
        /// A group named `group` with default sampling (10 samples,
        /// 200 ms warm-up, 1 s measurement).
        pub fn group(group: &str) -> Bench {
            Bench {
                group: group.to_string(),
                samples: 10,
                warm_up: Duration::from_millis(200),
                measure: Duration::from_secs(1),
                throughput: None,
            }
        }

        /// Set the number of timed samples per benchmark.
        pub fn samples(mut self, n: usize) -> Bench {
            self.samples = n.max(1);
            self
        }

        /// Set the warm-up duration before sampling starts.
        pub fn warm_up(mut self, d: Duration) -> Bench {
            self.warm_up = d;
            self
        }

        /// Set the total measurement budget across all samples.
        pub fn measurement(mut self, d: Duration) -> Bench {
            self.measure = d;
            self
        }

        /// Report a derived rate with each result (sticky until changed).
        pub fn throughput(&mut self, t: Throughput) -> &mut Bench {
            self.throughput = Some(t);
            self
        }

        /// Time `f`, print one result line, and return the median
        /// nanoseconds per iteration.
        pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> f64 {
            // Calibrate: double the batch size until one batch costs at
            // least ~1/50 of the measurement budget, so timer overhead
            // is negligible relative to the work.
            let floor = (self.measure.as_nanos() / 50).max(1) as u64;
            let mut batch = 1u64;
            loop {
                let t0 = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                let spent = t0.elapsed().as_nanos() as u64;
                if spent >= floor || batch >= 1 << 30 {
                    break;
                }
                // Jump straight to the target once we have a rate estimate.
                batch = match (batch * floor).checked_div(spent) {
                    Some(target) => (target + 1).clamp(batch + 1, batch * 32),
                    None => batch * 2,
                };
            }

            let warm_until = Instant::now() + self.warm_up;
            while Instant::now() < warm_until {
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
            }

            let mut per_iter: Vec<f64> = (0..self.samples)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..batch {
                        std::hint::black_box(f());
                    }
                    t0.elapsed().as_nanos() as f64 / batch as f64
                })
                .collect();
            per_iter.sort_by(|a, b| a.total_cmp(b));
            let median = per_iter[per_iter.len() / 2];

            let rate = match self.throughput {
                Some(Throughput::Elements(n)) => {
                    format!("  thrpt: {}/s", si(n as f64 / (median * 1e-9)))
                }
                Some(Throughput::Bytes(n)) => {
                    format!("  thrpt: {}B/s", si(n as f64 / (median * 1e-9)))
                }
                None => String::new(),
            };
            println!(
                "{}/{:<32} time: {:>12}/iter{}",
                self.group,
                name,
                format!("{}s", si(median * 1e-9)),
                rate
            );
            median
        }
    }

    /// Format `v` with an SI magnitude prefix (`12.3 M`, `456 n`, …).
    fn si(v: f64) -> String {
        const UNITS: [(f64, &str); 7] = [
            (1e9, " G"),
            (1e6, " M"),
            (1e3, " k"),
            (1.0, " "),
            (1e-3, " m"),
            (1e-6, " µ"),
            (1e-9, " n"),
        ];
        for (scale, unit) in UNITS {
            if v >= scale {
                return format!("{:.2}{}", v / scale, unit);
            }
        }
        format!("{v:.2} ")
    }
}

/// Shared helpers for the experiment harnesses.
pub mod util {
    /// Print a table row with fixed-width columns.
    pub fn row(cells: &[String], widths: &[usize]) -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// The perf-regression gate shared by the experiment benches: compare
/// one `bench_summary` metric against a committed baseline
/// (`ci/BENCH_<ID>.baseline.json`, see `ci/bench_gate.sh`) and exit
/// non-zero past the allowed regression.
///
/// `BENCH_<ID>_BASELINE` names the baseline file (unset: the gate is
/// skipped); `BENCH_<ID>_PCT` is the allowed regression in percent
/// (default 20).
pub mod gate {
    /// Which way a gated metric regresses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Direction {
        /// Higher is better: fail below baseline × (1 − pct/100).
        Floor,
        /// Lower is better: fail above baseline × (1 + pct/100).
        Ceiling,
    }

    /// One experiment's gated metric and the wording of its report.
    #[derive(Debug, Clone, Copy)]
    pub struct Gate {
        /// Experiment id, e.g. `"E17"`.
        pub id: &'static str,
        /// The `bench_summary` field compared.
        pub key: &'static str,
        /// Which way the metric regresses.
        pub direction: Direction,
        /// What regressed, as the failure message names it.
        pub what: &'static str,
        /// Printed before the baseline on the status line (may be empty).
        pub label: &'static str,
        /// Printed after each value (may be empty).
        pub unit: &'static str,
        /// Printed after the baseline in the failure message.
        pub base_unit: &'static str,
        /// Decimal places printed.
        pub decimals: usize,
    }

    impl Gate {
        /// Gate `measured`: print the comparison, or that no baseline is
        /// configured; exit 1 on a regression or an unreadable baseline.
        pub fn check(&self, measured: f64) {
            let id = self.id;
            let Ok(path) = std::env::var(format!("BENCH_{id}_BASELINE")) else {
                println!("# no BENCH_{id}_BASELINE set; regression gate skipped");
                return;
            };
            let pct: f64 = std::env::var(format!("BENCH_{id}_PCT"))
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(20.0);
            let Some(base) = baseline(&path, id, self.key) else {
                eprintln!("{id}: baseline {path} missing or unparsable; failing the gate");
                std::process::exit(1);
            };
            let (name, bound, regressed, way) = match self.direction {
                Direction::Floor => {
                    let floor = base * (1.0 - pct / 100.0);
                    ("floor", floor, measured < floor, "below")
                }
                Direction::Ceiling => {
                    let ceiling = base * (1.0 + pct / 100.0);
                    ("ceiling", ceiling, measured > ceiling, "above")
                }
            };
            let (d, label, unit) = (self.decimals, self.label, self.unit);
            println!(
                "# baseline {label}{base:.d$}{unit} ({path}); {name} {bound:.d$}, \
                 measured {measured:.d$}"
            );
            if regressed {
                eprintln!(
                    "{id} REGRESSION: {} {measured:.d$}{unit} is more than {pct}% {way} \
                     baseline {base:.d$}{} ({path})",
                    self.what, self.base_unit
                );
                std::process::exit(1);
            }
        }
    }

    /// The `key` field of experiment `id`'s `bench_summary` line in the
    /// JSON-lines file at `path`, parsed by hand (the workspace is
    /// serde-free on principle).
    pub fn baseline(path: &str, id: &str, key: &str) -> Option<f64> {
        let text = std::fs::read_to_string(path).ok()?;
        let tag = format!("\"id\":\"{id}\"");
        let line = text
            .lines()
            .find(|l| l.contains("\"type\":\"bench_summary\"") && l.contains(&tag))?;
        let key = format!("\"{key}\":");
        let rest = &line[line.find(&key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn baseline_reads_the_summary_field_of_its_experiment() {
            let path = std::env::temp_dir().join(format!("zen-gate-{}.json", std::process::id()));
            std::fs::write(
                &path,
                "{\"type\":\"row\",\"id\":\"E17\",\"peak\":1}\n\
                 {\"type\":\"bench_summary\",\"id\":\"E18\",\"peak\":2}\n\
                 {\"type\":\"bench_summary\",\"id\":\"E17\",\"quick\":true,\"peak\":3.5}\n",
            )
            .unwrap();
            let path = path.to_str().unwrap();
            assert_eq!(baseline(path, "E17", "peak"), Some(3.5));
            assert_eq!(baseline(path, "E18", "peak"), Some(2.0));
            assert_eq!(baseline(path, "E17", "missing"), None);
            assert_eq!(baseline(path, "E19", "peak"), None);
            assert_eq!(baseline("/nonexistent/zen-gate.json", "E17", "peak"), None);
            let _ = std::fs::remove_file(path);
        }
    }
}
