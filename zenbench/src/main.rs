//! zenbench — the zen benchmark.
//!
//! ```text
//! zenbench --workload <cbench-n8|fabric-forward|reactive-churn|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no wrappers in the
//! program's way; `--trace 1` runs the same workload once untraced and
//! once with every node wrapped, checks that both runs agree on every
//! deterministic counter, and reports the per-layer metrics. Every run
//! checks the workload's outputs and exits non-zero when a check fails.
//! The last line of standard output is the JSON result.

mod alloc;
mod cbench;
mod churn;
mod clock;
mod common;
mod fabric;
mod report;
mod speed;
mod trace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["cbench-n8", "fabric-forward", "reactive-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> report::Outcome {
    match workload {
        "cbench-n8" => cbench::run(seed, seconds, trace),
        "fabric-forward" => fabric::run(seed, seconds, trace),
        "reactive-churn" => churn::run(seed, seconds, trace),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zenbench: {e}");
            std::process::exit(2);
        }
    };
    alloc::fix_thresholds();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    if args.trace {
        // Settle the wrappers' tick clock before any timed span.
        clock::ticks();
    }
    let mut all_ok = true;
    for name in names {
        let out = run(name, args.seed, args.seconds, args.trace);
        report::print(name, args.trace, &out);
        all_ok &= out.problems.is_empty();
    }
    if !all_ok {
        std::process::exit(1);
    }
}
