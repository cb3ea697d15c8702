//! E21 — sharded event loop: scaling a ~1k-switch fat-tree across cores.
//!
//! The conservative-window sharded engine ([`zen_sim::ShardedWorld`])
//! promises two things at once: the run is **byte-identical at every
//! shard count**, and wall-clock throughput scales with shards. This
//! driver measures both on the Datapath-backed fat-tree fabric from
//! [`zen_core::shard_fabric`]:
//!
//! * Full mode builds a k=28 fat-tree — 980 switches, 5 488 bursting
//!   hosts — and runs the identical seeded workload at 1, 2, 4 and 8
//!   shards. Quick mode (CI) shrinks to k=8 (80 switches, 128 hosts).
//! * Every configuration reports aggregate forwarded packets per
//!   wall-second and wall-seconds per simulated second; the run's
//!   merged counters must be identical across all shard counts (the
//!   determinism contract, asserted here on every run).
//! * In full mode the best multi-shard run must beat the single-shard
//!   run — the scaling claim the subsystem exists for.
//!
//! Machine-readable output: one JSON line per configuration to
//! `BENCH_E21_OUT` (default `target/BENCH_E21.json`). If
//! `BENCH_E21_BASELINE` names a committed baseline
//! (`ci/BENCH_E21.baseline.json` in CI), the run fails when peak
//! packets/sec regresses more than the configured percentage below it.
//! `BENCH_E21_QUICK=1` selects the small topology for CI smoke lanes.

use zen_bench::gate::{Direction, Gate};
use zen_core::shard_fabric::{build_shard_fat_tree, ShardTrafficHost};
use zen_sim::{Duration, Instant, LinkParams, ShardedWorld};
use zen_telemetry::json::Line;

/// Fixed seed: the simulated side of every run is a pure function of it.
const SEED: u64 = 0xE21_0001;

/// Fat-tree arity (switch count is k² + k²/4).
fn arity(quick: bool) -> usize {
    if quick {
        8
    } else {
        28
    }
}

/// Simulated span per configuration.
fn sim_span(quick: bool) -> Duration {
    if quick {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(20)
    }
}

/// Shard counts to sweep.
fn shard_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

/// One measured configuration.
struct Outcome {
    shards: usize,
    switches: usize,
    hosts: usize,
    /// Link-layer frame transmissions (every hop counts once).
    frames: u64,
    /// Frames delivered to a destination host.
    delivered: u64,
    events: u64,
    wall_secs: f64,
    sim_secs: f64,
    /// The full merged counter set, for the determinism check.
    counters: Vec<(String, u64)>,
}

impl Outcome {
    fn pkts_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.frames as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn wall_per_sim_sec(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.wall_secs / self.sim_secs
        } else {
            0.0
        }
    }

    fn json(&self, out: &mut String) {
        Line::new("bench")
            .str("id", "E21")
            .u64("shards", self.shards as u64)
            .u64("switches", self.switches as u64)
            .u64("hosts", self.hosts as u64)
            .u64("frames", self.frames)
            .u64("delivered", self.delivered)
            .u64("events", self.events)
            .f64("wall_ms", self.wall_secs * 1e3)
            .f64("sim_ms", self.sim_secs * 1e3)
            .f64("pkts_per_sec", self.pkts_per_sec())
            .f64("wall_per_sim_sec", self.wall_per_sim_sec())
            .finish(out);
    }
}

/// Build the fabric and run the fixed workload at `shards` shards.
fn run(quick: bool, shards: usize) -> Outcome {
    let k = arity(quick);
    let mut world = ShardedWorld::new(SEED);
    let fabric = build_shard_fat_tree(
        &mut world,
        k,
        LinkParams::instant(Duration::from_micros(5)),
        LinkParams::instant(Duration::from_micros(2)),
        Duration::from_micros(100),
        4,
    );
    let span = sim_span(quick);
    let deadline = Instant::ZERO + span;

    let start = std::time::Instant::now();
    world.run_until(deadline, shards);
    let wall_secs = start.elapsed().as_secs_f64();

    let counters: Vec<(String, u64)> = world
        .metrics()
        .counters()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let delivered: u64 = fabric
        .hosts
        .iter()
        .map(|&id| world.node_as::<ShardTrafficHost>(id).rx)
        .sum();
    Outcome {
        shards,
        switches: fabric.switches.len(),
        hosts: fabric.hosts.len(),
        frames: get("sim.tx_frames"),
        delivered,
        events: world.events_processed(),
        wall_secs,
        sim_secs: span.as_nanos() as f64 / 1e9,
        counters,
    }
}

fn main() {
    let quick = std::env::var("BENCH_E21_QUICK").is_ok_and(|v| v == "1");
    let k = arity(quick);
    let mut json = String::new();

    println!("# E21 — sharded event loop on a k={k} fat-tree");
    println!(
        "# identical seeded workload per shard count; merged counters must match exactly{}",
        if quick { " [quick]" } else { "" }
    );
    println!();
    println!(
        "{:>6} {:>9} {:>7} {:>12} {:>11} {:>11} {:>12} {:>13}",
        "shards", "switches", "hosts", "frames", "delivered", "wall_ms", "Mpkts/s", "wall/sim_sec"
    );

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut peak = 0.0f64;
    for &shards in shard_counts(quick) {
        let out = run(quick, shards);
        println!(
            "{:>6} {:>9} {:>7} {:>12} {:>11} {:>11.1} {:>12.3} {:>13.2}",
            out.shards,
            out.switches,
            out.hosts,
            out.frames,
            out.delivered,
            out.wall_secs * 1e3,
            out.pkts_per_sec() / 1e6,
            out.wall_per_sim_sec(),
        );
        assert!(out.frames > 0, "no traffic at {shards} shards");
        assert!(out.delivered > 0, "nothing delivered at {shards} shards");
        peak = peak.max(out.pkts_per_sec());
        out.json(&mut json);
        outcomes.push(out);
    }

    // Determinism contract: the merged counter set — every drop, every
    // hop, every host delivery — is identical at every shard count.
    let first = &outcomes[0];
    for out in &outcomes[1..] {
        assert_eq!(
            first.counters, out.counters,
            "counters diverge between {} and {} shards",
            first.shards, out.shards
        );
        assert_eq!(
            first.events, out.events,
            "event totals diverge between {} and {} shards",
            first.shards, out.shards
        );
        assert_eq!(first.delivered, out.delivered, "deliveries diverge");
    }
    println!();
    println!(
        "# determinism: {} counters identical across shard counts",
        first.counters.len()
    );

    Line::new("bench_summary")
        .str("id", "E21")
        .bool("quick", quick)
        .u64("switches", first.switches as u64)
        .f64("peak_pkts_per_sec", peak)
        .finish(&mut json);

    // cargo runs bench binaries with CWD = the package dir; anchor the
    // default output at the workspace target dir so CI finds it.
    let out_path = std::env::var("BENCH_E21_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_E21.json").to_string()
    });
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_E21.json");
    println!("# wrote {out_path}");

    // Perf-regression gate against the committed baseline, if set.
    Gate {
        id: "E21",
        key: "peak_pkts_per_sec",
        direction: Direction::Floor,
        what: "peak",
        label: "peak ",
        unit: " pkts/s",
        base_unit: "",
        decimals: 0,
    }
    .check(peak);

    // Shape: on the big fabric, sharding must actually pay — the best
    // multi-shard run beats single-shard. The quick topology is too
    // small for the parallelism to beat barrier overhead, so CI only
    // checks determinism.
    if !quick {
        let single = outcomes
            .iter()
            .find(|o| o.shards == 1)
            .expect("single-shard run");
        let best_multi = outcomes
            .iter()
            .filter(|o| o.shards > 1)
            .map(|o| o.pkts_per_sec())
            .fold(0.0f64, f64::max);
        assert!(
            best_multi > single.pkts_per_sec(),
            "sharding never beat single-shard: best multi {best_multi:.0} vs single {:.0}",
            single.pkts_per_sec()
        );
    }
}
