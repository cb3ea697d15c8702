//! E17 — controller saturation: cbench-style PACKET_IN flood.
//!
//! The classic controller benchmark (cbench, as used in the
//! POX/Floodlight/OpenDaylight shootouts) measures how many flow
//! setups per second one controller sustains as emulated switches
//! blast PACKET_INs at it. This driver reproduces that inside the
//! deterministic simulator with [`zen_core::CbenchSwitch`]:
//!
//! * **Closed loop** — each switch keeps K punts in flight and refills
//!   on every FLOW_MOD; N scales 1→32. Setups/sec here is wall-clock
//!   throughput of the whole controller stack (decode, dispatch, L2
//!   app, encode, barrier bookkeeping) on one core.
//! * **Open loop** — 8 switches punt on a fixed timer; offered rate
//!   scales until it passes the closed-loop capacity, showing the
//!   saturation knee.
//! * **Micro** — raw codec decode of a PACKET_IN frame, isolating the
//!   per-message cost the zero-copy rework targets.
//!
//! Simulated latency is deterministic and flat (the sim charges no
//! service time), so the latency percentiles reported here are
//! **wall-clock** per-setup costs — the real CPU spent between punt
//! and FLOW_MOD. They are not deterministic and never fold into
//! replay digests.
//!
//! Machine-readable output: every configuration emits one JSON line to
//! `BENCH_E17_OUT` (default `target/BENCH_E17.json`). If
//! `BENCH_E17_BASELINE` names a committed baseline file (CI points it
//! at `ci/BENCH_E17.baseline.json`), the run fails when peak closed-
//! loop setups/sec regresses more than 20% below it.
//! `BENCH_E17_QUICK=1` shrinks the matrix for CI smoke lanes.

use std::collections::VecDeque;

use zen_bench::gate::{Direction, Gate};
use zen_core::apps::L2Learning;
use zen_core::{CbenchConfig, CbenchMode, CbenchSwitch, Controller};
use zen_sim::{Duration, Histogram, Instant, NodeId, World};
use zen_telemetry::json::Line;

/// Fixed seed: the simulated side of every run is a pure function of it.
const SEED: u64 = 0xE17_0001;

/// Punts in flight per switch in closed-loop mode (cbench default-ish).
const OUTSTANDING: usize = 8;

/// Distinct source MACs per switch.
const SOURCES: usize = 64;

/// Flow setups measured per closed-loop configuration.
fn target_setups(quick: bool) -> u64 {
    if quick {
        6_000
    } else {
        30_000
    }
}

/// Closed-loop switch counts.
fn switch_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    }
}

/// One measured configuration.
struct Outcome {
    mode: &'static str,
    switches: usize,
    /// Open-loop only: per-switch punt interval (µs).
    interval_us: u64,
    punts: u64,
    setups: u64,
    wall_secs: f64,
    /// Wall-clock per-setup latency percentiles, µs.
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// Mean simulated punt→FLOW_MOD latency, µs (deterministic).
    sim_mean_us: f64,
    decode_errors: u64,
}

impl Outcome {
    fn setups_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.setups as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn us_per_setup(&self) -> f64 {
        if self.setups > 0 {
            self.wall_secs * 1e6 / self.setups as f64
        } else {
            0.0
        }
    }

    fn json(&self, out: &mut String) {
        Line::new("bench")
            .str("id", "E17")
            .str("mode", self.mode)
            .u64("switches", self.switches as u64)
            .u64("outstanding", OUTSTANDING as u64)
            .u64("interval_us", self.interval_us)
            .u64("punts", self.punts)
            .u64("setups", self.setups)
            .f64("wall_ms", self.wall_secs * 1e3)
            .f64("setups_per_sec", self.setups_per_sec())
            .f64("us_per_setup", self.us_per_setup())
            .f64("p50_us", self.p50_us)
            .f64("p95_us", self.p95_us)
            .f64("p99_us", self.p99_us)
            .f64("sim_mean_us", self.sim_mean_us)
            .u64("decode_errors", self.decode_errors)
            .finish(out);
    }
}

/// Build a controller-plus-N-cbench-switches world. No data links:
/// the control channel is the system under test.
fn build(n_switches: usize, mode: CbenchMode) -> (World, NodeId, Vec<NodeId>) {
    let mut world = World::new(SEED ^ n_switches as u64);
    let controller = world.add_node(Box::new(Controller::new(vec![Box::new(L2Learning::new())])));
    let cfg = CbenchConfig {
        mode,
        sources: SOURCES,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    let switches = (0..n_switches)
        .map(|dpid| world.add_node(Box::new(CbenchSwitch::new(dpid as u64, controller, cfg))))
        .collect();
    (world, controller, switches)
}

/// Sum of completed setups across switches.
fn total_setups(world: &World, switches: &[NodeId]) -> u64 {
    switches
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).stats.flow_mods)
        .sum()
}

/// Fold per-switch wall latencies (from `skip` onward) into a
/// histogram in µs, and return the matching mean simulated latency.
fn collect_latencies(world: &World, switches: &[NodeId], skip: &[usize]) -> (Histogram, f64) {
    let mut wall = Histogram::new();
    let mut sim_sum = 0u64;
    let mut sim_n = 0u64;
    for (i, &id) in switches.iter().enumerate() {
        let sw = world.node_as::<CbenchSwitch>(id);
        for &ns in sw.wall_setup_ns.iter().skip(skip[i]) {
            wall.record(ns as f64 / 1e3);
        }
        for &ns in sw.sim_setup_ns.iter().skip(skip[i]) {
            sim_sum += ns;
            sim_n += 1;
        }
    }
    let sim_mean_us = if sim_n > 0 {
        sim_sum as f64 / sim_n as f64 / 1e3
    } else {
        0.0
    };
    (wall, sim_mean_us)
}

#[allow(clippy::too_many_arguments)]
fn finish_outcome(
    mode: &'static str,
    switches: usize,
    interval_us: u64,
    world: &World,
    switch_ids: &[NodeId],
    skip: &[usize],
    baseline_punts: u64,
    baseline_setups: u64,
    wall_secs: f64,
) -> Outcome {
    let (mut wall, sim_mean_us) = collect_latencies(world, switch_ids, skip);
    let punts: u64 = switch_ids
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).stats.punts_sent)
        .sum::<u64>()
        - baseline_punts;
    let decode_errors: u64 = switch_ids
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).stats.decode_errors)
        .sum();
    Outcome {
        mode,
        switches,
        interval_us,
        punts,
        setups: total_setups(world, switch_ids) - baseline_setups,
        wall_secs,
        p50_us: wall.quantile(0.50).unwrap_or(0.0),
        p95_us: wall.quantile(0.95).unwrap_or(0.0),
        p99_us: wall.quantile(0.99).unwrap_or(0.0),
        sim_mean_us,
        decode_errors,
    }
}

/// Closed loop: run until `target` setups complete past warmup,
/// measuring wall-clock over the measured span.
fn run_closed(n_switches: usize, target: u64) -> Outcome {
    let (mut world, _ctl, switches) = build(
        n_switches,
        CbenchMode::Closed {
            outstanding: OUTSTANDING,
        },
    );
    // Warmup: handshake, primer, and the first punt waves settle.
    world.run_until(Instant::from_millis(5));
    let baseline_setups = total_setups(&world, &switches);
    let baseline_punts: u64 = switches
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).stats.punts_sent)
        .sum();
    let skip: Vec<usize> = switches
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).wall_setup_ns.len())
        .collect();

    let start = std::time::Instant::now();
    loop {
        for _ in 0..4096 {
            if world.step().is_none() {
                break;
            }
        }
        if total_setups(&world, &switches) - baseline_setups >= target {
            break;
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();

    finish_outcome(
        "closed",
        n_switches,
        0,
        &world,
        &switches,
        &skip,
        baseline_punts,
        baseline_setups,
        wall_secs,
    )
}

/// Open loop: fixed offered rate for a fixed simulated span.
fn run_open(n_switches: usize, interval: Duration, sim_span: Duration) -> Outcome {
    let (mut world, _ctl, switches) = build(n_switches, CbenchMode::Open { interval });
    world.run_until(Instant::from_millis(5));
    let baseline_setups = total_setups(&world, &switches);
    let baseline_punts: u64 = switches
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).stats.punts_sent)
        .sum();
    let skip: Vec<usize> = switches
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).wall_setup_ns.len())
        .collect();

    let start = std::time::Instant::now();
    world.run_for(sim_span);
    let wall_secs = start.elapsed().as_secs_f64();

    finish_outcome(
        "open",
        n_switches,
        interval.as_micros(),
        &world,
        &switches,
        &skip,
        baseline_punts,
        baseline_setups,
        wall_secs,
    )
}

/// Raw codec cost: decode a realistic PACKET_IN over and over.
/// Returns (owned ns/op, borrowed-view ns/op, wire length).
fn micro_decode(iters: u64) -> (f64, f64, usize) {
    let frame = vec![0xa5u8; 256];
    let wire = zen_proto::encode(
        &zen_proto::Message::PacketIn {
            in_port: 1,
            table_id: 0,
            is_miss: true,
            frame,
        },
        7,
    );
    let start = std::time::Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        let (msg, xid, consumed) = zen_proto::decode(&wire).expect("valid frame");
        if let zen_proto::Message::PacketIn { frame, .. } = &msg {
            sink = sink.wrapping_add(frame.len() as u64);
        }
        sink = sink.wrapping_add(xid as u64 + consumed as u64);
    }
    let owned_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let (view, xid, consumed) = zen_proto::decode_view(&wire).expect("valid frame");
        if let zen_proto::MessageView::PacketIn { frame, .. } = view {
            sink = sink.wrapping_add(frame.len() as u64);
        }
        sink = sink.wrapping_add(xid as u64 + consumed as u64);
    }
    let view_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    assert!(sink > 0);
    (owned_ns, view_ns, wire.len())
}

fn main() {
    let quick = std::env::var("BENCH_E17_QUICK").is_ok_and(|v| v == "1");
    let target = target_setups(quick);
    let mut json = String::new();

    println!("# E17 — controller saturation (cbench-style PACKET_IN flood)");
    println!(
        "# closed loop: K={OUTSTANDING} punts in flight per switch, {SOURCES} source MACs, \
         measured over {target} setups{}",
        if quick { " [quick]" } else { "" }
    );
    println!();
    println!(
        "{:>4} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "N",
        "punts",
        "setups",
        "wall_ms",
        "ksetups/s",
        "us/setup",
        "p50_us",
        "p95_us",
        "p99_us",
        "sim_us"
    );
    let mut peak = 0.0f64;
    let mut closed: VecDeque<Outcome> = VecDeque::new();
    for &n in switch_counts(quick) {
        let out = run_closed(n, target);
        println!(
            "{:>4} {:>9} {:>9} {:>9.1} {:>11.1} {:>9.2} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            out.switches,
            out.punts,
            out.setups,
            out.wall_secs * 1e3,
            out.setups_per_sec() / 1e3,
            out.us_per_setup(),
            out.p50_us,
            out.p95_us,
            out.p99_us,
            out.sim_mean_us,
        );
        assert_eq!(out.decode_errors, 0, "decode errors at N={n}");
        assert!(out.setups >= target, "undershot target at N={n}");
        // Closed loop bounds in-flight punts: punts can lead setups by
        // at most K per switch (plus one refill in the pipe).
        assert!(
            out.punts <= out.setups + (2 * OUTSTANDING as u64 + 2) * n as u64,
            "punt/setup imbalance at N={n}: {} punts vs {} setups",
            out.punts,
            out.setups
        );
        peak = peak.max(out.setups_per_sec());
        out.json(&mut json);
        closed.push_back(out);
    }

    println!();
    println!("# open loop: 8 switches, offered rate scaling past capacity");
    println!(
        "{:>12} {:>11} {:>9} {:>9} {:>11} {:>9} {:>9}",
        "interval_us", "offered/s", "punts", "setups", "ksetups/s", "us/setup", "p99_us"
    );
    let open_intervals: &[u64] = if quick {
        &[200, 50]
    } else {
        &[1000, 200, 50, 20]
    };
    let open_span = Duration::from_millis(if quick { 100 } else { 250 });
    for &us in open_intervals {
        let out = run_open(8, Duration::from_micros(us), open_span);
        let offered = 8.0 * 1e6 / us as f64;
        println!(
            "{:>12} {:>11.0} {:>9} {:>9} {:>11.1} {:>9.2} {:>9.1}",
            us,
            offered,
            out.punts,
            out.setups,
            out.setups_per_sec() / 1e3,
            out.us_per_setup(),
            out.p99_us,
        );
        assert_eq!(out.decode_errors, 0, "decode errors at interval {us}us");
        assert!(out.setups > 0, "no setups at interval {us}us");
        out.json(&mut json);
    }

    let iters = if quick { 200_000 } else { 1_000_000 };
    let (owned_ns, view_ns, wire_len) = micro_decode(iters);
    println!();
    println!("# micro: decode PACKET_IN ({wire_len} wire bytes), {iters} iters");
    println!("#   owned decode: {owned_ns:.1} ns/op");
    println!("#   view decode:  {view_ns:.1} ns/op");
    Line::new("bench")
        .str("id", "E17")
        .str("mode", "micro_decode")
        .u64("wire_bytes", wire_len as u64)
        .f64("owned_ns_per_op", owned_ns)
        .f64("view_ns_per_op", view_ns)
        .finish(&mut json);

    Line::new("bench_summary")
        .str("id", "E17")
        .bool("quick", quick)
        .f64("peak_setups_per_sec", peak)
        .finish(&mut json);

    // cargo runs bench binaries with CWD = the package dir; anchor the
    // default output at the workspace target dir so CI finds it.
    let out_path = std::env::var("BENCH_E17_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_E17.json").to_string()
    });
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_E17.json");
    println!();
    println!("# wrote {out_path}");

    // Perf-regression gate: compare peak closed-loop setups/sec
    // against the committed baseline, if one is configured.
    Gate {
        id: "E17",
        key: "peak_setups_per_sec",
        direction: Direction::Floor,
        what: "peak",
        label: "peak ",
        unit: " setups/s",
        base_unit: "",
        decimals: 0,
    }
    .check(peak);

    // Shape: closed-loop capacity should not collapse as N grows —
    // the event loop serializes the work, so wall throughput stays
    // within a band while per-setup latency grows with N.
    let first = closed.front().expect("at least one closed config");
    let last = closed.back().expect("at least one closed config");
    assert!(
        last.p99_us >= first.p99_us * 0.5,
        "latency shrank implausibly as N grew"
    );
}
