//! `cbench-n8`: the E17 closed loop at N=8.
//!
//! Eight `CbenchSwitch` emulators each keep K=8 PACKET_INs outstanding
//! against one `Controller` running `L2Learning` on `World`: 64 callers
//! that each wait for their FLOW_MOD before punting again. There is no
//! datapath, so the work is protocol decode/encode, controller dispatch
//! and app, and barrier bookkeeping — the per-switch-count cost of
//! `flush_barriers` shows here first.

use std::sync::atomic::Ordering::Relaxed;

use zen_core::apps::L2Learning;
use zen_core::{CbenchConfig, CbenchMode, CbenchSwitch, Controller};
use zen_sim::{Instant as SimInstant, Node, NodeId, Rng, World};

use crate::alloc;
use crate::clock::{ticks, ticks_to_ns, Elapsed, Stopwatch};
use crate::common::{self, Fingerprint, Layers, Replays};
use crate::report::{metric, quantile, ratio, Outcome};
use crate::speed;
use crate::trace::{self, Capture, Cb, Layer, Tracer};

const SWITCHES: usize = 8;
const OUTSTANDING: usize = 8;
const SOURCES: usize = 64;
/// Handshake, primer, and the first punt waves settle by then.
const WARMUP: SimInstant = SimInstant::from_millis(5);
/// Flow setups measured per episode.
const SETUPS: u64 = 20_000;
/// Steps between checks of the setup count.
const STEP_CHUNK: usize = 256;
/// Events an episode may take to complete `SETUPS`: a generous multiple
/// of the fraction of an event a setup costs today. A closed loop that
/// stops answering ends the episode here, or sooner when the world runs
/// out of events, and the check reports the shortfall.
const MAX_EVENTS: u64 = SETUPS * 16;
/// Control bytes kept for the protocol replay.
const CAPTURE_BYTES: usize = 4 << 20;

/// Inputs derived from the seed: the world seed and the switches'
/// datapath ids (below 256 so emulated MAC ranges never overlap).
struct Inputs {
    world_seed: u64,
    dpids: Vec<u64>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(common::mix(seed, 0xE17));
    let mut ids: Vec<u64> = (0..256).collect();
    rng.shuffle(&mut ids);
    Inputs {
        world_seed: rng.next_u64(),
        dpids: ids[..SWITCHES].to_vec(),
    }
}

struct Built {
    world: World,
    controller: NodeId,
    switches: Vec<NodeId>,
}

fn build(inp: &Inputs, mut tracer: Option<&mut Tracer>) -> Built {
    let mut world = World::new(inp.world_seed);
    let mut add = |world: &mut World, layer, node: Box<dyn Node>| match tracer.as_deref_mut() {
        Some(t) => world.add_node(t.world(layer, node)),
        None => world.add_node(node),
    };
    let controller = add(
        &mut world,
        Layer::Controller,
        Box::new(Controller::new(vec![Box::new(L2Learning::new())])),
    );
    let cfg = CbenchConfig {
        mode: CbenchMode::Closed {
            outstanding: OUTSTANDING,
        },
        sources: SOURCES,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    let switches = inp
        .dpids
        .iter()
        .map(|&dpid| {
            add(
                &mut world,
                Layer::Cbench,
                Box::new(CbenchSwitch::new(dpid, controller, cfg)),
            )
        })
        .collect();
    Built {
        world,
        controller,
        switches,
    }
}

fn sum(b: &Built, f: impl Fn(&CbenchSwitch) -> u64) -> u64 {
    b.switches
        .iter()
        .map(|&id| f(b.world.node_as::<CbenchSwitch>(id)))
        .sum()
}

/// One measured episode.
struct Episode {
    setup: Elapsed,
    run: Elapsed,
    setups: u64,
    punts: u64,
    events: u64,
    decode_errors: u64,
    lost: u64,
    /// Punts still waiting for their FLOW_MOD when the episode ended.
    outstanding: u64,
    wall_p50_us: f64,
    wall_p99_us: f64,
    sim_p50_us: f64,
    sim_p99_us: f64,
    latency_samples: usize,
    fingerprint: Fingerprint,
    /// Allocations over the measured span (traced runs only).
    allocs: alloc::Counts,
}

/// Counters read when the measured span starts.
struct Base {
    setups: u64,
    punts: u64,
    events: u64,
    /// Latency samples each switch had already taken.
    skip: Vec<usize>,
}

fn base(b: &Built) -> Base {
    Base {
        setups: sum(b, |s| s.stats.flow_mods),
        punts: sum(b, |s| s.stats.punts_sent),
        events: b.world.events_processed(),
        skip: b
            .switches
            .iter()
            .map(|&id| b.world.node_as::<CbenchSwitch>(id).wall_setup_ns.len())
            .collect(),
    }
}

/// Build, warm up, and run `SETUPS` closed-loop setups.
fn episode(inp: &Inputs, mut tracer: Option<&mut Tracer>, count_allocs: bool) -> Episode {
    let t0 = Stopwatch::start();
    let mut b = build(inp, tracer.as_deref_mut());
    b.world.run_until(WARMUP);
    let setup = t0.elapsed();

    let base = base(&b);
    let (base_setups, base_events) = (base.setups, base.events);
    if let Some(t) = tracer.as_deref() {
        t.start_span();
    }
    alloc::set_counting(count_allocs);
    let counts = alloc::total_counts();
    let t1 = Stopwatch::start();
    'run: while sum(&b, |s| s.stats.flow_mods) - base_setups < SETUPS
        && b.world.events_processed() - base_events < MAX_EVENTS
    {
        for _ in 0..STEP_CHUNK {
            if b.world.step().is_none() {
                break 'run;
            }
        }
    }
    let run = t1.elapsed();
    let allocs = alloc::total_counts() - counts;
    alloc::set_counting(false);
    finish(&b, &base, setup, run, allocs)
}

/// A plain and a traced episode on the same inputs, run side by side:
/// chunks of `STEP_CHUNK` events alternate between the two worlds, so
/// both meet the same machine conditions however these drift. Returns
/// both episodes and the nanoseconds each world spent in its chunks.
fn side_by_side(inp: &Inputs, tracer: &mut Tracer) -> (Episode, Episode, f64, f64) {
    let mut plain = build(inp, None);
    let mut traced = build(inp, Some(tracer));
    plain.world.run_until(WARMUP);
    traced.world.run_until(WARMUP);
    let (plain_base, traced_base) = (base(&plain), base(&traced));
    tracer.start_span();
    let (mut plain_ticks, mut traced_ticks) = (0, 0);
    while sum(&plain, |s| s.stats.flow_mods) - plain_base.setups < SETUPS
        && plain.world.events_processed() - plain_base.events < MAX_EVENTS
    {
        let t0 = ticks();
        let mut n = 0;
        while n < STEP_CHUNK && plain.world.step().is_some() {
            n += 1;
        }
        let t1 = ticks();
        trace::reset_gap_clock();
        for _ in 0..n {
            traced.world.step();
        }
        let t2 = ticks();
        plain_ticks += t1 - t0;
        traced_ticks += t2 - t1;
        if n < STEP_CHUNK {
            break;
        }
    }
    let untimed = |b: &Built, base: &Base| {
        finish(
            b,
            base,
            Elapsed::default(),
            Elapsed::default(),
            alloc::Counts::default(),
        )
    };
    (
        untimed(&plain, &plain_base),
        untimed(&traced, &traced_base),
        ticks_to_ns(plain_ticks) as f64,
        ticks_to_ns(traced_ticks) as f64,
    )
}

/// Read an episode's results once its measured span has run.
fn finish(b: &Built, base: &Base, setup: Elapsed, run: Elapsed, allocs: alloc::Counts) -> Episode {
    let (base_setups, base_punts, base_events, skip) =
        (base.setups, base.punts, base.events, &base.skip);
    let mut wall = Vec::new();
    let mut sim = Vec::new();
    for (i, &id) in b.switches.iter().enumerate() {
        let sw = b.world.node_as::<CbenchSwitch>(id);
        wall.extend(
            sw.wall_setup_ns
                .iter()
                .skip(skip[i])
                .map(|&ns| ns as f64 / 1e3),
        );
        sim.extend(
            sw.sim_setup_ns
                .iter()
                .skip(skip[i])
                .map(|&ns| ns as f64 / 1e3),
        );
    }
    let setups = sum(b, |s| s.stats.flow_mods) - base_setups;
    let punts = sum(b, |s| s.stats.punts_sent) - base_punts;
    let ctl = b.world.node_as::<Controller>(b.controller);
    let events = b.world.events_processed() - base_events;
    let metrics = b.world.metrics();
    let fingerprint = vec![
        ("events", events),
        ("setups", setups),
        ("punts", punts),
        ("packet_outs", sum(b, |s| s.stats.packet_outs)),
        ("barriers", sum(b, |s| s.stats.barriers)),
        ("ctl.msgs_received", ctl.stats.msgs_received),
        ("ctl.flow_mods", ctl.stats.flow_mods),
        ("sim.control_msgs", metrics.counter("sim.control_msgs")),
        ("sim.control_bytes", metrics.counter("sim.control_bytes")),
    ];
    Episode {
        setup,
        run,
        setups,
        punts,
        events,
        decode_errors: sum(b, |s| s.stats.decode_errors) + ctl.stats.decode_errors,
        lost: sum(b, |s| s.stats.setups_lost),
        outstanding: sum(b, |s| {
            s.stats.punts_sent - s.stats.flow_mods - s.stats.setups_lost
        }),
        wall_p50_us: quantile(&wall, 0.50),
        wall_p99_us: quantile(&wall, 0.99),
        sim_p50_us: quantile(&sim, 0.50),
        sim_p99_us: quantile(&sim, 0.99),
        latency_samples: wall.len(),
        fingerprint,
        allocs,
    }
}

/// Punts may lead completed setups by at most K per switch plus one
/// refill in the pipe.
const IN_FLIGHT_BOUND: u64 = (2 * OUTSTANDING as u64 + 2) * SWITCHES as u64;

fn check(out: &mut Outcome, ep: &Episode, first: &Episode) {
    out.attempted += ep.punts;
    out.check(ep.setups >= SETUPS, || {
        format!(
            "the closed loop stalled: {} of {SETUPS} setups in {} events",
            ep.setups, ep.events
        )
    });
    let excess = ep.punts.saturating_sub(ep.setups + IN_FLIGHT_BOUND);
    // A stalled loop leaves every punt still in flight unanswered.
    let unanswered = if ep.setups < SETUPS {
        ep.outstanding
    } else {
        excess
    };
    out.failed += ep.decode_errors + ep.lost + unanswered;
    out.check(ep.decode_errors == 0, || {
        format!("{} decode errors", ep.decode_errors)
    });
    out.check(ep.lost == 0, || format!("{} punts never answered", ep.lost));
    out.check(excess == 0, || {
        format!(
            "{} punts vs {} setups exceeds the in-flight bound",
            ep.punts, ep.setups
        )
    });
    if let Some(d) = common::fingerprint_diff(&first.fingerprint, &ep.fingerprint) {
        out.problems
            .push(format!("episodes diverged on the same inputs: {d}"));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inp = inputs(seed);
    if trace {
        return run_traced(&inp, seconds);
    }
    let mut out = Outcome::default();
    // An untimed episode with heap tracking: the memory metric, and the
    // warm-up of everything lazy before timing starts.
    let (first, mem_mb) = common::mem_peak_mb(|| episode(&inp, None, false));
    check(&mut out, &first, &first);
    let paced = speed::repeat(seconds, common::MIN_EPISODES, 1, |_| {
        episode(&inp, None, false)
    });
    for p in &paced {
        check(&mut out, &p.ep, &first);
    }
    let eps: Vec<&Episode> = paced.iter().map(|p| &p.ep).collect();
    let n = eps.len();
    let med = |f: &dyn Fn(&Episode) -> f64| common::median_of(&eps, |e| f(e));
    let samples = n * first.latency_samples;
    let (gated, info) = common::end_to_end(
        &paced,
        |e| e.setup.cpu_s,
        |e| e.setups as f64 / e.run.cpu_s,
        mem_mb,
    );
    out.gated = gated;
    out.info = info;
    out.info.extend([
        metric(
            "setups_per_s",
            med(&|e| e.setups as f64 / e.run.wall_s),
            "1/s",
            n,
        ),
        metric("setup_wall_s", med(&|e| e.setup.wall_s), "s", n),
        metric("setup_wall_p50_us", med(&|e| e.wall_p50_us), "us", samples),
        metric("setup_wall_p99_us", med(&|e| e.wall_p99_us), "us", samples),
        metric(
            "setup_sim_p50_us",
            first.sim_p50_us,
            "us",
            first.latency_samples,
        ),
        metric(
            "setup_sim_p99_us",
            first.sim_p99_us,
            "us",
            first.latency_samples,
        ),
        metric("setups_per_episode", first.setups as f64, "count", n),
    ]);
    out
}

fn run_traced(inp: &Inputs, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let first = episode(inp, None, false);
    check(&mut out, &first, &first);

    // Allocations are counted, and inputs captured for the offline
    // replays, in a traced episode of their own, so neither weighs on
    // the timed ones.
    let mut counted_tracer = Tracer {
        capture: Some(Capture::new(CAPTURE_BYTES)),
        ..Tracer::default()
    };
    let counted = episode(inp, Some(&mut counted_tracer), true);
    check(&mut out, &counted, &first);
    let allocs = counted.allocs;
    let replays = Replays::of(&counted_tracer);

    // A plain and a traced episode side by side, again and again for
    // the run's seconds.
    let runs = common::repeat(seconds, || {
        let mut tracer = Tracer::default();
        let (plain, traced, plain_ns, traced_ns) = side_by_side(inp, &mut tracer);
        check(&mut out, &plain, &first);
        check(&mut out, &traced, &first);
        layers(&tracer, &traced, plain_ns, traced_ns, allocs, &replays).metrics(1)
    });
    out.gated = common::median_metrics(&runs);
    let parts = out
        .gated
        .iter()
        .find(|m| m.name == "trace.parts_sum_ratio")
        .map_or(0.0, |m| m.value);
    out.check((parts - 1.0).abs() <= 0.10, || {
        format!("the traced layers sum to {parts:.3} of the untraced run's time")
    });
    let setups = counted.setups as f64;
    let in_layer = |l| counted_tracer.sum(l, |t| t.allocs.load(Relaxed)) as f64;
    let engine = allocs.allocs as f64 - in_layer(Layer::Controller) - in_layer(Layer::Cbench);
    out.info = vec![
        metric("alloc.total", allocs.allocs as f64, "count", 1),
        metric(
            "alloc.ctl_per_setup",
            ratio(in_layer(Layer::Controller), setups),
            "allocs/setup",
            1,
        ),
        metric(
            "alloc.cbench_per_setup",
            ratio(in_layer(Layer::Cbench), setups),
            "allocs/setup",
            1,
        ),
        metric(
            "alloc.engine_per_setup",
            ratio(engine, setups),
            "allocs/setup",
            1,
        ),
        metric(
            "alloc.bytes_per_setup",
            ratio(allocs.bytes as f64, setups),
            "B/setup",
            1,
        ),
    ];
    out
}

/// The per-layer metrics of one timed traced episode.
fn layers(
    tracer: &Tracer,
    traced: &Episode,
    plain_ns: f64,
    traced_ns: f64,
    allocs: alloc::Counts,
    replays: &Replays,
) -> Layers {
    let setups = traced.setups as f64;
    let (callbacks_ns, engine_ns) = tracer.callbacks_and_engine_ns();
    let ctl_ns = tracer.sum(Layer::Controller, |t| t.total_ns()) as f64;
    let ctl_timer_ns = tracer.sum(Layer::Controller, |t| t.ns(Cb::Timer)) as f64;
    let cbench_ns = tracer.sum(Layer::Cbench, |t| t.total_ns()) as f64;
    let fp = |name: &str| {
        traced
            .fingerprint
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v) as f64
    };
    Layers {
        sim_self_ns_per_event: ratio(engine_ns, traced.events as f64),
        sim_events_per_setup: ratio(traced.events as f64, setups),
        proto_decode_ns_per_msg: replays.decode_ns,
        proto_encode_ns_per_msg: replays.encode_ns,
        proto_msgs_per_setup: ratio(fp("sim.control_msgs"), setups),
        proto_bytes_per_setup: ratio(fp("sim.control_bytes"), setups),
        ctl_ns_per_setup: ratio(ctl_ns, setups),
        ctl_timer_ns_share: ratio(ctl_timer_ns, ctl_ns),
        cbench_ns_per_setup: ratio(cbench_ns, setups),
        alloc_per_setup: ratio(allocs.allocs as f64, setups),
        trace_overhead_ratio: ratio(traced_ns, plain_ns),
        trace_parts_sum_ratio: ratio(callbacks_ns + engine_ns, plain_ns),
        ..Layers::default()
    }
}
