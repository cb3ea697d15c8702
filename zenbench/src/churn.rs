//! `reactive-churn`: a clustered, reactive k=4 fat-tree on `World`.
//!
//! 20 `SwitchAgent`s and 16 hosts; three `Controller` replicas run
//! `ReactiveForwarding` with a short idle timeout. Hosts start UDP flows
//! to many peers at staggered times, one frame per interval: mice of
//! 64 B, elephants of ~1400 B. Paths are installed on first packets,
//! expire when idle, and are installed again on the next flow, so flow
//! installs, expiries and cache invalidations (writes) run beside cached
//! forwarding (reads). Frames arrive one at a time — the bypass case for
//! batching — and frame size varies, so per-hop copies show. It is the
//! only workload with `zen-cluster` and `zen-consensus` on the path.

use std::sync::atomic::Ordering::Relaxed;

use zen_cluster::ClusterConfig;
use zen_core::apps::ReactiveForwarding;
use zen_core::harness::{
    build_cluster_fabric_with_hosts, default_host_ip, default_host_mac, FabricOptions,
};
use zen_core::{Controller, SwitchAgent};
use zen_sim::hostile::pareto;
use zen_sim::{
    Duration, Host, Instant as SimInstant, LinkParams, Node, NodeId, Rng, Topology, TrafficProfile,
    Workload, World, Zipf,
};

use crate::alloc;
use crate::clock::{ticks, ticks_to_ns, Elapsed, Stopwatch};
use crate::common::{self, Fingerprint, Layers, Replays};
use crate::report::{metric, quantile, ratio, Outcome};
use crate::speed;
use crate::trace::{self, Capture, Cb, Layer, NodeTrace, Tracer};

const K: usize = 4;
const REPLICAS: usize = 3;
/// Idle timeout of installed paths: shorter than the typical gap before
/// a host pair talks again, so most flows set their path up afresh.
const IDLE_TIMEOUT: Duration = Duration::from_millis(20);
/// Discovery, mastership and host announcements (the last gratuitous
/// ARP goes out at 1 s) are done by then.
const WARMUP: SimInstant = SimInstant::from_millis(1200);
/// Simulated span of traffic measured per episode.
const SPAN: Duration = Duration::from_millis(4000);
/// Input sets a run draws from its seed, one episode of each per round.
const INPUT_SETS: usize = 8;
/// No flow sends during the final stretch, so every frame and mod can
/// land before the episode ends.
const DRAIN: Duration = Duration::from_millis(60);
/// Payload bytes of mice and of elephants.
const MOUSE_BYTES: usize = 64;
const ELEPHANT_BYTES: usize = 1400;
const CAPTURE_BYTES: usize = 1 << 20;

fn topology() -> Topology {
    Topology::fat_tree(K, LinkParams::default())
}

/// The seed's inputs: a world seed and every host's flow list.
struct Inputs {
    world_seed: u64,
    flows: Vec<Vec<Workload>>,
    /// `plan[dst][src]`: datagrams host `src` addresses to host `dst`.
    plan: Vec<Vec<u64>>,
}

/// Flows drawn as `zen_sim::HostileHost` draws its production-shaped
/// background load, with `TrafficProfile::default()`'s parameters: each
/// host runs one flow at a time; its destination follows a Zipf law
/// (s = 1) over the other hosts, ranked by one seeded popularity order
/// all hosts share; 5 % of flows are elephants; lengths are Pareto
/// (mice: scale 4, shape 2.5; elephants: scale 200, shape 1.2); frames
/// of a flow are 500 µs apart and a host thinks for an exponential
/// 20 ms (mean) between flows. Mice carry 64 B, elephants 1400 B.
fn inputs(seed: u64, set: usize) -> Inputs {
    let profile = TrafficProfile::default();
    let mut rng = Rng::new(common::mix(common::mix(seed, 0xC4), set as u64));
    let n = topology().host_count();
    let mut popularity: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut popularity);
    let zipf = Zipf::new(n - 1, profile.zipf_s);
    let gap = profile.frame_gap.as_nanos();
    let think_ns = profile.flow_gap.as_nanos() as f64;
    let start = WARMUP.as_nanos();
    let last = start + (SPAN - DRAIN).as_nanos();
    let mut plan = vec![vec![0; n]; n];
    let flows = (0..n)
        .map(|h| {
            let peers: Vec<usize> = popularity.iter().copied().filter(|&p| p != h).collect();
            let mut list = Vec::new();
            // Staggered starts: the first flow begins within one think time.
            let mut t = start + (rng.gen_exp(think_ns) as u64).min(last - start);
            while t < last {
                let peer = peers[zipf.sample(&mut rng)];
                let (size, scale, shape) = if rng.gen_bool(profile.elephant_fraction) {
                    (ELEPHANT_BYTES, profile.elephant_frames, 1.2)
                } else {
                    (MOUSE_BYTES, profile.mice_frames, 2.5)
                };
                let frames = (pareto(&mut rng, scale as f64, shape).ceil() as u64).max(1);
                let count = frames.min((last - t) / gap + 1);
                plan[peer][h] += count;
                list.push(Workload::Udp {
                    dst: default_host_ip(peer),
                    dst_port: 9,
                    size,
                    count,
                    interval: profile.frame_gap,
                    start: SimInstant::from_nanos(t),
                });
                t += (count - 1) * gap + (rng.gen_exp(think_ns) as u64).max(1);
            }
            list
        })
        .collect();
    Inputs {
        world_seed: rng.next_u64(),
        flows,
        plan,
    }
}

fn options() -> FabricOptions {
    FabricOptions {
        n_controllers: REPLICAS,
        ..FabricOptions::default()
    }
}

fn apps() -> Vec<Box<dyn zen_core::App>> {
    let mut fwd = ReactiveForwarding::new();
    fwd.idle_timeout = IDLE_TIMEOUT.as_nanos();
    vec![Box::new(fwd)]
}

fn host(inp: &Inputs, i: usize, mac: zen_wire::EthernetAddress, ip: zen_wire::Ipv4Address) -> Host {
    inp.flows[i]
        .iter()
        .fold(Host::new(mac, ip).with_gratuitous_arp(), |h, w| {
            h.with_workload(w.clone())
        })
}

struct Built {
    world: World,
    controllers: Vec<NodeId>,
    switches: Vec<NodeId>,
    hosts: Vec<NodeId>,
}

/// Build with the program's own harness.
fn build(inp: &Inputs) -> Built {
    let mut world = World::new(inp.world_seed);
    let fabric = build_cluster_fabric_with_hosts(
        &mut world,
        &topology(),
        |_| apps(),
        options(),
        |i, mac, ip| host(inp, i, mac, ip),
    );
    Built {
        world,
        controllers: fabric.controllers,
        switches: fabric.switches,
        hosts: fabric.hosts,
    }
}

/// The same fabric with every node wrapped, added in the harness's
/// order (replicas, switches, links, hosts) so ids and ports match.
fn build_traced(inp: &Inputs, tracer: &mut Tracer) -> Built {
    let topo = topology();
    let opts = options();
    let mut world = World::new(inp.world_seed);
    tracer.controllers = (0..REPLICAS as u32).map(NodeId).collect();
    let controllers: Vec<NodeId> = (0..REPLICAS)
        .map(|_| {
            let ctl = Controller::with_config(apps(), opts.controller_cfg);
            world.add_node(tracer.world(Layer::Controller, Box::new(ctl)))
        })
        .collect();
    assert_eq!(
        controllers, tracer.controllers,
        "replicas take the first node ids"
    );
    for (i, &id) in controllers.iter().enumerate() {
        let mut cfg = ClusterConfig::new(controllers.clone(), i);
        cfg.lease_timeout = opts.cluster_lease;
        cfg.gossip = opts.cluster_gossip;
        world.node_as_mut::<Controller>(id).enable_cluster(cfg);
    }
    world.set_control_latency(opts.control_latency);
    let switches: Vec<NodeId> = (0..topo.switches)
        .map(|i| {
            let agent = SwitchAgent::with_controllers(
                i as u64,
                opts.n_tables,
                controllers.clone(),
                opts.agent_cfg,
            );
            world.add_node(tracer.world(Layer::Switch, Box::new(agent)))
        })
        .collect();
    for l in &topo.links {
        world.connect(switches[l.a], switches[l.b], l.params);
    }
    let hosts = topo
        .hosts
        .iter()
        .enumerate()
        .map(|(i, &sw)| {
            let h: Box<dyn Node> = Box::new(host(inp, i, default_host_mac(i), default_host_ip(i)));
            let node = world.add_node(tracer.world(Layer::Host, h));
            world.connect(node, switches[sw], opts.host_link);
            node
        })
        .collect();
    Built {
        world,
        controllers,
        switches,
        hosts,
    }
}

/// Counters summed over one kind of node.
fn agents(b: &Built, f: impl Fn(&SwitchAgent) -> u64) -> u64 {
    b.switches
        .iter()
        .map(|&id| f(b.world.node_as::<SwitchAgent>(id)))
        .sum()
}

fn hosts(b: &Built, f: impl Fn(&Host) -> u64) -> u64 {
    b.hosts
        .iter()
        .map(|&id| f(b.world.node_as::<Host>(id)))
        .sum()
}

fn ctls(b: &Built, f: impl Fn(&Controller) -> u64) -> u64 {
    b.controllers
        .iter()
        .map(|&id| f(b.world.node_as::<Controller>(id)))
        .sum()
}

fn paths(c: &Controller) -> u64 {
    c.find_app::<ReactiveForwarding>()
        .map_or(0, |a| a.paths_installed)
}

/// The deterministic state read at one instant.
fn snapshot(b: &Built) -> Fingerprint {
    let m = b.world.metrics();
    let cache = |f: fn(&zen_dataplane::CacheStats) -> u64| agents(b, |a| f(&a.dp.cache_stats()));
    vec![
        ("events", b.world.events_processed()),
        ("sim.tx_frames", m.counter("sim.tx_frames")),
        ("sim.tx_bytes", m.counter("sim.tx_bytes")),
        ("sim.control_msgs", m.counter("sim.control_msgs")),
        ("sim.control_bytes", m.counter("sim.control_bytes")),
        (
            "sim.drops",
            m.counter("sim.drops_queue")
                + m.counter("sim.drops_down")
                + m.counter("sim.tx_no_link"),
        ),
        ("udp.tx", hosts(b, |h| h.stats.udp_tx)),
        ("udp.rx", hosts(b, |h| h.stats.udp_rx)),
        ("agent.packet_ins", agents(b, |a| a.stats.packet_ins)),
        (
            "agent.rx_frames",
            agents(b, |a| {
                a.dp.ports()
                    .iter()
                    .map(|&p| a.dp.port_stats(p).rx_frames)
                    .sum()
            }),
        ),
        (
            "agent.drops",
            agents(b, |a| a.dp.pipeline_drops + a.stats.disconnected_drops),
        ),
        (
            "decode_errors",
            agents(b, |a| a.stats.decode_errors) + ctls(b, |c| c.stats.decode_errors),
        ),
        ("paths", ctls(b, paths)),
        ("mods.sent", ctls(b, |c| c.stats.flow_mods)),
        ("mods.acked", ctls(b, |c| c.stats.mods_acked)),
        ("mods.failed", ctls(b, |c| c.stats.mods_failed)),
        ("mods.pending", ctls(b, |c| c.pending_mods() as u64)),
        ("cache.micro_hits", cache(|c| c.micro_hits)),
        ("cache.mega_hits", cache(|c| c.mega_hits)),
        ("cache.misses", cache(|c| c.misses)),
        ("cache.invalidations", cache(|c| c.invalidations)),
    ]
}

fn get(f: &Fingerprint, name: &str) -> u64 {
    f.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
}

/// Counter growth from `a` to `b`; pending mods are a level, kept as is.
fn delta(a: &Fingerprint, b: &Fingerprint) -> Fingerprint {
    b.iter()
        .map(|&(n, v)| {
            if n == "mods.pending" {
                (n, v)
            } else {
                (n, v - get(a, n))
            }
        })
        .collect()
}

struct Episode {
    setup: Elapsed,
    run: Elapsed,
    /// Counter growth over the measured span.
    d: Fingerprint,
    latency_us: Vec<f64>,
    /// Datagrams the inputs plan, and per (source, destination) pair
    /// those that did not arrive and those that arrived beyond the plan.
    planned: u64,
    missing: u64,
    extra: u64,
    /// Allocations over the measured span (traced runs only).
    allocs: alloc::Counts,
}

impl Episode {
    fn get(&self, name: &str) -> u64 {
        get(&self.d, name)
    }
}

fn episode(inp: &Inputs, mut tracer: Option<&mut Tracer>, count_allocs: bool) -> Episode {
    let t0 = Stopwatch::start();
    let mut b = match tracer.as_deref_mut() {
        Some(t) => build_traced(inp, t),
        None => build(inp),
    };
    b.world.run_until(WARMUP);
    let setup = t0.elapsed();
    let base = base(&b);

    if let Some(t) = tracer.as_deref() {
        t.start_span();
    }
    alloc::set_counting(count_allocs);
    let counts = alloc::total_counts();
    let t1 = Stopwatch::start();
    b.world.run_until(WARMUP + SPAN);
    let run = t1.elapsed();
    let allocs = alloc::total_counts() - counts;
    alloc::set_counting(false);
    finish(inp, &b, base, setup, run, allocs)
}

/// State read when the measured span starts.
struct Base {
    before: Fingerprint,
    /// Latency samples each host had already taken.
    skip: Vec<usize>,
}

fn base(b: &Built) -> Base {
    Base {
        before: snapshot(b),
        skip: b
            .hosts
            .iter()
            .map(|&h| b.world.node_as::<Host>(h).stats.udp_latency.count())
            .collect(),
    }
}

/// Simulated time per turn when a plain and a traced world run side by
/// side.
const SLICE: Duration = Duration::from_millis(5);

/// A plain and a traced episode on the same inputs, run side by side:
/// slices of `SLICE` simulated time alternate between the two worlds, so
/// both meet the same machine conditions however these drift. Returns
/// both episodes and the nanoseconds each world spent in its slices.
fn side_by_side(inp: &Inputs, tracer: &mut Tracer) -> (Episode, Episode, f64, f64) {
    let mut plain = build(inp);
    let mut traced = build_traced(inp, tracer);
    plain.world.run_until(WARMUP);
    traced.world.run_until(WARMUP);
    let (plain_base, traced_base) = (base(&plain), base(&traced));
    tracer.start_span();
    let (mut plain_ticks, mut traced_ticks) = (0, 0);
    let mut at = WARMUP;
    while at < WARMUP + SPAN {
        at = (at + SLICE).min(WARMUP + SPAN);
        let t0 = ticks();
        plain.world.run_until(at);
        let t1 = ticks();
        trace::reset_gap_clock();
        traced.world.run_until(at);
        let t2 = ticks();
        plain_ticks += t1 - t0;
        traced_ticks += t2 - t1;
    }
    let untimed = |b: &Built, base: Base| {
        finish(
            inp,
            b,
            base,
            Elapsed::default(),
            Elapsed::default(),
            alloc::Counts::default(),
        )
    };
    (
        untimed(&plain, plain_base),
        untimed(&traced, traced_base),
        ticks_to_ns(plain_ticks) as f64,
        ticks_to_ns(traced_ticks) as f64,
    )
}

/// Read an episode's results once its measured span has run.
fn finish(
    inp: &Inputs,
    b: &Built,
    base: Base,
    setup: Elapsed,
    run: Elapsed,
    allocs: alloc::Counts,
) -> Episode {
    let latency_us = b
        .hosts
        .iter()
        .zip(base.skip)
        .flat_map(|(&h, skip)| {
            let s = b.world.node_as::<Host>(h).stats.udp_latency.samples();
            s[skip..].iter().map(|&x| x * 1e6).collect::<Vec<_>>()
        })
        .collect();
    let d = delta(&base.before, &snapshot(b));
    // No datagram is sent before the span, so the hosts' totals are the
    // span's. Each receiver counts probe datagrams per source address.
    let (mut missing, mut extra) = (0, 0);
    for (dst, &node) in b.hosts.iter().enumerate() {
        let rx = &b.world.node_as::<Host>(node).stats.udp_rx_per_src;
        for (src, &want) in inp.plan[dst].iter().enumerate() {
            let got = rx.get(&default_host_ip(src)).copied().unwrap_or(0);
            missing += want.saturating_sub(got);
            extra += got.saturating_sub(want);
        }
    }
    Episode {
        setup,
        run,
        d,
        latency_us,
        planned: inp.plan.iter().flatten().sum(),
        missing,
        extra,
        allocs,
    }
}

/// The run fails unless every planned datagram is sent and reaches
/// exactly the host it was addressed to: sent = delivered + lost, with
/// lost counted per (source, destination) pair from what each receiver
/// got from each source, and no loss allowed.
fn check(out: &mut Outcome, ep: &Episode, first: &Episode) {
    let sent = ep.get("udp.tx");
    let delivered = ep.get("udp.rx");
    let failed_mods = ep.get("mods.failed");
    out.attempted += sent + ep.get("mods.sent");
    out.failed += ep.missing + ep.extra + failed_mods;
    out.check(sent > 0 && sent == ep.planned, || {
        format!("{sent} datagrams sent, {} planned", ep.planned)
    });
    out.check(ep.get("decode_errors") == 0, || {
        format!("{} decode errors", ep.get("decode_errors"))
    });
    out.check(
        ep.missing == 0 && ep.extra == 0 && delivered == sent,
        || {
            format!(
                "{sent} datagrams sent, {delivered} delivered: {} lost, {} beyond the plan",
                ep.missing, ep.extra
            )
        },
    );
    out.check(ep.get("mods.pending") == 0, || {
        format!(
            "{} mods neither acked nor failed after the drain",
            ep.get("mods.pending")
        )
    });
    if let Some(d) = common::fingerprint_diff(&first.d, &ep.d) {
        out.problems
            .push(format!("runs diverged on the same inputs: {d}"));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let sets: Vec<Inputs> = (0..INPUT_SETS).map(|i| inputs(seed, i)).collect();
    if trace {
        return run_traced(&sets[0], seconds);
    }
    let mut out = Outcome::default();
    // An untimed first episode of every set, with heap tracking: the
    // memory metric, the reference for the determinism check, and the
    // warm-up of everything lazy before timing starts.
    let mut firsts = Vec::with_capacity(INPUT_SETS);
    let mut mems = Vec::with_capacity(INPUT_SETS);
    for inp in &sets {
        let (first, mb) = common::mem_peak_mb(|| episode(inp, None, false));
        check(&mut out, &first, &first);
        firsts.push(first);
        mems.push(mb);
    }
    let paced = speed::repeat(
        seconds,
        common::MIN_EPISODES * INPUT_SETS,
        INPUT_SETS,
        |i| episode(&sets[i % INPUT_SETS], None, false),
    );
    for (i, p) in paced.iter().enumerate() {
        check(&mut out, &p.ep, &firsts[i % INPUT_SETS]);
    }
    let eps: Vec<&Episode> = paced.iter().map(|p| &p.ep).collect();
    let n = eps.len();
    let rounds_n = n / INPUT_SETS;
    // The rate is path installs per CPU second over a whole round: per
    // input set, the median of its episodes' CPU times, summed over the
    // sets.
    let per_set = |f: &dyn Fn(&speed::Paced<Episode>) -> f64| {
        (0..INPUT_SETS)
            .map(|i| {
                let v: Vec<f64> = paced.iter().skip(i).step_by(INPUT_SETS).map(f).collect();
                quantile(&v, 0.5)
            })
            .sum::<f64>()
    };
    let cpu_s = per_set(&|p| p.ep.run.cpu_s * p.scale);
    let total = |f: &dyn Fn(&Episode) -> f64| firsts.iter().map(f).sum::<f64>();
    let paths = total(&|e| e.get("paths") as f64);
    let frames = total(&|e| e.get("sim.tx_frames") as f64);
    let mem_mb = mems.iter().sum::<f64>() / INPUT_SETS as f64;
    out.gated = common::gated(
        &paced,
        |e| e.setup.cpu_s,
        paths / cpu_s,
        n,
        mem_mb,
        INPUT_SETS,
    );

    let wall_s = per_set(&|p| p.ep.run.wall_s);
    let lat: Vec<f64> = firsts
        .iter()
        .flat_map(|e| e.latency_us.iter().copied())
        .collect();
    // What the traffic mix produces: path installs per flow, and the
    // share of datapath lookups the flow cache answers versus misses
    // that punt and install.
    let flows: usize = sets.iter().flat_map(|i| &i.flows).map(Vec::len).sum();
    let cache = |name: &str| total(&|e| e.get(name) as f64);
    let probes = cache("cache.micro_hits") + cache("cache.mega_hits") + cache("cache.misses");
    out.info = common::raw_info(&paced, |e| e.setup.cpu_s);
    out.info.extend([
        metric(
            "ops_per_cpu_s_raw",
            paths / per_set(&|p| p.ep.run.cpu_s),
            "1/s",
            n,
        ),
        metric("frames_per_cpu_s", frames / cpu_s, "1/s", n),
        metric("frames_per_s", frames / wall_s, "1/s", n),
        metric("setups_per_s", paths / wall_s, "1/s", n),
        metric(
            "setup_wall_s",
            quantile(&eps.iter().map(|e| e.setup.wall_s).collect::<Vec<_>>(), 0.5),
            "s",
            n,
        ),
        metric("latency_sim_p50_us", quantile(&lat, 0.50), "us", lat.len()),
        metric("latency_sim_p99_us", quantile(&lat, 0.99), "us", lat.len()),
        metric("frames_per_round", frames, "count", rounds_n),
        metric("setups_per_round", paths, "count", rounds_n),
        metric(
            "datagrams_per_round",
            total(&|e| e.get("udp.tx") as f64),
            "count",
            rounds_n,
        ),
        metric("flows_per_round", flows as f64, "count", rounds_n),
        metric("setups_per_flow", ratio(paths, flows as f64), "ratio", n),
        metric(
            "cache_hit_share",
            ratio(cache("cache.micro_hits") + cache("cache.mega_hits"), probes),
            "ratio",
            n,
        ),
        metric(
            "cache_miss_share",
            ratio(cache("cache.misses"), probes),
            "ratio",
            n,
        ),
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
    let frames = counted.get("sim.tx_frames") as f64;
    let in_layer = |l| counted_tracer.sum(l, |t| t.allocs.load(Relaxed)) as f64;
    let layers = [Layer::Controller, Layer::Switch, Layer::Host];
    let engine = allocs.allocs as f64 - layers.iter().map(|&l| in_layer(l)).sum::<f64>();
    let per_frame = |v| ratio(v, frames);
    out.info = vec![
        metric("alloc.total", allocs.allocs as f64, "count", 1),
        metric(
            "alloc.ctl_per_frame",
            per_frame(in_layer(Layer::Controller)),
            "allocs/frame",
            1,
        ),
        metric(
            "alloc.agent_per_frame",
            per_frame(in_layer(Layer::Switch)),
            "allocs/frame",
            1,
        ),
        metric(
            "alloc.host_per_frame",
            per_frame(in_layer(Layer::Host)),
            "allocs/frame",
            1,
        ),
        metric(
            "alloc.engine_per_frame",
            per_frame(engine),
            "allocs/frame",
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
    let sum = |layer, f: &dyn Fn(&NodeTrace) -> u64| tracer.sum(layer, f) as f64;
    let (callbacks_ns, engine_ns) = tracer.callbacks_and_engine_ns();
    let ctl_ns = sum(Layer::Controller, &|t| t.total_ns());
    let agent_frames = sum(Layer::Switch, &|t| t.frames.load(Relaxed));
    let events = traced.get("events") as f64;
    let link_frames = traced.get("sim.tx_frames") as f64;
    let setups = traced.get("paths") as f64;
    let cache = |name| traced.get(name) as f64;
    let probes = cache("cache.micro_hits") + cache("cache.mega_hits") + cache("cache.misses");
    let sim_s = SPAN.as_nanos() as f64 / 1e9;
    Layers {
        sim_self_ns_per_event: ratio(engine_ns, events),
        sim_events_per_frame: ratio(events, link_frames),
        sim_events_per_setup: ratio(events, setups),
        sim_batch_frames_mean: ratio(agent_frames, sum(Layer::Switch, &|t| t.calls(Cb::Packet))),
        dp_callback_ns_per_frame: ratio(sum(Layer::Switch, &|t| t.ns(Cb::Packet)), agent_frames),
        dp_key_ns_per_frame: replays.key_ns,
        wire_parse_ns_per_frame: replays.parse_ns,
        dp_micro_hit_ratio: ratio(cache("cache.micro_hits"), probes),
        dp_mega_hit_ratio: ratio(cache("cache.mega_hits"), probes),
        dp_miss_ratio: ratio(cache("cache.misses"), probes),
        dp_cache_invalidations: cache("cache.invalidations"),
        proto_decode_ns_per_msg: replays.decode_ns,
        proto_encode_ns_per_msg: replays.encode_ns,
        proto_msgs_per_setup: ratio(cache("sim.control_msgs"), setups),
        proto_bytes_per_setup: ratio(cache("sim.control_bytes"), setups),
        ctl_ns_per_setup: ratio(ctl_ns, setups),
        ctl_timer_ns_share: ratio(sum(Layer::Controller, &|t| t.ns(Cb::Timer)), ctl_ns),
        agent_control_ns_per_msg: ratio(
            sum(Layer::Switch, &|t| t.ns(Cb::Control)),
            sum(Layer::Switch, &|t| t.ctl_msgs.load(Relaxed)),
        ),
        agent_punts_per_frame: ratio(cache("agent.packet_ins"), agent_frames),
        cluster_ew_msgs_per_sim_s: sum(Layer::Controller, &|t| t.ew_msgs.load(Relaxed)) / sim_s,
        cluster_ew_bytes_per_sim_s: sum(Layer::Controller, &|t| t.ew_bytes.load(Relaxed)) / sim_s,
        cluster_ns_share: ratio(
            sum(Layer::Controller, &|t| t.ew_ns.load(Relaxed)),
            callbacks_ns,
        ),
        host_ns_per_frame: ratio(
            sum(Layer::Host, &|t| t.total_ns()),
            cache("udp.tx") + cache("udp.rx"),
        ),
        alloc_per_frame: ratio(allocs.allocs as f64, link_frames),
        alloc_bytes_per_frame: ratio(allocs.bytes as f64, link_frames),
        alloc_per_setup: ratio(allocs.allocs as f64, setups),
        trace_overhead_ratio: ratio(traced_ns, plain_ns),
        trace_parts_sum_ratio: ratio(callbacks_ns + engine_ns, plain_ns),
        ..Layers::default()
    }
}
