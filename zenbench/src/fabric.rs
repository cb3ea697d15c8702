//! `fabric-forward`: the E21 k=8 sharded fat-tree.
//!
//! 80 `ShardSwitch`es and 128 `ShardTrafficHost`s from
//! `zen_core::shard_fabric` run on `ShardedWorld` at 2 shards with
//! proactive prefix routing and SELECT-group ECMP. Hosts burst 4
//! identical frames per flow and there is no controller, so the work is
//! `Datapath::process_batch`, key extraction, and the sharded event
//! loop; protocol, controller and cluster are bypassed.
//!
//! A `ShardedWorld` runs once, so every episode builds a fresh world:
//! the build is the episode's set-up, the run its measured part.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use zen_core::shard_fabric::{build_shard_fat_tree, ShardFabric, ShardSwitch, ShardTrafficHost};
use zen_dataplane::{Datapath, Effect, MissPolicy};
use zen_sim::{
    Duration, FatTreeIndex, Instant as SimInstant, LinkId, LinkParams, NodeId, PortNo, ShardCtx,
    ShardNode, ShardedWorld,
};

use crate::alloc;
use crate::clock::{ticks, ticks_to_ns, Elapsed, Stopwatch};
use crate::common::{self, Fingerprint, Layers};
use crate::report::{metric, ratio, Outcome};
use crate::speed;
use crate::trace::{bump, timed_around, Capture, Cb, Layer, NodeTrace, Tracer};

const K: usize = 8;
const SHARDS: usize = 2;
const BURST: usize = 4;
const PERIOD: Duration = Duration::from_micros(100);
const FABRIC_LATENCY: Duration = Duration::from_micros(5);
const HOST_LATENCY: Duration = Duration::from_micros(2);
/// Simulated span of one episode.
const SPAN: SimInstant = SimInstant::from_millis(20);
/// Switch input bytes kept for the parse and key replays.
const CAPTURE_BYTES: usize = 2 << 20;

fn fabric_params() -> LinkParams {
    LinkParams::instant(FABRIC_LATENCY)
}

fn host_params() -> LinkParams {
    LinkParams::instant(HOST_LATENCY)
}

/// The world seed: it drives every host's choice of targets and source
/// ports, i.e. the traffic matrix.
fn world_seed(seed: u64) -> u64 {
    common::mix(seed, 0xE21)
}

/// Build with the program's own builder.
fn build(seed: u64) -> (ShardedWorld, ShardFabric) {
    let mut world = ShardedWorld::new(world_seed(seed));
    let fabric = build_shard_fat_tree(&mut world, K, fabric_params(), host_params(), PERIOD, BURST);
    (world, fabric)
}

/// The programmed datapaths of a fresh fabric, moved out of a world
/// that is never run (switch order = `FatTreeIndex` order).
fn programmed_datapaths(seed: u64) -> (Vec<Datapath>, ShardFabric) {
    let (mut scratch, fabric) = build(seed);
    let dps = fabric
        .switches
        .iter()
        .map(|&id| {
            let sw = scratch.node_as_mut::<ShardSwitch>(id);
            std::mem::replace(sw.dp_mut(), Datapath::new(0, 1, MissPolicy::Drop))
        })
        .collect();
    (dps, fabric)
}

/// `(node, port) -> link`, the table the engine consults on every
/// transmit; the in-place replay looks outputs up in a copy of it.
type PortTable = BTreeMap<(NodeId, PortNo), LinkId>;

/// How a traced episode wraps its switches.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Timing wrappers only.
    Timed,
    /// Timing wrappers, allocation counting on.
    Counted,
    /// Each switch also replays every batch in place on shadow copies
    /// of its datapath.
    Shadowed,
}

/// The same fabric with every node wrapped: datapaths programmed by the
/// program's builder, nodes and links added in the builder's order so
/// port numbers match.
fn build_traced(
    seed: u64,
    tracer: &mut Tracer,
    mode: Mode,
) -> (ShardedWorld, ShardFabric, Vec<Arc<ShadowSums>>) {
    let (dps, fabric) = programmed_datapaths(seed);
    let mut shadow_dps = if mode == Mode::Shadowed {
        Some((
            programmed_datapaths(seed).0.into_iter(),
            programmed_datapaths(seed).0.into_iter(),
        ))
    } else {
        None
    };
    let ports = Arc::new(OnceLock::new());
    let mut sums = Vec::new();
    let mut world = ShardedWorld::new(world_seed(seed));
    let switches: Vec<NodeId> = dps
        .into_iter()
        .enumerate()
        .map(|(i, dp)| {
            let inner = Box::new(ShardSwitch::new(dp));
            let node: Box<dyn ShardNode> = match shadow_dps.as_mut() {
                Some((cached, table)) => {
                    let mut table = table.next().expect("one shadow per switch");
                    table.set_flow_cache_enabled(false);
                    let s = Arc::new(ShadowSums::default());
                    sums.push(Arc::clone(&s));
                    Box::new(ShadowedSwitch {
                        inner,
                        t: tracer.register(Layer::Switch),
                        capture: tracer.capture.clone(),
                        shadow: RefCell::new(Shadow {
                            cached: cached.next().expect("one shadow per switch"),
                            table,
                            node: NodeId(i as u32),
                            ports: Arc::clone(&ports),
                            effects: Vec::new(),
                            outbox: Vec::new(),
                            batches: 0,
                            sums: s,
                        }),
                    })
                }
                None => tracer.shard(Layer::Switch, inner),
            };
            world.add_node(node)
        })
        .collect();
    let targets = Arc::new(fabric.host_addrs.clone());
    let hosts: Vec<NodeId> = fabric
        .host_addrs
        .iter()
        .map(|&(mac, ip)| {
            let host = ShardTrafficHost::new(mac, ip, Arc::clone(&targets), PERIOD, BURST);
            world.add_node(tracer.shard(Layer::Host, Box::new(host)))
        })
        .collect();
    let mut table = PortTable::new();
    let mut connect = |world: &mut ShardedWorld, a: NodeId, b: NodeId, params| {
        let (link, pa, pb) = world.connect(a, b, params);
        table.insert((a, pa), link);
        table.insert((b, pb), link);
    };
    let idx = FatTreeIndex::new(K);
    let half = K / 2;
    for pod in 0..K {
        for e in 0..half {
            let edge = switches[idx.edge(pod, e)];
            for a in 0..half {
                connect(&mut world, edge, switches[idx.agg(pod, a)], fabric_params());
            }
            for h in 0..half {
                connect(
                    &mut world,
                    edge,
                    hosts[(pod * half + e) * half + h],
                    host_params(),
                );
            }
        }
        for a in 0..half {
            for c in a * half..(a + 1) * half {
                connect(
                    &mut world,
                    switches[idx.agg(pod, a)],
                    switches[idx.core(c)],
                    fabric_params(),
                );
            }
        }
    }
    ports.set(table).expect("the port table is set once");
    let fabric = ShardFabric {
        k: K,
        switches,
        hosts,
        host_addrs: fabric.host_addrs,
    };
    (world, fabric, sums)
}

/// In-place replay totals of one switch.
#[derive(Default)]
struct ShadowSums {
    /// `process_batch` on the cached shadow: parse, key, cache, actions.
    process_ns: AtomicU64,
    /// Handing the shadow's outputs to links as `ShardCtx::transmit`
    /// does, minus link timing: look the port up, copy, queue.
    emit_ns: AtomicU64,
    /// `process_batch` on the shadow with the flow cache off.
    table_ns: AtomicU64,
    /// The real callback, over the same batches.
    callback_ns: AtomicU64,
    frames: AtomicU64,
}

/// Shadow copies of one switch's datapath, fed the same batches in the
/// same order as the real one, so their state evolves identically.
struct Shadow {
    cached: Datapath,
    table: Datapath,
    node: NodeId,
    ports: Arc<OnceLock<PortTable>>,
    effects: Vec<Effect>,
    outbox: Vec<(LinkId, Vec<u8>)>,
    batches: u64,
    sums: Arc<ShadowSums>,
}

impl Shadow {
    /// Replay one batch on both shadows; `table_first` runs the
    /// cache-off shadow before the cached one.
    fn replay(&mut self, now_ns: u64, frames: &[(PortNo, Vec<u8>)], table_first: bool) {
        if table_first {
            self.replay_table(now_ns, frames);
            self.replay_cached(now_ns, frames);
        } else {
            self.replay_cached(now_ns, frames);
            self.replay_table(now_ns, frames);
        }
        bump(&self.sums.frames, frames.len() as u64);
    }

    fn replay_cached(&mut self, now_ns: u64, frames: &[(PortNo, Vec<u8>)]) {
        let ports = self.ports.get().expect("wired before the run");
        // As `ShardSwitch::on_packet_batch` does: borrow the batch, run
        // the pipeline, then hand each output to its link.
        let t0 = ticks();
        let refs: Vec<(PortNo, &[u8])> = frames.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        self.cached.process_batch(now_ns, &refs, &mut self.effects);
        let t1 = ticks();
        for effect in self.effects.drain(..) {
            if let Effect::Output { port, frame } = effect {
                if let Some(&link) = ports.get(&(self.node, port)) {
                    self.outbox.push((link, frame.as_slice().to_vec()));
                }
            }
        }
        let t2 = ticks();
        // The engine frees queued frames later, outside the callback.
        self.outbox.clear();
        bump(&self.sums.process_ns, ticks_to_ns(t1 - t0));
        bump(&self.sums.emit_ns, ticks_to_ns(t2 - t1));
    }

    fn replay_table(&mut self, now_ns: u64, frames: &[(PortNo, Vec<u8>)]) {
        let t0 = ticks();
        let refs: Vec<(PortNo, &[u8])> = frames.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        self.table.process_batch(now_ns, &refs, &mut self.effects);
        self.effects.clear();
        bump(&self.sums.table_ns, ticks_to_ns(ticks() - t0));
    }
}

/// A traced switch that replays each batch in place on its shadows.
/// The order rotates over four batches — shadows before or after the
/// real callback, cached or cache-off shadow first — so no side always
/// finds the frames already in cache.
struct ShadowedSwitch {
    inner: Box<ShardSwitch>,
    t: Arc<NodeTrace>,
    capture: Option<Arc<Mutex<Capture>>>,
    shadow: RefCell<Shadow>,
}

impl ShardNode for ShadowedSwitch {
    fn on_start(&mut self, ctx: &mut ShardCtx<'_, '_>) {
        let inner = &mut self.inner;
        timed_around(&self.t, Cb::Start, || {}, || inner.on_start(ctx), |_| {});
    }

    fn on_packet(&mut self, ctx: &mut ShardCtx<'_, '_>, in_port: PortNo, frame: &[u8]) {
        self.on_packet_batch(ctx, &[(in_port, frame.to_vec())]);
    }

    fn on_packet_batch(&mut self, ctx: &mut ShardCtx<'_, '_>, frames: &[(PortNo, Vec<u8>)]) {
        let now_ns = ctx.now().as_nanos();
        let (inner, t, shadow, capture) = (&mut self.inner, &*self.t, &self.shadow, &self.capture);
        let (shadow_first, table_first) = {
            let mut s = shadow.borrow_mut();
            s.batches += 1;
            (s.batches % 2 == 1, s.batches / 2 % 2 == 1)
        };
        timed_around(
            t,
            Cb::Packet,
            || {
                if shadow_first {
                    shadow.borrow_mut().replay(now_ns, frames, table_first);
                }
            },
            || inner.on_packet_batch(ctx, frames),
            |ns| {
                if !shadow_first {
                    shadow.borrow_mut().replay(now_ns, frames, table_first);
                }
                let s = shadow.borrow();
                bump(&s.sums.callback_ns, ns);
                bump(&t.frames, frames.len() as u64);
                if let Some(c) = capture {
                    let mut c = c.lock().expect("capture lock");
                    c.keep_frames(frames.iter().map(|(p, f)| (*p, f.as_slice())));
                }
            },
        );
    }

    fn on_timer(&mut self, ctx: &mut ShardCtx<'_, '_>, token: u64) {
        let inner = &mut self.inner;
        timed_around(
            &self.t,
            Cb::Timer,
            || {},
            || inner.on_timer(ctx, token),
            |_| {},
        );
    }

    fn on_link_status(&mut self, ctx: &mut ShardCtx<'_, '_>, port: PortNo, up: bool) {
        let inner = &mut self.inner;
        timed_around(
            &self.t,
            Cb::Link,
            || {},
            || inner.on_link_status(ctx, port, up),
            |_| {},
        );
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct Episode {
    setup: Elapsed,
    run: Elapsed,
    frames: u64,
    tx: u64,
    rx: u64,
    punts: u64,
    drops: u64,
    events: u64,
    fingerprint: Fingerprint,
}

fn measure(
    setup: Elapsed,
    mut world: ShardedWorld,
    fabric: &ShardFabric,
    digest: bool,
    shards: usize,
) -> Episode {
    world.set_digest_enabled(digest);
    let t = Stopwatch::start();
    world.run_until(SPAN, shards);
    let run = t.elapsed();
    let m = world.metrics();
    let hosts = |f: &dyn Fn(&ShardTrafficHost) -> u64| -> u64 {
        fabric
            .hosts
            .iter()
            .map(|&id| f(world.node_as::<ShardTrafficHost>(id)))
            .sum()
    };
    let switches = |f: &dyn Fn(&ShardSwitch) -> u64| -> u64 {
        fabric
            .switches
            .iter()
            .map(|&id| f(world.node_as::<ShardSwitch>(id)))
            .sum()
    };
    let tx = hosts(&|h| h.tx);
    let rx = hosts(&|h| h.rx);
    let punts = switches(&|s| s.punts);
    let pipeline_drops = switches(&|s| s.dp().pipeline_drops);
    let cache =
        |f: &dyn Fn(&zen_dataplane::CacheStats) -> u64| switches(&|s| f(&s.dp().cache_stats()));
    let drops = m.counter("sim.drops_down")
        + m.counter("sim.drops_queue")
        + m.counter("sim.tx_no_link")
        + pipeline_drops;
    let events = world.events_processed();
    let fingerprint = vec![
        ("digest", world.digest().unwrap_or(0)),
        ("events", events),
        ("sim.tx_frames", m.counter("sim.tx_frames")),
        ("sim.tx_bytes", m.counter("sim.tx_bytes")),
        ("fabric.fwd_frames", m.counter("fabric.fwd_frames")),
        ("host.tx", tx),
        ("host.rx", rx),
        ("cache.micro_hits", cache(&|c| c.micro_hits)),
        ("cache.mega_hits", cache(&|c| c.mega_hits)),
        ("cache.misses", cache(&|c| c.misses)),
        ("cache.invalidations", cache(&|c| c.invalidations)),
    ];
    Episode {
        setup,
        run,
        frames: m.counter("sim.tx_frames"),
        tx,
        rx,
        punts,
        drops,
        events,
        fingerprint,
    }
}

fn episode(seed: u64) -> Episode {
    let t = Stopwatch::start();
    let (world, fabric) = build(seed);
    let setup = t.elapsed();
    measure(setup, world, &fabric, false, SHARDS)
}

fn fp(ep: &Episode, name: &str) -> u64 {
    ep.fingerprint
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

/// At most one burst per host is in flight when the run stops: the
/// longest path (6 hops, 24 us) is shorter than the burst period, and
/// arrivals landing exactly at the deadline are dropped by design.
const IN_FLIGHT_BOUND: u64 = (K * K * K / 4 * BURST) as u64;

fn check(out: &mut Outcome, ep: &Episode, first: &Episode) {
    out.attempted += ep.tx;
    let missing = ep.tx.saturating_sub(ep.rx);
    let unexplained = missing.saturating_sub(IN_FLIGHT_BOUND);
    out.failed += ep.punts + ep.drops + unexplained;
    out.check(ep.punts == 0, || {
        format!("{} frames punted in a routed fabric", ep.punts)
    });
    out.check(ep.drops == 0, || format!("{} frames dropped", ep.drops));
    out.check(ep.rx <= ep.tx && unexplained == 0, || {
        format!(
            "{} sent, {} delivered: more missing than can be in flight",
            ep.tx, ep.rx
        )
    });
    if let Some(d) = common::fingerprint_diff(&first.fingerprint, &ep.fingerprint) {
        out.problems
            .push(format!("runs diverged on the same inputs: {d}"));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        return run_traced(seed, seconds);
    }
    let mut out = Outcome::default();
    let (first, mem_mb) = common::mem_peak_mb(|| episode(seed));
    check(&mut out, &first, &first);
    let paced = speed::repeat(seconds, common::MIN_EPISODES, 1, |_| episode(seed));
    for p in &paced {
        check(&mut out, &p.ep, &first);
    }
    let eps: Vec<&Episode> = paced.iter().map(|p| &p.ep).collect();
    let n = eps.len();
    let med = |f: &dyn Fn(&Episode) -> f64| common::median_of(&eps, |e| f(e));
    let frames_per_s = med(&|e| e.frames as f64 / e.run.wall_s);
    let (gated, info) = common::end_to_end(
        &paced,
        |e| e.setup.cpu_s,
        |e| e.frames as f64 / e.run.cpu_s,
        mem_mb,
    );
    out.gated = gated;
    out.info = info;
    out.info.extend([
        metric("frames_per_s", frames_per_s, "1/s", n),
        metric("setup_wall_s", med(&|e| e.setup.wall_s), "s", n),
        metric("frames_per_episode", first.frames as f64, "count", n),
        metric("delivered_per_episode", first.rx as f64, "count", n),
        metric("threads", SHARDS as f64, "count", 1),
    ]);
    out
}

/// A traced episode.
struct Traced {
    ep: Episode,
    tracer: Tracer,
    allocs: alloc::Counts,
    shadows: Vec<Arc<ShadowSums>>,
}

fn traced_episode(seed: u64, mode: Mode, shards: usize) -> Traced {
    let mut tracer = Tracer {
        capture: (mode == Mode::Shadowed).then(|| Capture::new(CAPTURE_BYTES)),
        ..Tracer::default()
    };
    let (world, fabric, shadows) = build_traced(seed, &mut tracer, mode);
    tracer.start_span();
    alloc::set_counting(mode == Mode::Counted);
    let before = alloc::total_counts();
    let ep = measure(Elapsed::default(), world, &fabric, true, shards);
    let allocs = alloc::total_counts() - before;
    alloc::set_counting(false);
    Traced {
        ep,
        tracer,
        allocs,
        shadows,
    }
}

/// A plain episode with the run digest on, for comparison.
fn plain_episode(seed: u64) -> Episode {
    let (world, fabric) = build(seed);
    measure(Elapsed::default(), world, &fabric, true, SHARDS)
}

fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let first = plain_episode(seed);
    check(&mut out, &first, &first);

    // Allocations are counted in a traced episode of their own, at one
    // shard: at two, how far the engine's cross-shard inboxes grow
    // depends on thread timing, so byte counts would not repeat. The
    // digest matches at any shard count.
    let counted = traced_episode(seed, Mode::Counted, 1);
    check(&mut out, &counted.ep, &first);

    // The in-place replay, once: both sides run in the same episode.
    let shadowed = traced_episode(seed, Mode::Shadowed, SHARDS);
    check(&mut out, &shadowed.ep, &first);
    let replay = Replay::of(&shadowed);

    // Timed traced episodes, each right after a plain one, for the
    // run's seconds.
    let runs = common::repeat(seconds, || {
        let plain = plain_episode(seed);
        check(&mut out, &plain, &first);
        let timed = traced_episode(seed, Mode::Timed, SHARDS);
        check(&mut out, &timed.ep, &first);
        layers(&timed, &plain, &counted, &replay).metrics(1)
    });
    out.gated = common::median_metrics(&runs);
    let parts = replay.parts_sum_ratio();
    out.check((parts - 1.0).abs() <= 0.10, || {
        format!(
            "replayed parts {:.1} ns/frame are {parts:.3} of the in-run switch callback {:.1} ns/frame",
            replay.process_ns + replay.emit_ns,
            replay.callback_ns
        )
    });
    let frames = counted.ep.frames as f64;
    let layer_allocs = |l| counted.tracer.sum(l, |t| t.allocs.load(Relaxed)) as f64;
    let in_layers = layer_allocs(Layer::Switch) + layer_allocs(Layer::Host);
    let n = replay.frames as usize;
    out.info = vec![
        metric("replay.callback_ns_per_frame", replay.callback_ns, "ns", n),
        metric(
            "split.parse_ns_per_frame",
            replay.parse_ns,
            "ns",
            replay.sample,
        ),
        metric(
            "split.key_ns_per_frame",
            replay.key_ns - replay.parse_ns,
            "ns",
            replay.sample,
        ),
        metric(
            "split.lookup_actions_ns_per_frame",
            replay.process_ns - replay.key_ns,
            "ns",
            n,
        ),
        metric("split.emit_ns_per_frame", replay.emit_ns, "ns", n),
        metric("alloc.total", counted.allocs.allocs as f64, "count", 1),
        metric(
            "alloc.switch_per_frame",
            ratio(layer_allocs(Layer::Switch), frames),
            "allocs/frame",
            1,
        ),
        metric(
            "alloc.host_per_frame",
            ratio(layer_allocs(Layer::Host), frames),
            "allocs/frame",
            1,
        ),
        metric(
            "alloc.engine_per_frame",
            ratio(counted.allocs.allocs as f64 - in_layers, frames),
            "allocs/frame",
            1,
        ),
    ];
    out
}

/// Per-frame replay results of the shadowed episode.
struct Replay {
    frames: u64,
    process_ns: f64,
    emit_ns: f64,
    table_ns: f64,
    callback_ns: f64,
    /// Offline replays over the captured sample of `sample` frames.
    parse_ns: f64,
    key_ns: f64,
    sample: usize,
}

impl Replay {
    fn of(shadowed: &Traced) -> Replay {
        let sum = |f: fn(&ShadowSums) -> &AtomicU64| -> u64 {
            shadowed.shadows.iter().map(|s| f(s).load(Relaxed)).sum()
        };
        let frames = sum(|s| &s.frames);
        let per_frame = |f| ratio(sum(f) as f64, frames as f64);
        let capture = shadowed
            .tracer
            .capture
            .as_ref()
            .expect("capture was installed");
        let capture = capture.lock().expect("capture lock");
        let sample = capture.frame_refs();
        let (parse_ns, key_ns) = common::replay_parse_and_key(&sample);
        Replay {
            frames,
            process_ns: per_frame(|s| &s.process_ns),
            emit_ns: per_frame(|s| &s.emit_ns),
            table_ns: per_frame(|s| &s.table_ns),
            callback_ns: per_frame(|s| &s.callback_ns),
            parse_ns,
            key_ns,
            sample: sample.len(),
        }
    }

    /// The replayed parts (parse, key, cache or table, actions, emit)
    /// over the in-run switch callback.
    fn parts_sum_ratio(&self) -> f64 {
        ratio(self.process_ns + self.emit_ns, self.callback_ns)
    }
}

/// The per-layer metrics of one timed traced episode.
fn layers(timed: &Traced, plain: &Episode, counted: &Traced, replay: &Replay) -> Layers {
    let (tracer, traced) = (&timed.tracer, &timed.ep);
    let frames = traced.frames as f64;
    let sw_frames = tracer.sum(Layer::Switch, |t| t.frames.load(Relaxed)) as f64;
    let sw_batches = tracer.sum(Layer::Switch, |t| t.calls(Cb::Packet)) as f64;
    let cb_ns = tracer.sum_all(|t| t.total_ns()) as f64;
    let overhead_ns = tracer.sum_all(|t| t.overhead_ns.load(Relaxed)) as f64;
    let host_ns = tracer.sum(Layer::Host, |t| t.total_ns()) as f64;
    let cache = |name| fp(traced, name) as f64;
    let probes = cache("cache.micro_hits") + cache("cache.mega_hits") + cache("cache.misses");
    let allocs = counted.allocs;
    Layers {
        sim_self_ns_per_event: ratio(
            traced.run.wall_s * 1e9 * SHARDS as f64 - overhead_ns - cb_ns,
            traced.events as f64,
        ),
        sim_events_per_frame: ratio(traced.events as f64, frames),
        sim_batch_frames_mean: ratio(sw_frames, sw_batches),
        dp_callback_ns_per_frame: ratio(
            tracer.sum(Layer::Switch, |t| t.ns(Cb::Packet)) as f64,
            sw_frames,
        ),
        dp_process_ns_per_frame: replay.process_ns,
        dp_table_ns_per_frame: replay.table_ns,
        dp_key_ns_per_frame: replay.key_ns,
        wire_parse_ns_per_frame: replay.parse_ns,
        dp_micro_hit_ratio: ratio(cache("cache.micro_hits"), probes),
        dp_mega_hit_ratio: ratio(cache("cache.mega_hits"), probes),
        dp_miss_ratio: ratio(cache("cache.misses"), probes),
        dp_cache_invalidations: cache("cache.invalidations"),
        host_ns_per_frame: ratio(host_ns, (traced.tx + traced.rx) as f64),
        alloc_per_frame: ratio(allocs.allocs as f64, frames),
        alloc_bytes_per_frame: ratio(allocs.bytes as f64, frames),
        trace_overhead_ratio: ratio(traced.run.cpu_s, plain.run.cpu_s),
        trace_parts_sum_ratio: replay.parts_sum_ratio(),
        ..Layers::default()
    }
}
