//! Tracing from outside the program: node wrappers that time every
//! callback the engines make into a node, attribute allocations to the
//! node's layer, and capture a bounded sample of inputs for replay.
//!
//! A wrapper forwards `as_any` to the wrapped node, so `World::node_as`
//! and `ShardedWorld::node_as` still reach the program's own types.
//! Untraced runs never construct a wrapper.

use std::any::Any;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use zen_sim::{Context, Node, NodeId, PortNo, ShardCtx, ShardNode};

use crate::alloc;
use crate::clock::{ticks, ticks_to_ns};
use crate::report::median;

/// The program layer a wrapped node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `zen_core::Controller`.
    Controller,
    /// `zen_core::SwitchAgent` (World) or `ShardSwitch` (sharded).
    Switch,
    /// `zen_core::CbenchSwitch`.
    Cbench,
    /// `zen_sim::Host` or `ShardTrafficHost`.
    Host,
}

/// Callback kinds, indexing [`NodeTrace`] arrays.
#[derive(Debug, Clone, Copy)]
pub enum Cb {
    Start = 0,
    Packet = 1,
    Timer = 2,
    Control = 3,
    Link = 4,
}
const N_CB: usize = 5;

/// Single-writer counters for one wrapped node. Each node lives on one
/// thread for a run, so relaxed load/store pairs are exact.
#[derive(Default)]
pub struct NodeTrace {
    ns: [AtomicU64; N_CB],
    calls: [AtomicU64; N_CB],
    /// Frames handed to packet callbacks.
    pub frames: AtomicU64,
    /// Control messages delivered.
    pub ctl_msgs: AtomicU64,
    /// The east-west part: control from peer controllers.
    pub ew_ns: AtomicU64,
    pub ew_msgs: AtomicU64,
    pub ew_bytes: AtomicU64,
    /// Allocations made inside the node's callbacks.
    pub allocs: AtomicU64,
    /// Time between the previous callback on this thread and this one
    /// (engine work), and the wrappers' own bookkeeping.
    pub gap_ns: AtomicU64,
    pub overhead_ns: AtomicU64,
}

pub fn bump(a: &AtomicU64, by: u64) {
    a.store(a.load(Relaxed) + by, Relaxed);
}

impl NodeTrace {
    pub fn ns(&self, cb: Cb) -> u64 {
        self.ns[cb as usize].load(Relaxed)
    }

    pub fn calls(&self, cb: Cb) -> u64 {
        self.calls[cb as usize].load(Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|a| a.load(Relaxed)).sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(|a| a.load(Relaxed)).sum()
    }

    fn reset(&self) {
        let scalars = [
            &self.frames,
            &self.ctl_msgs,
            &self.ew_ns,
            &self.ew_msgs,
            &self.ew_bytes,
            &self.allocs,
            &self.gap_ns,
            &self.overhead_ns,
        ];
        for a in self.ns.iter().chain(&self.calls).chain(scalars) {
            a.store(0, Relaxed);
        }
    }
}

thread_local! {
    static LAST_END: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Forget the previous callback's end on this thread, so the next gap
/// does not span the benchmark's own code between runs.
pub fn reset_gap_clock() {
    LAST_END.with(|c| c.set(None));
}

/// Time one callback: `f` is the wrapped call, `after` the untimed
/// bookkeeping that follows it. Returns the callback's nanoseconds.
fn timed(t: &NodeTrace, cb: Cb, f: impl FnOnce(), after: impl FnOnce(u64)) -> u64 {
    timed_around(t, cb, || {}, f, after)
}

/// [`timed`] with untimed bookkeeping `before` the call as well. Both
/// bookkeeping parts run with allocation counting suspended and are
/// charged to the node's overhead, not to the callback or the engine.
pub fn timed_around(
    t: &NodeTrace,
    cb: Cb,
    before: impl FnOnce(),
    f: impl FnOnce(),
    after: impl FnOnce(u64),
) -> u64 {
    let tb = ticks();
    if let Some(last) = LAST_END.with(Cell::get) {
        bump(&t.gap_ns, ticks_to_ns(tb - last));
    }
    alloc::suspended(before);
    let counts = alloc::thread_counts();
    let t0 = ticks();
    f();
    let t1 = ticks();
    let used = alloc::thread_counts() - counts;
    let ns = ticks_to_ns(t1 - t0);
    bump(&t.ns[cb as usize], ns);
    bump(&t.calls[cb as usize], 1);
    bump(&t.allocs, used.allocs);
    alloc::suspended(|| after(ns));
    let t2 = ticks();
    bump(&t.overhead_ns, ticks_to_ns((t0 - tb) + (t2 - t1)));
    LAST_END.with(|c| c.set(Some(t2)));
    ns
}

/// Nanoseconds one [`ticks`] read takes here: the median over five
/// passes of ten thousand reads.
pub fn clock_read_ns() -> f64 {
    const READS: u64 = 10_000;
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = ticks();
            for _ in 0..READS {
                black_box(ticks());
            }
            ticks_to_ns(ticks() - t) as f64 / READS as f64
        })
        .collect();
    median(&passes)
}

/// Count the messages in a buffer of concatenated protocol frames by
/// walking their length fields.
fn count_msgs(bytes: &[u8]) -> u64 {
    let mut at = 0;
    let mut n = 0;
    while at + zen_proto::HEADER_LEN <= bytes.len() {
        let len = u32::from_be_bytes([bytes[at + 2], bytes[at + 3], bytes[at + 4], bytes[at + 5]])
            as usize;
        if len < zen_proto::HEADER_LEN {
            break;
        }
        at += len;
        n += 1;
    }
    n
}

/// Captured inputs for replay, bounded by a byte budget.
pub struct Capture {
    budget: usize,
    used: usize,
    /// Control buffers delivered to nodes, in delivery order.
    pub control: Vec<Vec<u8>>,
    /// Frames delivered to switches, in delivery order.
    pub frames: Vec<(PortNo, Vec<u8>)>,
}

impl Capture {
    pub fn new(budget: usize) -> Arc<Mutex<Capture>> {
        Arc::new(Mutex::new(Capture {
            budget,
            used: 0,
            control: Vec::new(),
            frames: Vec::new(),
        }))
    }

    fn take(&mut self, bytes: usize) -> bool {
        if self.used + bytes > self.budget {
            return false;
        }
        self.used += bytes;
        true
    }

    /// Keep a copy of each frame the budget allows.
    pub fn keep_frames<'a>(&mut self, frames: impl IntoIterator<Item = (PortNo, &'a [u8])>) {
        for (port, frame) in frames {
            if self.take(frame.len()) {
                self.frames.push((port, frame.to_vec()));
            }
        }
    }

    /// The kept frames, borrowed for a replay.
    pub fn frame_refs(&self) -> Vec<(PortNo, &[u8])> {
        self.frames
            .iter()
            .map(|(p, f)| (*p, f.as_slice()))
            .collect()
    }
}

fn lock(c: &Mutex<Capture>) -> std::sync::MutexGuard<'_, Capture> {
    c.lock().expect("capture lock poisoned by a panicking node")
}

/// The registry of wrapped nodes for one traced run.
#[derive(Default)]
pub struct Tracer {
    pub nodes: Vec<(Layer, Arc<NodeTrace>)>,
    /// Controller node ids, to tell east-west control from southbound.
    pub controllers: Vec<NodeId>,
    pub capture: Option<Arc<Mutex<Capture>>>,
}

impl Tracer {
    /// Counters for a node wrapped by a workload's own wrapper.
    pub fn register(&mut self, layer: Layer) -> Arc<NodeTrace> {
        let t = Arc::new(NodeTrace::default());
        self.nodes.push((layer, Arc::clone(&t)));
        t
    }

    /// Wrap a `World` node.
    pub fn world(&mut self, layer: Layer, inner: Box<dyn Node>) -> Box<dyn Node> {
        let t = self.register(layer);
        Box::new(Traced {
            inner,
            t,
            layer,
            controllers: self.controllers.clone(),
            capture: self.capture.clone(),
        })
    }

    /// Wrap a `ShardedWorld` node.
    pub fn shard(&mut self, layer: Layer, inner: Box<dyn ShardNode>) -> Box<dyn ShardNode> {
        let t = self.register(layer);
        Box::new(ShardTraced { inner, t })
    }

    /// Zero every node's counters: what follows is the measured span.
    pub fn start_span(&self) {
        for (_, t) in &self.nodes {
            t.reset();
        }
        reset_gap_clock();
    }

    /// Sum a quantity over the nodes of one layer.
    pub fn sum(&self, layer: Layer, f: impl Fn(&NodeTrace) -> u64) -> u64 {
        self.nodes
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, t)| f(t))
            .sum()
    }

    /// Sum a quantity over every node.
    pub fn sum_all(&self, f: impl Fn(&NodeTrace) -> u64) -> u64 {
        self.nodes.iter().map(|(_, t)| f(t)).sum()
    }

    /// The span's time in callbacks and in the engine between them, in
    /// nanoseconds. [`timed_around`] reads the clock four times a call:
    /// two reads fall in `overhead_ns`, one in the callback's time and
    /// one in the gap before it; those two are taken out here.
    pub fn callbacks_and_engine_ns(&self) -> (f64, f64) {
        let reads = clock_read_ns() * self.sum_all(NodeTrace::total_calls) as f64;
        let callbacks = self.sum_all(NodeTrace::total_ns) as f64;
        let engine = self.sum_all(|t| t.gap_ns.load(Relaxed)) as f64;
        (callbacks - reads, engine - reads)
    }
}

struct Traced {
    inner: Box<dyn Node>,
    t: Arc<NodeTrace>,
    layer: Layer,
    controllers: Vec<NodeId>,
    capture: Option<Arc<Mutex<Capture>>>,
}

impl Node for Traced {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        timed(&self.t, Cb::Start, || inner.on_start(ctx), |_| {});
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
        let inner = &mut self.inner;
        let t = &*self.t;
        let capture = if self.layer == Layer::Switch {
            &self.capture
        } else {
            &None
        };
        timed(
            t,
            Cb::Packet,
            || inner.on_packet(ctx, port, frame),
            |_| {
                bump(&t.frames, 1);
                if let Some(c) = capture {
                    lock(c).keep_frames([(port, frame)]);
                }
            },
        );
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let inner = &mut self.inner;
        timed(&self.t, Cb::Timer, || inner.on_timer(ctx, token), |_| {});
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let inner = &mut self.inner;
        let (t, capture) = (&self.t, &self.capture);
        let east_west = self.layer == Layer::Controller && self.controllers.contains(&from);
        timed(
            t,
            Cb::Control,
            || inner.on_control(ctx, from, bytes),
            |ns| {
                let msgs = count_msgs(bytes);
                bump(&t.ctl_msgs, msgs);
                if east_west {
                    bump(&t.ew_ns, ns);
                    bump(&t.ew_msgs, msgs);
                    bump(&t.ew_bytes, bytes.len() as u64);
                }
                if let Some(c) = capture {
                    let mut c = lock(c);
                    if c.take(bytes.len()) {
                        c.control.push(bytes.to_vec());
                    }
                }
            },
        );
    }

    fn on_link_status(&mut self, ctx: &mut Context<'_>, port: PortNo, up: bool) {
        let inner = &mut self.inner;
        timed(
            &self.t,
            Cb::Link,
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

struct ShardTraced {
    inner: Box<dyn ShardNode>,
    t: Arc<NodeTrace>,
}

impl ShardNode for ShardTraced {
    fn on_start(&mut self, ctx: &mut ShardCtx<'_, '_>) {
        let inner = &mut self.inner;
        timed(&self.t, Cb::Start, || inner.on_start(ctx), |_| {});
    }

    fn on_packet(&mut self, ctx: &mut ShardCtx<'_, '_>, in_port: PortNo, frame: &[u8]) {
        let (inner, t) = (&mut self.inner, &*self.t);
        timed(
            t,
            Cb::Packet,
            || inner.on_packet(ctx, in_port, frame),
            |_| bump(&t.frames, 1),
        );
    }

    fn on_packet_batch(&mut self, ctx: &mut ShardCtx<'_, '_>, frames: &[(PortNo, Vec<u8>)]) {
        let (inner, t) = (&mut self.inner, &*self.t);
        timed(
            t,
            Cb::Packet,
            || inner.on_packet_batch(ctx, frames),
            |_| bump(&t.frames, frames.len() as u64),
        );
    }

    fn on_timer(&mut self, ctx: &mut ShardCtx<'_, '_>, token: u64) {
        let inner = &mut self.inner;
        timed(&self.t, Cb::Timer, || inner.on_timer(ctx, token), |_| {});
    }

    fn on_link_status(&mut self, ctx: &mut ShardCtx<'_, '_>, port: PortNo, up: bool) {
        let inner = &mut self.inner;
        timed(
            &self.t,
            Cb::Link,
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
