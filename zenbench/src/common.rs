//! Pieces shared by the workloads: seeding, the episode loop, the
//! per-layer metric set, and the stateless replays (wire parse, flow
//! key, protocol decode and encode).

use std::hint::black_box;
use std::time::Instant;

use zen_dataplane::FlowKey;
use zen_sim::PortNo;
use zen_wire::ethernet::{EtherType, Frame};
use zen_wire::{ipv4, udp};

use crate::report::{median, metric, quantile, Metric};
use crate::speed::Paced;
use crate::trace::Tracer;

/// Episodes run at least this often, however short `--seconds` is, so
/// medians and determinism checks always have material.
pub const MIN_EPISODES: usize = 3;

/// SplitMix64: derive independent input seeds from the `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Run identical episodes until `seconds` of wall time have passed.
pub fn repeat<E>(seconds: f64, mut episode: impl FnMut() -> E) -> Vec<E> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_EPISODES || start.elapsed().as_secs_f64() < seconds {
        out.push(episode());
    }
    out
}

/// Deterministic counters of one episode, compared across episodes and
/// between traced and untraced runs.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// Name the first counter on which `b` differs from `a`.
pub fn fingerprint_diff(a: &Fingerprint, b: &Fingerprint) -> Option<String> {
    if a.len() != b.len() {
        return Some("counter sets differ".to_string());
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|((name, x), (_, y))| format!("{name}: {x} vs {y}"))
}

/// Median over episodes of one quantity.
pub fn median_of<E>(eps: &[E], f: impl Fn(&E) -> f64) -> f64 {
    let v: Vec<f64> = eps.iter().map(f).collect();
    median(&v)
}

/// Field-wise median of several lists of the same metrics.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    runs[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let v: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            metric(m.name, median(&v), m.unit, runs.len())
        })
        .collect()
}

/// The gated end-to-end metrics, in `BENCHMARK.json` order, plus the
/// raw figures and the other quartiles for reading.
///
/// `setup_s` is the median of the episodes' set-up CPU times and
/// `ops_per_cpu_s` the median of their rates (operations over the
/// measured part's CPU time), each scaled to the reference speed (see
/// `speed`).
pub fn end_to_end<E>(
    eps: &[Paced<E>],
    setup_cpu_s: impl Fn(&E) -> f64,
    ops_per_cpu_s: impl Fn(&E) -> f64,
    mem_mb: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let n = eps.len();
    let rates: Vec<f64> = eps.iter().map(|p| ops_per_cpu_s(&p.ep) / p.scale).collect();
    let raw: Vec<f64> = eps.iter().map(|p| ops_per_cpu_s(&p.ep)).collect();
    let gated = gated(eps, &setup_cpu_s, median(&rates), n, mem_mb, 1);
    let mut info = raw_info(eps, setup_cpu_s);
    info.extend([
        metric("ops_per_cpu_s_raw", median(&raw), "1/s", n),
        metric("ops_per_cpu_s_q1", quantile(&rates, 0.25), "1/s", n),
        metric("ops_per_cpu_s_q3", quantile(&rates, 0.75), "1/s", n),
    ]);
    (gated, info)
}

/// The gated end-to-end metrics from their parts: the episodes, whose
/// set-up CPU times are scaled to the reference speed and reported at
/// their median, the rate, and the peak heap with the number of
/// episodes it was taken over.
pub fn gated<E>(
    eps: &[Paced<E>],
    setup_cpu_s: impl Fn(&E) -> f64,
    ops_per_cpu_s: f64,
    ops_samples: usize,
    mem_mb: f64,
    mem_samples: usize,
) -> Vec<Metric> {
    let setups: Vec<f64> = eps.iter().map(|p| setup_cpu_s(&p.ep) * p.scale).collect();
    vec![
        metric("setup_s", median(&setups), "s", eps.len()),
        metric("ops_per_cpu_s", ops_per_cpu_s, "1/s", ops_samples),
        metric("mem_peak_mb", mem_mb, "MiB", mem_samples),
    ]
}

/// The unscaled set-up time and the reference's own time, medians over
/// the episodes.
pub fn raw_info<E>(eps: &[Paced<E>], setup_cpu_s: impl Fn(&E) -> f64) -> Vec<Metric> {
    let n = eps.len();
    let setups: Vec<f64> = eps.iter().map(|p| setup_cpu_s(&p.ep)).collect();
    let refs: Vec<f64> = eps.iter().map(|p| p.reference_s).collect();
    vec![
        metric("setup_s_raw", median(&setups), "s", n),
        metric("reference_cpu_s", median(&refs), "s", n),
    ]
}

/// The per-layer metrics of `BENCHMARK.json`. A workload leaves at zero
/// what its layers do not exercise (see `zenbench/README.md`).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub sim_self_ns_per_event: f64,
    pub sim_events_per_frame: f64,
    pub sim_events_per_setup: f64,
    pub sim_batch_frames_mean: f64,
    pub dp_callback_ns_per_frame: f64,
    pub dp_process_ns_per_frame: f64,
    pub dp_table_ns_per_frame: f64,
    pub dp_key_ns_per_frame: f64,
    pub wire_parse_ns_per_frame: f64,
    pub dp_micro_hit_ratio: f64,
    pub dp_mega_hit_ratio: f64,
    pub dp_miss_ratio: f64,
    pub dp_cache_invalidations: f64,
    pub proto_decode_ns_per_msg: f64,
    pub proto_encode_ns_per_msg: f64,
    pub proto_msgs_per_setup: f64,
    pub proto_bytes_per_setup: f64,
    pub ctl_ns_per_setup: f64,
    pub ctl_timer_ns_share: f64,
    pub cbench_ns_per_setup: f64,
    pub agent_control_ns_per_msg: f64,
    pub agent_punts_per_frame: f64,
    pub cluster_ew_msgs_per_sim_s: f64,
    pub cluster_ew_bytes_per_sim_s: f64,
    pub cluster_ns_share: f64,
    pub host_ns_per_frame: f64,
    pub alloc_per_frame: f64,
    pub alloc_bytes_per_frame: f64,
    pub alloc_per_setup: f64,
    pub trace_overhead_ratio: f64,
    pub trace_parts_sum_ratio: f64,
}

impl Layers {
    pub fn metrics(&self, samples: usize) -> Vec<Metric> {
        let m = |name, value, unit| metric(name, value, unit, samples);
        vec![
            m("sim.self_ns_per_event", self.sim_self_ns_per_event, "ns"),
            m(
                "sim.events_per_frame",
                self.sim_events_per_frame,
                "events/frame",
            ),
            m(
                "sim.events_per_setup",
                self.sim_events_per_setup,
                "events/setup",
            ),
            m(
                "sim.batch_frames_mean",
                self.sim_batch_frames_mean,
                "frames/batch",
            ),
            m(
                "dp.callback_ns_per_frame",
                self.dp_callback_ns_per_frame,
                "ns",
            ),
            m(
                "dp.process_ns_per_frame",
                self.dp_process_ns_per_frame,
                "ns",
            ),
            m("dp.table_ns_per_frame", self.dp_table_ns_per_frame, "ns"),
            m("dp.key_ns_per_frame", self.dp_key_ns_per_frame, "ns"),
            m(
                "wire.parse_ns_per_frame",
                self.wire_parse_ns_per_frame,
                "ns",
            ),
            m("dp.micro_hit_ratio", self.dp_micro_hit_ratio, "ratio"),
            m("dp.mega_hit_ratio", self.dp_mega_hit_ratio, "ratio"),
            m("dp.miss_ratio", self.dp_miss_ratio, "ratio"),
            m(
                "dp.cache_invalidations",
                self.dp_cache_invalidations,
                "count",
            ),
            m(
                "proto.decode_ns_per_msg",
                self.proto_decode_ns_per_msg,
                "ns",
            ),
            m(
                "proto.encode_ns_per_msg",
                self.proto_encode_ns_per_msg,
                "ns",
            ),
            m(
                "proto.msgs_per_setup",
                self.proto_msgs_per_setup,
                "msgs/setup",
            ),
            m(
                "proto.bytes_per_setup",
                self.proto_bytes_per_setup,
                "B/setup",
            ),
            m("ctl.ns_per_setup", self.ctl_ns_per_setup, "ns"),
            m("ctl.timer_ns_share", self.ctl_timer_ns_share, "ratio"),
            m("cbench.ns_per_setup", self.cbench_ns_per_setup, "ns"),
            m(
                "agent.control_ns_per_msg",
                self.agent_control_ns_per_msg,
                "ns",
            ),
            m("agent.punts_per_frame", self.agent_punts_per_frame, "ratio"),
            m(
                "cluster.ew_msgs_per_sim_s",
                self.cluster_ew_msgs_per_sim_s,
                "1/s",
            ),
            m(
                "cluster.ew_bytes_per_sim_s",
                self.cluster_ew_bytes_per_sim_s,
                "B/s",
            ),
            m("cluster.ns_share", self.cluster_ns_share, "ratio"),
            m("host.ns_per_frame", self.host_ns_per_frame, "ns"),
            m("alloc.per_frame", self.alloc_per_frame, "allocs/frame"),
            m(
                "alloc.bytes_per_frame",
                self.alloc_bytes_per_frame,
                "B/frame",
            ),
            m("alloc.per_setup", self.alloc_per_setup, "allocs/setup"),
            m("trace.overhead_ratio", self.trace_overhead_ratio, "ratio"),
            m("trace.parts_sum_ratio", self.trace_parts_sum_ratio, "ratio"),
        ]
    }
}

/// Replay passes per measurement; the median pass is reported.
const REPLAY_PASSES: usize = 5;

/// Median nanoseconds of `pass` over [`REPLAY_PASSES`] runs.
pub fn replay_ns(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Header parse of one frame, as far as the datapath looks: Ethernet,
/// then IPv4, then UDP.
fn parse(frame: &[u8]) -> u32 {
    let Ok(eth) = Frame::new_checked(frame) else {
        return 0;
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return 1;
    }
    let Ok(ip) = ipv4::Packet::new_checked(eth.payload()) else {
        return 2;
    };
    if ip.protocol() != ipv4::Protocol::Udp {
        return ip.dst_addr().to_u32();
    }
    match udp::Datagram::new_checked(ip.payload()) {
        Ok(d) => ip.dst_addr().to_u32() ^ u32::from(d.src_port()) ^ u32::from(d.dst_port()),
        Err(_) => 3,
    }
}

/// Wire-parse and flow-key nanoseconds per frame over `frames`.
pub fn replay_parse_and_key(frames: &[(PortNo, &[u8])]) -> (f64, f64) {
    let n = frames.len().max(1) as f64;
    let parse_ns = replay_ns(|| {
        for &(_, f) in frames {
            black_box(parse(black_box(f)));
        }
    });
    let key_ns = replay_ns(|| {
        for &(port, f) in frames {
            black_box(FlowKey::extract(port, black_box(f)));
        }
    });
    (parse_ns / n, key_ns / n)
}

/// Protocol decode (borrowed views, as every receiver decodes) and
/// encode nanoseconds per message over captured control buffers.
pub fn replay_proto(control: &[Vec<u8>]) -> (f64, f64) {
    let mut owned = Vec::new();
    for buf in control {
        let mut at = 0;
        while let Ok((msg, xid, used)) = zen_proto::decode(&buf[at..]) {
            owned.push((msg, xid));
            at += used;
        }
    }
    let n = owned.len().max(1) as f64;
    let decode_ns = replay_ns(|| {
        for buf in control {
            let mut at = 0;
            while let Ok((view, xid, used)) = zen_proto::decode_view(black_box(&buf[at..])) {
                black_box((&view, xid));
                at += used;
            }
        }
    });
    let encode_ns = replay_ns(|| {
        for (msg, xid) in &owned {
            black_box(zen_proto::encode(black_box(msg), *xid));
        }
    });
    (decode_ns / n, encode_ns / n)
}

/// Offline replays over the inputs one traced episode captured, in
/// nanoseconds per message or frame.
pub struct Replays {
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub parse_ns: f64,
    pub key_ns: f64,
}

impl Replays {
    pub fn of(tracer: &Tracer) -> Replays {
        let capture = tracer.capture.as_ref().expect("capture was installed");
        let capture = capture.lock().expect("capture lock");
        let (decode_ns, encode_ns) = replay_proto(&capture.control);
        let (parse_ns, key_ns) = replay_parse_and_key(&capture.frame_refs());
        Replays {
            decode_ns,
            encode_ns,
            parse_ns,
            key_ns,
        }
    }
}

/// Peak heap in use while `f` runs, in MiB.
pub fn mem_peak_mb<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (out, bytes) = crate::alloc::peak_live_bytes(f);
    (out, bytes as f64 / (1024.0 * 1024.0))
}
