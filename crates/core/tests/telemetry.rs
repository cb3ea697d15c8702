//! The flight recorder end to end: a probe's full causal chain must be
//! reconstructible by trace id, and the telemetry export must be
//! byte-identical across runs of the same seeded scenario (the CI
//! determinism gate runs the second test twice via the harness).

use zen_core::apps::{Monitor, ReactiveForwarding};
use zen_core::harness::{build_fabric_with_hosts, default_host_ip, FabricOptions};
use zen_core::{export_jsonl, Controller};
use zen_sim::{Duration, Host, Instant, LinkParams, Topology, Workload, World};
use zen_telemetry::{CacheTier, TraceEvent, TraceRecord};

/// A two-switch line with a probing host pair, recorder on.
fn run_probed_world(seed: u64) -> (World, zen_sim::NodeId) {
    let topo = Topology::line(2, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(seed);
    let fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![
            Box::new(ReactiveForwarding::new()),
            Box::new(Monitor::new(4)),
        ],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_host_ip(1),
                    dst_port: 9,
                    size: 120,
                    count: 10,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.recorder().set_enabled(true);
    world.run_until(Instant::from_secs(2));
    (world, fabric.controller)
}

fn names(records: &[TraceRecord]) -> Vec<&'static str> {
    records.iter().map(|r| r.event.name()).collect()
}

fn pos(names: &[&str], wanted: &str) -> usize {
    names
        .iter()
        .position(|&n| n == wanted)
        .unwrap_or_else(|| panic!("no {wanted} in {names:?}"))
}

#[test]
fn first_probe_trace_reconstructs_full_causal_chain() {
    let (world, _) = run_probed_world(42);
    let recorder = world.recorder();

    // The first probe is the earliest host_emit on record.
    let all = recorder.records();
    let first_emit = all
        .iter()
        .find(|r| matches!(r.event, TraceEvent::HostEmit { .. }))
        .expect("a probe was emitted");
    let chain = recorder.trace_records(first_emit.trace);
    let chain_names = names(&chain);

    // Timestamps are non-decreasing along the chain.
    assert!(
        chain.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos),
        "trace not in causal order: {chain:?}"
    );

    // The cold-path chain: emitted, carried on a link, missed every
    // cache tier, punted, dispatched to the claiming app, which
    // installed flows that were applied and eventually barrier-acked —
    // and the probe still reached the far host.
    let emit = pos(&chain_names, "host_emit");
    let link = pos(&chain_names, "link_tx");
    let dp = pos(&chain_names, "dp_match");
    let punt = pos(&chain_names, "punt");
    let dispatch = pos(&chain_names, "app_dispatch");
    let sent = pos(&chain_names, "flow_mod_sent");
    let applied = pos(&chain_names, "flow_mod_applied");
    let acked = pos(&chain_names, "flow_mod_acked");
    let recv = pos(&chain_names, "host_recv");
    assert!(emit < link && link < dp && dp < punt && punt < dispatch);
    // Flow-mods go out while the chain runs, so they precede the
    // app_dispatch record that closes it.
    assert!(punt < sent && sent < applied && applied < acked);
    assert!(dispatch < recv);

    // The first classification happened at the ingress switch. (Its
    // tier is not necessarily Slow: a previous table-miss trajectory —
    // e.g. from ARP flooding — may be memoized as a megaflow whose
    // wildcard mask also covers this probe, so even the punt can be a
    // cache hit.)
    assert!(matches!(
        chain[dp].event,
        TraceEvent::DpMatch { dpid: 0, .. }
    ));
    assert!(matches!(
        chain[dispatch].event,
        TraceEvent::AppDispatch { claimed: true, .. }
    ));

    // A later probe rides the installed flows: its chain has cache-tier
    // hits and no punt.
    let last_emit = all
        .iter()
        .rev()
        .find(|r| matches!(r.event, TraceEvent::HostEmit { .. }))
        .unwrap();
    assert_ne!(last_emit.trace, first_emit.trace);
    let warm = recorder.trace_records(last_emit.trace);
    let warm_names = names(&warm);
    assert!(!warm_names.contains(&"punt"), "warm probe punted: {warm:?}");
    assert!(warm_names.contains(&"host_recv"));
    assert!(warm.iter().any(|r| matches!(
        r.event,
        TraceEvent::DpMatch {
            tier: CacheTier::Micro | CacheTier::Mega,
            ..
        }
    )));
}

#[test]
fn fixed_seed_export_is_byte_identical() {
    let run = || {
        let (mut world, controller) = run_probed_world(7);
        export_jsonl(&mut world, controller)
    };
    let a = run();
    let b = run();
    println!(
        "telemetry digest fnv1a={:016x}:\n{a}",
        zen_consensus::fnv1a(a.as_bytes())
    );
    assert_eq!(a, b, "telemetry export diverged across identical runs");

    // The export carries every section.
    for needle in [
        "\"type\":\"meta\"",
        "\"type\":\"counter\"",
        "\"type\":\"histogram\"",
        "\"type\":\"controller\"",
        "\"type\":\"monitor\"",
        "\"type\":\"monitor_flow\"",
        "\"type\":\"loop_span\"",
        "\"type\":\"trace\"",
        "\"type\":\"trace_ring\"",
    ] {
        assert!(a.contains(needle), "export missing {needle}:\n{a}");
    }
    // Every line parses as a JSON object at a glance: one object per line.
    assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
}

#[test]
fn disabled_recorder_records_nothing() {
    let topo = Topology::line(2, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(42);
    let _fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_host_ip(1),
                    dst_port: 9,
                    size: 120,
                    count: 5,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(2));
    assert!(world.recorder().records().is_empty());
    assert_eq!(world.recorder().dropped(), 0);
    assert!(world.recorder().loop_profile().is_empty());
}

#[test]
fn monitor_sees_flow_cookies_through_typed_stats() {
    let (world, controller) = run_probed_world(11);
    let ctl = world.node_as::<Controller>(controller);
    let monitor = ctl.find_app::<Monitor>().expect("monitor installed");
    assert!(monitor.polls > 0);
    // The reactive app's installed path shows up as per-cookie flow
    // counters with real traffic attributed.
    let top = monitor.top_flows(10);
    assert!(!top.is_empty(), "no flow stats folded");
    assert!(top[0].1.bytes > 0);
    assert!(monitor.cache_hit_rate(0).is_some());
}
