//! E20 — consensus convergence: digest anti-entropy vs suffix resend,
//! and leader failover with intents in flight.
//!
//! Part A runs the same seeded churn scenario — an 8-switch ring whose
//! links flap while one replica is partitioned away — at 5, 7, and 9
//! controller replicas, once per gossip mode. Suffix mode rebroadcasts
//! every unacked east-west entry each tick until the ack round-trips,
//! so its volume grows with the log length times the partition span.
//! Digest mode exchanges per-origin head summaries and fetches only
//! the missing ranges, so the healed replica pulls each missed entry
//! once. Reported per configuration: east-west entries sent, digest and
//! fetch frames, snapshots, and post-heal convergence time (all
//! replicas agree on the 16-link view and the committed ACL).
//!
//! Part B staggers 20 ACL deny intents around the instant the
//! consensus leader is isolated, then checks the invariant the intent
//! log exists to provide: zero committed intents lost, every proposal
//! confirmed exactly once, and every switch carrying exactly the
//! committed rule set.
//!
//! Machine-readable output: one JSON line per configuration to
//! `BENCH_E20_OUT` (default `target/BENCH_E20.json`). If
//! `BENCH_E20_BASELINE` names a committed baseline (CI points it at
//! `ci/BENCH_E20.baseline.json`), the run fails when digest-mode
//! east-west entries at 5 replicas regress more than `BENCH_E20_PCT`%
//! (default 20) above it — lower is better, so the gate is a ceiling.
//! `BENCH_E20_QUICK=1` shrinks the replica matrix for CI smoke lanes.

use std::any::Any;

use zen_bench::gate::{Direction, Gate};
use zen_cluster::GossipMode;
use zen_core::apps::{Acl, ProactiveFabric};
use zen_core::harness::{build_cluster_fabric, build_fabric, Fabric, FabricOptions};
use zen_core::{App, Controller, Ctl, SwitchAgent};
use zen_dataplane::FlowMatch;
use zen_proto::Intent;
use zen_sim::{Duration, FaultPlan, Instant, LinkParams, Topology, Window, World};
use zen_telemetry::json::Line;

/// Fixed seed: every simulated quantity below is a pure function of it.
const SEED: u64 = 0xE20_0001;

/// Directed links in the 8-switch ring (what a converged view holds).
const RING_LINKS: usize = 16;

/// Churn window: a ring link flaps every 100 ms between these bounds
/// (20 flips, ending up), feeding the east-west log while replica 1 is
/// partitioned away.
const FLAP_FROM_MS: u64 = 1_500;
const FLAP_EVERY_MS: u64 = 100;
const FLAPS: u64 = 20;

/// Partition window for the observer replica (Part A) and the
/// consensus leader (Part B).
const CUT_AT: Instant = Instant::from_secs(2);
const HEAL_AT: Instant = Instant::from_millis(3_500);

fn deny_udp(port: u16) -> FlowMatch {
    FlowMatch::ANY.with_ip_proto(17).with_l4_dst(port)
}

/// Part B's proposer: fires `total` deny intents 30 ms apart starting
/// at t=1.8s, so the burst straddles the leader kill at t=2s.
struct BurstProposer {
    total: u64,
    fired: u64,
    confirmed: u64,
}

impl BurstProposer {
    fn new(total: u64) -> BurstProposer {
        BurstProposer {
            total,
            fired: 0,
            confirmed: 0,
        }
    }
}

impl App for BurstProposer {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        while self.fired < self.total && ctl.now() >= Instant::from_millis(1_800 + 30 * self.fired)
        {
            let port = 9_000 + self.fired as u16;
            ctl.propose_intent(
                "burst",
                Intent::AclDeny {
                    priority: 900,
                    matcher: deny_udp(port),
                    install: true,
                },
            );
            self.fired += 1;
        }
    }

    fn on_update_committed(&mut self, _ctl: &mut Ctl<'_, '_>, owner: &'static str, _token: u64) {
        if owner == "burst" {
            self.confirmed += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn topo() -> Topology {
    let mut t = Topology::ring(8, LinkParams::default());
    t.hosts = vec![0, 4];
    t
}

/// Build the ring fabric with `n` replicas. Replica 0 seeds one ACL
/// deny; replica 2 runs the burst proposer when `burst > 0`.
fn fabric(world: &mut World, n: usize, gossip: GossipMode, burst: u64) -> Fabric {
    let topo = topo();
    let inventory = {
        let mut scratch = World::new(SEED);
        build_fabric(&mut scratch, &topo, vec![], FabricOptions::default()).static_hosts()
    };
    let opts = FabricOptions {
        n_controllers: n,
        cluster_gossip: gossip,
        ..FabricOptions::default()
    };
    let expected_switches = topo.switches;
    let expected_links = 2 * topo.links.len();
    build_cluster_fabric(
        world,
        &topo,
        |i| {
            let denies = if i == 0 { vec![deny_udp(9)] } else { vec![] };
            let mut apps: Vec<Box<dyn App>> = vec![
                Box::new(Acl::new(denies)),
                Box::new(ProactiveFabric::new(
                    inventory.clone(),
                    expected_switches,
                    expected_links,
                )),
            ];
            if burst > 0 && i == 2 {
                apps.push(Box::new(BurstProposer::new(burst)));
            }
            apps
        },
        opts,
    )
}

fn committed_acl(world: &World, fabric: &Fabric, r: usize) -> Vec<FlowMatch> {
    world
        .node_as::<Controller>(fabric.controllers[r])
        .find_app::<Acl>()
        .expect("acl app present")
        .committed()
        .to_vec()
}

fn converged(world: &World, fabric: &Fabric) -> bool {
    let reference = committed_acl(world, fabric, 0);
    fabric.controllers.iter().enumerate().all(|(r, &c)| {
        world.node_as::<Controller>(c).view.links.len() == RING_LINKS
            && committed_acl(world, fabric, r) == reference
    })
}

struct ChurnOutcome {
    entries_sent: u64,
    digests_sent: u64,
    fetches_sent: u64,
    snapshots_sent: u64,
    intent_msgs: u64,
    converge_ms: Option<u64>,
}

/// Part A: flapping-ring churn with replica 1 partitioned from 2s to
/// 3.5s; convergence is timed from the heal.
fn run_churn(n: usize, gossip: GossipMode) -> ChurnOutcome {
    let mut world = World::new(SEED);
    let fabric = fabric(&mut world, n, gossip, 0);

    // Flap one ring link (PORT_STATUS both ways each flip) to feed the
    // east-west log; an even flip count leaves it up.
    let flapped = fabric.switch_links[6];
    for k in 0..FLAPS {
        world.schedule_link_state(
            flapped,
            k % 2 == 1,
            Instant::from_millis(FLAP_FROM_MS + k * FLAP_EVERY_MS),
        );
    }
    // Replica 1 misses the middle of the churn and must catch up.
    world.set_fault_plan(
        FaultPlan::default().isolate(fabric.controllers[1], Window::new(CUT_AT, HEAL_AT)),
    );

    world.run_until(HEAL_AT);
    let mut converge_ms = None;
    let mut t = HEAL_AT;
    let deadline = Instant::from_secs(8);
    while t < deadline {
        t += Duration::from_millis(5);
        world.run_until(t);
        if converged(&world, &fabric) {
            converge_ms = Some(t.duration_since(HEAL_AT).as_nanos() / 1_000_000);
            break;
        }
    }
    world.run_until(deadline);
    if !converged(&world, &fabric) {
        for (r, &c) in fabric.controllers.iter().enumerate() {
            let ctl = world.node_as::<Controller>(c);
            eprintln!(
                "replica {r}: links={} acl={} term={:?}",
                ctl.view.links.len(),
                committed_acl(&world, &fabric, r).len(),
                ctl.cluster_term(),
            );
        }
        panic!("{gossip:?} at n={n} never converged after the heal");
    }

    let sum = |f: fn(&zen_core::CtlStats) -> u64| -> u64 {
        fabric
            .controllers
            .iter()
            .map(|&c| f(&world.node_as::<Controller>(c).stats))
            .sum()
    };
    ChurnOutcome {
        entries_sent: sum(|s| s.ew_entries_sent),
        digests_sent: sum(|s| s.ew_digests_sent),
        fetches_sent: sum(|s| s.ew_fetches_sent),
        snapshots_sent: sum(|s| s.ew_snapshots_sent),
        intent_msgs: sum(|s| s.intent_msgs_sent),
        converge_ms,
    }
}

struct KillOutcome {
    proposed: u64,
    committed: Vec<usize>,
    confirmed: u64,
    rules_per_switch: Vec<usize>,
}

/// Part B: 20 intents staggered across the leader kill at n replicas.
fn run_leader_kill(n: usize, burst: u64) -> KillOutcome {
    let mut world = World::new(SEED);
    let fabric = fabric(&mut world, n, GossipMode::Digest, burst);
    // The consensus leader is the minimum live replica index: 0.
    world.set_fault_plan(
        FaultPlan::default().isolate(fabric.controllers[0], Window::new(CUT_AT, HEAL_AT)),
    );
    world.run_until(Instant::from_secs(6));

    let committed: Vec<usize> = (0..n)
        .map(|r| committed_acl(&world, &fabric, r).len())
        .collect();
    let burst_app = world
        .node_as::<Controller>(fabric.controllers[2])
        .find_app::<BurstProposer>()
        .expect("burst proposer present");
    let rules_per_switch: Vec<usize> = fabric
        .switches
        .iter()
        .map(|&sw| {
            world
                .node_as::<SwitchAgent>(sw)
                .dp
                .table(0)
                .entries()
                .filter(|e| e.spec.cookie == zen_core::apps::acl::ACL_COOKIE)
                .count()
        })
        .collect();
    KillOutcome {
        proposed: burst_app.fired,
        committed,
        confirmed: burst_app.confirmed,
        rules_per_switch,
    }
}

fn main() {
    let quick = std::env::var("BENCH_E20_QUICK").is_ok_and(|v| v == "1");
    let replica_counts: &[usize] = if quick { &[5] } else { &[5, 7, 9] };
    let mut json = String::new();

    println!("# E20 — consensus convergence: digest anti-entropy vs suffix resend");
    println!(
        "# 8-switch ring, link flapping 1.5–3.4s, replica 1 partitioned 2–3.5s{}",
        if quick { " [quick]" } else { "" }
    );
    println!();
    println!(
        "{:>3} {:>8} {:>9} {:>9} {:>8} {:>6} {:>12} {:>13}",
        "n", "mode", "entries", "digests", "fetches", "snaps", "intent msgs", "converge (ms)"
    );
    let mut gate_metric = 0.0f64;
    for &n in replica_counts {
        let mut digest_entries = 0;
        let mut suffix_entries = 0;
        for mode in [GossipMode::Suffix, GossipMode::Digest] {
            let o = run_churn(n, mode);
            let mode_name = match mode {
                GossipMode::Suffix => "suffix",
                GossipMode::Digest => "digest",
            };
            let converge = o
                .converge_ms
                .map_or("never".to_string(), |ms| ms.to_string());
            println!(
                "{:>3} {:>8} {:>9} {:>9} {:>8} {:>6} {:>12} {:>13}",
                n,
                mode_name,
                o.entries_sent,
                o.digests_sent,
                o.fetches_sent,
                o.snapshots_sent,
                o.intent_msgs,
                converge
            );
            Line::new("bench")
                .str("id", "E20")
                .str("mode", mode_name)
                .u64("replicas", n as u64)
                .u64("ew_entries_sent", o.entries_sent)
                .u64("ew_digests_sent", o.digests_sent)
                .u64("ew_fetches_sent", o.fetches_sent)
                .u64("ew_snapshots_sent", o.snapshots_sent)
                .u64("intent_msgs_sent", o.intent_msgs)
                .u64("converge_ms", o.converge_ms.unwrap_or(u64::MAX))
                .finish(&mut json);
            match mode {
                GossipMode::Suffix => suffix_entries = o.entries_sent,
                GossipMode::Digest => digest_entries = o.entries_sent,
            }
        }
        // The point of the digest exchange: each entry crosses the
        // wire once per peer that needs it, instead of once per tick
        // of the unacked window.
        assert!(
            digest_entries < suffix_entries,
            "digest gossip sent {digest_entries} entries at n={n}, suffix {suffix_entries}"
        );
        if n == 5 {
            gate_metric = digest_entries as f64;
        }
    }

    println!();
    println!("# leader killed mid-burst: 20 deny intents straddle the kill at t=2s");
    let kill = run_leader_kill(5, 20);
    let all_committed = kill
        .committed
        .iter()
        .all(|&c| c as u64 == kill.proposed + 1);
    println!(
        "# proposed={} committed per replica={:?} confirmed={} rules per switch={:?}",
        kill.proposed, kill.committed, kill.confirmed, kill.rules_per_switch
    );
    // Zero committed intents lost, exactly-once confirmation, and the
    // data plane materialized exactly the committed set (+1 for the
    // seeded deny on replica 0).
    assert!(
        all_committed,
        "intents lost across failover: {:?}",
        kill.committed
    );
    assert_eq!(
        kill.confirmed, kill.proposed,
        "confirmations not exactly-once"
    );
    assert!(
        kill.rules_per_switch
            .iter()
            .all(|&r| r as u64 == kill.proposed + 1),
        "switch rule counts diverge from the committed set: {:?}",
        kill.rules_per_switch
    );
    Line::new("bench")
        .str("id", "E20")
        .str("mode", "leader_kill")
        .u64("replicas", 5)
        .u64("proposed", kill.proposed)
        .u64("confirmed", kill.confirmed)
        .u64("lost", 0)
        .finish(&mut json);

    Line::new("bench_summary")
        .str("id", "E20")
        .bool("quick", quick)
        .f64("digest_entries_sent_n5", gate_metric)
        .finish(&mut json);

    // cargo runs bench binaries with CWD = the package dir; anchor the
    // default output at the workspace target dir so CI finds it.
    let out_path = std::env::var("BENCH_E20_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_E20.json").to_string()
    });
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_E20.json");
    println!();
    println!("# wrote {out_path}");

    // Perf-regression gate: east-west volume is a cost, so the gate is
    // a ceiling over the committed baseline.
    Gate {
        id: "E20",
        key: "digest_entries_sent_n5",
        direction: Direction::Ceiling,
        what: "digest-mode east-west volume",
        label: "digest entries ",
        unit: "",
        base_unit: "",
        decimals: 0,
    }
    .check(gate_metric);

    println!();
    println!("# Shape check: suffix resend volume scales with log length × unacked");
    println!("# window × peers, so it grows sharply with replica count; digest mode");
    println!("# pushes each entry once per peer and heals the partition with ranged");
    println!("# fetches, keeping volume near the log length itself. Both modes reach");
    println!("# the same converged view and committed ACL; digest just pays less.");
}
