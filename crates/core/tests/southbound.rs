//! Southbound session scoping and hostile control-channel input.
//!
//! Replies that carry xids — BARRIER_REPLY and the TABLE_FULL and
//! NOT_MASTER errors — resolve only mods the controller sent to the
//! replying switch: a second registered switch naming another switch's
//! xids must not retire them. And no byte sequence a registered switch
//! sends (bit flips, truncations, splices of valid frames) may panic
//! the controller, go uncounted, or create pending mods.

use std::collections::VecDeque;

use zen_core::apps::L2Learning;
use zen_core::{App, CbenchConfig, CbenchMode, CbenchSwitch, Controller, Ctl, CtlStats, Dpid};
use zen_dataplane::{FlowMatch, FlowSpec};
use zen_proto::{
    decode_view, encode, CookieCount, ErrorCode, FlowModCmd, Message, PortDesc, RemovedReason,
    Role, StatsBody,
};
use zen_sim::{Context, Duration, Instant, Node, NodeId, PortNo, Rng, World};
use zen_wire::builder::PacketBuilder;
use zen_wire::{EthernetAddress, Ipv4Address};

const SCRIPT_TIMER: u64 = 1;

/// A switch that completes the handshake and answers echoes but never
/// acks a barrier. Once registered it sends `script` to the controller,
/// one control delivery per `gap`.
struct Scripted {
    dpid: u64,
    controller: NodeId,
    script: VecDeque<Vec<u8>>,
    gap: Duration,
    started: bool,
}

impl Scripted {
    fn new(dpid: u64, controller: NodeId, script: Vec<Vec<u8>>, gap: Duration) -> Scripted {
        Scripted {
            dpid,
            controller,
            script: script.into(),
            gap,
            started: false,
        }
    }
}

impl Node for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let hello = Message::Hello {
            version: zen_proto::VERSION,
        };
        ctx.send_control(self.controller, encode(&hello, 0));
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortNo, _frame: &[u8]) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if let Some(frame) = self.script.pop_front() {
            ctx.send_control(self.controller, frame);
            ctx.set_timer(self.gap, SCRIPT_TIMER);
        }
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
        let mut at = 0;
        while let Ok((view, xid, used)) = decode_view(&bytes[at..]) {
            at += used;
            let reply = match view.into_message() {
                Message::FeaturesRequest => Message::FeaturesReply {
                    dpid: self.dpid,
                    n_tables: 1,
                    ports: Vec::new(),
                },
                Message::EchoRequest { token } => Message::EchoReply { token },
                _ => continue,
            };
            ctx.send_control(self.controller, encode(&reply, xid));
            if !std::mem::replace(&mut self.started, true) {
                ctx.set_timer(self.gap, SCRIPT_TIMER);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Installs `flows` flow entries on switch `dpid` the first time it
/// comes up, and nothing else, ever.
struct InstallOnce {
    dpid: Dpid,
    flows: u64,
    done: bool,
}

impl App for InstallOnce {
    fn name(&self) -> &'static str {
        "install-once"
    }

    fn on_switch_up(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
        if dpid != self.dpid || std::mem::replace(&mut self.done, true) {
            return;
        }
        for cookie in 1..=self.flows {
            let spec = FlowSpec::new(10, FlowMatch::ANY, Vec::new()).with_cookie(cookie);
            ctl.send(
                dpid,
                &Message::FlowMod {
                    table_id: 0,
                    cmd: FlowModCmd::Add(spec),
                },
            );
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Concatenated frames of `msgs`, each under its own xid.
fn frames(msgs: impl IntoIterator<Item = (Message, u32)>) -> Vec<u8> {
    msgs.into_iter()
        .flat_map(|(msg, xid)| encode(&msg, xid))
        .collect()
}

/// TABLE_FULL errors naming each of `xids` as the refused mod.
fn table_full(xids: impl Iterator<Item = u32>) -> Vec<u8> {
    frames(xids.map(|x| {
        let data = x.to_be_bytes().to_vec();
        let msg = Message::Error {
            code: ErrorCode::TableFull,
            data,
        };
        (msg, 0)
    }))
}

/// One closed-loop cbench switch under L2 learning (dpid 1) beside a
/// second registered switch (dpid 99) that sends `forged` every
/// millisecond; the controller's counters after 21 ms.
fn cbench_beside(forged: &[u8]) -> CtlStats {
    let mut world = World::new(5);
    let ctl = world.add_node(Box::new(Controller::new(vec![Box::new(L2Learning::new())])));
    let cfg = CbenchConfig {
        mode: CbenchMode::Closed { outstanding: 8 },
        sources: 64,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    world.add_node(Box::new(CbenchSwitch::new(1, ctl, cfg)));
    let script = vec![forged.to_vec(); 20];
    let gap = Duration::from_millis(1);
    world.add_node(Box::new(Scripted::new(99, ctl, script, gap)));
    world.run_until(Instant::from_millis(21));
    world.node_as::<Controller>(ctl).stats
}

#[test]
fn forged_table_full_cannot_fail_another_switchs_mods() {
    // The same number of errors, naming xids the controller never
    // allocates here, is the control run.
    let forged = cbench_beside(&table_full(1..=5_000));
    let control = cbench_beside(&table_full(0x00F0_0001..=0x00F0_1388));
    assert_eq!(forged.table_full_errors, 20 * 5_000);
    assert_eq!(control.table_full_errors, forged.table_full_errors);
    assert_eq!(control.mods_failed, 0);
    assert_eq!(
        forged.mods_failed, 0,
        "switch 99's TABLE_FULL errors failed switch 1's mods"
    );
    assert_eq!(forged.mods_acked, control.mods_acked);
    assert!(forged.mods_acked > 1_000, "the cbench loop stalled");
}

/// A mute switch (dpid 1) holding four unacked mods beside a second
/// registered switch (dpid 99) that sends `forged` once; the pending
/// count and counters after 100 ms (before any retransmit is due).
fn mute_switch_beside(forged: Vec<u8>) -> (usize, CtlStats) {
    let mut world = World::new(9);
    let app = InstallOnce {
        dpid: 1,
        flows: 4,
        done: false,
    };
    let ctl = world.add_node(Box::new(Controller::new(vec![Box::new(app)])));
    let gap = Duration::from_millis(1);
    world.add_node(Box::new(Scripted::new(1, ctl, Vec::new(), gap)));
    world.add_node(Box::new(Scripted::new(99, ctl, vec![forged], gap)));
    world.run_until(Instant::from_millis(100));
    let c = world.node_as::<Controller>(ctl);
    (c.pending_mods(), c.stats)
}

#[test]
fn forged_replies_cannot_retire_another_switchs_mods() {
    let (pending, stats) = mute_switch_beside(Vec::new());
    assert_eq!((pending, stats.mods_acked, stats.mods_failed), (4, 0, 0));

    // Barrier replies for every plausible barrier xid, each claiming
    // every plausible mod xid applied.
    let all: Vec<u32> = (1..=256).collect();
    let replies = frames(all.iter().map(|&b| {
        let msg = Message::BarrierReply {
            applied: all.clone(),
        };
        (msg, b)
    }));
    let (pending, stats) = mute_switch_beside(replies);
    assert_eq!(stats.mods_acked, 0, "a forged barrier reply acked mods");
    assert_eq!(pending, 4);

    let (pending, stats) = mute_switch_beside(table_full(1..=256));
    assert_eq!(stats.table_full_errors, 256);
    assert_eq!(stats.mods_failed, 0, "a forged TABLE_FULL failed mods");
    assert_eq!(pending, 4);
}

/// Valid switch-to-controller frames of every kind a switch sends.
fn valid_frames() -> Vec<Vec<u8>> {
    let host = PacketBuilder::udp(
        EthernetAddress::from_id(0x42),
        Ipv4Address::new(10, 0, 0, 1),
        1024,
        EthernetAddress::from_id(0x43),
        Ipv4Address::new(10, 0, 0, 2),
        53,
        &[0u8; 16],
    );
    let lldp = PacketBuilder::lldp(EthernetAddress::from_id(0x70_0002), 2, 3, 120);
    let port = PortDesc {
        port_no: 1,
        up: false,
    };
    [
        Message::Hello {
            version: zen_proto::VERSION,
        },
        Message::PacketIn {
            in_port: 1,
            table_id: 0,
            is_miss: true,
            frame: host,
        },
        Message::PacketIn {
            in_port: 2,
            table_id: 0,
            is_miss: true,
            frame: lldp,
        },
        Message::BarrierReply {
            applied: vec![1, 2, 3, 4],
        },
        Message::Error {
            code: ErrorCode::TableFull,
            data: 2u32.to_be_bytes().to_vec(),
        },
        Message::Error {
            code: ErrorCode::NotMaster,
            data: 3u32.to_be_bytes().to_vec(),
        },
        Message::EchoRequest { token: 7 },
        Message::EchoReply { token: 8 },
        Message::FeaturesReply {
            dpid: 1,
            n_tables: 1,
            ports: vec![port],
        },
        Message::PortStatus { port },
        Message::FlowRemoved {
            table_id: 0,
            priority: 10,
            cookie: 1,
            reason: RemovedReason::IdleTimeout,
            packets: 5,
            bytes: 500,
        },
        Message::StatsReply {
            body: StatsBody::Port(Vec::new()),
        },
        Message::RoleReply {
            role: Role::Equal,
            term: 1,
            replica: 2,
        },
        Message::HelloResync {
            generation: 3,
            cookies: vec![CookieCount {
                cookie: 1,
                count: 1,
            }],
        },
    ]
    .iter()
    .enumerate()
    .map(|(i, msg)| encode(msg, 5 + i as u32))
    .collect()
}

/// Seeded bit flips, truncations at every prefix, and splices of two
/// frames (a prefix of one glued to a suffix of another).
fn mutations(valid: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for frame in valid {
        for _ in 0..32 {
            let mut m = frame.clone();
            for _ in 0..=rng.gen_index(3) {
                let bit = rng.gen_index(m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
            }
            out.push(m);
        }
        out.extend((0..frame.len()).map(|n| frame[..n].to_vec()));
    }
    for _ in 0..256 {
        let a = &valid[rng.gen_index(valid.len())];
        let b = &valid[rng.gen_index(valid.len())];
        let mut m = a[..rng.gen_index(a.len() + 1)].to_vec();
        m.extend_from_slice(&b[rng.gen_index(b.len())..]);
        out.push(m);
    }
    out
}

/// Decode errors the controller must count for one delivery of
/// `bytes`: one if decoding fails anywhere except on a truncated tail
/// after at least one whole message.
fn expected_decode_errors(bytes: &[u8]) -> u64 {
    let mut at = 0;
    while at < bytes.len() {
        match decode_view(&bytes[at..]) {
            Ok((_, _, used)) => at += used,
            Err(e) if e.is_truncated() && at > 0 => return 0,
            Err(_) => return 1,
        }
    }
    0
}

#[test]
fn hostile_bytes_from_a_registered_switch_are_contained() {
    let inputs = mutations(&valid_frames(), 0x5EED);
    let expected: u64 = inputs.iter().map(|m| expected_decode_errors(m)).sum();
    assert!(expected > 100, "the mutations barely break decoding");

    let mut world = World::new(11);
    let app = InstallOnce {
        dpid: 1,
        flows: 4,
        done: false,
    };
    let ctl = world.add_node(Box::new(Controller::new(vec![Box::new(app)])));
    let gap = Duration::from_micros(20);
    let span = gap.as_nanos() * (inputs.len() as u64 + 100);
    world.add_node(Box::new(Scripted::new(1, ctl, inputs, gap)));

    // Four mods are pending once the switch is up; the switch never
    // acks them, and nothing it sends may add to them.
    let mut high = 0;
    while world.step().is_some() && world.now() < Instant::from_nanos(span) {
        let pending = world.node_as::<Controller>(ctl).pending_mods();
        assert!(pending <= 4, "hostile input grew pending mods to {pending}");
        high = high.max(pending);
    }
    assert_eq!(high, 4, "the baseline mods were never sent");
    let stats = world.node_as::<Controller>(ctl).stats;
    assert_eq!(stats.decode_errors, expected);
}
