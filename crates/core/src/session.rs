//! One switch's southbound session: the controller's per-switch
//! control-channel state, owned in one place.
//!
//! A [`SouthboundSession`] holds everything the controller tracks about
//! one switch: the node that speaks for it, when it was last heard, the
//! flow/group/meter mods awaiting a barrier ack, the barriers covering
//! them, the cookie shadow those acks build, and the throttles of the
//! resync and port-refresh handshakes. It is a pure state machine: it
//! never sends, and the controller turns what its methods return into
//! wire traffic. Every xid it resolves is therefore one this switch was
//! sent — a reply from one switch can never retire another's mods.

use std::collections::BTreeMap;

use zen_proto::{encode, CookieCount, FlowModCmd, Message};
use zen_sim::{Duration, Instant, NodeId};

/// What an acked mod does to the cookie shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowDelta {
    /// Group and meter mods, strict deletes: the shadow is unchanged.
    None,
    /// A flow add: one more entry under the cookie.
    Add(u64),
    /// A delete-by-cookie: every entry under the cookie is gone.
    Clear(u64),
}

impl ShadowDelta {
    /// The shadow effect of `msg` once the switch confirms it.
    ///
    /// The shadow is an approximation — strict deletes and replacing
    /// adds can drift it — but drift only ever causes a *dirty* resync
    /// verdict, which reprograms the switch: safe, merely less frugal.
    pub(crate) fn of(msg: &Message) -> ShadowDelta {
        match msg {
            Message::FlowMod {
                cmd: FlowModCmd::Add(spec),
                ..
            } => ShadowDelta::Add(spec.cookie),
            Message::FlowMod {
                cmd: FlowModCmd::DeleteByCookie { cookie },
                ..
            } => ShadowDelta::Clear(*cookie),
            _ => ShadowDelta::None,
        }
    }
}

/// A mod awaiting barrier acknowledgement: only what is read back.
struct PendingMod {
    /// The encoded frame (original xid), resent verbatim on timeout.
    bytes: Vec<u8>,
    /// Folded into the shadow once acked.
    delta: ShadowDelta,
    sent_at: Instant,
    retries: u32,
}

/// The controller's state for one switch's control channel.
pub(crate) struct SouthboundSession {
    /// The switch's control-channel node. `None` while the session only
    /// holds a shadow replicated by a peer replica, before this
    /// replica's own handshake with the switch completed.
    pub(crate) node: Option<NodeId>,
    /// Last time anything was heard from the switch.
    pub(crate) last_heard: Instant,
    /// Unacked mods keyed by xid.
    pending: BTreeMap<u32, PendingMod>,
    /// Outstanding barriers: barrier xid → covered mod xids.
    barriers: BTreeMap<u32, Vec<u32>>,
    /// Mods went out since the last barrier.
    dirty: bool,
    /// What we believe the switch has installed: cookie → entry count,
    /// maintained from barrier-acked mods and FLOW_REMOVED notices, and
    /// diffed against HELLO_RESYNC digests on reconnect.
    shadow: BTreeMap<u64, u32>,
    /// Throttle: last RESYNC_REQUEST sent while quarantined.
    resync_requested: Option<Instant>,
    /// The next FEATURES_REPLY is a port-map refresh (sent after
    /// takeovers and healed partitions), not a new handshake.
    pub(crate) port_refresh: bool,
    /// Latest generation the agent reported in HELLO_RESYNC.
    pub(crate) generation: Option<u64>,
}

impl SouthboundSession {
    /// A session for `node` (or a detached one), heard from at `now`.
    pub(crate) fn new(node: Option<NodeId>, now: Instant) -> SouthboundSession {
        SouthboundSession {
            node,
            last_heard: now,
            pending: BTreeMap::new(),
            barriers: BTreeMap::new(),
            dirty: false,
            shadow: BTreeMap::new(),
            resync_requested: None,
            port_refresh: false,
            generation: None,
        }
    }

    /// Mods sent but not yet acked.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Track a mod sent as `bytes` under `xid` until a barrier acks it.
    pub(crate) fn track(&mut self, xid: u32, bytes: Vec<u8>, delta: ShadowDelta, now: Instant) {
        self.pending.insert(
            xid,
            PendingMod {
                bytes,
                delta,
                sent_at: now,
                retries: 0,
            },
        );
        self.dirty = true;
    }

    /// If mods went out since the last flush, fence them: allocate a
    /// barrier xid from `next_xid` and return the BARRIER_REQUEST
    /// covering every still-unacked mod. Its reply proves everything
    /// before it was applied.
    pub(crate) fn flush_barrier(&mut self, next_xid: &mut u32) -> Option<Vec<u8>> {
        if !std::mem::take(&mut self.dirty) || self.pending.is_empty() {
            return None;
        }
        let covered: Vec<u32> = self.pending.keys().copied().collect();
        let xid = *next_xid;
        *next_xid += 1;
        let bytes = encode(
            &Message::BarrierRequest {
                xids: covered.clone(),
            },
            xid,
        );
        self.barriers.insert(xid, covered);
        Some(bytes)
    }

    /// Retire the mods barrier `xid` covered that the switch reports
    /// `applied`, folding them into the shadow, and return their xids.
    ///
    /// Only an in-order prefix retires. Mods apply in transmission
    /// order, so if an earlier mod is still in flight (say a lost
    /// cookie-delete), a later already-applied mod must stay pending:
    /// the retransmit path then replays it *after* the missing one.
    /// Retiring it here would let the delete land last and silently
    /// wipe state the shadow believes installed.
    pub(crate) fn on_barrier_reply(&mut self, xid: u32, applied: &[u32]) -> Vec<u32> {
        let mut acked = Vec::new();
        for mx in self.barriers.remove(&xid).unwrap_or_default() {
            if !applied.contains(&mx) {
                if self.pending.contains_key(&mx) {
                    // Gap: everything after `mx` replays behind it.
                    break;
                }
                // Resolved elsewhere (failed, superseded, bounced).
                continue;
            }
            if let Some(p) = self.pending.remove(&mx) {
                match p.delta {
                    ShadowDelta::None => {}
                    ShadowDelta::Add(cookie) => *self.shadow.entry(cookie).or_insert(0) += 1,
                    ShadowDelta::Clear(cookie) => {
                        self.shadow.remove(&cookie);
                    }
                }
                acked.push(mx);
            }
        }
        acked
    }

    /// Drop every pending mod (a resync or a mastership change made
    /// them moot) and return their xids in ascending order.
    pub(crate) fn supersede_all(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.pending).into_keys().collect()
    }

    /// Retire one pending mod the switch refused; false if `xid` is not
    /// pending here.
    pub(crate) fn retire(&mut self, xid: u32) -> bool {
        self.pending.remove(&xid).is_some()
    }

    /// Sort out mods unacked for `timeout`: those out of retries are
    /// removed and returned first, the rest are returned second for
    /// [`SouthboundSession::resend`]. Both lists ascend by xid.
    pub(crate) fn overdue(
        &mut self,
        now: Instant,
        timeout: Duration,
        max_retries: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut failed = Vec::new();
        let mut resend = Vec::new();
        for (&xid, p) in &self.pending {
            if now.duration_since(p.sent_at) < timeout {
                continue;
            }
            if p.retries >= max_retries {
                failed.push(xid);
            } else {
                resend.push(xid);
            }
        }
        for xid in &failed {
            self.pending.remove(xid);
        }
        (failed, resend)
    }

    /// Count a retransmission of pending mod `xid` and return its frame;
    /// the session needs a fresh barrier behind it.
    pub(crate) fn resend(&mut self, xid: u32, now: Instant) -> Option<Vec<u8>> {
        let p = self.pending.get_mut(&xid)?;
        p.retries += 1;
        p.sent_at = now;
        self.dirty = true;
        Some(p.bytes.clone())
    }

    /// Forget barriers whose covered mods are all resolved; a reply to
    /// one would find nothing to ack anyway.
    pub(crate) fn drop_dead_barriers(&mut self) {
        let pending = &self.pending;
        self.barriers
            .retain(|_, xids| xids.iter().any(|x| pending.contains_key(x)));
    }

    /// Barriers still awaiting a reply.
    #[cfg(test)]
    fn barriers_len(&self) -> usize {
        self.barriers.len()
    }

    /// The cookie shadow.
    pub(crate) fn shadow(&self) -> &BTreeMap<u64, u32> {
        &self.shadow
    }

    /// The cookie shadow in wire form.
    pub(crate) fn shadow_cookies(&self) -> Vec<CookieCount> {
        self.shadow
            .iter()
            .map(|(&cookie, &count)| CookieCount { cookie, count })
            .collect()
    }

    /// Replace the shadow wholesale (a resync digest or a peer's copy).
    pub(crate) fn set_shadow(&mut self, shadow: BTreeMap<u64, u32>) {
        self.shadow = shadow;
    }

    /// One entry under `cookie` expired or was evicted; false if the
    /// shadow held none.
    pub(crate) fn note_removed(&mut self, cookie: u64) -> bool {
        let Some(count) = self.shadow.get_mut(&cookie) else {
            return false;
        };
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.shadow.remove(&cookie);
        }
        true
    }

    /// Whether a quarantined switch that spoke up is due another
    /// RESYNC_REQUEST (at most one per `interval`); records the send.
    pub(crate) fn resync_due(&mut self, now: Instant, interval: Duration) -> bool {
        if self
            .resync_requested
            .is_some_and(|last| now.duration_since(last) < interval)
        {
            return false;
        }
        self.resync_requested = Some(now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_dataplane::{FlowMatch, FlowSpec};

    const T0: Instant = Instant::ZERO;
    const TIMEOUT: Duration = Duration::from_millis(150);

    fn session() -> SouthboundSession {
        SouthboundSession::new(Some(NodeId(1)), T0)
    }

    fn add(cookie: u64) -> Message {
        Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::Add(FlowSpec::new(1, FlowMatch::ANY, Vec::new()).with_cookie(cookie)),
        }
    }

    fn delete(cookie: u64) -> Message {
        Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::DeleteByCookie { cookie },
        }
    }

    /// Send `msg` as `xid` through the session, the way `Ctl::send` does.
    fn send(s: &mut SouthboundSession, xid: u32, msg: &Message, now: Instant) {
        s.track(xid, encode(msg, xid), ShadowDelta::of(msg), now);
    }

    /// Flush and return the barrier's xid (the counter is bumped).
    fn flush(s: &mut SouthboundSession, next: &mut u32) -> u32 {
        let xid = *next;
        assert!(s.flush_barrier(next).is_some(), "nothing to fence");
        xid
    }

    #[test]
    fn shadow_delta_follows_add_and_delete_by_cookie() {
        assert_eq!(ShadowDelta::of(&add(7)), ShadowDelta::Add(7));
        assert_eq!(ShadowDelta::of(&delete(7)), ShadowDelta::Clear(7));
        assert_eq!(
            ShadowDelta::of(&Message::BarrierRequest { xids: Vec::new() }),
            ShadowDelta::None
        );

        let mut s = session();
        let mut next = 100;
        for (xid, msg) in [(1, add(7)), (2, add(7)), (3, add(9))] {
            send(&mut s, xid, &msg, T0);
        }
        let b = flush(&mut s, &mut next);
        assert_eq!(s.on_barrier_reply(b, &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(s.shadow(), &BTreeMap::from([(7, 2), (9, 1)]));

        send(&mut s, 4, &delete(7), T0);
        let b = flush(&mut s, &mut next);
        assert_eq!(s.on_barrier_reply(b, &[4]), vec![4]);
        assert_eq!(s.shadow(), &BTreeMap::from([(9, 1)]));
        assert_eq!(
            s.shadow_cookies(),
            vec![CookieCount {
                cookie: 9,
                count: 1
            }]
        );
        assert!(s.note_removed(9));
        assert!(!s.note_removed(9), "the shadow held one entry");
        assert!(s.shadow().is_empty());
    }

    #[test]
    fn flush_fences_only_after_new_mods() {
        let mut s = session();
        let mut next = 100;
        assert!(s.flush_barrier(&mut next).is_none(), "clean session");
        send(&mut s, 1, &add(7), T0);
        send(&mut s, 2, &add(8), T0);
        assert_eq!(flush(&mut s, &mut next), 100);
        assert_eq!(next, 101);
        assert!(s.flush_barrier(&mut next).is_none(), "already fenced");
        // A later mod's barrier re-covers the still-unacked earlier ones.
        send(&mut s, 3, &add(9), T0);
        let frame = s.flush_barrier(&mut next).expect("dirty again");
        assert_eq!(
            frame,
            encode(
                &Message::BarrierRequest {
                    xids: vec![1, 2, 3]
                },
                101
            )
        );
        assert_eq!(s.barriers_len(), 2);
    }

    #[test]
    fn prefix_ack_stops_at_a_still_pending_gap() {
        let mut s = session();
        let mut next = 100;
        for (xid, msg) in [(1, delete(5)), (2, add(5)), (3, add(6))] {
            send(&mut s, xid, &msg, T0);
        }
        let b = flush(&mut s, &mut next);
        // The delete (1) was lost; 2 and 3 applied but must replay
        // behind it, so nothing retires and the shadow is untouched.
        assert_eq!(s.on_barrier_reply(b, &[2, 3]), Vec::<u32>::new());
        assert_eq!(s.pending_len(), 3);
        assert!(s.shadow().is_empty());
        // A duplicate reply to the consumed barrier acks nothing.
        assert_eq!(s.on_barrier_reply(b, &[1, 2, 3]), Vec::<u32>::new());
    }

    #[test]
    fn acks_skip_xids_resolved_elsewhere() {
        let mut s = session();
        let mut next = 100;
        for xid in 1..=3 {
            send(&mut s, xid, &add(xid as u64), T0);
        }
        let b = flush(&mut s, &mut next);
        // Mod 1 was bounced (TABLE_FULL) before the reply: not a gap.
        assert!(s.retire(1));
        assert!(!s.retire(1));
        assert_eq!(s.on_barrier_reply(b, &[2, 3]), vec![2, 3]);
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.shadow(), &BTreeMap::from([(2, 1), (3, 1)]));
    }

    #[test]
    fn retransmit_budget_ends_in_failure() {
        let mut s = session();
        let mut next = 100;
        send(&mut s, 1, &add(7), T0);
        flush(&mut s, &mut next);
        let early = Instant::from_millis(100);
        assert_eq!(s.overdue(early, TIMEOUT, 2), (vec![], vec![]));
        let mut now = T0;
        for round in 1..=2 {
            now += TIMEOUT;
            assert_eq!(
                s.overdue(now, TIMEOUT, 2),
                (vec![], vec![1]),
                "round {round}"
            );
            assert_eq!(s.resend(1, now), Some(encode(&add(7), 1)));
            // The resend needs a barrier of its own.
            assert!(s.flush_barrier(&mut next).is_some());
        }
        now += TIMEOUT;
        assert_eq!(s.overdue(now, TIMEOUT, 2), (vec![1], vec![]));
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.resend(1, now), None);
    }

    #[test]
    fn supersede_all_drops_every_pending_mod() {
        let mut s = session();
        let mut next = 100;
        for xid in [4, 2, 9] {
            send(&mut s, xid, &add(1), T0);
        }
        let b = flush(&mut s, &mut next);
        assert_eq!(s.supersede_all(), vec![2, 4, 9]);
        assert_eq!(s.pending_len(), 0);
        assert!(s.supersede_all().is_empty());
        // The late reply finds nothing to ack.
        assert_eq!(s.on_barrier_reply(b, &[2, 4, 9]), Vec::<u32>::new());
        assert!(s.shadow().is_empty());
    }

    #[test]
    fn dead_barriers_are_dropped() {
        let mut s = session();
        let mut next = 100;
        send(&mut s, 1, &add(1), T0);
        flush(&mut s, &mut next);
        send(&mut s, 2, &add(2), T0);
        flush(&mut s, &mut next);
        assert_eq!(s.barriers_len(), 2);
        // Mod 1 resolves elsewhere: the first barrier covered only it.
        assert!(s.retire(1));
        s.drop_dead_barriers();
        assert_eq!(s.barriers_len(), 1, "the second still covers mod 2");
        s.supersede_all();
        s.drop_dead_barriers();
        assert_eq!(s.barriers_len(), 0);
    }

    #[test]
    fn resync_requests_are_throttled() {
        let mut s = session();
        let tick = Duration::from_millis(50);
        assert!(s.resync_due(T0, tick));
        assert!(!s.resync_due(Instant::from_millis(49), tick));
        assert!(s.resync_due(Instant::from_millis(50), tick));
    }
}
