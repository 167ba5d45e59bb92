//! Heartbeat failure detection: the per-peer liveness service.
//!
//! The reliability layer (PR 3) only discovers a dead peer *reactively* —
//! a sender burns its whole retry budget against silence before
//! `peer_unreachable` flips. ULFM-style recovery needs something stronger:
//! every rank must notice a failure even when it has nothing to send, and
//! a transient outage (a flapping link) must not be confused with death.
//! This module is that detector: a per-peer health state machine
//!
//! ```text
//! Alive ──(quiet > suspect_after)──▶ Suspect ──(quiet > dead_after)──▶ Dead
//!   ▲                                  │
//!   └────────(any packet heard)────────┘        (Dead is sticky)
//! ```
//!
//! driven by two inputs: *piggybacked liveness* (every packet delivered
//! from a peer proves it alive — no extra traffic on a busy link) and
//! *explicit probes* ([`PacketBody::Probe`]) issued when a link has been
//! idle longer than `probe_interval_us`. Probes travel on VCI 0 beside
//! the AM channel, outside the reliability sequence space (a lost probe is
//! simply re-issued next interval), and pass through the fault layer like
//! any other packet — so the kill switch and [`FaultPlan`] chaos plans
//! exercise the detector deterministically.
//!
//! Like the reliability state machines, the monitor is *pure*: time enters
//! only as a `now_us` argument, so every transition is unit-testable and
//! replayable. The endpoint wires it to the clock and the wire.
//!
//! [`PacketBody::Probe`]: crate::reliability::PacketBody::Probe
//! [`FaultPlan`]: crate::fault::FaultPlan

/// Configuration of the failure detector, carried by value in
/// [`ProviderProfile`](crate::cost::ProviderProfile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Run the detector. When `false` (the default) no probe is ever sent,
    /// no state is kept, and every health query answers `Alive` — the
    /// fault-free fast path stays byte- and charge-identical.
    pub enabled: bool,
    /// Probe a peer after this many µs without hearing from it.
    pub probe_interval_us: u64,
    /// Quiet time (µs) after which a peer is demoted `Alive → Suspect`.
    pub suspect_after_us: u64,
    /// Quiet time (µs) after which a suspect peer is declared `Dead`.
    /// Dead is sticky: recovery APIs (shrink) exclude the peer for good.
    pub dead_after_us: u64,
    /// Size of the observation ring: each rank permanently watches its
    /// `ring_k` successors (mod n) even when it never exchanges data with
    /// them. Beyond the ring, only peers with live links are tracked —
    /// never all N — so detector state and probe traffic are O(active + k)
    /// while every rank is still observed by `ring_k` predecessors (any
    /// death is detected *somewhere* and propagated by the ULFM revoke
    /// flood / agreement dead-mask merge, not by all-pairs probing).
    pub ring_k: usize,
}

impl HealthConfig {
    /// Detector off — the default for every provider profile.
    pub const OFF: HealthConfig = HealthConfig {
        enabled: false,
        probe_interval_us: 500,
        suspect_after_us: 2_000,
        dead_after_us: 10_000,
        ring_k: 2,
    };

    /// Detector on with default timing (probe after 500 µs idle, suspect
    /// after 2 ms, dead after 10 ms).
    pub const fn on() -> HealthConfig {
        HealthConfig {
            enabled: true,
            probe_interval_us: 500,
            suspect_after_us: 2_000,
            dead_after_us: 10_000,
            ring_k: 2,
        }
    }

    /// Copy of this config with the three timing thresholds replaced.
    pub const fn with_timing(
        mut self,
        probe_interval_us: u64,
        suspect_after_us: u64,
        dead_after_us: u64,
    ) -> HealthConfig {
        self.probe_interval_us = probe_interval_us;
        self.suspect_after_us = suspect_after_us;
        self.dead_after_us = dead_after_us;
        self
    }

    /// Copy of this config with the observation-ring width replaced
    /// (`0` = watch only peers with live links).
    pub const fn with_ring(mut self, ring_k: usize) -> HealthConfig {
        self.ring_k = ring_k;
        self
    }
}

/// One peer's liveness as judged by the local detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Heard from recently (or never judged — the initial state).
    Alive,
    /// Quiet past `suspect_after_us`; probes are in flight. Recoverable.
    Suspect,
    /// Quiet past `dead_after_us`. Sticky: the peer stays dead even if a
    /// stale packet later arrives (matching ULFM's "failures are
    /// permanent" model — a resurrected rank must be excluded anyway).
    Dead,
}

/// What one [`HealthMonitor::tick`] decided must happen, returned to the
/// endpoint (the monitor itself never touches the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Send a liveness probe to this peer (carrying the given nonce).
    Probe {
        /// Index of the peer to probe.
        peer: usize,
        /// Nonce the probe carries (replies echo it).
        nonce: u64,
    },
    /// The peer just crossed `Alive → Suspect`.
    Suspected(usize),
    /// The peer just crossed `Suspect → Dead`.
    Died(usize),
}

/// Liveness bookkeeping for one *tracked* peer (ring member or live link).
#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    /// Fabric time the peer was last heard from.
    last_heard: u64,
    /// Fabric time the peer was last probed (throttles probe traffic).
    last_probe: u64,
    state: HealthState,
}

impl PeerHealth {
    /// Tracked from `now` on, initially `Alive`.
    fn new(now_us: u64) -> PeerHealth {
        PeerHealth {
            last_heard: now_us,
            last_probe: 0,
            state: HealthState::Alive,
        }
    }
}

/// The per-endpoint failure detector: last-heard bookkeeping plus the
/// three-state machine. Pure (time is a parameter).
///
/// State is sparse: only the `ring_k` observation-ring successors plus
/// peers actually heard from (live links) are tracked, so a 4096-rank
/// fabric costs each detector O(active + k) entries and probes per tick,
/// not O(ranks). Untracked peers answer `Alive` — the same judgment the
/// dense detector gave a peer it had never found quiet.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    /// Tracked peers, keyed by index (`BTreeMap` for deterministic
    /// ascending iteration, matching the dense sweep this replaces).
    peers: std::collections::BTreeMap<usize, PeerHealth>,
    /// Monotonic probe nonce (diagnostic; replies echo it).
    next_nonce: u64,
    /// Index of the monitoring endpoint (never probes itself).
    me: usize,
    /// Fabric size (bounds-checks external peer indices).
    n: usize,
}

impl HealthMonitor {
    /// Build the monitor for the endpoint at index `me` on a fabric of `n`
    /// endpoints. Only the observation ring — `me+1 ..= me+ring_k` mod `n`
    /// — is tracked eagerly (initially `Alive` as of time 0); data traffic
    /// adds peers as it arrives. When the config is disabled nothing is
    /// tracked at all.
    pub fn new(cfg: HealthConfig, me: usize, n: usize) -> HealthMonitor {
        let mut peers = std::collections::BTreeMap::new();
        if cfg.enabled && n > 1 {
            for i in 1..=cfg.ring_k.min(n - 1) {
                let peer = (me + i) % n;
                if peer != me {
                    peers.insert(peer, PeerHealth::new(0));
                }
            }
        }
        HealthMonitor {
            cfg,
            peers,
            next_nonce: 1,
            me,
            n,
        }
    }

    /// A packet from `peer` was delivered: refresh its liveness (tracking
    /// the peer from now on — a heard-from peer is a live link). Returns
    /// `true` when this recovers the peer from `Suspect` (the flap-healed
    /// transition); `Dead` peers stay dead.
    pub fn note_alive(&mut self, peer: usize, now_us: u64) -> bool {
        if !self.cfg.enabled || peer >= self.n || peer == self.me {
            return false;
        }
        let p = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerHealth::new(now_us));
        p.last_heard = now_us;
        if p.state == HealthState::Suspect {
            p.state = HealthState::Alive;
            return true;
        }
        false
    }

    /// Force a peer straight to `Dead` (the reliability layer's retry
    /// exhaustion, the fabric kill switch, and revoke-flood notices naming
    /// the peer are authoritative evidence — no need to wait out the
    /// quiet-time thresholds, and no need for the peer to have been
    /// tracked before). Returns `true` on an actual transition.
    pub fn declare_dead(&mut self, peer: usize) -> bool {
        if !self.cfg.enabled || peer >= self.n || peer == self.me {
            return false;
        }
        let p = self.peers.entry(peer).or_insert_with(|| PeerHealth::new(0));
        if p.state == HealthState::Dead {
            return false;
        }
        p.state = HealthState::Dead;
        true
    }

    /// The local judgment of `peer`. Always `Alive` when disabled or
    /// untracked (no evidence is good evidence).
    pub fn state_of(&self, peer: usize) -> HealthState {
        self.peers
            .get(&peer)
            .map(|p| p.state)
            .unwrap_or(HealthState::Alive)
    }

    /// Number of peers currently tracked — O(active links + ring_k), the
    /// quantity the 1024-rank scale test pins.
    pub fn tracked_peers(&self) -> usize {
        self.peers.len()
    }

    /// The earliest fabric time at which [`Self::tick`] has something to
    /// do — a probe or a verdict falls due — or `None` when it never will
    /// without traffic (disabled, or every tracked peer dead).
    pub fn next_deadline(&self) -> Option<u64> {
        if !self.cfg.enabled {
            return None;
        }
        (self.peers.iter())
            .filter(|(&peer, p)| peer != self.me && p.state != HealthState::Dead)
            .map(|(_, p)| {
                let verdict = match p.state {
                    HealthState::Alive => self.cfg.suspect_after_us,
                    _ => self.cfg.dead_after_us,
                };
                let probe = p.last_heard.max(p.last_probe) + self.cfg.probe_interval_us;
                (p.last_heard + verdict).min(probe) + 1
            })
            .min()
    }

    /// Advance the detector: demote tracked peers that have been quiet too
    /// long and emit probes for idle links. The caller transmits the
    /// probes and records/traces the transitions. O(tracked), never
    /// O(ranks).
    pub fn tick(&mut self, now_us: u64) -> Vec<HealthAction> {
        let mut actions = Vec::new();
        if !self.cfg.enabled {
            return actions;
        }
        for (&peer, p) in self.peers.iter_mut() {
            if peer == self.me {
                continue;
            }
            let quiet = now_us.saturating_sub(p.last_heard);
            match p.state {
                HealthState::Alive if quiet > self.cfg.suspect_after_us => {
                    p.state = HealthState::Suspect;
                    actions.push(HealthAction::Suspected(peer));
                }
                HealthState::Suspect if quiet > self.cfg.dead_after_us => {
                    p.state = HealthState::Dead;
                    actions.push(HealthAction::Died(peer));
                    continue; // no probes at a corpse
                }
                HealthState::Dead => continue,
                _ => {}
            }
            // Idle-link probing: quiet past the interval and not probed
            // within the interval either (throttle).
            if quiet > self.cfg.probe_interval_us
                && now_us.saturating_sub(p.last_probe) > self.cfg.probe_interval_us
            {
                p.last_probe = now_us;
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                actions.push(HealthAction::Probe { peer, nonce });
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::on().with_timing(100, 500, 1_000)
    }

    #[test]
    fn disabled_monitor_is_inert() {
        let mut m = HealthMonitor::new(HealthConfig::OFF, 0, 4);
        assert!(m.tick(1_000_000).is_empty());
        assert_eq!(m.state_of(3), HealthState::Alive);
        assert!(!m.note_alive(3, 5));
        assert!(!m.declare_dead(3));
    }

    #[test]
    fn quiet_peer_walks_alive_suspect_dead() {
        let mut m = HealthMonitor::new(cfg(), 0, 2);
        assert_eq!(m.state_of(1), HealthState::Alive);
        // Within the suspect threshold: only probes fire.
        let acts = m.tick(400);
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], HealthAction::Probe { peer: 1, .. }));
        // Past it: demoted once (idempotent transition).
        let acts = m.tick(600);
        assert!(acts.contains(&HealthAction::Suspected(1)));
        assert_eq!(m.state_of(1), HealthState::Suspect);
        assert!(!m.tick(700).contains(&HealthAction::Suspected(1)));
        // Past the dead threshold: died, and no more probes.
        let acts = m.tick(1_100);
        assert_eq!(acts, vec![HealthAction::Died(1)]);
        assert_eq!(m.state_of(1), HealthState::Dead);
        assert!(m.tick(2_000).is_empty());
    }

    #[test]
    fn traffic_recovers_a_suspect_but_not_a_corpse() {
        let mut m = HealthMonitor::new(cfg(), 0, 2);
        m.tick(600);
        assert_eq!(m.state_of(1), HealthState::Suspect);
        // The flap heals: a delivered packet recovers the peer.
        assert!(m.note_alive(1, 650), "suspect -> alive must be reported");
        assert_eq!(m.state_of(1), HealthState::Alive);
        // Fresh liveness resets the quiet clock: no demotion at 700.
        assert!(m.tick(700).is_empty());

        // Dead is sticky: late packets do not resurrect.
        m.tick(1_200);
        m.tick(1_700);
        assert_eq!(m.state_of(1), HealthState::Dead);
        assert!(!m.note_alive(1, 1_800));
        assert_eq!(m.state_of(1), HealthState::Dead);
    }

    #[test]
    fn the_next_deadline_is_the_first_tick_that_acts() {
        let mut m = HealthMonitor::new(cfg(), 0, 3);
        m.note_alive(1, 1_000);
        m.note_alive(2, 1_000);
        let due = m.next_deadline().expect("tracked peers");
        assert!(m.tick(due - 1).is_empty(), "nothing before the deadline");
        assert!(!m.tick(due).is_empty(), "something at it");
        assert_eq!(
            HealthMonitor::new(HealthConfig::OFF, 0, 3).next_deadline(),
            None
        );
    }

    #[test]
    fn probes_are_throttled_to_the_interval() {
        let mut m = HealthMonitor::new(cfg(), 0, 2);
        let probes = |acts: &[HealthAction]| {
            acts.iter()
                .filter(|a| matches!(a, HealthAction::Probe { .. }))
                .count()
        };
        assert_eq!(probes(&m.tick(150)), 1);
        assert_eq!(probes(&m.tick(200)), 0, "throttled inside the interval");
        assert_eq!(probes(&m.tick(300)), 1, "re-probes after the interval");
    }

    #[test]
    fn declare_dead_is_immediate_and_once() {
        let mut m = HealthMonitor::new(cfg(), 0, 3);
        assert!(m.declare_dead(2));
        assert_eq!(m.state_of(2), HealthState::Dead);
        assert!(!m.declare_dead(2), "second declaration is a no-op");
        // Other peers unaffected.
        assert_eq!(m.state_of(1), HealthState::Alive);
    }

    #[test]
    fn monitor_never_probes_itself() {
        let mut m = HealthMonitor::new(cfg(), 1, 2);
        let acts = m.tick(10_000);
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HealthAction::Probe { peer: 1, .. })));
        assert_eq!(m.state_of(1), HealthState::Alive, "self never dies");
    }

    #[test]
    fn probe_nonces_are_unique() {
        let mut m = HealthMonitor::new(cfg().with_ring(3), 0, 4);
        let mut nonces = Vec::new();
        for a in m.tick(150) {
            if let HealthAction::Probe { nonce, .. } = a {
                nonces.push(nonce);
            }
        }
        let mut uniq = nonces.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), nonces.len());
        assert_eq!(nonces.len(), 3, "one probe per tracked peer");
    }

    /// Detector state is O(ring + active links), never O(ranks): on a
    /// notionally huge fabric only the ring successors are tracked until
    /// traffic arrives, and a tick probes only tracked peers.
    #[test]
    fn tracking_is_ring_plus_active_links_not_all_pairs() {
        let mut m = HealthMonitor::new(cfg(), 10, 100_000);
        assert_eq!(m.tracked_peers(), 2, "ring_k successors only");
        assert_eq!(m.state_of(11), HealthState::Alive);
        assert_eq!(m.state_of(12), HealthState::Alive);
        // An untracked peer answers Alive without allocating anything.
        assert_eq!(m.state_of(77_777), HealthState::Alive);
        assert_eq!(m.tracked_peers(), 2);
        // Probe traffic per tick is O(tracked).
        let probes = m
            .tick(150)
            .iter()
            .filter(|a| matches!(a, HealthAction::Probe { .. }))
            .count();
        assert_eq!(probes, 2, "only ring members probed");
        // Hearing from a peer makes it a live link: tracked from then on.
        m.note_alive(500, 350);
        assert_eq!(m.tracked_peers(), 3);
        let probed: Vec<usize> = m
            .tick(400)
            .iter()
            .filter_map(|a| match a {
                HealthAction::Probe { peer, .. } => Some(*peer),
                _ => None,
            })
            .collect();
        assert_eq!(probed, vec![11, 12], "peer 500 heard recently: no probe");
    }

    /// The ring wraps modulo n and never includes the monitor itself, so
    /// every rank is observed by exactly `min(ring_k, n-1)` predecessors.
    #[test]
    fn ring_wraps_and_excludes_self() {
        let m = HealthMonitor::new(cfg(), 3, 4);
        assert_eq!(m.tracked_peers(), 2, "peers 0 and 1 via wraparound");
        assert_eq!(m.state_of(3), HealthState::Alive);
        let m = HealthMonitor::new(cfg().with_ring(10), 0, 3);
        assert_eq!(m.tracked_peers(), 2, "ring clamps to n-1");
        let m = HealthMonitor::new(cfg(), 0, 1);
        assert_eq!(m.tracked_peers(), 0, "alone on the fabric");
    }

    /// The 1024-rank probe pin: with a 2-neighbour traffic pattern the
    /// detector tracks ring + active links (4 or 5 peers, depending on
    /// ring/link overlap) and a tick emits at most that many probes —
    /// the old all-pairs detector would have probed 1023.
    #[test]
    fn probe_traffic_at_1024_ranks_is_pinned_to_the_active_set() {
        let n = 1024;
        for me in [0usize, 511, 1023] {
            let mut m = HealthMonitor::new(cfg(), me, n);
            assert_eq!(m.tracked_peers(), 2, "ring successors only at start");
            // Nearest-neighbour exchange: hear from me-1 and me+1.
            m.note_alive((me + 1) % n, 10);
            m.note_alive((me + n - 1) % n, 10);
            let tracked = m.tracked_peers();
            assert!(
                (3..=4).contains(&tracked),
                "me={me}: tracked {tracked}, want ring(2) + neighbours with overlap"
            );
            let probes = m
                .tick(150)
                .iter()
                .filter(|a| matches!(a, HealthAction::Probe { .. }))
                .count();
            assert!(
                probes <= tracked,
                "me={me}: {probes} probes for {tracked} tracked peers"
            );
            assert!(
                probes < 16,
                "me={me}: probe fan-out must be O(active), got {probes}"
            );
        }
    }

    /// External failure evidence (revoke notices, agreed dead sets) lands
    /// even for peers the detector was not tracking — the propagation path
    /// ULFM agree/shrink rely on now that probing is not all-pairs.
    #[test]
    fn declare_dead_tracks_previously_unknown_peers() {
        let mut m = HealthMonitor::new(cfg(), 0, 1_000);
        assert_eq!(m.state_of(700), HealthState::Alive);
        assert!(m.declare_dead(700), "untracked peer accepted");
        assert_eq!(m.state_of(700), HealthState::Dead);
        assert!(!m.declare_dead(700), "second declaration is a no-op");
        assert!(!m.note_alive(700, 50), "dead is sticky");
        assert_eq!(m.state_of(700), HealthState::Dead);
    }
}
