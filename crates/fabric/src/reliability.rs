//! Software reliability protocol (sequence / ACK / retransmit).
//!
//! On Omni-Path the provider (PSM2) implements reliability in software on
//! the host CPU — sequence numbers, a dedup/reorder window, cumulative
//! ACKs, timeout-driven retransmission, and an integrity check. This module
//! is that protocol for the simulated fabric, so the instruction cost of
//! reliability can be charged ([`Category::Reliability`]) and measured like
//! the paper's other per-message overheads.
//!
//! ## Protocol
//!
//! Each directed link (src, dst) carries an independent 32-bit wrapping
//! sequence space shared by tagged and active-message traffic. Every data
//! packet carries `seq`, a piggybacked cumulative ACK for the reverse link,
//! and (optionally) a CRC32 over the identifying bytes and payload. The
//! receiver releases packets to the matching engine / AM queue strictly in
//! sequence order, buffering out-of-order arrivals in a bounded window and
//! dropping duplicates. When traffic is one-directional the receiver owes a
//! *standalone* ACK packet (no payload, not itself sequenced or
//! retransmitted — a lost ACK is recovered by the sender's retransmission,
//! which re-raises the debt).
//!
//! Loss recovery is selective (RFC 2018 / RFC 6675). Every ACK also
//! carries a 64-bit SACK bitmap of the receiver's reorder buffer, and an
//! arrival that lands in the buffer is answered at once with a standalone
//! ACK. The sender keeps the bitmap as a scoreboard: a hole with at least
//! [`DUP_THRESH`] SACKed packets above it is lost, and is resent at once,
//! once per recovery episode (a *fast resend*). Holes the SACKs cannot
//! reveal — a lost tail, a lost fast resend — wait for the retransmit
//! timer, which backs off exponentially and resends only packets the
//! receiver has not SACKed. After `max_retries` fruitless timer rounds,
//! and no sooner than those rounds take on the fixed schedule, the peer is
//! declared unreachable. Fast resends count toward none of that.
//!
//! The state machines here ([`LinkTx`], [`LinkRx`]) are pure: time enters
//! only as a `now_us` argument and randomness not at all, so the backoff
//! schedule, window wraparound, and ACK bookkeeping are unit-testable in
//! isolation (and runs are replayable).
//!
//! [`Category::Reliability`]: litempi_instr::Category::Reliability

use crate::addr::NetAddr;
use crate::cost::ProviderProfile;
use crate::fault::{FaultPlan, FaultSpec, LinkRng};
use crate::packet::{AmMessage, TaggedMessage};
use std::collections::{BTreeMap, VecDeque};

/// Configuration of the reliable path, carried by value in
/// [`ProviderProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Run the seq/ack/retransmit protocol on every tagged and active
    /// message. When `false` the fabric behaves exactly as before this
    /// layer existed (and faults, if any, are delivered raw).
    pub enabled: bool,
    /// Retransmission rounds without progress before the peer is declared
    /// unreachable. A link whose estimated RTO is below `base_rto_us` runs
    /// more rounds than this: its peer must also have been silent for as
    /// long as `max_retries` rounds last on the fixed schedule.
    pub max_retries: u32,
    /// Initial retransmit timeout in microseconds.
    pub base_rto_us: u64,
    /// Cap on the exponential-backoff exponent (timeout ≤ base << cap).
    pub max_backoff_exp: u32,
    /// Verify a CRC32 on every packet; a mismatch is treated as a drop
    /// (the retransmission recovers the original bytes).
    pub crc: bool,
    /// Owe a standalone ACK after this many unacknowledged deliveries
    /// (ticks flush the debt earlier; this bounds it between ticks).
    pub ack_every: u32,
    /// Out-of-order buffering window (packets) per link; arrivals beyond
    /// it are dropped and recovered by retransmission.
    pub window: u32,
    /// Estimate the RTO per link from ACK round-trips (RFC-6298 SRTT/RTTVAR
    /// with Karn's algorithm) instead of using the fixed `base_rto_us`.
    /// Until a link has its first valid sample it behaves exactly as the
    /// fixed schedule, so fault-free runs are unaffected by the setting.
    pub adaptive_rto: bool,
    /// Lower clamp on the estimated RTO (µs); irrelevant in fixed mode.
    pub min_rto_us: u64,
    /// Upper clamp on the estimated RTO (µs); irrelevant in fixed mode.
    pub max_rto_us: u64,
    /// Cap on packets re-issued per retransmission-timer round
    /// (congestion-window style), so a round cannot amplify a reorder
    /// storm into a burst the size of the whole unacked queue. `0` means
    /// unlimited.
    pub retransmit_budget: u32,
}

impl ReliabilityConfig {
    /// Protocol off — the default for every provider profile.
    pub const OFF: ReliabilityConfig = ReliabilityConfig {
        enabled: false,
        max_retries: 8,
        base_rto_us: 200,
        max_backoff_exp: 6,
        crc: true,
        ack_every: 4,
        window: 64,
        adaptive_rto: true,
        min_rto_us: 50,
        max_rto_us: 20_000,
        retransmit_budget: 16,
    };

    /// Protocol on with default knobs (8 retries, 200 µs initial RTO,
    /// CRC enabled, 64-packet window, adaptive RTO with a 16-packet
    /// retransmit budget).
    pub const fn on() -> ReliabilityConfig {
        ReliabilityConfig {
            enabled: true,
            max_retries: 8,
            base_rto_us: 200,
            max_backoff_exp: 6,
            crc: true,
            ack_every: 4,
            window: 64,
            adaptive_rto: true,
            min_rto_us: 50,
            max_rto_us: 100_000,
            retransmit_budget: 16,
        }
    }

    /// Copy of this config with CRC verification switched.
    pub const fn with_crc(mut self, crc: bool) -> ReliabilityConfig {
        self.crc = crc;
        self
    }

    /// Copy of this config with the retry budget replaced.
    pub const fn with_retries(mut self, max_retries: u32, base_rto_us: u64) -> ReliabilityConfig {
        self.max_retries = max_retries;
        self.base_rto_us = base_rto_us;
        self
    }

    /// Copy of this config with the RTO estimator switched (the
    /// fixed-vs-adaptive ablation knob).
    pub const fn with_adaptive_rto(mut self, adaptive: bool) -> ReliabilityConfig {
        self.adaptive_rto = adaptive;
        self
    }

    /// Copy of this config with the estimated-RTO clamp range replaced.
    pub const fn with_rto_bounds(mut self, min_us: u64, max_us: u64) -> ReliabilityConfig {
        self.min_rto_us = min_us;
        self.max_rto_us = max_us;
        self
    }

    /// Copy of this config with the per-round retransmit cap replaced
    /// (`0` = unlimited, the pre-budget behavior).
    pub const fn with_retransmit_budget(mut self, budget: u32) -> ReliabilityConfig {
        self.retransmit_budget = budget;
        self
    }
}

/// `true` when `a` is strictly before `b` in the wrapping sequence space.
#[inline]
pub(crate) fn seq_before(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < 0x8000_0000
}

// ------------------------------------------------------------------ CRC32

const CRC_INIT: u32 = litempi_simd::crc::INIT;

/// One CRC32 (IEEE, reflected, poly `0xEDB88320`) update step, delegated
/// to the kernel layer: slice-by-8 tables as the scalar baseline, a
/// carryless-multiply fold when the active kernel tier is vectorized and
/// the CPU has a polynomial multiplier. Values are identical to the
/// original bit-at-a-time loop (pinned by the kernel crate's equivalence
/// tests), and the `cost::relia` instruction charges are computed from
/// payload *size* in `endpoint.rs`, so the charge model is untouched.
#[inline]
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    litempi_simd::crc::update(crc, data)
}

/// CRC32 of a byte slice (IEEE polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(CRC_INIT, data)
}

// ------------------------------------------------------------- wire types

/// The payload of a sequenced packet: either traffic class rides the same
/// per-link sequence space, preserving the fabric's per-(src,dst) FIFO
/// guarantee across classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PacketBody {
    /// A tagged two-sided message.
    Tagged(TaggedMessage),
    /// An active message.
    Am(AmMessage),
    /// A liveness probe from the failure detector. Probes travel outside
    /// the sequence space (like standalone ACKs): a lost probe is simply
    /// re-issued at the next probe interval, never retransmitted.
    Probe(u64),
    /// The immediate reply to a [`PacketBody::Probe`], echoing its nonce.
    ProbeAck(u64),
}

impl PacketBody {
    /// CRC32 over the identifying bytes and payload. The `Bytes` payload
    /// itself is never rewritten — reliability metadata travels beside it —
    /// which is what makes the fault-free path byte-identical to the
    /// pre-reliability fabric.
    pub(crate) fn checksum(&self) -> u32 {
        let mut c = CRC_INIT;
        match self {
            PacketBody::Tagged(m) => {
                c = crc32_update(c, &m.match_bits.to_le_bytes());
                c = crc32_update(c, &m.data);
            }
            PacketBody::Am(m) => {
                c = crc32_update(c, &m.handler.to_le_bytes());
                c = crc32_update(c, &m.header);
                c = crc32_update(c, &m.data);
            }
            PacketBody::Probe(nonce) => {
                c = crc32_update(c, b"probe");
                c = crc32_update(c, &nonce.to_le_bytes());
            }
            PacketBody::ProbeAck(nonce) => {
                c = crc32_update(c, b"probe-ack");
                c = crc32_update(c, &nonce.to_le_bytes());
            }
        }
        !c
    }

    /// Number of payload bytes (for per-word CRC cost accounting).
    pub(crate) fn payload_len(&self) -> usize {
        match self {
            PacketBody::Tagged(m) => m.data.len(),
            PacketBody::Am(m) => m.data.len(),
            PacketBody::Probe(_) | PacketBody::ProbeAck(_) => 0,
        }
    }

    /// A copy of this body with one bit flipped somewhere the checksum
    /// covers (the corruption fault). `pick` selects the position.
    pub(crate) fn corrupted(&self, pick: u64) -> PacketBody {
        fn flip(data: &bytes::Bytes, pick: u64) -> bytes::Bytes {
            let mut v = data.to_vec();
            let i = (pick as usize) % v.len();
            v[i] ^= 1 << ((pick >> 32) % 8);
            bytes::Bytes::from(v)
        }
        match self {
            PacketBody::Tagged(m) => {
                let mut m = m.clone();
                if m.data.is_empty() {
                    m.match_bits ^= 1 << (pick % 64);
                } else {
                    m.data = flip(&m.data, pick);
                }
                PacketBody::Tagged(m)
            }
            PacketBody::Am(m) => {
                let mut m = m.clone();
                if m.data.is_empty() {
                    m.header[(pick as usize) % 32] ^= 1 << ((pick >> 32) % 8);
                } else {
                    m.data = flip(&m.data, pick);
                }
                PacketBody::Am(m)
            }
            PacketBody::Probe(nonce) => PacketBody::Probe(nonce ^ (1 << (pick % 64))),
            PacketBody::ProbeAck(nonce) => PacketBody::ProbeAck(nonce ^ (1 << (pick % 64))),
        }
    }
}

/// One packet on the (simulated) wire. Reliability metadata lives in
/// struct fields rather than a serialized header so the payload `Bytes`
/// handle is delivered untouched.
#[derive(Debug, Clone)]
pub(crate) struct WirePacket {
    /// Sending endpoint.
    pub src: NetAddr,
    /// Virtual communication interface the packet travels on. Each
    /// (VCI, link) pair is an independent sequence space and reliability
    /// domain; ACKs return on the same VCI. Always 0 on an unsharded
    /// endpoint.
    pub vci: usize,
    /// Per-link sequence number (meaningless for standalone ACKs).
    pub seq: u32,
    /// Piggybacked cumulative ACK for the reverse link: "I have received
    /// everything before this sequence number from you".
    pub ack: Option<u32>,
    /// Selective ACK beside `ack` ([`LinkRx::sack`]): bit `i` set means
    /// `ack + 1 + i` is held in the receiver's reorder buffer. `0` without
    /// an `ack`.
    pub sack: u64,
    /// CRC32 of the body, when the config enables integrity checking.
    pub crc: Option<u32>,
    /// The data; `None` makes this a standalone ACK.
    pub body: Option<PacketBody>,
}

// ------------------------------------------------------------- sender side

/// An entry awaiting acknowledgment.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub seq: u32,
    pub body: PacketBody,
    pub crc: Option<u32>,
    /// Fabric time of the original transmission (the RTT sample base).
    pub sent_at_us: u64,
    /// Set once the packet has been retransmitted; Karn's algorithm
    /// excludes such packets from RTT sampling (the ACK could be for
    /// either transmission).
    pub rexmit: bool,
}

/// What a retransmit-timer tick decided.
#[derive(Debug)]
pub(crate) enum TxTick {
    /// Nothing due.
    Idle,
    /// Timeout fired: re-issue these packets (the front of the unacked
    /// queue, skipping what the receiver has SACKed).
    Resend(Vec<Pending>),
    /// Retry budget exhausted: the peer is now considered unreachable.
    Dead,
}

/// Sender half of one directed link: sequence allocation, a retransmit
/// queue with exponential backoff, a SACK scoreboard that resends holes at
/// once, and (optionally) an RFC-6298 RTO estimator fed by ACK
/// round-trips.
#[derive(Debug)]
pub(crate) struct LinkTx {
    next_seq: u32,
    queue: VecDeque<Pending>,
    /// Deadline for the next retransmission round (µs; valid when the
    /// queue is nonempty).
    deadline_us: u64,
    backoff_exp: u32,
    /// Consecutive retransmission rounds without forward progress.
    retries: u32,
    /// Fabric time of the last forward progress, or of the send that armed
    /// an idle timer (valid when the queue is nonempty).
    stalled_since_us: u64,
    /// How long the link must stall before its peer is declared dead: the
    /// span of `max_retries` rounds on the fixed schedule, so that a fast
    /// estimated RTO retries more often, never for less time.
    dead_after_us: u64,
    base_rto_us: u64,
    max_backoff_exp: u32,
    max_retries: u32,
    adaptive_rto: bool,
    min_rto_us: u64,
    max_rto_us: u64,
    retransmit_budget: u32,
    /// Smoothed RTT × 8 (RFC 6298's scaled-integer form; the ×8 keeps the
    /// 1/8-gain update exact without floats).
    srtt_x8: u64,
    /// RTT variance × 4 (which is exactly the `4·RTTVAR` term of the RTO).
    rttvar_x4: u64,
    /// `false` until the first valid (non-retransmitted) sample; the link
    /// uses the fixed `base_rto_us` schedule until then.
    has_rtt_sample: bool,
    /// Fabric time of the most recent retransmission round. Karn's
    /// algorithm, full strength: a cumulative ACK arriving after a
    /// recovery retires packets that merely *waited behind* the
    /// retransmitted front, and their send→ack spans measure head-of-line
    /// blocking, not the link RTT. Feeding those into the estimator is a
    /// death spiral (inflated SRTT → longer RTO → longer recoveries →
    /// more inflated samples), so only packets sent after this instant
    /// may contribute samples.
    last_rexmit_at_us: u64,
    /// SACK scoreboard, based at the front of the queue: bit `i` set means
    /// the receiver holds `front + 1 + i` in its reorder buffer. A
    /// receiver never discards what it buffered, so the bits only grow
    /// until the front moves.
    sacked: u64,
    /// Recovery point: every hole before this sequence number has had its
    /// fast resend in the current episode. It never falls behind the front
    /// of the queue, so the episode ends when the cumulative ACK passes it.
    recovery_point: u32,
    /// Set once the retry budget is exhausted.
    pub dead: bool,
}

/// Clock granularity `G` of RFC 6298, in µs: the floor on the variance
/// term so a zero-variance link still waits at least one clock step.
const RTO_GRANULARITY_US: u64 = 1;

/// SACKed packets above a hole that declare it lost (RFC 6675's
/// `DupThresh`): a reorder by one or two never triggers a fast resend.
const DUP_THRESH: u32 = 3;

/// Is the packet `p` places behind the front of the queue held in the
/// receiver's reorder buffer, by the scoreboard `sacked`? The front itself
/// never is: the cumulative ACK would have passed it.
#[inline]
fn is_sacked(sacked: u64, p: usize) -> bool {
    (1..=64).contains(&p) && sacked >> (p - 1) & 1 == 1
}

impl LinkTx {
    pub(crate) fn new(cfg: &ReliabilityConfig) -> LinkTx {
        LinkTx::new_at(cfg, 0)
    }

    /// Start the sequence space at `seq` (wraparound tests).
    pub(crate) fn new_at(cfg: &ReliabilityConfig, seq: u32) -> LinkTx {
        LinkTx {
            next_seq: seq,
            queue: VecDeque::new(),
            deadline_us: 0,
            backoff_exp: 0,
            retries: 0,
            stalled_since_us: 0,
            dead_after_us: (1..=cfg.max_retries)
                .map(|k| cfg.base_rto_us << k.min(cfg.max_backoff_exp))
                .sum(),
            base_rto_us: cfg.base_rto_us,
            max_backoff_exp: cfg.max_backoff_exp,
            max_retries: cfg.max_retries,
            adaptive_rto: cfg.adaptive_rto,
            min_rto_us: cfg.min_rto_us,
            max_rto_us: cfg.max_rto_us,
            retransmit_budget: cfg.retransmit_budget,
            srtt_x8: 0,
            rttvar_x4: 0,
            has_rtt_sample: false,
            last_rexmit_at_us: 0,
            sacked: 0,
            recovery_point: seq,
            dead: false,
        }
    }

    /// The retransmit timeout this link currently runs: the fixed
    /// `base_rto_us` until the estimator has a sample, then RFC 6298's
    /// `SRTT + max(G, 4·RTTVAR)` clamped to the configured bounds.
    pub(crate) fn rto_us(&self) -> u64 {
        if !self.adaptive_rto || !self.has_rtt_sample {
            return self.base_rto_us;
        }
        let var = self.rttvar_x4.max(RTO_GRANULARITY_US);
        (self.srtt_x8 / 8 + var).clamp(self.min_rto_us, self.max_rto_us)
    }

    /// Feed one RTT measurement into the estimator (RFC 6298 §2, the
    /// scaled-integer update TCP implementations use).
    fn sample_rtt(&mut self, rtt_us: u64) {
        if !self.has_rtt_sample {
            self.srtt_x8 = rtt_us * 8;
            self.rttvar_x4 = rtt_us * 2; // RTTVAR = R/2, scaled ×4
            self.has_rtt_sample = true;
            return;
        }
        let srtt = self.srtt_x8 / 8;
        let err = srtt.abs_diff(rtt_us);
        // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT - R|  (×4: subtract a quarter,
        // add the error). SRTT = 7/8·SRTT + 1/8·R (×8 likewise).
        self.rttvar_x4 = self.rttvar_x4 - self.rttvar_x4 / 4 + err;
        self.srtt_x8 = self.srtt_x8 - self.srtt_x8 / 8 + rtt_us;
    }

    /// Assign the next sequence number, enqueue the packet for potential
    /// retransmission, and arm the timer if it was idle.
    pub(crate) fn prepare(&mut self, body: PacketBody, crc: Option<u32>, now_us: u64) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        if self.queue.is_empty() {
            self.deadline_us = now_us + self.rto_us();
            self.backoff_exp = 0;
            self.stalled_since_us = now_us;
        }
        self.queue.push_back(Pending {
            seq,
            body,
            crc,
            sent_at_us: now_us,
            rexmit: false,
        });
        seq
    }

    /// Would [`on_ack`](LinkTx::on_ack) for `cum` retire anything — is the
    /// front of the queue before `cum`? When not, `on_ack` does nothing,
    /// so a caller can skip it and the clock read it needs.
    #[inline]
    pub(crate) fn retires(&self, cum: u32) -> bool {
        self.queue.front().is_some_and(|p| seq_before(p.seq, cum))
    }

    /// Process a cumulative ACK: retire everything before `cum`. Forward
    /// progress resets the backoff and the retry budget, and packets that
    /// were never retransmitted contribute an RTT sample (Karn's
    /// algorithm: ambiguous round-trips are discarded).
    pub(crate) fn on_ack(&mut self, cum: u32, now_us: u64) {
        let mut progressed = false;
        let mut sample: Option<u64> = None;
        while let Some(front) = self.queue.front() {
            if seq_before(front.seq, cum) {
                if !front.rexmit && front.sent_at_us >= self.last_rexmit_at_us {
                    sample = Some(now_us.saturating_sub(front.sent_at_us));
                }
                self.queue.pop_front();
                progressed = true;
            } else {
                break;
            }
        }
        if self.adaptive_rto {
            // The newest retired packet's round-trip is the freshest
            // estimate (one sample per ACK, like per-RTT TCP sampling).
            if let Some(rtt) = sample {
                self.sample_rtt(rtt);
            }
        }
        if progressed {
            self.retries = 0;
            self.stalled_since_us = now_us;
            self.backoff_exp = 0;
            self.deadline_us = now_us + self.rto_us();
            self.sacked = 0;
            if seq_before(self.recovery_point, cum) {
                self.recovery_point = cum;
            }
        }
    }

    /// Record the SACK bitmap an ACK for `cum` carried (after
    /// [`on_ack`](LinkTx::on_ack) has retired everything before `cum`) and
    /// return the fast resends it calls for: every hole with at least
    /// [`DUP_THRESH`] SACKed packets above it that has not been resent in
    /// this episode. A fast resend is ambiguous for RTT sampling (Karn),
    /// but it is not a timer round: `retries`, the backoff and the dead
    /// verdict's schedule stay as they were.
    pub(crate) fn on_sack(&mut self, cum: u32, sack: u64, now_us: u64) -> Vec<Pending> {
        if self.queue.front().map(|p| p.seq) != Some(cum) {
            // Stale (reordered behind a newer ACK), or nothing in flight.
            return Vec::new();
        }
        self.sacked |= sack;
        let mut out = Vec::new();
        let mut above = self.sacked.count_ones();
        // The front and the 64 packets behind it that the bitmap covers.
        for (p, pkt) in self.queue.iter_mut().enumerate().take(65) {
            if is_sacked(self.sacked, p) {
                above -= 1;
                continue;
            }
            if above < DUP_THRESH {
                break;
            }
            if !seq_before(pkt.seq, self.recovery_point) {
                pkt.rexmit = true;
                out.push(pkt.clone());
            }
        }
        if let Some(last) = out.last() {
            self.recovery_point = last.seq.wrapping_add(1);
            self.last_rexmit_at_us = now_us;
        }
        out
    }

    /// Fire the retransmit timer if due.
    pub(crate) fn tick(&mut self, now_us: u64) -> TxTick {
        if self.dead || self.queue.is_empty() || now_us < self.deadline_us {
            return TxTick::Idle;
        }
        let stalled_us = now_us.saturating_sub(self.stalled_since_us);
        if self.retries >= self.max_retries && stalled_us >= self.dead_after_us {
            self.dead = true;
            self.queue.clear();
            return TxTick::Dead;
        }
        self.retries += 1;
        if self.backoff_exp < self.max_backoff_exp {
            self.backoff_exp += 1;
        }
        self.deadline_us = now_us + (self.rto_us() << self.backoff_exp);
        // The front of the queue minus what the receiver already holds,
        // capped by the retransmit budget: the front packets are the ones
        // blocking the receiver's window, and a bounded burst cannot
        // amplify a reorder storm.
        let cap = match self.retransmit_budget {
            0 => usize::MAX,
            b => b as usize,
        };
        self.last_rexmit_at_us = now_us;
        let sacked = self.sacked;
        let batch: Vec<Pending> = (self.queue.iter_mut().enumerate())
            .filter(|(p, _)| !is_sacked(sacked, *p))
            .take(cap)
            .map(|(_, pkt)| {
                pkt.rexmit = true;
                pkt.clone()
            })
            .collect();
        TxTick::Resend(batch)
    }

    /// When the retransmit timer fires next, if it is armed.
    pub(crate) fn due_at(&self) -> Option<u64> {
        (!self.dead && !self.queue.is_empty()).then_some(self.deadline_us)
    }

    /// Packets awaiting acknowledgment.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The next sequence number this sender will assign (memento capture).
    pub(crate) fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Heap bytes pinned by the retransmit queue (capacity, not length).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<Pending>()
    }

    /// Smoothed RTT estimate in µs, `None` until the first sample.
    #[allow(dead_code)]
    pub(crate) fn srtt_us(&self) -> Option<u64> {
        self.has_rtt_sample.then_some(self.srtt_x8 / 8)
    }

    #[cfg(test)]
    fn deadline(&self) -> u64 {
        self.deadline_us
    }
}

// ----------------------------------------------------------- receiver side

/// What the dedup/reorder window decided about an arrival.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RxVerdict {
    /// In-order: this many bodies (the arrival plus any buffered
    /// successors it unblocked) went to the release callback, in sequence
    /// order.
    Deliver(u32),
    /// Ahead of the expected sequence: buffered until the gap fills.
    Buffered,
    /// Already delivered (or already buffered): dropped.
    Duplicate,
    /// Too far ahead for the window: dropped, retransmission recovers it.
    Overflow,
}

/// Receiver half of one directed link: the sliding dedup/reorder window.
#[derive(Debug)]
pub(crate) struct LinkRx {
    /// Next in-order sequence number (everything before it is delivered —
    /// this is also the cumulative ACK value).
    expected: u32,
    window: u32,
    /// Out-of-order arrivals, at most `window` of them (unsorted; the
    /// window is small).
    buffer: Vec<(u32, PacketBody)>,
    /// In-order deliveries (and re-ACK-worthy duplicates) not yet covered
    /// by an outgoing ACK.
    pub ack_owed: u32,
    /// Duplicates dropped (stats).
    pub dups: u64,
}

impl LinkRx {
    pub(crate) fn new(cfg: &ReliabilityConfig) -> LinkRx {
        LinkRx::new_at(cfg, 0)
    }

    /// Expect the first packet at `seq` (wraparound tests).
    pub(crate) fn new_at(cfg: &ReliabilityConfig, seq: u32) -> LinkRx {
        LinkRx {
            expected: seq,
            window: cfg.window,
            buffer: Vec::new(),
            ack_owed: 0,
            dups: 0,
        }
    }

    /// Run the window check on an arrival. An in-order arrival, and every
    /// buffered successor it unblocks, goes to `release` in sequence order
    /// before this returns, so a caller holding the window's lock hands
    /// them on in FIFO order without collecting them first.
    pub(crate) fn receive(
        &mut self,
        seq: u32,
        body: PacketBody,
        mut release: impl FnMut(PacketBody),
    ) -> RxVerdict {
        let offset = seq.wrapping_sub(self.expected);
        if offset >= 0x8000_0000 {
            // Behind the window: a duplicate of something already
            // delivered. Still owe an ACK — the sender may be
            // retransmitting precisely because the previous ACK was lost.
            self.dups += 1;
            self.ack_owed += 1;
            return RxVerdict::Duplicate;
        }
        if offset == 0 {
            release(body);
            let mut n = 1;
            self.expected = self.expected.wrapping_add(1);
            // Drain any buffered successors the gap-fill unblocked.
            while let Some(i) = self.buffer.iter().position(|(s, _)| *s == self.expected) {
                release(self.buffer.swap_remove(i).1);
                n += 1;
                self.expected = self.expected.wrapping_add(1);
            }
            self.ack_owed += n;
            return RxVerdict::Deliver(n);
        }
        // Ahead: hold for reordering.
        if self.buffer.iter().any(|(s, _)| *s == seq) {
            // A retransmit of something already buffered. Like the
            // behind-window case above, this usually means the sender has
            // not heard our cumulative ACK — schedule one so it can retire
            // the delivered prefix and reset its retry budget instead of
            // burning dry retries toward PeerUnreachable.
            self.dups += 1;
            self.ack_owed += 1;
            return RxVerdict::Duplicate;
        }
        if self.buffer.len() >= self.window as usize {
            // Dropped for window overflow, but the arrival still proves the
            // link is alive; ACK debt is uniform across every verdict that
            // consumes a packet without a later delivery ACK.
            self.ack_owed += 1;
            return RxVerdict::Overflow;
        }
        self.buffer.push((seq, body));
        RxVerdict::Buffered
    }

    /// The cumulative ACK value for this link.
    pub(crate) fn cum_ack(&self) -> u32 {
        self.expected
    }

    /// The SACK bitmap that goes beside [`cum_ack`](LinkRx::cum_ack): bit
    /// `i` set means `cum_ack() + 1 + i` is buffered. The window is 64
    /// packets, so the bitmap covers it; an arrival further ahead stays
    /// buffered but unreported. Free while the buffer is empty, which is
    /// always on a fault-free link.
    pub(crate) fn sack(&self) -> u64 {
        self.buffer.iter().fold(0, |bits, (seq, _)| {
            match seq.wrapping_sub(self.expected).wrapping_sub(1) {
                i @ 0..=63 => bits | 1 << i,
                _ => bits,
            }
        })
    }

    /// Consume the ACK debt (the caller is about to transmit `cum_ack`).
    pub(crate) fn take_ack(&mut self) -> u32 {
        self.ack_owed = 0;
        self.expected
    }

    /// Out-of-order arrivals currently held for reordering. A link with
    /// buffered packets is not idle — reclaiming it would lose them.
    pub(crate) fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Heap bytes pinned by the reorder buffer (capacity, not length).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.buffer.capacity() * std::mem::size_of::<(u32, PacketBody)>()
    }
}

// -------------------------------------------------------- per-endpoint state

/// The two halves plus fault machinery of one directed peer relationship,
/// materialized lazily on first traffic. The dense per-peer vectors this
/// replaces cost O(ranks) per endpoint — O(ranks²) fabric-wide — which is
/// exactly the state explosion foMPI's constant-state-per-process
/// discipline exists to avoid (see DESIGN.md §15).
#[derive(Debug)]
pub(crate) struct Link {
    /// Sender half toward the peer.
    pub tx: LinkTx,
    /// Receiver half from the peer.
    pub rx: LinkRx,
    /// Fault-decision RNG for the outgoing link (deterministic per link).
    pub fault_rng: LinkRng,
    /// Fault probabilities for the outgoing link (resolved once).
    pub spec: FaultSpec,
    /// Reorder hold-back slot: a packet parked here is transmitted after
    /// the next packet on the link (or on the next tick).
    pub stash: Option<WirePacket>,
    /// Peer declared unreachable by retry exhaustion.
    pub dead: bool,
}

impl Link {
    /// Nothing in flight in either direction: no unacked packets, no
    /// parked reorder stash, no ACK debt, no out-of-order arrivals waiting
    /// for a gap fill. Only an idle link may be reclaimed — anything else
    /// still carries protocol obligations.
    pub(crate) fn is_idle(&self) -> bool {
        self.tx.in_flight() == 0
            && self.stash.is_none()
            && self.rx.ack_owed == 0
            && self.rx.buffered() == 0
    }

    /// Bytes of memory this link pins while resident: the state machines
    /// themselves plus the retransmit-queue and reorder-buffer heap
    /// capacity (capacity, not length — a burst leaves its allocation
    /// behind until the link is reclaimed).
    pub(crate) fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Link>() + self.tx.resident_bytes() + self.rx.resident_bytes()
    }
}

/// The few words that survive a reclaimed link: enough to resume both
/// sequence spaces and the fault stream exactly where they stopped, so a
/// link that goes quiet, is reclaimed, and later wakes again is
/// byte-identical to one that stayed resident the whole time.
#[derive(Debug, Clone, Copy)]
struct LinkMemento {
    /// `LinkTx::next_seq` at reclamation.
    next_seq: u32,
    /// `LinkRx` cumulative-ACK point at reclamation.
    expected: u32,
    /// Fault-RNG state at reclamation (resumes the per-link stream).
    rng_state: u64,
    /// Duplicates dropped so far (stats continuity).
    dups: u64,
    /// Death is sticky across reclamation.
    dead: bool,
}

/// Everything one endpoint tracks for the lossy/reliable path, behind a
/// single mutex (untouched — and empty — when both faults and reliability
/// are disabled). Link state is sparse: a peer costs nothing until the
/// first packet crosses its link, and `reclaim_idle` shrinks a quiescent
/// link back to a [`LinkMemento`] of a few words.
#[derive(Debug)]
pub(crate) struct ReliaState {
    pub cfg: ReliabilityConfig,
    /// `cfg.enabled || faults active` — whether this domain routes at all.
    active: bool,
    /// Owning endpoint (link seeds and specs are per directed link).
    addr: NetAddr,
    /// Shard index, mixed into link seeds for VCIs above 0.
    vci: usize,
    /// The fabric's fault plan; `link_seed`/`spec_for` are pure per-link
    /// functions, which is what makes lazy materialization deterministic.
    faults: FaultPlan,
    /// Live links keyed by peer index. A `BTreeMap` so iteration visits
    /// peers in ascending order — the same order the dense vectors this
    /// replaces were walked in, keeping tick/quiesce byte-identical.
    links: BTreeMap<u32, Link>,
    /// Sequence/RNG mementos of reclaimed links.
    mementos: BTreeMap<u32, LinkMemento>,
}

impl ReliaState {
    /// Build the reliability domain of one VCI of the endpoint at `addr`.
    /// No per-peer state is allocated here — links materialize on first
    /// traffic, so a 4096-rank fabric with 2-neighbor traffic holds 2
    /// links per endpoint, not 4096.
    ///
    /// VCI 0 seeds its fault RNGs exactly as the unsharded endpoint did
    /// (byte-identity when `num_vcis = 1`); higher VCIs mix the shard
    /// index into each link seed so concurrent shards draw independent
    /// fault streams.
    pub(crate) fn new_vci(profile: &ProviderProfile, addr: NetAddr, vci: usize) -> ReliaState {
        let cfg = profile.reliability;
        ReliaState {
            cfg,
            active: cfg.enabled || !profile.faults.is_none(),
            addr,
            vci,
            faults: profile.faults,
            links: BTreeMap::new(),
            mementos: BTreeMap::new(),
        }
    }

    /// The deterministic fault-RNG seed for the link to `peer` on this
    /// shard (the same mixing rule the dense constructor used).
    fn link_seed(&self, peer: u32) -> u64 {
        let seed = self.faults.link_seed(self.addr, NetAddr(peer));
        if self.vci == 0 {
            seed
        } else {
            (seed ^ (self.vci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
        }
    }

    /// The link to `peer`, materialized on first touch. A reclaimed link
    /// resumes from its memento; a brand-new one starts both sequence
    /// spaces at 0 with the deterministic per-link fault stream.
    pub(crate) fn link_mut(&mut self, peer: NetAddr) -> &mut Link {
        debug_assert!(
            self.active,
            "inactive reliability domains never route packets"
        );
        let p = peer.0;
        if !self.links.contains_key(&p) {
            let link = match self.mementos.remove(&p) {
                Some(m) => {
                    let mut rx = LinkRx::new_at(&self.cfg, m.expected);
                    rx.dups = m.dups;
                    Link {
                        tx: LinkTx::new_at(&self.cfg, m.next_seq),
                        rx,
                        fault_rng: LinkRng::new(m.rng_state),
                        spec: self.faults.spec_for(self.addr, peer),
                        stash: None,
                        dead: m.dead,
                    }
                }
                None => Link {
                    tx: LinkTx::new(&self.cfg),
                    rx: LinkRx::new(&self.cfg),
                    fault_rng: LinkRng::new(self.link_seed(p)),
                    spec: self.faults.spec_for(self.addr, peer),
                    stash: None,
                    dead: false,
                },
            };
            self.links.insert(p, link);
        }
        self.links.get_mut(&p).expect("just inserted")
    }

    /// The link to `peer` if (and only if) it is currently resident.
    #[cfg(test)]
    pub(crate) fn link(&self, peer: NetAddr) -> Option<&Link> {
        self.links.get(&peer.0)
    }

    /// When this domain next needs a tick, at `now`: at once for a parked
    /// reorder stash or an owed ACK, else at the earliest armed retransmit
    /// timer. `None`: nothing is pending.
    pub(crate) fn next_deadline(&self, now: u64) -> Option<u64> {
        let relia_on = self.cfg.enabled;
        (self.links.values())
            .filter_map(|link| {
                if link.stash.is_some() || (relia_on && link.rx.ack_owed > 0) {
                    return Some(now);
                }
                relia_on.then(|| link.tx.due_at()).flatten()
            })
            .min()
    }

    /// Resident links, ascending by peer index.
    pub(crate) fn links(&self) -> impl Iterator<Item = (NetAddr, &Link)> {
        self.links.iter().map(|(p, l)| (NetAddr(*p), l))
    }

    /// Resident links, mutable, ascending by peer index.
    pub(crate) fn links_mut(&mut self) -> impl Iterator<Item = (NetAddr, &mut Link)> {
        self.links.iter_mut().map(|(p, l)| (NetAddr(*p), l))
    }

    /// Number of currently resident links.
    #[allow(dead_code)] // test instrumentation
    pub(crate) fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Has `peer` been declared unreachable (resident or reclaimed)?
    /// Never materializes anything.
    pub(crate) fn is_dead(&self, peer: NetAddr) -> bool {
        self.links
            .get(&peer.0)
            .map(|l| l.dead)
            .or_else(|| self.mementos.get(&peer.0).map(|m| m.dead))
            .unwrap_or(false)
    }

    /// Memory currently pinned by this domain's per-peer state: resident
    /// links at full width plus reclaimed links at memento width. The
    /// `EndpointStats::resident_link_bytes` gauge sums this across VCIs.
    pub(crate) fn resident_link_bytes(&self) -> u64 {
        self.links
            .values()
            .map(|l| l.resident_bytes() as u64)
            .sum::<u64>()
            + (self.mementos.len() * std::mem::size_of::<LinkMemento>()) as u64
    }

    /// Shrink every fully idle link back to its memento, releasing the
    /// state machines and their heap capacity. Called by `quiesce` once
    /// the domain has drained; safe mid-run because the memento resumes
    /// both sequence spaces and the fault stream exactly.
    pub(crate) fn reclaim_idle(&mut self) {
        let idle: Vec<u32> = self
            .links
            .iter()
            .filter(|(_, l)| l.is_idle())
            .map(|(p, _)| *p)
            .collect();
        for p in idle {
            let l = self.links.remove(&p).expect("listed as resident");
            self.mementos.insert(
                p,
                LinkMemento {
                    next_seq: l.tx.next_seq(),
                    expected: l.rx.cum_ack(),
                    rng_state: l.fault_rng.state(),
                    dups: l.rx.dups,
                    dead: l.dead,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn body(tag: u64) -> PacketBody {
        PacketBody::Tagged(TaggedMessage {
            src: NetAddr(0),
            match_bits: tag,
            data: Bytes::from_static(b"payload"),
        })
    }

    fn cfg() -> ReliabilityConfig {
        ReliabilityConfig::on()
    }

    /// `rx.receive`, with the tags of the bodies it released, in release
    /// order.
    fn receive(rx: &mut LinkRx, seq: u32, b: PacketBody) -> (RxVerdict, Vec<u64>) {
        let mut tags = Vec::new();
        let verdict = rx.receive(seq, b, |b| {
            tags.push(match b {
                PacketBody::Tagged(m) => m.match_bits,
                PacketBody::Probe(n) => n,
                _ => unreachable!("the tests release tagged bodies and probes"),
            })
        });
        (verdict, tags)
    }

    #[test]
    fn crc32_check_value() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"123456788"), crc32(b"123456789"));
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksum_detects_corruption() {
        let b = body(42);
        let c = b.checksum();
        for pick in [0u64, 3, 0xFFFF_0005, u64::MAX] {
            let bad = b.corrupted(pick);
            assert_ne!(bad.checksum(), c, "pick = {pick}");
        }
        // Empty payloads corrupt their metadata instead.
        let empty = PacketBody::Tagged(TaggedMessage {
            src: NetAddr(0),
            match_bits: 7,
            data: Bytes::new(),
        });
        assert_ne!(empty.corrupted(1).checksum(), empty.checksum());
    }

    #[test]
    fn retires_is_true_exactly_when_on_ack_would_retire() {
        let mut tx = LinkTx::new_at(&cfg(), u32::MAX);
        assert!(!tx.retires(5), "nothing in flight");
        tx.prepare(body(1), None, 0);
        assert!(!tx.retires(u32::MAX), "the ACK is for the front itself");
        assert!(tx.retires(0), "across the wrap");
        tx.on_ack(u32::MAX, 10);
        assert_eq!(
            tx.in_flight(),
            1,
            "an ACK that retires nothing does nothing"
        );
        tx.on_ack(0, 10);
        assert!(!tx.retires(0) && tx.in_flight() == 0);
    }

    #[test]
    fn seq_before_handles_wraparound() {
        assert!(seq_before(0, 1));
        assert!(seq_before(u32::MAX, 0));
        assert!(seq_before(u32::MAX - 1, 3));
        assert!(!seq_before(1, 0));
        assert!(!seq_before(0, u32::MAX));
        assert!(!seq_before(5, 5));
    }

    /// Satellite: backoff schedule. Deadlines double per fruitless round,
    /// capped at `base << max_backoff_exp`, and progress resets them.
    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let c = cfg(); // base 200 µs, cap exp 6, 8 retries
        let mut tx = LinkTx::new(&c);
        tx.prepare(body(1), None, 1_000);
        assert_eq!(tx.deadline(), 1_200);
        assert!(matches!(tx.tick(1_199), TxTick::Idle));

        // Round 1 fires at the base RTO; the next deadline uses 2× base.
        let TxTick::Resend(r) = tx.tick(1_200) else {
            panic!("round 1 should fire");
        };
        assert_eq!(r.len(), 1);
        assert_eq!(tx.deadline(), 1_200 + 400);

        // Rounds 2..6 keep doubling: 800, 1600, 3200, 6400, 12800.
        let mut now = 1_600;
        for expect in [800u64, 1_600, 3_200, 6_400, 12_800] {
            assert!(matches!(tx.tick(now), TxTick::Resend(_)));
            assert_eq!(tx.deadline(), now + expect);
            now += expect;
        }
        // Exponent is capped: the next round waits 12800 again.
        assert!(matches!(tx.tick(now), TxTick::Resend(_)));
        assert_eq!(tx.deadline(), now + 12_800);
        now += 12_800;

        // Round 8 exhausts the budget (max_retries = 8).
        assert!(matches!(tx.tick(now), TxTick::Resend(_)));
        now += 12_800;
        assert!(matches!(tx.tick(now), TxTick::Dead));
        assert!(tx.dead);
        assert_eq!(tx.in_flight(), 0);
        assert!(matches!(tx.tick(now + 1), TxTick::Idle));
    }

    #[test]
    fn ack_progress_resets_backoff() {
        let c = cfg();
        let mut tx = LinkTx::new(&c);
        tx.prepare(body(1), None, 0);
        tx.prepare(body(2), None, 0);
        assert!(matches!(tx.tick(200), TxTick::Resend(_)));
        assert!(matches!(tx.tick(600), TxTick::Resend(_)));
        // Cumulative ACK for seq 1 retires the first packet and resets the
        // schedule to the base RTO.
        tx.on_ack(1, 700);
        assert_eq!(tx.in_flight(), 1);
        assert_eq!(tx.deadline(), 900);
        assert!(matches!(tx.tick(899), TxTick::Idle));
        assert!(matches!(tx.tick(900), TxTick::Resend(_)));
        // Full ACK drains the queue; the timer goes idle forever.
        tx.on_ack(2, 1_000);
        assert_eq!(tx.in_flight(), 0);
        assert!(matches!(tx.tick(1_000_000), TxTick::Idle));
    }

    /// Satellite: dedup-window wraparound at sequence overflow. In-order
    /// and out-of-order arrivals across the u32 boundary behave exactly as
    /// mid-range, and duplicates are recognized on both sides of it.
    #[test]
    fn dedup_window_wraps_at_sequence_overflow() {
        let c = cfg();
        let start = u32::MAX - 2;
        let mut rx = LinkRx::new_at(&c, start);

        // In-order across the boundary: MAX-2, MAX-1, MAX, 0, 1.
        for (i, seq) in (0..5u32).map(|i| (i, start.wrapping_add(i))) {
            assert_eq!(
                receive(&mut rx, seq, body(i as u64)),
                (RxVerdict::Deliver(1), vec![i as u64]),
                "seq {seq:#x}"
            );
        }
        assert_eq!(rx.cum_ack(), 2);

        // Everything already delivered is a duplicate, on both sides of
        // the wrap point.
        for seq in [start, u32::MAX, 0, 1] {
            assert_eq!(
                receive(&mut rx, seq, body(9)),
                (RxVerdict::Duplicate, vec![])
            );
        }
        assert_eq!(rx.dups, 4);

        // Out-of-order across the boundary: expected = 2; buffering 3 and
        // 4, then filling the gap, releases all three in order.
        assert_eq!(
            receive(&mut rx, 4, body(104)),
            (RxVerdict::Buffered, vec![])
        );
        assert_eq!(
            receive(&mut rx, 3, body(103)),
            (RxVerdict::Buffered, vec![])
        );
        assert_eq!(
            receive(&mut rx, 3, body(103)),
            (RxVerdict::Duplicate, vec![])
        );
        assert_eq!(
            receive(&mut rx, 2, body(102)),
            (RxVerdict::Deliver(3), vec![102, 103, 104])
        );
        assert_eq!(rx.cum_ack(), 5);
    }

    #[test]
    fn window_overflow_drops_far_ahead() {
        let mut c = cfg();
        c.window = 2;
        let mut rx = LinkRx::new_at(&c, 0);
        assert_eq!(receive(&mut rx, 1, body(1)), (RxVerdict::Buffered, vec![]));
        assert_eq!(receive(&mut rx, 2, body(2)), (RxVerdict::Buffered, vec![]));
        assert_eq!(receive(&mut rx, 3, body(3)), (RxVerdict::Overflow, vec![]));
        // The gap fill still releases what was buffered.
        assert_eq!(
            receive(&mut rx, 0, body(0)),
            (RxVerdict::Deliver(3), vec![0, 1, 2])
        );
    }

    /// Satellite: standalone-ACK generation for one-directional traffic.
    /// The receiver accrues ACK debt with nothing to piggyback on; taking
    /// the ACK clears the debt; re-ACK debt accrues for stale duplicates
    /// (the lost-ACK recovery path).
    #[test]
    fn standalone_ack_debt_for_one_directional_traffic() {
        let c = cfg();
        let mut rx = LinkRx::new(&c);
        assert_eq!(rx.ack_owed, 0);
        for i in 0..3u32 {
            assert_eq!(
                receive(&mut rx, i, body(i as u64)),
                (RxVerdict::Deliver(1), vec![i as u64])
            );
        }
        assert_eq!(rx.ack_owed, 3);
        assert_eq!(rx.take_ack(), 3);
        assert_eq!(rx.ack_owed, 0);

        // A retransmitted (already-delivered) packet re-raises the debt so
        // a fresh standalone ACK gets generated even though nothing new
        // was delivered — otherwise a sender whose ACK was lost would
        // retry to death.
        assert_eq!(receive(&mut rx, 1, body(1)), (RxVerdict::Duplicate, vec![]));
        assert_eq!(rx.ack_owed, 1);
        assert_eq!(rx.take_ack(), 3);
    }

    /// Regression: every verdict that consumes a packet without a later
    /// delivery ACK (behind-window duplicate, buffered duplicate, window
    /// overflow) must accrue ACK debt, so deliver_packet's threshold check
    /// can emit a standalone ACK even when the receiver rank never pumps.
    #[test]
    fn buffered_duplicate_and_overflow_accrue_ack_debt() {
        let mut c = cfg();
        c.window = 2;
        let mut rx = LinkRx::new_at(&c, 0);
        assert_eq!(receive(&mut rx, 1, body(1)), (RxVerdict::Buffered, vec![]));
        assert_eq!(rx.ack_owed, 0, "first arrival is ACKed on delivery");
        assert_eq!(receive(&mut rx, 1, body(1)), (RxVerdict::Duplicate, vec![]));
        assert_eq!(rx.ack_owed, 1, "buffered duplicate owes an ACK");
        assert_eq!(receive(&mut rx, 2, body(2)), (RxVerdict::Buffered, vec![]));
        assert_eq!(receive(&mut rx, 3, body(3)), (RxVerdict::Overflow, vec![]));
        assert_eq!(rx.ack_owed, 2, "overflow drop owes an ACK");
        assert_eq!(rx.dups, 1);
    }

    /// One deterministic lossy exchange replayed at the pure state-machine
    /// level with a manual clock, under both ACK-debt policies.
    ///
    /// Wire: seqs 0..=2 are dropped on traversals `drop_range`; 3..=5
    /// always arrive (but land as buffered-dups / overflow with a
    /// 2-packet window while the seq-2 gap persists). ACKs are only sent
    /// when debt reaches `ack_every` — modeling a receiver rank that is
    /// busy computing and never reaches its tick-driven ACK flush.
    struct SimOutcome {
        resend_rounds: u32,
        tx_dead: bool,
        delivered_all: bool,
    }

    fn simulate_front_loss(uniform_debt: bool) -> SimOutcome {
        let mut c = cfg();
        c.window = 2;
        c.max_retries = 3;
        let mut tx = LinkTx::new(&c);
        let mut rx = LinkRx::new(&c);
        // Old-policy debt: deliveries + behind-window duplicates only.
        let mut old_debt: u32 = 0;
        let mut traversals = [0u32; 6];
        let mut now: u64 = 0;
        let mut resend_rounds = 0u32;

        let mut transmit =
            |batch: &[Pending], tx: &mut LinkTx, rx: &mut LinkRx, old_debt: &mut u32, now: u64| {
                for p in batch {
                    let s = p.seq as usize;
                    traversals[s] += 1;
                    // Bursty front loss: the delivered prefix's retransmits
                    // (and the seq-2 gap) vanish for several rounds.
                    let dropped = match p.seq {
                        0 | 1 => (2..=4).contains(&traversals[s]),
                        2 => traversals[s] <= 4,
                        _ => false,
                    };
                    if dropped {
                        continue;
                    }
                    let behind = p.seq.wrapping_sub(rx.expected) >= 0x8000_0000;
                    match rx.receive(p.seq, p.body.clone(), drop) {
                        RxVerdict::Deliver(n) => *old_debt += n,
                        RxVerdict::Duplicate if behind => *old_debt += 1,
                        _ => {}
                    }
                    let debt = if uniform_debt { rx.ack_owed } else { *old_debt };
                    if debt >= rx_cfg_ack_every() {
                        let cum = rx.take_ack();
                        *old_debt = 0;
                        tx.on_ack(cum, now);
                    }
                }
            };
        fn rx_cfg_ack_every() -> u32 {
            ReliabilityConfig::on().ack_every
        }

        let initial: Vec<Pending> = (0..6u64)
            .map(|i| {
                let b = body(i);
                Pending {
                    seq: tx.prepare(b.clone(), None, now),
                    body: b,
                    crc: None,
                    sent_at_us: now,
                    rexmit: false,
                }
            })
            .collect();
        transmit(&initial, &mut tx, &mut rx, &mut old_debt, now);

        while tx.in_flight() > 0 && !tx.dead {
            now += 200_000; // far past any backoff deadline
            match tx.tick(now) {
                TxTick::Resend(batch) => {
                    resend_rounds += 1;
                    transmit(&batch, &mut tx, &mut rx, &mut old_debt, now);
                }
                TxTick::Dead => break,
                TxTick::Idle => {}
            }
        }
        SimOutcome {
            resend_rounds,
            tx_dead: tx.dead,
            delivered_all: rx.cum_ack() == 6 && tx.in_flight() == 0,
        }
    }

    /// Regression pinning the before/after behavior: under the old policy
    /// the sender burns its whole retry budget and declares the peer dead
    /// even though the receiver observed every retransmit round; with
    /// uniform ACK debt the buffered-dup/overflow arrivals trigger the
    /// standalone ACK that retires the delivered prefix and the exchange
    /// completes.
    #[test]
    fn uniform_ack_debt_prevents_dry_retry_death() {
        let old = simulate_front_loss(false);
        assert!(old.tx_dead, "old policy: retries burn to PeerUnreachable");
        assert!(!old.delivered_all);
        assert_eq!(old.resend_rounds, 3, "died after exactly max_retries");

        let new = simulate_front_loss(true);
        assert!(!new.tx_dead, "uniform debt: ACKs keep the sender alive");
        assert!(new.delivered_all, "every packet delivered and retired");
        assert_eq!(new.resend_rounds, 6, "pinned retransmit count");
    }

    /// RFC-6298 estimator: the first sample seeds SRTT = R, RTTVAR = R/2
    /// (so RTO = 3R, clamped), and repeated identical samples converge the
    /// variance toward zero so the RTO settles near SRTT + G at the clamp
    /// floor.
    #[test]
    fn adaptive_rto_converges_on_stable_rtt() {
        let c = cfg().with_rto_bounds(10, 50_000);
        let mut tx = LinkTx::new(&c);
        assert_eq!(tx.rto_us(), 200, "no samples yet: fixed schedule");
        assert_eq!(tx.srtt_us(), None);

        // One clean 300 µs round-trip: RTO = SRTT + 4·RTTVAR = 300 + 600.
        tx.prepare(body(0), None, 1_000);
        tx.on_ack(1, 1_300);
        assert_eq!(tx.srtt_us(), Some(300));
        assert_eq!(tx.rto_us(), 900);

        // A steady stream of identical samples decays the variance; the
        // RTO approaches SRTT (plus the granularity floor).
        let mut now = 2_000;
        for i in 1..60u32 {
            tx.prepare(body(i as u64), None, now);
            tx.on_ack(i + 1, now + 300);
            now += 1_000;
        }
        assert_eq!(tx.srtt_us(), Some(300));
        let settled = tx.rto_us();
        assert!(
            (300..=320).contains(&settled),
            "variance should decay: rto = {settled}"
        );

        // High jitter re-inflates it.
        for i in 60..80u32 {
            tx.prepare(body(i as u64), None, now);
            let rtt = if i % 2 == 0 { 100 } else { 2_000 };
            tx.on_ack(i + 1, now + rtt);
            now += 10_000;
        }
        assert!(tx.rto_us() > 1_000, "jitter must widen the RTO");
    }

    /// Karn's algorithm: a packet that was retransmitted contributes no
    /// RTT sample — its ACK is ambiguous between transmissions.
    #[test]
    fn karn_excludes_retransmitted_packets_from_sampling() {
        let c = cfg();
        let mut tx = LinkTx::new(&c);
        tx.prepare(body(1), None, 0);
        assert!(matches!(tx.tick(200), TxTick::Resend(_)));
        // The ACK arrives after the retransmission: no sample.
        tx.on_ack(1, 50_000);
        assert_eq!(tx.srtt_us(), None);
        assert_eq!(tx.rto_us(), 200, "still on the fixed schedule");

        // A fresh, never-retransmitted packet does sample.
        tx.prepare(body(2), None, 60_000);
        tx.on_ack(2, 60_150);
        assert_eq!(tx.srtt_us(), Some(150));
    }

    /// Full-strength Karn: a packet that was *never* retransmitted itself
    /// but sat in the queue across a retransmission round is also excluded
    /// — its ACK was delayed by the recovery (head-of-line blocking behind
    /// the resent front), so its send→ack span measures the stall, not the
    /// path. Sampling it inflates SRTT and spirals the RTO upward.
    #[test]
    fn karn_excludes_packets_sent_before_the_last_retransmit_round() {
        let c = cfg().with_retransmit_budget(1);
        let mut tx = LinkTx::new(&c);
        tx.prepare(body(1), None, 0);
        tx.prepare(body(2), None, 50);
        // The round at t=200 resends only the front packet (budget 1);
        // seq 1 keeps `rexmit == false` but predates the round.
        let TxTick::Resend(batch) = tx.tick(200) else {
            panic!("timer should fire");
        };
        assert_eq!(batch.len(), 1);
        // A late cumulative ACK retires both. Neither may sample: seq 0 was
        // retransmitted, seq 1 waited behind it.
        tx.on_ack(2, 100_000);
        assert_eq!(tx.srtt_us(), None, "head-of-line victim must not sample");
        assert_eq!(tx.rto_us(), 200, "still on the fixed schedule");

        // Traffic sent after the round measures the real path again.
        tx.prepare(body(3), None, 200_000);
        tx.on_ack(3, 200_150);
        assert_eq!(tx.srtt_us(), Some(150));
    }

    /// The retransmit budget caps each timer round at the front of the
    /// queue; `0` means the whole queue (the pre-budget behavior).
    #[test]
    fn retransmit_budget_caps_resend_batch() {
        let c = cfg().with_retransmit_budget(4);
        let mut tx = LinkTx::new(&c);
        for i in 0..10u64 {
            tx.prepare(body(i), None, 0);
        }
        let TxTick::Resend(batch) = tx.tick(200) else {
            panic!("timer should fire");
        };
        assert_eq!(batch.len(), 4, "budget caps the burst");
        let seqs: Vec<u32> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "front of the queue goes first");

        let unlimited = cfg().with_retransmit_budget(0);
        let mut tx = LinkTx::new(&unlimited);
        for i in 0..10u64 {
            tx.prepare(body(i), None, 0);
        }
        let TxTick::Resend(batch) = tx.tick(200) else {
            panic!("timer should fire");
        };
        assert_eq!(batch.len(), 10, "budget 0 resends everything");
    }

    /// RTT samples steer the real retransmit deadline: after the estimator
    /// locks onto a fast link, the next timer arms at the estimated RTO
    /// (clamped below by `min_rto_us`), not the fixed base.
    #[test]
    fn estimated_rto_drives_deadline() {
        let c = cfg(); // min 50 µs
        let mut tx = LinkTx::new(&c);
        tx.prepare(body(0), None, 0);
        tx.on_ack(1, 10); // 10 µs RTT → RTO clamps to min 50
        assert_eq!(tx.rto_us(), 50);
        tx.prepare(body(1), None, 1_000);
        assert_eq!(tx.deadline(), 1_050);
        assert!(matches!(tx.tick(1_049), TxTick::Idle));
        assert!(matches!(tx.tick(1_050), TxTick::Resend(_)));
    }

    /// A fast estimated RTO runs the retry budget down in a fraction of
    /// the fixed schedule's time; the peer is declared dead only once it
    /// has also been silent for that whole schedule (8 rounds of 200 µs
    /// doubling to a 12.8 ms cap: 50.8 ms).
    #[test]
    fn a_fast_rto_retries_for_as_long_as_the_fixed_schedule() {
        let mut tx = LinkTx::new(&cfg());
        tx.prepare(body(0), None, 0);
        tx.on_ack(1, 10); // RTO clamps to 50 µs
        tx.prepare(body(1), None, 1_000);
        let mut rounds = 0;
        let now = loop {
            let now = tx.deadline();
            match tx.tick(now) {
                TxTick::Resend(_) => rounds += 1,
                TxTick::Dead => break now,
                TxTick::Idle => unreachable!("ticked at the deadline"),
            }
        };
        assert!(rounds > 8, "only {rounds} rounds");
        assert!(now - 1_000 >= 50_800, "dead after {} µs", now - 1_000);
        assert!(
            now - 1_000 < 50_800 + 3_200,
            "dead after {} µs",
            now - 1_000
        );
    }

    fn seqs(batch: &[Pending]) -> Vec<u32> {
        batch.iter().map(|p| p.seq).collect()
    }

    /// A link with packets `0..n` in flight, sent at `now`.
    fn in_flight(c: &ReliabilityConfig, n: u64, now: u64) -> LinkTx {
        let mut tx = LinkTx::new(c);
        for i in 0..n {
            tx.prepare(body(i), None, now);
        }
        tx
    }

    /// A hole with `DUP_THRESH` SACKed packets above it is resent at once,
    /// once per recovery episode; the next episode starts once the
    /// cumulative ACK passes the recovery point.
    #[test]
    fn a_hole_with_three_sacked_above_is_resent_at_once_and_once_per_episode() {
        let mut tx = in_flight(&cfg(), 10, 0);
        // Seq 0 is lost; 1, 2 and 3 arrive one by one, each answered by an
        // ACK for 0 with a growing SACK.
        assert!(tx.on_sack(0, 0b1, 5).is_empty());
        assert!(tx.on_sack(0, 0b11, 5).is_empty());
        assert_eq!(seqs(&tx.on_sack(0, 0b111, 5)), vec![0]);
        // More SACKs in the same episode do not resend it again.
        assert!(tx.on_sack(0, 0b1111, 6).is_empty());
        // The resend fills the hole: 0..=4 delivered. Then 5 is lost and
        // 6, 7, 8 arrive: a new episode, a new fast resend.
        tx.on_ack(5, 10);
        assert!(tx.on_sack(5, 0b11, 11).is_empty());
        assert_eq!(seqs(&tx.on_sack(5, 0b111, 12)), vec![5]);

        // Two holes under the threshold go in one batch, in order; a hole
        // with fewer SACKed above it waits.
        let mut tx = in_flight(&cfg(), 11, 0);
        // Held: 1, 3, 4, 5, 6 and 8 (bit `i` is seq `cum + 1 + i`).
        let lost = tx.on_sack(0, 0b1011_1101, 1);
        assert_eq!(seqs(&lost), vec![0, 2], "7 has only one SACKed above it");
        assert!(lost.iter().all(|p| p.body == body(p.seq as u64)));
        // 9 and 10 arrive: now 7 qualifies, and only 7 is new.
        assert!(tx.on_sack(0, 0b1_1011_1101, 2).is_empty());
        assert_eq!(seqs(&tx.on_sack(0, 0b11_1011_1101, 2)), vec![7]);
        // A stale ACK (for a point the front has passed) is ignored.
        tx.on_ack(3, 3);
        assert!(tx.on_sack(0, u64::MAX >> 1, 4).is_empty());
    }

    /// The receiver's bitmap drives the sender: a packet overtaken by its
    /// successor (the fault layer's reorder) costs no resend.
    #[test]
    fn a_reorder_by_one_resends_nothing() {
        let c = cfg();
        let mut tx = in_flight(&c, 4, 0);
        let mut rx = LinkRx::new(&c);
        let ack = |tx: &mut LinkTx, rx: &mut LinkRx, seq: u32| {
            receive(rx, seq, body(seq as u64));
            let (cum, sack) = (rx.take_ack(), rx.sack());
            tx.on_ack(cum, 1);
            tx.on_sack(cum, sack, 1)
        };
        for seq in [1, 0, 3, 2] {
            assert!(ack(&mut tx, &mut rx, seq).is_empty(), "seq {seq}");
        }
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.retries, 0);
    }

    /// An RTO round resends the front of the queue minus what the receiver
    /// holds, within the budget.
    #[test]
    fn an_rto_round_never_resends_a_sacked_packet() {
        // Held: 3, 4 and 6. Holes 0, 1 and 2 go fast; 5 waits.
        for (budget, want) in [(16, vec![0, 1, 2, 5, 7, 8, 9]), (4, vec![0, 1, 2, 5])] {
            let mut tx = in_flight(&cfg().with_retransmit_budget(budget), 10, 0);
            assert_eq!(seqs(&tx.on_sack(0, 0b10_1100, 1)), vec![0, 1, 2]);
            let TxTick::Resend(batch) = tx.tick(200) else {
                panic!("the timer should fire");
            };
            assert_eq!(seqs(&batch), want, "budget {budget}");
        }
        // The scoreboard moves with the front: after an ACK for 4 the
        // receiver holds 6 (bit 1) and the round skips it.
        let mut tx = in_flight(&cfg(), 8, 0);
        tx.on_ack(4, 1);
        tx.on_sack(4, 0b10, 1);
        let TxTick::Resend(batch) = tx.tick(1 + 200) else {
            panic!("the timer should fire");
        };
        assert_eq!(seqs(&batch), vec![4, 5, 7]);
    }

    /// A fast resend is not a timer round: no RTT sample (Karn), and the
    /// retry count, the backoff, the deadline and the dead verdict's
    /// schedule stay as they were.
    #[test]
    fn a_fast_resend_gives_no_rtt_sample_and_leaves_retries_and_backoff() {
        let mut tx = in_flight(&cfg(), 5, 0);
        let (deadline, dead_after) = (tx.deadline(), tx.dead_after_us);
        assert_eq!(seqs(&tx.on_sack(0, 0b111, 30)), vec![0]);
        assert_eq!((tx.retries, tx.backoff_exp), (0, 0));
        assert_eq!(tx.deadline(), deadline);
        assert_eq!(tx.dead_after_us, dead_after);
        // Everything was sent before the resend: the ACK samples nothing.
        tx.on_ack(5, 40);
        assert_eq!(tx.srtt_us(), None);
        assert_eq!(tx.rto_us(), 200, "still on the fixed schedule");
        // A packet sent after it measures the path again.
        tx.prepare(body(5), None, 100);
        tx.on_ack(6, 150);
        assert_eq!(tx.srtt_us(), Some(50));

        // After timer rounds, a fast resend leaves their count alone too.
        let mut tx = in_flight(&cfg(), 5, 0);
        assert!(matches!(tx.tick(200), TxTick::Resend(_)));
        let (retries, exp, deadline) = (tx.retries, tx.backoff_exp, tx.deadline());
        assert_eq!(seqs(&tx.on_sack(0, 0b111, 300)), vec![0]);
        assert_eq!(
            (tx.retries, tx.backoff_exp, tx.deadline()),
            (retries, exp, deadline)
        );
    }

    /// The receiver reports exactly its buffered arrivals, relative to its
    /// cumulative ACK, and nothing once the gap fills.
    #[test]
    fn the_sack_bitmap_mirrors_the_reorder_buffer() {
        let c = cfg();
        let start = u32::MAX - 1;
        let mut rx = LinkRx::new_at(&c, start);
        assert_eq!(rx.sack(), 0);
        for off in [1u32, 3, 64, 65] {
            assert_eq!(
                receive(&mut rx, start.wrapping_add(off), body(off as u64)),
                (RxVerdict::Buffered, vec![])
            );
        }
        // Offsets 1, 3 and 64 are bits 0, 2 and 63; 65 is past the map.
        assert_eq!(rx.sack(), 1 | 1 << 2 | 1 << 63);
        assert_eq!(
            receive(&mut rx, start, body(0)),
            (RxVerdict::Deliver(2), vec![0, 1])
        );
        assert_eq!(rx.cum_ack(), start.wrapping_add(2));
        assert_eq!(rx.sack(), 1 | 1 << 61 | 1 << 62);
    }

    #[test]
    fn probe_bodies_checksum_and_corrupt() {
        let p = PacketBody::Probe(0xABCD);
        let a = PacketBody::ProbeAck(0xABCD);
        assert_ne!(p.checksum(), a.checksum(), "probe and ack must differ");
        assert_eq!(p.payload_len(), 0);
        for pick in [0u64, 7, u64::MAX] {
            assert_ne!(p.corrupted(pick).checksum(), p.checksum());
            assert_ne!(a.corrupted(pick).checksum(), a.checksum());
        }
    }

    /// No peer costs anything until the first packet crosses its link —
    /// the regression test for the dense `(0..n)` allocation this state
    /// used to carry (O(ranks²) fabric-wide).
    #[test]
    fn links_materialize_lazily_and_never_for_silent_peers() {
        let on = ProviderProfile::infinite().with_reliability(ReliabilityConfig::on());
        let mut s = ReliaState::new_vci(&on, NetAddr(0), 0);
        assert_eq!(s.n_links(), 0, "construction allocates no per-peer state");
        assert_eq!(s.resident_link_bytes(), 0);

        // Touch two peers out of a notionally huge fabric.
        s.link_mut(NetAddr(1));
        s.link_mut(NetAddr(1023));
        assert_eq!(s.n_links(), 2, "only contacted peers are resident");
        assert!(s.link(NetAddr(5)).is_none(), "silent peer: no allocation");
        assert!(s.resident_link_bytes() >= 2 * std::mem::size_of::<Link>() as u64);
        // Link order is ascending by peer, matching the old dense sweep.
        let peers: Vec<u32> = s.links().map(|(p, _)| p.0).collect();
        assert_eq!(peers, vec![1, 1023]);
    }

    /// Reclaiming an idle link and touching it again resumes both sequence
    /// spaces and the fault stream exactly where they stopped.
    #[test]
    fn reclaimed_link_resumes_seq_and_fault_stream() {
        use crate::fault::FaultPlan;
        let profile = ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(7, FaultSpec::percent(10, 0, 0, 0)))
            .reliable();
        let mut s = ReliaState::new_vci(&profile, NetAddr(0), 0);
        let peer = NetAddr(3);
        {
            let link = s.link_mut(peer);
            for i in 0..5u64 {
                let seq = link.tx.prepare(PacketBody::Probe(i), None, 0);
                assert_eq!(seq, i as u32);
            }
            link.tx.on_ack(5, 10); // retire everything → idle
            link.fault_rng.next_u64(); // advance the fault stream
        }
        let rng_after = {
            let mut probe = s.link(peer).expect("resident").fault_rng.clone();
            probe.next_u64()
        };
        s.reclaim_idle();
        assert_eq!(s.n_links(), 0, "idle link was reclaimed");
        assert!(
            s.resident_link_bytes() < std::mem::size_of::<Link>() as u64,
            "a memento is a few words, not a full link"
        );
        let link = s.link_mut(peer);
        assert_eq!(link.tx.next_seq(), 5, "sequence space resumes, not resets");
        assert_eq!(link.rx.cum_ack(), 0);
        assert_eq!(
            link.fault_rng.next_u64(),
            rng_after,
            "fault stream resumes mid-sequence"
        );
    }

    /// A link with protocol obligations (unacked packets, ACK debt,
    /// buffered reorders) survives reclamation untouched.
    #[test]
    fn busy_links_are_never_reclaimed() {
        let on = ProviderProfile::infinite().with_reliability(ReliabilityConfig::on());
        let mut s = ReliaState::new_vci(&on, NetAddr(0), 0);
        s.link_mut(NetAddr(1))
            .tx
            .prepare(PacketBody::Probe(0), None, 0);
        receive(&mut s.link_mut(NetAddr(2)).rx, 0, PacketBody::Probe(1));
        s.link_mut(NetAddr(3)); // idle from birth
        s.reclaim_idle();
        let peers: Vec<u32> = s.links().map(|(p, _)| p.0).collect();
        assert_eq!(peers, vec![1, 2], "only the idle link was reclaimed");
    }

    /// Death is sticky across reclamation.
    #[test]
    fn dead_flag_survives_reclamation() {
        let on = ProviderProfile::infinite().with_reliability(ReliabilityConfig::on());
        let mut s = ReliaState::new_vci(&on, NetAddr(0), 0);
        s.link_mut(NetAddr(9)).dead = true;
        s.reclaim_idle();
        assert_eq!(s.n_links(), 0);
        assert!(s.is_dead(NetAddr(9)), "memento remembers the corpse");
        assert!(!s.is_dead(NetAddr(10)), "unknown peers default to alive");
        assert!(s.link_mut(NetAddr(9)).dead, "rematerialized still dead");
    }

    #[test]
    fn vci_zero_fault_seeds_match_unsharded_and_higher_vcis_differ() {
        use crate::fault::FaultPlan;
        let profile = ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(7, FaultSpec::percent(10, 0, 0, 0)))
            .reliable();
        let mut v0a = ReliaState::new_vci(&profile, NetAddr(0), 0);
        let mut v0b = ReliaState::new_vci(&profile, NetAddr(0), 0);
        let mut v1 = ReliaState::new_vci(&profile, NetAddr(0), 1);
        // Same construction → same RNG stream; a different VCI diverges.
        let mut a = v0a.link_mut(NetAddr(1)).fault_rng.clone();
        let mut b = v0b.link_mut(NetAddr(1)).fault_rng.clone();
        let mut c = v1.link_mut(NetAddr(1)).fault_rng.clone();
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }
}
