//! Deterministic fault injection: the lossy-fabric model.
//!
//! The paper's cost accounting assumes the provider delivers reliable,
//! ordered messaging — on Omni-Path that reliability is itself implemented
//! in software (PSM2), so it is part of the real critical path being
//! measured. To charge that work honestly, the fabric must first be allowed
//! to misbehave: a [`FaultPlan`] describes *how* (drop / duplicate /
//! reorder / corrupt probabilities, per-link overrides, and a "kill
//! endpoint N after k packets" switch), all driven by a seeded
//! deterministic RNG so every failure run is replayable. The faults land
//! under the reliability protocol (`reliability.rs`): a profile that
//! carries a plan other than [`FaultPlan::NONE`] routes every packet over
//! the reliable link, so a fault is one the protocol repairs or, once a
//! link's retry budget runs out, reports as a dead peer.
//!
//! A plan is carried by value inside [`ProviderProfile`]
//! (which is `Copy + PartialEq` with `const fn` constructors), so every
//! type here is a plain `Copy` struct with fixed-size storage — no heap,
//! no clocks, no global state.
//!
//! [`ProviderProfile`]: crate::cost::ProviderProfile

use crate::addr::NetAddr;

/// Probabilities are expressed in 1/65536ths: 0 = never, `Chance::MAX`
/// (65535) = always. [`FaultSpec::percent`] converts from whole percentages.
pub type Chance = u16;

/// Per-link fault probabilities (each in 1/65536ths, see [`Chance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability a packet silently vanishes.
    pub drop: Chance,
    /// Probability a packet is delivered twice.
    pub duplicate: Chance,
    /// Probability a data packet is held back so a later one overtakes
    /// it (a standalone ACK draws the chance but is never held).
    pub reorder: Chance,
    /// Probability one payload byte is flipped in flight.
    pub corrupt: Chance,
}

impl FaultSpec {
    /// A perfectly behaved link.
    pub const NONE: FaultSpec = FaultSpec {
        drop: 0,
        duplicate: 0,
        reorder: 0,
        corrupt: 0,
    };

    /// Build a spec from whole percentages (values above 100 saturate).
    pub const fn percent(drop: u8, duplicate: u8, reorder: u8, corrupt: u8) -> FaultSpec {
        const fn pct(p: u8) -> Chance {
            let p = if p > 100 { 100 } else { p as u32 };
            let v = p * 65536 / 100;
            if v > 65535 {
                65535
            } else {
                v as Chance
            }
        }
        FaultSpec {
            drop: pct(drop),
            duplicate: pct(duplicate),
            reorder: pct(reorder),
            corrupt: pct(corrupt),
        }
    }

    /// `true` when every probability is zero.
    pub const fn is_none(self) -> bool {
        self.drop == 0 && self.duplicate == 0 && self.reorder == 0 && self.corrupt == 0
    }
}

/// Maximum number of per-link overrides a plan can carry (fixed-size so the
/// plan stays `Copy`).
pub const MAX_LINK_OVERRIDES: usize = 4;

/// Overrides the base [`FaultSpec`] for one directed (src, dst) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOverride {
    /// Sending endpoint index.
    pub src: u32,
    /// Receiving endpoint index.
    pub dst: u32,
    /// Fault probabilities for that link only.
    pub spec: FaultSpec,
}

/// "Kill endpoint N after k packets": the `after_packets`-th data packet
/// sent by the victim or addressed to it goes through, and from then on
/// every packet to or from it vanishes — modeling a node death / link
/// down. Only a data packet's first transmission counts: retransmits and
/// ACKs do not, so no timer or ACK schedule moves the packet that trips
/// the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSwitch {
    /// The endpoint to kill.
    pub endpoint: u32,
    /// How many data packets it may send or be sent before dying.
    pub after_packets: u64,
}

/// A complete, deterministic description of how the fabric misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-link decision RNGs; two runs with the same plan see
    /// the same faults on each link.
    pub seed: u64,
    /// Fault probabilities applied to every link without an override.
    pub base: FaultSpec,
    /// Per-link overrides (first match wins).
    pub overrides: [Option<LinkOverride>; MAX_LINK_OVERRIDES],
    /// Optional endpoint-death switch.
    pub kill: Option<KillSwitch>,
}

impl FaultPlan {
    /// The perfect fabric: no faults anywhere. Profiles carrying this plan
    /// are byte- and charge-identical to a fabric without fault support.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        base: FaultSpec::NONE,
        overrides: [None; MAX_LINK_OVERRIDES],
        kill: None,
    };

    /// Alias for [`FaultPlan::NONE`].
    pub const fn none() -> FaultPlan {
        FaultPlan::NONE
    }

    /// Apply `spec` uniformly to every link, decided by `seed`.
    pub const fn uniform(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            seed,
            base: spec,
            overrides: [None; MAX_LINK_OVERRIDES],
            kill: None,
        }
    }

    /// `true` when this plan can never alter traffic.
    pub const fn is_none(&self) -> bool {
        self.base.is_none()
            && self.kill.is_none()
            && self.overrides[0].is_none()
            && self.overrides[1].is_none()
            && self.overrides[2].is_none()
            && self.overrides[3].is_none()
    }

    /// Copy of this plan with one directed link overridden. Panics if all
    /// [`MAX_LINK_OVERRIDES`] slots are taken.
    pub fn with_link(mut self, src: u32, dst: u32, spec: FaultSpec) -> FaultPlan {
        let slot = self
            .overrides
            .iter_mut()
            .find(|s| s.is_none())
            .expect("FaultPlan override slots exhausted");
        *slot = Some(LinkOverride { src, dst, spec });
        self
    }

    /// Copy of this plan with the kill switch armed: the victim
    /// `endpoint` dies once its `after_packets`-th data packet (sent or
    /// received, first transmissions only — see [`KillSwitch`]) has been
    /// delivered. A plan with only a kill switch routes over the reliable
    /// link like any other non-empty plan, with no packet dropped,
    /// duplicated, reordered or corrupted before the switch trips.
    pub const fn with_kill(mut self, endpoint: u32, after_packets: u64) -> FaultPlan {
        self.kill = Some(KillSwitch {
            endpoint,
            after_packets,
        });
        self
    }

    /// The fault probabilities governing the directed link `src → dst`.
    pub fn spec_for(&self, src: NetAddr, dst: NetAddr) -> FaultSpec {
        for ov in self.overrides.iter().flatten() {
            if ov.src == src.0 && ov.dst == dst.0 {
                return ov.spec;
            }
        }
        self.base
    }

    /// Deterministic RNG seed for the directed link `src → dst`.
    pub fn link_seed(&self, src: NetAddr, dst: NetAddr) -> u64 {
        let mix = ((src.0 as u64) << 32 | dst.0 as u64).wrapping_mul(0x9E3779B97F4A7C15);
        // Never let the xorshift state be zero (it would stick there).
        (self.seed ^ mix) | 1
    }
}

/// Seeded xorshift64 used for per-link fault decisions. Deterministic given
/// the plan seed and the link, independent of thread scheduling on *other*
/// links.
#[derive(Debug, Clone)]
pub struct LinkRng(u64);

impl LinkRng {
    /// Seed the generator (a zero seed is remapped to a fixed constant).
    pub fn new(seed: u64) -> LinkRng {
        LinkRng(if seed == 0 {
            0x5EED_5EED_5EED_5EED
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Bernoulli draw: `true` with probability `p / 65536`, and always at
    /// `Chance::MAX`. Every nonzero `p` draws exactly once, `Chance::MAX`
    /// included, so raising a chance to 100 % shifts no later draw.
    pub fn chance(&mut self, p: Chance) -> bool {
        p > 0 && ((self.next_u64() & 0xFFFF) < p as u64 || p == Chance::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultSpec::NONE.is_none());
        assert_eq!(FaultPlan::none(), FaultPlan::NONE);
    }

    #[test]
    fn percent_maps_to_chance() {
        let s = FaultSpec::percent(100, 50, 0, 200);
        assert_eq!(s.drop, 65535); // 100% saturates the u16 range
        assert_eq!(s.duplicate, 32768);
        assert_eq!(s.reorder, 0);
        assert_eq!(s.corrupt, s.drop); // >100 clamps to 100
    }

    #[test]
    fn overrides_take_precedence() {
        let base = FaultSpec::percent(10, 0, 0, 0);
        let hot = FaultSpec::percent(90, 0, 0, 0);
        let plan = FaultPlan::uniform(1, base).with_link(0, 1, hot);
        assert!(!plan.is_none());
        assert_eq!(plan.spec_for(NetAddr(0), NetAddr(1)), hot);
        assert_eq!(plan.spec_for(NetAddr(1), NetAddr(0)), base);
        assert_eq!(plan.spec_for(NetAddr(2), NetAddr(3)), base);
    }

    #[test]
    fn kill_switch_marks_plan_active() {
        let plan = FaultPlan::none().with_kill(2, 100);
        assert!(!plan.is_none());
        assert_eq!(
            plan.kill,
            Some(KillSwitch {
                endpoint: 2,
                after_packets: 100
            })
        );
    }

    #[test]
    fn link_seeds_differ_per_direction() {
        let plan = FaultPlan::uniform(42, FaultSpec::percent(10, 0, 0, 0));
        assert_ne!(
            plan.link_seed(NetAddr(0), NetAddr(1)),
            plan.link_seed(NetAddr(1), NetAddr(0))
        );
    }

    #[test]
    fn rng_is_deterministic_and_calibrated() {
        let mut a = LinkRng::new(7);
        let mut b = LinkRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // ~20% chance should land near 20% over many draws.
        let p = FaultSpec::percent(20, 0, 0, 0).drop;
        let hits = (0..10_000).filter(|_| a.chance(p)).count();
        assert!((1_600..2_400).contains(&hits), "hits = {hits}");
        // Zero probability never fires.
        assert!(!a.chance(0));
    }

    /// `Chance::MAX` is a certainty, not 65535/65536, and it consumes one
    /// draw like every other nonzero chance.
    #[test]
    fn a_full_chance_always_fires_and_draws_once() {
        let mut rng = LinkRng::new(11);
        let misses = (0..1_000_000).filter(|_| !rng.chance(Chance::MAX)).count();
        assert_eq!(misses, 0, "a 100 % chance missed");
        let mut a = LinkRng::new(23);
        let mut b = LinkRng::new(23);
        assert!(a.chance(Chance::MAX));
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64(), "the streams fell out of step");
    }
}
