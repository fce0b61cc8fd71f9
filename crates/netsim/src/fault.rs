//! Composable, deterministic fault plans for the simulated network.
//!
//! A [`FaultPlan`] describes *how the network degrades* independently of
//! the servers attached to it: uniform loss, response corruption, and a
//! response-size model that truncates UDP replies exceeding the
//! negotiated EDNS payload size.
//!
//! Every probabilistic decision is a deterministic FNV-1a hash over
//! `(plan seed, fault kind, destination, message id, qname)`, so a run
//! with a given seed and query stream reproduces bit-for-bit. No
//! decision reads the clock.
//!
//! Attach a plan to a [`crate::Network`] and watch it fire through the
//! `FaultInjected` trace events; [`crate::TrafficStats`] counts the same
//! decisions for sinkless reconciliation.

use ede_wire::Message;
use std::net::IpAddr;

/// A composable, deterministic fault plan.
///
/// The empty plan ([`FaultPlan::new`] with no knobs turned) injects
/// nothing: attaching it leaves the network's behavior bit-identical to
/// having no plan at all.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FaultPlan {
    /// Seed for every probabilistic decision this plan makes.
    pub seed: u64,
    /// Uniform extra loss probability in `[0, 1]`.
    pub loss: f64,
    /// Probability in `[0, 1]` that a delivered reply arrives garbled —
    /// modeled as the server answering FORMERR with empty sections.
    pub corrupt: f64,
    /// Response-size model: when set, a UDP reply larger than
    /// `min(this, the client's advertised EDNS payload size)` is
    /// replaced by its TC=1 truncation (the stream channel is exempt).
    pub udp_payload_limit: Option<u16>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0x0EDE_FA17)
    }
}

impl FaultPlan {
    /// An empty (no-op) plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            corrupt: 0.0,
            udp_payload_limit: None,
        }
    }

    /// A plan set from one `intensity` in `[0, 1]`: loss = intensity,
    /// corruption = intensity / 4, and — above zero — the RFC
    /// 9715-recommended 1232-byte payload cap so oversized answers
    /// exercise the TC/stream path. Intensity 0 is the no-op plan.
    pub fn intensity(seed: u64, intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new(seed);
        if i > 0.0 {
            plan.loss = i;
            plan.corrupt = i / 4.0;
            plan.udp_payload_limit = Some(1232);
        }
        plan
    }

    /// Set the uniform extra loss probability.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.loss = rate;
        self
    }

    /// Set the response-corruption probability.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt = rate;
        self
    }

    /// Enable the response-size model with the given link-level cap.
    pub fn with_udp_payload_limit(mut self, limit: u16) -> Self {
        self.udp_payload_limit = Some(limit);
        self
    }

    /// True when the plan can never change any exchange.
    pub fn is_noop(&self) -> bool {
        self.loss <= 0.0 && self.corrupt <= 0.0 && self.udp_payload_limit.is_none()
    }

    /// Probabilistic loss: is this exchange to be dropped?
    pub fn loses(&self, dst: IpAddr, query: &Message) -> bool {
        self.loss > 0.0 && self.decide(1, dst, query) < self.loss
    }

    /// Should this delivered reply come back garbled (FORMERR)?
    pub fn corrupts(&self, dst: IpAddr, query: &Message) -> bool {
        self.corrupt > 0.0 && self.decide(3, dst, query) < self.corrupt
    }

    /// The effective UDP payload limit negotiated for `query`, when the
    /// response-size model is on: the link cap meets the client's EDNS
    /// advertisement, floored at the classic 512-byte minimum.
    pub fn negotiated_limit(&self, query: &Message) -> Option<u16> {
        self.udp_payload_limit
            .map(|cap| cap.max(512).min(query.advertised_payload_size()))
    }

    /// One deterministic uniform draw in `[0, 1)` per (kind, flow).
    fn decide(&self, salt: u64, dst: IpAddr, query: &Message) -> f64 {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.seed;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        mix(&salt.to_be_bytes());
        match dst {
            IpAddr::V4(a) => mix(&a.octets()),
            IpAddr::V6(a) => mix(&a.octets()),
        }
        mix(&query.id.to_be_bytes());
        if let Some(q) = query.first_question() {
            mix(&q.name.to_wire());
        }
        h as f64 / u64::MAX as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::{Name, RrType};

    fn q(id: u16) -> Message {
        Message::query(id, Name::parse("example.com").unwrap(), RrType::A)
    }

    fn ip() -> IpAddr {
        "93.184.216.34".parse().unwrap()
    }

    #[test]
    fn empty_plan_is_noop() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_noop());
        assert!(!plan.loses(ip(), &q(1)));
        assert!(!plan.corrupts(ip(), &q(1)));
        assert_eq!(plan.negotiated_limit(&q(1)), None);
        assert!(FaultPlan::intensity(9, 0.0).is_noop());
    }

    #[test]
    fn decisions_are_deterministic_and_calibrated() {
        let plan = FaultPlan::new(42).with_loss(0.3);
        let first: Vec<bool> = (0..500).map(|i| plan.loses(ip(), &q(i))).collect();
        let again: Vec<bool> = (0..500).map(|i| plan.loses(ip(), &q(i))).collect();
        assert_eq!(first, again);
        let lost = first.iter().filter(|&&l| l).count();
        assert!(
            (80..=220).contains(&lost),
            "~30% loss expected, got {lost}/500"
        );

        // Loss and corruption draws are independent (different salts).
        let both = FaultPlan::new(42).with_loss(0.3).with_corruption(0.3);
        let disagree = (0..500)
            .filter(|&i| both.loses(ip(), &q(i)) != both.corrupts(ip(), &q(i)))
            .count();
        assert!(disagree > 100, "independent draws must diverge: {disagree}");
    }

    #[test]
    fn negotiated_limit_meets_client_advertisement() {
        let plan = FaultPlan::new(1).with_udp_payload_limit(1400);
        // Client advertises 1232 (the crate default) — the smaller wins.
        assert_eq!(plan.negotiated_limit(&q(1)), Some(1232));
        let tight = FaultPlan::new(1).with_udp_payload_limit(100);
        // Link caps below the RFC minimum are floored at 512.
        assert_eq!(tight.negotiated_limit(&q(1)), Some(512));
    }
}
