//! Pins [`VendorProfile::emit`] over an enumerated diagnosis space.
//!
//! Every `Finding` variant is instantiated at every parameter value an
//! emission rule could tell apart; every diagnosis of at most three of
//! those shapes (pairs in both orders — the Invalid Data text comes from
//! the *first* `EdnsNotSupported`) is crossed with four `ns_events`
//! lists and the seven vendors, and each emitted entry's code and
//! EXTRA-TEXT is folded, in output order, into one FNV-1a hash.
//!
//! The golden was recorded on the hand-written emission ladders at
//! cc416fb, before they became rule tables; it moves only if some
//! vendor's output for some diagnosis changes.

use ede_resolver::diagnosis::{
    AlgStatus, DenialIssue, Diagnosis, DsMismatch, Finding, NegativeKind, NsEvent, NsFailure,
    SigTarget,
};
use ede_resolver::VendorProfile;
use ede_wire::{Name, RrType};

const GOLDEN: u64 = 0x7fec_0cb5_13a0_94d9;
const EMISSIONS: u64 = 1_223_068;

// `fn shapes() -> Vec<Finding>`: the 63 instantiations, shared with the
// agreement test in `profiles::tests`.
include!("common/shapes.rs");

fn event_lists() -> Vec<Vec<NsEvent>> {
    let ev = |last: u8, failure| NsEvent {
        addr: std::net::Ipv4Addr::new(198, 51, 100, last).into(),
        failure,
        qname: Name::parse("www.example.com").unwrap(),
        qtype: RrType::A,
    };
    vec![
        vec![],
        vec![ev(1, NsFailure::Refused)],
        vec![ev(2, NsFailure::Timeout)],
        vec![ev(2, NsFailure::Timeout), ev(3, NsFailure::ServFail)],
    ]
}

struct Fold {
    hash: u64,
    emissions: u64,
    profiles: Vec<VendorProfile>,
    events: Vec<Vec<NsEvent>>,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Fold {
    /// Emit `findings` under every event list and vendor.
    fn diagnosis(&mut self, findings: &[&Finding]) {
        for events in &self.events {
            let mut diag = Diagnosis::new();
            diag.findings = findings.iter().map(|f| (*f).clone()).collect();
            diag.ns_events = events.clone();
            for profile in &self.profiles {
                for entry in profile.emit(&diag) {
                    fnv1a(&mut self.hash, &entry.code.to_u16().to_be_bytes());
                    fnv1a(&mut self.hash, entry.extra_text.as_bytes());
                    fnv1a(&mut self.hash, &[0]);
                }
                // End of one emission, so entries cannot migrate
                // between neighbours unnoticed.
                fnv1a(&mut self.hash, &[0xff]);
                self.emissions += 1;
            }
        }
    }
}

#[test]
fn emission_is_pinned_over_the_enumerated_diagnosis_space() {
    let shapes = shapes();
    assert_eq!(shapes.len(), 63);
    let mut fold = Fold {
        hash: 0xcbf2_9ce4_8422_2325,
        emissions: 0,
        profiles: VendorProfile::all(),
        events: event_lists(),
    };

    fold.diagnosis(&[]);
    for (i, a) in shapes.iter().enumerate() {
        fold.diagnosis(&[a]);
        for (j, b) in shapes.iter().enumerate() {
            if i != j {
                fold.diagnosis(&[a, b]);
            }
        }
        for (j, b) in shapes.iter().enumerate().skip(i + 1) {
            for c in &shapes[j + 1..] {
                fold.diagnosis(&[a, b, c]);
            }
        }
    }

    assert_eq!(fold.emissions, EMISSIONS);
    assert_eq!(
        fold.hash, GOLDEN,
        "emission changed: got {:016x}, pinned {GOLDEN:016x}",
        fold.hash
    );
}
