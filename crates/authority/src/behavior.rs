//! Server fault behaviors observed by the paper.

use std::net::IpAddr;

/// How a server (mis)behaves before any zone logic runs.
///
/// These reproduce the §3 testbed ACL cases and the §4.2 wild-scan
/// failure modes: REFUSED (267 k nameservers), SERVFAIL (21 k), timeouts
/// (15 k), NOTAUTH (§4.2.13) and EDNS-oblivious servers (§4.2.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// Answer normally.
    Normal,
    /// REFUSED to every client (`allow-query-none`, and the dominant
    /// broken-nameserver mode in the wild scan).
    RefuseAll,
    /// REFUSED unless the source address is on the list
    /// (`allow-query-localhost`).
    AllowOnly(Vec<IpAddr>),
    /// SERVFAIL to everything.
    ServfailAll,
    /// NOTAUTH to everything — unexpected outside TSIG processing, yet
    /// observed on 8 domains' nameservers (§4.2.13).
    NotAuthAll,
    /// Silently drop every query (dead host).
    Timeout,
    /// Pre-EDNS legacy server: answers, but ignores the OPT record and
    /// never includes one in responses (§4.2.6 *Invalid Data*).
    NoEdns,
}

impl Behavior {
    /// The standard localhost ACL used by `allow-query-localhost`.
    pub fn allow_localhost_only() -> Self {
        Behavior::AllowOnly(vec![
            "127.0.0.1".parse().expect("valid"),
            "::1".parse().expect("valid"),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localhost_acl_contents() {
        match Behavior::allow_localhost_only() {
            Behavior::AllowOnly(addrs) => {
                assert_eq!(addrs.len(), 2);
                assert!(addrs.iter().all(|a| a.is_loopback()));
            }
            _ => unreachable!(),
        }
    }
}
