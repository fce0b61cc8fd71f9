//! Special-purpose IP address classification.
//!
//! Mirrors the IANA IPv4 and IPv6 Special-Purpose Address Registries
//! (RFC 6890 and successors) for every range the testbed's invalid-glue
//! groups 6 and 7 exercise. A glue record pointing into any of these
//! ranges can never reach a real authoritative server — the resolver's
//! connection attempt is doomed, which is what produces *No Reachable
//! Authority (22)* in the paper.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Why an address is special-purpose (not globally routable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialUse {
    /// 0.0.0.0 — "this host on this network".
    ThisHost,
    /// 10/8, 172.16/12, 192.168/16.
    Private,
    /// 127/8 or ::1.
    Loopback,
    /// 169.254/16 or fe80::/10.
    LinkLocal,
    /// 192.0.2/24, 198.51.100/24, 203.0.113/24, 2001:db8::/32.
    Documentation,
    /// 240/4 reserved for future use.
    Reserved,
    /// 224/4 or ff00::/8 multicast.
    Multicast,
    /// :: unspecified.
    Unspecified,
    /// fc00::/7 unique local.
    UniqueLocal,
    /// ::ffff:0:0/96 IPv4-mapped.
    Mapped,
    /// ::/96 deprecated IPv4-compatible ("IPv4 in hex form" /
    /// `v6-mapped-dep` in the testbed).
    MappedDeprecated,
    /// 64:ff9b::/96 NAT64 well-known prefix.
    Nat64,
}

/// Routability of an address from a public resolver's vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrClass {
    /// Globally routable — packets can, in principle, be delivered.
    Routable,
    /// Special-purpose — unreachable from the public internet.
    Special(SpecialUse),
}

impl AddrClass {
    /// True for globally routable addresses.
    pub fn is_routable(self) -> bool {
        matches!(self, AddrClass::Routable)
    }
}

fn classify_v4(a: Ipv4Addr) -> AddrClass {
    let o = a.octets();
    let special = if o[0] == 0 {
        SpecialUse::ThisHost // 0.0.0.0 and the rest of 0/8 "this network"
    } else if o[0] == 10
        || (o[0] == 172 && (16..32).contains(&o[1]))
        || (o[0] == 192 && o[1] == 168)
    {
        SpecialUse::Private
    } else if o[0] == 127 {
        SpecialUse::Loopback
    } else if o[0] == 169 && o[1] == 254 {
        SpecialUse::LinkLocal
    } else if (o[0] == 192 && o[1] == 0 && o[2] == 2)
        || (o[0] == 198 && o[1] == 51 && o[2] == 100)
        || (o[0] == 203 && o[1] == 0 && o[2] == 113)
    {
        SpecialUse::Documentation
    } else if o[0] >= 240 {
        SpecialUse::Reserved
    } else if (224..240).contains(&o[0]) {
        SpecialUse::Multicast
    } else {
        return AddrClass::Routable;
    };
    AddrClass::Special(special)
}

fn classify_v6(a: Ipv6Addr) -> AddrClass {
    let s = a.segments();
    let special = if a == Ipv6Addr::UNSPECIFIED {
        SpecialUse::Unspecified
    } else if a == Ipv6Addr::LOCALHOST {
        SpecialUse::Loopback
    } else if s[0] == 0x2001 && s[1] == 0x0db8 {
        SpecialUse::Documentation
    } else if s[0] & 0xffc0 == 0xfe80 {
        SpecialUse::LinkLocal
    } else if s[0] & 0xfe00 == 0xfc00 {
        SpecialUse::UniqueLocal
    } else if s[0] & 0xff00 == 0xff00 {
        SpecialUse::Multicast
    } else if s[0] == 0x0064 && s[1] == 0xff9b && s[2] == 0 && s[3] == 0 && s[4] == 0 && s[5] == 0 {
        SpecialUse::Nat64
    } else if s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0 && s[4] == 0 && s[5] == 0xffff {
        SpecialUse::Mapped
    } else if s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0 && s[4] == 0 && s[5] == 0 {
        // ::/96 minus :: and ::1, handled above.
        SpecialUse::MappedDeprecated
    } else {
        return AddrClass::Routable;
    };
    AddrClass::Special(special)
}

/// Classify any address against the special-purpose registries.
pub fn classify(addr: IpAddr) -> AddrClass {
    match addr {
        IpAddr::V4(a) => classify_v4(a),
        IpAddr::V6(a) => classify_v6(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    /// Every group 7 glue value from Table 3 must classify as special.
    #[test]
    fn table3_group7_v4_cases() {
        let cases = [
            ("10.11.12.13", SpecialUse::Private),      // v4-private-10
            ("192.0.2.55", SpecialUse::Documentation), // v4-doc
            ("172.16.9.9", SpecialUse::Private),       // v4-private-172
            ("127.0.0.53", SpecialUse::Loopback),      // v4-loopback
            ("192.168.1.1", SpecialUse::Private),      // v4-private-192
            ("240.1.2.3", SpecialUse::Reserved),       // v4-reserved
            ("0.0.0.0", SpecialUse::ThisHost),         // v4-this-host
            ("169.254.7.7", SpecialUse::LinkLocal),    // v4-link-local
        ];
        for (addr, want) in cases {
            assert_eq!(classify(v4(addr)), AddrClass::Special(want), "{addr}");
        }
    }

    /// Every group 6 glue value from Table 3 must classify as special.
    #[test]
    fn table3_group6_v6_cases() {
        let cases = [
            ("::ffff:192.0.2.1", SpecialUse::Mapped),     // v6-mapped
            ("ff02::1", SpecialUse::Multicast),           // v6-multicast
            ("::", SpecialUse::Unspecified),              // v6-unspecified
            ("::c000:201", SpecialUse::MappedDeprecated), // v4-hex
            ("fd00::1234", SpecialUse::UniqueLocal),      // v6-unique-local
            ("2001:db8::77", SpecialUse::Documentation),  // v6-doc
            ("fe80::1", SpecialUse::LinkLocal),           // v6-link-local
            ("::1", SpecialUse::Loopback),                // v6-localhost
            ("64:ff9b::192.0.2.1", SpecialUse::Nat64),    // v6-nat64
        ];
        for (addr, want) in cases {
            assert_eq!(
                classify(addr.parse().unwrap()),
                AddrClass::Special(want),
                "{addr}"
            );
        }
    }

    #[test]
    fn routable_addresses() {
        for addr in ["8.8.8.8", "1.1.1.1", "198.41.0.4", "93.184.216.34"] {
            assert!(classify(v4(addr)).is_routable(), "{addr}");
        }
        for addr in ["2001:500:2::c", "2606:4700::1111", "2a00:1450:4007::8a"] {
            assert!(classify(addr.parse().unwrap()).is_routable(), "{addr}");
        }
    }

    #[test]
    fn boundary_cases() {
        assert!(classify(v4("172.15.0.1")).is_routable());
        assert_eq!(
            classify(v4("172.31.255.255")),
            AddrClass::Special(SpecialUse::Private)
        );
        assert!(classify(v4("172.32.0.1")).is_routable());
        assert!(classify(v4("223.255.255.255")).is_routable());
        assert_eq!(
            classify(v4("224.0.0.1")),
            AddrClass::Special(SpecialUse::Multicast)
        );
        assert_eq!(
            classify(v4("239.255.255.255")),
            AddrClass::Special(SpecialUse::Multicast)
        );
        assert_eq!(
            classify(v4("255.255.255.255")),
            AddrClass::Special(SpecialUse::Reserved)
        );
    }
}
