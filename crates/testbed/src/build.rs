//! Materialize the testbed: root zone, `com` zone, the
//! `extended-dns-errors.com` parent, 63 child zones, and their servers.

use crate::domains::{all_specs, DomainSpec, GlueKind, QueryKind, ServerMode};
use ede_authority::{Behavior, ZoneServer, ZoneStore};
use ede_netsim::{Network, NetworkBuilder, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::{Resolver, ResolverConfig, Vendor, VendorProfile};
use ede_wire::rdata::Soa;
use ede_wire::{DigestAlg, Name, Rdata, Record};
use ede_zone::{signer, Denial, Nsec3Config, SignerConfig, Zone, ZoneKeys};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Address of the simulated root server.
pub const ROOT_SERVER: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
/// Address of the simulated `com` server.
pub const COM_SERVER: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
/// Address of the `extended-dns-errors.com` parent server.
pub const PARENT_SERVER: Ipv4Addr = Ipv4Addr::new(185, 199, 108, 53);

/// The built testbed.
pub struct Testbed {
    /// The simulated internet, ready to be queried.
    pub net: Arc<Network>,
    /// `extended-dns-errors.com`.
    pub base: Name,
    /// The 63 specifications.
    pub specs: Vec<DomainSpec>,
    /// Resolver configuration (root hints + trust anchor) for this
    /// internet.
    pub resolver_config: ResolverConfig,
    /// Every authoritative server registered on the network (root, com,
    /// parent, children) — kept so a tracer can be attached to all of
    /// them at once.
    pub zone_servers: Vec<Arc<ZoneServer>>,
}

impl Testbed {
    /// Build the complete infrastructure.
    pub fn build() -> Testbed {
        TestbedBuilder::default().build()
    }

    /// Attach a trace sink to the whole testbed: the network's transport
    /// (query/response/timeout events, stamped with the shared virtual
    /// clock) and every authoritative server (`AuthorityAnswer` events).
    /// Resolvers created from this testbed pick the sink up through the
    /// network automatically.
    pub fn attach_trace_sink(&self, sink: Arc<dyn ede_trace::TraceSink>) {
        self.net.set_trace_sink(sink);
        let tracer = self.net.tracer();
        for server in &self.zone_servers {
            server.set_tracer(tracer.clone());
        }
    }

    /// A fresh resolver with the given vendor profile attached to this
    /// testbed's network.
    pub fn resolver(&self, vendor: Vendor) -> Resolver {
        Resolver::new(
            Arc::clone(&self.net),
            VendorProfile::new(vendor),
            self.resolver_config.clone(),
        )
    }

    /// The name the testbed queries for a given spec (see
    /// [`QueryKind`]).
    pub fn query_name(&self, spec: &DomainSpec) -> Name {
        let sub = self.base.child(spec.label).expect("valid label");
        match spec.query {
            QueryKind::Positive | QueryKind::NodataApex => sub,
            QueryKind::NxdomainChild => sub.child("test").expect("valid label"),
        }
    }

    /// Look up a spec by its label.
    pub fn spec(&self, label: &str) -> Option<&DomainSpec> {
        self.specs.iter().find(|s| s.label == label)
    }
}

#[derive(Default)]
struct TestbedBuilder {}

fn soa_for(apex: &Name) -> Rdata {
    Rdata::Soa(Soa {
        mname: apex.child("ns1").expect("valid"),
        rname: apex.child("hostmaster").expect("valid"),
        serial: 20230515,
        refresh: 7200,
        retry: 3600,
        expire: 1209600,
        minimum: 300,
    })
}

/// Create a zone skeleton: SOA, apex NS, in-zone nameserver A record.
fn skeleton(apex: &Name, ns_addr: Ipv4Addr) -> (Zone, Name) {
    let ns_name = apex.child("ns1").expect("valid label");
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(apex.clone(), 3600, soa_for(apex)));
    zone.add(Record::new(apex.clone(), 3600, Rdata::Ns(ns_name.clone())));
    zone.add_a(ns_name.clone(), ns_addr);
    (zone, ns_name)
}

/// The server address assigned to the `idx`-th subdomain.
pub fn child_server_addr(idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(185, 199, 110 + (idx / 200) as u8, (idx % 200 + 1) as u8)
}

/// One testbed child zone before signing: the skeleton (SOA, NS and
/// the server's address) and the optional apex A.
pub fn unsigned_child_zone(spec: &DomainSpec, base: &Name, idx: usize) -> Zone {
    let apex = base.child(spec.label).expect("valid label");
    let (mut zone, _ns_name) = skeleton(&apex, child_server_addr(idx));
    if spec.apex_a {
        // The answer value is arbitrary; nothing ever connects to it.
        zone.add_a(apex, Ipv4Addr::new(203, 0, 113, (idx % 250 + 1) as u8));
    }
    zone
}

/// Materialize one testbed child zone exactly as the builder does:
/// skeleton, optional apex A, signing, and the spec's mutation. Returns
/// the zone plus the DS RDATA(s) the parent publishes for it. Used both
/// by the builder and by the zone-dump tooling.
pub fn materialize_child_zone(spec: &DomainSpec, base: &Name, idx: usize) -> (Zone, Vec<Rdata>) {
    let mut zone = unsigned_child_zone(spec, base, idx);
    let apex = zone.apex().clone();

    let mut ds_rdatas: Vec<Rdata> = Vec::new();
    if spec.signed {
        let keys = ZoneKeys::generate(&apex, spec.algorithm.0, 2048);
        let cfg = SignerConfig {
            denial: Denial::Nsec3(Nsec3Config {
                iterations: spec.nsec3_iterations,
                salt: [0xab, 0xcd].into(),
            }),
            ..Default::default()
        };
        signer::sign_zone(&mut zone, &keys, &cfg);
        match &spec.misconfig {
            Some(m) => {
                m.apply(&mut zone, &keys);
                ds_rdatas = m.parent_ds(&keys.ksk, &apex);
            }
            None => {
                ds_rdatas = vec![keys.ksk.ds_rdata(&apex, DigestAlg::SHA256)];
            }
        }
    }
    (zone, ds_rdatas)
}

impl TestbedBuilder {
    fn build(self) -> Testbed {
        let clock = SimClock::new();
        let mut net = NetworkBuilder::new();
        let specs = all_specs();

        let root = Name::root();
        let com = Name::parse("com").expect("valid");
        let base = Name::parse("extended-dns-errors.com").expect("valid");

        // --- Child zones --------------------------------------------------
        // Build children first so the parent can publish their DS records.
        let mut parent_children: Vec<(Name, Name, GlueKind, Ipv4Addr, Vec<Rdata>)> = Vec::new();
        let mut child_servers: Vec<(Ipv4Addr, ZoneServer)> = Vec::new();

        for (idx, spec) in specs.iter().enumerate() {
            let apex = base.child(spec.label).expect("valid label");
            let server_addr = child_server_addr(idx);
            let ns_name = apex.child("ns1").expect("valid label");
            let (zone, ds_rdatas) = materialize_child_zone(spec, &base, idx);

            // Register the child's server only when the glue actually
            // points at it; bad-glue children are unreachable by design.
            if matches!(spec.glue, GlueKind::Routable) {
                let behavior = match spec.server {
                    ServerMode::Normal => Behavior::Normal,
                    // No resolver queries from localhost: the localhost
                    // ACL refuses every query that reaches it.
                    ServerMode::RefuseAll | ServerMode::LocalhostOnly => Behavior::RefuseAll,
                };
                let mut store = ZoneStore::new();
                store.insert(zone);
                child_servers.push((server_addr, ZoneServer::with_behavior(store, behavior)));
            }

            parent_children.push((apex, ns_name, spec.glue, server_addr, ds_rdatas));
        }

        // --- Parent zone: extended-dns-errors.com --------------------------
        let (mut parent_zone, _parent_ns) = skeleton(&base, PARENT_SERVER);
        parent_zone.add_a(base.clone(), Ipv4Addr::new(203, 0, 113, 251));
        for (child_apex, ns_name, glue, server_addr, ds_rdatas) in &parent_children {
            parent_zone.add(Record::new(
                child_apex.clone(),
                3600,
                Rdata::Ns(ns_name.clone()),
            ));
            match glue {
                GlueKind::Routable => parent_zone.add_a(ns_name.clone(), *server_addr),
                GlueKind::SpecialV4(addr) => {
                    parent_zone.add_a(ns_name.clone(), addr.parse().expect("valid v4"))
                }
                GlueKind::SpecialV6(addr) => {
                    parent_zone.add_aaaa(ns_name.clone(), addr.parse().expect("valid v6"))
                }
            }
            for ds in ds_rdatas {
                parent_zone.add(Record::new(child_apex.clone(), 3600, ds.clone()));
            }
        }
        let parent_keys = ZoneKeys::generate(&base, 8, 2048);
        signer::sign_zone(&mut parent_zone, &parent_keys, &SignerConfig::default());

        // --- com zone -------------------------------------------------------
        let (mut com_zone, _) = skeleton(&com, COM_SERVER);
        let base_ns = base.child("ns1").expect("valid");
        com_zone.add(Record::new(base.clone(), 3600, Rdata::Ns(base_ns.clone())));
        com_zone.add_a(base_ns, PARENT_SERVER);
        com_zone.add(Record::new(
            base.clone(),
            3600,
            parent_keys.ksk.ds_rdata(&base, DigestAlg::SHA256),
        ));
        let com_keys = ZoneKeys::generate(&com, 8, 2048);
        signer::sign_zone(&mut com_zone, &com_keys, &SignerConfig::default());

        // --- Root zone --------------------------------------------------------
        let (mut root_zone, _) = skeleton(&root, ROOT_SERVER);
        let com_ns = com.child("ns1").expect("valid");
        root_zone.add(Record::new(com.clone(), 3600, Rdata::Ns(com_ns.clone())));
        root_zone.add_a(com_ns, COM_SERVER);
        root_zone.add(Record::new(
            com.clone(),
            3600,
            com_keys.ksk.ds_rdata(&com, DigestAlg::SHA256),
        ));
        let root_keys = ZoneKeys::generate(&root, 8, 2048);
        signer::sign_zone(&mut root_zone, &root_keys, &SignerConfig::default());
        let trust_anchor = root_keys.ksk.ds_rdata(&root, DigestAlg::SHA256);

        // --- Wire up the network ------------------------------------------------
        let mut zone_servers: Vec<Arc<ZoneServer>> = Vec::new();
        {
            let mut add_server = |addr: Ipv4Addr, zone: Zone| {
                let mut store = ZoneStore::new();
                store.insert(zone);
                let server = Arc::new(ZoneServer::new(store));
                zone_servers.push(Arc::clone(&server));
                net.register(IpAddr::V4(addr), server);
            };
            add_server(ROOT_SERVER, root_zone);
            add_server(COM_SERVER, com_zone);
            add_server(PARENT_SERVER, parent_zone);
        }
        for (addr, server) in child_servers {
            let server = Arc::new(server);
            zone_servers.push(Arc::clone(&server));
            net.register(IpAddr::V4(addr), server);
        }

        let resolver_config = ResolverConfig::with_roots(
            vec![RootHint {
                name: Name::parse("a.root-servers.net").expect("valid"),
                addr: IpAddr::V4(ROOT_SERVER),
            }],
            vec![trust_anchor],
        );

        Testbed {
            net: Arc::new(net.build(clock)),
            base,
            specs,
            resolver_config,
            zone_servers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_resolver::ValidationState;
    use ede_wire::{Rcode, RrType};

    #[test]
    fn valid_subdomain_resolves_secure() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Unbound);
        let spec = tb.spec("valid").unwrap();
        let res = resolver.resolve(&tb.query_name(spec), RrType::A);
        assert_eq!(res.rcode, Rcode::NoError, "diag: {:?}", res.diagnosis);
        assert!(res.answers.iter().any(|r| r.rtype() == RrType::A));
        assert_eq!(res.validation, ValidationState::Secure);
        assert!(res.authentic_data);
        assert!(res.ede.is_empty());
    }

    #[test]
    fn unsigned_subdomain_is_insecure_not_bogus() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Unbound);
        let spec = tb.spec("unsigned").unwrap();
        let res = resolver.resolve(&tb.query_name(spec), RrType::A);
        assert_eq!(res.rcode, Rcode::NoError, "diag: {:?}", res.diagnosis);
        assert_eq!(res.validation, ValidationState::Insecure);
        assert!(res.ede.is_empty());
    }

    #[test]
    fn expired_rrsig_is_servfail() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Unbound);
        let spec = tb.spec("rrsig-exp-all").unwrap();
        let res = resolver.resolve(&tb.query_name(spec), RrType::A);
        assert_eq!(res.rcode, Rcode::ServFail, "diag: {:?}", res.diagnosis);
        assert_eq!(res.ede_codes(), vec![7]);
    }

    #[test]
    fn bad_glue_returns_22_for_cloudflare() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        let spec = tb.spec("v4-private-10").unwrap();
        let res = resolver.resolve(&tb.query_name(spec), RrType::A);
        assert_eq!(res.rcode, Rcode::ServFail);
        assert_eq!(res.ede_codes(), vec![22], "diag: {:?}", res.diagnosis);
    }

    #[test]
    fn acl_case_returns_9_22_23_for_cloudflare() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        let spec = tb.spec("allow-query-none").unwrap();
        let res = resolver.resolve(&tb.query_name(spec), RrType::A);
        assert_eq!(res.rcode, Rcode::ServFail);
        assert_eq!(
            res.ede_codes(),
            vec![9, 22, 23],
            "diag: {:?}",
            res.diagnosis
        );
    }
}
