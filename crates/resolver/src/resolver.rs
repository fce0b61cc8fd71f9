//! The public resolver API: cache, engine, and EDE emission.

use crate::cache::infra::{InfraCache, InfraStatsSnapshot};
use crate::cache::{Cache, CacheHit, CacheStatsSnapshot, CachedResolution};
use crate::config::ResolverConfig;
use crate::diagnosis::{Diagnosis, Finding, ValidationState};
use crate::iterative::Engine;
use crate::profiles::VendorProfile;
use ede_netsim::Network;
use ede_trace::{CacheOutcome, TraceEvent, Tracer};
use ede_wire::{EdeEntry, Edns, EdnsOption, Message, Name, Rcode, Record, Request, RrType};
use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::AtomicU16;
use std::sync::Arc;

/// How long after expiry an entry may still be served stale (RFC 8767,
/// EDE 3 / 19), seconds.
const STALE_WINDOW_SECS: u32 = 3 * 86_400;

/// The complete result of one recursive resolution, as a client of this
/// resolver would see it (plus the internal diagnosis for analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// Final response code.
    pub rcode: Rcode,
    /// Answer records.
    pub answers: Vec<Record>,
    /// Extended DNS Errors attached by the vendor profile.
    pub ede: Vec<EdeEntry>,
    /// True when the response validated as Secure (the AD bit).
    pub authentic_data: bool,
    /// Final validation state.
    pub validation: ValidationState,
    /// The engine's full structured diagnosis.
    pub diagnosis: SharedDiagnosis,
}

impl Resolution {
    /// The EDE codes, numerically.
    pub fn ede_codes(&self) -> Vec<u16> {
        self.ede.iter().map(|e| e.code.to_u16()).collect()
    }

    /// Render as a wire response to `query`, leaving this resolution
    /// whole; [`into_message`](Self::into_message) moves it instead.
    pub fn to_message(&self, query: &Message) -> Message {
        let (answers, ede) = (self.answers.clone(), self.ede.iter().cloned());
        render(query, self.rcode, self.authentic_data, answers, ede)
    }

    /// Render as a wire response to `query`, moving the answer records
    /// and EDE entries into it (what the serving pipeline does).
    pub fn into_message(self, query: &Message) -> Message {
        let (answers, ede) = (self.answers, self.ede.into_iter());
        render(query, self.rcode, self.authentic_data, answers, ede)
    }
}

/// A resolution's diagnosis: the one its own walk recorded, or, for an
/// answer-cache hit, the one the cache entry keeps, shared rather than
/// copied. Either way it derefs to the [`Diagnosis`].
#[derive(Clone)]
pub struct SharedDiagnosis(Held);

#[derive(Clone)]
enum Held {
    Own(Diagnosis),
    Entry(Arc<CachedResolution>),
}

impl From<Diagnosis> for SharedDiagnosis {
    fn from(diagnosis: Diagnosis) -> Self {
        SharedDiagnosis(Held::Own(diagnosis))
    }
}

impl Deref for SharedDiagnosis {
    type Target = Diagnosis;

    fn deref(&self) -> &Diagnosis {
        match &self.0 {
            Held::Own(diagnosis) => diagnosis,
            Held::Entry(entry) => &entry.diagnosis,
        }
    }
}

impl fmt::Debug for SharedDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Diagnosis::fmt(self, f)
    }
}

impl PartialEq for SharedDiagnosis {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedDiagnosis {}

/// What [`Resolver::serve`] hands a server: a fresh answer-cache hit's
/// entry itself, or the resolution a miss built. Either way
/// [`sections`](Self::sections) borrows what a response carries, so a
/// hit is written from its entry without a copy.
#[derive(Debug)]
pub enum Served {
    /// A fresh answer-cache hit.
    Hit {
        /// The cache entry, shared.
        entry: Arc<CachedResolution>,
        /// The AD bit its diagnosis earns.
        authentic_data: bool,
    },
    /// A miss, resolved live (or served stale).
    Resolved(Resolution),
}

impl Served {
    /// The RCODE, the AD bit, the answer records and the EDE entries.
    pub fn sections(&self) -> (Rcode, bool, &[Record], &[EdeEntry]) {
        match self {
            Served::Hit {
                entry,
                authentic_data,
            } => (entry.rcode, *authentic_data, &entry.answers, entry.ede()),
            Served::Resolved(r) => (r.rcode, r.authentic_data, &r.answers, &r.ede),
        }
    }
}

impl From<Served> for Resolution {
    /// A hit's entry copied into a resolution that shares its diagnosis.
    fn from(served: Served) -> Self {
        match served {
            Served::Resolved(resolution) => resolution,
            Served::Hit {
                entry,
                authentic_data,
            } => Resolution {
                rcode: entry.rcode,
                answers: entry.answers.to_vec(),
                ede: entry.ede().to_vec(),
                authentic_data,
                validation: entry.diagnosis.validation,
                diagnosis: SharedDiagnosis(Held::Entry(entry)),
            },
        }
    }
}

/// An EDE-capable validating recursive resolver bound to one simulated
/// network and one vendor profile.
pub struct Resolver {
    net: Arc<Network>,
    profile: VendorProfile,
    config: ResolverConfig,
    cache: Cache,
    infra: InfraCache,
    ids: AtomicU16,
}

impl Resolver {
    /// Build a resolver.
    pub fn new(net: Arc<Network>, profile: VendorProfile, config: ResolverConfig) -> Self {
        let cache = Cache::new(STALE_WINDOW_SECS, config.max_cache_entries);
        Resolver {
            net,
            profile,
            config,
            cache,
            infra: InfraCache::new(),
            ids: AtomicU16::new(1),
        }
    }

    /// The network this resolver queries.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Flush caches (tests and scan shards).
    pub fn flush(&self) {
        self.cache.clear();
        self.infra.clear();
    }

    /// A frozen copy of the shared (L2) resolution-cache counters.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// A frozen copy of the infrastructure-cache counters.
    pub fn infra_stats(&self) -> InfraStatsSnapshot {
        self.infra.stats()
    }

    /// Resolve one (name, type) with full recursion, validation, caching,
    /// and EDE emission.
    ///
    /// When a trace sink is attached to the underlying network (see
    /// `Network::set_trace_sink`), the resolution is bracketed with
    /// `ResolutionStarted`/`ResolutionFinished` events and every cache
    /// probe, validation step, finding, and EDE emission is announced in
    /// between. Another thread fetching a zone's keys this resolution
    /// needs makes it yield its thread until they are stored, not fetch
    /// them again.
    pub fn resolve(&self, qname: &Name, qtype: RrType) -> Resolution {
        self.pipeline(Query::Name(qname), qtype, true).into()
    }

    /// [`resolve`](Self::resolve) of `request`'s question for a server:
    /// the same pipeline, probe, trace events and caching, but the probe
    /// reads the request's canonical qname in place, and a fresh
    /// answer-cache hit is handed over as its entry, not copied into a
    /// [`Resolution`]. A [`Name`] is built only on a miss, or for a
    /// trace sink that wants the query's text.
    pub fn serve(&self, request: &Request) -> Served {
        self.pipeline(Query::Request(request), request.qtype, true)
    }

    /// [`resolve`](Self::resolve) for a name the caller will
    /// not ask again: the same pipeline — answer-cache probe,
    /// engine, serve-stale, EDE emission — returning the same
    /// [`Resolution`], except that it leaves two things behind. The
    /// answer is not stored in the answer cache, and neither is the key
    /// entry of the zone the answer comes from (nor of a zone whose
    /// servers all failed). The keys of every zone the walk crossed at a
    /// cut, the root's and a TLD's, are stored as on any resolution, and
    /// a name or zone stored earlier is still served from its cache. A
    /// scan calls this for every domain it never revisits, so its caches
    /// hold only what it reads back.
    pub fn resolve_once(&self, qname: &Name, qtype: RrType) -> Resolution {
        self.pipeline(Query::Name(qname), qtype, false).into()
    }

    /// The body of every entry point; `store` is whether step 4 keeps
    /// the answer and the engine keeps the answer zone's keys.
    fn pipeline(&self, query: Query<'_>, qtype: RrType, store: bool) -> Served {
        let now = self.net.clock().now_secs();
        let tracer = self.net.tracer();
        let started_ms = tracer.now_millis();
        // Counter-only sinks ignore qname strings; skip rendering them
        // (String::new() never allocates).
        let text = || match tracer.wants_query_detail() {
            true => query.name().to_string(),
            false => String::new(),
        };
        tracer.emit(TraceEvent::ResolutionStarted {
            qname: text(),
            qtype: qtype.to_u16(),
        });

        // 1. Cache probe.
        if let CacheHit::Fresh(data) = self.cache.get(query.wire(), qtype, now) {
            tracer.emit(TraceEvent::CacheProbe {
                qname: text(),
                qtype: qtype.to_u16(),
                outcome: CacheOutcome::Hit,
            });
            if data.is_failure {
                Finding::CachedError.announce(&tracer);
            }
            self.trace_finish(&tracer, started_ms, data.rcode, data.ede());
            return Served::Hit {
                authentic_data: authentic(&data.diagnosis),
                entry: data,
            };
        }
        tracer.emit(TraceEvent::CacheProbe {
            qname: text(),
            qtype: qtype.to_u16(),
            outcome: CacheOutcome::Miss,
        });
        let qname = &*query.name();

        // 2. Live resolution.
        let mut diag = Diagnosis::with_tracer(tracer.clone());
        let engine = Engine {
            net: &self.net,
            config: &self.config,
            caps: &self.profile.caps,
            infra: &self.infra,
            ids: &self.ids,
            store,
        };
        let outcome = engine.resolve(qname, qtype, &mut diag);

        // 3. Serve-stale fallback (RFC 8767) on failure.
        if outcome.rcode == Rcode::ServFail {
            if let Some(stale) = self.cache.get_stale_success(qname, qtype, now) {
                tracer.emit(TraceEvent::CacheProbe {
                    qname: text(),
                    qtype: qtype.to_u16(),
                    outcome: CacheOutcome::StaleServed,
                });
                diag.add(Finding::ServedStale {
                    nxdomain: stale.rcode == Rcode::NxDomain,
                });
                let ede = self.profile.emit(&diag);
                let resolution = Resolution {
                    rcode: stale.rcode,
                    answers: stale.answers.to_vec(),
                    authentic_data: false,
                    validation: diag.validation,
                    ede,
                    diagnosis: diag.into(),
                };
                return self.finish(&tracer, started_ms, resolution);
            }
        }

        // 4. Cache the result, unless the caller will not ask again.
        let ede = self.profile.emit(&diag);
        if store {
            let is_failure = outcome.rcode == Rcode::ServFail;
            let ttl = if is_failure {
                self.config.failure_ttl_secs
            } else {
                outcome.answers.iter().map(|r| r.ttl).min().unwrap_or(300)
            };
            // The entry is what a hit returns. Its diagnosis must not
            // keep announcing to this resolution's sink: strip the
            // tracer. A failure's hits report Cached Error beside the
            // original findings, so add it now (in an exactly sized
            // list, as the clone's), and emit once for all of them; a
            // success's hits return this resolution's codes.
            let mut stored = diag.clone();
            stored.set_tracer(Tracer::disabled());
            let stored_ede = if is_failure {
                stored.findings.reserve_exact(1);
                stored.add(Finding::CachedError);
                self.profile.emit(&stored)
            } else {
                ede.clone()
            };
            let put = self.cache.put(
                qname,
                qtype,
                CachedResolution::new(
                    outcome.rcode,
                    outcome.answers.as_slice().into(),
                    stored,
                    stored_ede.into_boxed_slice(),
                    is_failure,
                ),
                ttl,
                now,
            );
            if put.removed_any() {
                tracer.emit(TraceEvent::CacheEvicted {
                    expired: put.expired,
                    evicted: put.evicted,
                    occupancy: put.occupancy,
                });
            }
        }

        let resolution = Resolution {
            rcode: outcome.rcode,
            answers: outcome.answers,
            authentic_data: authentic(&diag),
            validation: diag.validation,
            ede,
            diagnosis: diag.into(),
        };
        self.finish(&tracer, started_ms, resolution)
    }

    /// A miss's [`trace_finish`](Self::trace_finish), and its resolution
    /// as served.
    fn finish(&self, tracer: &Tracer, started_ms: Option<u64>, res: Resolution) -> Served {
        self.trace_finish(tracer, started_ms, res.rcode, &res.ede);
        Served::Resolved(res)
    }

    /// Announce the EDE entries and the `ResolutionFinished` bracket.
    fn trace_finish(
        &self,
        tracer: &Tracer,
        started_ms: Option<u64>,
        rcode: Rcode,
        ede: &[EdeEntry],
    ) {
        if !tracer.enabled() {
            return;
        }
        for entry in ede {
            tracer.emit(TraceEvent::EdeEmitted {
                vendor: self.profile.vendor.name(),
                code: entry.code.to_u16(),
                extra_text: entry.extra_text.clone(),
            });
        }
        let now_ms = tracer.now_millis().unwrap_or(0);
        tracer.emit(TraceEvent::ResolutionFinished {
            rcode: rcode.to_u16(),
            ede_count: ede.len(),
            duration_ms: now_ms.saturating_sub(started_ms.unwrap_or(now_ms)),
        });
    }

    /// Convenience: resolve an A record by dotted name.
    pub fn resolve_a(&self, name: &str) -> Resolution {
        let qname = Name::parse(name).expect("caller passes a valid name");
        self.resolve(&qname, RrType::A)
    }
}

/// The query's name as an entry point holds it.
#[derive(Clone, Copy)]
enum Query<'a> {
    /// [`Resolver::resolve`]'s and [`Resolver::resolve_once`]'s.
    Name(&'a Name),
    /// [`Resolver::serve`]'s: a request's canonical form, no `Name`.
    Request(&'a Request),
}

impl Query<'_> {
    /// The canonical wire form, which the answer cache is keyed on.
    fn wire(&self) -> &[u8] {
        match self {
            Query::Name(name) => name.as_wire(),
            Query::Request(request) => request.qname(),
        }
    }

    /// The name, built when the entry point holds none.
    fn name(&self) -> Cow<'_, Name> {
        match self {
            Query::Name(name) => Cow::Borrowed(*name),
            Query::Request(request) => Cow::Owned(request.name()),
        }
    }
}

/// The one body of [`Resolution::to_message`] and
/// [`Resolution::into_message`].
fn render(
    query: &Message,
    rcode: Rcode,
    authentic_data: bool,
    answers: Vec<Record>,
    ede: impl Iterator<Item = EdeEntry>,
) -> Message {
    let mut resp = Message::response_to(query);
    resp.rcode = rcode;
    resp.recursion_available = true;
    resp.authentic_data = authentic_data;
    resp.answers = answers;
    let mut edns = query.edns.as_ref().map_or_else(Edns::default, Edns::reply);
    edns.options = ede.map(EdnsOption::Ede).collect();
    resp.edns = Some(edns);
    resp
}

/// The AD bit: the answer validated as Secure in a signed zone.
fn authentic(diag: &Diagnosis) -> bool {
    diag.validation == ValidationState::Secure && diag.zone_signed
}

#[cfg(test)]
mod tests {
    //! The key tier's shape: what the infrastructure cache keeps of a
    //! zone whose keys the engine validated, and for which entry points,
    //! over a mini internet of a signed root and two signed children,
    //! one with a DS that matches no key.

    use super::*;
    use crate::cache::infra::{ChainKeys, KeyEntry};
    use crate::config::RootHint;
    use crate::profiles::Vendor;
    use crate::validate::{keys_of, PublishedKey};
    use ede_authority::{ZoneServer, ZoneStore};
    use ede_netsim::{NetworkBuilder, SimClock};
    use ede_wire::rdata::Soa;
    use ede_wire::{DigestAlg, Rdata};
    use ede_zone::signer::{sign_zone, SignerConfig};
    use ede_zone::{Misconfig, Zone, ZoneKeys};
    use std::net::{IpAddr, Ipv4Addr};

    const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const CHILD_ADDR: Ipv4Addr = Ipv4Addr::new(185, 199, 120, 1);

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// A zone with an SOA, an NS and its server's address, and an apex A.
    fn zone(apex: &Name) -> Zone {
        let mut z = Zone::new(apex.clone());
        let ns = apex.child("ns1").unwrap();
        let soa = Rdata::Soa(Soa {
            mname: ns.clone(),
            rname: apex.child("hostmaster").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        });
        z.add(Record::new(apex.clone(), 3600, soa));
        z.add(Record::new(apex.clone(), 3600, Rdata::Ns(ns)));
        z.add_a(apex.clone(), "203.0.113.5".parse().unwrap());
        z
    }

    /// The resolver over the mini internet, and each child zone as it
    /// is served. `healthy.test`'s DS matches its KSK; `mismatch.test`'s
    /// carries a key tag that no key of the zone has.
    fn world() -> (Resolver, Vec<Zone>) {
        let root = Name::root();
        let mut root_zone = zone(&root);
        root_zone.add_a(n("ns1"), ROOT_ADDR);
        let mut store = ZoneStore::new();
        let mut children = Vec::new();
        for (apex, broken) in [
            ("healthy.test", None),
            ("mismatch.test", Some(Misconfig::DsBadTag)),
        ] {
            let apex = n(apex);
            let mut child = zone(&apex);
            let ns = apex.child("ns1").unwrap();
            child.add_a(ns.clone(), CHILD_ADDR);
            let keys = ZoneKeys::generate(&apex, 8, 2048);
            sign_zone(&mut child, &keys, &SignerConfig::default());
            root_zone.add(Record::new(apex.clone(), 3600, Rdata::Ns(ns.clone())));
            root_zone.add_a(ns, CHILD_ADDR);
            let ds = match broken {
                None => vec![keys.ksk.ds_rdata(&apex, DigestAlg::SHA256)],
                Some(broken) => broken.parent_ds(&keys.ksk, &apex),
            };
            for rdata in ds {
                root_zone.add(Record::new(apex.clone(), 3600, rdata));
            }
            store.insert(child.clone());
            children.push(child);
        }
        let root_keys = ZoneKeys::generate(&root, 8, 2048);
        sign_zone(&mut root_zone, &root_keys, &SignerConfig::default());
        let anchor = root_keys.ksk.ds_rdata(&root, DigestAlg::SHA256);

        let mut net = NetworkBuilder::new();
        let mut root_store = ZoneStore::new();
        root_store.insert(root_zone);
        net.register(IpAddr::V4(ROOT_ADDR), Arc::new(ZoneServer::new(root_store)));
        net.register(IpAddr::V4(CHILD_ADDR), Arc::new(ZoneServer::new(store)));
        let hints = vec![RootHint {
            name: n("ns1"),
            addr: IpAddr::V4(ROOT_ADDR),
        }];
        let resolver = Resolver::new(
            Arc::new(net.build(SimClock::new())),
            VendorProfile::new(Vendor::Quad9),
            ResolverConfig::with_roots(hints, vec![anchor]),
        );
        (resolver, children)
    }

    /// What the key tier holds for `zone`, and the keys `zone` publishes.
    fn kept(resolver: &Resolver, zone: &Zone) -> (Arc<KeyEntry>, Vec<PublishedKey>) {
        let apex = zone.apex();
        let shard = resolver.infra.key_shard(apex).lock().unwrap();
        let entry = Arc::clone(
            shard
                .entries
                .get(apex)
                .expect("the zone's keys were fetched"),
        );
        let dnskeys = zone.get(apex, RrType::Dnskey).expect("a signed zone");
        (entry, keys_of(dnskeys.into()))
    }

    /// A zone whose chain holds keeps its zone keys, once, and no tags.
    #[test]
    fn a_validated_zone_keeps_its_keys_once() {
        let (resolver, children) = world();
        let res = resolver.resolve_a("healthy.test");
        assert_eq!(
            res.validation,
            ValidationState::Secure,
            "{:?}",
            res.diagnosis
        );

        let (entry, published) = kept(&resolver, &children[0]);
        assert_eq!(published.len(), 2);
        assert!(published.iter().all(|k| k.is_zone_key()));
        assert_eq!(entry.keys, ChainKeys::Trusted(published));
    }

    /// A zone whose DS matches none of its keys keeps no key, only the
    /// tags of the keys it published, which is all the advisory check
    /// of its answers reads.
    #[test]
    fn a_bogus_zone_keeps_only_its_published_tags() {
        let (resolver, children) = world();
        let res = resolver.resolve_a("mismatch.test");
        assert_eq!(
            res.validation,
            ValidationState::Bogus,
            "{:?}",
            res.diagnosis
        );

        let (entry, published) = kept(&resolver, &children[1]);
        assert_eq!(published.len(), 2);
        let published_tags = published.iter().map(|k| k.tag).collect();
        assert_eq!(entry.keys, ChainKeys::Bogus { published_tags });
    }

    /// A one-shot resolution of a signed name leaves its zone's key
    /// entry behind and keeps the root's, which it met at the cut into
    /// the zone; `resolve` keeps both.
    #[test]
    fn a_one_shot_resolution_keeps_only_the_keys_met_at_a_cut() {
        let qname = n("healthy.test");
        for once in [true, false] {
            let (resolver, _) = world();
            let res = if once {
                resolver.resolve_once(&qname, RrType::A)
            } else {
                resolver.resolve(&qname, RrType::A)
            };
            assert_eq!(res.validation, ValidationState::Secure, "once {once}");
            let held = |apex: &Name| {
                let shard = resolver.infra.key_shard(apex).lock().unwrap();
                shard.entries.contains_key(apex)
            };
            assert!(held(&Name::root()), "once {once}: the root's keys");
            assert_eq!(held(&qname), !once, "once {once}: the answer zone's keys");
        }
    }
}
