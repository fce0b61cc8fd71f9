//! The iterative resolution engine: root priming, referrals followed
//! strictly downward to the servers their glue names, retries, and the
//! hookup into DNSSEC validation.

use crate::cache::infra::{BuildMark, ChainKeys, InfraCache, KeyEntry, ReferralEntry};
use crate::config::ResolverConfig;
use crate::diagnosis::{Diagnosis, Finding, NsEvent, NsFailure, ValidationState};
use crate::profiles::ValidatorCaps;
use crate::validate;
use ede_netsim::{NetError, Network};
use ede_trace::TraceEvent;
use ede_wire::{Message, Name, Question, Rcode, Rdata, Record, RrType};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Referral-depth limit for one resolution.
const MAX_REFERRALS: usize = 24;

/// How many addresses of a zone's NS set to try before giving up.
const MAX_SERVERS_PER_ZONE: usize = 4;

/// What one engine run produced.
#[derive(Debug, Clone)]
pub(crate) struct EngineOutcome {
    /// Final response code.
    pub(crate) rcode: Rcode,
    /// Answer records (validated answers, or empty on failure).
    pub(crate) answers: Vec<Record>,
}

/// The engine borrows everything it needs for one resolution.
pub(crate) struct Engine<'a> {
    /// The simulated internet.
    pub(crate) net: &'a Network,
    /// Resolver configuration.
    pub(crate) config: &'a ResolverConfig,
    /// The active vendor's validation capabilities.
    pub(crate) caps: &'a ValidatorCaps,
    /// Shared infrastructure cache: validated zone keys plus root→TLD
    /// referral sets.
    pub(crate) infra: &'a InfraCache,
    /// Query ID source.
    pub(crate) ids: &'a AtomicU16,
    /// Whether the key entry of the zone an answer comes from (or whose
    /// servers all failed) is stored: the pipeline's `store`. Keys met
    /// at a cut are stored regardless.
    pub(crate) store: bool,
}

/// Outcome of querying a server set.
enum SetQuery {
    /// A usable response and the address that produced it.
    Answered(Message, IpAddr),
    /// Everything failed; flag says whether any failure was an RCODE.
    AllFailed { any_rcode_failure: bool },
}

/// What one exchange yielded: a reply to read, or how the server failed.
/// A special-purpose address can never route.
fn usable_reply(reply: Result<Message, NetError>) -> Result<Message, NsFailure> {
    match reply {
        Ok(resp) => NsFailure::from_rcode(resp.rcode).map_or(Ok(resp), Err),
        Err(NetError::Unroutable) => Err(NsFailure::Unroutable),
        Err(NetError::Timeout) => Err(NsFailure::Timeout),
    }
}

/// Whether a reply to an EDNS query shows a server without EDNS (RFC
/// 6891 §7): a reply it could have given, with no OPT in it. A failing
/// rcode is the server's own answer, OPT or not — a lame server's.
fn lacks_edns(resp: &Message) -> bool {
    resp.edns.is_none() && NsFailure::from_rcode(resp.rcode).is_none()
}

impl<'a> Engine<'a> {
    fn next_id(&self) -> u16 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    fn now(&self) -> u32 {
        self.net.clock().now_secs()
    }

    /// One transport exchange with truncation fallback: when the UDP
    /// reply carries TC=1, announce a [`TraceEvent::TcFallback`] and
    /// re-ask the same server over the stream (TCP-analogue) channel.
    fn transact(
        &self,
        addr: IpAddr,
        query: &Message,
        diag: &Diagnosis,
    ) -> Result<Message, NetError> {
        match self.net.query(addr, self.config.source_addr, query) {
            Ok(resp) if resp.truncated => {
                let tracer = diag.tracer();
                if tracer.enabled() {
                    tracer.emit(TraceEvent::TcFallback {
                        dst: addr,
                        qname: if tracer.wants_query_detail() {
                            query
                                .first_question()
                                .map(|q| q.name.to_string())
                                .unwrap_or_default()
                        } else {
                            String::new()
                        },
                        limit: query.advertised_payload_size(),
                    });
                }
                self.net.query_stream(addr, self.config.source_addr, query)
            }
            other => other,
        }
    }

    /// Ask the zone's server set until one gives a usable response:
    /// each address in referral order, with up to
    /// [`ResolverConfig::retries_per_server`] more tries on the same
    /// address after a timeout or FORMERR. One `Retry` event precedes
    /// every attempt but the first.
    fn query_set(
        &self,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RrType,
        diag: &mut Diagnosis,
    ) -> SetQuery {
        let retries = self.config.retries_per_server;
        let mut any_rcode_failure = false;
        let mut attempt = 0usize; // overall, across servers
        for &addr in &servers[..servers.len().min(MAX_SERVERS_PER_ZONE)] {
            let mut tries = 0usize; // same-server retries used
            loop {
                if attempt > 0 {
                    diag.tracer().emit(TraceEvent::Retry {
                        attempt,
                        next: addr,
                    });
                }
                attempt += 1;
                let query = Message::iterative_query(self.next_id(), qname.clone(), qtype);
                let failure = match self.transact(addr, &query, diag) {
                    Ok(resp) if lacks_edns(&resp) => {
                        // Pre-EDNS server: the response is unusable for a
                        // DO-bit pipeline (§4.2.6 Invalid Data).
                        diag.add(Finding::EdnsNotSupported { addr });
                        NsFailure::NoEdns
                    }
                    reply => match usable_reply(reply) {
                        Ok(resp) => return SetQuery::Answered(resp, addr),
                        Err(failure) => failure,
                    },
                };
                any_rcode_failure |= failure.is_rcode_failure();
                diag.add_event(NsEvent {
                    addr,
                    failure,
                    qname: qname.clone(),
                    qtype,
                });
                if !(failure.is_transient() && tries < retries) {
                    break;
                }
                tries += 1;
            }
        }
        SetQuery::AllFailed { any_rcode_failure }
    }

    /// Fetch + validate (with caching) the DNSKEY RRset of `at`'s zone
    /// using `server`, against the already-validated DS set of `at`.
    /// A fetched entry is stored only when `store` says so; a cached one
    /// is replayed either way.
    ///
    /// Singleflight: the first resolution to miss marks the zone as
    /// building and fetches; one on another thread that finds the mark
    /// yields its thread and looks again, so a miss storm makes one
    /// DNSKEY fetch, and the query count does not depend on thread
    /// timing.
    fn zone_keys(
        &self,
        at: &ReferralEntry,
        server: IpAddr,
        diag: &mut Diagnosis,
        store: bool,
    ) -> Arc<KeyEntry> {
        let (zone, now) = (&at.zone, self.now());
        let _building = loop {
            let hit = {
                let mut shard = self.infra.key_shard(zone).lock().expect("no poisoning");
                let hit = shard.entries.get(zone).filter(|e| e.live(now)).cloned();
                if hit.is_none() && shard.building.insert(zone.clone()) {
                    let infra = self.infra;
                    break BuildMark { infra, zone };
                }
                hit
            };
            match hit {
                Some(entry) => {
                    self.infra.count_key_hit();
                    entry.replay(diag);
                    return entry;
                }
                None => std::thread::yield_now(),
            }
        };

        let mut sub = diag.sub_step();
        // DNSKEY fetches are retried like any other exchange: a lost
        // DNSKEY response would otherwise turn a perfectly healthy zone
        // Bogus. DNSKEY RRsets are also the classic oversized answer, so
        // the truncation fallback in `transact` matters most right here.
        let retries = self.config.retries_per_server;
        let mut tries = 0usize;
        let fetched = loop {
            if tries > 0 {
                sub.tracer().emit(TraceEvent::Retry {
                    attempt: tries,
                    next: server,
                });
            }
            let query = Message::iterative_query(self.next_id(), zone.clone(), RrType::Dnskey);
            match usable_reply(self.transact(server, &query, &sub)) {
                Ok(resp) => break Ok(resp),
                Err(failure) => {
                    if failure.is_rcode_failure() {
                        sub.add_event(NsEvent {
                            addr: server,
                            failure,
                            qname: zone.clone(),
                            qtype: RrType::Dnskey,
                        });
                    }
                    if !(failure.is_transient() && tries < retries) {
                        break Err(failure);
                    }
                }
            }
            tries += 1;
        };
        let keys = validate::keys_link(zone, &at.ds_rdatas, fetched, self.caps, now, &mut sub);

        // Merge the sub-diagnosis into the caller's and cache it. The
        // sub shares the caller's tracer, so `absorb` (not `add`) avoids
        // announcing each finding twice.
        diag.absorb(&sub);
        let expires = now + if keys.trusted.is_some() { 3600 } else { 30 };
        let entry = Arc::new(KeyEntry {
            keys: ChainKeys::keep(keys),
            findings: sub.findings,
            state: sub.validation,
            expires,
        });
        if store {
            self.infra
                .key_shard(zone)
                .lock()
                .expect("no poisoning")
                .entries
                .insert(zone.clone(), Arc::clone(&entry));
        }
        entry
    }

    /// The cached root→TLD hop for `name`, if the infrastructure tier
    /// holds a live one, announced as the `Referral` event the live hop
    /// would have emitted.
    fn cached_first_hop(&self, name: &Name, diag: &Diagnosis) -> Option<Arc<ReferralEntry>> {
        if name.is_root() {
            return None;
        }
        // The TLD the name lives under.
        let tld = name.suffix(1);
        let entry = self.infra.get_referral(&tld, self.now())?;
        let tracer = diag.tracer();
        tracer.emit(TraceEvent::Referral {
            zone: if tracer.wants_query_detail() {
                entry.zone.to_string()
            } else {
                String::new()
            },
            ns_count: entry.ns_count,
            signed: entry.signed,
        });
        Some(entry)
    }

    /// Full iterative resolution of (qname, qtype).
    pub(crate) fn resolve(
        &self,
        qname: &Name,
        qtype: RrType,
        diag: &mut Diagnosis,
    ) -> EngineOutcome {
        // Referral fast-start: when the walk's first hop (the root→TLD
        // delegation every resolution crosses) is cached, replay it and
        // start one zone down. The cached hop was diagnosis-neutral when
        // it ran live (the clean-hop rule of `cache::infra`), so skipping
        // it cannot change what this resolution observes — only how many
        // root queries it costs. Only a walk that does start at the root
        // builds the root's server list and copies the trust anchors.
        let mut at = match self.cached_first_hop(qname, diag) {
            Some(entry) => Position::Cached(entry),
            None => Position::Live(ReferralEntry {
                zone: Name::root(),
                servers: self.config.root_hints.iter().map(|h| h.addr).collect(),
                ds_rdatas: self.config.trust_anchors.clone(),
                // No referral leads to the root: nothing replays these.
                ns_count: 0,
                signed: false,
                expires: 0,
            }),
        };

        for _ in 0..MAX_REFERRALS {
            // Signed: a DS set (or a trust anchor) vouches for the zone.
            let zone_signed = !at.ds_rdatas.is_empty();

            let (resp, responder) = match self.query_set(&at.servers, qname, qtype, diag) {
                SetQuery::Answered(resp, addr) => (resp, addr),
                SetQuery::AllFailed { any_rcode_failure } => {
                    diag.add(Finding::AllServersFailed { any_rcode_failure });
                    // For a signed zone, probe the DNSKEY too so the
                    // diagnosis records that the chain key is
                    // unobtainable (Cloudflare's 9+22+23 bundle).
                    if zone_signed && !at.zone.is_root() {
                        if let Some(&first) = at.servers.first() {
                            self.zone_keys(&at, first, diag, self.store);
                        }
                    }
                    return servfail(diag);
                }
            };

            // Referral?
            let referral = if resp.authoritative {
                None
            } else {
                parse_referral(&resp, qname, &at.zone)
            };
            let Some(referral) = referral else {
                // Authoritative (or terminal) answer: the last link of
                // the chain, when one reaches this zone.
                diag.zone_signed |= zone_signed;
                let keys = if zone_signed {
                    Some(self.zone_keys(&at, responder, diag, self.store))
                } else {
                    None
                };
                validate::answer_link(
                    &resp,
                    &Question::new(qname.clone(), qtype),
                    &at.zone,
                    keys.as_deref(),
                    self.caps,
                    self.now(),
                    diag,
                );
                let rcode = if diag.validation == ValidationState::Bogus {
                    Rcode::ServFail
                } else {
                    resp.rcode
                };
                // The response is spent: its answers are the outcome's
                // as they stand.
                let answers = if rcode == Rcode::ServFail {
                    Vec::new()
                } else {
                    resp.answers
                };
                return EngineOutcome { rcode, answers };
            };

            // Clean-hop bookkeeping: remember what the diagnosis looked
            // like before this hop so we can tell afterwards whether the
            // hop was invisible to it (and therefore cacheable).
            let pre_findings = diag.findings.len();
            let pre_events = diag.ns_events.len();
            let pre_state = diag.validation;
            let tracer = diag.tracer();
            tracer.emit(TraceEvent::Referral {
                zone: if tracer.wants_query_detail() {
                    referral.zone.to_string()
                } else {
                    String::new()
                },
                ns_count: referral.ns_count,
                signed: referral.signed,
            });
            // Chain transition through the cut: the child inherits the
            // referral's DS set only from a signed parent.
            let secure_cut = zone_signed && referral.signed;
            if zone_signed {
                let parent = self.zone_keys(&at, responder, diag, true);
                validate::cut_link(
                    &resp.authorities,
                    &at.zone,
                    &referral.zone,
                    referral.signed,
                    parent.trusted(),
                    self.caps,
                    self.now(),
                    diag,
                );
            }

            // Next server set: the referral's glue.
            let mut next: Vec<IpAddr> = Vec::new();
            for ns in referral_ns_names(&resp) {
                for rec in resp.additionals.iter().filter(|r| r.name == *ns) {
                    match &rec.rdata {
                        Rdata::A(a) => next.push(IpAddr::V4(*a)),
                        Rdata::Aaaa(a) => next.push(IpAddr::V6(*a)),
                        _ => {}
                    }
                }
            }
            if next.is_empty() {
                // Lame delegation: a referral without glue leaves
                // nowhere to go.
                diag.add(Finding::AllServersFailed {
                    any_rcode_failure: diag.ns_events.iter().any(|e| e.failure.is_rcode_failure()),
                });
                return servfail(diag);
            }
            // The response is spent: its DS records move into the hop
            // rather than being copied out of it.
            let was_root = at.zone.is_root();
            let hop = ReferralEntry {
                servers: next,
                ds_rdatas: if secure_cut {
                    let zone = &referral.zone;
                    resp.authorities
                        .into_iter()
                        .filter(|r| r.rtype() == RrType::Ds && r.name == *zone)
                        .map(|r| r.rdata)
                        .collect()
                } else {
                    Vec::new()
                },
                zone: referral.zone,
                ns_count: referral.ns_count,
                signed: referral.signed,
                expires: self.now() + 3600,
            };
            // Cache the hop iff it was clean: a root→TLD delegation that
            // recorded no finding, no nameserver event, and no
            // validation-state change. Replaying such a hop later is
            // diagnosis-neutral by construction; anything the hop *did*
            // record must re-walk live.
            at = if was_root
                && diag.findings.len() == pre_findings
                && diag.ns_events.len() == pre_events
                && diag.validation == pre_state
            {
                Position::Cached(self.infra.put_referral(hop))
            } else {
                Position::Live(hop)
            };
        }

        // Referral budget exhausted.
        servfail(diag)
    }
}

/// A failed resolution: SERVFAIL with no answers, the validation state
/// degraded to Indeterminate.
fn servfail(diag: &mut Diagnosis) -> EngineOutcome {
    diag.degrade(ValidationState::Indeterminate);
    EngineOutcome {
        rcode: Rcode::ServFail,
        answers: Vec::new(),
    }
}

/// Where the walk stands — the zone to ask, its servers, the DS set
/// vouching for its keys — as the referral that led there: one the walk
/// followed itself, or a cached root→TLD hop read through its `Arc`
/// rather than copied out of it.
enum Position {
    Live(ReferralEntry),
    Cached(Arc<ReferralEntry>),
}

impl std::ops::Deref for Position {
    type Target = ReferralEntry;

    fn deref(&self) -> &ReferralEntry {
        match self {
            Position::Live(entry) => entry,
            Position::Cached(entry) => entry,
        }
    }
}

/// What a referral says besides its records, which stay in the response.
struct Referral {
    zone: Name,
    ns_count: usize,
    /// Whether a DS RRset for `zone` came with it.
    signed: bool,
}

/// The nameserver names of a referral response, in record order.
fn referral_ns_names(resp: &Message) -> impl Iterator<Item = &Name> {
    resp.authorities.iter().filter_map(|r| match &r.rdata {
        Rdata::Ns(n) => Some(n),
        _ => None,
    })
}

/// Interpret a non-authoritative response as a referral toward `qname`,
/// requiring the delegation to be strictly below the zone we just asked
/// (no sideways or upward referrals — loop protection).
fn parse_referral(resp: &Message, qname: &Name, current_zone: &Name) -> Option<Referral> {
    let first = resp.authorities.iter().find(|r| r.rtype() == RrType::Ns)?;
    let zone = &first.name;
    if !qname.is_subdomain_of(zone)
        || !zone.is_subdomain_of(current_zone)
        || zone.label_count() <= current_zone.label_count()
    {
        return None;
    }
    Some(Referral {
        zone: zone.clone(),
        ns_count: referral_ns_names(resp).count(),
        signed: resp
            .authorities
            .iter()
            .any(|r| r.rtype() == RrType::Ds && r.name == *zone),
    })
}
