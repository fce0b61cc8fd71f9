//! The iterative resolution engine: root priming, referral walking,
//! glue, CNAME chasing, retries, and the hookup into DNSSEC validation.

use crate::cache::infra::{InfraCache, KeyEntry, KeyShard, ReferralEntry};
use crate::cache::ranges::RangeCache;
use crate::config::ResolverConfig;
use crate::diagnosis::{Diagnosis, Finding, NegativeKind, NsEvent, NsFailure, ValidationState};
use crate::profiles::ValidatorCaps;
use crate::task::TaskHandle;
use crate::validate::{self, PublishedKey};
use ede_netsim::{NetError, Network};
use ede_trace::TraceEvent;
use ede_wire::{Message, Name, Question, Rcode, Rdata, Record, RrType};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Referral-depth limit for one resolution.
const MAX_REFERRALS: usize = 24;

/// Recursion limit for out-of-bailiwick nameserver lookups and CNAME
/// chains.
const MAX_DEPTH: usize = 8;

/// How many addresses of a zone's NS set to try before giving up.
const MAX_SERVERS_PER_ZONE: usize = 4;

/// What one engine run produced.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Final response code.
    pub rcode: Rcode,
    /// Answer records (validated answers, or empty on failure).
    pub answers: Vec<Record>,
}

/// The engine borrows everything it needs for one resolution.
///
/// Every engine run is a resumable task: network exchanges suspend
/// through the [`TaskHandle`], so one thread can hold
/// thousands of engine runs in flight (see `docs/CONCURRENCY.md`).
pub struct Engine<'a> {
    /// The simulated internet.
    pub net: &'a Network,
    /// Resolver configuration.
    pub config: &'a ResolverConfig,
    /// The active vendor's validation capabilities.
    pub caps: &'a ValidatorCaps,
    /// Shared infrastructure cache: validated zone keys plus root→TLD
    /// referral sets.
    pub infra: &'a InfraCache,
    /// Query ID source.
    pub ids: &'a AtomicU16,
    /// Executor capability: every suspension (an exchange completion)
    /// of this resolution parks through it.
    pub handle: &'a TaskHandle,
    /// The shared range tier for RFC 8198 aggressive NSEC/NSEC3
    /// synthesis, when it is effective (config knob AND vendor gate).
    /// `None` keeps the engine byte-identical to the historical walk:
    /// no retention, no synthesis probe, no trace events.
    pub ranges: Option<&'a RangeCache>,
}

/// Outcome of querying a server set.
enum SetQuery {
    /// A usable response and the address that produced it.
    Answered(Message, IpAddr),
    /// Everything failed; flag says whether any failure was an RCODE.
    AllFailed { any_rcode_failure: bool },
}

/// What one exchange yielded: a reply to read, or how the server failed.
/// A stream reply that still has TC set is unusable, and a special-purpose
/// address can never route.
fn usable_reply(reply: Result<Message, NetError>) -> Result<Message, NsFailure> {
    match reply {
        Ok(resp) if resp.truncated => Err(NsFailure::Truncated),
        Ok(resp) => NsFailure::from_rcode(resp.rcode).map_or(Ok(resp), Err),
        Err(NetError::Unroutable) => Err(NsFailure::Unroutable),
        Err(NetError::Timeout) => Err(NsFailure::Timeout),
    }
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
    ///
    /// The exchange is event-driven: the send happens immediately (all
    /// send-time side effects land before the suspension), then the
    /// task parks until the completion event fires.
    async fn transact(
        &self,
        addr: IpAddr,
        query: &Message,
        diag: &Diagnosis,
    ) -> Result<Message, NetError> {
        let sent = self.net.send(addr, self.config.source_addr, query);
        match self.handle.await_net(sent).await {
            Ok(resp) if resp.truncated => {
                self.trace_tc_fallback(addr, query, diag);
                let sent = self.net.send_stream(addr, self.config.source_addr, query);
                self.handle.await_net(sent).await
            }
            other => other,
        }
    }

    /// Blocking twin of [`transact`](Self::transact), used only by
    /// [`zone_keys`](Self::zone_keys): the DNSKEY fetch holds the key
    /// cache's singleflight build permit, which must never span a
    /// suspension point (a parked permit holder would deadlock every
    /// other task missing on the same zone). Key fetches therefore run
    /// as one atomic step on the blocking transport — a documented
    /// determinism rule of `docs/CONCURRENCY.md`.
    fn transact_blocking(
        &self,
        addr: IpAddr,
        query: &Message,
        diag: &Diagnosis,
    ) -> Result<Message, NetError> {
        match self.net.query(addr, self.config.source_addr, query) {
            Ok(resp) if resp.truncated => {
                self.trace_tc_fallback(addr, query, diag);
                self.net.query_stream(addr, self.config.source_addr, query)
            }
            other => other,
        }
    }

    /// Announce the TC=1 → stream fallback shared by both transact
    /// flavours.
    fn trace_tc_fallback(&self, addr: IpAddr, query: &Message, diag: &Diagnosis) {
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
                // Only the TC bit is visible here; the full
                // answer's size is the stream reply's business.
                size: 0,
                limit: query.advertised_payload_size(),
            });
        }
    }

    /// Ask the zone's server set until one gives a usable response:
    /// each address in referral order, with up to
    /// [`ResolverConfig::retries_per_server`] more tries on the same
    /// address after a timeout or FORMERR. One `Retry` event precedes
    /// every attempt but the first.
    async fn query_set(
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
                let failure = match self.transact(addr, &query, diag).await {
                    Ok(resp) if !resp.truncated && resp.edns.is_none() => {
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

    /// Fetch + validate (with caching) the DNSKEY RRset of `zone` using
    /// `server`, against the already-validated `ds` set.
    ///
    /// Deliberately synchronous: the whole fetch runs as one atomic
    /// step while holding the zone's singleflight build permit, on the
    /// blocking transport (see [`transact_blocking`](Self::transact_blocking)).
    fn zone_keys(
        &self,
        zone: &Name,
        ds: &[Rdata],
        server: IpAddr,
        diag: &mut Diagnosis,
    ) -> Arc<KeyEntry> {
        let now = self.now();
        // The shared tier, probed before and after taking the permit:
        // `live` borrows the locked shard (the first probe goes on to
        // take the permit under the same lock), `serve` runs once the
        // lock is gone — a hit counted and replayed.
        let live = |shard: &KeyShard| shard.entries.get(zone).filter(|e| e.live(now)).cloned();
        let serve = |entry: Arc<KeyEntry>, diag: &mut Diagnosis| {
            self.infra.count_key_hit();
            entry.replay(diag);
            entry
        };
        // Fast path plus singleflight admission: a usable entry is
        // replayed immediately; otherwise this thread takes (or waits
        // for) the zone's build permit.
        let permit = {
            let mut shard = self.infra.key_shard(zone).lock().expect("no poisoning");
            if let Some(entry) = live(&shard) {
                drop(shard);
                return serve(entry, diag);
            }
            Arc::clone(shard.building.entry(zone.clone()).or_default())
        };
        let _build = permit.lock().expect("no poisoning");
        // Re-check: if we waited on the permit, the winner has already
        // cached the entry and we must not fetch again.
        let recheck = live(&self.infra.key_shard(zone).lock().expect("no poisoning"));
        if let Some(entry) = recheck {
            return serve(entry, diag);
        }

        let mut sub = Diagnosis::with_tracer(diag.tracer().clone());
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
            match usable_reply(self.transact_blocking(server, &query, &sub)) {
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
        let keys = validate::keys_link(zone, ds, fetched, self.caps, now, &mut sub);

        // Merge the sub-diagnosis into the caller's and cache it. The
        // sub shares the caller's tracer, so `absorb` (not `add`) avoids
        // announcing each finding twice.
        diag.absorb(&sub);
        let expires = now + if keys.trusted.is_some() { 3600 } else { 30 };
        let entry = Arc::new(KeyEntry {
            trusted: keys.trusted.map(Arc::new),
            published: Arc::new(keys.published),
            findings: sub.findings,
            state: sub.validation,
            expires,
        });
        {
            let mut shard = self.infra.key_shard(zone).lock().expect("no poisoning");
            shard.entries.insert(zone.detached(), Arc::clone(&entry));
            shard.building.remove(zone);
        }
        entry
    }

    /// RFC 8198 retention of a proof the chain just accepted (an insecure
    /// delegation's, or a denial's): the ranges of `authority` belong to
    /// `zone`, and those whose signature re-verifies against its
    /// validated `keys` enter the range tier.
    fn retain_proof(&self, zone: &Name, authority: &[Record], keys: &[PublishedKey]) {
        if let Some(ranges) = self.ranges {
            let now = self.now();
            let proofs = validate::extract_proof_ranges(authority, keys, now);
            if !proofs.is_empty() {
                ranges.retain(zone, &proofs, now);
            }
        }
    }

    /// Resolve addresses for a nameserver name (used when a referral
    /// came without glue). Shares the caller's diagnosis so failures in
    /// the nameserver's own domain surface, as §4.2.8 observes.
    async fn resolve_ns_addresses(
        &self,
        ns_name: &Name,
        diag: &mut Diagnosis,
        depth: usize,
    ) -> Vec<IpAddr> {
        if depth >= MAX_DEPTH {
            return Vec::new();
        }
        // The one boxing point that breaks the resolve →
        // resolve_ns_addresses → resolve type recursion.
        let fut: std::pin::Pin<Box<dyn std::future::Future<Output = EngineOutcome> + '_>> =
            Box::pin(self.resolve(ns_name, RrType::A, diag, depth + 1));
        let outcome = fut.await;
        outcome
            .answers
            .iter()
            .filter_map(|r| match &r.rdata {
                Rdata::A(a) => Some(IpAddr::V4(*a)),
                Rdata::Aaaa(a) => Some(IpAddr::V6(*a)),
                _ => None,
            })
            .collect()
    }

    /// The cached root→TLD hop for `name`, if the infrastructure tier
    /// holds a live one, announced as the `Referral` event the live hop
    /// would have emitted.
    fn cached_first_hop(&self, name: &Name, diag: &Diagnosis) -> Option<Arc<ReferralEntry>> {
        if !self.config.enable_cache || name.is_root() {
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

    /// Full iterative resolution of (qname, qtype), as a resumable
    /// task: the returned future suspends on every network exchange
    /// via the engine's [`TaskHandle`].
    pub async fn resolve(
        &self,
        qname: &Name,
        qtype: RrType,
        diag: &mut Diagnosis,
        depth: usize,
    ) -> EngineOutcome {
        let mut current_name = qname.clone();
        let mut answers_acc: Vec<Record> = Vec::new();
        let mut cname_budget = MAX_DEPTH;

        'restart: loop {
            // RFC 8198 fast path: before any network send, ask the
            // range tier whether a still-valid, DNSSEC-validated
            // NSEC/NSEC3 interval already denies (name, type). A hit
            // synthesizes the negative answer outright — the proof was
            // cryptographically verified when it was retained, so the
            // result is exactly what the authority would have said,
            // minus the round-trip. The marker finding is mapped to an
            // EDE by no vendor (pinned by `profiles` tests), keeping
            // synthesized and live denials wire-indistinguishable.
            if let Some(ranges) = self.ranges {
                if let Some(denial) = ranges.deny(&current_name, qtype, self.now()) {
                    let kind = if denial.is_nxdomain() {
                        NegativeKind::Nxdomain
                    } else {
                        NegativeKind::Nodata
                    };
                    diag.zone_signed = true;
                    diag.add(Finding::SynthesizedDenial { kind });
                    let tracer = diag.tracer();
                    if tracer.enabled() {
                        tracer.emit(TraceEvent::DenialSynthesized {
                            qname: if tracer.wants_query_detail() {
                                current_name.to_string()
                            } else {
                                String::new()
                            },
                            nxdomain: denial.is_nxdomain(),
                            ttl: denial.ttl(),
                        });
                    }
                    let rcode = if denial.is_nxdomain() {
                        Rcode::NxDomain
                    } else {
                        Rcode::NoError
                    };
                    return EngineOutcome {
                        rcode,
                        answers: answers_acc,
                    };
                }
            }

            // Referral fast-start: when the walk's first hop (the
            // root→TLD delegation every resolution crosses) is cached,
            // replay it and start one zone down. The cached hop was
            // diagnosis-neutral when it ran live (the clean-hop rule of
            // `cache::infra`), so skipping it cannot change what this
            // resolution observes — only how many root queries it costs.
            // Only a walk that does start at the root builds the root's
            // server list and copies the trust anchors.
            let mut at = match self.cached_first_hop(&current_name, diag) {
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
            // RFC 7816: how many labels beyond the current zone we are
            // willing to expose to its servers. Resets at each zone cut.
            let mut min_extra_labels: usize = 1;

            for _ in 0..MAX_REFERRALS {
                // QNAME minimization: probe with a truncated name and NS
                // until the remaining labels run out.
                let exposed = at.zone.label_count() + min_extra_labels;
                let (probe_name, probe_type) =
                    if self.config.qname_minimization && current_name.label_count() > exposed {
                        (current_name.suffix(exposed), RrType::Ns)
                    } else {
                        (current_name.clone(), qtype)
                    };
                let minimized = probe_name != current_name;
                // Signed: a DS set (or a trust anchor) vouches for the zone.
                let zone_signed = !at.ds_rdatas.is_empty();

                let (resp, responder) = match self
                    .query_set(&at.servers, &probe_name, probe_type, diag)
                    .await
                {
                    SetQuery::Answered(resp, addr) => (resp, addr),
                    SetQuery::AllFailed { any_rcode_failure } => {
                        diag.add(Finding::AllServersFailed { any_rcode_failure });
                        // For a signed zone, probe the DNSKEY too so
                        // the diagnosis records that the chain key is
                        // unobtainable (Cloudflare's 9+22+23 bundle).
                        if zone_signed && !at.zone.is_root() {
                            if let Some(&first) = at.servers.first() {
                                let _ = self.zone_keys(&at.zone, &at.ds_rdatas, first, diag);
                            }
                        }
                        diag.degrade(ValidationState::Indeterminate);
                        return EngineOutcome {
                            rcode: Rcode::ServFail,
                            answers: Vec::new(),
                        };
                    }
                };

                // Referral?
                let referral = if resp.authoritative {
                    None
                } else {
                    parse_referral(&resp, &probe_name, &at.zone)
                };
                if let Some(referral) = referral {
                    // Clean-hop bookkeeping: remember what the
                    // diagnosis looked like before this hop so we
                    // can tell afterwards whether the hop was
                    // invisible to it (and therefore cacheable).
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
                    // Chain transition through the cut: the child
                    // inherits the referral's DS set only from a signed
                    // parent.
                    let secure_cut = zone_signed && referral.signed;
                    if zone_signed {
                        let parent = self.zone_keys(&at.zone, &at.ds_rdatas, responder, diag);
                        if let Some(keys) = validate::cut_link(
                            &resp.authorities,
                            &referral.zone,
                            referral.signed,
                            parent.trusted(),
                            self.caps,
                            self.now(),
                            diag,
                        ) {
                            self.retain_proof(&at.zone, &resp.authorities, keys);
                        }
                    }

                    // Next server set: glue, else resolve NS names.
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
                        for ns in referral_ns_names(&resp) {
                            next.extend(self.resolve_ns_addresses(ns, diag, depth).await);
                            if next.len() >= MAX_SERVERS_PER_ZONE {
                                break;
                            }
                        }
                    }
                    if next.is_empty() {
                        // Lame delegation: nowhere to go.
                        diag.add(Finding::AllServersFailed {
                            any_rcode_failure: diag
                                .ns_events
                                .iter()
                                .any(|e| e.failure.is_rcode_failure()),
                        });
                        diag.degrade(ValidationState::Indeterminate);
                        return EngineOutcome {
                            rcode: Rcode::ServFail,
                            answers: Vec::new(),
                        };
                    }
                    // The response is spent: its DS records move into
                    // the hop rather than being copied out of it.
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
                    // Cache the hop iff it was clean: a root→TLD
                    // delegation that recorded no finding, no
                    // nameserver event, and no validation-state
                    // change. Replaying such a hop later is
                    // diagnosis-neutral by construction; anything
                    // the hop *did* record must re-walk live.
                    at = if self.config.enable_cache
                        && was_root
                        && diag.findings.len() == pre_findings
                        && diag.ns_events.len() == pre_events
                        && diag.validation == pre_state
                    {
                        Position::Cached(self.infra.put_referral(hop))
                    } else {
                        Position::Live(hop)
                    };
                    min_extra_labels = 1;
                    continue;
                }

                if minimized {
                    // The minimized probe was answered authoritatively
                    // (the label exists inside the current zone, or the
                    // server says NXDOMAIN). Relaxed minimization: expose
                    // one more label and re-ask the same servers; the
                    // full query performs the validated, final exchange.
                    min_extra_labels += 1;
                    continue;
                }

                // Authoritative (or terminal) answer: the last link of
                // the chain, when one reaches this zone.
                diag.zone_signed |= zone_signed;
                let keys =
                    zone_signed.then(|| self.zone_keys(&at.zone, &at.ds_rdatas, responder, diag));
                if let Some(trusted) = validate::answer_link(
                    &resp,
                    &Question::new(current_name.clone(), qtype),
                    &at.zone,
                    keys.as_deref(),
                    self.caps,
                    self.now(),
                    diag,
                ) {
                    self.retain_proof(&at.zone, &resp.authorities, trusted);
                }

                // CNAME chasing: restart when the alias leads out of the
                // current zone and the answer does not already contain
                // the target type.
                let has_qtype = resp.answers.iter().any(|r| r.rtype() == qtype);
                let cname_target = resp.answers.iter().find_map(|r| match &r.rdata {
                    Rdata::Cname(t) if qtype != RrType::Cname => Some(t.clone()),
                    _ => None,
                });
                if let (false, Some(target)) = (has_qtype, cname_target) {
                    if cname_budget == 0 {
                        diag.degrade(ValidationState::Indeterminate);
                        return EngineOutcome {
                            rcode: Rcode::ServFail,
                            answers: Vec::new(),
                        };
                    }
                    cname_budget -= 1;
                    answers_acc.extend(resp.answers);
                    current_name = target;
                    continue 'restart;
                }

                let rcode = if diag.validation == ValidationState::Bogus {
                    Rcode::ServFail
                } else {
                    resp.rcode
                };
                // The response is spent: without a CNAME chain before
                // it, its answers are the outcome's as they stand.
                let answers = if rcode == Rcode::ServFail {
                    Vec::new()
                } else if answers_acc.is_empty() {
                    resp.answers
                } else {
                    answers_acc.extend(resp.answers);
                    answers_acc
                };
                return EngineOutcome { rcode, answers };
            }

            // Referral budget exhausted.
            diag.degrade(ValidationState::Indeterminate);
            return EngineOutcome {
                rcode: Rcode::ServFail,
                answers: Vec::new(),
            };
        }
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
