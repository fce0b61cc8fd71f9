//! The public resolver API: policy, cache, engine, and EDE emission.

use crate::cache::infra::{InfraCache, InfraStatsSnapshot};
use crate::cache::ranges::RangeCache;
use crate::cache::{Cache, CacheHit, CacheLimits, CacheStatsSnapshot, CachedResolution};
use crate::config::ResolverConfig;
use crate::diagnosis::{Diagnosis, Finding, ValidationState};
use crate::iterative::Engine;
use crate::policy::{Policy, PolicyAction};
use crate::profiles::VendorProfile;
use crate::task::{run_local, TaskHandle};
use ede_netsim::Network;
use ede_trace::{CacheOutcome, TraceEvent, Tracer};
use ede_wire::{EdeEntry, Edns, Message, Name, Rcode, Record, RrType};
use std::sync::atomic::AtomicU16;
use std::sync::Arc;

/// Serve expired cache entries when live resolution fails (RFC 8767);
/// produces EDE 3 / 19.
const SERVE_STALE: bool = true;

/// How long after expiry an entry may still be served stale, seconds.
const STALE_WINDOW_SECS: u32 = 3 * 86_400;

/// The complete result of one recursive resolution, as a client of this
/// resolver would see it (plus the internal diagnosis for analysis).
#[derive(Debug, Clone)]
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
    pub diagnosis: Diagnosis,
}

impl Resolution {
    /// The EDE codes, numerically.
    pub fn ede_codes(&self) -> Vec<u16> {
        self.ede.iter().map(|e| e.code.to_u16()).collect()
    }

    /// Render as a wire response to `query` (used by the UDP front end).
    pub fn to_message(&self, query: &Message) -> Message {
        let mut resp = Message::response_to(query);
        resp.rcode = self.rcode;
        resp.recursion_available = true;
        resp.authentic_data = self.authentic_data;
        resp.answers = self.answers.clone();
        let mut edns = query.edns.as_ref().map_or_else(Edns::default, Edns::reply);
        for entry in &self.ede {
            edns.push_ede(entry.clone());
        }
        resp.edns = Some(edns);
        resp
    }
}

/// An EDE-capable validating recursive resolver bound to one simulated
/// network and one vendor profile.
pub struct Resolver {
    net: Arc<Network>,
    profile: VendorProfile,
    config: ResolverConfig,
    policy: Policy,
    cache: Cache,
    infra: InfraCache,
    /// The RFC 8198 range tier (validated NSEC/NSEC3 intervals).
    ranges: RangeCache,
    /// The *effective* synthesis switch: the config knob AND the
    /// vendor gate, resolved once at construction.
    synthesize: bool,
    ids: AtomicU16,
}

impl Resolver {
    /// Build a resolver.
    pub fn new(net: Arc<Network>, profile: VendorProfile, config: ResolverConfig) -> Self {
        let cache = Cache::with_limits(
            STALE_WINDOW_SECS,
            CacheLimits {
                max_entries: config.max_cache_entries,
            },
        );
        let ranges = RangeCache::with_limits(CacheLimits {
            max_entries: config.max_range_entries,
        });
        let synthesize = config.synthesize_denial && profile.vendor.synthesizes_denial();
        Resolver {
            net,
            profile,
            config,
            policy: Policy::new(),
            cache,
            infra: InfraCache::new(),
            ranges,
            synthesize,
            ids: AtomicU16::new(1),
        }
    }

    /// Attach a policy table (blocklists, filtering, forged answers).
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// The vendor profile in use.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The network this resolver queries.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Flush caches (tests and scan shards).
    pub fn flush(&self) {
        self.cache.clear();
        self.infra.clear();
        self.ranges.clear();
    }

    /// True when RFC 8198 synthesis is effective for this resolver:
    /// the config knob is on AND the vendor's gate agrees
    /// ([`crate::Vendor::synthesizes_denial`]).
    pub fn synthesis_active(&self) -> bool {
        self.synthesize
    }

    /// A frozen copy of the range tier's counters (hits/misses count
    /// synthesis probes; puts/evictions count interval retention).
    pub fn range_stats(&self) -> CacheStatsSnapshot {
        self.ranges.stats()
    }

    /// Freeze (or thaw) the range tier: frozen, it keeps answering
    /// synthesis probes but retains nothing new. Measurement phases use
    /// this to hold the tier's contents fixed regardless of probe
    /// order, keeping sweeps deterministic across concurrency levels.
    pub fn freeze_ranges(&self, frozen: bool) {
        self.ranges.freeze(frozen);
    }

    /// A frozen copy of the shared (L2) resolution-cache counters.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// A frozen copy of the infrastructure-cache counters.
    pub fn infra_stats(&self) -> InfraStatsSnapshot {
        self.infra.stats()
    }

    /// Eagerly drop every L2 entry whose stale window has lapsed at
    /// `now`; returns how many were dropped.
    pub fn purge_expired(&self, now: u32) -> u64 {
        self.cache.purge_expired(now)
    }

    /// Resolve one (name, type) with full recursion, validation, policy,
    /// caching, and EDE emission.
    ///
    /// When a trace sink is attached to the underlying network (see
    /// `Network::set_trace_sink`), the resolution is bracketed with
    /// `ResolutionStarted`/`ResolutionFinished` events and every cache
    /// probe, validation step, finding, and EDE emission is announced in
    /// between.
    ///
    /// This is the blocking shape: it drives
    /// [`resolve_with`](Self::resolve_with) to completion on the calling
    /// thread via a private single-task event loop, with no
    /// task-lifecycle events. To hold many resolutions in flight on one
    /// thread, spawn `resolve_with` on a [`crate::ResolutionPool`]
    /// instead.
    pub fn resolve(&self, qname: &Name, qtype: RrType) -> Resolution {
        run_local(&self.net, |handle| async move {
            self.resolve_with(&handle, qname, qtype).await
        })
    }

    /// The resolution pipeline itself, as a resumable task: the one
    /// entry point every caller reaches. It suspends on `handle`
    /// whenever it would block on the network, so it runs wherever a
    /// [`TaskHandle`] comes from — [`crate::ResolutionPool::spawn`] for
    /// many in flight on one thread, or the blocking wrapper above.
    /// Semantics (policy, cache, validation, EDE emission) are the same
    /// on both; only the scheduling differs.
    pub async fn resolve_with(
        &self,
        handle: &TaskHandle,
        qname: &Name,
        qtype: RrType,
    ) -> Resolution {
        let now = self.net.clock().now_secs();
        let tracer = self.net.tracer();
        let started_ms = tracer.now_millis();
        // Counter-only sinks ignore qname strings; skip rendering them
        // (String::new() never allocates).
        let qd = |n: &Name| {
            if tracer.wants_query_detail() {
                n.to_string()
            } else {
                String::new()
            }
        };
        tracer.emit(TraceEvent::ResolutionStarted {
            qname: qd(qname),
            qtype: qtype.to_u16(),
        });

        // 1. Policy gate.
        if let Some(action) = self.policy.lookup(qname) {
            let resolution = self.policy_resolution(qname, action.clone());
            self.trace_finish(&tracer, started_ms, &resolution);
            return resolution;
        }

        // 2. Cache probe.
        if self.config.enable_cache {
            if let CacheHit::Fresh(data) = self.cache.get(qname, qtype, now) {
                tracer.emit(TraceEvent::CacheProbe {
                    qname: qd(qname),
                    qtype: qtype.to_u16(),
                    outcome: CacheOutcome::Hit,
                });
                let resolution = self.materialize_hit(&tracer, &data);
                self.trace_finish(&tracer, started_ms, &resolution);
                return resolution;
            }
            tracer.emit(TraceEvent::CacheProbe {
                qname: qd(qname),
                qtype: qtype.to_u16(),
                outcome: CacheOutcome::Miss,
            });
        }

        // 3. Live resolution.
        let mut diag = Diagnosis::with_tracer(tracer.clone());
        let engine = Engine {
            net: &self.net,
            config: &self.config,
            caps: &self.profile.caps,
            infra: &self.infra,
            ids: &self.ids,
            handle,
            ranges: if self.synthesize {
                Some(&self.ranges)
            } else {
                None
            },
        };
        let outcome = engine.resolve(qname, qtype, &mut diag, 0).await;

        // 4. Serve-stale fallback (RFC 8767) on failure.
        if outcome.rcode == Rcode::ServFail && SERVE_STALE && self.config.enable_cache {
            if let Some(stale) = self.cache.get_stale_success(qname, qtype, now) {
                tracer.emit(TraceEvent::CacheProbe {
                    qname: qd(qname),
                    qtype: qtype.to_u16(),
                    outcome: CacheOutcome::StaleServed,
                });
                diag.add(Finding::ServedStale {
                    nxdomain: stale.rcode == Rcode::NxDomain,
                });
                let ede = self.profile.emit(&diag);
                let resolution = Resolution {
                    rcode: stale.rcode,
                    answers: stale.answers.clone(),
                    authentic_data: false,
                    validation: diag.validation,
                    ede,
                    diagnosis: diag,
                };
                self.trace_finish(&tracer, started_ms, &resolution);
                return resolution;
            }
        }

        // 5. Cache the result.
        if self.config.enable_cache {
            let is_failure = outcome.rcode == Rcode::ServFail;
            let ttl = if is_failure {
                self.config.failure_ttl_secs
            } else {
                outcome.answers.iter().map(|r| r.ttl).min().unwrap_or(300)
            };
            // Cached diagnoses must not keep announcing to this
            // resolution's sink when replayed later: strip the tracer.
            // Names are detached so the long-lived entry doesn't pin
            // this resolution's transient response/zone allocations
            // (cache entries used to hold the whole working set alive
            // through shared `Arc`s, fragmenting the heap at scan
            // scale). Consecutive answers at one owner — an RRset, its
            // RRSIG — share one detached block, and so does the
            // entry's key (`Cache::put`).
            let mut stored = diag.clone();
            stored.set_tracer(Tracer::disabled());
            stored.detach_names();
            let mut owner: Option<Name> = None;
            let answers = outcome.answers.iter().map(|r| {
                let name = match &owner {
                    Some(shared) if *shared == r.name => shared.clone(),
                    _ => r.name.detached(),
                };
                owner = Some(name.clone());
                Record {
                    name,
                    rdata: r.rdata.detached(),
                    ..*r
                }
            });
            let put = self.cache.put(
                qname,
                qtype,
                CachedResolution {
                    rcode: outcome.rcode,
                    answers: answers.collect(),
                    diagnosis: stored,
                    is_failure,
                },
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

        let ede = self.profile.emit(&diag);
        self.maybe_report(qname, qtype, &ede);
        let resolution = Resolution {
            rcode: outcome.rcode,
            answers: outcome.answers,
            authentic_data: diag.validation == ValidationState::Secure && diag.zone_signed,
            validation: diag.validation,
            ede,
            diagnosis: diag,
        };
        self.trace_finish(&tracer, started_ms, &resolution);
        resolution
    }

    /// Turn a cached entry into a full [`Resolution`]. The hit handed
    /// back a shared `Arc`; the clones below are this resolution's own
    /// copies, taken outside any cache lock.
    fn materialize_hit(&self, tracer: &Tracer, data: &CachedResolution) -> Resolution {
        let mut diag = data.diagnosis.clone();
        diag.set_tracer(tracer.clone());
        if data.is_failure {
            diag.add(Finding::CachedError);
        }
        let ede = self.profile.emit(&diag);
        Resolution {
            rcode: data.rcode,
            answers: data.answers.clone(),
            authentic_data: diag.validation == ValidationState::Secure && diag.zone_signed,
            validation: diag.validation,
            ede,
            diagnosis: diag,
        }
    }

    /// Announce the EDE entries and the `ResolutionFinished` bracket.
    fn trace_finish(&self, tracer: &Tracer, started_ms: Option<u64>, res: &Resolution) {
        if !tracer.enabled() {
            return;
        }
        for entry in &res.ede {
            tracer.emit(TraceEvent::EdeEmitted {
                vendor: self.profile.vendor.name().to_string(),
                code: entry.code.to_u16(),
                extra_text: entry.extra_text.clone(),
            });
        }
        let now_ms = tracer.now_millis().unwrap_or(0);
        tracer.emit(TraceEvent::ResolutionFinished {
            rcode: res.rcode.to_u16(),
            ede_count: res.ede.len(),
            duration_ms: now_ms.saturating_sub(started_ms.unwrap_or(now_ms)),
        });
    }

    /// RFC 9567: fire an error report for the first EDE entry of a
    /// failed resolution, if an agent is configured. Report queries are
    /// fire-and-forget (the answer only matters for caching) and are
    /// never generated for names under the agent itself.
    fn maybe_report(&self, qname: &Name, qtype: RrType, ede: &[EdeEntry]) {
        let Some((agent, agent_addr)) = &self.config.error_reporting else {
            return;
        };
        let Some(first) = ede.first() else {
            return;
        };
        if qname.is_subdomain_of(agent) {
            return; // no reports about reporting
        }
        let Ok(report_name) =
            crate::reporting::report_qname(qname, qtype, first.code.to_u16(), agent)
        else {
            return;
        };
        let query = Message::iterative_query(
            self.ids.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            report_name,
            RrType::Txt,
        );
        let _ = self.net.query(*agent_addr, self.config.source_addr, &query);
    }

    /// Convenience: resolve an A record by dotted name.
    pub fn resolve_a(&self, name: &str) -> Resolution {
        let qname = Name::parse(name).expect("caller passes a valid name");
        self.resolve(&qname, RrType::A)
    }

    fn policy_resolution(&self, qname: &Name, action: PolicyAction) -> Resolution {
        let mut diag = Diagnosis::new();
        diag.degrade(ValidationState::Indeterminate);
        let entry = EdeEntry::bare(action.ede_code());
        match action {
            PolicyAction::Forge(addr) => Resolution {
                rcode: Rcode::NoError,
                answers: vec![Policy::forged_record(qname, addr)],
                ede: vec![entry],
                authentic_data: false,
                validation: diag.validation,
                diagnosis: diag,
            },
            _ => Resolution {
                rcode: Rcode::NxDomain,
                answers: Vec::new(),
                ede: vec![entry],
                authentic_data: false,
                validation: diag.validation,
                diagnosis: diag,
            },
        }
    }
}
