//! The metrics registry: atomic counters and latency histograms fed by
//! the trace event stream.
//!
//! [`Metrics`] implements [`TraceSink`], so the same instrumentation
//! points that produce timelines also drive the counters — attach it to
//! a network (or fan out with [`crate::MultiSink`]) and every
//! `QuerySent` bumps `queries_sent`, every `CacheProbe` feeds the hit
//! ratio, and so on. Counters and histogram buckets are lock-free
//! atomics; only the per-vendor EDE map takes a short mutex.

use crate::event::{CacheOutcome, TraceEvent};
use crate::histogram::{Histogram, LiveHistogram, SIM_BOUNDS_US};
use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// The live registry. Cheap to share (`Arc<Metrics>`); attach as a
/// [`TraceSink`] and read with [`Metrics::snapshot`].
#[derive(Debug, Default)]
pub struct Metrics {
    queries_sent: AtomicU64,
    responses_received: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    tc_fallbacks: AtomicU64,
    faults_injected: AtomicU64,
    referrals: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    stale_served: AtomicU64,
    cache_expired: AtomicU64,
    cache_evictions: AtomicU64,
    cache_occupancy_peak: AtomicU64,
    denials_synthesized_nxdomain: AtomicU64,
    denials_synthesized_nodata: AtomicU64,
    validation_steps: AtomicU64,
    validation_failures: AtomicU64,
    findings: AtomicU64,
    authority_answers: AtomicU64,
    resolutions: AtomicU64,
    resolutions_noerror: AtomicU64,
    resolutions_nxdomain: AtomicU64,
    resolutions_servfail: AtomicU64,
    resolutions_other: AtomicU64,
    ede_entries: AtomicU64,
    /// (vendor, INFO-CODE) → emission count. EDE emission is rare
    /// relative to queries (error domains only), so a mutex is fine
    /// here.
    ede_by_vendor: Mutex<BTreeMap<(String, u16), u64>>,
    query_latency: LiveHistogram,
    resolution_duration: LiveHistogram,
    tasks_spawned: AtomicU64,
    tasks_completed: AtomicU64,
    inflight_tasks_peak: AtomicU64,
    ready_queue_peak: AtomicU64,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_sent: self.queries_sent.load(Relaxed),
            responses_received: self.responses_received.load(Relaxed),
            timeouts: self.timeouts.load(Relaxed),
            retries: self.retries.load(Relaxed),
            tc_fallbacks: self.tc_fallbacks.load(Relaxed),
            faults_injected: self.faults_injected.load(Relaxed),
            referrals: self.referrals.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            stale_served: self.stale_served.load(Relaxed),
            cache_expired: self.cache_expired.load(Relaxed),
            cache_evictions: self.cache_evictions.load(Relaxed),
            cache_occupancy_peak: self.cache_occupancy_peak.load(Relaxed),
            denials_synthesized_nxdomain: self.denials_synthesized_nxdomain.load(Relaxed),
            denials_synthesized_nodata: self.denials_synthesized_nodata.load(Relaxed),
            validation_steps: self.validation_steps.load(Relaxed),
            validation_failures: self.validation_failures.load(Relaxed),
            findings: self.findings.load(Relaxed),
            authority_answers: self.authority_answers.load(Relaxed),
            resolutions: self.resolutions.load(Relaxed),
            resolutions_noerror: self.resolutions_noerror.load(Relaxed),
            resolutions_nxdomain: self.resolutions_nxdomain.load(Relaxed),
            resolutions_servfail: self.resolutions_servfail.load(Relaxed),
            resolutions_other: self.resolutions_other.load(Relaxed),
            ede_entries: self.ede_entries.load(Relaxed),
            ede_by_vendor: self.ede_by_vendor.lock().expect("no poisoning").clone(),
            query_latency: self.query_latency.snapshot(SIM_BOUNDS_US),
            resolution_duration: self.resolution_duration.snapshot(SIM_BOUNDS_US),
            tasks_spawned: self.tasks_spawned.load(Relaxed),
            tasks_completed: self.tasks_completed.load(Relaxed),
            inflight_tasks_peak: self.inflight_tasks_peak.load(Relaxed),
            ready_queue_peak: self.ready_queue_peak.load(Relaxed),
        }
    }
}

impl TraceSink for Metrics {
    // Counters never read qname/target/finding strings — only event
    // kinds and numeric fields — so emitters may skip building them.
    fn wants_query_detail(&self) -> bool {
        false
    }

    fn record(&self, _at_ms: u64, event: &TraceEvent) {
        match event {
            TraceEvent::ResolutionStarted { .. } => {}
            TraceEvent::QuerySent { .. } => {
                self.queries_sent.fetch_add(1, Relaxed);
            }
            TraceEvent::ResponseReceived { latency_ms, .. } => {
                self.responses_received.fetch_add(1, Relaxed);
                self.query_latency
                    .observe(SIM_BOUNDS_US, latency_ms * 1_000);
            }
            TraceEvent::Timeout { .. } => {
                self.timeouts.fetch_add(1, Relaxed);
            }
            TraceEvent::Retry { .. } => {
                self.retries.fetch_add(1, Relaxed);
            }
            TraceEvent::TcFallback { .. } => {
                self.tc_fallbacks.fetch_add(1, Relaxed);
            }
            TraceEvent::FaultInjected { .. } => {
                self.faults_injected.fetch_add(1, Relaxed);
            }
            TraceEvent::Referral { .. } => {
                self.referrals.fetch_add(1, Relaxed);
            }
            TraceEvent::CacheProbe { outcome, .. } => {
                match outcome {
                    CacheOutcome::Hit => &self.cache_hits,
                    CacheOutcome::Miss => &self.cache_misses,
                    CacheOutcome::StaleServed => &self.stale_served,
                }
                .fetch_add(1, Relaxed);
            }
            TraceEvent::CacheEvicted {
                expired,
                evicted,
                occupancy,
            } => {
                self.cache_expired.fetch_add(*expired, Relaxed);
                self.cache_evictions.fetch_add(*evicted, Relaxed);
                self.cache_occupancy_peak.fetch_max(*occupancy, Relaxed);
            }
            TraceEvent::DenialSynthesized { nxdomain, .. } => {
                if *nxdomain {
                    &self.denials_synthesized_nxdomain
                } else {
                    &self.denials_synthesized_nodata
                }
                .fetch_add(1, Relaxed);
            }
            TraceEvent::ValidationStep { ok, .. } => {
                self.validation_steps.fetch_add(1, Relaxed);
                if !ok {
                    self.validation_failures.fetch_add(1, Relaxed);
                }
            }
            TraceEvent::FindingRecorded { .. } => {
                self.findings.fetch_add(1, Relaxed);
            }
            TraceEvent::EdeEmitted { vendor, code, .. } => {
                self.ede_entries.fetch_add(1, Relaxed);
                *self
                    .ede_by_vendor
                    .lock()
                    .expect("no poisoning")
                    .entry((vendor.clone(), *code))
                    .or_insert(0) += 1;
            }
            TraceEvent::AuthorityAnswer { .. } => {
                self.authority_answers.fetch_add(1, Relaxed);
            }
            TraceEvent::ResolutionFinished {
                rcode, duration_ms, ..
            } => {
                self.resolutions.fetch_add(1, Relaxed);
                match rcode {
                    0 => self.resolutions_noerror.fetch_add(1, Relaxed),
                    3 => self.resolutions_nxdomain.fetch_add(1, Relaxed),
                    2 => self.resolutions_servfail.fetch_add(1, Relaxed),
                    _ => self.resolutions_other.fetch_add(1, Relaxed),
                };
                self.resolution_duration
                    .observe(SIM_BOUNDS_US, duration_ms * 1_000);
            }
            TraceEvent::TaskSpawned {
                in_flight, queued, ..
            } => {
                self.tasks_spawned.fetch_add(1, Relaxed);
                self.inflight_tasks_peak
                    .fetch_max(*in_flight as u64, Relaxed);
                self.ready_queue_peak.fetch_max(*queued as u64, Relaxed);
            }
            TraceEvent::TaskCompleted {
                in_flight, queued, ..
            } => {
                self.tasks_completed.fetch_add(1, Relaxed);
                self.inflight_tasks_peak
                    .fetch_max(*in_flight as u64, Relaxed);
                self.ready_queue_peak.fetch_max(*queued as u64, Relaxed);
            }
        }
    }
}

/// A frozen copy of the registry, safe to move across threads and
/// render offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries handed to the transport.
    pub queries_sent: u64,
    /// Responses that came back.
    pub responses_received: u64,
    /// Queries that timed out (including unroutable destinations).
    pub timeouts: u64,
    /// Fallbacks to another server of the same zone.
    pub retries: u64,
    /// Truncated-reply fallbacks onto the stream channel.
    pub tc_fallbacks: u64,
    /// Fault-plan decisions that fired in the simulated network.
    pub faults_injected: u64,
    /// Zone cuts crossed.
    pub referrals: u64,
    /// Fresh cache answers.
    pub cache_hits: u64,
    /// Cache misses (live resolution followed).
    pub cache_misses: u64,
    /// RFC 8767 stale answers served.
    pub stale_served: u64,
    /// Cache entries removed because TTL + stale window lapsed (the
    /// TTL wheel's lazy expiry).
    pub cache_expired: u64,
    /// Cache entries removed by the entry budget's CLOCK sweep.
    pub cache_evictions: u64,
    /// Peak live-entry occupancy observed at removal time. Like the
    /// scheduler gauges this measures the store's internal timing, not
    /// scan results, so [`MetricsSnapshot::without_scheduler_stats`]
    /// strips it (and the two removal counters) too.
    pub cache_occupancy_peak: u64,
    /// Negative answers synthesized as NXDOMAIN from cached,
    /// DNSSEC-validated NSEC/NSEC3 ranges (RFC 8198). Unlike the
    /// eviction gauges these count a *result-shaping* decision (an
    /// authority round-trip that never happened), so
    /// [`MetricsSnapshot::without_scheduler_stats`] keeps them.
    pub denials_synthesized_nxdomain: u64,
    /// Negative answers synthesized as NODATA from cached ranges.
    pub denials_synthesized_nodata: u64,
    /// DNSSEC validation steps run.
    pub validation_steps: u64,
    /// Validation steps that recorded at least one finding.
    pub validation_failures: u64,
    /// Structured findings recorded.
    pub findings: u64,
    /// Authoritative answers traced (only when servers carry tracers).
    pub authority_answers: u64,
    /// Completed client resolutions.
    pub resolutions: u64,
    /// ... of which NOERROR.
    pub resolutions_noerror: u64,
    /// ... of which NXDOMAIN.
    pub resolutions_nxdomain: u64,
    /// ... of which SERVFAIL.
    pub resolutions_servfail: u64,
    /// ... with any other RCODE.
    pub resolutions_other: u64,
    /// Total EDE entries attached.
    pub ede_entries: u64,
    /// (vendor, INFO-CODE) → emission count.
    pub ede_by_vendor: BTreeMap<(String, u16), u64>,
    /// Upstream query latency distribution (virtual clock: whole
    /// milliseconds, held in µs like every [`Histogram`]).
    pub query_latency: Histogram,
    /// Whole-resolution duration distribution, likewise.
    pub resolution_duration: Histogram,
    /// Resolution tasks admitted by event-driven task pools.
    pub tasks_spawned: u64,
    /// Pooled resolution tasks run to completion.
    pub tasks_completed: u64,
    /// Peak of the in-flight-tasks gauge across all pools: 1 at the
    /// default window of one. Scheduler statistics depend on the
    /// in-flight window, not on scan results, so result-equality checks
    /// across concurrency levels should compare
    /// [`MetricsSnapshot::without_scheduler_stats`] snapshots.
    pub inflight_tasks_peak: u64,
    /// Peak of the completion-ready-queue-depth gauge across all pools.
    pub ready_queue_peak: u64,
}

impl MetricsSnapshot {
    /// Cache hit ratio in `[0, 1]` over hit + miss probes (stale serves
    /// count as hits — the client got an answer from cache).
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.cache_hits + self.stale_served;
        let total = hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// This snapshot with the scheduler statistics (task counters and
    /// the peak in-flight / peak ready-queue gauges) zeroed.
    ///
    /// Scan results are invariant across in-flight window sizes, but
    /// these fields measure the scheduling itself: the gauges track the
    /// window, and the task counters tell a pooled resolution (every
    /// scan, at any window) from a direct `Resolver::resolve`, which
    /// spawns no observable task. The cache removal counters go too —
    /// they measure the store's internal timing. Equality checks that
    /// sweep concurrency compare snapshots through this adaptor.
    pub fn without_scheduler_stats(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_spawned: 0,
            tasks_completed: 0,
            inflight_tasks_peak: 0,
            ready_queue_peak: 0,
            cache_expired: 0,
            cache_evictions: 0,
            cache_occupancy_peak: 0,
            ..self.clone()
        }
    }

    /// Render as an operator-facing summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("metrics summary\n");
        out.push_str(&format!(
            "  transport : {} queries, {} responses, {} timeouts, {} retries\n",
            self.queries_sent, self.responses_received, self.timeouts, self.retries
        ));
        if self.tc_fallbacks + self.faults_injected > 0 {
            out.push_str(&format!(
                "  hardening : {} tc-fallbacks, {} faults injected\n",
                self.tc_fallbacks, self.faults_injected
            ));
        }
        out.push_str(&format!(
            "  iteration : {} referrals, {} validation steps ({} failed), {} findings\n",
            self.referrals, self.validation_steps, self.validation_failures, self.findings
        ));
        out.push_str(&format!(
            "  cache     : {} hits, {} misses, {} stale served (hit ratio {:.1}%)\n",
            self.cache_hits,
            self.cache_misses,
            self.stale_served,
            100.0 * self.cache_hit_ratio()
        ));
        if self.cache_expired + self.cache_evictions > 0 {
            out.push_str(&format!(
                "  eviction  : {} expired, {} evicted (peak occupancy {})\n",
                self.cache_expired, self.cache_evictions, self.cache_occupancy_peak
            ));
        }
        if self.denials_synthesized_nxdomain + self.denials_synthesized_nodata > 0 {
            out.push_str(&format!(
                "  synthesis : {} NXDOMAIN, {} NODATA answered from cached ranges\n",
                self.denials_synthesized_nxdomain, self.denials_synthesized_nodata
            ));
        }
        out.push_str(&format!(
            "  outcomes  : {} resolutions (NOERROR {}, NXDOMAIN {}, SERVFAIL {}, other {})\n",
            self.resolutions,
            self.resolutions_noerror,
            self.resolutions_nxdomain,
            self.resolutions_servfail,
            self.resolutions_other
        ));
        if self.tasks_spawned > 0 {
            out.push_str(&format!(
                "  scheduler : {} tasks ({} completed), peak in-flight {}, peak ready queue {}\n",
                self.tasks_spawned,
                self.tasks_completed,
                self.inflight_tasks_peak,
                self.ready_queue_peak
            ));
        }
        out.push_str(&format!(
            "  latency   : query mean {:.1} ms p99 {} ms; resolution mean {:.1} ms max {} ms\n",
            self.query_latency.mean_ms(),
            self.query_latency.quantile_ms(0.99),
            self.resolution_duration.mean_ms(),
            self.resolution_duration.max / 1_000
        ));
        if self.ede_entries > 0 {
            out.push_str(&format!(
                "  ede       : {} entries emitted\n",
                self.ede_entries
            ));
            let mut per_vendor: BTreeMap<&str, Vec<(u16, u64)>> = BTreeMap::new();
            for ((vendor, code), count) in &self.ede_by_vendor {
                per_vendor.entry(vendor).or_default().push((*code, *count));
            }
            for (vendor, codes) in per_vendor {
                let detail: Vec<String> = codes
                    .iter()
                    .map(|(code, count)| format!("{code}\u{00d7}{count}"))
                    .collect();
                out.push_str(&format!("    {vendor}: {}\n", detail.join(", ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip() -> std::net::IpAddr {
        "192.0.2.1".parse().unwrap()
    }

    #[test]
    fn counters_follow_events() {
        let m = Metrics::new();
        m.record(
            0,
            &TraceEvent::QuerySent {
                dst: ip(),
                qname: "a".into(),
                qtype: 1,
                id: 1,
            },
        );
        m.record(
            0,
            &TraceEvent::QuerySent {
                dst: ip(),
                qname: "a".into(),
                qtype: 1,
                id: 2,
            },
        );
        m.record(
            20,
            &TraceEvent::ResponseReceived {
                src: ip(),
                rcode: 0,
                answers: 1,
                latency_ms: 20,
            },
        );
        m.record(
            0,
            &TraceEvent::Timeout {
                dst: ip(),
                qname: "a".into(),
                unroutable: true,
            },
        );
        m.record(
            0,
            &TraceEvent::Retry {
                attempt: 1,
                next: ip(),
            },
        );
        m.record(
            0,
            &TraceEvent::CacheProbe {
                qname: "a".into(),
                qtype: 1,
                outcome: CacheOutcome::Hit,
            },
        );
        m.record(
            0,
            &TraceEvent::CacheProbe {
                qname: "a".into(),
                qtype: 1,
                outcome: CacheOutcome::Miss,
            },
        );
        m.record(
            0,
            &TraceEvent::ValidationStep {
                target: "DNSKEY com".into(),
                ok: false,
            },
        );
        m.record(
            0,
            &TraceEvent::EdeEmitted {
                vendor: "Cloudflare DNS".into(),
                code: 7,
                extra_text: String::new(),
            },
        );
        m.record(
            0,
            &TraceEvent::DenialSynthesized {
                qname: "a".into(),
                nxdomain: true,
                ttl: 60,
            },
        );
        m.record(
            0,
            &TraceEvent::ResolutionFinished {
                rcode: 2,
                ede_count: 1,
                duration_ms: 40,
            },
        );

        let s = m.snapshot();
        assert_eq!(s.queries_sent, 2);
        assert_eq!(s.responses_received, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert!((s.cache_hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.validation_steps, 1);
        assert_eq!(s.validation_failures, 1);
        assert_eq!(s.ede_entries, 1);
        assert_eq!(s.ede_by_vendor[&("Cloudflare DNS".to_string(), 7)], 1);
        assert_eq!(s.resolutions_servfail, 1);
        assert_eq!(s.denials_synthesized_nxdomain, 1);
        assert_eq!(s.denials_synthesized_nodata, 0);
        // Synthesis shapes results, so concurrency-invariance checks
        // must still see it after stripping the scheduler gauges.
        assert_eq!(s.without_scheduler_stats().denials_synthesized_nxdomain, 1);
        assert!(
            s.render().contains("1 NXDOMAIN, 0 NODATA"),
            "{}",
            s.render()
        );
        assert_eq!(s.query_latency.total, 1);
        assert_eq!(s.resolution_duration.max, 40_000);
        let render = s.render();
        assert!(render.contains("2 queries"), "{render}");
        assert!(render.contains("Cloudflare DNS: 7\u{00d7}1"), "{render}");
    }

    #[test]
    fn scheduler_gauges_track_peaks() {
        let m = Metrics::new();
        for (task, in_flight, queued) in [(0u64, 1usize, 0usize), (1, 2, 1), (2, 3, 2)] {
            m.record(
                0,
                &TraceEvent::TaskSpawned {
                    task,
                    in_flight,
                    queued,
                },
            );
        }
        m.record(
            0,
            &TraceEvent::TaskCompleted {
                task: 0,
                in_flight: 2,
                queued: 1,
            },
        );
        m.record(
            0,
            &TraceEvent::CacheEvicted {
                expired: 4,
                evicted: 2,
                occupancy: 9,
            },
        );
        let s = m.snapshot();
        assert_eq!(s.cache_expired, 4);
        assert_eq!(s.cache_evictions, 2);
        assert_eq!(s.cache_occupancy_peak, 9);
        assert!(
            s.render().contains("4 expired, 2 evicted"),
            "{}",
            s.render()
        );
        assert_eq!(s.tasks_spawned, 3);
        assert_eq!(s.tasks_completed, 1);
        assert_eq!(s.inflight_tasks_peak, 3);
        assert_eq!(s.ready_queue_peak, 2);
        assert!(s.render().contains("peak in-flight 3"), "{}", s.render());

        let stripped = s.without_scheduler_stats();
        assert_eq!(stripped.inflight_tasks_peak, 0);
        assert_eq!(stripped.ready_queue_peak, 0);
        assert_eq!(stripped.tasks_spawned, 0);
        assert_eq!(stripped.tasks_completed, 0);
        assert_eq!(stripped.cache_expired, 0);
        assert_eq!(stripped.cache_evictions, 0);
        assert_eq!(stripped.cache_occupancy_peak, 0);
        assert_eq!(
            stripped.queries_sent, s.queries_sent,
            "real counters survive"
        );
    }
}
